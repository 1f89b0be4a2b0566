"""Decision pipeline: reduce the graph, loop over pre-evaluations, enumerate
satisfying prefix assignments on the reduced graph, and decide with an
extension integer program whether each one lifts to the full graph.

The pre-evaluation loop never sweeps the 2^|l| space directly. The body is
split into maximal constraint-only pieces and an MSO skeleton; pieces touch
disjoint constraint leaves, so each piece is evaluated bit-parallel over its
own leaf bits only, assignments are enumerated once per distinct
piece-value profile, and every work item is paired upfront with the few
pre-evaluations it could possibly comply with (one for a fully pinned item,
the achievable truth vectors otherwise). Pairs are processed in the
all-true-first binary-counter order the plain loop would visit, and skipped
pre-evaluations are accounted in bulk. A subtype count below the small
threshold pins its variable, and a count at or above it is only a lower
bound (inside a twin class every size from the threshold up models the same
sentences). Work items whose type totals already equal the original type
sizes leave no variable free, so they are decided arithmetically;
everything else goes through the branch-and-bound ILP solver.

Prefix assignments are enumerated as subtype-cardinality states, and a work
item is nothing but its row of counts, one per (type, signature) column:
assignments with identical counts induce identical extension programs
(same-type vertices are interchangeable). The states come from the raw
truth-table stream, collapsed by count, while the whole prefix fits one
table, and from the count-state engine beyond that. Set sizes, pinning,
type completeness and the achievable pre-evaluations of all the states of a
profile come from products with a few integer matrices built once per
pipeline, and the extension program's constraint rows come from the same
matrix. A solved row lifts to the full graph canonically, with no
representative assignment.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import ilp, table_eval
from .errors import BudgetExceeded, WitnessError
from .formula import (
    Adjacent, And, ConstraintRef, FalseLit, Formula, FormulaStats, Iff,
    Implies, Member, Node, Not, Or, PreEvaluation, Quant, SetEq, TrueLit,
    VertexEq, analyze, constraint_truths, walk,
)
from .graph import DEFAULT_K_MAX, Graph, TypePartition, min_vertex_cover, nd_partition, type_partition
from .mso_eval import (
    PrefixAssignment, ReducedGraph, mso_check, reduce_graph,
    satisfying_prefix_assignments,
)
from .typed_eval import TypedEvaluator

MAX_PIECE_BITS = 24
MAX_PIECES = 16
MAX_FALLBACK_ALPHAS = 1 << 20
TYPED_STATE_BUDGET = 20_000_000


@dataclass
class SolveStats:
    pre_evaluations: int = 0
    prefix_assignments: int = 0
    ilp_solves: int = 0
    elapsed: float = 0.0
    cover_size: Optional[int] = None
    type_count: int = 0
    reduced_vertices: int = 0
    ilp_nodes: int = 0
    count_states: int = 0  # leaves the count-state enumeration evaluated


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[PrefixAssignment]  # on the full graph
    alpha: Optional[PreEvaluation]
    stats: SolveStats


# ------------------------------------------------------------ piece splitting

@dataclass(frozen=True)
class _PieceRef:
    index: int


def _kinds(node: Node, memo: dict) -> tuple[bool, bool]:
    """(contains MSO atoms, contains constraint leaves)."""
    got = memo.get(id(node))
    if got is not None:
        return got
    if isinstance(node, (Member, Adjacent, SetEq, VertexEq)):
        out = (True, False)
    elif isinstance(node, ConstraintRef):
        out = (False, True)
    elif isinstance(node, Not):
        out = _kinds(node.child, memo)
    elif isinstance(node, (And, Or, Implies, Iff)):
        l = _kinds(node.left, memo)
        r = _kinds(node.right, memo)
        out = (l[0] or r[0], l[1] or r[1])
    elif isinstance(node, Quant):
        out = _kinds(node.child, memo)
    else:
        out = (False, False)
    memo[id(node)] = out
    return out


def _split_pieces(body: Node) -> tuple[Node, list[Node]]:
    """Replace maximal constraint-only subtrees by piece references."""
    memo: dict = {}
    pieces: list[Node] = []

    def rec(node: Node) -> Node:
        has_mso, has_constraint = _kinds(node, memo)
        if not has_constraint:
            return node
        if not has_mso:
            pieces.append(node)
            return _PieceRef(len(pieces) - 1)
        if isinstance(node, Not):
            return Not(rec(node.child))
        if isinstance(node, (And, Or, Implies, Iff)):
            return type(node)(rec(node.left), rec(node.right))
        if isinstance(node, Quant):
            return Quant(node.quantifier, node.var, node.sort, rec(node.child))
        raise AssertionError("unreachable")

    return rec(body), pieces


def _leaf_indices(node: Node) -> list[int]:
    out = []
    for sub in walk(node):
        if isinstance(sub, ConstraintRef):
            out.append(sub.index)
    return sorted(out)


class _PieceSpace:
    """Pre-evaluation bookkeeping for one constraint piece.

    bits are the piece's constraint-leaf indices (pieces partition the
    leaves); table[p] is the piece truth under the local pattern p, where a
    set pattern bit means the corresponding leaf is guessed false.
    """

    def __init__(self, piece: Node, bits: list[int], n_vertices: int):
        self.bits = bits
        width = len(bits)
        if width > MAX_PIECE_BITS:
            raise BudgetExceeded("pre-evaluation-piece-bits", 1 << MAX_PIECE_BITS)
        size = 1 << width
        idx = np.arange(size, dtype=np.int64)
        local_tables = {
            leaf: ((idx >> j) & 1) == 0 for j, leaf in enumerate(bits)
        }
        self.table = _piece_table(piece, local_tables, n_vertices, size)
        self.patterns = {
            value: np.flatnonzero(self.table == value).astype(np.int64)
            for value in (False, True)
        }

    def local(self, alpha: int) -> int:
        out = 0
        for j, leaf in enumerate(self.bits):
            out |= ((alpha >> leaf) & 1) << j
        return out

    def spread(self, pattern: int) -> int:
        out = 0
        for j, leaf in enumerate(self.bits):
            out |= ((pattern >> j) & 1) << leaf
        return out

    def value_at(self, alpha: int) -> bool:
        return bool(self.table[self.local(alpha)])

    def reachable_values(self) -> list[bool]:
        return [value for value in (False, True) if len(self.patterns[value])]

    def count(self, value: bool) -> int:
        return len(self.patterns[value])


def _piece_table(node: Node, leaf_tables: list[np.ndarray], n_vertices: int, size: int) -> np.ndarray:
    """Truth of a constraint-only subtree over the whole pre-evaluation space.
    Quantifiers in such a subtree bind nothing; only domain emptiness matters."""
    if isinstance(node, ConstraintRef):
        return leaf_tables[node.index]
    if isinstance(node, TrueLit):
        return np.ones(size, dtype=bool)
    if isinstance(node, FalseLit):
        return np.zeros(size, dtype=bool)
    if isinstance(node, Not):
        return ~_piece_table(node.child, leaf_tables, n_vertices, size)
    if isinstance(node, (And, Or, Implies, Iff)):
        a = _piece_table(node.left, leaf_tables, n_vertices, size)
        b = _piece_table(node.right, leaf_tables, n_vertices, size)
        if isinstance(node, And):
            return a & b
        if isinstance(node, Or):
            return a | b
        if isinstance(node, Implies):
            return ~a | b
        return a == b
    if isinstance(node, Quant):
        if node.sort == "vertex" and n_vertices == 0:
            value = node.quantifier == "forall"
            return np.full(size, value, dtype=bool)
        return _piece_table(node.child, leaf_tables, n_vertices, size)
    raise TypeError(f"unexpected node in constraint piece: {node!r}")


def _fold(node: Node, values: tuple[bool, ...]) -> Node:
    """Substitute piece truth values and fold constants away so unsatisfiable
    folded bodies die without touching the evaluator."""
    if isinstance(node, _PieceRef):
        return TrueLit() if values[node.index] else FalseLit()
    if isinstance(node, Not):
        child = _fold(node.child, values)
        if isinstance(child, TrueLit):
            return FalseLit()
        if isinstance(child, FalseLit):
            return TrueLit()
        return Not(child)
    if isinstance(node, (And, Or, Implies, Iff)):
        left = _fold(node.left, values)
        right = _fold(node.right, values)
        lt, lf = isinstance(left, TrueLit), isinstance(left, FalseLit)
        rt, rf = isinstance(right, TrueLit), isinstance(right, FalseLit)
        if isinstance(node, And):
            if lf or rf:
                return FalseLit()
            if lt:
                return right
            if rt:
                return left
        elif isinstance(node, Or):
            if lt or rt:
                return TrueLit()
            if lf:
                return right
            if rf:
                return left
        elif isinstance(node, Implies):
            if lf or rt:
                return TrueLit()
            if lt:
                return right
            if rf:
                return Not(left)
        else:  # Iff
            if lt:
                return right
            if rt:
                return left
            if lf and rf:
                return TrueLit()
            if lf:
                return Not(right)
            if rf:
                return Not(left)
        return type(node)(left, right)
    if isinstance(node, Quant):
        child = _fold(node.child, values)
        # a quantifier over a constant collapses unless the domain is empty;
        # set domains are never empty and the vertex case is resolved by the
        # evaluator, so only fold when the truth value cannot depend on it
        if isinstance(child, (TrueLit, FalseLit)) and node.sort == "set":
            return child
        return Quant(node.quantifier, node.var, node.sort, child)
    return node


# --------------------------------------------------------------- work units

def _var_name(t: int, sig: int) -> str:
    return f"x_t{t}_s{sig}"


@dataclass
class _WorkUnit:
    counts: tuple[int, ...]  # [(t << m) | sig] -> |S_phi| of reduced type t
    raw_count: int
    pinned: bool
    alpha_star: Optional[int]  # pinned units: the only complying alpha index
    alpha_candidates: Optional[frozenset[int]] = None  # unpinned: achievable alphas


_CANDIDATE_BOX_CAP = 300_000


class _Columns:
    """Integer matrices over the columns of a count row. Column (t << m) | sig
    is the extension variable x_{t,sig}, in the order the program declares
    them.

    sig_bits (columns x m) turns rows into the set sizes |Z_i| and
    type_member (columns x types) into type totals. Constraint j holds when
    coeffs[j] . sizes <= consts[j]; the same matrix over the columns gives
    the group-3 rows of the extension program.
    """

    def __init__(self, f: Formula, fstats: FormulaStats, type_sizes: list[int]):
        if f.free_params:
            raise ValueError(f"formula has unbound parameters {sorted(f.free_params)}")
        m, k = f.m, len(f.constraints)
        self.m = m
        self.small = fstats.small_threshold
        self.type_sizes = np.array(type_sizes, dtype=np.int64)
        cols = np.arange(len(type_sizes) << m)
        self.sig_bits = (cols[:, None] >> np.arange(m)) & 1
        self.type_member = ((cols[:, None] >> m) == np.arange(len(type_sizes))).astype(np.int64)
        self.names = [_var_name(c >> m, c & ((1 << m) - 1)) for c in range(len(cols))]
        bit = {name: i for i, name in enumerate(f.prefix)}
        self.coeffs = np.zeros((k, m), dtype=np.int64)
        for j, c in enumerate(f.constraints):
            for name in c.lhs.sets:
                self.coeffs[j, bit[name]] += 1
            for name in c.rhs.sets:
                self.coeffs[j, bit[name]] -= 1
        self.consts = np.array(
            [c.rhs.const - c.lhs.const for c in f.constraints], dtype=np.int64
        )
        # alpha index bit j set <=> constraint j false; past 62 bits the
        # index outgrows int64
        self._weights = np.array(
            [1 << j for j in range(k)], dtype=np.int64 if k < 63 else object
        )
        self.variables = [
            (name, 0, size)
            for t, size in enumerate(type_sizes)
            for name in self.names[t << m : (t + 1) << m]
        ]
        self.group1 = [
            ilp.Row.of(dict.fromkeys(self.names[t << m : (t + 1) << m], 1), ilp.EQ, size)
            for t, size in enumerate(type_sizes)
        ]
        # per constraint: the row guessed true, and the reversed row
        self.group3 = []
        for coeffs, const in zip((self.sig_bits @ self.coeffs.T).T.tolist(), self.consts.tolist()):
            terms = dict(zip(self.names, coeffs))
            self.group3.append(
                (ilp.Row.of(terms, ilp.LE, const), ilp.Row.of(terms, ilp.GE, const + 1))
            )
        self._boxes: dict[int, np.ndarray] = {}  # slack -> offsets in [0, slack]^m

    def alphas(self, sizes: np.ndarray) -> np.ndarray:
        """Pre-evaluation index of every row of set sizes."""
        return (sizes @ self.coeffs.T > self.consts) @ self._weights

    def achievable(self, sizes: np.ndarray, slack: int) -> Optional[frozenset[int]]:
        """Pre-evaluations a unit with set sizes `sizes` can possibly comply
        with: its extensions place `slack` more vertices, so every |Z_i| lies
        in [sizes_i, sizes_i + slack], and sweeping that box covers every
        feasible truth vector. None when the box is too large to sweep (the
        solver then tries the unit under every pre-evaluation)."""
        if (slack + 1) ** self.m > _CANDIDATE_BOX_CAP:
            return None
        box = self._boxes.get(slack)
        if box is None:
            cells = (slack + 1) ** self.m
            box = np.indices((slack + 1,) * self.m).reshape(self.m, cells).T
            self._boxes[slack] = box
        # one constraint at a time keeps the temporaries at one value per cell
        alphas = np.zeros(len(box), dtype=self._weights.dtype)
        for coeffs, const, weight in zip(
            self.coeffs, self.consts - sizes @ self.coeffs.T, self._weights
        ):
            alphas[box @ coeffs > const] += weight
        return frozenset(np.unique(alphas).tolist())


def _counts_from_chi(rg: ReducedGraph, chi: PrefixAssignment) -> tuple[int, ...]:
    m = len(chi.sets)
    sig = [0] * rg.graph.n
    for i, s in enumerate(chi.sets):
        for v in s:
            sig[v] |= 1 << i
    row = [0] * (len(rg.types.types) << m)
    for v, t in enumerate(rg.types.type_of(rg.graph.n)):
        row[(t << m) | sig[v]] += 1
    return tuple(row)


def _build_instance(
    cols: _Columns,
    counts: tuple[int, ...],
    alpha_index: int,
    objective: Optional["BetaObjective"] = None,
) -> ilp.ILPInstance:
    variables = list(cols.variables)
    rows = list(cols.group1)
    for name, c in zip(cols.names, counts):
        rows.append(ilp.Row.of({name: 1}, ilp.EQ if c < cols.small else ilp.GE, c))
    for j, (guessed_true, reversed_row) in enumerate(cols.group3):
        rows.append(reversed_row if (alpha_index >> j) & 1 else guessed_true)
    obj = None
    if objective is not None:
        beta_rows, beta_var, obj = objective.augment(counts)
        variables.append(beta_var)
        rows.extend(beta_rows)
    return ilp.ILPInstance.build(variables, rows, obj)


class _Pipeline:
    def __init__(
        self,
        g: Graph,
        f: Formula,
        mode: str = "vertex-cover",
        k_max: int = DEFAULT_K_MAX,
        node_budget: int = ilp.DEFAULT_NODE_BUDGET,
        dump: Optional[Callable[[ilp.ILPInstance], None]] = None,
    ):
        self.g = g
        self.f = f
        self.mode = mode
        self.node_budget = node_budget
        self.dump = dump
        self.stats = SolveStats()

        if mode in ("vertex-cover", "vc"):
            cover = min_vertex_cover(g, k_max)
            self.tp = type_partition(g, cover)
            self.stats.cover_size = cover.size
        elif mode in ("neighborhood-diversity", "nd"):
            self.tp = nd_partition(g)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.fstats = analyze(f)
        self.cols = _Columns(f, self.fstats, [len(members) for members in self.tp.types])
        self.rg = reduce_graph(g, self.tp, self.fstats)
        self.stats.type_count = self.tp.count
        self.stats.reduced_vertices = self.rg.graph.n

        self.m = f.m
        self.k = len(f.constraints)

        # alpha index bit i set <=> constraint i guessed false; index 0 is
        # all-true and ascending order is the binary counter the spec fixes
        self.skeleton, self.pieces = _split_pieces(f.body)
        if len(self.pieces) > MAX_PIECES:
            raise BudgetExceeded("pre-evaluation-pieces", 1 << MAX_PIECES)
        self.spaces = [
            _PieceSpace(piece, _leaf_indices(piece), self.rg.graph.n)
            for piece in self.pieces
        ]

        # multinomial numerator of a count state's raw assignments
        self._arrangements = math.prod(
            math.factorial(len(members)) for members in self.rg.types.types
        )
        # work units of each piece-value profile, in enumeration order
        self._unit_cache: dict[tuple[bool, ...], list[_WorkUnit]] = {}

    # ---------------------------------------------------------------- units

    def _units_for_profile(self, values: tuple[bool, ...]) -> list[_WorkUnit]:
        cached = self._unit_cache.get(values)
        if cached is not None:
            return cached
        folded = _fold(self.skeleton, values)
        units = [] if isinstance(folded, FalseLit) else self._enumerate_states(folded)
        self._unit_cache[values] = units
        return units

    def _enumerate_states(self, body: Node) -> list[_WorkUnit]:
        """One unit per subtype-cardinality state. Uses the truth table while
        the whole prefix and the body fit one table and count-state
        recursion beyond that."""
        budget = table_eval.DEFAULT_CELL_BUDGET
        if (
            1 << (self.rg.graph.n * self.m) <= budget
            and table_eval.estimate_worst_cells(
                self.rg.graph, body, (), fixed=frozenset(self.f.prefix)
            ) <= budget
        ):
            seen: dict[tuple[int, ...], int] = {}
            for chi in self._raw_stream(body):
                row = _counts_from_chi(self.rg, chi)
                seen[row] = seen.get(row, 0) + 1
            return self._units(list(seen), list(seen.values()))
        ev = TypedEvaluator(
            self.rg.graph, classes=list(self.rg.types.types),
            state_budget=TYPED_STATE_BUDGET,
        )
        # collect every state before any bookkeeping, so a run that ends in
        # an mso-states refusal has not paid for units it never uses
        states = list(ev.satisfying_states(self.f.prefix, body))
        self.stats.count_states += ev.leaves
        rows = []
        raw_counts = []
        for classes in states:
            row = [0] * len(self.cols.names)
            for base, sig, count in classes:
                row[(base << self.m) | sig] = count
            rows.append(tuple(row))
            raw_counts.append(
                self._arrangements // math.prod(math.factorial(c) for _, _, c in classes)
            )
        return self._units(rows, raw_counts)

    def _units(self, rows: list[tuple[int, ...]], raw_counts: list[int]) -> list[_WorkUnit]:
        """Work units for count rows of the reduced graph, all read off the
        column matrices at once. A row whose type totals equal the original
        sizes is pinned whatever its counts: the type sums leave every
        lower-bounded variable at its bound. Every other row has room to
        grow: a type cut down to 2^m * small vertices has a signature with
        at least `small` of them, whose variable is only bounded below."""
        self.stats.prefix_assignments += sum(raw_counts)
        if not rows:
            return []
        cols = self.cols
        counts = np.array(rows, dtype=np.int64)
        sizes = counts @ cols.sig_bits
        totals = counts @ cols.type_member
        complete = (totals == cols.type_sizes).all(axis=1)
        alphas = cols.alphas(sizes)
        slack = (cols.type_sizes.sum() - totals.sum(axis=1)).tolist()
        units = []
        for i, row in enumerate(rows):
            if complete[i]:
                units.append(_WorkUnit(row, raw_counts[i], True, int(alphas[i])))
            else:
                candidates = cols.achievable(sizes[i], slack[i])
                units.append(_WorkUnit(row, raw_counts[i], False, None, candidates))
        return units

    def _raw_stream(self, body: Node):
        if self.m == 0:
            if mso_check(self.rg.graph, body, method="auto"):
                yield PrefixAssignment(())
            return
        yield from satisfying_prefix_assignments(self.rg.graph, body, self.f.prefix)

    # ------------------------------------------------------------------ ILP

    def _decide_unit(
        self,
        unit: _WorkUnit,
        alpha_index: int,
        objective: Optional["BetaObjective"],
        below: Optional[int] = None,
    ) -> tuple[bool, Optional[tuple[int, ...]], Optional[int]]:
        """(feasible, solved count row, objective value) for one work item;
        with `below`, only objective values < below count as feasible."""
        self.stats.ilp_solves += 1
        if unit.pinned:
            if alpha_index != unit.alpha_star:
                return False, None, None
            value = objective.pinned_value(unit.counts) if objective is not None else None
            if self.dump is not None:
                self.dump(_build_instance(self.cols, unit.counts, alpha_index, objective))
            if below is not None and value >= below:
                return False, None, None
            return True, unit.counts, value
        inst = _build_instance(self.cols, unit.counts, alpha_index, objective)
        if self.dump is not None:
            self.dump(inst)
        if objective is None:
            res = ilp.solve_feasibility(inst, self.node_budget)
        else:
            res = ilp.solve_min(inst, self.node_budget, below=below)
        self.stats.ilp_nodes += res.nodes
        if res.status == "infeasible":
            return False, None, None
        counts = tuple(res.assignment[name] for name in self.cols.names)
        return True, counts, res.objective_value

    # ------------------------------------------------------------- main loop

    def alpha_bools(self, alpha_index: int) -> PreEvaluation:
        return tuple(((alpha_index >> i) & 1) == 0 for i in range(self.k))

    def _profiles(self):
        """Reachable piece-value combinations (a piece with a constant table
        contributes one value)."""
        options = [space.reachable_values() for space in self.spaces]
        for combo in itertools.product(*options):
            yield combo

    def _alpha_member(self, alpha: int, values: tuple[bool, ...]) -> bool:
        return all(
            space.value_at(alpha) == value
            for space, value in zip(self.spaces, values)
        )

    def _profile_alphas(self, values: tuple[bool, ...]) -> list[int]:
        """The full pre-evaluation set of a profile, ascending; budgeted
        (needed only for units whose achievable set could not be bounded)."""
        total = 1
        for space, value in zip(self.spaces, values):
            total *= space.count(value)
            if total > MAX_FALLBACK_ALPHAS:
                raise BudgetExceeded("pre-evaluations", MAX_FALLBACK_ALPHAS)
        alphas = [0]
        for space, value in zip(self.spaces, values):
            spreads = [space.spread(int(p)) for p in space.patterns[value]]
            alphas = [base | extra for base in alphas for extra in spreads]
        return sorted(alphas)

    def _collect_pairs(self) -> list[tuple[int, int, _WorkUnit]]:
        """Every (pre-evaluation, unit) work pair that could possibly be
        feasible, in the (alpha, enumeration position) order the plain loop
        would reach them. alphas determine their profile, so position ties
        across profiles cannot happen."""
        pairs: list[tuple[int, int, _WorkUnit]] = []
        for values in self._profiles():
            fallback: Optional[list[int]] = None
            for pos, unit in enumerate(self._units_for_profile(values)):
                if unit.pinned:
                    if self._alpha_member(unit.alpha_star, values):
                        pairs.append((unit.alpha_star, pos, unit))
                elif unit.alpha_candidates is not None:
                    for alpha in unit.alpha_candidates:
                        if self._alpha_member(alpha, values):
                            pairs.append((alpha, pos, unit))
                else:
                    if fallback is None:
                        fallback = self._profile_alphas(values)
                    for alpha in fallback:
                        pairs.append((alpha, pos, unit))
        pairs.sort(key=lambda item: (item[0], item[1]))
        return pairs

    def run_decision(self) -> Verdict:
        start = time.perf_counter()
        for alpha_index, _pos, unit in self._collect_pairs():
            feasible, counts, _ = self._decide_unit(unit, alpha_index, None)
            if feasible:
                witness = extract_witness(counts, self.m, self.tp.types)
                self.stats.pre_evaluations = alpha_index + 1
                self.stats.elapsed = time.perf_counter() - start
                alpha = self.alpha_bools(alpha_index)
                self._assert_compliance(witness, alpha)
                return Verdict(True, witness, alpha, self.stats)
        self.stats.pre_evaluations = 1 << self.k
        self.stats.elapsed = time.perf_counter() - start
        return Verdict(False, None, None, self.stats)

    def run_minimize(self, objective: "BetaObjective"):
        """All work pairs solved, each only for values below the best found
        so far; returns (best value, witness, alpha) or None."""
        start = time.perf_counter()
        best: Optional[tuple[int, PrefixAssignment, PreEvaluation]] = None
        for alpha_index, _pos, unit in self._collect_pairs():
            below = best[0] if best is not None else None
            feasible, counts, value = self._decide_unit(
                unit, alpha_index, objective, below
            )
            if feasible:
                witness = extract_witness(counts, self.m, self.tp.types)
                alpha = self.alpha_bools(alpha_index)
                self._assert_compliance(witness, alpha)
                best = (value, witness, alpha)
        self.stats.pre_evaluations = 1 << self.k
        self.stats.elapsed = time.perf_counter() - start
        return best

    def _assert_compliance(self, witness: PrefixAssignment, alpha: PreEvaluation) -> None:
        sizes = {name: len(s) for name, s in zip(self.f.prefix, witness.sets)}
        if constraint_truths(self.f, sizes) != alpha:
            raise WitnessError("witness does not comply with its pre-evaluation")


# ---------------------------------------------------------------- public ops

def build_extension_ilp(
    g: Graph,
    tp: TypePartition,
    chi_phi: PrefixAssignment,
    alpha: PreEvaluation,
    f: Formula,
    stats: FormulaStats,
) -> ilp.ILPInstance:
    """The extension program for one satisfying prefix assignment on the
    reduced graph: one variable per (type, signature), type-cardinality sums,
    pins for subtype counts below the small threshold and lower bounds for
    the rest, and the pre-evaluated cardinality constraints (reversed with a
    +1 shift where guessed false)."""
    rg = reduce_graph(g, tp, stats)
    cols = _Columns(f, stats, [len(members) for members in tp.types])
    alpha_index = sum((0 if a else 1) << i for i, a in enumerate(alpha))
    return _build_instance(cols, _counts_from_chi(rg, chi_phi), alpha_index)


def extract_witness(
    counts: Sequence[int], m: int, types: Sequence[Sequence[int]]
) -> PrefixAssignment:
    """Lift solved counts to the full graph: counts[(t << m) | sig] members of
    type t get prefix-membership signature sig, members in index order
    taking the signatures in ascending order. Same-type vertices are twins,
    so every placement with these counts satisfies the same sentences."""
    sets: list[set[int]] = [set() for _ in range(m)]
    for t, members in enumerate(types):
        block = counts[t << m : (t + 1) << m]
        if sum(block) != len(members):
            raise WitnessError(
                f"type {t}: {len(members)} vertices but counts add up to {sum(block)}"
            )
        pos = 0
        for sig, c in enumerate(block):
            for i in range(m):
                if (sig >> i) & 1:
                    sets[i].update(members[pos : pos + c])
            pos += c
    return PrefixAssignment(tuple(frozenset(s) for s in sets))


def check(
    g: Graph,
    f: Formula,
    mode: str = "vertex-cover",
    k_max: int = DEFAULT_K_MAX,
    node_budget: int = ilp.DEFAULT_NODE_BUDGET,
    dump: Optional[Callable[[ilp.ILPInstance], None]] = None,
) -> Verdict:
    """Does g model the sentence? Exact; witness returned when it holds."""
    pipeline = _Pipeline(g, f, mode, k_max, node_budget, dump)
    return pipeline.run_decision()
