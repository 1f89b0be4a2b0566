"""Decision pipeline: reduce the graph, loop over pre-evaluations, enumerate
satisfying prefix assignments on the reduced graph, and decide with an
extension integer program whether each one lifts to the full graph.

The pre-evaluation loop never sweeps the 2^|l| space directly. The body is
split into maximal constraint-only pieces and an MSO skeleton; pieces touch
disjoint constraint leaves, so each piece is evaluated bit-parallel over its
own leaf bits only, and assignments are enumerated once per distinct
piece-value profile. Work pairs (pre-evaluation, unit) are processed in the
all-true-first binary-counter order the plain loop would visit.

Prefix assignments are enumerated as subtype-cardinality states, and a work
unit is nothing but its row of counts, one per (type, signature) column:
assignments with identical counts induce identical extension programs
(same-type vertices are interchangeable). The states come from the raw
truth-table stream, collapsed by count, while the whole prefix fits one
table, and from the count-state engine beyond that. A solved row lifts to
the full graph canonically, with no representative assignment.

Reduction keeps min(|T|, threshold) vertices of every type; inside a twin
class every size from the threshold up models the same sentences (Lampis's
threshold argument). A subtype count below the threshold pins its variable,
and a count at or above it is only a lower bound. Every row's type totals
are the reduced type sizes, so the extension of every unit of a pipeline
places the same number of further vertices, slack = n - reduced n. With no
slack the type sums pin every variable and a unit is decided
arithmetically; otherwise it goes through the branch-and-bound ILP solver.
A unit with set sizes s can comply only with the pre-evaluations of the
sizes in [s, s + slack]^m. That box is built once per pipeline and swept
once per distinct (set sizes, profile); past a cap, every unit is tried
under every pre-evaluation of its profile.
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
    pre_evaluations: int = 0  # distinct pre-evaluations of the work pairs tried
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


_CANDIDATE_BOX_CAP = 300_000


class _Columns:
    """Integer matrices over the columns of a count row. Column (t << m) | sig
    is the extension variable x_{t,sig}, in the order the program declares
    them.

    sig_bits (columns x m) turns count rows into the set sizes |Z_i|.
    Constraint j holds when coeffs[j] . sizes <= consts[j]; the same matrix
    over the columns gives the group-3 rows of the extension program.
    """

    def __init__(self, f: Formula, fstats: FormulaStats, type_sizes: list[int]):
        if f.free_params:
            raise ValueError(f"formula has unbound parameters {sorted(f.free_params)}")
        m, k = f.m, len(f.constraints)
        self.m = m
        self.small = fstats.small_threshold
        cols = np.arange(len(type_sizes) << m)
        self.sig_bits = (cols[:, None] >> np.arange(m)) & 1
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

    def alphas(self, sizes: np.ndarray, base: Optional[np.ndarray] = None) -> np.ndarray:
        """Pre-evaluation index of every row of set sizes, each row shifted
        by `base` when given. One constraint at a time keeps the temporaries
        at one value per row."""
        consts = self.consts if base is None else self.consts - self.coeffs @ base
        out = np.zeros(len(sizes), dtype=self._weights.dtype)
        for coeffs, const, weight in zip(self.coeffs, consts, self._weights):
            out[sizes @ coeffs > const] += weight
        return out


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
        # further vertices the extension of every unit places (every row's
        # type totals are the reduced type sizes); with none the type sums
        # pin every variable
        self.slack = g.n - self.rg.graph.n
        # offsets in [0, slack]^m: the extensions of a unit with set sizes s
        # reach only the sizes s + box; None past the cap
        self._box: Optional[np.ndarray] = None
        side = self.slack + 1
        if side ** self.m <= _CANDIDATE_BOX_CAP:
            self._box = np.indices((side,) * self.m).reshape(self.m, side ** self.m).T

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

    # ---------------------------------------------------------------- units

    def _units_for_profile(self, values: tuple[bool, ...]) -> list[tuple[int, ...]]:
        """The count rows of a piece-value profile, in enumeration order."""
        folded = _fold(self.skeleton, values)
        return [] if isinstance(folded, FalseLit) else self._enumerate_states(folded)

    def _enumerate_states(self, body: Node) -> list[tuple[int, ...]]:
        """One count row per subtype-cardinality state. Uses the truth table
        while the whole prefix and the body fit one table and count-state
        recursion beyond that."""
        budget = table_eval.DEFAULT_CELL_BUDGET
        if (
            1 << (self.rg.graph.n * self.m) <= budget
            and table_eval.estimate_worst_cells(
                self.rg.graph, body, (), fixed=frozenset(self.f.prefix)
            ) <= budget
        ):
            rows: dict[tuple[int, ...], None] = {}
            for chi in self._raw_stream(body):
                rows[_counts_from_chi(self.rg, chi)] = None
                self.stats.prefix_assignments += 1
            return list(rows)
        ev = TypedEvaluator(
            self.rg.graph, classes=list(self.rg.types.types),
            state_budget=TYPED_STATE_BUDGET,
        )
        # collect every state before any bookkeeping, so a run that ends in
        # an mso-states refusal has not paid for units it never uses
        states = list(ev.satisfying_states(self.f.prefix, body))
        self.stats.count_states += ev.leaves
        out = []
        for classes in states:
            row = [0] * len(self.cols.names)
            for base, sig, count in classes:
                row[(base << self.m) | sig] = count
            out.append(tuple(row))
            self.stats.prefix_assignments += (
                self._arrangements // math.prod(math.factorial(c) for _, _, c in classes)
            )
        return out

    def _raw_stream(self, body: Node):
        if self.m == 0:
            if mso_check(self.rg.graph, body, method="auto"):
                yield PrefixAssignment(())
            return
        yield from satisfying_prefix_assignments(self.rg.graph, body, self.f.prefix)

    # ------------------------------------------------------------------ ILP

    def _decide_unit(
        self,
        counts: tuple[int, ...],
        alpha_index: int,
        objective: Optional["BetaObjective"],
        below: Optional[int] = None,
    ) -> tuple[bool, Optional[tuple[int, ...]], Optional[int]]:
        """(feasible, solved count row, objective value) for one work pair;
        with `below`, only objective values < below count as feasible.
        Without slack the row is its own and only extension, and the pair's
        alpha is the row's own pre-evaluation."""
        self.stats.ilp_solves += 1
        if self.slack == 0:
            value = objective.pinned_value(counts) if objective is not None else None
            if self.dump is not None:
                self.dump(_build_instance(self.cols, counts, alpha_index, objective))
            if below is not None and value >= below:
                return False, None, None
            return True, counts, value
        inst = _build_instance(self.cols, counts, alpha_index, objective)
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
        (needed only when the candidate box is past its cap)."""
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

    def _reachable(self, sizes: list[int], values: tuple[bool, ...]) -> list[int]:
        """The pre-evaluations of profile `values` that a unit with set sizes
        `sizes` can possibly comply with: those of the sizes + box."""
        alphas = np.unique(self.cols.alphas(self._box, np.array(sizes, dtype=np.int64)))
        return [alpha for alpha in alphas.tolist() if self._alpha_member(alpha, values)]

    def _collect_pairs(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """Every (pre-evaluation, unit) work pair that could possibly be
        feasible, in the (alpha, enumeration position) order the plain loop
        would reach them. alphas determine their profile, so position ties
        across profiles cannot happen."""
        pairs: list[tuple[int, int, tuple[int, ...]]] = []
        for values in self._profiles():
            rows = self._units_for_profile(values)
            if not rows:
                continue
            fallback = self._profile_alphas(values) if self._box is None else None
            reached: dict[tuple[int, ...], list[int]] = {}
            sizes = (np.array(rows, dtype=np.int64) @ self.cols.sig_bits).tolist()
            for pos, (row, size) in enumerate(zip(rows, sizes)):
                key = tuple(size)
                if key not in reached:
                    reached[key] = fallback if fallback is not None else self._reachable(size, values)
                pairs.extend((alpha, pos, row) for alpha in reached[key])
        pairs.sort(key=lambda item: (item[0], item[1]))
        return pairs

    def run_decision(self) -> Verdict:
        start = time.perf_counter()
        tried: set[int] = set()
        for alpha_index, _pos, counts in self._collect_pairs():
            tried.add(alpha_index)
            feasible, solved, _ = self._decide_unit(counts, alpha_index, None)
            if feasible:
                witness = extract_witness(solved, self.m, self.tp.types)
                self.stats.pre_evaluations = len(tried)
                self.stats.elapsed = time.perf_counter() - start
                alpha = self.alpha_bools(alpha_index)
                self._assert_compliance(witness, alpha)
                return Verdict(True, witness, alpha, self.stats)
        self.stats.pre_evaluations = len(tried)
        self.stats.elapsed = time.perf_counter() - start
        return Verdict(False, None, None, self.stats)

    def run_minimize(self, objective: "BetaObjective"):
        """All work pairs solved, each only for values below the best found
        so far; returns (best value, witness, alpha) or None."""
        start = time.perf_counter()
        best: Optional[tuple[int, PrefixAssignment, PreEvaluation]] = None
        pairs = self._collect_pairs()
        for alpha_index, _pos, counts in pairs:
            below = best[0] if best is not None else None
            feasible, solved, value = self._decide_unit(
                counts, alpha_index, objective, below
            )
            if feasible:
                witness = extract_witness(solved, self.m, self.tp.types)
                alpha = self.alpha_bools(alpha_index)
                self._assert_compliance(witness, alpha)
                best = (value, witness, alpha)
        self.stats.pre_evaluations = len({alpha for alpha, _, _ in pairs})
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
