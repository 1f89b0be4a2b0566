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
pre-evaluations are accounted in bulk. Work items whose extension program is
fully pinned by the small-subtype equalities are decided arithmetically;
everything else goes through the branch-and-bound ILP solver.

Prefix assignments are enumerated as subtype-cardinality states: assignments
with identical per-subtype counts induce identical extension programs
(same-type vertices are interchangeable), so one representative per state is
solved. The states come from the raw truth-table stream, collapsed by count,
while the whole prefix fits one table, and from the count-state engine
beyond that.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

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
    chi: PrefixAssignment  # representative, on the reduced graph
    counts: dict[tuple[int, int], int]  # (type, sig) -> |S_phi|
    raw_count: int
    pinned: bool
    group1_ok: bool
    alpha_star: Optional[int]  # pinned units: the only complying alpha index
    sizes: dict[str, int]  # |Z_i| under the pinned values
    alpha_candidates: Optional[frozenset[int]] = None  # unpinned: achievable alphas


def _prepare_group3_rows(f: Formula, type_count: int):
    """Per constraint: coefficient map over all (type, sig) variables and the
    constant, in lhs - rhs <= const form."""
    rows = []
    m = f.m
    prefix_bit = {name: i for i, name in enumerate(f.prefix)}
    all_pairs = [(t, sig) for t in range(type_count) for sig in range(1 << m)]
    for c in f.constraints:
        coeffs: dict[str, int] = {}
        for name in c.lhs.sets:
            bit = prefix_bit[name]
            for t, sig in all_pairs:
                if (sig >> bit) & 1:
                    var = _var_name(t, sig)
                    coeffs[var] = coeffs.get(var, 0) + 1
        for name in c.rhs.sets:
            bit = prefix_bit[name]
            for t, sig in all_pairs:
                if (sig >> bit) & 1:
                    var = _var_name(t, sig)
                    coeffs[var] = coeffs.get(var, 0) - 1
        const = c.rhs.const - c.lhs.const
        rows.append((coeffs, const))
    return rows


def _canonical_chi_from_counts(rg: ReducedGraph, m: int, counts) -> PrefixAssignment:
    """Members in index order get signatures in ascending order."""
    sets: list[set[int]] = [set() for _ in range(m)]
    for t, members in enumerate(rg.types.types):
        pos = 0
        for sig in range(1 << m):
            c = counts.get((t, sig), 0)
            for v in members[pos : pos + c]:
                for i in range(m):
                    if (sig >> i) & 1:
                        sets[i].add(v)
            pos += c
    return PrefixAssignment(tuple(frozenset(s) for s in sets))


def _unit_from_counts(
    f: Formula,
    fstats: FormulaStats,
    rg: ReducedGraph,
    counts,
    chi: PrefixAssignment | None = None,
) -> _WorkUnit:
    m = f.m
    if chi is None:
        chi = _canonical_chi_from_counts(rg, m, counts)
    raw = 1
    for t, members in enumerate(rg.types.types):
        rest = len(members)
        for sig in range(1 << m):
            c = counts.get((t, sig), 0)
            raw *= math.comb(rest, c)
            rest -= c
    small = fstats.small_threshold
    pinned = all(c <= small for c in counts.values())
    group1_ok = all(
        sum(counts.get((t, sig), 0) for sig in range(1 << m)) == orig_size
        for t, (_, orig_size) in enumerate(rg.origin)
    )
    sizes = {
        name: sum(c for (t, sig), c in counts.items() if (sig >> i) & 1)
        for i, name in enumerate(f.prefix)
    }
    alpha_star = None
    candidates = None
    if pinned:
        truths = constraint_truths(f, sizes)
        alpha_star = sum((0 if truth else 1) << i for i, truth in enumerate(truths))
    else:
        candidates = _achievable_alphas(f, fstats, rg, counts)
    return _WorkUnit(chi, counts, raw, pinned, group1_ok, alpha_star, sizes, candidates)


_CANDIDATE_BOX_CAP = 300_000


def _achievable_alphas(
    f: Formula, fstats: FormulaStats, rg: ReducedGraph, counts
) -> Optional[frozenset[int]]:
    """Pre-evaluations the unit can possibly comply with: constraint truth
    depends on x only through the per-variable totals |Z_i|, so sweeping an
    interval box around the achievable totals covers every feasible truth
    vector. None when the box is too large to sweep (solver falls back to
    trying the unit under every pre-evaluation)."""
    m = f.m
    lo = [0] * m
    hi = [0] * m
    for t, (_, orig_size) in enumerate(rg.origin):
        total_min = sum(counts.get((t, sig), 0) for sig in range(1 << m))
        for i in range(m):
            in_min = sum(
                counts.get((t, sig), 0) for sig in range(1 << m) if (sig >> i) & 1
            )
            lo[i] += in_min
            hi[i] += orig_size - (total_min - in_min)
    box = 1
    for i in range(m):
        if hi[i] < lo[i]:
            return frozenset()
        box *= hi[i] - lo[i] + 1
        if box > _CANDIDATE_BOX_CAP:
            return None
    # linear form per constraint: truth(y) = (sum coef_i * y_i <= const)
    prefix_index = {name: i for i, name in enumerate(f.prefix)}
    linear = []
    for c in f.constraints:
        coefs = [0] * m
        for name in c.lhs.sets:
            coefs[prefix_index[name]] += 1
        for name in c.rhs.sets:
            coefs[prefix_index[name]] -= 1
        linear.append((coefs, c.rhs.const - c.lhs.const))
    axes = [np.arange(lo[i], hi[i] + 1, dtype=np.int64) for i in range(m)]
    grids = np.meshgrid(*axes, indexing="ij") if m else []
    ys = (
        np.stack([grid.reshape(-1) for grid in grids], axis=1)
        if m
        else np.zeros((1, 0), dtype=np.int64)
    )
    alphas = np.zeros(ys.shape[0], dtype=np.int64)
    for bit, (coefs, const) in enumerate(linear):
        value = ys @ np.asarray(coefs, dtype=np.int64) if m else np.zeros(1, dtype=np.int64)
        alphas |= (value > const).astype(np.int64) << bit
    return frozenset(int(a) for a in np.unique(alphas))


def _counts_from_chi(rg: ReducedGraph, chi: PrefixAssignment):
    type_of = rg.types.type_of(rg.graph.n)
    counts: dict[tuple[int, int], int] = {}
    for v in range(rg.graph.n):
        sig = 0
        for i, s in enumerate(chi.sets):
            if v in s:
                sig |= 1 << i
        key = (type_of[v], sig)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _build_instance(
    f: Formula,
    fstats: FormulaStats,
    rg: ReducedGraph,
    group3_rows,
    unit: _WorkUnit,
    alpha_index: int,
    objective: Optional["BetaObjective"] = None,
) -> ilp.ILPInstance:
    m = f.m
    small = fstats.small_threshold
    variables = []
    rows = []
    for t, (_, orig_size) in enumerate(rg.origin):
        for sig in range(1 << m):
            variables.append((_var_name(t, sig), 0, orig_size))
        rows.append(
            ilp.Row.of(
                {_var_name(t, sig): 1 for sig in range(1 << m)}, ilp.EQ, orig_size
            )
        )
    for t in range(len(rg.origin)):
        for sig in range(1 << m):
            c = unit.counts.get((t, sig), 0)
            if c <= small:
                rows.append(ilp.Row.of({_var_name(t, sig): 1}, ilp.EQ, c))
            else:
                rows.append(ilp.Row.of({_var_name(t, sig): 1}, ilp.GE, c))
    for i, (coeffs, const) in enumerate(group3_rows):
        guessed_true = ((alpha_index >> i) & 1) == 0
        if guessed_true:
            rows.append(ilp.Row.of(coeffs, ilp.LE, const))
        else:
            rows.append(ilp.Row.of(coeffs, ilp.GE, const + 1))
    obj = None
    if objective is not None:
        beta_rows, beta_var, obj = objective.augment(unit)
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
        if f.free_params:
            raise ValueError(f"formula has unbound parameters {sorted(f.free_params)}")
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

        self.group3_rows = _prepare_group3_rows(f, self.tp.count)
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
        self.stats.prefix_assignments += sum(u.raw_count for u in units)
        return units

    def _enumerate_states(self, body: Node) -> list[_WorkUnit]:
        """One unit per subtype-cardinality state, represented by its first
        raw assignment. Uses the truth table while the whole prefix and the
        body fit one table and count-state recursion beyond that."""
        budget = table_eval.DEFAULT_CELL_BUDGET
        units: list[_WorkUnit] = []
        if (
            1 << (self.rg.graph.n * self.m) <= budget
            and table_eval.estimate_worst_cells(
                self.rg.graph, body, (), fixed=frozenset(self.f.prefix)
            ) <= budget
        ):
            seen: dict[tuple, int] = {}
            for chi in self._raw_stream(body):
                counts = _counts_from_chi(self.rg, chi)
                key = tuple(sorted(counts.items()))
                if key in seen:
                    units[seen[key]].raw_count += 1
                else:
                    seen[key] = len(units)
                    unit = _unit_from_counts(self.f, self.fstats, self.rg, counts, chi=chi)
                    unit.raw_count = 1
                    units.append(unit)
            return units
        ev = TypedEvaluator(
            self.rg.graph, classes=list(self.rg.types.types),
            state_budget=TYPED_STATE_BUDGET,
        )
        # collect every state before any bookkeeping, so a run that ends in
        # an mso-states refusal has not paid for units it never uses
        states = list(ev.satisfying_states(self.f.prefix, body))
        self.stats.count_states += ev.leaves
        for classes in states:
            counts = {(base, sig): count for base, sig, count in classes}
            units.append(_unit_from_counts(self.f, self.fstats, self.rg, counts))
        return units

    def _raw_stream(self, body: Node):
        if self.m == 0:
            if mso_check(self.rg.graph, body, method="auto"):
                yield PrefixAssignment(())
            return
        yield from satisfying_prefix_assignments(self.rg.graph, body, self.f.prefix)

    # ------------------------------------------------------------------ ILP

    def build_instance(
        self,
        unit: _WorkUnit,
        alpha_index: int,
        objective: Optional["BetaObjective"] = None,
    ) -> ilp.ILPInstance:
        return _build_instance(
            self.f, self.fstats, self.rg, self.group3_rows, unit, alpha_index, objective
        )

    def _decide_unit(
        self,
        unit: _WorkUnit,
        alpha_index: int,
        objective: Optional["BetaObjective"],
        below: Optional[int] = None,
    ) -> tuple[bool, Optional[dict[str, int]], Optional[int]]:
        """(feasible, assignment, objective value) for one work item; with
        `below`, only objective values < below count as feasible."""
        self.stats.ilp_solves += 1
        if unit.pinned:
            if not unit.group1_ok or alpha_index != unit.alpha_star:
                return False, None, None
            assignment = {
                _var_name(t, sig): unit.counts.get((t, sig), 0)
                for t in range(self.tp.count)
                for sig in range(1 << self.m)
            }
            value = objective.pinned_value(unit) if objective is not None else None
            if self.dump is not None:
                self.dump(self.build_instance(unit, alpha_index, objective))
            if below is not None and value >= below:
                return False, None, None
            return True, assignment, value
        inst = self.build_instance(unit, alpha_index, objective)
        if self.dump is not None:
            self.dump(inst)
        if objective is None:
            res = ilp.solve_feasibility(inst, self.node_budget)
        else:
            res = ilp.solve_min(inst, self.node_budget, below=below)
        self.stats.ilp_nodes += res.nodes
        if res.status == "infeasible":
            return False, None, None
        return True, res.assignment, res.objective_value

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
                    if unit.group1_ok and self._alpha_member(unit.alpha_star, values):
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
            feasible, assignment, _ = self._decide_unit(unit, alpha_index, None)
            if feasible:
                witness = extract_witness(unit.chi, assignment, self.rg)
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
            feasible, assignment, value = self._decide_unit(
                unit, alpha_index, objective, below
            )
            if feasible:
                witness = extract_witness(unit.chi, assignment, self.rg)
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
    small-subtype pins / large-subtype lower bounds, and the pre-evaluated
    cardinality constraints (reversed with a +1 shift where guessed false)."""
    rg = reduce_graph(g, tp, stats)
    counts = _counts_from_chi(rg, chi_phi)
    unit = _unit_from_counts(f, stats, rg, counts, chi=chi_phi)
    group3_rows = _prepare_group3_rows(f, tp.count)
    alpha_index = sum((0 if a else 1) << i for i, a in enumerate(alpha))
    return _build_instance(f, stats, rg, group3_rows, unit, alpha_index, None)


def extract_witness(
    chi_phi: PrefixAssignment,
    assignment: dict[str, int],
    rg: ReducedGraph,
) -> PrefixAssignment:
    """Lift a reduced-graph assignment to the full graph: kept vertices keep
    their memberships, deleted vertices fill each subtype up to its solved
    cardinality (vertex-index order, signatures ascending)."""
    m = len(chi_phi.sets)
    full_sets: list[set[int]] = [set() for _ in range(m)]
    for t, kept in enumerate(rg.kept):
        counts: dict[int, int] = {}
        for orig in kept:
            red = rg.full_to_reduced[orig]
            sig = 0
            for i, s in enumerate(chi_phi.sets):
                if red in s:
                    sig |= 1 << i
            counts[sig] = counts.get(sig, 0) + 1
            for i in range(m):
                if (sig >> i) & 1:
                    full_sets[i].add(orig)
        kept_set = set(kept)
        deleted = [v for v in rg.full_types[t] if v not in kept_set]
        needed: list[tuple[int, int]] = []
        for sig in range(1 << m):
            want = assignment.get(_var_name(t, sig), counts.get(sig, 0))
            have = counts.get(sig, 0)
            if want < have:
                raise WitnessError(
                    f"type {t} signature {sig}: solved cardinality {want} below reduced {have}"
                )
            if want > have:
                needed.append((sig, want - have))
        total_needed = sum(c for _, c in needed)
        if total_needed != len(deleted):
            raise WitnessError(
                f"type {t}: {len(deleted)} deleted vertices but {total_needed} to assign"
            )
        pos = 0
        for sig, amount in needed:
            for v in deleted[pos : pos + amount]:
                for i in range(m):
                    if (sig >> i) & 1:
                        full_sets[i].add(v)
            pos += amount
    return PrefixAssignment(tuple(frozenset(s) for s in full_sets))


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
