"""Decision pipeline: reduce the graph, loop over pre-evaluations, enumerate
satisfying prefix assignments on the reduced graph, and decide with an
extension integer program whether each one lifts to the full graph.

The pre-evaluation loop never sweeps the 2^|l| space directly. The body is
split into maximal constraint-only pieces and an MSO skeleton; pieces touch
disjoint constraint leaves. Assignments are enumerated once per piece-value
profile, on the skeleton folded under it; a pre-evaluation belongs to the
profile its pieces fold to (one fold, _fold, serves skeleton and pieces).
Work pairs (pre-evaluation, unit) are processed in the all-true-first
binary-counter order the plain loop would visit.

Prefix assignments are enumerated as subtype-cardinality states, and a work
unit is nothing but its row of counts, one per (type, signature) column:
assignments with identical counts induce identical extension programs
(same-type vertices are interchangeable). While the whole prefix fits one
table, the states come from its satisfying cells in bulk: a cell's vertex
signatures are bits of its index, cells with the same sorted signatures in
every twin class share a row, and only each row's first cell (in
binary-counter order) becomes counts, one per column type_of[v] << m |
sig(v) of every reduced vertex v. Beyond one table they come from the
count-state engine. Both read the vertex-local signature filter
(typed_eval._local_split): count states give no vertices to a signature it
rules out, and the table path lists only the cells it allows when that is
at most half (a listed cell costs 20-50 table cells). A solved row lifts
to the full graph canonically, with no representative assignment.

Reduction keeps min(|T|, threshold) vertices of every type; inside a twin
class every size from the threshold up models the same sentences (Lampis's
threshold argument). A subtype count below the threshold pins its variable,
and a count at or above it is only a lower bound. Every row's type totals
are the reduced type sizes, so the extension of every unit of a pipeline
places the same number of further vertices, slack = n - reduced n. With no
slack the type sums pin every variable and a unit is decided
arithmetically; otherwise it goes through the branch-and-bound ILP solver.
One program is compiled per pre-evaluation and re-solved under each unit's
bounds, with the unit's objective weights, if any, attached per solve.
A unit with set sizes s can comply only with the pre-evaluations of the
sizes in s + [0, slack]^m. Once per pipeline that box is projected onto the
constraints' distinct directions (rows up to sign), one axis at a time,
keeping only the distinct projections, so a unit costs one comparison per
constraint and projection, whatever n is. When a growth step would build
more than a cap of elements (projections x (slack + 1) x directions), every
unit is tried under every pre-evaluation of its profile instead, listed
depth first over each piece's leaves.
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
from .mso_eval import PrefixAssignment, mso_check, reduce_graph
from .mso_eval import satisfying_prefix_assignments  # noqa: F401 - the benchmark's tracer wraps it here
from .typed_eval import TypedEvaluator, _local_split

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
    shapes: int = 0  # partition: shapes enumerated
    satisfying_shapes: int = 0  # partition: variables of the tiling program
    ilp_lp_refutations: int = 0  # programs closed at the root by an LP certificate


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


def _split_pieces(body: Node) -> tuple[Node, list[Node]]:
    """Replace maximal constraint-only subtrees by piece references."""
    pieces: list[Node] = []

    def rec(node: Node) -> Node:
        if not any(isinstance(sub, ConstraintRef) for sub in walk(node)):
            return node
        if not any(isinstance(sub, (Member, Adjacent, SetEq, VertexEq)) for sub in walk(node)):
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


def _literal(value: bool) -> Node:
    return TrueLit() if value else FalseLit()


def _fold(node: Node, values: Sequence[Optional[bool]], n_vertices: int) -> Node:
    """Substitute the known truths of the piece references (in a skeleton)
    or constraint leaves (in a piece), values[index], None where unknown,
    and fold constants away. Quantifiers bind nothing a constant reads, so
    one over a constant folds too: set domains are never empty, and the
    vertex domain is empty only when n_vertices is 0."""
    if isinstance(node, (_PieceRef, ConstraintRef)):
        value = values[node.index]
        return node if value is None else _literal(value)
    if isinstance(node, Not):
        child = _fold(node.child, values, n_vertices)
        if isinstance(child, (TrueLit, FalseLit)):
            return _literal(isinstance(child, FalseLit))
        return Not(child)
    if isinstance(node, (And, Or, Implies, Iff)):
        left = _fold(node.left, values, n_vertices)
        right = _fold(node.right, values, n_vertices)
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
        child = _fold(node.child, values, n_vertices)
        if not isinstance(child, (TrueLit, FalseLit)):
            return Quant(node.quantifier, node.var, node.sort, child)
        if node.sort == "vertex" and n_vertices == 0:
            return _literal(node.quantifier == "forall")
        return child
    return node


# --------------------------------------------------------------- work units

def _var_name(t: int, sig: int) -> str:
    return f"x_t{t}_s{sig}"


# elements one growth step of the candidate offsets may build
_CANDIDATE_BOX_CAP = 1 << 22


class _Columns:
    """Integer matrices over the columns of a count row. Column (t << m) | sig
    is the extension variable x_{t,sig}, in the order the program declares
    them.

    sig_bits (columns x m) turns count rows into the set sizes |Z_i|.
    Constraint j holds when coeffs[j] . sizes <= consts[j]; the same matrix
    over the columns gives the group-3 rows of the extension program.
    coeffs[j] = signs[j] * dirs[dir_of[j]], over the distinct rows up to sign.
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
        rows = self.coeffs.tolist()
        self.signs = [-1 if next((c for c in row if c), 0) < 0 else 1 for row in rows]
        dirs: dict[tuple[int, ...], int] = {}
        self.dir_of = [
            dirs.setdefault(tuple(sign * c for c in row), len(dirs))
            for sign, row in zip(self.signs, rows)
        ]
        self.dirs = np.array(list(dirs), dtype=np.int64).reshape(len(dirs), m)
        # alpha index bit j set <=> constraint j false; past 62 bits the
        # index outgrows int64
        self.weights = np.array(
            [1 << j for j in range(k)], dtype=np.int64 if k < 63 else object
        )
        self.sizes = np.repeat(type_sizes, 1 << m).tolist()  # type size per column
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


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer matrix, lexsorted (np.unique(axis=0)
    is far slower on long matrices)."""
    if not a.shape[1]:
        return a[:1]
    a = a[np.lexsort(a.T)]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[keep]


def _count_rows(columns: np.ndarray, width: int) -> np.ndarray:
    """Count rows of assignments given per vertex: columns[a, v] is the
    column (type << m) | sig of vertex v under assignment a."""
    flat = columns + width * np.arange(len(columns))[:, None]
    return np.bincount(flat.ravel(), minlength=len(columns) * width).reshape(len(columns), width)


def _build_instance(
    cols: _Columns,
    counts: tuple[int, ...],
    alpha_index: int,
    objective: Optional["BetaObjective"] = None,
) -> ilp.ILPInstance:
    # a count below the threshold pins its variable, any other is a lower bound
    variables = [
        (name, c, c if c < cols.small else size)
        for name, c, size in zip(cols.names, counts, cols.sizes)
    ]
    rows = list(cols.group1)
    for j, (guessed_true, reversed_row) in enumerate(cols.group3):
        rows.append(reversed_row if (alpha_index >> j) & 1 else guessed_true)
    obj = None
    if objective is not None:
        # the cut less its constant part
        obj = {cols.names[column]: weight for column, weight in objective.augment(counts)[1]}
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
        self._no_rows = np.zeros((0, len(self.cols.names)), dtype=np.int64)
        self.rg = reduce_graph(g, self.tp, self.fstats)
        self.stats.type_count = self.tp.count
        self.stats.reduced_vertices = self.rg.graph.n

        self.m = f.m
        self.k = len(f.constraints)
        # further vertices the extension of every unit places (every row's
        # type totals are the reduced type sizes); with none the type sums
        # pin every variable
        self.slack = g.n - self.rg.graph.n
        # distinct projections of [0, slack]^m onto the constraint
        # directions, added up one axis at a time, then spread to one signed
        # column per constraint: offsets[:, j] = coeffs[j] . o; None once a
        # growth step would build more than the cap (without slack they stay
        # the zero row, the only pre-evaluation a pinned unit can meet)
        self._offsets: Optional[np.ndarray] = None
        side = self.slack + 1
        offsets = np.zeros((1, len(self.cols.dirs)), dtype=np.int64)
        for column in self.cols.dirs.T:
            if self.slack and len(offsets) * side * len(column) > _CANDIDATE_BOX_CAP:
                break
            grown = offsets[:, None, :] + np.outer(np.arange(side), column)
            offsets = _distinct_rows(grown.reshape(len(grown) * side, len(column)))
        else:
            self._offsets = offsets[:, self.cols.dir_of] * np.array(self.cols.signs, dtype=np.int64)

        # alpha index bit i set <=> constraint i guessed false; index 0 is
        # all-true and ascending order is the binary counter the spec fixes
        self.skeleton, self.pieces = _split_pieces(f.body)
        if len(self.pieces) > MAX_PIECES:
            raise BudgetExceeded("pre-evaluation-pieces", MAX_PIECES, len(self.pieces))
        self.leaves = [
            sorted(sub.index for sub in walk(piece) if isinstance(sub, ConstraintRef))
            for piece in self.pieces
        ]
        self._alpha_profiles: dict[int, tuple[bool, ...]] = {}
        self._programs: dict = {}

        # multinomial numerator of a count state's raw assignments
        self._arrangements = math.prod(
            math.factorial(len(members)) for members in self.rg.types.types
        )

    # ---------------------------------------------------------------- units

    def _units_for_profile(self, values: tuple[bool, ...]) -> np.ndarray:
        """The count rows of a piece-value profile, in enumeration order."""
        folded = _fold(self.skeleton, values, self.rg.graph.n)
        return self._no_rows if isinstance(folded, FalseLit) else self._enumerate_states(folded)

    def _enumerate_states(self, body: Node) -> np.ndarray:
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
            return self._table_rows(body)
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
            out.append(row)
            self.stats.prefix_assignments += (
                self._arrangements // math.prod(math.factorial(c) for _, _, c in classes)
            )
        return np.array(out, dtype=np.int64).reshape(len(out), len(self.cols.names))

    def _table_rows(self, body: Node) -> np.ndarray:
        """The distinct count rows of the table's satisfying cells, in
        first-seen (binary-counter) order. Vertex v's signature bit i is bit
        (m - 1 - i) * n + v of a cell's index. Cells share a row iff every twin
        class has the same sorted signatures; sorted with their bases (type <<
        m) apart, these pack into an n * m-bit key (< 2^27 by the stream gate).
        Keys are deduplicated per ascending slice of the cells listed, and
        rows built from each key's first cell only."""
        g, m = self.rg.graph, self.m
        allowed, rest = _local_split(self.f.prefix, body)
        if not m:
            slices = [np.arange(int(mso_check(g, body, method="auto")))]
        elif allowed is not None and 2 * len(allowed) <= 1 << m:
            slices = table_eval.allowed_cells(g, rest, self.f.prefix, allowed)
        else:
            cells = np.flatnonzero(table_eval.prefix_table(g, body, self.f.prefix))
            slices = np.split(cells, range(1 << 16, len(cells), 1 << 16))
        bases = np.array(self.rg.types.type_of(g.n), dtype=np.int64) << m
        shifts = [(m - 1 - i) * g.n + np.arange(g.n) for i in range(m)]

        def columns(chunk: np.ndarray) -> np.ndarray:
            out = np.broadcast_to(bases, (len(chunk), g.n))
            for i, shift in enumerate(shifts):
                out = out | ((chunk[:, None] >> shift) & 1) << i
            return out

        packing = m * np.arange(g.n)
        keys, firsts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for chunk in slices:
            self.stats.prefix_assignments += len(chunk)
            key = (np.sort(columns(chunk), axis=1) & ((1 << m) - 1)) << packing
            key, first = np.unique(key.sum(axis=1), return_index=True)
            keys.append(key)
            firsts.append(chunk[first])
        # a key's first occurrence lies in its earliest slice, and the first
        # cells in ascending order are the first-seen order
        _, first = np.unique(np.concatenate(keys), return_index=True)
        chosen = np.sort(np.concatenate(firsts)[first])
        return _count_rows(columns(chosen), len(self.cols.names))

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
        if self.dump is not None:
            self.dump(_build_instance(self.cols, counts, alpha_index, objective))
        const0, weights = objective.augment(counts) if objective is not None else (0, None)
        if self.slack == 0:
            value = None if weights is None else const0 + sum(w * counts[col] for col, w in weights)
            if below is not None and value >= below:
                return False, None, None
            return True, counts, value
        program = self._programs.get(alpha_index)
        if program is None:
            program = self._programs[alpha_index] = ilp.Program.of(
                _build_instance(self.cols, counts, alpha_index)
            )
        # bounds as in _build_instance; the count columns are the program's
        # variable indices, so the weights are its objective as they stand
        hi = [c if c < self.cols.small else size for c, size in zip(counts, self.cols.sizes)]
        program = program._replace(lo=counts, hi=hi, objective=weights)
        if weights is None:
            res = ilp.solve_feasibility(program, self.node_budget)
        else:
            res = ilp.solve_min(program, self.node_budget, None if below is None else below - const0)
        self.stats.ilp_nodes += res.nodes
        self.stats.ilp_lp_refutations += res.lp_refuted
        if res.status == "infeasible":
            return False, None, None
        counts = tuple(res.assignment[name] for name in self.cols.names)
        return True, counts, None if weights is None else const0 + res.objective_value

    # ------------------------------------------------------------- main loop

    def alpha_bools(self, alpha_index: int) -> PreEvaluation:
        return tuple(((alpha_index >> i) & 1) == 0 for i in range(self.k))

    def _profiles(self):
        """Piece-value combinations, each piece False then True; a piece that
        folds to a constant with no leaf known contributes that value only."""
        unknown = [None] * self.k
        options = []
        for piece in self.pieces:
            folded = _fold(piece, unknown, self.rg.graph.n)
            const = isinstance(folded, (TrueLit, FalseLit))
            options.append((isinstance(folded, TrueLit),) if const else (False, True))
        return itertools.product(*options)

    def _alpha_profile(self, alpha: int) -> tuple[bool, ...]:
        """The piece values under a full pre-evaluation, memoised."""
        got = self._alpha_profiles.get(alpha)
        if got is None:
            truths = self.alpha_bools(alpha)
            got = tuple(
                isinstance(_fold(piece, truths, self.rg.graph.n), TrueLit)
                for piece in self.pieces
            )
            self._alpha_profiles[alpha] = got
        return got

    def _alpha_member(self, alpha: int, values: tuple[bool, ...]) -> bool:
        return self._alpha_profile(alpha) == values

    def _profile_alphas(self, values: tuple[bool, ...]) -> list[int]:
        """The full pre-evaluation set of a profile, ascending (needed only
        when the candidate offsets are past their cap). Each piece's leaves
        are guessed depth first, and a branch stops once the piece folds to a
        literal: on the profile's value all its completions join. Charged to
        MAX_FALLBACK_ALPHAS while listed."""
        truths: list[Optional[bool]] = [None] * self.k
        alphas = [0]
        for piece, leaves, value in zip(self.pieces, self.leaves, values):
            patterns: list[int] = []

            def descend(i: int, pattern: int) -> None:
                folded = _fold(piece, truths, self.rg.graph.n)
                if isinstance(folded, (TrueLit, FalseLit)):
                    if isinstance(folded, TrueLit) == value:
                        free = leaves[i:]
                        used = len(alphas) * (len(patterns) + (1 << len(free)))
                        if used > MAX_FALLBACK_ALPHAS:
                            raise BudgetExceeded("pre-evaluations", MAX_FALLBACK_ALPHAS, used)
                        for sub in itertools.product((0, 1), repeat=len(free)):
                            patterns.append(pattern | sum(b << leaf for b, leaf in zip(sub, free)))
                    return
                leaf = leaves[i]
                for truth in (True, False):
                    truths[leaf] = truth
                    descend(i + 1, pattern | (not truth) << leaf)
                truths[leaf] = None

            descend(0, 0)
            alphas = [base | extra for base in alphas for extra in patterns]
        return sorted(alphas)

    def _reachable(self, sizes: list[int], values: tuple[bool, ...]) -> list[int]:
        """The pre-evaluations of profile `values` that a unit with set sizes
        `sizes` can possibly comply with: constraint j fails at an offset
        where offset[j] > consts[j] - coeffs[j] . sizes."""
        limits = self.cols.consts - self.cols.coeffs @ np.array(sizes, dtype=np.int64)
        alphas = np.unique((self._offsets > limits) @ self.cols.weights)
        return [alpha for alpha in alphas.tolist() if self._alpha_member(alpha, values)]

    def _collect_pairs(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """Every (pre-evaluation, unit) work pair that could possibly be
        feasible, in the (alpha, enumeration position) order the plain loop
        would reach them. alphas determine their profile, so position ties
        across profiles cannot happen and the sort never compares rows. Rows
        that reach no pre-evaluation are dropped before any becomes a tuple."""
        pairs: list[tuple[int, int, tuple[int, ...]]] = []
        for values in self._profiles():
            rows = self._units_for_profile(values)
            if not len(rows):
                continue
            fallback = self._profile_alphas(values) if self._offsets is None else None
            sizes: dict[tuple[int, ...], int] = {}  # distinct set sizes, numbered
            inverse = np.array([
                sizes.setdefault(tuple(s), len(sizes)) for s in (rows @ self.cols.sig_bits).tolist()
            ])
            reached = [fallback if fallback is not None else self._reachable(s, values) for s in sizes]
            kept = np.flatnonzero(np.array([bool(alphas) for alphas in reached])[inverse])
            for pos, group, row in zip(kept.tolist(), inverse[kept].tolist(), rows[kept].tolist()):
                row = tuple(row)
                pairs.extend((alpha, pos, row) for alpha in reached[group])
        pairs.sort()
        return pairs

    def run_decision(self) -> Verdict:
        best = self.run_minimize(None)
        if best is None:
            return Verdict(False, None, None, self.stats)
        return Verdict(True, best[1], best[2], self.stats)

    def run_minimize(self, objective: Optional["BetaObjective"]):
        """Work pairs solved in order, each only for values below the best
        found so far; without an objective the first feasible pair ends the
        loop. Returns (best value, witness, alpha) or None."""
        start = time.perf_counter()
        best: Optional[tuple[Optional[int], PrefixAssignment, PreEvaluation]] = None
        tried: set[int] = set()
        for alpha_index, _pos, counts in self._collect_pairs():
            tried.add(alpha_index)
            below = best[0] if best is not None else None
            feasible, solved, value = self._decide_unit(counts, alpha_index, objective, below)
            if feasible:
                witness = extract_witness(solved, self.m, self.tp.types)
                alpha = self.alpha_bools(alpha_index)
                self._assert_compliance(witness, alpha)
                best = (value, witness, alpha)
                if objective is None:
                    break
        self.stats.pre_evaluations = len(tried)
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
    and the pre-evaluated cardinality constraints (reversed with a +1 shift
    where guessed false). A subtype count below the small threshold pins its
    variable and any other is its lower bound; both are the variable's
    domain, not rows."""
    rg = reduce_graph(g, tp, stats)
    cols = _Columns(f, stats, [len(members) for members in tp.types])
    alpha_index = sum((0 if a else 1) << i for i, a in enumerate(alpha))
    columns = np.array([t << f.m for t in rg.types.type_of(rg.graph.n)], dtype=np.int64)
    for i, s in enumerate(chi_phi.sets):
        columns[list(s)] |= 1 << i
    counts = tuple(_count_rows(columns[None], len(cols.names))[0].tolist())
    return _build_instance(cols, counts, alpha_index)


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
