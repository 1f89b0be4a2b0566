"""Decision pipeline. check takes one of two paths over the type partition.

The rows path (_Rows) decides the sentence with one integer program. It is
taken when every conjunct on the top-level And spine of the body, constant
pieces folded, in negation normal form, is (i) forall x [forall y] psi, (ii)
forall x exists y psi (psi quantifier-free; quantifiers move out of And/Or
on a non-empty graph) or (iii) a constraint piece whose leaves lie on one
direction and allow one interval of its value, or an And of such conjuncts
over several directions, one interval each. Adjacency is uniform inside
a type, so psi at two vertices depends only on their (type, signature)
columns and on whether they are one vertex; a universal sentence holds iff
it holds on every pair (Los-Tarski). The program: counts x in [0, |T|] and
indicators z = [x >= 1] (x <= |T| z, z <= x), hi(x) = 0 for a failing
vertex and 1 for a failing twin pair, z_a + z_b <= 1 for a failing pair of
columns, z_b <= the sum of z_a over the other columns that witness b under
(ii), 2 z_b <= that sum + x_b if b's twins do too, two rows a piece.

The enumeration path (_Pipeline) takes every other body, and any body on
a graph that reduction keeps whole and whose prefix fits one truth table
(it then decides off the count matrix with no program). It splits the body
into maximal constraint-only pieces and an MSO skeleton, enumerates count
rows of the reduced graph once per piece-value profile, on the skeleton
folded under it (one fold, _fold, serves skeleton and pieces), and decides
work pairs (pre-evaluation, row) in the all-true-first binary-counter order
the plain loop would visit. A row has one count per (type, signature)
column: assignments with identical counts induce identical extension
programs. Rows come from one truth table's satisfying cells while the
prefix fits it, otherwise from the count-state engine; both read the
vertex-local signature filter (typed_eval._local_split).

Reduction keeps min(|T|, threshold) vertices of every type (Lampis's
threshold argument): a subtype count below the threshold pins its variable,
one at or above it is a lower bound. Every row places the same slack =
n - reduced n further vertices; with none the type sums pin every variable
and all work pairs are decided in bulk off the count matrix, otherwise each
re-solves its pre-evaluation's compiled program under the row's bounds and
objective weights, if any. A row with set sizes s complies only with the
pre-evaluations of the sizes in s + [0, slack]^m, that box projected once
onto the constraints' distinct directions; past a cap on that projection,
every row is tried under every pre-evaluation of its profile.
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
    CONNECTIVES, Adjacent, And, ConstraintRef, FalseLit, Formula, FormulaStats, Iff,
    Implies, Member, Node, Not, PreEvaluation, Quant, SetEq, TrueLit, VertexEq, analyze,
    constraint_truths, walk,
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
        if type(node) in CONNECTIVES:
            return type(node)(rec(node.left), rec(node.right))
        if isinstance(node, Quant):
            return Quant(node.quantifier, node.var, node.sort, rec(node.child))
        raise AssertionError("unreachable")

    return rec(body), pieces


def _literal(value: bool) -> Node:
    return TrueLit() if value else FalseLit()


def _truth(node: Node) -> Optional[int]:
    """1 or 0 for a literal, None otherwise."""
    return 1 if isinstance(node, TrueLit) else 0 if isinstance(node, FalseLit) else None


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
    if type(node) in CONNECTIVES:
        left = _fold(node.left, values, n_vertices)
        right = _fold(node.right, values, n_vertices)
        a, b = _truth(left), _truth(right)
        if a is None and b is None:
            return type(node)(left, right)
        op = CONNECTIVES[type(node)]
        if a is not None and b is not None:
            return _literal(op(a, b, 1))
        # one literal side: read off the table at the other side's two
        # values, the connective is a constant, that side or its negation
        other = left if a is None else right
        on0, on1 = (op(0, b, 1), op(1, b, 1)) if a is None else (op(a, 0, 1), op(a, 1, 1))
        if on0 == on1:
            return _literal(on0)
        return other if on1 else Not(other)
    if isinstance(node, Quant):
        child = _fold(node.child, values, n_vertices)
        if not isinstance(child, (TrueLit, FalseLit)):
            return Quant(node.quantifier, node.var, node.sort, child)
        if node.sort == "vertex" and n_vertices == 0:
            return _literal(node.quantifier == "forall")
        return child
    return node


# --------------------------------------------------------------- work units

# elements one growth step of the candidate offsets may build
_CANDIDATE_BOX_CAP = 1 << 22


class _Constraints:
    """Constraint j holds when coeffs[j] . sizes <= consts[j], over the set
    sizes |Z_i|; coeffs[j] = signs[j] * dirs[dir_of[j]], over the distinct
    rows up to sign."""

    def __init__(self, f: Formula):
        if f.free_params:
            raise ValueError(f"formula has unbound parameters {sorted(f.free_params)}")
        m, k = f.m, len(f.constraints)
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


class _Columns(_Constraints):
    """Integer matrices over the columns of a count row. Column (t << m) | sig
    is the extension variable x_{t,sig}, in the order the program declares
    them; sig_bits (columns x m) turns count rows into the set sizes."""

    def __init__(self, f: Formula, fstats: FormulaStats, type_sizes: list[int]):
        super().__init__(f)
        m, width = f.m, len(type_sizes) << f.m
        cells = width * (m + len(f.constraints))  # sig_bits and group3, charged first
        if cells > table_eval.DEFAULT_CELL_BUDGET:
            raise BudgetExceeded("mso-cells", table_eval.DEFAULT_CELL_BUDGET, cells)
        self.small = fstats.small_threshold
        self.sig_bits = (np.arange(width)[:, None] >> np.arange(m)) & 1
        self.names = [f"x_t{c >> m}_s{c & ((1 << m) - 1)}" for c in range(width)]
        self.sizes = np.repeat(type_sizes, 1 << m).tolist()  # type size per column
        # each type's subtype counts add up to its size
        self.group1 = [
            (tuple((c, 1) for c in range(t << m, (t + 1) << m)), ilp.EQ, size)
            for t, size in enumerate(type_sizes)
        ]
        # per constraint: the row guessed true, and the reversed row
        self.group3 = []
        for coeffs, const in zip((self.sig_bits @ self.coeffs.T).T.tolist(), self.consts.tolist()):
            terms = tuple(enumerate(coeffs))
            self.group3.append(((terms, ilp.LE, const), (terms, ilp.GE, const + 1)))

    def upper(self, counts: Sequence[int]) -> list[int]:
        """Upper bounds of a row's extension: a count below the threshold
        pins its variable, any other is a lower bound."""
        return [c if c < self.small else size for c, size in zip(counts, self.sizes)]


def _fits_one_table(n: int, m: int) -> bool:
    """Do the assignments of m sets over n vertices fit one truth table?"""
    return 1 << (n * m) <= table_eval.DEFAULT_CELL_BUDGET


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


def _build_program(
    cols: _Columns,
    counts: tuple[int, ...],
    alpha_index: int,
    weights: Optional[tuple[tuple[int, int], ...]] = None,
) -> ilp.Program:
    """The extension program of a count row under a pre-evaluation, over the
    count columns; weights, if any, are its objective."""
    rows = list(cols.group1)
    for j, (guessed_true, reversed_row) in enumerate(cols.group3):
        rows.append(reversed_row if (alpha_index >> j) & 1 else guessed_true)
    return ilp.Program.build(cols.names, counts, cols.upper(counts), rows, weights)


class _Pipeline:
    def __init__(
        self,
        g: Graph,
        f: Formula,
        mode: str = "vertex-cover",
        k_max: int = DEFAULT_K_MAX,
        node_budget: int = ilp.DEFAULT_NODE_BUDGET,
        dump: Optional[Callable[[ilp.Program], None]] = None,
        types: Optional[tuple[TypePartition, Optional[int]]] = None,
        fstats: Optional[FormulaStats] = None,
    ):
        self.g = g
        self.f = f
        self.node_budget = node_budget
        self.dump = dump
        self.stats = SolveStats()
        self.tp, self.stats.cover_size = types or _types(g, mode, k_max)
        # alpha index bit i set <=> constraint i guessed false; index 0 is
        # all-true and ascending order is the binary counter the spec fixes.
        # The pieces are counted before the columns are built
        self.skeleton, self.pieces = _split_pieces(f.body)
        if len(self.pieces) > MAX_PIECES:
            raise BudgetExceeded("pre-evaluation-pieces", MAX_PIECES, len(self.pieces))
        self.fstats = fstats or analyze(f)
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
        # growth step would build more than the cap (read only with slack)
        self._offsets: Optional[np.ndarray] = None
        side = self.slack + 1
        offsets = np.zeros((1, len(self.cols.dirs)), dtype=np.int64)
        for column in self.cols.dirs.T:
            if len(offsets) * side * len(column) > _CANDIDATE_BOX_CAP:
                break
            grown = offsets[:, None, :] + np.outer(np.arange(side), column)
            offsets = _distinct_rows(grown.reshape(len(grown) * side, len(column)))
        else:
            self._offsets = offsets[:, self.cols.dir_of] * np.array(self.cols.signs, dtype=np.int64)

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
        if _fits_one_table(self.rg.graph.n, self.m) and table_eval.estimate_worst_cells(
            self.rg.graph, body, fixed=frozenset(self.f.prefix)
        ) <= table_eval.DEFAULT_CELL_BUDGET:
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
            slices = [np.arange(int(mso_check(g, body)))]
        elif allowed is not None and 2 * len(allowed) <= 1 << m:
            slices = table_eval.allowed_cells(g, rest, self.f.prefix, allowed)
        else:
            cells = np.flatnonzero(table_eval.prefix_table(g, body, self.f.prefix))
            step = table_eval.SLICE_CELLS
            slices = np.split(cells, range(step, len(cells), step))
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
        with `below`, only objective values < below count as feasible."""
        self.stats.ilp_solves += 1
        weights = objective.augment(counts) if objective is not None else None
        program = self._programs.get(alpha_index)
        if program is None:
            program = self._programs[alpha_index] = _build_program(self.cols, counts, alpha_index)
        # the weights are over the count columns, which are the program's
        # variable indices
        program = program._replace(lo=counts, hi=self.cols.upper(counts), objective=weights)
        if self.dump is not None:
            self.dump(program)
        if weights is None:
            res = ilp.solve_feasibility(program, self.node_budget)
        else:
            res = ilp.solve_min(program, self.node_budget, below)
        self.stats.ilp_nodes += res.nodes
        self.stats.ilp_lp_refutations += res.lp_refuted
        if res.status == "infeasible":
            return False, None, None
        return True, res.assignment, res.objective_value

    # ------------------------------------------------------------- main loop

    def alpha_bools(self, alpha_index: int) -> PreEvaluation:
        return tuple(((alpha_index >> i) & 1) == 0 for i in range(self.k))

    def _profiles(self):
        """Piece-value combinations, each piece False then True; a piece that
        folds to a constant with no leaf known contributes that value only,
        and one on the skeleton's top-level And spine True only (false, it
        folds the skeleton to false, which yields no rows)."""
        unknown = [None] * self.k
        spine = {node.index for node in _conjuncts(self.skeleton) if isinstance(node, _PieceRef)}
        options = []
        for i, piece in enumerate(self.pieces):
            folded = _fold(piece, unknown, self.rg.graph.n)
            const = isinstance(folded, (TrueLit, FalseLit))
            free = (True,) if i in spine else (False, True)
            options.append((isinstance(folded, TrueLit),) if const else free)
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

    def _collect_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (pre-evaluation, unit) work pair that could possibly be
        feasible, as columns (alphas, enumeration positions, count rows) in
        the (alpha, position) order the plain loop would reach them (alphas
        determine their profile, so positions never tie). Without slack the
        zero row is the only offset: a row reaches just its own alpha."""
        columns = [(np.zeros(0, self.cols.weights.dtype), np.zeros(0, np.int64), self._no_rows)]
        for values in self._profiles():
            rows = self._units_for_profile(values)
            if not len(rows):
                continue
            sizes = rows @ self.cols.sig_bits
            if self.slack == 0:
                alpha = (sizes @ self.cols.coeffs.T > self.cols.consts) @ self.cols.weights
                own = [a for a in np.unique(alpha).tolist() if self._alpha_member(a, values)]
                pos = np.flatnonzero(np.isin(alpha, own))
                alpha = alpha[pos]
            else:
                fallback = self._profile_alphas(values) if self._offsets is None else None
                groups: dict[tuple[int, ...], int] = {}  # distinct set sizes, numbered
                inverse = [groups.setdefault(tuple(s), len(groups)) for s in sizes.tolist()]
                reached = [fallback if fallback is not None else self._reachable(s, values) for s in groups]
                alpha = np.array([a for group in inverse for a in reached[group]], self.cols.weights.dtype)
                pos = np.repeat(np.arange(len(rows)), [len(reached[group]) for group in inverse])
            columns.append((alpha, pos, rows[pos]))
        alpha, pos, rows = map(np.concatenate, zip(*columns))
        order = np.lexsort((pos, alpha))
        return alpha[order], pos[order], rows[order]

    def run_decision(self) -> Verdict:
        best = self.run_minimize(None)
        if best is None:
            return Verdict(False, None, None, self.stats)
        return Verdict(True, best[1], best[2], self.stats)

    def run_minimize(self, objective: Optional["BetaObjective"]):
        """Work pairs solved in order, each only for values below the best
        found so far; without an objective the first feasible pair ends the
        loop. Without slack they are decided in bulk. Returns (best value,
        witness, alpha) or None."""
        alphas, _positions, rows = self._collect_pairs()
        best = None  # (value, solved count row, alpha index)
        if self.slack == 0 and len(alphas):
            best = self._decide_pinned(alphas, rows, objective)
        else:
            tried: set[int] = set()
            for alpha_index, counts in zip(alphas.tolist(), map(tuple, rows.tolist())):
                tried.add(alpha_index)
                below = best[0] if best is not None else None
                feasible, solved, value = self._decide_unit(counts, alpha_index, objective, below)
                if feasible:
                    best = (value, solved, alpha_index)
                    if objective is None:
                        break
            self.stats.pre_evaluations = len(tried)
        if best is None:
            return None
        witness = extract_witness(best[1], self.m, self.tp.types)
        alpha = self.alpha_bools(best[2])
        self._assert_compliance(witness, alpha)
        return best[0], witness, alpha

    def _decide_pinned(self, alphas: np.ndarray, rows: np.ndarray, objective):
        """The pair the loop keeps when each pair's row is its only extension:
        the first, or with an objective the first of least value."""
        decided = len(alphas) if objective is not None else 1
        self.stats.ilp_solves += decided
        self.stats.pre_evaluations = len(np.unique(alphas[:decided]))
        if self.dump is not None:
            for alpha_index, counts in zip(alphas[:decided].tolist(), map(tuple, rows.tolist())):
                weights = objective.augment(counts) if objective is not None else None
                self.dump(_build_program(self.cols, counts, alpha_index, weights))
        if objective is None:
            return None, rows[0].tolist(), int(alphas[0])
        values = objective.values(rows)
        best = int(np.argmin(values))  # argmin keeps the first of several
        return int(values[best]), rows[best].tolist(), int(alphas[best])

    def _assert_compliance(self, witness: PrefixAssignment, alpha: PreEvaluation) -> None:
        sizes = {name: len(s) for name, s in zip(self.f.prefix, witness.sets)}
        if constraint_truths(self.f, sizes) != alpha:
            raise WitnessError("witness does not comply with its pre-evaluation")


# ------------------------------------------------------------------ rows path

def _types(g: Graph, mode: str, k_max: int) -> tuple[TypePartition, Optional[int]]:
    """The mode's type partition, and the cover size in vertex-cover mode."""
    if mode in ("vertex-cover", "vc"):
        cover = min_vertex_cover(g, k_max)
        return type_partition(g, cover), cover.size
    if mode in ("neighborhood-diversity", "nd"):
        return nd_partition(g), None
    raise ValueError(f"unknown mode {mode!r}")


def _conjuncts(node: Node) -> list[Node]:
    """The conjuncts of node's top-level And spine."""
    return _conjuncts(node.left) + _conjuncts(node.right) if isinstance(node, And) else [node]


def _quantifiers(node: Node, positive: bool = True) -> Optional[list[tuple[bool, str]]]:
    """node's quantifiers in preorder as (universal in negation normal form,
    variable); None when one binds a set or sits under Iff, or node reads a
    set equality or a constraint."""
    if isinstance(node, Not):
        return _quantifiers(node.child, not positive)
    if type(node) in CONNECTIVES:
        left = _quantifiers(node.left, positive != isinstance(node, Implies))
        right = _quantifiers(node.right, positive)
        if left is None or right is None or isinstance(node, Iff) and left + right:
            return None
        return left + right
    if isinstance(node, Quant):
        child = _quantifiers(node.child, positive)
        universal = (node.quantifier == "forall") == positive
        return None if child is None or node.sort == "set" else [(universal, node.var)] + child
    return None if isinstance(node, (SetEq, ConstraintRef, _PieceRef)) else []


class _Rows:
    """The rows path (see the module docstring): program is the sentence's
    one program over columns x, then z, or None when the syntax puts
    the body outside the fragment; no array is built before that test."""

    def __init__(self, g: Graph, f: Formula, tp: TypePartition, fstats: FormulaStats):
        self.f, self.tp, self.n = f, tp, g.n
        self.program: Optional[ilp.Program] = None
        skeleton, self.pieces = _split_pieces(f.body)
        self.cols = _Constraints(f)  # the columns replace it once the body is in the fragment
        self.held, bodies = [], []  # (piece index, interval); (psi, universal, variable axes)
        for node in _conjuncts(_fold(skeleton, [None] * len(self.pieces), g.n)):
            if isinstance(node, _PieceRef):
                piece = self.pieces[node.index]
                intervals = [self._interval(piece)]
                if intervals[0] is None:  # an And over several directions: one interval a conjunct
                    intervals = [self._interval(part) for part in _conjuncts(piece)]
                if None in intervals:
                    return
                self.held += [(node.index, interval) for interval in intervals]
                continue
            quants = _quantifiers(node) or []
            kinds = [universal for universal, _ in quants]
            axis = {var: i for i, (_, var) in enumerate(quants)}
            if kinds not in ([True], [True, True], [True, False]) or len(axis) < len(quants):
                return
            bodies.append((node, kinds[-1], axis))
        width = tp.count << f.m  # the (2, width, width) grids are charged before the columns
        if 2 * width * width > table_eval.DEFAULT_CELL_BUDGET:
            raise BudgetExceeded("mso-cells", table_eval.DEFAULT_CELL_BUDGET, 2 * width * width)
        self.cols = cols = _Columns(f, fstats, [len(members) for members in tp.types])
        column = np.arange(width)
        # inside a type: false twins (vc), a clique or an independent set (nd)
        adj = g.class_adjacency(tp.types)[np.ix_(column >> f.m, column >> f.m)]
        same = np.array([False, True])[:, None, None]

        def grid(node: Node, axis: dict):
            """psi at [same, a, b]: the first variable in column a, the
            second in column b, the two one vertex when same."""
            if isinstance(node, (TrueLit, FalseLit)):
                return np.bool_(isinstance(node, TrueLit))
            if isinstance(node, Member):
                bits = (column >> f.prefix.index(node.set)) & 1 == 1
                return bits if axis[node.vertex] else bits[:, None]
            if isinstance(node, (Adjacent, VertexEq)):
                equal = same | (node.a == node.b)
                return equal if isinstance(node, VertexEq) else adj & ~equal
            if isinstance(node, (Not, Quant)):
                return ~grid(node.child, axis) if isinstance(node, Not) else grid(node.child, axis)
            return CONNECTIVES[type(node)](grid(node.left, axis), grid(node.right, axis), True)

        rows = list(cols.group1)
        for _, (direction, lo, hi) in self.held:
            terms = tuple(enumerate((cols.sig_bits @ cols.dirs[direction]).tolist()))
            rows += [(terms, rel, b) for rel, b in zip((ilp.GE, ilp.LE), (lo, hi)) if b is not None]
        live = np.ones(width, dtype=bool)  # a vertex may take the column
        pairs = np.ones((width, width), dtype=bool)  # two vertices may take a and b
        covers = []  # (column, the columns whose vertices witness it under (ii))
        for node, universal, axis in bodies:
            two, one = np.broadcast_to(grid(node, axis), (2, width, width))
            if universal:
                live &= one.diagonal()
                pairs &= two & two.T
            else:
                covers += [(b, np.flatnonzero(two[b])) for b in np.flatnonzero(~one.diagonal())]

        size = np.array(cols.sizes)
        for x, t in zip(np.flatnonzero(live).tolist(), size[live].tolist()):
            rows += [(((x, 1), (width + x, -t)), ilp.LE, 0), (((width + x, 1), (x, -1)), ilp.LE, 0)]
        for a, b in np.argwhere(np.triu(~pairs, 1) & live & live[:, None]).tolist():
            rows.append((((width + a, 1), (width + b, 1)), ilp.LE, 1))
        for b, others in covers:  # x_b = 1 needs another witness, x_b >= 2 does not
            others = others[live[others]].tolist()
            terms = [(width + a, -1) if a != b else (b, -1) for a in others]
            rows.append((((width + b, 1 + (b in others)), *terms), ilp.LE, 0))
        hi = np.concatenate([np.where(live, np.where(pairs.diagonal(), size, 1), 0), live])
        names = cols.names + ["z" + name[1:] for name in cols.names]
        self.program = ilp.Program.build(names, [0] * len(names), hi.tolist(), rows)

    def _interval(self, piece: Node) -> Optional[tuple[int, Optional[int], Optional[int]]]:
        """(direction, lo, hi) when the piece's leaves lie on one direction
        and the piece holds for exactly its values in [lo, hi], a None end
        unbounded. A leaf holds iff sign * value <= const, so the piece is
        evaluated once between each two such ends."""
        cols = self.cols
        leaves = [sub.index for sub in walk(piece) if isinstance(sub, ConstraintRef)]
        if len({cols.dir_of[j] for j in leaves}) != 1:
            return None
        consts = cols.consts.tolist()
        starts = sorted({consts[j] + 1 if cols.signs[j] > 0 else -consts[j] for j in leaves})
        inside = np.flatnonzero([
            isinstance(_fold(piece, [s * v <= c for s, c in zip(cols.signs, consts)], self.n), TrueLit)
            for v in [starts[0] - 1] + starts
        ])
        if not len(inside):
            return cols.dir_of[leaves[0]], 1, 0
        if inside[-1] - inside[0] + 1 != len(inside):
            return None
        lo = starts[inside[0] - 1] if inside[0] else None
        return cols.dir_of[leaves[0]], lo, starts[inside[-1]] - 1 if inside[-1] < len(starts) else None

    def decide(self, stats: SolveStats, node_budget: int, dump) -> Verdict:
        """Solve the program once and lift the solved counts; the witness's
        pre-evaluation is the truth of each constraint at its set sizes."""
        stats.ilp_solves = 1
        if dump is not None:
            dump(self.program)
        res = ilp.solve_feasibility(self.program, node_budget)
        stats.ilp_nodes, stats.ilp_lp_refutations = res.nodes, int(res.lp_refuted)
        if res.status == "infeasible":
            return Verdict(False, None, None, stats)
        self.solved = res.assignment[: len(self.cols.names)]
        witness = extract_witness(self.solved, self.f.m, self.tp.types)
        alpha = constraint_truths(self.f, {name: len(s) for name, s in zip(self.f.prefix, witness.sets)})
        if any(not isinstance(_fold(self.pieces[i], alpha, self.n), TrueLit) for i, _ in self.held):
            raise WitnessError("witness fails a constraint piece of the body")
        return Verdict(True, witness, alpha, stats)


# ---------------------------------------------------------------- public ops

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
    dump: Optional[Callable[[ilp.Program], None]] = None,
) -> Verdict:
    """Does g model the sentence? Exact; witness returned when it holds.
    Dispatched to the rows or the enumeration path as the module docstring
    says."""
    start = time.perf_counter()
    tp, cover_size = types = _types(g, mode, k_max)
    fstats = analyze(f)
    whole = max(map(len, tp.types), default=0) <= fstats.reduce_threshold
    rows = _Rows(g, f, tp, fstats) if g.n and not (whole and _fits_one_table(g.n, f.m)) else None
    if rows is None or rows.program is None:
        verdict = _Pipeline(g, f, mode, k_max, node_budget, dump, types, fstats).run_decision()
    else:
        verdict = rows.decide(SolveStats(cover_size=cover_size, type_count=tp.count), node_budget, dump)
    verdict.stats.elapsed = time.perf_counter() - start
    return verdict
