"""Exact feasibility and minimisation for integer programs with few bounded
variables.

Depth-first branch and bound over integer domains with interval constraint
propagation before every branch. Branching picks the variable with the
smallest remaining domain and tries values lowest-first, so witnesses are
deterministic. Strict inequalities are never stored; callers encode a > b as
a >= b + 1. A Program is the one form of an integer program: Program.build
compiles rows over variable indices into <= rows once, and the program is
re-solved under new bounds or objectives by _replace.

Propagation is event-driven: a first-in-first-out queue holds each row at
most once, the root queues every row and a child only the rows of the
variable it fixed, and a row is queued again only when one of its
variables' bounds changes. Every tightening rule is monotone, so the
fixpoint (or wipeout) is the one a sweep over all rows until nothing
changes would reach, and feasibility search visits the same tree as a
recursive search with full sweeps: the same witness and the same node
count. The search runs over an explicit stack of frames that make their
children one at a time, so depth is not limited by the interpreter's
recursion limit and memory grows with depth times the number of variables.

Minimisation propagates the row objective <= best - 1 once a solution is
found, and objective <= below - 1 from the root when the caller passes a
cut-off `below`. It returns the same optimal value as a search that prunes
only on the objective's lower bound, though possibly another optimal
assignment, and usually after fewer nodes.

When root propagation leaves a domain open, the root also tries to prove
that the LP relaxation over the propagated box is empty (Land & Doig's LP
bound, checked exactly as in Applegate, Cook, Dash & Espinoza). A float
phase-1 simplex proposes multipliers y >= 0, one per row, scaled and rounded
to integers; in integer arithmetic, the surrogate row sum_r y_r * row_r then
needs a box minimum above its right-hand side. If it has one, no point of
the box satisfies every row and the solve ends at node 1; the simplex's
floats never decide anything. In minimisation the cut-off row is one of the
rows, so an LP bound at or above `below` is refuted the same way. The
simplex gives up after PIVOTS_PER_COLUMN pivots per column, and then, or
when the check fails, nothing is pruned. Refuting the root only removes a
tree without an integer point, so every status, witness, optimum and node
count is what the search alone gives, except that a refuted program costs
one node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import le, sub
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import table_eval
from .errors import BudgetExceeded

DEFAULT_NODE_BUDGET = 10_000_000
PIVOTS_PER_COLUMN = 4  # the root LP gives up after this many pivots per column
MULTIPLIER_SCALE = 1 << 30  # float multipliers, largest scaled to this, rounded
_TOL = 1e-9

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)


@dataclass(frozen=True)
class ILPResult:
    status: str  # "feasible" | "infeasible" | "optimal"
    assignment: Optional[tuple[int, ...]] = None  # in variable order
    objective_value: Optional[int] = None
    nodes: int = 0
    lp_refuted: bool = False  # closed at the root by a Farkas certificate


def _le_row(terms, rhs: int) -> tuple:
    """A <= row as (positive terms, negative terms, rhs)."""
    return tuple((i, c) for i, c in terms if c > 0), tuple((i, c) for i, c in terms if c < 0), rhs


def _format_terms(names: Sequence[str], terms) -> str:
    return " + ".join(f"{c}*{names[i]}" for i, c in terms) or "0"


class Program(NamedTuple):
    """An integer program as the search runs it: <= rows (pos, neg, rhs) over
    variable indices, an equality as two rows and a >= row negated.
    var_rows[i] lists the rows over two or more variables that read variable
    i (a row over one variable is applied at the root only: bounds only
    shrink below it)."""

    names: tuple[str, ...]
    lo: Sequence[int]
    hi: Sequence[int]
    rows: tuple[tuple, ...]
    var_rows: tuple[tuple[int, ...], ...]
    objective: Optional[tuple[tuple[int, int], ...]]  # (index, coefficient), minimise

    @classmethod
    def build(
        cls,
        names: Sequence[str],
        lo: Sequence[int],
        hi: Sequence[int],
        rows,
        objective: Optional[Sequence[tuple[int, int]]] = None,
    ) -> "Program":
        """Compile rows (((index, coefficient), ...), LE | EQ | GE, rhs) over
        the variables names[i] in [lo[i], hi[i]]; zero coefficients are
        dropped, and the objective, if any, is minimised."""
        for name, a, b in zip(names, lo, hi):
            if a > b:
                raise ValueError(f"variable {name!r} has empty domain [{a},{b}]")
        compiled = []
        for terms, relation, rhs in rows:
            if relation not in _RELATIONS:
                raise ValueError(f"relation must be one of {_RELATIONS}")
            if relation in (LE, EQ):
                compiled.append(_le_row(terms, rhs))
            if relation in (GE, EQ):
                compiled.append(_le_row([(i, -c) for i, c in terms], -rhs))
        var_rows: list[list[int]] = [[] for _ in names]
        for r, (pos, neg, _) in enumerate(compiled):
            if len(pos) + len(neg) > 1:
                for i, _ in pos + neg:
                    var_rows[i].append(r)
        if objective is not None:
            objective = tuple((i, c) for i, c in objective if c)
        return cls(
            tuple(names), list(lo), list(hi), tuple(compiled),
            tuple(map(tuple, var_rows)), objective,
        )

    def holds(self, x: Sequence[int]) -> bool:
        """Is x inside the bounds and on the right side of every row?"""
        return all(map(le, self.lo, x)) and all(map(le, x, self.hi)) and all(
            sum(c * x[i] for i, c in pos + neg) <= rhs for pos, neg, rhs in self.rows
        )

    def format(self) -> str:
        """Debug dump: a `# var <name> in [lo, hi]` line per variable, the
        objective, if any, as `# minimize ...`, then one line
        `<coef>*<var> + ... <= <rhs>` per row as the search runs it."""
        lines = [f"# var {name} in [{a}, {b}]" for name, a, b in zip(self.names, self.lo, self.hi)]
        if self.objective is not None:
            lines.append(f"# minimize {_format_terms(self.names, self.objective)}")
        for pos, neg, rhs in self.rows:
            lines.append(f"{_format_terms(self.names, pos + neg)} <= {rhs}")
        return "\n".join(lines) + "\n"


def farkas_multipliers(rows: list, lo: list[int], hi: list[int]) -> Optional[list[int]]:
    """Integer multipliers y >= 0, one per <= row (pos, neg, rhs), proposed
    by a float phase-1 simplex over the box lo <= x <= hi; None when the LP
    relaxation looks feasible, the pivot cap is hit or the dense tableau
    would pass the cell budget (a 64-bit cell as 64 table cells). Only
    `refutes` makes them a proof.

    Bounded-variable primal simplex with Dantzig's rule and a product-form
    basis inverse. Open variables are shifted to x = lo + z with
    0 <= z <= hi - lo; rows that hold on the whole box are left out (their
    multiplier is 0). Each row gains a slack, and a row violated at z = 0 an
    artificial, so the start basis is feasible. At a positive phase-1
    optimum the negated duals are y: the surrogate row y.A x <= y.b has a
    box minimum above y.b by that optimum."""
    free = [i for i in range(len(lo)) if lo[i] < hi[i]]
    column = {i: j for j, i in enumerate(free)}
    kept = [r for r, (pos, neg, rhs) in enumerate(rows)
            if sum(c * hi[i] for i, c in pos) + sum(c * lo[i] for i, c in neg) > rhs]
    m, n = len(kept), len(free)
    if m * (n + 3 * m) << 6 > table_eval.DEFAULT_CELL_BUDGET:
        return None  # the tableau and its basis inverse
    dense, rest = np.zeros((m, n)), []
    for row, (pos, neg, rhs) in zip(dense, [rows[r] for r in kept]):
        for i, c in pos + neg:
            rhs -= c * lo[i]  # rhs once every variable is at its lower bound
            if i in column:
                row[column[i]] = c
        rest.append(rhs)
    rhs = np.array(rest, float)
    violated = np.flatnonzero(rhs < 0)
    cols = np.hstack([dense, np.eye(m), -np.eye(m)[:, violated]])
    upper = np.concatenate([[hi[i] - lo[i] for i in free], np.full(m + len(violated), np.inf)])
    cost = np.concatenate([np.zeros(n + m), np.ones(len(violated))])
    basis = np.arange(n, n + m)
    basis[violated] = n + m + np.arange(len(violated))
    inv = np.linalg.inv(cols[:, basis])
    at_upper = np.zeros(len(cost), bool)
    for _ in range(PIVOTS_PER_COLUMN * len(cost)):
        x = inv @ (rhs - cols[:, at_upper] @ upper[at_upper])
        if cost[basis] @ x <= _TOL:
            return None
        duals = cost[basis] @ inv
        gain = cost - duals @ cols  # reduced costs; negative improves
        gain[at_upper] *= -1
        gain[basis] = 0
        enter = int(np.argmin(gain))
        if gain[enter] >= -_TOL:
            y = np.zeros(len(rows))
            y[kept] = np.maximum(-duals, 0)
            top = y.max()
            if not 0 < top < np.inf:  # lost to rounding
                return None
            return [int(v) for v in np.rint(y * (MULTIPLIER_SCALE / top))]
        alpha = inv @ cols[:, enter]
        step = -alpha if at_upper[enter] else alpha  # basics move by -theta * step
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(
                step > _TOL, x / step,
                np.where(step < -_TOL, (upper[basis] - x) / -step, np.inf),
            )
        leave = int(np.argmin(ratios))
        if upper[enter] <= ratios[leave]:
            at_upper[enter] = not at_upper[enter]
            continue
        at_upper[basis[leave]] = step[leave] < 0
        at_upper[enter] = False
        basis[leave] = enter
        pivot = inv[leave] / alpha[leave]
        inv -= np.outer(alpha, pivot)
        inv[leave] = pivot
    return None


def refutes(rows: list, y: list[int], lo: list[int], hi: list[int]) -> bool:
    """Exact check of a Farkas certificate: with every y_r >= 0, each point
    of the box that satisfies the <= rows (pos, neg, rhs) satisfies their
    surrogate sum_r y_r * row_r too, so a surrogate whose minimum over the
    box exceeds its rhs leaves no point, integer or not."""
    if any(v < 0 for v in y):
        return False
    coeffs: dict[int, int] = {}
    total = 0
    for (pos, neg, rhs), v in zip(rows, y):
        if v:
            total += v * rhs
            for i, c in pos + neg:
                coeffs[i] = coeffs.get(i, 0) + v * c
    return sum(c * (lo[i] if c > 0 else hi[i]) for i, c in coeffs.items()) > total


class _Search:
    """One solve call over a compiled program; all state confined here.

    The program's rows are shared, never changed. When the search minimises,
    it appends one row of its own, objective <= cutoff, where the cutoff is
    one less than the best value found so far or than `below`; before either
    exists it is the objective's maximum over the root box, which cuts
    nothing.
    """

    def __init__(self, program: Program, node_budget: int, below: Optional[int] = None):
        self.program = program
        self.lo, self.hi = list(program.lo), list(program.hi)
        self.rows: list = list(program.rows)
        self.var_rows = program.var_rows
        self.objective = program.objective
        self.obj_row = -1
        if self.objective is not None:
            ceiling = sum(c * (self.hi[i] if c > 0 else self.lo[i]) for i, c in self.objective)
            if below is not None:
                ceiling = min(ceiling, below - 1)
            self.obj_row = len(self.rows)
            self.rows.append(list(_le_row(self.objective, ceiling)))  # its rhs moves
            self.var_rows = list(self.var_rows)
            for i, _ in self.objective:
                self.var_rows[i] += (self.obj_row,)
        self.cut_active = below is not None
        self.node_budget = node_budget
        self.nodes = 0
        self.lp_refuted = False
        self.best_value: Optional[int] = None
        self.best_assignment: Optional[list[int]] = None

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceeded("ilp-nodes", self.node_budget, self.nodes)

    def propagate(self, lo: list[int], hi: list[int], queue: deque) -> bool:
        """Interval tightening to fixpoint over the queued rows and every row
        whose variables' bounds change on the way. False on wipeout.

        A <= row with slack s = rhs - min(row) caps each variable's range at
        s // |c|, which needs no second pass over the same row; the row is
        skipped outright when no term's range |c| * (hi - lo) exceeds s.
        """
        rows = self.rows
        var_rows = self.var_rows
        queued = [False] * len(rows)
        for r in queue:
            queued[r] = True
        while queue:
            r = queue.popleft()
            pos, neg, rhs = rows[r]
            row_lo = span = 0
            for i, c in pos:
                low = lo[i]
                row_lo += c * low
                width = c * (hi[i] - low)
                if width > span:
                    span = width
            for i, c in neg:
                high = hi[i]
                row_lo += c * high
                width = c * (lo[i] - high)
                if width > span:
                    span = width
            slack = rhs - row_lo
            if slack < 0:
                return False
            if slack >= span:
                queued[r] = False
                continue
            for i, c in pos:
                if c * (hi[i] - lo[i]) > slack:
                    hi[i] = lo[i] + slack // c
                    for j in var_rows[i]:
                        if not queued[j]:
                            queued[j] = True
                            queue.append(j)
            for i, c in neg:
                if c * (lo[i] - hi[i]) > slack:
                    lo[i] = hi[i] - slack // -c
                    for j in var_rows[i]:
                        if not queued[j]:
                            queued[j] = True
                            queue.append(j)
            queued[r] = False
        return True

    def _leaf(self, lo: list[int]) -> bool:
        """Record a fully fixed point; True when the search may stop."""
        if self.objective is None:
            self.best_assignment = lo
            return True
        self.best_value = sum(c * lo[i] for i, c in self.objective)
        self.best_assignment = lo
        self.rows[self.obj_row][2] = self.best_value - 1
        self.cut_active = True
        return False

    def run(self) -> None:
        """Depth-first search over an explicit stack of frames
        [bounds lo, bounds hi, branching variable, next value]. Children are
        made one at a time, lowest value first; a frame is dropped as its
        last child is made."""
        lo, hi = self.lo[:], self.hi[:]
        self.tick()
        if not self.propagate(lo, hi, deque(range(len(self.rows)))):
            return
        if lo != hi:
            y = farkas_multipliers(self.rows, lo, hi)
            if y is not None and refutes(self.rows, y, lo, hi):
                self.lp_refuted = True
                return
        stack: list[list] = []
        while True:
            widths = list(map(sub, hi, lo))
            if any(widths):
                pick = widths.index(min(filter(None, widths)))
                stack.append([lo, hi, pick, lo[pick]])
            elif self._leaf(lo):
                return
            while stack:
                frame = stack[-1]
                parent_lo, parent_hi, pick, value = frame
                if value == parent_hi[pick]:
                    stack.pop()
                else:
                    frame[3] = value + 1
                lo, hi = parent_lo[:], parent_hi[:]
                lo[pick] = hi[pick] = value
                self.tick()
                queue = deque(self.var_rows[pick])
                if self.cut_active and self.obj_row not in self.var_rows[pick]:
                    queue.append(self.obj_row)
                if self.propagate(lo, hi, queue):
                    break
            else:
                return


def _result(search: _Search, optimal: bool) -> ILPResult:
    if search.best_assignment is None:
        return ILPResult("infeasible", nodes=search.nodes, lp_refuted=search.lp_refuted)
    assert search.program.holds(search.best_assignment), "solver returned invalid assignment"
    status = "optimal" if optimal else "feasible"  # best_value is None without an objective
    return ILPResult(status, tuple(search.best_assignment), search.best_value, search.nodes)


def solve_feasibility(program: Program, node_budget: int = DEFAULT_NODE_BUDGET) -> ILPResult:
    """Exact feasibility with a witness, or infeasible."""
    search = _Search(program._replace(objective=None), node_budget)
    search.run()
    return _result(search, optimal=False)


def solve_min(
    program: Program,
    node_budget: int = DEFAULT_NODE_BUDGET,
    below: Optional[int] = None,
) -> ILPResult:
    """Exact minimisation of the objective, or infeasible. With `below`, only
    solutions whose objective is < below count: the result is the minimum
    when it is below that cut-off and infeasible otherwise."""
    if program.objective is None:
        raise ValueError("solve_min requires an objective")
    search = _Search(program, node_budget, below)
    search.run()
    return _result(search, optimal=True)
