"""Vectorised MSO evaluation over explicit truth tables.

Set variables get one array axis each (size 2^n, subsets encoded as bitmasks
with vertex 0 in the least significant bit); arrays keep size-1 axes for set
variables a node does not mention, so numpy broadcasting aligns subformulas
and set quantifiers become any/all folds. Vertex variables are never
materialised as axes: a vertex quantifier loops over the domain with the
variable fixed, which keeps every intermediate bounded by the product of the
live set-variable domains. Semantics are exactly those of naive recursion,
including the empty-domain conventions.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded
from .formula import (
    Adjacent, And, ConstraintRef, FalseLit, Iff, Implies, Member, Node, Not,
    Or, Quant, SetEq, TrueLit, VertexEq,
)
from .graph import Graph

DEFAULT_CELL_BUDGET = 1 << 27


def collect_set_vars(node: Node, acc: dict[str, bool]) -> None:
    """Set-variable names in first-occurrence order (value unused)."""
    if isinstance(node, Quant):
        if node.sort == "set":
            acc.setdefault(node.var, True)
        collect_set_vars(node.child, acc)
    elif isinstance(node, Not):
        collect_set_vars(node.child, acc)
    elif isinstance(node, (And, Or, Implies, Iff)):
        collect_set_vars(node.left, acc)
        collect_set_vars(node.right, acc)
    elif isinstance(node, Member):
        acc.setdefault(node.set, True)
    elif isinstance(node, SetEq):
        acc.setdefault(node.a, True)
        acc.setdefault(node.b, True)


class TableEngine:
    """One evaluation context: a graph plus a set-variable axis registry.

    free_sets are set variables left unbound (the prefix); they take the
    first axes in the given order so the final table ravels with the first
    variable most significant.
    """

    def __init__(
        self,
        g: Graph,
        root: Node,
        free_sets: tuple[str, ...] = (),
        fixed_sets: dict[str, frozenset[int]] | None = None,
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ):
        self.g = g
        self.n = g.n
        self.subsets = 1 << g.n
        self.cell_budget = cell_budget
        self.fixed_sets = fixed_sets or {}

        names: dict[str, bool] = {v: True for v in free_sets}
        collect_set_vars(root, names)
        for name in self.fixed_sets:
            names.pop(name, None)
        order = list(names)
        self.axis = {v: i for i, v in enumerate(order)}
        self.naxes = len(order)

        self._member_columns: dict[int, np.ndarray] = {}
        self.adj = np.zeros((g.n, g.n), dtype=bool)
        for a, b in g.edges:
            self.adj[a, b] = self.adj[b, a] = True
        self._fixed_masks = {
            name: sum(1 << x for x in vs) for name, vs in self.fixed_sets.items()
        }
        self._seq_cache: np.ndarray | None = None

    def _charge(self, cells: int) -> None:
        if cells > self.cell_budget:
            raise BudgetExceeded("mso-cells", self.cell_budget)

    def _membership(self, v: int) -> np.ndarray:
        """Which of the 2^n subsets contain vertex v. Each column is charged
        and built on first use: sentences without free set variables read
        none, so large graphs evaluate them without any subset axis."""
        column = self._member_columns.get(v)
        if column is None:
            self._charge(self.subsets)
            codes = np.arange(self.subsets, dtype=np.int64)
            column = self._member_columns[v] = ((codes >> v) & 1).astype(bool)
        return column

    def _const(self, value: bool) -> np.ndarray:
        return np.full((1,) * self.naxes, value, dtype=bool)

    def _place1(self, column: np.ndarray, var: str) -> np.ndarray:
        shape = [1] * self.naxes
        shape[self.axis[var]] = column.shape[0]
        return column.reshape(shape)

    # -------------------------------------------------------------- evaluation

    def eval(self, node: Node, venv: dict[str, int]) -> np.ndarray:
        if isinstance(node, TrueLit):
            return self._const(True)
        if isinstance(node, FalseLit):
            return self._const(False)
        if isinstance(node, ConstraintRef):
            raise ValueError("table evaluation requires a constraint-free body")
        if isinstance(node, Member):
            v = venv[node.vertex]
            if node.set in self.fixed_sets:
                return self._const(bool((self._fixed_masks[node.set] >> v) & 1))
            return self._place1(self._membership(v), node.set)
        if isinstance(node, Adjacent):
            return self._const(bool(self.adj[venv[node.a], venv[node.b]]))
        if isinstance(node, VertexEq):
            return self._const(venv[node.a] == venv[node.b])
        if isinstance(node, SetEq):
            return self._set_eq(node)
        if isinstance(node, Not):
            return ~self.eval(node.child, venv)
        if isinstance(node, (And, Or, Implies, Iff)):
            left = self.eval(node.left, venv)
            right = self.eval(node.right, venv)
            self._charge(
                int(np.prod(np.broadcast_shapes(left.shape, right.shape), dtype=np.int64))
            )
            if isinstance(node, And):
                return left & right
            if isinstance(node, Or):
                return left | right
            if isinstance(node, Implies):
                return ~left | right
            return left == right
        if isinstance(node, Quant):
            if node.sort == "set":
                child = self.eval(node.child, venv)
                ax = self.axis[node.var]
                # a size-1 axis means the child ignores the variable; folding
                # it is still correct because the value is constant over the
                # (never empty) subset domain
                if node.quantifier == "forall":
                    return child.all(axis=ax, keepdims=True)
                return child.any(axis=ax, keepdims=True)
            if self.n == 0:
                return self._const(node.quantifier == "forall")
            acc: np.ndarray | None = None
            for v in range(self.n):
                venv[node.var] = v
                value = self.eval(node.child, venv)
                if acc is None:
                    acc = value
                elif node.quantifier == "forall":
                    acc = acc & value
                else:
                    acc = acc | value
            del venv[node.var]
            return acc
        raise TypeError(f"unknown node {node!r}")

    def _set_eq(self, node: SetEq) -> np.ndarray:
        a_fixed = node.a in self.fixed_sets
        b_fixed = node.b in self.fixed_sets
        if node.a == node.b:
            return self._const(True)
        if a_fixed and b_fixed:
            return self._const(self._fixed_masks[node.a] == self._fixed_masks[node.b])
        if a_fixed or b_fixed:
            fixed, free = (node.a, node.b) if a_fixed else (node.b, node.a)
            self._charge(self.subsets)
            column = np.arange(self.subsets, dtype=np.int64) == self._fixed_masks[fixed]
            return self._place1(column, free)
        self._charge(self.subsets * self.subsets)
        if self._seq_cache is None:
            self._seq_cache = np.eye(self.subsets, dtype=bool)
        ax_a, ax_b = self.axis[node.a], self.axis[node.b]
        shape = [1] * self.naxes
        shape[min(ax_a, ax_b)] = self.subsets
        shape[max(ax_a, ax_b)] = self.subsets
        return self._seq_cache.reshape(shape)


def evaluate_sentence(
    g: Graph,
    node: Node,
    fixed_sets: dict[str, frozenset[int]] | None = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> bool:
    """Truth of a closed formula (all variables quantified or fixed)."""
    engine = TableEngine(g, node, (), fixed_sets, cell_budget)
    out = engine.eval(node, {})
    if out.size != 1:
        raise ValueError("sentence has free variables")
    return bool(out.reshape(-1)[0])


def prefix_table(
    g: Graph,
    body: Node,
    prefix: tuple[str, ...],
    cell_budget: int = DEFAULT_CELL_BUDGET,
    fixed_sets: dict[str, frozenset[int]] | None = None,
) -> np.ndarray:
    """Truth table of the body over the prefix set variables (any fixed_sets
    are bound as constants instead of getting axes).

    Shape is (2^n,) * m with the first prefix variable on the first axis, so
    flat C-order enumerates assignments with the last variable as the fastest
    binary counter.
    """
    engine = TableEngine(g, body, tuple(prefix), fixed_sets, cell_budget)
    m = len(prefix)
    engine._charge(engine.subsets ** m)
    out = engine.eval(body, {})
    target_shape = tuple([engine.subsets] * m + [1] * (engine.naxes - m))
    out = np.broadcast_to(out, np.broadcast_shapes(out.shape, target_shape))
    return out.reshape(tuple([engine.subsets] * m)).copy()


def estimate_worst_cells(
    g: Graph,
    node: Node,
    prefix: tuple[str, ...],
    fixed: frozenset[str] = frozenset(),
) -> int:
    """Upper bound on the largest table the engine would materialise: the
    product of subset-domain sizes over the largest simultaneously-live set
    of set variables (vertex variables are looped and fixed sets are bound
    as constants, so neither is materialised)."""
    set_dim = 1 << g.n
    cap = 1 << 62
    worst = 1

    def dims(sets: frozenset[str]) -> int:
        cells = 1
        for _ in sets - fixed:
            cells = min(cells * set_dim, cap)
        return cells

    def visit(node: Node) -> frozenset[str]:
        nonlocal worst
        if isinstance(node, Member):
            free = frozenset([node.set])
        elif isinstance(node, SetEq):
            free = frozenset([node.a, node.b])
        elif isinstance(node, Not):
            free = visit(node.child)
        elif isinstance(node, (And, Or, Implies, Iff)):
            free = visit(node.left) | visit(node.right)
        elif isinstance(node, Quant):
            free = visit(node.child)
            if node.sort == "set":
                free = free - {node.var}
        else:
            free = frozenset()
        worst = max(worst, dims(free))
        return free

    sets = visit(node)
    worst = max(worst, dims(sets | frozenset(prefix)))
    return worst
