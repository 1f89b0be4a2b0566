"""Vectorised MSO evaluation over explicit truth tables, kept factored and
bit-packed.

Set variables get one array axis each (2^n subsets, encoded as bitmasks with
vertex 0 in the least significant bit). A formula evaluates to a conjunction
of factors: a dict from a span (a bitmask of the set axes the factor depends
on) to a uint8 array with full size on those axes and size 1 on every other
axis, so numpy broadcasting aligns factors of different spans. The empty
dict is true; the span-0 entry only ever holds false, and then it stands
alone.

Layout: axis 0, the first set axis (the first prefix variable in
prefix_table), is bit-packed. Its byte j holds subsets 8j .. 8j+7, bit i
being subset 8j+i (np.packbits with bitorder="little"); with fewer than 8
subsets the 2^n-bit pattern repeats across the one byte. Every other axis
keeps one byte per subset, and a factor that does not span axis 0 holds
only 0x00 (false) or 0xFF (true) in each byte. So `!` is `~`, And is `&`, Or
is `|` and `<->` is XNOR, all exact under broadcasting against packed
factors, and a table takes one byte per 8 cells on axis 0 and one byte per
cell elsewhere.

Polarity: eval(node, venv, negate) returns the factors of node, or of its
negation when negate is set. `!` flips the polarity and De Morgan swaps And
with Or (`A -> B` is `!A | B`), so negation reaches the atoms and a negated
disjunction stays a conjunction of small factors.

Conjunction merges factors, ANDing those with the same span. `forall X`
folds each factor that spans X on its own, because it distributes over the
conjunction; `exists X` joins only the factors that span X into one array
and folds that. A fold is a bitwise AND (forall) or OR (exists) reduction
over the axis; on axis 0 the reduced byte is then tested for all bits or any
bit and spread back to 0x00 or 0xFF. A disjunction and `<->` join each side
into one array. An operand without free set variables (adj, `=`, fixed
sets) is evaluated first: its scalar decides the node or drops the operand.
The one table over every prefix variable is joined once, at the end of
prefix_table, and unpacked into a bool table there.

Vertex variables are never axes: a vertex quantifier loops over the domain
with the variable fixed. Every array the engine builds, merged, joined or
folded, is charged to the cell budget before it is allocated; the budget
counts cells (subsets), not bytes. Semantics are exactly those of naive
recursion, including the empty-domain conventions.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded
from .formula import (
    Adjacent, And, ConstraintRef, FalseLit, Iff, Implies, Member, Node, Not,
    Or, Quant, SetEq, TrueLit, VertexEq, free_vars, walk,
)
from .graph import Graph
from .typed_eval import _signature_prefixes

DEFAULT_CELL_BUDGET = 1 << 27

# span bitmask -> factor; see the module docstring
Factors = dict[int, np.ndarray]

_FALSE_TRUE = np.array([0x00, 0xFF], dtype=np.uint8)
# packed byte of "vertex v is in the subset" for v < 3: bit i is subset i
_LOW_MEMBER_BYTES = (0xAA, 0xCC, 0xF0)


def collect_set_vars(node: Node, acc: dict[str, bool]) -> None:
    """Set-variable names in first-occurrence order (value unused)."""
    for sub in walk(node):
        if isinstance(sub, Quant) and sub.sort == "set":
            acc.setdefault(sub.var, True)
        elif isinstance(sub, Member):
            acc.setdefault(sub.set, True)
        elif isinstance(sub, SetEq):
            acc.setdefault(sub.a, True)
            acc.setdefault(sub.b, True)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _spread(flags: np.ndarray) -> np.ndarray:
    """Bool array -> one 0x00 or 0xFF byte per entry."""
    return flags.view(np.uint8) * np.uint8(0xFF)


def _xnor(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.bitwise_xor(x, y, out=out)
    return np.invert(out, out=out)


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
        # bytes on the packed axis 0
        self.width = max(1, self.subsets >> 3)
        self.cell_budget = cell_budget
        self.fixed_sets = fixed_sets or {}

        names: dict[str, bool] = {v: True for v in free_sets}
        collect_set_vars(root, names)
        for name in self.fixed_sets:
            names.pop(name, None)
        order = list(names)
        self.axis = {v: i for i, v in enumerate(order)}
        self.naxes = len(order)

        # (vertex, packed) -> membership column in the layout of axis 0
        # (packed) or of any other set axis
        self._member_columns: dict[tuple[int, bool], np.ndarray] = {}
        self.adj = np.zeros((g.n, g.n), dtype=bool)
        for a, b in g.edges:
            self.adj[a, b] = self.adj[b, a] = True
        self._fixed_masks = {
            name: sum(1 << x for x in vs) for name, vs in self.fixed_sets.items()
        }
        # packed -> the set-equality identity over two set axes
        self._identities: dict[bool, np.ndarray] = {}
        # shared arrays are read-only, so no in-place update can reach them
        self._true = _frozen(np.full((1,) * self.naxes, 0xFF, dtype=np.uint8))
        self._false = _frozen(np.zeros((1,) * self.naxes, dtype=np.uint8))
        self._free_memo: dict = {}  # formula.free_vars's memo

    def _charge(self, cells: int) -> None:
        if cells > self.cell_budget:
            raise BudgetExceeded("mso-cells", self.cell_budget, cells)

    def _cells(self, span: int) -> int:
        return self.subsets ** span.bit_count()

    def _size(self, span: int) -> int:
        """Bytes of a factor over span (axis 0 packed)."""
        return (self.width if span & 1 else 1) * self.subsets ** (span >> 1).bit_count()

    def _membership(self, v: int, packed: bool) -> np.ndarray:
        """Which of the 2^n subsets contain vertex v, in the layout of axis 0
        (packed) or of any other set axis. Each column is charged and built
        on first use: sentences without free set variables read none, so
        large graphs evaluate them without any subset axis."""
        column = self._member_columns.get((v, packed))
        if column is None:
            self._charge(self.subsets)
            if not packed:
                column = np.tile(np.repeat(_FALSE_TRUE, 1 << v), self.subsets >> (v + 1))
            elif v < 3:
                column = np.full(self.width, _LOW_MEMBER_BYTES[v], dtype=np.uint8)
            else:
                # byte j holds 8 subsets that agree on v: bit v - 3 of j
                column = np.tile(np.repeat(_FALSE_TRUE, 1 << (v - 3)), self.width >> (v - 2))
            self._member_columns[(v, packed)] = column = _frozen(column)
        return column

    def _layout(self, bits: np.ndarray, packed: bool) -> np.ndarray:
        """A bool array with the subsets on its first axis, in the layout of
        axis 0 (packed, the pattern repeated below 8 subsets) or of any
        other set axis."""
        if not packed:
            return _spread(bits)
        repeats = max(1, 8 // self.subsets)
        bits = np.tile(bits, (repeats,) + (1,) * (bits.ndim - 1))
        return np.packbits(bits, axis=0, bitorder="little")

    def _place1(self, column: np.ndarray, var: str) -> np.ndarray:
        shape = [1] * self.naxes
        shape[self.axis[var]] = column.shape[0]
        return column.reshape(shape)

    def _free_sets(self, node: Node) -> frozenset[str]:
        """Set variables free in node, fixed sets excepted."""
        free = free_vars(node, self._free_memo)[0]
        return free.difference(self.fixed_sets) if self.fixed_sets else free

    # ----------------------------------------------------------------- factors

    def _scalar(self, value: bool) -> Factors:
        return {} if value else {0: self._false}

    def _combine(self, op, span: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """op(x, y) as a factor over span, charged first. Both operands are
        consumed: one the engine allocated itself (writeable, not a view)
        with the result's size takes the result in place."""
        self._charge(self._cells(span))
        size = self._size(span)
        for out in (x, y):
            if out.base is None and out.flags.writeable and out.size == size:
                return op(x, y, out=out)
        return op(x, y)

    def _add(self, factors: Factors, span: int, table: np.ndarray) -> Factors:
        """AND one factor into a conjunction, in place."""
        if 0 in factors:
            return factors
        if span == 0:
            if not table.reshape(-1)[0]:
                factors.clear()
                factors[0] = self._false
            return factors
        old = factors.get(span)
        factors[span] = (
            table if old is None else self._combine(np.bitwise_and, span, old, table)
        )
        return factors

    def _conj(self, a: Factors, b: Factors) -> Factors:
        for span, table in b.items():
            self._add(a, span, table)
        return a

    def _join(self, factors: Factors) -> tuple[int, np.ndarray]:
        """AND every factor into one array (widest first, so a buffer the
        engine owns can take the rest in place)."""
        if not factors:
            return 0, self._true
        items = sorted(factors.items(), key=lambda item: -item[0].bit_count())
        span, table = items[0]
        for other, factor in items[1:]:
            span |= other
            table = self._combine(np.bitwise_and, span, table, factor)
        return span, table

    def _disj(self, a: Factors, b: Factors) -> Factors:
        if not a or not b:
            return {}
        if 0 in a:
            return b
        if 0 in b:
            return a
        sa, ta = self._join(a)
        sb, tb = self._join(b)
        return self._add({}, sa | sb, self._combine(np.bitwise_or, sa | sb, ta, tb))

    def _connective(
        self, node, venv: dict[str, int], negate_left: bool, negate_right: bool,
        conjunction: bool,
    ) -> Factors:
        """(left & right) or (left | right) with each side's polarity given;
        an operand without free set variables goes first and may decide."""
        left, right = node.left, node.right
        if self._free_sets(left) and not self._free_sets(right):
            left, right = right, left
            negate_left, negate_right = negate_right, negate_left
        first = self.eval(left, venv, negate_left)
        if conjunction:
            if 0 in first:
                return first
            return self._conj(first, self.eval(right, venv, negate_right))
        if not first:
            return first
        return self._disj(first, self.eval(right, venv, negate_right))

    # -------------------------------------------------------------- evaluation

    def eval(self, node: Node, venv: dict[str, int], negate: bool = False) -> Factors:
        """Factors of node, or of its negation when negate is set."""
        if isinstance(node, TrueLit):
            return self._scalar(not negate)
        if isinstance(node, FalseLit):
            return self._scalar(negate)
        if isinstance(node, ConstraintRef):
            raise ValueError("table evaluation requires a constraint-free body")
        if isinstance(node, Member):
            v = venv[node.vertex]
            if node.set in self.fixed_sets:
                return self._scalar(bool((self._fixed_masks[node.set] >> v) & 1) != negate)
            ax = self.axis[node.set]
            column = self._place1(self._membership(v, ax == 0), node.set)
            if negate:
                self._charge(self.subsets)
                column = ~column
            return {1 << ax: column}
        if isinstance(node, Adjacent):
            return self._scalar(bool(self.adj[venv[node.a], venv[node.b]]) != negate)
        if isinstance(node, VertexEq):
            return self._scalar((venv[node.a] == venv[node.b]) != negate)
        if isinstance(node, SetEq):
            return self._set_eq(node, negate)
        if isinstance(node, Not):
            return self.eval(node.child, venv, not negate)
        if isinstance(node, And):
            return self._connective(node, venv, negate, negate, not negate)
        if isinstance(node, Or):
            return self._connective(node, venv, negate, negate, negate)
        if isinstance(node, Implies):
            return self._connective(node, venv, not negate, negate, negate)
        if isinstance(node, Iff):
            return self._iff(node, venv, negate)
        if isinstance(node, Quant):
            universal = (node.quantifier == "forall") != negate
            if node.sort == "set":
                child = self.eval(node.child, venv, negate)
                if universal:
                    return self._fold_all(child, self.axis[node.var])
                return self._fold_any(child, self.axis[node.var])
            if self.n == 0:
                return self._scalar(universal)
            acc: Factors | None = None
            for v in range(self.n):
                venv[node.var] = v
                value = self.eval(node.child, venv, negate)
                if acc is None:
                    acc = value
                elif universal:
                    acc = self._conj(acc, value)
                else:
                    acc = self._disj(acc, value)
                if (0 in acc) if universal else not acc:
                    break
            del venv[node.var]
            return acc
        raise TypeError(f"unknown node {node!r}")

    def _iff(self, node: Iff, venv: dict[str, int], negate: bool) -> Factors:
        left, right = node.left, node.right
        if self._free_sets(left) and not self._free_sets(right):
            left, right = right, left
        first = self.eval(left, venv)
        if not self._free_sets(left):
            # a true scalar passes the other side through, a false one negates it
            return self.eval(right, venv, negate == (not first))
        sa, ta = self._join(first)
        sb, tb = self._join(self.eval(right, venv))
        op = np.bitwise_xor if negate else _xnor
        return self._add({}, sa | sb, self._combine(op, sa | sb, ta, tb))

    def _fold(self, table: np.ndarray, ax: int, universal: bool) -> np.ndarray:
        """forall (universal) or exists over axis ax of one array. On the
        packed axis the reduced byte's bits are the subsets left to fold."""
        op = np.bitwise_and if universal else np.bitwise_or
        table = op.reduce(table, axis=ax, keepdims=True)
        if ax == 0:
            table = _spread(table == 0xFF if universal else table != 0)
        return table

    def _fold_all(self, child: Factors, ax: int) -> Factors:
        """forall over axis ax, one factor at a time. Factors without the axis
        pass unchanged, since the subset domain is never empty."""
        bit = 1 << ax
        out: Factors = {}
        for span, table in child.items():
            if span & bit:
                self._charge(self._cells(span & ~bit))
                span, table = span & ~bit, self._fold(table, ax, True)
            self._add(out, span, table)
        return out

    def _fold_any(self, child: Factors, ax: int) -> Factors:
        """exists over axis ax: only the factors spanning it are joined."""
        bit = 1 << ax
        inside = {span: t for span, t in child.items() if span & bit}
        if not inside:
            return child
        out = {span: t for span, t in child.items() if not span & bit}
        span, table = self._join(inside)
        self._charge(self._cells(span & ~bit))
        return self._add(out, span & ~bit, self._fold(table, ax, False))

    def _set_eq(self, node: SetEq, negate: bool) -> Factors:
        a_fixed = node.a in self.fixed_sets
        b_fixed = node.b in self.fixed_sets
        if node.a == node.b:
            return self._scalar(not negate)
        if a_fixed and b_fixed:
            same = self._fixed_masks[node.a] == self._fixed_masks[node.b]
            return self._scalar(same != negate)
        if a_fixed or b_fixed:
            fixed, free = (node.a, node.b) if a_fixed else (node.b, node.a)
            self._charge(self.subsets)
            bits = np.full(self.subsets, negate, dtype=bool)
            bits[self._fixed_masks[fixed]] = not negate
            column = self._layout(bits, self.axis[free] == 0)
            return {1 << self.axis[free]: self._place1(column, free)}
        self._charge(self.subsets * self.subsets)
        low, high = sorted((self.axis[node.a], self.axis[node.b]))
        identity = self._identities.get(low == 0)
        if identity is None:
            identity = self._layout(np.eye(self.subsets, dtype=bool), low == 0)
            self._identities[low == 0] = identity = _frozen(identity)
        shape = [1] * self.naxes
        shape[low], shape[high] = identity.shape
        table = identity.reshape(shape)
        return {(1 << low) | (1 << high): ~table if negate else table}


def evaluate_sentence(
    g: Graph,
    node: Node,
    fixed_sets: dict[str, frozenset[int]] | None = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> bool:
    """Truth of a closed formula (all variables quantified or fixed)."""
    engine = TableEngine(g, node, (), fixed_sets, cell_budget)
    factors = engine.eval(node, {})
    if any(table.size != 1 for table in factors.values()):
        raise ValueError("sentence has free variables")
    return bool(engine._join(factors)[1].reshape(-1)[0])


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
    binary counter. The body's factors are joined into this one table last,
    which is unpacked into bools once.
    """
    engine = TableEngine(g, body, tuple(prefix), fixed_sets, cell_budget)
    m = len(prefix)
    factors = engine.eval(body, {})
    engine._charge(engine.subsets ** m)
    span, table = engine._join(factors)
    if span >> m:
        raise ValueError("body has free set variables beyond the prefix")
    if m == 0:
        return np.array(table.reshape(-1)[0] != 0)
    rest = (engine.subsets,) * (m - 1)
    table = np.broadcast_to(table, (engine.width,) + rest + (1,) * (engine.naxes - m))
    table = table.reshape((engine.width, 1) + rest)
    # bits[j, i] is bit i of byte j, subset 8j + i (np.unpackbits along
    # axis 0 is far slower than eight shifts)
    bits = np.empty((engine.width, 8) + rest, dtype=np.uint8)
    for i in range(8):
        np.right_shift(table, i, out=bits[:, i : i + 1])
    np.bitwise_and(bits, 1, out=bits)
    return bits.reshape((8 * engine.width,) + rest)[: engine.subsets].view(bool)


def allowed_cells(
    g: Graph, rest: Node, prefix: tuple[str, ...], allowed: frozenset[int], step: int = 1 << 16,
):
    """Ascending slices (at most step cells each) of the satisfying cells, in
    prefix_table's order, of a body that holds iff every vertex's signature
    (bit i = membership in prefix[i]) is allowed and rest holds. Depth first
    over the axes, a cell spreads over the subsets of the next one that keep
    every vertex's signature a prefix of an allowed one, so only the
    |allowed|^n candidates are listed. A candidate holds when each of rest's
    unjoined factors has its byte (bit on axis 0) there set."""
    n, m = g.n, len(prefix)
    engine = TableEngine(g, rest, tuple(prefix))
    factors = engine.eval(rest, {})
    prefixes = _signature_prefixes(allowed, m)
    weights = np.int64(1) << np.arange(n, dtype=np.int64)

    def descend(i: int, cells: np.ndarray):
        if i == m:
            subsets = [(cells >> ((m - 1 - a) * n)) & (engine.subsets - 1) for a in range(m)]
            coords = [subsets[0] >> 3] + subsets[1:]
            keep = np.ones(len(cells), dtype=bool)
            for span, table in factors.items():
                got = table[tuple(coords[a] if (span >> a) & 1 else 0 for a in range(engine.naxes))]
                keep &= ((got >> (subsets[0] & 7 if span & 1 else 0)) & 1) == 1
            yield cells[keep]
            return
        ends = np.isin(np.arange(2 << i), list(prefixes[i]))
        sig = np.zeros((len(cells), n), dtype=np.int64)
        for j in range(i):
            sig |= ((cells[:, None] >> ((i - 1 - j) * n + np.arange(n))) & 1) << j
        zero, one = ends[sig], ends[sig | (1 << i)]
        free, force = (zero & one) @ weights, (one & ~zero) @ weights  # bit i: either, or 1
        counts = np.where((zero | one).all(axis=1), 1 << np.count_nonzero(zero & one, axis=1), 0)
        starts, total = np.cumsum(counts) - counts, int(counts.sum())
        for lo in range(0, total, step):
            # child k of a cell puts k's bits on its free vertices in order,
            # so the children ascend
            t = np.arange(lo, min(lo + step, total))
            parent = np.searchsorted(starts, t, side="right") - 1
            k, free_of = t - starts[parent], free[parent]
            child = (cells[parent] << n) | force[parent]
            for v in range(n):
                bit = (free_of >> v) & 1
                child |= (k & bit) << v
                k >>= bit
            yield from descend(i + 1, child)

    yield from descend(0, np.zeros(1, dtype=np.int64))


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

    def dims(sets: frozenset[str]) -> int:
        cells = 1
        for _ in sets - fixed:
            cells = min(cells * set_dim, cap)
        return cells

    memo: dict = {}
    worst = max(dims(free_vars(sub, memo)[0]) for sub in walk(node))
    return max(worst, dims(free_vars(node, memo)[0] | frozenset(prefix)))
