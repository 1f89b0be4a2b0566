"""Independent brute-force reference semantics.

Everything here evaluates formulas directly on the input graph: no types, no
covers, no reduction, no integer programming. Cardinality constraints are
evaluated numerically from the current prefix sets. Two interchangeable
implementations guard each other: a plain recursive loop and a vectorised
pass over the whole assignment space; tests pin them together. The loop
evaluator (_LoopEval) is also the reference the tests compare mso_check's
table and typed engines against. brute_check runs the vector pass, the
faster of the two on the oracle's graph sizes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded
from .formula import (
    Adjacent, And, ConstraintRef, FalseLit, Formula, Iff, Implies, Member,
    Node, Not, Or, Quant, SetEq, TrueLit, VertexEq, sentence, set_vars,
)
from .graph import Graph

DEFAULT_CAP = 8


def _require_small(g: Graph) -> None:
    if g.n > DEFAULT_CAP:
        raise BudgetExceeded("oracle-vertices", DEFAULT_CAP, g.n)


def _require_closed(f: Formula) -> None:
    if f.free_params:
        raise ValueError(f"formula has unbound parameters {sorted(f.free_params)}")


# ----------------------------------------------------------------- loop path

def _popcount(mask: int) -> int:
    return bin(mask).count("1")


class _LoopEval:
    def __init__(self, g: Graph, constraints):
        self.n = g.n
        self.constraints = constraints
        self.adj_bits = [0] * g.n
        for u, v in g.edges:
            self.adj_bits[u] |= 1 << v
            self.adj_bits[v] |= 1 << u

    def eval(self, node: Node, sets: dict[str, int], vertices: dict[str, int]) -> bool:
        if isinstance(node, TrueLit):
            return True
        if isinstance(node, FalseLit):
            return False
        if isinstance(node, ConstraintRef):
            c = self.constraints[node.index]
            sizes = {name: _popcount(sets[name]) for name in c.set_names}
            return c.holds(sizes)
        if isinstance(node, Member):
            return bool((sets[node.set] >> vertices[node.vertex]) & 1)
        if isinstance(node, Adjacent):
            return bool((self.adj_bits[vertices[node.a]] >> vertices[node.b]) & 1)
        if isinstance(node, VertexEq):
            return vertices[node.a] == vertices[node.b]
        if isinstance(node, SetEq):
            return sets[node.a] == sets[node.b]
        if isinstance(node, Not):
            return not self.eval(node.child, sets, vertices)
        if isinstance(node, And):
            return self.eval(node.left, sets, vertices) and self.eval(node.right, sets, vertices)
        if isinstance(node, Or):
            return self.eval(node.left, sets, vertices) or self.eval(node.right, sets, vertices)
        if isinstance(node, Implies):
            return (not self.eval(node.left, sets, vertices)) or self.eval(node.right, sets, vertices)
        if isinstance(node, Iff):
            return self.eval(node.left, sets, vertices) == self.eval(node.right, sets, vertices)
        if isinstance(node, Quant):
            want = node.quantifier == "exists"
            if node.sort == "set":
                for mask in range(1 << self.n):
                    sets[node.var] = mask
                    if self.eval(node.child, sets, vertices) == want:
                        del sets[node.var]
                        return want
                sets.pop(node.var, None)
                return not want
            for v in range(self.n):
                vertices[node.var] = v
                if self.eval(node.child, sets, vertices) == want:
                    del vertices[node.var]
                    return want
            vertices.pop(node.var, None)
            return not want
        raise TypeError(f"unknown node {node!r}")


def _loop_check(g: Graph, f: Formula) -> bool:
    return _LoopEval(g, f.constraints).eval(sentence(f), {}, {})


# --------------------------------------------------------------- vector path

class _VectorEval:
    """Truth arrays with one axis per set variable (size 2^n); vertex
    variables are looped with the value fixed, so intermediates stay bounded
    by the live set-variable product."""

    def __init__(self, g: Graph, f: Formula):
        self.g = g
        self.n = g.n
        self.subsets = 1 << g.n
        self.constraints = f.constraints
        names = set_vars(f.body, f.prefix)
        self.axis = {v: i for i, v in enumerate(names)}
        self.naxes = len(names)
        self.pc = np.array([bin(s).count("1") for s in range(self.subsets)], dtype=np.int64)
        s = np.arange(self.subsets, dtype=np.int64)[:, None]
        v = np.arange(max(g.n, 1), dtype=np.int64)[None, :]
        self.member2d = ((s >> v) & 1).astype(bool)[:, : g.n]
        self.adj2d = np.zeros((g.n, g.n), dtype=bool)
        for a, b in g.edges:
            self.adj2d[a, b] = self.adj2d[b, a] = True

    def _const(self, value: bool) -> np.ndarray:
        return np.full((1,) * self.naxes, value, dtype=bool)

    def _place1(self, column: np.ndarray, var: str) -> np.ndarray:
        shape = [1] * self.naxes
        shape[self.axis[var]] = column.shape[0]
        return column.reshape(shape)

    def _rho_value(self, rho) -> np.ndarray:
        total = np.full([1] * self.naxes, rho.const, dtype=np.int64)
        for name in rho.sets:
            total = total + self._place1(self.pc, name)
        return total

    def eval(self, node: Node, venv: dict[str, int]) -> np.ndarray:
        if isinstance(node, TrueLit):
            return self._const(True)
        if isinstance(node, FalseLit):
            return self._const(False)
        if isinstance(node, ConstraintRef):
            c = self.constraints[node.index]
            return self._rho_value(c.lhs) <= self._rho_value(c.rhs)
        if isinstance(node, Member):
            return self._place1(self.member2d[:, venv[node.vertex]], node.set)
        if isinstance(node, Adjacent):
            return self._const(bool(self.adj2d[venv[node.a], venv[node.b]]))
        if isinstance(node, VertexEq):
            return self._const(venv[node.a] == venv[node.b])
        if isinstance(node, SetEq):
            if node.a == node.b:
                return self._const(True)
            eye = np.eye(self.subsets, dtype=bool)
            ax_a, ax_b = self.axis[node.a], self.axis[node.b]
            shape = [1] * self.naxes
            shape[min(ax_a, ax_b)] = self.subsets
            shape[max(ax_a, ax_b)] = self.subsets
            return eye.reshape(shape)
        if isinstance(node, Not):
            return ~self.eval(node.child, venv)
        if isinstance(node, And):
            return self.eval(node.left, venv) & self.eval(node.right, venv)
        if isinstance(node, Or):
            return self.eval(node.left, venv) | self.eval(node.right, venv)
        if isinstance(node, Implies):
            return ~self.eval(node.left, venv) | self.eval(node.right, venv)
        if isinstance(node, Iff):
            return self.eval(node.left, venv) == self.eval(node.right, venv)
        if isinstance(node, Quant):
            if node.sort == "set":
                child = self.eval(node.child, venv)
                ax = self.axis[node.var]
                if node.quantifier == "forall":
                    return child.all(axis=ax, keepdims=True)
                return child.any(axis=ax, keepdims=True)
            if self.n == 0:
                return self._const(node.quantifier == "forall")
            acc = None
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


def _vector_check(g: Graph, f: Formula) -> bool:
    out = _VectorEval(g, f).eval(sentence(f), {})
    if out.size != 1:
        raise AssertionError("sentence left free axes")
    return bool(out.reshape(-1)[0])


# ----------------------------------------------------------------- interface

def brute_check(g: Graph, f: Formula) -> bool:
    """Direct semantics of the full sentence on g itself."""
    _require_small(g)
    _require_closed(f)
    return _vector_check(g, f)


def _partitions(universe: list[int], max_parts: int):
    """Unordered set partitions with at most max_parts (nonempty) blocks,
    blocks ordered by their smallest element."""

    def rec(i: int, parts: list[list[int]]):
        if i == len(universe):
            yield [tuple(p) for p in parts]
            return
        v = universe[i]
        for p in parts:
            p.append(v)
            yield from rec(i + 1, parts)
            p.pop()
        if len(parts) < max_parts:
            parts.append([v])
            yield from rec(i + 1, parts)
            parts.pop()

    if not universe:
        yield []
        return
    yield from rec(0, [])


def brute_partition(g: Graph, phi: Formula, r: int, allow_empty: bool = True) -> bool:
    """Can V(G) be split into r parts whose induced subgraphs all model phi?"""
    _require_small(g)
    _require_closed(phi)
    if r < 1:
        raise ValueError("r must be >= 1")

    @lru_cache(maxsize=None)
    def part_ok(vertices: frozenset[int]) -> bool:
        sub, _ = g.induced(vertices)
        return brute_check(sub, phi)

    empty_ok = allow_empty and part_ok(frozenset())
    for parts in _partitions(list(range(g.n)), r):
        if len(parts) < r and not empty_ok:
            continue
        if g.n == 0 and not empty_ok:
            continue
        if all(part_ok(frozenset(p)) for p in parts):
            return True
    return False


def equitable_sizes(n: int, c: int) -> list[int]:
    base, extra = divmod(n, c)
    return [base + 1] * extra + [base] * (c - extra)


def brute_cbalanced(
    g: Graph,
    c: int,
    allow_empty: bool = True,
) -> int | None:
    """Minimum cross-part edge count over all partitions into c parts with
    sizes pairwise differing by at most one; None when no such partition is
    admissible (only with empty parts forbidden and c > n)."""
    _require_small(g)
    if c < 1:
        raise ValueError("c must be >= 1")
    sizes = equitable_sizes(g.n, c)
    if not allow_empty and sizes[-1] == 0:
        return None

    best: int | None = None
    owner = [0] * g.n
    capacity = sizes[:]

    def rec(v: int):
        nonlocal best
        if v == g.n:
            cut = sum(1 for a, b in g.edges if owner[a] != owner[b])
            if best is None or cut < best:
                best = cut
            return
        for p in range(c):
            if capacity[p] == 0:
                continue
            capacity[p] -= 1
            owner[v] = p
            rec(v + 1)
            capacity[p] += 1

    rec(0)
    return best
