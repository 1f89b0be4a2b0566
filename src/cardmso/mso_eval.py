"""Reduced-graph construction and MSO model checking.

mso_check dispatches between three engines with identical semantics:

  naive  plain recursion, set quantifiers over all 2^n subsets; the
         correctness baseline, with an optional flag that restricts vertex
         quantifiers to one representative per same-type class
  table  vectorised truth tables (table_eval), same enumeration semantics
  typed  count-state recursion (typed_eval) for graphs too large for raw
         subset enumeration

auto picks table when the largest intermediate table fits the cell budget
and typed otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import table_eval
from .errors import BudgetExceeded
from .formula import (
    Adjacent, And, ConstraintRef, FalseLit, Formula, FormulaStats, Iff,
    Implies, Member, Node, Not, Or, Quant, SetEq, TrueLit, VertexEq,
)
from .graph import Graph, TypePartition, nd_partition
from .typed_eval import TypedEvaluator

DEFAULT_NODE_BUDGET = 50_000_000


@dataclass(frozen=True)
class PrefixAssignment:
    """Values for the prefix variables: one vertex set per variable."""

    sets: tuple[frozenset[int], ...]
    carrier: str = "full"  # "reduced" | "full"

    def sizes(self, prefix: tuple[str, ...]) -> dict[str, int]:
        return {name: len(s) for name, s in zip(prefix, self.sets)}


@dataclass(frozen=True)
class ReducedGraph:
    """Result of shrinking each type to the reduce threshold.

    Types keep their original order (one reduced type per original type);
    origin maps a reduced type to (original type index, original size), kept
    holds the surviving original vertex ids per type, and full_types the
    complete original member lists.
    """

    graph: Graph
    types: TypePartition
    origin: tuple[tuple[int, int], ...]
    kept: tuple[tuple[int, ...], ...]
    full_types: tuple[tuple[int, ...], ...]
    full_to_reduced: dict[int, int]

    @property
    def reduced_to_full(self) -> dict[int, int]:
        return {r: f for f, r in self.full_to_reduced.items()}


def reduce_graph(g: Graph, tp: TypePartition, stats: FormulaStats) -> ReducedGraph:
    """Keep the lexicographically-first min(|T|, threshold) vertices of every
    type and take the induced subgraph."""
    threshold = stats.reduce_threshold
    kept = tuple(members[:threshold] for members in tp.types)
    survivors = sorted(v for members in kept for v in members)
    reduced, remap = g.induced(survivors)
    new_types = tuple(tuple(remap[v] for v in members) for members in kept)
    return ReducedGraph(
        graph=reduced,
        types=TypePartition(new_types, tp.cover_types, tp.mode),
        origin=tuple((i, len(members)) for i, members in enumerate(tp.types)),
        kept=kept,
        full_types=tp.types,
        full_to_reduced=remap,
    )


# --------------------------------------------------------------------- naive

class _NaiveEvaluator:
    """Reference semantics. Sets are bitmasks; env maps names to masks or
    vertex indices."""

    def __init__(self, g: Graph, node_budget: int, symmetry: bool = False):
        self.g = g
        self.n = g.n
        self.adj_bits = [0] * g.n
        for u, v in g.edges:
            self.adj_bits[u] |= 1 << v
            self.adj_bits[v] |= 1 << u
        self.node_budget = node_budget
        self.nodes = 0
        self.symmetry = symmetry
        if symmetry:
            self.type_of = nd_partition(g).type_of(g.n)

    def tick(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceeded("mso-nodes", self.node_budget)

    def _vertex_candidates(self, env: dict) -> list[int]:
        if not self.symmetry:
            return list(range(self.n))
        # bound vertices stay individual; unbound ones collapse to one
        # representative per (type, bound-set memberships) class
        bound_vertices = {v for k, v in env.items() if not k.startswith("\x00")}
        set_masks = [v for k, v in env.items() if k.startswith("\x00")]
        out = []
        seen_class: set[tuple] = set()
        for v in range(self.n):
            if v in bound_vertices:
                out.append(v)
                continue
            key = (self.type_of[v],) + tuple((mask >> v) & 1 for mask in set_masks)
            if key in seen_class:
                continue
            seen_class.add(key)
            out.append(v)
        return out

    def eval(self, node: Node, env: dict) -> bool:
        self.tick()
        if isinstance(node, TrueLit):
            return True
        if isinstance(node, FalseLit):
            return False
        if isinstance(node, ConstraintRef):
            raise ValueError("naive evaluation requires a constraint-free body")
        if isinstance(node, Member):
            return bool((env["\x00" + node.set] >> env[node.vertex]) & 1)
        if isinstance(node, Adjacent):
            return bool((self.adj_bits[env[node.a]] >> env[node.b]) & 1)
        if isinstance(node, VertexEq):
            return env[node.a] == env[node.b]
        if isinstance(node, SetEq):
            return env["\x00" + node.a] == env["\x00" + node.b]
        if isinstance(node, Not):
            return not self.eval(node.child, env)
        if isinstance(node, And):
            return self.eval(node.left, env) and self.eval(node.right, env)
        if isinstance(node, Or):
            return self.eval(node.left, env) or self.eval(node.right, env)
        if isinstance(node, Implies):
            return (not self.eval(node.left, env)) or self.eval(node.right, env)
        if isinstance(node, Iff):
            return self.eval(node.left, env) == self.eval(node.right, env)
        if isinstance(node, Quant):
            want = node.quantifier == "exists"
            if node.sort == "set":
                key = "\x00" + node.var
                for mask in range(1 << self.n):
                    env[key] = mask
                    if self.eval(node.child, env) == want:
                        del env[key]
                        return want
                env.pop(key, None)
                return not want
            for v in self._vertex_candidates(env):
                env[node.var] = v
                if self.eval(node.child, env) == want:
                    del env[node.var]
                    return want
            env.pop(node.var, None)
            return not want
        raise TypeError(f"unknown node {node!r}")


def _as_sentence(f: Formula | Node) -> Node:
    if isinstance(f, Formula):
        if f.constraints:
            raise ValueError("mso_check needs a constraint-free sentence; pre-evaluate first")
        node = f.body
        for var in reversed(f.prefix):
            node = Quant("exists", var, "set", node)
        return node
    return f


def mso_check(
    g: Graph,
    f: Formula | Node,
    method: str = "auto",
    fixed_sets: dict[str, frozenset[int]] | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    symmetry: bool = False,
) -> bool:
    """Exact truth of g |= f for a constraint-free sentence.

    fixed_sets binds named set constants (used to re-check witnesses).
    """
    node = _as_sentence(f)
    if method == "auto":
        worst = table_eval.estimate_worst_cells(g, node, ())
        method = "table" if worst <= table_eval.DEFAULT_CELL_BUDGET else "typed"
    if method == "naive":
        env: dict = {}
        for name, vertices in (fixed_sets or {}).items():
            mask = 0
            for v in vertices:
                mask |= 1 << v
            env["\x00" + name] = mask
        return _NaiveEvaluator(g, node_budget, symmetry).eval(node, env)
    if method == "table":
        return table_eval.evaluate_sentence(g, node, fixed_sets)
    if method == "typed":
        return TypedEvaluator(g, None, fixed_sets, node_budget).check(node)
    raise ValueError(f"unknown method {method!r}")


def stream_engines(n: int, m: int, cell_budget: int = table_eval.DEFAULT_CELL_BUDGET) -> int:
    """Truth-table engines satisfying_prefix_assignments builds for m prefix
    variables on n vertices: it fixes leading variables one subset at a time
    until the rest fit one table, and builds one engine per fixed choice."""
    engines = 1
    while m and (1 << n) ** m > cell_budget:
        engines <<= n
        m -= 1
    return engines


def satisfying_prefix_assignments(
    g: Graph,
    body: Node,
    prefix: tuple[str, ...],
    cell_budget: int = table_eval.DEFAULT_CELL_BUDGET,
) -> Iterator[PrefixAssignment]:
    """Every assignment of the prefix variables making the body true, streamed
    in binary-counter order (vertex 0 is the least significant bit and the
    last prefix variable is the fastest counter)."""
    m = len(prefix)
    if m == 0:
        raise ValueError("no prefix variables to assign")
    from .typed_eval import _free_vars

    free_sets, free_vertices = _free_vars(body, {})
    stray = (free_sets - set(prefix)) | free_vertices
    if stray:
        raise ValueError(f"body has free variables beyond the prefix: {sorted(stray)}")
    subsets = 1 << g.n
    body_cells = table_eval.estimate_worst_cells(g, body, (), fixed=frozenset(prefix))
    if body_cells > cell_budget:
        raise BudgetExceeded("mso-cells", cell_budget)

    def to_set(mask: int) -> frozenset[int]:
        return frozenset(v for v in range(g.n) if (mask >> v) & 1)

    def stream(open_vars: tuple[str, ...], fixed: dict[str, frozenset[int]], fixed_masks: list[int]):
        # fix leading variables one at a time until the rest fits in one table
        if subsets ** len(open_vars) > cell_budget and open_vars:
            var = open_vars[0]
            for mask in range(subsets):
                fixed[var] = to_set(mask)
                yield from stream(open_vars[1:], fixed, fixed_masks + [mask])
                del fixed[var]
            return
        table = table_eval.prefix_table(g, body, open_vars, cell_budget, fixed or None)
        for idx in np.flatnonzero(table.reshape(-1)):
            masks = []
            rest = int(idx)
            for _ in range(len(open_vars)):
                masks.append(rest % subsets)
                rest //= subsets
            masks.reverse()
            yield PrefixAssignment(
                tuple(to_set(mask) for mask in fixed_masks + masks),
                carrier="reduced",
            )

    yield from stream(tuple(prefix), {}, [])
