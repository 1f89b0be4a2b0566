"""MSO partitioning: split V(G) into r parts whose induced subgraphs all
model a fixed MSO sentence.

A part is summarised by its shape: per type, the exact intersection size
capped at the small threshold, or a top marker for anything larger (sets of
the same shape are interchangeable as models). One representative per shape
is model checked; a counting program then decides whether satisfying shapes
can tile the whole vertex set with exactly r parts.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Optional

from . import ilp
from .errors import BudgetExceeded
from .formula import Formula, FormulaStats, Node, analyze
from .graph import DEFAULT_K_MAX, Graph, TypePartition, min_vertex_cover, nd_partition, type_partition
from .mso_eval import mso_check
from .solver import SolveStats

TOP = None  # marker for "more than the small threshold"

DEFAULT_SHAPE_BUDGET = 2_000_000


@dataclass(frozen=True)
class Shape:
    """Per type: an exact count in [0, min(|T|, threshold)] or TOP."""

    per_type: tuple[Optional[int], ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.per_type)


@dataclass(frozen=True)
class PartitionInstance:
    formula: Formula  # no prefix, no constraints
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.formula.prefix or self.formula.constraints:
            raise ValueError("partition formula must be a plain MSO sentence")


@dataclass(frozen=True)
class PartitionVerdict:
    holds: bool
    parts: Optional[tuple[frozenset[int], ...]]
    stats: SolveStats


def enumerate_shapes(
    tp: TypePartition,
    stats: FormulaStats,
    shape_budget: int = DEFAULT_SHAPE_BUDGET,
) -> list[Shape]:
    """All shapes in mixed-radix counter order (last type fastest; exact
    counts ascending, top last)."""
    small = stats.small_threshold
    options: list[list[Optional[int]]] = []
    total = 1
    for members in tp.types:
        opts: list[Optional[int]] = list(range(0, min(len(members), small) + 1))
        if len(members) > small:
            opts.append(TOP)
        options.append(opts)
        total *= len(opts)
        if total > shape_budget:
            raise BudgetExceeded("shapes", shape_budget)

    shapes: list[Shape] = []

    def rec(i: int, acc: list[Optional[int]]):
        if i == len(options):
            shapes.append(Shape(tuple(acc)))
            return
        for opt in options[i]:
            acc.append(opt)
            rec(i + 1, acc)
            acc.pop()

    rec(0, [])
    return shapes


def shape_representative(g: Graph, tp: TypePartition, s: Shape, stats: FormulaStats) -> list[int]:
    """Concrete vertex set of the given shape: the lexicographically first
    vertices of each type; a top entry takes threshold + 1 of them."""
    small = stats.small_threshold
    picked: list[int] = []
    for members, want in zip(tp.types, s.per_type):
        take = small + 1 if want is TOP else want
        if take > len(members):
            raise AssertionError("shape demands more vertices than the type has")
        picked.extend(members[:take])
    return picked


# per graph: (types, shape, sentence, stats) -> truth; an entry dies with
# its graph, and queries on one live graph (say r = 2, then r = 3) share it
_SHAPE_CACHE: "weakref.WeakKeyDictionary[Graph, dict]" = weakref.WeakKeyDictionary()


def shape_satisfies(
    g: Graph,
    tp: TypePartition,
    s: Shape,
    phi: Formula | Node,
    stats: FormulaStats,
) -> bool:
    """Does a set of this shape induce a model of phi? One representative
    decides for all sets of the shape (cached per graph: callers sweep r
    without re-checking shapes)."""
    cache = _SHAPE_CACHE.setdefault(g, {})
    key = (tp, s, phi, stats)
    holds = cache.get(key)
    if holds is None:
        vertices = shape_representative(g, tp, s, stats)
        sub, _ = g.induced(vertices)
        holds = cache[key] = bool(mso_check(sub, phi))
    return holds


def mso_partition(
    g: Graph,
    inst: PartitionInstance,
    mode: str = "vertex-cover",
    k_max: int = DEFAULT_K_MAX,
    allow_empty: bool = True,
    node_budget: int = ilp.DEFAULT_NODE_BUDGET,
    shape_budget: int = DEFAULT_SHAPE_BUDGET,
    dump=None,
) -> PartitionVerdict:
    """Decide the partitioning instance and reconstruct a witness partition."""
    start = time.perf_counter()
    stats = SolveStats()
    if mode in ("vertex-cover", "vc"):
        cover = min_vertex_cover(g, k_max)
        tp = type_partition(g, cover)
        stats.cover_size = cover.size
    elif mode in ("neighborhood-diversity", "nd"):
        tp = nd_partition(g)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    stats.type_count = tp.count
    fstats = analyze(inst.formula)

    shapes = enumerate_shapes(tp, fstats, shape_budget)
    satisfying = []
    for s in shapes:
        if not allow_empty and s.is_zero():
            continue
        if shape_satisfies(g, tp, s, inst.formula, fstats):
            satisfying.append(s)

    small = fstats.small_threshold
    variables = [(f"x_{i}", 0, inst.r) for i in range(len(satisfying))]
    rows = [ilp.Row.of({f"x_{i}": 1 for i in range(len(satisfying))}, ilp.EQ, inst.r)]
    for t, members in enumerate(tp.types):
        size = len(members)
        fit = {}
        demand = {}
        for i, s in enumerate(satisfying):
            want = s.per_type[t]
            fit_coef = small if want is TOP else want
            demand_coef = size if want is TOP else want
            if fit_coef:
                fit[f"x_{i}"] = fit_coef
            if demand_coef:
                demand[f"x_{i}"] = demand_coef
        rows.append(ilp.Row.of(fit, ilp.LE, size))
        rows.append(ilp.Row.of(demand, ilp.GE, size))
    instance = ilp.ILPInstance.build(variables, rows)
    if dump is not None:
        dump(instance)
    stats.ilp_solves += 1
    result = ilp.solve_feasibility(instance, node_budget)
    stats.ilp_nodes += result.nodes
    stats.elapsed = time.perf_counter() - start
    if result.status != "feasible":
        return PartitionVerdict(False, None, stats)

    parts = _reconstruct(g, tp, satisfying, result.assignment, small)
    _validate_parts(g, inst, parts, allow_empty)
    stats.elapsed = time.perf_counter() - start
    return PartitionVerdict(True, parts, stats)


def _reconstruct(
    g: Graph,
    tp: TypePartition,
    satisfying: list[Shape],
    assignment: dict[str, int],
    small: int,
) -> tuple[frozenset[int], ...]:
    """Build the parts: per type, each chosen shape copy takes its exact
    count (top takes the threshold); leftovers go to the lowest-indexed part
    whose shape is top at that type."""
    chosen: list[Shape] = []
    for i, s in enumerate(satisfying):
        chosen.extend([s] * assignment[f"x_{i}"])
    parts: list[set[int]] = [set() for _ in chosen]
    for t, members in enumerate(tp.types):
        queue = list(members)
        for p, s in enumerate(chosen):
            want = s.per_type[t]
            take = small if want is TOP else want
            for v in queue[:take]:
                parts[p].add(v)
            queue = queue[take:]
        if queue:
            sink = next(p for p, s in enumerate(chosen) if s.per_type[t] is TOP)
            parts[sink].update(queue)
    return tuple(frozenset(p) for p in parts)


def _validate_parts(g: Graph, inst: PartitionInstance, parts, allow_empty: bool) -> None:
    union: set[int] = set()
    for p in parts:
        if union & p:
            raise AssertionError("parts overlap")
        union |= p
        if not p and not allow_empty:
            raise AssertionError("empty part with empty parts disallowed")
    if union != set(range(g.n)):
        raise AssertionError("parts do not cover the vertex set")
    if len(parts) != inst.r:
        raise AssertionError("wrong number of parts")
    for p in parts:
        sub, _ = g.induced(p)
        if not mso_check(sub, inst.formula):
            raise AssertionError("reconstructed part does not model the formula")
