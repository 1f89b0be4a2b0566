"""MSO partitioning: split V(G) into r parts whose induced subgraphs all
model a fixed MSO sentence.

A part is summarised by its shape, a count row in the integer-matrix form of
check's count rows: one column per type, holding the part's intersection
size with the type capped at the small threshold 2^q_S * q_v.
Same-type vertices are twins, and inside a twin class every size from the
threshold up models the same sentences (Lampis), so the capped value reads
"threshold or more" and sets of one shape are interchangeable as models.
Each shape is decided once per graph (_ShapeCheck); a counting program then
decides whether satisfying shapes can tile the whole vertex set with
exactly r parts (Rao).
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ilp
from .errors import BudgetExceeded
from .formula import Formula, FormulaStats, Node, Quant, analyze, walk
from .graph import DEFAULT_K_MAX, Graph, TypePartition
from .graph import min_vertex_cover, nd_partition, type_partition  # noqa: F401 - traced by the benchmark
from .mso_eval import _as_sentence, mso_check
from .solver import SolveStats, _types
from .typed_eval import TypedEvaluator

DEFAULT_SHAPE_BUDGET = 2_000_000


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


def enumerate_shapes(tp: TypePartition, stats: FormulaStats) -> np.ndarray:
    """All shapes as an int64 matrix, one row per shape and one column per
    type, whose entry in column T lies in [0, min(|T|, threshold)] (the
    threshold meaning "threshold or more"). Rows are in mixed-radix counter
    order (last type fastest, counts ascending), at most
    DEFAULT_SHAPE_BUDGET of them."""
    sides = [min(len(members), stats.small_threshold) + 1 for members in tp.types]
    total = math.prod(sides)
    if total > DEFAULT_SHAPE_BUDGET:
        raise BudgetExceeded("shapes", DEFAULT_SHAPE_BUDGET, total)
    return np.indices(sides, dtype=np.int64).reshape(len(sides), total).T


def shape_representative(
    g: Graph, tp: TypePartition, s: tuple[int, ...], stats: FormulaStats,
) -> list[int]:
    """Concrete vertex set of the shape row s: the lexicographically first
    vertices of each type, exactly as many as its count (a count at the
    threshold stands for every larger size too)."""
    picked: list[int] = []
    for members, want in zip(tp.types, s):
        if want > min(len(members), stats.small_threshold):
            raise AssertionError("shape count outside [0, min(|T|, threshold)]")
        picked.extend(members[:want])
    return picked


# per graph: (types, sentence, stats) -> {shape: truth}; an entry dies with its graph (so
# must not reference it), and queries on one live graph (say r = 2, then r = 3) share it
_SHAPE_CACHE: "weakref.WeakKeyDictionary[Graph, dict]" = weakref.WeakKeyDictionary()


class _ShapeCheck:
    """The cached truths of one (g, tp, phi, stats) and how to decide more.
    Without set quantifiers, phi is evaluated on a shape's count state
    ((T, 0, count) per type T it takes) by one TypedEvaluator over
    tp's classes, its memo shared: same-type vertices are twins, so the state
    is the induced subgraph. With them, mso_check runs on a representative."""

    def __init__(self, g: Graph, tp: TypePartition, phi: Formula | Node, stats: FormulaStats):
        self.g, self.tp, self.phi, self.stats = g, tp, phi, stats
        self.truths = _SHAPE_CACHE.setdefault(g, {}).setdefault((tp, phi, stats), {})
        self.sentence = _as_sentence(phi)
        self.typed = not any(isinstance(q, Quant) and q.sort == "set" for q in walk(self.sentence))
        self.ev: Optional[TypedEvaluator] = None

    def decide(self, s: tuple[int, ...]) -> bool:
        if not self.typed:
            vertices = shape_representative(self.g, self.tp, s, self.stats)
            return bool(mso_check(self.g.induced(vertices)[0], self.phi))
        if self.ev is None:
            self.ev = TypedEvaluator(self.g, list(self.tp.types))
        self.ev.calls = 0  # each shape gets the budget mso_check would give it
        state = tuple((t, 0, c) for t, c in enumerate(s) if c)
        return self.ev.eval(self.sentence, state, ())


def shape_satisfies(
    g: Graph, tp: TypePartition, s: tuple[int, ...], phi: Formula | Node, stats: FormulaStats,
    check: Optional[_ShapeCheck] = None,
) -> bool:
    """Does a set of the shape row s induce a model of phi? Cached per graph, so
    callers sweep r without re-checking shapes; a caller sweeping shapes
    passes the _ShapeCheck of (g, tp, phi, stats) it made once."""
    check = check or _ShapeCheck(g, tp, phi, stats)
    holds = check.truths.get(s)
    if holds is None:
        holds = check.truths[s] = check.decide(s)
    return holds


def mso_partition(
    g: Graph,
    inst: PartitionInstance,
    mode: str = "vertex-cover",
    k_max: int = DEFAULT_K_MAX,
    allow_empty: bool = True,
    node_budget: int = ilp.DEFAULT_NODE_BUDGET,
    dump=None,
) -> PartitionVerdict:
    """Decide the partitioning instance and reconstruct a witness partition."""
    start = time.perf_counter()
    tp, cover_size = _types(g, mode, k_max)
    stats = SolveStats(cover_size=cover_size, type_count=tp.count)
    fstats = analyze(inst.formula)

    shapes = enumerate_shapes(tp, fstats)
    stats.shapes = len(shapes)
    if not allow_empty:
        shapes = shapes[shapes.any(axis=1)]
    check = _ShapeCheck(g, tp, inst.formula, fstats)
    keep = [
        shape_satisfies(g, tp, s, inst.formula, fstats, check) for s in map(tuple, shapes.tolist())
    ]
    satisfying = shapes[np.array(keep, dtype=bool)]
    stats.satisfying_shapes = len(satisfying)

    # per type, the parts take at least their counts (fit) and together
    # cover the type (demand), where a part at the threshold can take all
    small = fstats.small_threshold
    count = len(satisfying)
    sizes = [len(members) for members in tp.types]
    demand = np.where(satisfying == small, sizes, satisfying)
    rows = [(tuple((i, 1) for i in range(count)), ilp.EQ, inst.r)]
    for t, size in enumerate(sizes):
        takers = np.flatnonzero(satisfying[:, t]).tolist()
        rows.append((list(zip(takers, satisfying[takers, t].tolist())), ilp.LE, size))
        rows.append((list(zip(takers, demand[takers, t].tolist())), ilp.GE, size))
    names = [f"x_{i}" for i in range(count)]
    program = ilp.Program.build(names, [0] * count, [inst.r] * count, rows)
    if dump is not None:
        dump(program)
    stats.ilp_solves += 1
    result = ilp.solve_feasibility(program, node_budget)
    stats.ilp_nodes += result.nodes
    stats.ilp_lp_refutations += result.lp_refuted
    stats.elapsed = time.perf_counter() - start
    if result.status != "feasible":
        return PartitionVerdict(False, None, stats)

    parts = _reconstruct(tp, satisfying, result.assignment, small)
    _validate_parts(g, inst, parts, allow_empty)
    stats.elapsed = time.perf_counter() - start
    return PartitionVerdict(True, parts, stats)


def _reconstruct(
    tp: TypePartition, satisfying: np.ndarray, copies: tuple[int, ...], small: int,
) -> tuple[frozenset[int], ...]:
    """Build the parts, one per chosen copy of a satisfying row: per type,
    the parts take their counts of its members in turn; leftovers go to the
    lowest-indexed part whose count at that type is the threshold."""
    chosen = np.repeat(satisfying, copies, axis=0)
    ends = np.cumsum(chosen, axis=0).T.tolist()  # per type, where each part's share ends
    parts: list[set[int]] = [set() for _ in chosen]
    for t, members in enumerate(tp.types):
        for part, lo, hi in zip(parts, [0] + ends[t], ends[t]):
            part.update(members[lo:hi])
        if ends[t][-1] < len(members):
            parts[int(np.argmax(chosen[:, t] == small))].update(members[ends[t][-1]:])
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
