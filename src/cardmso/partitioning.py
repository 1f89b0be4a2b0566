"""MSO partitioning: split V(G) into r parts whose induced subgraphs all
model a fixed MSO sentence.

A part is summarised by its shape: per type, its intersection size capped
at the small threshold 2^q_S * q_v. Same-type vertices are twins, and inside
a twin class every size from the threshold up models the same sentences
(Lampis), so the capped value reads "threshold or more" and sets of one
shape are interchangeable as models. Each shape is decided once per graph
(_ShapeCheck); a counting program then decides whether satisfying shapes
can tile the whole vertex set with exactly r parts (Rao).
"""

from __future__ import annotations

import itertools
import math
import time
import weakref
from dataclasses import dataclass
from typing import Optional

from . import ilp
from .errors import BudgetExceeded
from .formula import Formula, FormulaStats, Node, Quant, analyze, walk
from .graph import DEFAULT_K_MAX, Graph, TypePartition, min_vertex_cover, nd_partition, type_partition
from .mso_eval import DEFAULT_NODE_BUDGET, _as_sentence, mso_check
from .solver import SolveStats
from .typed_eval import TypedEvaluator

DEFAULT_SHAPE_BUDGET = 2_000_000


@dataclass(frozen=True)
class Shape:
    """Per type: a count in [0, min(|T|, threshold)], where the threshold
    itself means "threshold or more"."""

    per_type: tuple[int, ...]

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
    """All shapes in mixed-radix counter order (last type fastest, counts
    ascending): the product of [0, min(|T|, threshold)] over the types."""
    small = stats.small_threshold
    ranges = [range(min(len(members), small) + 1) for members in tp.types]
    total = math.prod(len(r) for r in ranges)
    if total > shape_budget:
        raise BudgetExceeded("shapes", shape_budget, total)
    return [Shape(per) for per in itertools.product(*ranges)]


def shape_representative(g: Graph, tp: TypePartition, s: Shape, stats: FormulaStats) -> list[int]:
    """Concrete vertex set of the given shape: the lexicographically first
    vertices of each type, exactly as many as its count (a count at the
    threshold stands for every larger size too)."""
    picked: list[int] = []
    for members, want in zip(tp.types, s.per_type):
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
    ((class of T, 0, count) per type T it takes) by one TypedEvaluator over
    tp's classes, its memo shared: same-type vertices are twins, so the state
    is the induced subgraph. With them, mso_check runs on a representative."""

    def __init__(self, g: Graph, tp: TypePartition, phi: Formula | Node, stats: FormulaStats):
        self.g, self.tp, self.phi, self.stats = g, tp, phi, stats
        self.truths = _SHAPE_CACHE.setdefault(g, {}).setdefault((tp, phi, stats), {})
        self.sentence = _as_sentence(phi)
        self.typed = not any(isinstance(q, Quant) and q.sort == "set" for q in walk(self.sentence))
        self.ev: Optional[TypedEvaluator] = None

    def decide(self, s: Shape) -> bool:
        if not self.typed:
            vertices = shape_representative(self.g, self.tp, s, self.stats)
            return bool(mso_check(self.g.induced(vertices)[0], self.phi))
        if self.ev is None:
            self.ev = TypedEvaluator(self.g, list(self.tp.types), state_budget=DEFAULT_NODE_BUDGET)
            # the evaluator orders its classes by first member
            first = {members[0]: b for b, members in enumerate(self.ev.base_members)}
            self.base = [first[members[0]] for members in self.tp.types]
        self.ev.calls = 0  # each shape gets the budget mso_check would give it
        state = sorted((self.base[t], 0, c) for t, c in enumerate(s.per_type) if c)
        return self.ev.eval(self.sentence, tuple(state), ())


def shape_satisfies(
    g: Graph, tp: TypePartition, s: Shape, phi: Formula | Node, stats: FormulaStats,
    check: Optional[_ShapeCheck] = None,
) -> bool:
    """Does a set of this shape induce a model of phi? Cached per graph, so
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

    shapes = enumerate_shapes(tp, fstats)
    check = _ShapeCheck(g, tp, inst.formula, fstats)
    satisfying = []
    for s in shapes:
        if not allow_empty and s.is_zero():
            continue
        if shape_satisfies(g, tp, s, inst.formula, fstats, check):
            satisfying.append(s)
    stats.shapes = len(shapes)
    stats.satisfying_shapes = len(satisfying)

    # per type, the parts take at least their counts (fit) and together
    # cover the type (demand), where a part at the threshold can take all
    small = fstats.small_threshold
    variables = [(f"x_{i}", 0, inst.r) for i in range(len(satisfying))]
    rows = [ilp.Row.of({f"x_{i}": 1 for i in range(len(satisfying))}, ilp.EQ, inst.r)]
    for t, members in enumerate(tp.types):
        size = len(members)
        fit = {}
        demand = {}
        for i, s in enumerate(satisfying):
            want = s.per_type[t]
            if want:
                fit[f"x_{i}"] = want
                demand[f"x_{i}"] = size if want == small else want
        rows.append(ilp.Row.of(fit, ilp.LE, size))
        rows.append(ilp.Row.of(demand, ilp.GE, size))
    instance = ilp.ILPInstance.build(variables, rows)
    if dump is not None:
        dump(instance)
    stats.ilp_solves += 1
    result = ilp.solve_feasibility(instance, node_budget)
    stats.ilp_nodes += result.nodes
    stats.ilp_lp_refutations += result.lp_refuted
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
    """Build the parts: per type, each chosen shape copy takes its count;
    leftovers go to the lowest-indexed part whose count at that type is the
    threshold."""
    chosen: list[Shape] = []
    for i, s in enumerate(satisfying):
        chosen.extend([s] * assignment[f"x_{i}"])
    parts: list[set[int]] = [set() for _ in chosen]
    for t, members in enumerate(tp.types):
        queue = list(members)
        for p, s in enumerate(chosen):
            want = s.per_type[t]
            parts[p].update(queue[:want])
            queue = queue[want:]
        if queue:
            sink = next(p for p, s in enumerate(chosen) if s.per_type[t] == small)
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
