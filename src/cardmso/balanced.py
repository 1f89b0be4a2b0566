"""Exact c-balanced partitioning: minimise cross-part edges over partitions
into c parts of sizes pairwise differing by at most one.

Runs the cardinality-MSO pipeline on the equitable c-partition sentence, with
the cut as the extension program's objective. Every edge has a cover
endpoint, so the cut of an extension is w . x over the count columns: a
one-hot column's weight is the number of edges from a member of its type to
cover vertices in other parts, one matrix over (type, cover vertex) with
each cover-cover edge at one endpoint. The weights depend only on the parts
of the cover vertices, which a work item's count row fixes and pins.
Without slack the cuts of all work items are read off the count matrix in
one product. Otherwise every item is solved, only for cut values below the
best found so far, so items that cannot improve on it are refuted without a
full search.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import corpus, ilp
from .errors import CardMSOError
from .formula import Formula, parse_formula
from .graph import DEFAULT_K_MAX, Graph
from .mso_eval import PrefixAssignment
from .solver import SolveStats, _Pipeline


@dataclass(frozen=True)
class BalancedResult:
    cut_value: int
    parts: tuple[frozenset[int], ...]
    stats: SolveStats


@functools.cache
def generate_equitable_formula(c: int) -> Formula:
    """Equitable c-partition sentence: c prefix variables, exactly-one
    membership for every vertex, pairwise size difference at most one."""
    return parse_formula(corpus.equitable_partition(c))


class BetaObjective:
    """The cut of one pipeline run as a linear objective over the count
    columns.

    edges[t, c] is 1 when the members of type t are adjacent to cover vertex
    c, except that an edge between two cover vertices is counted once, at
    the lower type. Every edge has a cover endpoint, so the cut of an
    extension is the sum over one-hot columns (t, part i) of the count times
    the column's weight: edges[t] summed over the cover vertices outside
    part i. A cover vertex's part is its row's one-hot column, pinned in
    every extension, so the weights are fixed per row.
    """

    def __init__(self, pipeline: _Pipeline):
        g, tp, self.m = pipeline.g, pipeline.tp, pipeline.m
        self.cover_types = sorted(tp.cover_types)
        # adjacency between a type and each cover vertex is uniform
        types = np.arange(tp.count)[:, None]
        counted = (types < self.cover_types) | ~np.isin(types, self.cover_types)
        self.edges = (g.class_adjacency(tp.types)[:, self.cover_types] & counted).astype(np.int64)
        # onehot[t, i]: the column of type t's members in part i alone
        self.onehot = (types << self.m) | (1 << np.arange(self.m))
        self._cover_columns = self.onehot[self.cover_types].ravel().tolist()
        self._terms: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}

    def _weights(self, cover: np.ndarray) -> np.ndarray:
        """Per row r, the cut weight of each one-hot column (t, i), given
        cover[r, c, i] = 1 when cover vertex c is in part i."""
        return self.edges.sum(axis=1)[:, None] - np.einsum("tc,rci->rti", self.edges, cover)

    def augment(self, counts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """((column, weight), ...): the cut of every extension x of the row
        `counts` is the sum of weight * x[column]. Memoised on the cover
        vertices' parts, all the weights read."""
        key = tuple(counts[j] for j in self._cover_columns)
        terms = self._terms.get(key)
        if terms is None:
            cover = np.array(key, dtype=np.int64).reshape(1, len(self.cover_types), self.m)
            weights = self._weights(cover)[0].ravel().tolist()
            terms = self._terms[key] = tuple(
                (column, w) for column, w in zip(self.onehot.ravel().tolist(), weights) if w
            )
        return terms

    def values(self, rows: np.ndarray) -> np.ndarray:
        """The cut of each count row as its own extension (no slack)."""
        onehot = rows[:, self.onehot]
        return np.einsum("rti,rti->r", onehot, self._weights(onehot[:, self.cover_types]))


def cbalanced(
    g: Graph,
    c: int,
    k_max: int = DEFAULT_K_MAX,
    allow_empty: bool = True,
    node_budget: int = ilp.DEFAULT_NODE_BUDGET,
    dump=None,
) -> Optional[BalancedResult]:
    """Minimum cut over equitable c-partitions, with the witness partition.

    None when no admissible partition exists (only with empty parts
    disallowed and c > |V|).
    """
    start = time.perf_counter()
    if c < 1:
        raise ValueError("c must be >= 1")
    if not allow_empty and c > g.n:
        return None
    f = generate_equitable_formula(c)
    pipeline = _Pipeline(g, f, "vertex-cover", k_max, node_budget, dump)
    objective = BetaObjective(pipeline)
    best = pipeline.run_minimize(objective)
    if best is None:
        raise CardMSOError("no equitable partition found; this should be impossible")
    value, witness, _alpha = best
    parts = _parts_from_witness(g, witness, c)
    recount = g.cut_size(parts)
    if recount != value:
        raise AssertionError(f"cut recount {recount} != objective {value}")
    sizes = sorted(len(p) for p in parts)
    if sizes[-1] - sizes[0] > 1:
        raise AssertionError("parts are not equitable")
    pipeline.stats.elapsed = time.perf_counter() - start
    return BalancedResult(value, parts, pipeline.stats)


def _parts_from_witness(g: Graph, witness: PrefixAssignment, c: int):
    parts = tuple(witness.sets)
    seen: set[int] = set()
    for p in parts:
        if seen & p:
            raise AssertionError("witness parts overlap")
        seen |= p
    if seen != set(range(g.n)):
        raise AssertionError("witness parts do not cover the vertex set")
    return parts
