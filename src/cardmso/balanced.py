"""Exact c-balanced partitioning: minimise cross-part edges over partitions
into c parts of sizes pairwise differing by at most one.

Runs the cardinality-MSO pipeline on the equitable c-partition sentence, with
the cut as the extension program's objective. Every edge has a cover
endpoint, so the cut of an extension is const0 + w . x over the count
columns: const0 counts the cover-cover edges between parts, and a one-hot
subtype's weight is the number of its adjacent cover vertices in other
parts. Both depend only on the parts of the cover vertices, which a work
item's count row fixes, so they are computed once per cover-part key.
Without slack the cuts of all work items are read off the count matrix at
once. Otherwise every item is solved, only for cut values below the best
found so far, so items that cannot improve on it are refuted without a
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

    part(v) for a cover vertex is read off the work item's count row (cover
    types are singletons and survive reduction); a non-cover subtype's
    contribution is its cardinality times the number of adjacent cover
    vertices in other parts.
    """

    def __init__(self, pipeline: _Pipeline):
        g, tp = pipeline.g, pipeline.tp
        self.m = pipeline.m
        self.cover_types = sorted(tp.cover_types)
        cover_vertex = {t: tp.types[t][0] for t in self.cover_types}
        cover_type = {v: t for t, v in cover_vertex.items()}
        self.cover_cover_edges = [
            (cover_type[u], cover_type[v])
            for u, v in g.edges if u in cover_type and v in cover_type
        ]
        # adjacency between a non-cover type and each cover vertex is uniform
        self.type_adjacent_covers = {
            t: [ct for ct in self.cover_types if g.has_edge(members[0], cover_vertex[ct])]
            for t, members in enumerate(tp.types)
            if t not in tp.cover_types
        }
        self._cuts: dict[tuple[int, ...], tuple[int, tuple[tuple[int, int], ...]]] = {}

    def key(self, counts: tuple[int, ...]) -> tuple[int, ...]:
        """The cover vertices' parts in the row: all the objective reads."""
        parts = []
        for ct in self.cover_types:
            # a cover type is a singleton: one entry of its block is 1
            sig = counts.index(1, ct << self.m, (ct + 1) << self.m) - (ct << self.m)
            # exactly-one membership: the signature is one-hot
            if not sig or sig & (sig - 1):
                raise AssertionError("cover vertex without one-hot membership")
            parts.append(sig.bit_length() - 1)
        return tuple(parts)

    def augment(self, counts: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(const0, ((column, weight), ...)): the cut of every extension x of
        the row `counts` is const0 + sum of weight * x[column]. Both depend
        only on the parts of the cover vertices. Only one-hot signatures
        carry a weight: the others are empty subtypes, pinned at zero."""
        key = self.key(counts)
        got = self._cuts.get(key)
        if got is None:
            part = dict(zip(self.cover_types, key))
            const0 = sum(part[s] != part[t] for s, t in self.cover_cover_edges)
            weights = []
            for t, covers in self.type_adjacent_covers.items():
                inside = [0] * self.m  # adjacent cover vertices per part
                for ct in covers:
                    inside[part[ct]] += 1
                weights += [((t << self.m) | (1 << i), len(covers) - inside[i])
                            for i in range(self.m) if inside[i] < len(covers)]
            got = self._cuts[key] = (const0, tuple(weights))
        return got

    def values(self, rows: np.ndarray) -> np.ndarray:
        """The cut of each count row as its own extension (no slack). Rows are
        grouped by placement of the cover vertices, numbered one vertex at a
        time, and augment runs on one row per group."""
        group = np.zeros(len(rows), dtype=np.int64)
        for sig in rows.reshape(len(rows), -1, 1 << self.m)[:, self.cover_types].argmax(axis=2).T:
            group = np.unique(group << self.m | sig, return_inverse=True)[1]
        cuts = [self.augment(tuple(row)) for row in rows[np.unique(group, return_index=True)[1]].tolist()]
        weights = np.zeros((len(cuts), rows.shape[1]), dtype=np.int64)
        for i, (_, terms) in enumerate(cuts):
            weights[i, [column for column, _ in terms]] = [weight for _, weight in terms]
        const0 = np.array([const0 for const0, _ in cuts], dtype=np.int64)[group]
        return const0 + np.einsum("ij,ij->i", rows, weights[group])


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
