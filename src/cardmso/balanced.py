"""Exact c-balanced partitioning: minimise cross-part edges over partitions
into c parts of sizes pairwise differing by at most one.

Runs the cardinality-MSO pipeline on the equitable c-partition sentence; each
work item's extension program gains one variable for the cut size, tied to
the subtype cardinalities by an equality whose constants come from the fixed
reduced-graph assignment. Every edge has a cover endpoint, so the cut
decomposes into cover-cover edges (a constant per work item) plus, for every
cover vertex, the sizes of the adjacent subtypes assigned to other parts.
All work items are solved and the global minimum kept; there is no early
exit, but each work item is solved only for cut values below the best found
so far, so items that cannot improve on it are refuted without a full
search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from . import corpus, ilp
from .errors import CardMSOError
from .formula import Formula, parse_formula
from .graph import DEFAULT_K_MAX, Graph
from .mso_eval import PrefixAssignment
from .solver import SolveStats, _Pipeline, _var_name


@dataclass(frozen=True)
class BalancedResult:
    cut_value: int
    parts: tuple[frozenset[int], ...]
    stats: SolveStats


def generate_equitable_formula(c: int) -> Formula:
    """Equitable c-partition sentence: c prefix variables, exactly-one
    membership for every vertex, pairwise size difference at most one."""
    return parse_formula(corpus.equitable_partition(c))


class BetaObjective:
    """Cut-size variable for one pipeline run.

    part(v) for a cover vertex is read off the work item's count row (cover
    types are singletons and survive reduction); a non-cover subtype's
    contribution is its cardinality times the number of adjacent cover
    vertices in other parts.
    """

    def __init__(self, pipeline: _Pipeline):
        self.pipe = pipeline
        g = pipeline.g
        tp = pipeline.tp
        self.m = pipeline.m
        self.cover_types = sorted(tp.cover_types)
        self.cover_vertex = {t: tp.types[t][0] for t in self.cover_types}
        cover_set = {self.cover_vertex[t] for t in self.cover_types}
        self.cover_cover_edges = [
            (u, v) for u, v in g.edges if u in cover_set and v in cover_set
        ]
        self.vertex_cover_type = {v: t for t, v in self.cover_vertex.items()}
        # adjacency between a non-cover type and each cover vertex is uniform
        self.type_adjacent_covers: dict[int, list[int]] = {}
        for t, members in enumerate(tp.types):
            if t in tp.cover_types:
                continue
            probe = members[0]
            self.type_adjacent_covers[t] = [
                ct for ct in self.cover_types
                if g.has_edge(probe, self.cover_vertex[ct])
            ]
        self.edge_count = g.m
        # cover-part tuple -> (const0, [(type, signature, coefficient)])
        self._terms: dict[tuple[int, ...], tuple[int, list[tuple[int, int, int]]]] = {}

    @staticmethod
    def _part_of(sig: int) -> Optional[int]:
        # exactly-one membership: signatures of populated subtypes are one-hot
        if sig and (sig & (sig - 1)) == 0:
            return sig.bit_length() - 1
        return None

    def _cover_parts(self, counts: tuple[int, ...]) -> dict[int, int]:
        parts = {}
        for ct in self.cover_types:
            # a cover type is a singleton: one entry of its block is 1
            sig = counts.index(1, ct << self.m, (ct + 1) << self.m) - (ct << self.m)
            part = self._part_of(sig)
            if part is None:
                raise AssertionError("cover vertex without one-hot membership")
            parts[ct] = part
        return parts

    def _cut_terms(self, counts: tuple[int, ...]) -> tuple[int, list[tuple[int, int, int]]]:
        """The cut of every extension of the row `counts` is const0 plus the
        sum of coefficient * x_{t,sig} over the returned (t, sig,
        coefficient) terms. Both depend only on the parts of the cover
        vertices. Only one-hot signatures carry a coefficient: the others
        are empty subtypes, pinned at zero."""
        cover_parts = self._cover_parts(counts)
        key = tuple(cover_parts.values())
        got = self._terms.get(key)
        if got is None:
            const0 = sum(
                1
                for u, v in self.cover_cover_edges
                if cover_parts[self.vertex_cover_type[u]]
                != cover_parts[self.vertex_cover_type[v]]
            )
            terms = []
            for t, covers in self.type_adjacent_covers.items():
                for part in range(self.m):
                    coeff = sum(1 for ct in covers if cover_parts[ct] != part)
                    if coeff:
                        terms.append((t, 1 << part, coeff))
            got = self._terms[key] = (const0, terms)
        return got

    def augment(self, counts: tuple[int, ...]):
        const0, terms = self._cut_terms(counts)
        coeffs = {"beta": 1}
        coeffs.update((_var_name(t, sig), -coeff) for t, sig, coeff in terms)
        row = ilp.Row.of(coeffs, ilp.EQ, const0)
        return [row], ("beta", 0, self.edge_count), {"beta": 1}

    def pinned_value(self, counts: tuple[int, ...]) -> int:
        const0, terms = self._cut_terms(counts)
        return const0 + sum(coeff * counts[(t << self.m) | sig] for t, sig, coeff in terms)


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
    if c < 1:
        raise ValueError("c must be >= 1")
    if not allow_empty and c > g.n:
        return None
    f = generate_equitable_formula(c)
    pipeline = _Pipeline(g, f, "vertex-cover", k_max, node_budget, dump)
    objective = BetaObjective(pipeline)
    start = time.perf_counter()
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
