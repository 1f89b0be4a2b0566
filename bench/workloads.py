"""Seeded inputs for the benchmark's workloads, with their reference answers.

A run is a sequence of rounds; round i of workload w under seed s draws its
graphs from random.Random(f"{w}/{s}/{i}"), so the same seed gives the same
inputs and every round has the same make-up. Reference answers come from
reference.py and are computed while the round is built, outside any timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, count

from cardmso import corpus

import reference as ref

FORMULAS = {
    "bipartite_equal": corpus.bipartite_equal,
    "equitable_coloring_3": lambda: corpus.equitable_coloring(3),
    "equitable_connected_3": lambda: corpus.equitable_connected(3),
    "ids_k": corpus.independent_dominating,
    "independence": corpus.independence_body,
    "clique": corpus.clique_body,
}

TWINS_SIZES = (40, 400, 4000, 40000)
CBALANCE_SIZES = (40, 100, 200, 400)
NOT_COLOURABLE_SIZES = (40, 400)


@dataclass(frozen=True)
class Query:
    """One call into the library: `check` (formula, mode, optional k),
    `partition` (formula, r = parts) or `cbalance` (c = parts). expect is
    the reference answer: holds for check and partition, the minimum cut
    for cbalance."""

    kind: str
    graph: str
    expect: int | bool
    formula: str = ""
    k: int | None = None
    parts: int = 0
    mode: str = "vertex-cover"

    @property
    def label(self) -> str:
        bits = [self.kind, self.graph, self.formula]
        if self.k is not None:
            bits.append(f"k={self.k}")
        if self.parts:
            bits.append(f"{'c' if self.kind == 'cbalance' else 'r'}={self.parts}")
        if self.mode != "vertex-cover":
            bits.append(self.mode)
        return " ".join(b for b in bits if b)


@dataclass
class Round:
    graphs: dict[str, tuple[int, list[tuple[int, int]]]] = field(default_factory=dict)
    queries: list[Query] = field(default_factory=list)

    def formulas(self) -> list[str]:
        return sorted({q.formula for q in self.queries if q.formula})


def graph_text(n: int, edges) -> str:
    """The package's graph file format (1-based endpoints)."""
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def planted_cover(k: int, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Vertices 0..k-1 form the cover; each pair touching it is an edge with
    probability 1/2; no other edges."""
    return [(u, v) for u in range(k) for v in range(u + 1, n) if rng.random() < 0.5]


def complete_multipartite(sizes) -> tuple[int, list[tuple[int, int]]]:
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    edges = [
        (u, v)
        for a, b in combinations(range(len(sizes)), 2)
        for u in range(starts[a], starts[a + 1])
        for v in range(starts[b], starts[b + 1])
    ]
    return starts[-1], edges


def draw_planted(k: int, n: int, rng: random.Random, accept) -> list[tuple[int, int]]:
    """Planted cover graphs drawn until accept(edges) holds; used to fix a
    reference answer in advance."""
    while True:
        edges = planted_cover(k, n, rng)
        if accept(edges):
            return edges


def _ids_queries(name: str, sizes: set[int], mode: str = "vertex-cover") -> list[Query]:
    """One size the reference says exists and the next larger one it says
    does not (the no-answer tries every pre-evaluation)."""
    yes = min(sizes)
    no = next(s for s in count(yes + 1) if s not in sizes)
    return [
        Query("check", name, True, "ids_k", k=yes, mode=mode),
        Query("check", name, False, "ids_k", k=no, mode=mode),
    ]


def small_exact(rng: random.Random) -> Round:
    """Two random 8-vertex graphs, one sparse and one dense (edge
    probability drawn in [0.2, 0.5) and [0.5, 0.8)), each asked every
    corpus query; answers by plain enumeration."""
    rnd = Round()
    for i, (lo, hi) in enumerate(((0.2, 0.5), (0.5, 0.8))):
        p = rng.uniform(lo, hi)
        n = 8
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        name = f"random8-{i}"
        rnd.graphs[name] = (n, edges)
        ids = ref.brute_ids_sizes(n, edges)
        rnd.queries += [
            Query("check", name, ref.brute_bipartite_equal(n, edges), "bipartite_equal"),
            Query("check", name, ref.brute_equitable(n, edges, 3, False), "equitable_coloring_3"),
            Query("check", name, ref.brute_equitable(n, edges, 3, True), "equitable_connected_3"),
        ]
        rnd.queries += [Query("check", name, k in ids, "ids_k", k=k) for k in (1, 2, 3)]
        for formula in ("independence", "clique"):
            for r in (2, 3):
                rnd.queries.append(Query(
                    "partition", name, ref.brute_partition(n, edges, r, formula), formula, parts=r,
                ))
        for c in (2, 3):
            rnd.queries.append(Query("cbalance", name, ref.brute_cbalance(n, edges, c), parts=c))
    return rnd


def twins_check(rng: random.Random) -> Round:
    """check on graphs whose reduced graph stops growing with n."""
    rnd = Round()
    # yes and no cost different amounts (a no tries every pre-evaluation, a
    # yes lifts and checks a witness), so the answers alternate over the
    # sizes instead of following the draw
    for n, holds in zip(TWINS_SIZES, (True, False, True, False)):
        edges = draw_planted(1, n, rng, lambda e: ref.planted_bipartite_equal(n, e) == holds)
        name = f"cover1-n{n}"
        rnd.graphs[name] = (n, edges)
        rnd.queries.append(Query("check", name, holds, "bipartite_equal"))
    for n in TWINS_SIZES:
        edges = planted_cover(2, n, rng)
        name = f"cover2-n{n}"
        rnd.graphs[name] = (n, edges)
        rnd.queries += _ids_queries(name, ref.planted_ids_sizes(n, edges, 2))
    for parts in (3, 5):
        sizes = [rng.randint(20, 60) for _ in range(parts)]
        name = f"multipartite{parts}"
        rnd.graphs[name] = complete_multipartite(sizes)
        rnd.queries += _ids_queries(name, ref.multipartite_ids_sizes(sizes), mode="nd")
    return rnd


def ilp_scale(rng: random.Random) -> Round:
    """Integer programs whose variable bounds grow with n. Yes-instances of
    partition at n=16 are left out: their branch-and-bound cost swings by
    two orders of magnitude with the draw, and at k=3 some draws overflow
    the recursive search (see README)."""
    rnd = Round()
    for n in CBALANCE_SIZES:
        edges = planted_cover(1, n, rng)
        name = f"cover1-n{n}"
        rnd.graphs[name] = (n, edges)
        rnd.queries.append(Query("cbalance", name, ref.planted_cbalance(n, edges, 1, 2), parts=2))
    for n in NOT_COLOURABLE_SIZES:
        name = f"cover2-n{n}"
        # graphs the reference finds not 2-colourable: the tiling program
        # is infeasible and branch-and-bound exhausts its search
        rnd.graphs[name] = (n, draw_planted(2, n, rng, lambda e: not ref.planted_colourable(n, e, 2, 2)))
        rnd.queries.append(Query("partition", name, False, "independence", parts=2))
    return rnd


WORKLOADS = {
    "small-exact": small_exact,
    "twins-check": twins_check,
    "ilp-scale": ilp_scale,
}


def make_round(workload: str, seed: int, index: int) -> Round:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}/{index}"))


def witness_ok(query: Query, n: int, edges, answer, sets) -> bool:
    """Validate a witness against the property's definition. sets is the
    prefix assignment (check) or the parts (partition, cbalance)."""
    if query.kind == "cbalance":
        return ref.valid_balanced(n, edges, sets, query.parts, answer)
    if query.kind == "partition":
        return ref.valid_parts(n, edges, sets, query.parts, query.formula)
    if query.formula == "bipartite_equal":
        return ref.valid_bipartite_equal(n, edges, sets)
    if query.formula == "ids_k":
        return ref.valid_ids(n, edges, sets, query.k)
    connected = query.formula == "equitable_connected_3"
    return ref.valid_equitable(n, edges, sets, 3, connected)
