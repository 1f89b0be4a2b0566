import random
from functools import lru_cache

import pytest

from cardmso import ilp, oracle, solver
from cardmso.formula import Formula, analyze, constraint_truths
from cardmso.graph import DEFAULT_K_MAX, Graph
from cardmso.mso_eval import PrefixAssignment
from cardmso.solver import SolveStats, Verdict


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def random_graph(rng: random.Random, n: int, p: float = 0.45) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def planted_cover(rng: random.Random, k: int, n: int) -> Graph:
    """Vertices 0..k-1 form a vertex cover; each pair touching it is an edge
    with probability 1/2. The other vertices fall into at most 2^k twin
    classes."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def twin_class_graph(rng: random.Random, max_n: int = 8) -> Graph:
    """An edgeless graph, a star or a planted cover with k <= 2, on at most
    max_n vertices: graphs with twin classes that reduction shrinks."""
    n = rng.randint(1, max_n)
    kind = rng.randrange(3)
    if kind == 0:
        return Graph.from_edges(n, [])
    if kind == 1:
        return star_graph(n - 1)
    return planted_cover(rng, rng.randint(1, min(2, n)), n)


@lru_cache(maxsize=None)
def atlas_connected(max_n: int) -> tuple[Graph, ...]:
    """All non-isomorphic connected graphs with 1..max_n vertices."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(G):
            relabel = {node: i for i, node in enumerate(sorted(G.nodes()))}
            edges = [(relabel[u], relabel[v]) for u, v in G.edges()]
            out.append(Graph.from_edges(n, edges))
    return tuple(out)


def assert_witness_valid(g: Graph, f: Formula, verdict: Verdict) -> None:
    """Always-on harness assertion: a positive verdict's witness must satisfy
    the body under direct semantics (the oracle's loop evaluator, constraint
    leaves read off the witness's set sizes) and comply with the reported
    alpha."""
    assert verdict.holds and verdict.witness is not None
    chi: PrefixAssignment = verdict.witness
    assert len(chi.sets) == f.m
    sizes = {name: len(s) for name, s in zip(f.prefix, chi.sets)}
    alpha = constraint_truths(f, sizes)
    assert alpha == verdict.alpha, "witness does not comply with reported alpha"
    masks = {name: sum(1 << v for v in s) for name, s in zip(f.prefix, chi.sets)}
    assert oracle._LoopEval(g, f.constraints).eval(f.body, masks, {}), "witness fails the body"


def rows_path(g: Graph, f: Formula, mode: str = "vertex-cover") -> solver._Rows:
    """The rows path of (g, f), built as check builds it."""
    tp = solver._types(g, mode, DEFAULT_K_MAX)[0]
    return solver._Rows(g, f, tp, analyze(f))


def rows_verdict(g: Graph, f: Formula, mode: str = "vertex-cover") -> Verdict:
    """check forced onto the rows path (the body must be in its fragment)."""
    rows = rows_path(g, f, mode)
    assert rows.program is not None
    return rows.decide(SolveStats(), ilp.DEFAULT_NODE_BUDGET, None)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
