import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardmso.errors import CoverBudgetExceeded, GraphFormatError, InvalidCoverError
from cardmso.graph import (
    Graph, VertexCover, format_graph, min_vertex_cover, nd_partition,
    parse_graph, type_partition,
)
from conftest import complete_graph, cycle_graph, path_graph, star_graph


def brute_min_cover(g: Graph) -> int:
    for k in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return k
    return g.n


graphs_strategy = st.integers(0, 8).flatmap(
    lambda n: st.builds(
        lambda edges: Graph.from_edges(n, edges),
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
            .filter(lambda e: e[0] != e[1]),
            max_size=16,
        ),
    )
    if n
    else st.just(Graph.from_edges(0, []))
)


class TestParse:
    def test_k2(self):
        g = parse_graph("p 2 1\ne 1 2\n")
        assert g.n == 2 and g.m == 1

    def test_edgeless(self):
        g = parse_graph("p 3 0")
        assert g.n == 3 and g.m == 0

    def test_c5(self):
        g = parse_graph("p 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1")
        assert g.n == 5 and g.m == 5
        assert g.edges == cycle_graph(5).edges

    def test_aliases_and_comments(self):
        g = parse_graph("# hello\np 2 1\nv 1 left\nv 2 right\ne 1 2\n")
        assert g.names == ("left", "right")

    def test_duplicate_edges_collapse(self):
        g = parse_graph("p 2 1\ne 1 2\ne 2 1\n")
        assert g.m == 1
        # a reversed duplicate counts once against the header
        with pytest.raises(GraphFormatError, match="declares 2 edges but file has 1 distinct"):
            parse_graph("p 3 2\ne 1 2\ne 2 1\n")

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy, st.randoms(use_true_random=False))
    def test_parse_matches_build(self, g, rnd):
        # each edge written in either direction, some twice, in any order
        lines = [
            (u, v) if rnd.random() < 0.5 else (v, u)
            for u, v in g.edges for _ in range(rnd.randint(1, 2))
        ]
        rnd.shuffle(lines)
        text = f"p {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in lines)
        assert parse_graph(text) == g

    def test_errors_carry_line_numbers(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("p 2 1\ne 1 1\n")
        with pytest.raises(GraphFormatError, match="unknown vertex"):
            parse_graph("p 2 1\ne 1 3\n")
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("e 1 2\n")
        with pytest.raises(GraphFormatError, match="declares"):
            parse_graph("p 3 2\ne 1 2\n")
        with pytest.raises(GraphFormatError):
            parse_graph("p 2 1\nq 1 2\n")

    def test_roundtrip(self):
        g = parse_graph("p 3 2\nv 2 mid\ne 1 2\ne 2 3\n")
        assert parse_graph(format_graph(g)) == g


class TestMinVertexCover:
    def test_k2(self):
        assert min_vertex_cover(parse_graph("p 2 1\ne 1 2"), 5).size == 1

    def test_p3_center(self):
        cover = min_vertex_cover(path_graph(3), 5)
        assert cover.vertices == frozenset({1})

    def test_c5_size_three(self):
        g = cycle_graph(5)
        cover = min_vertex_cover(g, 5)
        assert cover.size == 3 == brute_min_cover(g)

    def test_budget_error(self):
        with pytest.raises(CoverBudgetExceeded) as err:
            min_vertex_cover(complete_graph(5), 2)
        # no cover of at most 2 vertices exists, so the run got to 3
        assert (err.value.kind, err.value.limit, err.value.used) == ("vertex-cover", 2, 3)

    def test_empty_graph(self):
        assert min_vertex_cover(Graph.from_edges(0, []), 3).size == 0

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy)
    def test_matches_brute_force(self, g):
        assert min_vertex_cover(g, g.n).size == brute_min_cover(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy)
    def test_same_cover_as_rescanning_every_node(self, g):
        # branching on the first uncovered edge, found by a scan from edge 0
        def search(removed: set[int], budget: int):
            edge = next((e for e in g.edges if not removed & set(e)), None)
            if edge is None:
                return set()
            if budget == 0:
                return None
            for pick in edge:
                sub = search(removed | {pick}, budget - 1)
                if sub is not None:
                    return sub | {pick}
            return None

        want = next(found for k in range(g.n + 1) if (found := search(set(), k)) is not None)
        assert min_vertex_cover(g, g.n).vertices == frozenset(want)


class TestTypePartition:
    def test_star(self):
        g = star_graph(4)
        tp = type_partition(g, VertexCover(frozenset({0})))
        assert sorted(tp.types) == [(0,), (1, 2, 3, 4)]
        assert len(tp.cover_types) == 1

    def test_k2(self):
        g = parse_graph("p 2 1\ne 1 2")
        tp = type_partition(g, VertexCover(frozenset({0})))
        assert len(tp.types) == 2

    def test_c5_five_types(self):
        g = cycle_graph(5)
        for combo in itertools.combinations(range(5), 3):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in g.edges):
                tp = type_partition(g, VertexCover(frozenset(chosen)))
                assert tp.count == 5

    def test_invalid_cover(self):
        with pytest.raises(InvalidCoverError):
            type_partition(cycle_graph(4), VertexCover(frozenset({0})))

    def test_type_count_bound(self):
        g = cycle_graph(6)
        cover = min_vertex_cover(g, 6)
        tp = type_partition(g, cover)
        assert tp.count <= 2 ** cover.size + cover.size


class TestNdPartition:
    def test_complete_one_type(self):
        for n in (2, 3, 5):
            assert nd_partition(complete_graph(n)).count == 1

    def test_star_two_types(self):
        assert nd_partition(star_graph(4)).count == 2

    def test_p4_four_types(self):
        assert nd_partition(path_graph(4)).count == 4


def same_type(g: Graph, u: int, v: int) -> bool:
    return g.adj[u] - {v} == g.adj[v] - {u}


@settings(max_examples=60, deadline=None)
@given(graphs_strategy)
def test_partition_invariants(g):
    tp = nd_partition(g)
    seen = set()
    for members in tp.types:
        assert not (seen & set(members))
        seen |= set(members)
        for u, v in itertools.combinations(members, 2):
            assert same_type(g, u, v)
    assert seen == set(range(g.n))

    cover = min_vertex_cover(g, g.n)
    tpc = type_partition(g, cover)
    assert tpc.count <= 2 ** cover.size + cover.size
    for i, members in enumerate(tpc.types):
        if len(members) >= 2:
            assert i not in tpc.cover_types
            for u, v in itertools.combinations(members, 2):
                assert same_type(g, u, v)
                assert not g.has_edge(u, v)
