import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardmso.errors import CoverBudgetExceeded, GraphFormatError, InvalidCoverError
from cardmso.graph import (
    Graph, VertexCover, format_graph, min_vertex_cover, nd_partition,
    parse_graph, type_partition,
)
from cardmso import corpus
from cardmso.formula import substitute_params
from cardmso.partitioning import PartitionInstance, mso_partition
from cardmso.solver import check
from conftest import complete_graph, cycle_graph, path_graph, planted_cover, random_graph, star_graph


def brute_min_cover(g: Graph) -> int:
    for k in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return k
    return g.n


def rescanning_cover(g: Graph) -> frozenset[int]:
    """The minimum cover found by branching on the first uncovered edge,
    found by a scan from edge 0, lower endpoint first."""
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

    return frozenset(next(found for k in range(g.n + 1) if (found := search(set(), k)) is not None))


def grouped_types(g: Graph, cover: frozenset[int]) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """type_partition by its definition: the first uncovered edge in edge
    order is an error; the other vertices group by their neighbourhood
    sets; the cover vertices are singletons."""
    for u, v in g.edges:
        if u not in cover and v not in cover:
            raise InvalidCoverError(f"edge ({u},{v}) not covered")
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        if v not in cover:
            groups.setdefault(g.adj[v], []).append(v)
    types = sorted([tuple(ms) for ms in groups.values()] + [(c,) for c in cover])
    return tuple(types), frozenset(i for i, t in enumerate(types) if t[0] in cover)


def pairwise_types(g: Graph) -> tuple[tuple[int, ...], ...]:
    """nd_partition by its definition: v joins the class of the first u < v
    with N(u)\\{v} = N(v)\\{u}."""
    classes: list[list[int]] = []
    for v in range(g.n):
        home = next((c for c in classes if same_type(g, c[0], v)), None)
        if home is None:
            classes.append([v])
        else:
            home.append(v)
    return tuple(tuple(c) for c in classes)


def complete_multipartite(sizes) -> Graph:
    starts = list(itertools.accumulate(sizes, initial=0))
    return Graph.from_edges(starts[-1], [
        (u, v)
        for a, b in itertools.combinations(range(len(sizes)), 2)
        for u in range(starts[a], starts[a + 1])
        for v in range(starts[b], starts[b + 1])
    ])


def complete_split(clique: int, independent: int) -> Graph:
    """A clique on 0..clique-1, joined to every vertex of an independent set
    on the rest."""
    n = clique + independent
    return Graph.from_edges(n, [(u, v) for u in range(clique) for v in range(u + 1, n)])


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
        assert min_vertex_cover(g, g.n).vertices == rescanning_cover(g)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_cover_as_rescanning_every_node_cover_last(self, k):
        # the cover at the highest indices: every edge's lower endpoint is a
        # leaf, so no run of keys is skipped whole once a cover vertex is
        # removed and the scan steps through the edges one at a time
        n = 2000
        g = planted_cover(random.Random(k), k, n).relabel([n - 1 - v for v in range(n)])
        assert min_vertex_cover(g, k).vertices == rescanning_cover(g)


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

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy, st.randoms(use_true_random=False))
    def test_matches_grouping_by_neighbourhood_sets(self, g, rnd):
        # the minimum cover, and a cover with extra vertices
        minimum = min_vertex_cover(g, g.n).vertices
        for cover in (minimum, minimum | {v for v in range(g.n) if rnd.random() < 0.3}):
            tp = type_partition(g, VertexCover(cover))
            assert (tp.types, tp.cover_types) == grouped_types(g, cover)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_grouping_on_planted_covers(self, k):
        n = 2000
        for g in (planted_cover(random.Random(k), k, n),
                  planted_cover(random.Random(k), k, n).relabel([n - 1 - v for v in range(n)])):
            cover = min_vertex_cover(g, k).vertices
            tp = type_partition(g, VertexCover(cover))
            assert (tp.types, tp.cover_types) == grouped_types(g, cover)

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy, st.randoms(use_true_random=False))
    def test_invalid_cover_names_the_first_uncovered_edge(self, g, rnd):
        cover = frozenset(v for v in range(g.n) if rnd.random() < 0.5)
        uncovered = [(u, v) for u, v in g.edges if u not in cover and v not in cover]
        if not uncovered:
            tp = type_partition(g, VertexCover(cover))
            assert (tp.types, tp.cover_types) == grouped_types(g, cover)
            return
        u, v = uncovered[0]
        with pytest.raises(InvalidCoverError, match=rf"^edge \({u},{v}\) not covered$"):
            type_partition(g, VertexCover(cover))

    def test_invalid_cover_message(self):
        # C4's edges in order: (0,1), (0,3), (1,2), (2,3)
        with pytest.raises(InvalidCoverError, match=r"^edge \(1,2\) not covered$"):
            type_partition(cycle_graph(4), VertexCover(frozenset({0})))

    def test_cover_past_63_vertices(self):
        # 70 cover vertices; every leaf sees cover vertex 0 and one of the
        # cover vertices 63..69, so leaves differ only in their high cover
        # bits, and a 64-bit mask would merge some of their types
        k, leaves = 70, 21
        edges = [(c, c + 1) for c in range(0, k - 1, 2)]
        for i in range(leaves):
            edges += [(0, k + i), (63 + i % 7, k + i)]
        g = Graph.from_edges(k + leaves, edges)
        cover = frozenset(range(k))
        tp = type_partition(g, VertexCover(cover))
        assert (tp.types, tp.cover_types) == grouped_types(g, cover)
        assert tp.count == k + 7


class TestNdPartition:
    def test_complete_one_type(self):
        for n in (2, 3, 5):
            assert nd_partition(complete_graph(n)).count == 1

    def test_star_two_types(self):
        assert nd_partition(star_graph(4)).count == 2

    def test_p4_four_types(self):
        assert nd_partition(path_graph(4)).count == 4

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy)
    def test_matches_pairwise_definition(self, g):
        assert nd_partition(g).types == pairwise_types(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_definition_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(10, 30), rng.choice([0.1, 0.5, 0.9]))
        assert nd_partition(g).types == pairwise_types(g)

    @pytest.mark.parametrize("sizes", [[1], [3], [1, 1, 1], [2, 3], [1, 4, 2], [5, 1, 5, 2]])
    def test_matches_pairwise_definition_on_complete_multipartite(self, sizes):
        g = complete_multipartite(sizes)
        tp = nd_partition(g)
        assert tp.types == pairwise_types(g)
        # singleton parts are adjacent twins of each other, larger parts
        # are classes of their own
        assert tp.count == sum(size > 1 for size in sizes) + (1 in sizes)


    @pytest.mark.parametrize("g, want", [
        # a complete split graph: the clique's vertices are adjacent twins,
        # the independent side's are non-adjacent ones
        (complete_split(4, 3), ((0, 1, 2, 3), (4, 5, 6))),
        (complete_split(1, 3), ((0,), (1, 2, 3))),
        (complete_split(3, 1), ((0, 1, 2, 3),)),
        # a clique with pendant twins on 0 and a pendant on 3
        (Graph.from_edges(7, [*itertools.combinations(range(4), 2), (0, 4), (0, 5), (3, 6)]),
         ((0,), (1, 2), (3,), (4, 5), (6,))),
    ])
    def test_matches_pairwise_definition_on_mixed_twins(self, g, want):
        assert nd_partition(g).types == pairwise_types(g) == want


class TestClassAdjacency:
    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy)
    def test_matches_any_member_definition(self, g):
        for tp in (type_partition(g, min_vertex_cover(g, g.n)), nd_partition(g)):
            want = [
                [any(g.has_edge(u, v) for u in a for v in b if u != v) for b in tp.types]
                for a in tp.types
            ]
            assert g.class_adjacency(tp.types).tolist() == want

    def test_singletons_and_cliques_on_the_diagonal(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert nd_partition(g).types == ((0, 1, 2), (3,))
        assert g.class_adjacency(nd_partition(g).types).tolist() == [[True, False], [False, False]]
        assert g.class_adjacency([]).shape == (0, 0)


class TestGraphValue:
    """Graph's methods against their definitions on the edge list."""

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy, st.randoms(use_true_random=False))
    def test_equality_and_hash(self, g, rnd):
        edges = list(g.edges)
        rnd.shuffle(edges)
        same = Graph.from_edges(g.n, [(v, u) for u, v in edges])
        assert same == g and hash(same) == hash(g)
        if g.n >= 2:
            assert Graph.build(g.names[::-1], g.edges) != g  # other names
            u, v = sorted(rnd.sample(range(g.n), 2))
            toggled = Graph.from_edges(g.n, set(g.edges) ^ {(u, v)})
            assert toggled != g and toggled.m == g.m + (-1 if g.has_edge(u, v) else 1)
        assert g != g.edges

    @settings(max_examples=30, deadline=None)
    @given(graphs_strategy)
    def test_weak_key_dictionary(self, g):
        cache = weakref.WeakKeyDictionary()
        copy = Graph.from_edges(g.n, g.edges)
        cache[copy] = "seen"
        assert cache.get(g) == "seen"
        del copy  # the entry dies with its key
        assert g not in cache and len(cache) == 0

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy)
    def test_has_edge_and_adjacency(self, g):
        edges = set(g.edges)
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
                assert (v in g.adj[u]) == g.has_edge(u, v)
        order = list(range(g.n))[::-1]
        want = [[g.has_edge(u, v) for v in order] for u in order]
        assert g.adjacency(order).tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy, st.randoms(use_true_random=False))
    def test_induced(self, g, rnd):
        kept = [v for v in range(g.n) if rnd.random() < 0.6]
        rnd.shuffle(kept)
        sub, remap = g.induced(kept)
        assert remap == {old: new for new, old in enumerate(sorted(kept))}
        assert sub.names == tuple(g.names[v] for v in sorted(kept))
        assert sub.edges == tuple(sorted(
            (remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap
        ))

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy, st.randoms(use_true_random=False))
    def test_relabel(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = g.relabel(perm)
        assert all(h.names[perm[i]] == g.names[i] for i in range(g.n))
        assert h.edges == tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges
        ))

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy, st.randoms(use_true_random=False), st.integers(1, 4))
    def test_cut_size(self, g, rnd, c):
        owner = [rnd.randrange(c) for _ in range(g.n)]
        parts = [{v for v in range(g.n) if owner[v] == i} for i in range(c)]
        assert g.cut_size(parts) == sum(owner[u] != owner[v] for u, v in g.edges)

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy)
    def test_format_parse_roundtrip(self, g):
        assert parse_graph(format_graph(g)) == g


class TestLargeGraphs:
    """Covers, types and check on graphs too large for per-vertex sets: with
    the lazy edges and adj views made to raise, nothing on the path may ask
    for them."""

    @pytest.fixture
    def no_views(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("a per-vertex or per-edge view was built")

        monkeypatch.setattr(Graph, "edges", property(refuse))
        monkeypatch.setattr(Graph, "adj", property(refuse))

    def test_check_vertex_cover_mode(self, no_views):
        # two cover vertices joined to each other vertex with probability
        # 1/4: together they see fewer than half the vertices, so the graph
        # splits into equal colour classes
        n = 40000
        rng = random.Random(5)
        edges = [(c, v) for c in (0, 1) for v in range(2, n) if rng.random() < 0.25]
        g = Graph.from_edges(n, edges)
        verdict = check(g, corpus.load("bipartite_equal"), mode="vc")
        assert verdict.holds and verdict.stats.cover_size == 2
        x1, x2 = verdict.witness.sets
        assert not x1 & x2 and len(x1 | x2) == n and len(x1) == len(x2)
        assert all((u in x1) != (v in x1) for u, v in edges)

    def test_check_nd_mode(self, no_views):
        sizes = [200, 300, 400]
        g = complete_multipartite(sizes)
        f = substitute_params(corpus.load("ids"), {"k": 300})
        verdict = check(g, f, mode="nd")
        # an independent dominating set of a complete multipartite graph is
        # one whole part
        assert verdict.holds and verdict.witness.sets == (frozenset(range(200, 500)),)
        assert not check(g, substitute_params(corpus.load("ids"), {"k": 250}), mode="nd").holds

    @pytest.mark.parametrize("cover_edge", [False, True])
    def test_partition_vertex_cover_mode(self, no_views, cover_edge):
        # two cover vertices joined to each other vertex with probability
        # 1/4: without the edge 0-1 the graph is bipartite; with it, some
        # vertex seen by both closes a triangle (all but certain)
        n = 40000
        rng = random.Random(6)
        edges = [(c, v) for c in (0, 1) for v in range(2, n) if rng.random() < 0.25]
        g = Graph.from_edges(n, edges + [(0, 1)] * cover_edge)
        verdict = mso_partition(g, PartitionInstance(corpus.load("independence"), 2))
        assert verdict.holds != cover_edge and verdict.stats.cover_size == 2
        if verdict.holds:
            p1, p2 = verdict.parts
            assert not p1 & p2 and len(p1 | p2) == n
            assert not any((u in p1) == (v in p1) for u, v in edges)

    def test_partition_nd_mode(self, no_views):
        g = complete_multipartite([200, 300, 400])
        verdict = mso_partition(
            g, PartitionInstance(corpus.load("independence"), 3), mode="neighborhood-diversity",
        )
        # a complete multipartite graph splits into independent sets only
        # along its sides
        assert verdict.holds
        assert sorted(verdict.parts, key=min) == [
            frozenset(range(0, 200)), frozenset(range(200, 500)), frozenset(range(500, 900)),
        ]


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
