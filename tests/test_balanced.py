import itertools
import random

import pytest

from cardmso import oracle
from cardmso.balanced import BetaObjective, cbalanced, generate_equitable_formula
from cardmso.formula import analyze
from cardmso.graph import Graph
from cardmso.solver import _Pipeline, extract_witness
from conftest import (
    complete_graph, cycle_graph, path_graph, planted_cover, random_graph, star_graph,
)


def min_cost_flow_cut(g: Graph, k: int, c: int) -> int:
    """Minimum equitable c-partition cut of a graph whose first k vertices
    cover every edge. For each placement of the cover vertices and each
    order of the part sizes, the other vertices go to parts along a
    minimum-cost flow: vertex v costs its cover neighbours outside part p."""
    import networkx as nx

    neighbours = [[u for u in range(k) if g.has_edge(u, v)] for v in range(g.n)]
    sizes = [g.n // c + (i < g.n % c) for i in range(c)]
    best = None
    for cover_parts in itertools.product(range(c), repeat=k):
        fixed = sum(cover_parts[u] != cover_parts[v] for u, v in g.edges if v < k)
        for order in set(itertools.permutations(sizes)):
            room = [size - cover_parts.count(i) for i, size in enumerate(order)]
            if min(room) < 0:
                continue
            flow = nx.DiGraph()
            flow.add_node("source", demand=k - g.n)
            flow.add_node("sink", demand=g.n - k)
            for i in range(c):
                flow.add_edge(("part", i), "sink", capacity=room[i], weight=0)
            for v in range(k, g.n):
                flow.add_edge("source", v, capacity=1, weight=0)
                for i in range(c):
                    cost = sum(cover_parts[u] != i for u in neighbours[v])
                    flow.add_edge(v, ("part", i), capacity=1, weight=cost)
            total = fixed + nx.min_cost_flow_cost(flow)
            best = total if best is None else min(best, total)
    return best


class TestFormulaGeneration:
    def test_c3_structure(self):
        f = generate_equitable_formula(3)
        st = analyze(f)
        assert f.m == 3
        assert st.q_v == 1 and st.q_S == 0
        assert len(f.constraints) == 6  # 3 pairs x 2 directions

    def test_c1_no_constraints(self):
        f = generate_equitable_formula(1)
        assert f.m == 1 and f.constraints == ()

    def test_c2_single_pair(self):
        f = generate_equitable_formula(2)
        assert f.m == 2 and len(f.constraints) == 2


class TestCbalanced:
    def test_spot_values(self):
        assert cbalanced(path_graph(4), 2).cut_value == 1
        assert cbalanced(complete_graph(4), 2).cut_value == 4
        assert cbalanced(cycle_graph(6), 2).cut_value == 2

    def test_disconnected_zero_cut(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        result = cbalanced(g, 2)
        assert result.cut_value == 0

    def test_output_self_consistency(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            for c in (2, 3):
                result = cbalanced(g, c)
                assert g.cut_size(result.parts) == result.cut_value
                sizes = sorted(len(p) for p in result.parts)
                assert sizes[-1] - sizes[0] <= 1
                assert len(result.parts) == c

    def test_oracle_agreement(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 7))
            for c in (2, 3):
                assert cbalanced(g, c).cut_value == oracle.brute_cbalanced(g, c)

    def test_empty_parts(self):
        g = path_graph(2)
        assert cbalanced(g, 3).cut_value == 1
        assert cbalanced(g, 3, allow_empty=False) is None

    def test_single_part(self):
        g = cycle_graph(5)
        assert cbalanced(g, 1).cut_value == 0

    def test_brute_oracle_agrees_c2(self, rng):
        for _ in range(6):
            g = random_graph(rng, rng.randint(1, 5))
            assert cbalanced(g, 2).cut_value == oracle.brute_cbalanced(g, 2)

    def test_unreduced_twins_are_minimised_without_the_ilp(self):
        # the leaves of a 4-leaf star are one type that reduction keeps
        # whole: every unit is pinned by its type sums
        g = star_graph(4)
        result = cbalanced(g, 3)
        assert result.stats.reduced_vertices == g.n
        assert result.cut_value == oracle.brute_cbalanced(g, 3)
        assert result.stats.ilp_nodes == 0

    @pytest.mark.parametrize("n", [40, 100])
    @pytest.mark.parametrize("p", [0.3, 0.7, 0.9])
    def test_min_cost_flow_reference_with_slack(self, n, p):
        # the joined cover vertices 0 and 1 make the cover-cover part of
        # the cut nonzero whenever they are split, so a cut-off that
        # mishandles that constant shows here, past brute force
        rng = random.Random(n * 10 + int(p * 10))
        edges = [(0, 1)] + [(u, v) for u in (0, 1) for v in range(2, n) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        result = cbalanced(g, 2)
        assert result.stats.reduced_vertices < n
        assert result.cut_value == min_cost_flow_cut(g, 2, 2)

    # ids "k-n" for c=2, "k-n-c" otherwise
    @pytest.mark.parametrize("k, n, c", [
        pytest.param(1, 100, 2, id="1-100"),
        pytest.param(1, 400, 2, id="1-400"),
        pytest.param(2, 100, 2, id="2-100", marks=pytest.mark.acceptance),
        pytest.param(2, 400, 2, id="2-400", marks=pytest.mark.acceptance),
        pytest.param(1, 40, 3, id="1-40-3", marks=pytest.mark.acceptance),
        pytest.param(1, 100, 3, id="1-100-3", marks=pytest.mark.acceptance),
    ])
    def test_planted_cover_matches_the_flow_reference(self, k, n, c):
        # past brute force, against a reference that shares no code with
        # the pipeline; a lone cover vertex of degree d costs
        # max(0, d + 1 - ceil(n/c)), so some draws cut nothing and others do
        cuts = []
        for seed in range(6):
            g = planted_cover(random.Random(seed), k, n)
            cuts.append(cbalanced(g, c).cut_value)
            assert cuts[-1] == min_cost_flow_cut(g, k, c), seed
        assert max(cuts) > 0

    @pytest.mark.parametrize("n", [100, 400])
    def test_cut_survives_relabelling(self, n):
        # past brute force: renaming the vertices moves the cover away from
        # 0..k-1 and must not change the minimum cut (k = 2 is in the
        # acceptance suite)
        rng = random.Random(n)
        g = planted_cover(rng, 1, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert cbalanced(g.relabel(perm), 2).cut_value == cbalanced(g, 2).cut_value


def test_beta_decomposition_matches_direct_count(rng):
    """values(rows), and each row's augment terms dotted with the row, equal
    the directly counted cut of an assignment of the reduced graph with the
    row's counts: valid because every edge has a cover endpoint. The k=2
    planted covers join their cover vertices half the time, so rows that
    split a cover-cover edge show whether it is charged exactly once."""
    graphs = [random_graph(rng, rng.randint(2, 7)) for _ in range(40)]
    graphs += [planted_cover(rng, 2, rng.randint(5, 9)) for _ in range(20)]
    checked = split_cover_edges = 0
    for g in graphs:
        c = rng.choice([2, 3])
        pipeline = _Pipeline(g, generate_equitable_formula(c))
        objective = BetaObjective(pipeline)
        cover = {pipeline.rg.types.types[t][0] for t in pipeline.tp.cover_types}
        rows = pipeline._units_for_profile(pipeline._alpha_profile(0))[:10]
        values = objective.values(rows).tolist()
        for counts, value in zip(map(tuple, rows.tolist()), values):
            parts = extract_witness(counts, c, pipeline.rg.types.types).sets
            want = pipeline.rg.graph.cut_size(parts)
            terms = objective.augment(counts)
            assert all(type(column) is int and type(w) is int for column, w in terms)
            assert sum(w * counts[column] for column, w in terms) == want
            assert value == want
            split_cover_edges += any(
                u in cover and v in cover and not any({u, v} <= p for p in parts)
                for u, v in pipeline.rg.graph.edges
            )
            checked += 1
    assert checked >= 400 and split_cover_edges >= 100
