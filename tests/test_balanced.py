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


class TestFormulaGeneration:
    def test_c3_structure(self):
        f = generate_equitable_formula(3)
        st = analyze(f)
        assert f.m == 3
        assert st.q_v == 1 and st.q_S == 0
        assert len(f.constraints) == 18  # 3 pairs x 3 equalities x 2 halves

    def test_c1_no_constraints(self):
        f = generate_equitable_formula(1)
        assert f.m == 1 and f.constraints == ()

    def test_c2_single_pair(self):
        f = generate_equitable_formula(2)
        assert f.m == 2 and len(f.constraints) == 6


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
    """const0 plus the weighted subtype sizes equals the directly counted cut
    of an assignment of the reduced graph with the unit's counts: valid
    because every edge has a cover endpoint."""
    checked = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        c = rng.choice([2, 3])
        f = generate_equitable_formula(c)
        pipeline = _Pipeline(g, f)
        objective = BetaObjective(pipeline)
        all_true = pipeline._alpha_profile(0)
        for counts in map(tuple, pipeline._units_for_profile(all_true)[:10].tolist()):
            parts = extract_witness(counts, c, pipeline.rg.types.types).sets
            want = pipeline.rg.graph.cut_size(parts)
            assert objective.pinned_value(counts) == want
            checked += 1
    assert checked >= 100
