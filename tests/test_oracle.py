import pytest

from cardmso import corpus, oracle
from cardmso.errors import BudgetExceeded
from cardmso.formula import parse_formula, substitute_params
from cardmso.graph import Graph
from conftest import (
    complete_graph, cycle_graph, path_graph, random_graph, star_graph,
)


class TestBruteCheck:
    def test_c4_bipartite_equal(self):
        assert oracle.brute_check(cycle_graph(4), parse_formula(corpus.bipartite_equal()))

    def test_single_vertex_singleton_set(self):
        assert oracle.brute_check(Graph.from_edges(1, []), parse_formula("exists Z. [|Z| = 1]"))

    def test_empty_graph_no_nonempty_subset(self):
        assert not oracle.brute_check(Graph.from_edges(0, []), parse_formula("exists Z. [1 <= |Z|]"))

    def test_cap(self):
        with pytest.raises(BudgetExceeded):
            oracle.brute_check(star_graph(9), parse_formula("exists Z. true"))

    def test_unbound_parameter_rejected(self):
        with pytest.raises(ValueError):
            oracle.brute_check(path_graph(2), parse_formula(corpus.independent_dominating()))

    def test_loop_and_vector_agree(self, rng):
        formulas = [
            parse_formula(corpus.bipartite_equal()),
            substitute_params(parse_formula(corpus.independent_dominating()), {"k": 2}),
            parse_formula("exists Z. ([|Z| = 2] & (forall x. forall y. ((x in Z & y in Z) -> !adj(x, y))))"),
            parse_formula(corpus.equitable_partition(2)),
        ]
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 5))
            for f in formulas:
                assert oracle._loop_check(g, f) == oracle._vector_check(g, f)

    def test_isomorphism_invariance(self, rng):
        f = parse_formula(corpus.bipartite_equal())
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 6))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert oracle.brute_check(g, f) == oracle.brute_check(g.relabel(perm), f)


class TestBrutePartition:
    def test_c5_independence(self):
        indep = parse_formula(corpus.independence_body())
        assert oracle.brute_partition(cycle_graph(5), indep, 3)
        assert not oracle.brute_partition(cycle_graph(5), indep, 2)

    def test_true_single_part(self):
        assert oracle.brute_partition(cycle_graph(5), parse_formula("true"), 1)

    def test_empty_parts_flag(self):
        indep = parse_formula(corpus.independence_body())
        g = Graph.from_edges(2, [])
        assert oracle.brute_partition(g, indep, 3, allow_empty=True)
        assert not oracle.brute_partition(g, indep, 3, allow_empty=False)


class TestBruteCbalanced:
    def test_spot_values(self):
        assert oracle.brute_cbalanced(path_graph(4), 2) == 1
        assert oracle.brute_cbalanced(complete_graph(4), 2) == 4
        assert oracle.brute_cbalanced(cycle_graph(6), 2) == 2
        assert oracle.brute_cbalanced(Graph.from_edges(4, []), 2) == 0

    def test_more_parts_than_vertices(self):
        g = path_graph(2)
        assert oracle.brute_cbalanced(g, 3) == 1
        assert oracle.brute_cbalanced(g, 3, allow_empty=False) is None

    def test_equitability_is_enforced(self):
        # K1,3: the balanced 2-split must separate at least one leaf
        assert oracle.brute_cbalanced(star_graph(3), 2) == 2
