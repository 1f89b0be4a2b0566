"""Each structural reference agrees with plain enumeration on small graphs
drawn by the benchmark's own generators, and each validator accepts a
correct witness and rejects a broken one."""

import random

import pytest

import reference as ref
from workloads import complete_multipartite, planted_cover


def planted_family():
    rng = random.Random(20261017)
    for k in (1, 2, 3):
        for n in range(k + 3, 10):
            for _ in range(4):
                yield k, n, planted_cover(k, n, rng)


PLANTED = list(planted_family())


@pytest.mark.parametrize("k,n,edges", PLANTED)
def test_planted_bipartite_equal(k, n, edges):
    assert ref.planted_bipartite_equal(n, edges) == ref.brute_bipartite_equal(n, edges)


@pytest.mark.parametrize("k,n,edges", PLANTED)
def test_planted_ids_sizes(k, n, edges):
    assert ref.planted_ids_sizes(n, edges, k) == ref.brute_ids_sizes(n, edges)


@pytest.mark.parametrize("k,n,edges", PLANTED)
def test_planted_colourable(k, n, edges):
    for r in (2, 3):
        assert ref.planted_colourable(n, edges, k, r) == ref.brute_partition(n, edges, r, "independence")


@pytest.mark.parametrize("k,n,edges", [case for case in PLANTED if case[1] <= 8])
def test_planted_cbalance(k, n, edges):
    for c in (2, 3):
        assert ref.planted_cbalance(n, edges, k, c) == ref.brute_cbalance(n, edges, c)


@pytest.mark.parametrize("sizes", [(1, 1), (2, 3), (1, 2, 3), (3, 3, 2), (2, 2, 1, 3)])
def test_multipartite_ids_sizes(sizes):
    n, edges = complete_multipartite(sizes)
    assert ref.multipartite_ids_sizes(sizes) == ref.brute_ids_sizes(n, edges)


def test_validators_accept_and_reject():
    # path 0-1-2-3
    n, edges = 4, [(0, 1), (1, 2), (2, 3)]
    even, odd = frozenset({0, 2}), frozenset({1, 3})
    assert ref.valid_bipartite_equal(n, edges, (even, odd))
    assert not ref.valid_bipartite_equal(n, edges, (frozenset({0, 1}), frozenset({2, 3})))
    assert ref.valid_ids(n, edges, (frozenset({0, 3}),), 2)
    assert not ref.valid_ids(n, edges, (frozenset({0, 3}),), 3)
    assert not ref.valid_ids(n, edges, (frozenset({0}),), 1)
    assert ref.valid_parts(n, edges, (even, odd), 2, "independence")
    assert not ref.valid_parts(n, edges, (even, odd - {3}), 2, "independence")
    assert ref.valid_parts(n, edges, (frozenset({0, 1}), frozenset({2, 3})), 2, "clique")
    assert ref.valid_balanced(n, edges, (frozenset({0, 1}), frozenset({2, 3})), 2, 1)
    assert not ref.valid_balanced(n, edges, (frozenset({0, 1}), frozenset({2, 3})), 2, 0)
    assert not ref.valid_balanced(n, edges, (frozenset({0}), frozenset({1, 2, 3})), 2, 1)
    colouring = (frozenset({0, 3}), frozenset({1}), frozenset({2}))
    assert ref.valid_equitable(n, edges, colouring, 3, connected=False)
    assert not ref.valid_equitable(n, edges, colouring, 3, connected=True)
