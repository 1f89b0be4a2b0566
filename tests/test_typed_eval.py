"""The vertex-local signature filter: which conjuncts it reads, and that
both enumeration paths skip only what is false. The count-state path
(TypedEvaluator.satisfying_states) skips states; the truth-table path
(solver._Pipeline._table_rows through table_eval.allowed_cells) reads only
the cells whose every vertex signature is allowed."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cardmso import corpus, solver, table_eval, typed_eval
from cardmso.balanced import cbalanced, generate_equitable_formula
from cardmso.formula import (
    Adjacent, And, FalseLit, Iff, Implies, Member, Not, Or, Quant, SetEq,
    TrueLit, VertexEq, parse_formula, walk,
)
from cardmso.graph import Graph, min_vertex_cover, nd_partition, type_partition
from cardmso.typed_eval import TypedEvaluator, _local_split
from conftest import cycle_graph, path_graph, star_graph


def states(g: Graph, classes, prefix, body, unfiltered: bool = False):
    """(states yielded, leaves evaluated); unfiltered allows every signature."""
    ev = TypedEvaluator(g, classes=classes)
    if not unfiltered:
        return list(ev.satisfying_states(prefix, body)), ev.leaves
    every = lambda prefix, body: (frozenset(range(1 << len(prefix))), body)  # noqa: E731
    with mock.patch.object(typed_eval, "_local_split", every):
        return list(ev.satisfying_states(prefix, body)), ev.leaves


def _allowed_signatures(prefix, body):
    return _local_split(prefix, body)[0]


def body_of(text: str):
    f = parse_formula(text)
    return f.prefix, f.body


# ------------------------------------------------------------ detection

def test_corpus_exactly_one_clauses_are_found():
    prefix, body = body_of(corpus.bipartite_equal())
    assert _allowed_signatures(prefix, body) == {0b01, 0b10}
    prefix, body = body_of(corpus.equitable_coloring(3))
    assert _allowed_signatures(prefix, body) == {0b001, 0b010, 0b100}
    prefix, body = body_of(corpus.equitable_partition(2))
    assert _allowed_signatures(prefix, body) == {0b01, 0b10}


def test_non_local_forall_bodies_do_not_filter():
    prefix = ("X1", "X2")
    x1 = Member("v", "X1")
    for psi in (
        Or(x1, Adjacent("v", "v")),
        Or(x1, VertexEq("v", "v")),
        Or(x1, Member("u", "X2")),  # another vertex
        Or(x1, Member("v", "Y")),  # a set outside the prefix
        Or(x1, SetEq("X1", "X2")),
        Or(x1, Quant("exists", "u", "vertex", Member("u", "X2"))),
    ):
        body = Quant("exists", "u", "vertex", Quant("forall", "v", "vertex", psi))
        assert _allowed_signatures(prefix, Quant("forall", "v", "vertex", psi)) is None
        assert _allowed_signatures(prefix, body) is None


def test_exists_and_forall_off_the_and_spine_do_not_filter():
    local = Quant("forall", "v", "vertex", Member("v", "X1"))
    prefix = ("X1",)
    assert _allowed_signatures(prefix, Quant("exists", "v", "vertex", Member("v", "X1"))) is None
    assert _allowed_signatures(prefix, Not(local)) is None
    assert _allowed_signatures(prefix, Or(local, TrueLit())) is None
    assert _allowed_signatures(prefix, Implies(local, FalseLit())) is None
    assert _allowed_signatures(prefix, Iff(local, local)) is None
    assert _allowed_signatures(prefix, And(TrueLit(), And(local, TrueLit()))) == {1}


def test_two_local_conjuncts_intersect():
    prefix, body = body_of(
        "exists X1. exists X2. (forall v. (v in X1 | v in X2))"
        " & (forall w. !(w in X1 & w in X2))"
        " & (forall u. forall w. (adj(u, w) -> !(u in X1 & w in X1)))"
    )
    assert _allowed_signatures(prefix, body) == {0b01, 0b10}
    g = star_graph(5)
    classes = list(type_partition(g, min_vertex_cover(g)).types)
    filtered, leaves = states(g, classes, prefix, body)
    unfiltered, all_leaves = states(g, classes, prefix, body, unfiltered=True)
    assert filtered == unfiltered and filtered
    assert leaves == 2 * 6 < all_leaves == 4 * 56


def test_empty_allowed_set():
    prefix, body = body_of("exists X. (forall v. false)")
    assert _allowed_signatures(prefix, body) == frozenset()
    # no vertex to rule out: the one state, with no classes, holds
    empty = Graph.from_edges(0, [])
    assert states(empty, [], prefix, body) == ([()], 1)
    assert states(star_graph(3), None, prefix, body) == ([], 0)


# ---------------------------------------------------------- equivalence

def local_psi(var: str, sets: list[str]):
    atom = st.one_of(
        st.sampled_from(sets).map(lambda s: Member(var, s)),
        st.just(TrueLit()), st.just(FalseLit()),
    )
    return st.recursive(
        atom,
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub), st.builds(Iff, sub, sub),
        ),
        max_leaves=5,
    )


def conjuncts(sets: list[str]):
    forall = lambda psi: Quant("forall", "v", "vertex", psi)  # noqa: E731
    pick = st.sampled_from(sets)
    non_local = st.one_of(
        local_psi("v", sets).map(lambda psi: Quant("exists", "v", "vertex", psi)),
        local_psi("v", sets).map(lambda psi: Not(forall(psi))),
        st.tuples(pick, pick).map(lambda p: Quant("forall", "u", "vertex", forall(
            Implies(Adjacent("u", "v"), Or(Member("u", p[0]), Member("v", p[1])))))),
        st.tuples(pick, pick).map(lambda p: SetEq(*p)),
        local_psi("v", sets).map(lambda psi: forall(Or(psi, VertexEq("v", "v")))),
    )
    return st.one_of(local_psi("v", sets).map(forall), non_local)


def prefix_bodies():
    def body(m):
        sets = [f"X{i + 1}" for i in range(m)]
        return st.lists(conjuncts(sets), min_size=1, max_size=4).map(
            lambda parts: (tuple(sets), _and_tree(parts))
        )

    return st.integers(1, 3).flatmap(body)


def _and_tree(parts):
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return And(_and_tree(parts[:mid]), _and_tree(parts[mid:]))


small_graphs = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        .filter(lambda e: e[0] != e[1]),
        max_size=9,
    ).map(lambda edges: Graph.from_edges(n, edges))
)


# 20-60 s: run with the acceptance criteria, not in the quick suite
@pytest.mark.acceptance
@settings(max_examples=150, deadline=None)
@given(small_graphs, st.booleans(), prefix_bodies())
def test_filter_yields_the_unfiltered_states_in_order(g, cover_types, prefix_body):
    prefix, body = prefix_body
    tp = type_partition(g, min_vertex_cover(g)) if cover_types else nd_partition(g)
    classes = list(tp.types)
    filtered, leaves = states(g, classes, prefix, body)
    unfiltered, all_leaves = states(g, classes, prefix, body, unfiltered=True)
    assert filtered == unfiltered
    assert leaves <= all_leaves


# ---------------------------------------------------------- table cells

def table_cells(g: Graph, prefix, body, step: int = 1 << 16) -> np.ndarray:
    """table_eval.allowed_cells on the filter's split of body (every
    signature allowed when no conjunct is vertex-local), all slices joined."""
    allowed, rest = _local_split(prefix, body)
    if allowed is None:
        allowed = frozenset(range(1 << len(prefix)))
    slices = table_eval.allowed_cells(g, rest, prefix, allowed, step)
    return np.concatenate([np.zeros(0, dtype=np.int64), *slices])


def assert_filtered_cells(g: Graph, prefix, body) -> np.ndarray:
    got = table_cells(g, prefix, body)
    assert np.array_equal(got, np.flatnonzero(table_eval.prefix_table(g, body, prefix)))
    return got


@settings(max_examples=150, deadline=None)
@given(small_graphs, prefix_bodies(), st.sampled_from([97, 1 << 16]))
def test_table_cells_are_the_satisfying_cells(g, prefix_body, step):
    prefix, body = prefix_body
    want = np.flatnonzero(table_eval.prefix_table(g, body, prefix))
    assert np.array_equal(table_cells(g, prefix, body, step), want)


def test_table_cells_with_no_allowed_signature():
    prefix, body = body_of("exists X. exists Y. (forall v. false) & (forall v. v in X)")
    assert _local_split(prefix, body)[0] == frozenset()
    assert len(assert_filtered_cells(star_graph(3), prefix, body)) == 0
    # the empty graph has one cell, and no vertex to rule it out
    assert list(assert_filtered_cells(Graph.from_edges(0, []), prefix, body)) == [0]


def test_table_cells_of_two_intersecting_local_conjuncts():
    prefix, body = body_of(
        "exists X1. exists X2. (forall v. (v in X1 | v in X2))"
        " & (forall w. !(w in X1 & w in X2))"
        " & (forall u. forall w. (adj(u, w) -> !(u in X1 & w in X1)))"
    )
    # a 5-leaf star split in two with the first part independent: the
    # centre alone, or any of the 2^5 sets of leaves
    cells = assert_filtered_cells(star_graph(5), prefix, body)
    assert len(cells) == 1 + 2 ** 5


def test_table_cells_of_a_true_rest():
    f = generate_equitable_formula(3)
    skeleton, pieces = solver._split_pieces(f.body)
    body = solver._fold(skeleton, (True,) * len(pieces), 6)
    allowed, rest = _local_split(f.prefix, body)
    assert allowed == {0b001, 0b010, 0b100} and isinstance(rest, TrueLit)
    assert len(assert_filtered_cells(path_graph(6), f.prefix, body)) == 3 ** 6


def test_table_cells_of_a_rest_with_a_set_quantifier():
    f = corpus.load("equitable_connected", c=3)
    skeleton, pieces = solver._split_pieces(f.body)
    body = solver._fold(skeleton, (True,) * len(pieces), 5)
    allowed, rest = _local_split(f.prefix, body)
    assert allowed == {0b001, 0b010, 0b100}
    assert any(isinstance(sub, Quant) and sub.sort == "set" for sub in walk(rest))
    # an ordered partition of C5 into three paths, sizes left free here
    cells = assert_filtered_cells(cycle_graph(5), f.prefix, body)
    assert 0 < len(cells) < 3 ** 5


def test_cbalance_builds_no_full_table():
    """cbalance on P8 keeps all 8 vertices, m = 3: the full table would be
    2^24 cells (16 MB unpacked); the table path reads the 3^8 the filter
    allows."""
    g = path_graph(8)
    with mock.patch.object(table_eval, "prefix_table", side_effect=AssertionError):
        tracemalloc.start()
        try:
            result = cbalanced(g, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result.cut_value == 2 and result.stats.prefix_assignments == 3 ** 8
    assert peak <= 10_000_000


def test_table_cells_need_no_numpy_2_api(monkeypatch):
    # numpy 1.x has no bitwise_count; a vertex free to take either bit
    # doubles its cell's children, so every count of them is read here
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    prefix, body = body_of(
        "exists X. exists Y. (forall v. !(v in X) | v in Y)"
        " & (forall u. forall w. (adj(u, w) -> !(u in Y & w in Y)))"
    )
    assert _local_split(prefix, body)[0] == {0b00, 0b10, 0b11}
    cells = assert_filtered_cells(star_graph(4), prefix, body)
    # Y the centre (X any subset of it) or any set of leaves (X any subset)
    assert len(cells) == 2 + 3 ** 4


@pytest.mark.parametrize("psi, filtered", [
    ("(v in X1 | v in X2 | v in X3)", False),  # 7 of 8 signatures
    ("!(v in X1 & v in X2) & !(v in X3)", True),  # 3 of 8
    ("(v in X1 <-> v in X2)", True),  # 4 of 8
])
def test_table_path_lists_cells_under_a_filter_of_at_most_half(psi, filtered):
    # a listed cell costs 20-50 table cells, so a weak filter keeps the table
    f = parse_formula(
        f"exists X1. exists X2. exists X3. (forall v. {psi})"
        " & (forall u. forall w. (adj(u, w) -> !(u in X1 & w in X1)))"
    )
    want = solver.check(cycle_graph(5), f)
    assert want.stats.count_states == 0 and want.holds
    side = "prefix_table" if filtered else "allowed_cells"
    with mock.patch.object(table_eval, side, side_effect=AssertionError):
        got = solver.check(cycle_graph(5), f)
    assert got.holds and got.stats.prefix_assignments == want.stats.prefix_assignments
