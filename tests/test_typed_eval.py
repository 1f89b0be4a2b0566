"""The vertex-local signature filter of TypedEvaluator.satisfying_states:
which conjuncts it reads, and that it only skips states whose body is false."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cardmso import corpus, typed_eval
from cardmso.formula import (
    Adjacent, And, FalseLit, Iff, Implies, Member, Not, Or, Quant, SetEq,
    TrueLit, VertexEq, parse_formula,
)
from cardmso.graph import Graph, min_vertex_cover, nd_partition, type_partition
from cardmso.typed_eval import TypedEvaluator, _allowed_signatures
from conftest import star_graph


def states(g: Graph, classes, prefix, body, unfiltered: bool = False):
    """(states yielded, leaves evaluated); unfiltered allows every signature."""
    ev = TypedEvaluator(g, classes=classes)
    if not unfiltered:
        return list(ev.satisfying_states(prefix, body)), ev.leaves
    every = lambda prefix, body: frozenset(range(1 << len(prefix)))  # noqa: E731
    with mock.patch.object(typed_eval, "_allowed_signatures", every):
        return list(ev.satisfying_states(prefix, body)), ev.leaves


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
