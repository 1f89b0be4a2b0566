"""The factored truth-table engine (table_eval) against the oracle's
vectorised reference, oracle._VectorEval, cell for cell."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardmso import corpus, oracle, solver, table_eval
from cardmso.errors import BudgetExceeded
from cardmso.formula import Adjacent, And, Formula, Quant, parse_formula, walk
from cardmso.graph import Graph
from conftest import cycle_graph, path_graph, random_graph, star_graph
from test_mso_eval import formula_nodes, small_graphs

GRAPHS = (
    Graph.from_edges(0, []),
    Graph.from_edges(1, []),
    path_graph(3),
    cycle_graph(4),
    star_graph(3),
    Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]),
)


def oracle_table(g: Graph, body, prefix: tuple[str, ...]) -> np.ndarray:
    """The body's truth table over the prefix, from the oracle's evaluator."""
    ev = oracle._VectorEval(g, Formula(prefix, body, ()))
    out = ev.eval(body, {})
    m = len(prefix)
    full = (ev.subsets,) * m + (1,) * (ev.naxes - m)
    return np.broadcast_to(out, full).reshape((ev.subsets,) * m)


def split(text: str, axes: tuple[str, ...]):
    """Parse `exists ... . body`; prefix variables outside axes are
    quantified again inside the body."""
    f = parse_formula(text)
    body = f.body
    for name in reversed(f.prefix):
        if name not in axes:
            body = Quant("exists", name, "set", body)
    return body


def assert_matches_oracle(g: Graph, text: str, axes=("X", "Y")) -> None:
    body = split(text, axes)
    got = table_eval.prefix_table(g, body, axes)
    want = oracle_table(g, body, axes)
    assert got.dtype == bool and got.shape == want.shape
    assert np.array_equal(got, want), text


@settings(max_examples=150, deadline=None)
@given(
    small_graphs,
    st.integers(1, 3).flatmap(
        lambda m: st.tuples(
            st.just(tuple(f"Z{i}" for i in range(m))),
            formula_nodes(3, tuple(f"Z{i}" for i in range(m))),
        )
    ),
)
def test_prefix_table_matches_oracle(g, prefix_body):
    prefix, body = prefix_body
    got = table_eval.prefix_table(g, body, prefix)
    want = oracle_table(g, body, prefix)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


CASES = {
    "negated or over two axes": (
        "exists X. exists Y. forall x. !(x in X | (exists y. (adj(x, y) & y in Y)))",
        "exists X. exists Y. !(exists x. (x in X | x in Y))",
    ),
    "exists over factors with and without the variable": (
        "exists X. exists Y. exists T. ((forall x. (x in T -> x in X))"
        " & (exists x. x in Y) & (exists x. (x in T & !(x in Y))))",
        "exists X. exists Y. exists T. ((forall x. (x in T -> (x in X | x in Y)))"
        " & !(T = X) & (forall x. (x in Y -> !(x in X))))",
    ),
    "forall over mixed factors": (
        "exists X. exists Y. forall T. ((exists x. x in X)"
        " & ((forall x. (x in T -> x in X)) -> ((exists x. (x in T & x in Y)) | T = X)))",
        "exists X. exists Y. !(forall T. ((forall x. (x in T | x in Y)) & (exists x. x in X)))",
    ),
    "iff": (
        "exists X. exists Y. forall x. (x in X <-> !(x in Y))",
        "exists X. exists Y. forall x. forall y. (adj(x, y) <-> (x in X & y in Y))",
        "exists X. exists Y. !(forall x. (x in X <-> (exists y. (y in Y & adj(x, y)))))",
    ),
}


@pytest.mark.parametrize("texts", CASES.values(), ids=list(CASES))
def test_named_cases(texts):
    for g in GRAPHS:
        for text in texts:
            assert_matches_oracle(g, text)


def test_empty_graph_under_negation():
    empty = Graph.from_edges(0, [])
    for text, axes in (
        ("exists X. !(forall x. x in X)", ("X",)),
        ("exists X. !(exists x. x in X)", ("X",)),
        ("exists X. exists Y. !(X = Y)", ("X", "Y")),
        ("exists X. exists T. !(T = X & !(forall x. x in T))", ("X",)),
    ):
        assert_matches_oracle(empty, text, axes)


def _edge_clause():
    """equitable_coloring_3's `forall x. forall y. (same part -> !adj)`."""
    def conjuncts(node):
        if isinstance(node, And):
            return conjuncts(node.left) + conjuncts(node.right)
        return [node]

    body = corpus.load("equitable_coloring", c=3).body
    return next(c for c in conjuncts(body) if any(isinstance(s, Adjacent) for s in walk(c)))


def test_edge_clause_stays_factored(monkeypatch, rng):
    """Every array before the final join spans one subset axis at most."""
    requests = []
    charge = table_eval.TableEngine._charge

    def record(self, cells):
        requests.append(cells)
        charge(self, cells)

    monkeypatch.setattr(table_eval.TableEngine, "_charge", record)
    g = random_graph(rng, 10)
    assert g.m > 0
    # (2^10)^3 cells are over the default budget: the final join refuses
    with pytest.raises(BudgetExceeded) as err:
        table_eval.prefix_table(g, _edge_clause(), ("P1", "P2", "P3"))
    assert err.value.kind == "mso-cells"
    assert requests[-1] == (1 << 10) ** 3
    assert requests[:-1] and max(requests[:-1]) <= 1 << 10


def test_joint_tables_are_charged(monkeypatch):
    def with_budget(cells, *args):
        monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", cells)
        return table_eval.prefix_table(*args)

    g = cycle_graph(6)
    # the final join: (2^6)^3 cells against a budget one cell short
    clause = _edge_clause()
    prefix = ("P1", "P2", "P3")
    with pytest.raises(BudgetExceeded) as err:
        with_budget((1 << 6) ** 3 - 1, g, clause, prefix)
    assert err.value.kind == "mso-cells"
    table = with_budget((1 << 6) ** 3, g, clause, prefix)
    assert np.array_equal(table, oracle_table(g, clause, prefix))
    # a join inside `exists T` spans T, X, Y and Z: (2^3)^4 cells, while the
    # final table over X, Y and Z has (2^3)^3
    prefix = ("X", "Y", "Z")
    body = split(
        "exists X. exists Y. exists Z. exists T. ((forall x. (x in T -> x in X))"
        " & (forall x. (x in T -> x in Y)) & (exists x. (x in T & x in Z)))",
        prefix,
    )
    p3 = path_graph(3)
    with pytest.raises(BudgetExceeded):
        with_budget(8 ** 4 - 1, p3, body, prefix)
    table = with_budget(8 ** 4, p3, body, prefix)
    assert np.array_equal(table, oracle_table(p3, body, prefix))


def test_cell_refusal_reports_the_request(monkeypatch):
    monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", 1000)
    g = cycle_graph(6)
    with pytest.raises(BudgetExceeded) as err:
        table_eval.prefix_table(g, _edge_clause(), ("P1", "P2", "P3"))
    # the clause stays factored, so the first request past 1000 cells is the
    # final join over three 2^6-subset axes
    assert (err.value.kind, err.value.limit, err.value.used) == ("mso-cells", 1000, 1 << 18)


def test_shared_columns_are_never_written():
    """Merges update buffers in place; the cached membership columns they
    start from must come out unchanged."""
    g = path_graph(4)
    engine = table_eval.TableEngine(g, _edge_clause(), ("P1", "P2", "P3"))
    engine.eval(parse_formula("exists P1. forall x. x in P1").body, {})
    before = {key: col.copy() for key, col in engine._member_columns.items()}
    engine.eval(_edge_clause(), {})
    engine.eval(parse_formula("exists P1. exists P2. forall x. (x in P1 & x in P2)").body, {})
    # P1 is axis 0 (bit-packed), P2 and P3 keep one 0x00/0xFF byte per subset
    assert {packed for _, packed in engine._member_columns} == {False, True}
    for (v, packed), col in engine._member_columns.items():
        assert not col.flags.writeable
        if (v, packed) in before:
            assert np.array_equal(col, before[v, packed])
        want = (np.arange(16) >> v) & 1 == 1
        if packed:
            assert np.array_equal(np.unpackbits(col, bitorder="little").view(bool), want)
        else:
            assert np.array_equal(col, np.where(want, 0xFF, 0x00))


# ------------------------------------------------------------ packed layout
# Axis 0 holds eight subsets per byte: n < 3 repeats its 2^n-bit pattern
# across one byte, n = 3 fills exactly one byte, n >= 4 spans several.

PACKED_GRAPHS = (
    Graph.from_edges(0, []),
    Graph.from_edges(1, []),
    path_graph(2),
    path_graph(3),
    cycle_graph(4),
    random_graph(random.Random(9), 9),
)


def oracle_truth(g: Graph, sentence) -> bool:
    ev = oracle._VectorEval(g, Formula((), sentence, ()))
    return bool(np.asarray(ev.eval(sentence, {})).reshape(-1)[0])


PACKED_CASES = {
    "prefix variable the body never mentions": (
        ("exists X. exists Y. exists x. (x in Y & forall y. (adj(x, y) -> !(y in Y)))", ("X", "Y")),
        ("exists X. forall x. exists y. (adj(x, y) | x = y)", ("X",)),
        ("exists X. false", ("X",)),
    ),
    "no factor spans axis 0": (
        ("exists X. exists Y. (X = X & forall x. (x in Y -> exists y. adj(x, y)))", ("X", "Y")),
        ("exists X. exists Y. !(forall x. x in Y) & !(X = X & exists x. x in Y)", ("X", "Y")),
    ),
    "set equality between axis 0 and another axis": (
        ("exists X. exists Y. X = Y", ("X", "Y")),
        ("exists X. exists Y. !(Y = X)", ("X", "Y")),
        ("exists X. exists Y. (X = Y -> exists x. (x in X & !(x in Y)))", ("X", "Y")),
        ("exists X. forall T. (T = X | exists x. (x in T & !(x in X)))", ("X",)),
    ),
    "negated membership on both layouts": (
        ("exists X. exists Y. forall x. (!(x in X) <-> x in Y)", ("X", "Y")),
        ("exists X. exists Y. exists x. !(x in X | !(x in Y))", ("X", "Y")),
    ),
}


@pytest.mark.parametrize("cases", PACKED_CASES.values(), ids=list(PACKED_CASES))
@pytest.mark.parametrize("g", PACKED_GRAPHS, ids=lambda g: f"n{g.n}")
def test_packed_cases(cases, g):
    for text, axes in cases:
        assert_matches_oracle(g, text, axes)


@pytest.mark.parametrize("g", PACKED_GRAPHS, ids=lambda g: f"n{g.n}")
def test_folds_over_axis_0(g):
    """In a sentence the first quantified set variable is axis 0, so its
    quantifier folds the packed bytes."""
    for text in (
        "forall X. exists x. (x in X | forall y. !(y in X))",
        "exists X. forall x. (x in X <-> exists y. (adj(x, y) & !(y in X)))",
        "forall X. exists Y. forall x. (x in X <-> !(x in Y))",
        "exists X. forall Y. (X = Y | exists x. (x in Y & !(x in X)))",
        "!(forall X. exists x. x in X)",
        "!(exists X. forall x. !(x in X))",
        "forall X. exists Y. X = Y",
    ):
        sentence = split(text, ())
        assert table_eval.evaluate_sentence(g, sentence) == oracle_truth(g, sentence), text


def test_prefix_table_peak_memory():
    """A 2^24-cell table keeps its intermediates packed: the peak is the bool
    result (16 MB) and a little more."""
    f = corpus.load("equitable_coloring", c=3)
    skeleton, pieces = solver._split_pieces(f.body)
    body = solver._fold(skeleton, (True,) * len(pieces), 8)
    tracemalloc.start()
    try:
        table = table_eval.prefix_table(cycle_graph(8), body, f.prefix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (256,) * 3
    assert peak <= 20_000_000
