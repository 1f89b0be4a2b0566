"""The benchmark's tracer wraps library functions by name from outside
(bench/tracing.py); deleting or renaming one of them, or a refactor that
stops calling it by that name, must fail here too."""

import importlib.util
from pathlib import Path

from cardmso import corpus, solver
from cardmso.formula import parse_formula, substitute_params
from cardmso.graph import Graph
from conftest import cycle_graph

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_benchmark_tracer_installs_and_uninstalls():
    original = solver.mso_check
    tracer = load_tracer()
    try:
        tracer.install()
        assert solver.mso_check is not original
    finally:
        tracer.uninstall()
    assert solver.mso_check is original


def test_traced_layers_are_reached():
    f = parse_formula(corpus.bipartite_equal())
    ids = substitute_params(parse_formula(corpus.independent_dominating()), {"k": 2})
    # a set quantifier keeps bipartite_equal off the rows path: on cover
    # vertex 0 joined to 7 leaves, plus 32 isolated vertices, its 24 reduced
    # vertices take the count-state path. C4 keeps no type past the
    # reduction and its prefix fits one table, so check takes the table path
    subset = parse_formula(corpus.bipartite_equal() + "  & (exists T. forall v. (v in T -> v in X1))\n")
    leaves = Graph.from_edges(40, [(0, i) for i in range(1, 8)])
    tracer = load_tracer()
    try:
        tracer.install()
        assert solver.check(cycle_graph(4), f).stats.count_states == 0
    finally:
        tracer.uninstall()
    # bipartite_equal's vertex-local conjunct allows 2 of 4 signatures, so
    # only the cells it allows are read and no full table is built
    assert "table_eval.prefix_table" not in {span[0] for span in tracer.spans}
    tracer = load_tracer()
    try:
        tracer.install()
        assert solver.check(leaves, subset).stats.count_states > 0
        # no vertex-local conjunct: the full table is built
        assert solver.check(cycle_graph(4), ids).stats.count_states == 0
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    # the table path's rows are built in bulk from its cells, so no
    # mso_eval.satisfying_prefix_assignments span is opened
    # check's work-pair loop is run_minimize without an objective
    for name in (
        "table_eval.prefix_table", "typed_eval.satisfying_states", "solver.extract_witness",
        "solver.run_minimize",
    ):
        assert name in recorded, name
