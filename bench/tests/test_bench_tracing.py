"""The traced run's per-layer self times add up to the measured query times,
up to the tracing overhead, and uninstalling restores the library."""

import json
import random
import time
from pathlib import Path

from cardmso import partitioning, solver

import reference as ref
import run
import workloads
from tracing import Tracer


class NoClock:
    @staticmethod
    def adjusted(start, end):
        return end - start


def small_round() -> workloads.Round:
    rng = random.Random(7)
    rnd = workloads.Round()
    n, edges = 12, workloads.planted_cover(2, 12, rng)
    rnd.graphs["g"] = (n, edges)
    rnd.queries = [
        workloads.Query("check", "g", ref.planted_bipartite_equal(n, edges), "bipartite_equal"),
        workloads.Query("check", "g", True, "ids_k", k=min(ref.planted_ids_sizes(n, edges, 2))),
        workloads.Query("partition", "g", ref.planted_colourable(n, edges, 2, 3), "independence", parts=3),
        workloads.Query("cbalance", "g", ref.planted_cbalance(n, edges, 2, 2), parts=2),
    ]
    return rnd


def test_self_times_sum_to_query_times():
    rnd = small_round()
    tracer = Tracer()
    originals = (solver.check, partitioning.mso_partition)
    failures = []
    tracer.install()
    try:
        times = run.run_round(rnd, run.import_cardmso(), NoClock(), tracer, time.monotonic() + 60, failures)
    finally:
        tracer.uninstall()
    assert (solver.check, partitioning.mso_partition) == originals
    assert failures == []

    in_queries = [s for s in tracer.spans if s[4] is not None]
    own = sum(tracer.self_times().values())
    parse = sum(end - start for _, start, end, _, query in tracer.spans if query is None)
    query_total = sum(wall for wall, _ in times)
    # every span inside a query nests under that query's root span
    roots = sum(end - start for _, start, end, parent, query in in_queries if parent < 0)
    assert abs(own - (roots + parse)) < 1e-6
    # the query timer encloses its root span; the gap is tracing overhead
    assert roots <= query_total
    assert query_total - roots < 0.05 * query_total + 50e-6 * len(tracer.spans)

    metrics = tracer.layer_metrics(1)
    assert metrics["solver.check_s"] > 0
    assert metrics["balanced.cbalanced_s"] > 0
    assert metrics["partitioning.shape_checks"] > 0
    assert metrics["ilp.solve_min_calls"] > 0
    assert 0 < metrics["ilp.feasible_ratio"] <= 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    per_layer = set(Tracer().layer_metrics(1)) | {"trace.solve_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "solve_s", "query_s_geomean", "slowest_query_s", "peak_rss_mb",
    }
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
