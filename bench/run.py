"""cardmso benchmark: runs one workload through the library API and prints
its metrics as a JSON object on the last line of standard output.

    python3 bench/run.py --workload small-exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy. A run builds round after
round of the workload's seeded queries, one query at a time on one thread,
for about --seconds; times are reported in reference seconds (speed.py).
Every answer is compared with a reference computed apart from cardmso and
every witness is validated. --trace 1 wraps the library's layers
(tracing.py) and reports per-layer figures instead of the end-to-end ones;
results and traces are also written under bench/out/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
DEADLINE_S = 150  # a run must end within 180 s; queries past this fail


class RunDeadline(Exception):
    """Raised inside a query that is still running at the deadline."""


def import_cardmso():
    """Import cardmso from this checkout's src/, or exit with an error."""
    if not (SRC / "cardmso" / "__init__.py").is_file():
        sys.exit(f"bench: no cardmso sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cardmso

    if not Path(cardmso.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: cardmso was imported from {cardmso.__file__}, not {SRC}")
    return cardmso


def measure_setup(graph_texts: list[str], formula_texts: list[str]) -> list[list[float]]:
    """Import cardmso and parse the round's graph and formula texts in fresh
    processes; returns (wall seconds, reference seconds) per process."""
    payload = json.dumps({"src": str(SRC), "graphs": graph_texts, "formulas": formula_texts})
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=payload, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append([float(x) for x in done.stdout.split()])
    return times


def prepare(rnd, cardmso):
    """Parse the round's texts (the traced run records these as spans)."""
    from workloads import FORMULAS, graph_text

    graphs = {name: cardmso.graph.parse_graph(graph_text(n, edges))
              for name, (n, edges) in rnd.graphs.items()}
    formulas = {name: cardmso.formula.parse_formula(FORMULAS[name]()) for name in rnd.formulas()}
    return graphs, formulas


def execute(query, graph, formulas, cardmso):
    """Run one query; returns (answer, witness sets or None). Library
    functions are looked up on their modules at call time so that the
    traced run's wrappers are used."""
    if query.kind == "check":
        f = formulas[query.formula]
        if query.k is not None:
            f = cardmso.formula.substitute_params(f, {"k": query.k})
        verdict = cardmso.solver.check(graph, f, mode=query.mode)
        return verdict.holds, verdict.witness.sets if verdict.holds else None
    if query.kind == "partition":
        inst = cardmso.partitioning.PartitionInstance(formulas[query.formula], query.parts)
        verdict = cardmso.partitioning.mso_partition(graph, inst, mode=query.mode)
        return verdict.holds, verdict.parts
    result = cardmso.balanced.cbalanced(graph, query.parts)
    return result.cut_value, result.parts


def run_round(rnd, cardmso, clock, tracer, deadline_at: float, failures: list[dict]):
    """Run every query of the round; returns (wall seconds, reference
    seconds) per query started. (workloads is imported here and in prepare
    because it needs cardmso on the path first.) A query fails when it raises (budget
    refusals included), answers differently from the reference or returns a
    witness its validator rejects; queries not started by the deadline fail
    without running."""
    from workloads import witness_ok

    graphs, formulas = prepare(rnd, cardmso)
    times = []
    for position, query in enumerate(rnd.queries):
        if time.monotonic() > deadline_at:
            failures.append({"query": query.label, "reason": "not started: run deadline", "wrong": False})
            continue
        # garbage from the previous query (truth tables held in reference
        # cycles) is freed now rather than whenever the collector next runs,
        # which would make peak_rss_mb depend on the allocation history
        gc.collect()
        if tracer is not None:
            tracer.query = position
        start = time.perf_counter()
        try:
            answer, sets = execute(query, graphs[query.graph], formulas, cardmso)
        except Exception as exc:  # noqa: BLE001 - every error is a failed query
            answer, sets = exc, None
        end = time.perf_counter()
        times.append((end - start, clock.adjusted(start, end)))
        n, edges = rnd.graphs[query.graph]
        if isinstance(answer, Exception):
            failures.append({"query": query.label, "reason": f"{type(answer).__name__}: {answer}", "wrong": False})
        elif answer != query.expect:
            failures.append({"query": query.label, "reason": f"answered {answer}, reference {query.expect}", "wrong": True})
        elif sets is not None and not witness_ok(query, n, edges, answer, sets):
            failures.append({"query": query.label, "reason": "invalid witness", "wrong": True})
    if tracer is not None:
        tracer.query = None
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cardmso = import_cardmso()
    import workloads
    from speed import SpeedClock
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    def deadline(signum, frame):
        raise RunDeadline(f"run passed {DEADLINE_S} s")

    deadline_at = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(DEADLINE_S)

    first = workloads.make_round(args.workload, args.seed, 0)
    setup = measure_setup(
        [workloads.graph_text(n, edges) for n, edges in first.graphs.values()],
        [workloads.FORMULAS[name]() for name in first.formulas()],
    )

    clock = SpeedClock()
    tracer = Tracer(clock.adjusted) if args.trace else None
    if tracer is not None:
        tracer.install()
    failures: list[dict] = []
    attempted = 0
    rounds: list[list[tuple[float, float]]] = []
    round_walls: list[float] = []
    clock.start()
    begin = time.perf_counter()
    # another round starts only while it would end at most half a round
    # past --seconds, so a run's length centres on --seconds
    while not rounds or time.perf_counter() - begin + statistics.median(round_walls) / 2 <= args.seconds:
        wall = time.perf_counter()
        rnd = first if not rounds else workloads.make_round(args.workload, args.seed, len(rounds))
        rounds.append(run_round(rnd, cardmso, clock, tracer, deadline_at, failures))
        attempted += len(rnd.queries)
        round_walls.append(time.perf_counter() - wall)
    signal.alarm(0)
    if tracer is not None:
        tracer.uninstall()
    clock.stop()

    adjusted = [[ref for _, ref in times] for times in rounds]
    solve = statistics.median(sum(times) for times in adjusted)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(ref for _, ref in setup), "s"),
            "solve_s": (solve, "s"),
            "query_s_geomean": (statistics.median(statistics.geometric_mean(times) for times in adjusted), "s"),
            "slowest_query_s": (statistics.median(max(times) for times in adjusted), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = tracer.layer_metrics(len(rounds))
        layers["trace.solve_s"] = solve
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}

    result = {
        "correct": not any(f["wrong"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        **result,
        "setup_probes_wall_ref_s": setup,
        "query_times_wall_ref_s": rounds,
        "failures": failures,
    }, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    for f in failures:
        print(f"FAILED {f['query']}: {f['reason']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
