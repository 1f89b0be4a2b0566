"""The benchmark's tracer wraps library functions by name from outside
(bench/tracing.py); deleting or renaming one of them must fail here too."""

import importlib.util
from pathlib import Path

from cardmso import solver

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_benchmark_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = solver.mso_check
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert solver.mso_check is not original
    finally:
        tracer.uninstall()
    assert solver.mso_check is original
