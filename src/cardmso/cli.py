"""Command-line front end.

Exit codes: 0 property holds / optimum found, 1 property fails, 2 usage or
input error, 3 budget exceeded, 4 internal error (any other exception, such
as MemoryError or RecursionError, reported on one `error:` line). A budget
refusal's `error:` line names the budget, its limit and how far the run got.
The --json report is a single JSON document with fixed field order (status,
witness, alpha, stats, cut_value, parts, budget); a refusal prints it too,
with status "refused" and budget {kind, limit, used}. Human output is not a
machine contract.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import ilp, oracle
from .balanced import cbalanced
from .errors import BudgetExceeded, CardMSOError
from .formula import Formula, parse_formula, substitute_params
from .graph import DEFAULT_K_MAX, Graph, parse_graph
from .partitioning import PartitionInstance, mso_partition
from .solver import SolveStats, Verdict, check

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _Dumper:
    def __init__(self, path: str):
        self.path = Path(path)
        self.count = 0
        self.path.write_text("")

    def __call__(self, program: ilp.Program) -> None:
        self.count += 1
        with self.path.open("a") as handle:
            handle.write(f"# instance {self.count}\n")
            handle.write(program.format())


def _add_input(p: argparse.ArgumentParser, problem: str) -> None:
    """The flags that a problem's handler and its oracle's both read."""
    p.add_argument("--graph", required=True, metavar="PATH")
    if problem != "cbalance":
        p.add_argument("--formula", required=True, metavar="PATH")
    if problem == "check":
        p.add_argument(
            "--param", action="append", default=[], metavar="NAME=INT",
            help="bind an integer parameter (repeatable)",
        )
    else:
        p.add_argument("--no-empty-parts", action="store_true")
    if problem == "partition":
        p.add_argument("-r", type=int, required=True)
    if problem == "cbalance":
        p.add_argument("-c", type=int, required=True)
    p.add_argument("--json", action="store_true")


def _add_solver(p: argparse.ArgumentParser, problem: str) -> None:
    """The flags of the pipeline, which the oracles do not run. cbalance
    needs a vertex cover (its cut decomposition assumes every edge has a
    cover endpoint), so it has no --mode."""
    if problem != "cbalance":
        p.add_argument("--mode", choices=["vc", "nd"], default="vc")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    p.add_argument("--dump-ilp", metavar="PATH")
    p.add_argument("--node-budget", type=int, default=ilp.DEFAULT_NODE_BUDGET)


_PROBLEMS = {
    "check": "decide a cardinality-MSO sentence",
    "partition": "partition into r parts each modelling a sentence",
    "cbalance": "minimum cut over equitable c-partitions",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardmso",
        description="Cardinality-MSO model checking, MSO partitioning and "
        "c-balanced partitioning on graphs of small vertex cover.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for problem, summary in _PROBLEMS.items():
        p = sub.add_parser(problem, help=summary)
        _add_input(p, problem)
        _add_solver(p, problem)
    for problem in _PROBLEMS:
        p = sub.add_parser(f"oracle-{problem}", help=f"brute-force reference for {problem}")
        _add_input(p, problem)
    return parser


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text())


def _load_formula(path: str, params: list[str]) -> Formula:
    f = parse_formula(Path(path).read_text())
    bindings = {}
    for item in params:
        name, _, value = item.partition("=")
        if not name or not value:
            raise CardMSOError(f"--param needs NAME=INT, got {item!r}")
        try:
            bindings[name] = int(value)
        except ValueError:
            raise CardMSOError(f"--param value for {name!r} is not an integer")
    if bindings or f.free_params:
        f = substitute_params(f, bindings)
    return f


def _mode_name(flag: str) -> str:
    return "vertex-cover" if flag == "vc" else "neighborhood-diversity"


def _stats_doc(stats: SolveStats) -> dict:
    """SolveStats's fields in declaration order, elapsed as elapsed_seconds."""
    doc = dataclasses.asdict(stats)
    doc["elapsed"] = round(doc["elapsed"], 6)
    return {("elapsed_seconds" if key == "elapsed" else key): value for key, value in doc.items()}


def _names(g: Graph, vertices) -> list[str]:
    return [g.names[v] for v in sorted(vertices)]


def _report(
    as_json: bool, human: str, status: str, *, witness=None, alpha=None,
    stats: SolveStats | None = None, cut_value=None, parts=None, budget=None,
) -> None:
    """Print the human text, or the --json document with its fields in the
    fixed order (null where not given)."""
    if not as_json:
        print(human)
        return
    doc = {
        "status": status,
        "witness": witness,
        "alpha": alpha,
        "stats": _stats_doc(stats) if stats is not None else None,
        "cut_value": cut_value,
        "parts": parts,
        "budget": budget,
    }
    print(json.dumps(doc, indent=2))


def _run_check(args) -> int:
    g = _load_graph(args.graph)
    f = _load_formula(args.formula, args.param)
    dump = _Dumper(args.dump_ilp) if args.dump_ilp else None
    verdict: Verdict = check(
        g, f, mode=_mode_name(args.mode), k_max=args.k_max,
        node_budget=args.node_budget, dump=dump,
    )
    witness_doc = None
    human = "does not hold"
    if verdict.holds:
        witness_doc = [
            {"variable": name, "vertices": _names(g, s)}
            for name, s in zip(f.prefix, verdict.witness.sets)
        ]
        lines = [
            f"{name} = {{{', '.join(_names(g, s))}}}"
            for name, s in zip(f.prefix, verdict.witness.sets)
        ]
        human = "holds\n" + "\n".join(lines)
    _report(
        args.json, human, "holds" if verdict.holds else "fails", witness=witness_doc,
        alpha=list(verdict.alpha) if verdict.alpha is not None else None,
        stats=verdict.stats,
    )
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def _run_partition(args) -> int:
    g = _load_graph(args.graph)
    f = _load_formula(args.formula, [])
    dump = _Dumper(args.dump_ilp) if args.dump_ilp else None
    verdict = mso_partition(
        g, PartitionInstance(f, args.r), mode=_mode_name(args.mode),
        k_max=args.k_max, allow_empty=not args.no_empty_parts,
        node_budget=args.node_budget, dump=dump,
    )
    parts_doc = None
    human = "does not hold"
    if verdict.holds:
        parts_doc = [_names(g, p) for p in verdict.parts]
        human = "holds\n" + "\n".join(" ".join(names) if names else "(empty)" for names in parts_doc)
    _report(
        args.json, human, "holds" if verdict.holds else "fails",
        stats=verdict.stats, parts=parts_doc,
    )
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def _run_cbalance(args) -> int:
    g = _load_graph(args.graph)
    dump = _Dumper(args.dump_ilp) if args.dump_ilp else None
    result = cbalanced(
        g, args.c, k_max=args.k_max, allow_empty=not args.no_empty_parts,
        node_budget=args.node_budget, dump=dump,
    )
    if result is None:
        _report(args.json, "infeasible (empty parts disallowed)", "infeasible")
        return EXIT_FAILS
    parts_doc = [_names(g, p) for p in result.parts]
    human = f"cut {result.cut_value}\n" + "\n".join(
        " ".join(names) if names else "(empty)" for names in parts_doc
    )
    _report(
        args.json, human, "optimal", stats=result.stats,
        cut_value=result.cut_value, parts=parts_doc,
    )
    return EXIT_HOLDS


def _run_oracle_check(args) -> int:
    g = _load_graph(args.graph)
    f = _load_formula(args.formula, args.param)
    holds = oracle.brute_check(g, f)
    _report(args.json, "holds" if holds else "does not hold", "holds" if holds else "fails")
    return EXIT_HOLDS if holds else EXIT_FAILS


def _run_oracle_partition(args) -> int:
    g = _load_graph(args.graph)
    f = _load_formula(args.formula, [])
    holds = oracle.brute_partition(g, f, args.r, allow_empty=not args.no_empty_parts)
    _report(args.json, "holds" if holds else "does not hold", "holds" if holds else "fails")
    return EXIT_HOLDS if holds else EXIT_FAILS


def _run_oracle_cbalance(args) -> int:
    g = _load_graph(args.graph)
    cut = oracle.brute_cbalanced(g, args.c, allow_empty=not args.no_empty_parts)
    if cut is None:
        _report(args.json, "infeasible (empty parts disallowed)", "infeasible")
        return EXIT_FAILS
    _report(args.json, f"cut {cut}", "optimal", cut_value=cut)
    return EXIT_HOLDS


_HANDLERS = {
    "check": _run_check,
    "partition": _run_partition,
    "cbalance": _run_cbalance,
    "oracle-check": _run_oracle_check,
    "oracle-partition": _run_oracle_partition,
    "oracle-cbalance": _run_oracle_cbalance,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if getattr(args, "node_budget", 1) < 1:
            raise CardMSOError("--node-budget must be >= 1")
        if getattr(args, "k_max", 0) < 0:
            raise CardMSOError("--k-max must be >= 0")
        return _HANDLERS[args.command](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.json:
            budget = {"kind": exc.kind, "limit": exc.limit, "used": exc.used}
            _report(True, "", "refused", budget=budget)
        return EXIT_BUDGET
    except (CardMSOError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(
            f"error: internal error: {type(exc).__name__}"
            + (f": {detail}" if detail else ""),
            file=sys.stderr,
        )
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
