#!/usr/bin/env python3
"""Record the work a source tree does on the benchmark's rounds, or compare
two such records. A change that claims to do the same work faster should
leave every record equal.

record runs rounds 0..N-1 of every benchmark workload for one seed through
bench/run.py's prepare/execute, importing cardmso from ROOT/src, and writes
one entry per query: the answer, the witness, every work-pair list
(solver._Pipeline._collect_pairs, as [alpha, pos, row] lists whether it
returns tuples or columns), every rows-path program solved
(solver._Rows.decide, in trees that have it: its variable and row counts
and the solved count row) and the solve counters of every pipeline, rows
program and partition the query made, each counter object once (elapsed
times left out).

Examples:
  python scripts/replay_pairs.py record --root . --seed 1 --rounds 2 --out change.json
  python scripts/replay_pairs.py record --root ../parent --seed 1 --rounds 2 --out parent.json
  python scripts/replay_pairs.py compare parent.json change.json
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path


def _plain(value):
    """JSON form of answers, witnesses and rows (sets become sorted lists)."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    return int(value) if hasattr(value, "__index__") else repr(value)


def _pair_list(pairs) -> list:
    """Work pairs as [alpha, pos, row] lists, from a list of (alpha, pos,
    row) tuples or from the columns (alphas, positions, rows)."""
    if isinstance(pairs, tuple):
        pairs = zip(*(column.tolist() for column in pairs))
    return _plain(list(pairs))


def _counters(stats) -> dict:
    return {k: v for k, v in dataclasses.asdict(stats).items() if k != "elapsed"}


def record(root: Path, seed: int, rounds: int) -> list[dict]:
    sys.path[:0] = [str(root / "bench")]
    import run

    cardmso = run.import_cardmso()
    import workloads  # needs cardmso on the path

    solver, partitioning = cardmso.solver, cardmso.partitioning
    made: dict[str, list] = {"pairs": [], "stats": [], "rows": []}
    collect, init = solver._Pipeline._collect_pairs, solver._Pipeline.__init__
    rows_class = getattr(solver, "_Rows", None)
    partition = partitioning.mso_partition

    def spy_collect(self):
        pairs = collect(self)
        made["pairs"].append(_pair_list(pairs))
        return pairs

    def note(stats):
        # partition's rows path hands its own stats to _Rows.decide, so
        # one object can reach two spies: list it once
        if not any(seen is stats for seen in made["stats"]):
            made["stats"].append(stats)

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        note(self.stats)

    def spy_partition(*args, **kwargs):
        verdict = partition(*args, **kwargs)
        note(verdict.stats)
        return verdict

    if rows_class is not None:
        decide = rows_class.decide

        def spy_decide(self, *args, **kwargs):
            verdict = decide(self, *args, **kwargs)
            program = self.program
            solved = self.solved if verdict.holds else None
            made["rows"].append([len(program.names), len(program.rows), _plain(solved)])
            note(verdict.stats)
            return verdict

        rows_class.decide = spy_decide
    solver._Pipeline._collect_pairs = spy_collect
    solver._Pipeline.__init__ = spy_init
    partitioning.mso_partition = spy_partition
    out = []
    for workload in sorted(workloads.WORKLOADS):
        for index in range(rounds):
            rnd = workloads.make_round(workload, seed, index)
            graphs, formulas = run.prepare(rnd, cardmso)
            for query in rnd.queries:
                made["pairs"], made["stats"], made["rows"] = [], [], []
                answer, sets = run.execute(query, graphs[query.graph], formulas, cardmso)
                out.append({
                    "query": f"{workload}/{index}/{query.label}",
                    "answer": _plain(answer),
                    "witness": _plain(sets),
                    "pairs": made["pairs"],
                    "rows": made["rows"],
                    "stats": [_counters(s) for s in made["stats"]],
                })
                print(out[-1]["query"], out[-1]["answer"], file=sys.stderr)
    return out


def compare(a: list[dict], b: list[dict]) -> int:
    if [r["query"] for r in a] != [r["query"] for r in b]:
        print("the records cover different queries")
        return 1
    differ = 0
    for ra, rb in zip(a, b):
        fields = [
            key for key in ("answer", "witness", "pairs", "rows", "stats")
            if ra.get(key) != rb.get(key)
        ]
        if fields:
            differ += 1
            print(f"{ra['query']}: {', '.join(fields)} differ")
    pairs = [sum(len(p) for r in rec for p in r["pairs"]) for rec in (a, b)]
    programs = [sum(len(r.get("rows", ())) for r in rec) for rec in (a, b)]
    print(
        f"{len(a)} queries, {pairs[0]} / {pairs[1]} work pairs, "
        f"{programs[0]} / {programs[1]} rows programs; {differ} queries differ"
    )
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run the rounds and write a record")
    rec.add_argument("--root", type=Path, required=True, help="source checkout holding src/ and bench/")
    rec.add_argument("--seed", type=int, default=1)
    rec.add_argument("--rounds", type=int, default=2)
    rec.add_argument("--out", type=Path, required=True)
    cmp_ = sub.add_parser("compare", help="compare two records")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.mode == "record":
        args.out.write_text(json.dumps(record(args.root.resolve(), args.seed, args.rounds)))
        return 0
    return compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))


if __name__ == "__main__":
    sys.exit(main())
