import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cardmso import cli, corpus, oracle
from cardmso.cli import run

C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
P3 = "p 3 2\ne 1 2\ne 2 3\n"
P4 = "p 4 3\ne 1 2\ne 2 3\ne 3 4\n"
# every part a disjoint union of cliques: three universal vertex variables
# keep it off the rows path, so partition decides it on shapes
CLUSTER = "forall u. forall v. forall w. ((adj(u, v) & adj(v, w) & !(u = w)) -> adj(u, w))\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("c4.g", C4), ("p3.g", P3), ("p4.g", P4), ("cluster.cms", CLUSTER)]:
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    for name, builder in corpus.CORPUS_FILES.items():
        (tmp_path / name).write_text(builder())
        paths[name] = str(tmp_path / name)
    return paths


def test_check_holds_exit_zero(files, capsys):
    code = run(["check", "--graph", files["c4.g"], "--formula", files["bipartite_equal.cms"]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("holds")
    assert "X1" in out and "X2" in out


def test_check_fails_exit_one(files):
    assert run(["check", "--graph", files["p3.g"], "--formula", files["bipartite_equal.cms"]]) == 1


def test_check_with_parameter(files, capsys):
    code = run([
        "check", "--graph", files["p3.g"], "--formula", files["ids_k.cms"],
        "--param", "k=1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "2" in out  # the path centre by name


def test_missing_parameter_is_usage_error(files):
    assert run(["check", "--graph", files["p3.g"], "--formula", files["ids_k.cms"]]) == 2


def test_cbalance(files, capsys):
    code = run(["cbalance", "--graph", files["p4.g"], "-c", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "cut 1"
    assert len(out.splitlines()) == 3


def test_cbalance_nd_rejected(files, capsys):
    assert run(["cbalance", "--graph", files["p4.g"], "-c", "2", "--mode", "nd"]) == 2


# flags a subcommand used to parse and then ignore: each is now unknown to it
UNREAD_FLAGS = [
    ("check", "--no-empty-parts"),
    ("cbalance", "--mode"),
    *[
        ("oracle-check", flag)
        for flag in ("--mode", "--k-max", "--dump-ilp", "--no-empty-parts", "--node-budget")
    ],
    *[
        (command, flag)
        for command in ("oracle-partition", "oracle-cbalance")
        for flag in ("--mode", "--k-max", "--dump-ilp", "--node-budget")
    ],
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flags_are_usage_errors(files, tmp_path, command, flag):
    inputs = {
        "check": ["--formula", files["bipartite_equal.cms"]],
        "oracle-check": ["--formula", files["bipartite_equal.cms"]],
        "oracle-partition": ["--formula", files["independence.cms"], "-r", "2"],
        "cbalance": ["-c", "2"],
        "oracle-cbalance": ["-c", "2"],
    }[command]
    dump = tmp_path / "dump.ilp"
    value = {"--mode": ["vc"], "--k-max": ["0"], "--dump-ilp": [str(dump)], "--node-budget": ["1"]}
    argv = [command, "--graph", files["c4.g"], *inputs, flag, *value.get(flag, [])]
    assert run(argv) == 2
    assert not dump.exists()


def test_partition(files):
    assert run(["partition", "--graph", files["c4.g"], "--formula", files["independence.cms"], "-r", "2"]) == 0
    assert run(["partition", "--graph", files["c4.g"], "--formula", files["clique.cms"], "-r", "1"]) == 1


def test_oracle_subcommands_mirror(files):
    assert run(["oracle-check", "--graph", files["c4.g"], "--formula", files["bipartite_equal.cms"]]) == 0
    assert run(["oracle-check", "--graph", files["p3.g"], "--formula", files["bipartite_equal.cms"]]) == 1
    assert run(["oracle-partition", "--graph", files["c4.g"], "--formula", files["independence.cms"], "-r", "2"]) == 0
    assert run(["oracle-cbalance", "--graph", files["p4.g"], "-c", "2"]) == 0


FIELDS = ["status", "witness", "alpha", "stats", "cut_value", "parts", "budget"]
STATS_KEYS = [
    "pre_evaluations", "prefix_assignments", "ilp_solves",
    "elapsed_seconds", "cover_size", "type_count", "reduced_vertices",
    "ilp_nodes", "count_states", "shapes", "satisfying_shapes",
    "ilp_lp_refutations",
]


def test_json_field_order_is_stable(files, capsys):
    code = run([
        "check", "--graph", files["c4.g"], "--formula", files["bipartite_equal.cms"], "--json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == FIELDS
    assert doc["status"] == "holds"
    assert doc["alpha"] == [True, True]
    assert list(doc["stats"].keys()) == STATS_KEYS

    assert run([
        "partition", "--graph", files["c4.g"], "--formula", files["independence.cms"],
        "-r", "2", "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc.keys()) == FIELDS
    assert (doc["status"], doc["witness"], doc["alpha"], doc["cut_value"]) == ("holds", None, None, None)
    assert sorted(doc["parts"]) == [["1", "3"], ["2", "4"]]
    assert list(doc["stats"].keys()) == STATS_KEYS
    # independence takes the rows path, which lists no shape
    assert doc["stats"]["shapes"] == doc["stats"]["satisfying_shapes"] == 0
    assert doc["budget"] is None
    assert run([
        "partition", "--graph", files["c4.g"], "--formula", files["cluster.cms"],
        "-r", "2", "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["stats"].keys()) == STATS_KEYS
    assert doc["stats"]["shapes"] > doc["stats"]["satisfying_shapes"] > 0

    assert run(["cbalance", "--graph", files["p4.g"], "-c", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc.keys()) == FIELDS
    assert (doc["status"], doc["witness"], doc["alpha"], doc["cut_value"]) == ("optimal", None, None, 1)
    assert sorted(len(part) for part in doc["parts"]) == [2, 2]
    assert list(doc["stats"].keys()) == STATS_KEYS

    assert run([
        "oracle-check", "--graph", files["p3.g"], "--formula", files["bipartite_equal.cms"], "--json",
    ]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == dict.fromkeys(FIELDS) | {"status": "fails"}

    assert run([
        "partition", "--graph", files["c4.g"], "--formula", files["independence.cms"],
        "-r", "2", "--node-budget", "1", "--json",
    ]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc == dict.fromkeys(FIELDS) | {
        "status": "refused", "budget": {"kind": "ilp-nodes", "limit": 1, "used": 2},
    }


def test_json_witness_reverifies_with_oracle(files, capsys):
    run([
        "check", "--graph", files["c4.g"], "--formula", files["bipartite_equal.cms"], "--json",
    ])
    doc = json.loads(capsys.readouterr().out)
    from cardmso.formula import constraint_truths, parse_formula
    from cardmso.graph import parse_graph

    g = parse_graph(C4)
    f = parse_formula(corpus.bipartite_equal())
    name_to_index = {name: i for i, name in enumerate(g.names)}
    masks = {
        item["variable"]: sum(1 << name_to_index[v] for v in item["vertices"])
        for item in doc["witness"]
    }
    sizes = {name: mask.bit_count() for name, mask in masks.items()}
    assert constraint_truths(f, sizes) == tuple(doc["alpha"])
    assert oracle._LoopEval(g, f.constraints).eval(f.body, masks, {})


def test_dump_ilp(files, tmp_path, capsys):
    dump = tmp_path / "dump.txt"
    run([
        "check", "--graph", files["c4.g"], "--formula", files["bipartite_equal.cms"],
        "--dump-ilp", str(dump),
    ])
    text = dump.read_text()
    assert "# instance 1" in text
    assert "<=" in text or ">=" in text or "=" in text


@pytest.mark.parametrize("command", [
    ["check", "--formula", "ids_k.cms", "--param", "k=5"],
    ["check", "--formula", "ids_k.cms", "--param", "k=6"],
    ["partition", "--formula", "independence.cms", "-r", "2"],
    ["cbalance", "-c", "2"],
])
def test_dump_ilp_writes_one_program_per_solve(files, tmp_path, capsys, command):
    # a star with 9 leaves keeps twins past the reduction threshold, so
    # work pairs reach the ILP; the dump holds the program each one solves
    graph = tmp_path / "star.g"
    graph.write_text("p 10 9\n" + "".join(f"e 1 {v}\n" for v in range(2, 11)))
    dump = tmp_path / "dump.txt"
    args = [files.get(a, a) for a in command]
    run([*args[:1], "--graph", str(graph), *args[1:], "--dump-ilp", str(dump), "--json"])
    stats = json.loads(capsys.readouterr().out)["stats"]
    programs = dump.read_text().count("# instance ")
    assert programs == stats["ilp_solves"] > 0


def test_dump_ilp_without_slack_writes_one_program_per_decided_pair(tmp_path, capsys):
    # reduction keeps an 8-cycle whole (every non-cover vertex has its own
    # pair of cover neighbours), so cbalance decides its pairs in bulk; the
    # dump still holds one program per pair decided
    graph, dump = tmp_path / "c8.g", tmp_path / "dump.txt"
    graph.write_text("p 8 8\n" + "".join(f"e {v + 1} {(v + 1) % 8 + 1}\n" for v in range(8)))
    run(["cbalance", "--graph", str(graph), "-c", "3", "--dump-ilp", str(dump), "--json"])
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["reduced_vertices"] == 8
    assert dump.read_text().count("# instance ") == stats["ilp_solves"] > 1


def test_dumped_program_is_the_one_solved(files, tmp_path, capsys):
    # ids_k with k=9 holds on a star with 9 leaves; the leaves outgrow the
    # reduction, so check takes the rows path and dumps its one program,
    # whose search gives the witness its 9 leaves. The program's columns are
    # the counts x and the indicators z = [x >= 1]
    from cardmso.formula import parse_formula
    from cardmso.graph import min_vertex_cover, parse_graph, type_partition

    star = "p 10 9\n" + "".join(f"e 1 {v}\n" for v in range(2, 11))
    graph, dump = tmp_path / "star.g", tmp_path / "dump.txt"
    graph.write_text(star)
    code = run([
        "check", "--graph", str(graph), "--formula", files["ids_k.cms"], "--param", "k=9",
        "--dump-ilp", str(dump), "--json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["stats"]["ilp_solves"] == 1
    domains, rows = {}, []
    for line in dump.read_text().split("# instance ")[-1].splitlines()[1:]:
        if line.startswith("# var "):
            name, bounds = line[len("# var "):].split(" in ")
            domains[name] = json.loads(bounds)
        else:
            lhs, rhs = line.split(" <= ")
            terms = [term.split("*") for term in lhs.split(" + ")] if lhs != "0" else []
            rows.append(([(int(c), name) for c, name in terms], int(rhs)))
    # the witness's count per (type, signature) column
    g = parse_graph(star)
    prefix = parse_formula(corpus.independent_dominating()).prefix
    index = {name: i for i, name in enumerate(g.names)}
    sets = {item["variable"]: {index[v] for v in item["vertices"]} for item in doc["witness"]}
    counts = dict.fromkeys(domains, 0)
    for t, members in enumerate(type_partition(g, min_vertex_cover(g)).types):
        for v in members:
            sig = sum(1 << i for i, name in enumerate(prefix) if v in sets[name])
            counts[f"x_t{t}_s{sig}"] += 1
    for name in [name for name in counts if name.startswith("x")]:
        counts["z" + name[1:]] = int(counts[name] >= 1)
    assert len(counts) == len(domains) and rows
    assert max(hi - lo for lo, hi in domains.values()) > 0  # the search had room
    for name, (lo, hi) in domains.items():
        assert lo <= counts[name] <= hi, name
    for terms, rhs in rows:
        assert sum(c * counts[name] for c, name in terms) <= rhs


def test_dumped_objective_is_the_whole_cut(tmp_path, capsys):
    # cover vertices 1 and 2 are joined and each has 9 leaves of its own,
    # past the reduction threshold; the least cut splits them, so it counts
    # their edge. Each dumped program that admits the witness's count row
    # pins the cover vertices' parts as the witness has them, and its
    # objective there is the whole cut
    from cardmso.graph import min_vertex_cover, parse_graph, type_partition

    edges = [(1, 2)] + [(1, v) for v in range(3, 12)] + [(2, v) for v in range(12, 21)]
    text = f"p 20 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    graph, dump = tmp_path / "joined.g", tmp_path / "dump.txt"
    graph.write_text(text)
    run(["cbalance", "--graph", str(graph), "-c", "2", "--dump-ilp", str(dump), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert type(doc["cut_value"]) is int and doc["cut_value"] == 1
    assert doc["stats"]["reduced_vertices"] < 20
    g = parse_graph(text)
    index = {name: i for i, name in enumerate(g.names)}
    part = {index[v]: i for i, names in enumerate(doc["parts"]) for v in names}
    counts: dict[str, int] = {}
    for t, members in enumerate(type_partition(g, min_vertex_cover(g)).types):
        for v in members:
            name = f"x_t{t}_s{1 << part[v]}"
            counts[name] = counts.get(name, 0) + 1
    admitting = 0
    for program in dump.read_text().split("# instance ")[1:]:
        domains, objective = {}, None
        for line in program.splitlines()[1:]:
            if line.startswith("# var "):
                name, bounds = line[len("# var "):].split(" in ")
                domains[name] = json.loads(bounds)
            elif line.startswith("# minimize "):
                objective = [term.split("*") for term in line[len("# minimize "):].split(" + ")]
        if all(lo <= counts.get(name, 0) <= hi for name, (lo, hi) in domains.items()):
            admitting += 1
            assert sum(int(c) * counts.get(name, 0) for c, name in objective) == doc["cut_value"]
    assert admitting


def test_bad_graph_file_exit_two(tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("p 2 1\ne 1 7\n")
    form = tmp_path / "f.cms"
    form.write_text(corpus.bipartite_equal())
    assert run(["check", "--graph", str(bad), "--formula", str(form)]) == 2


def test_missing_file_exit_two(tmp_path):
    form = tmp_path / "f.cms"
    form.write_text(corpus.bipartite_equal())
    assert run(["check", "--graph", str(tmp_path / "nope.g"), "--formula", str(form)]) == 2


def test_budget_exit_three(files, capsys):
    code = run([
        "check", "--graph", files["c4.g"], "--formula", files["bipartite_equal.cms"],
        "--k-max", "0",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    # every cover of at most k_max vertices was ruled out
    assert captured.err == "error: vertex-cover budget exceeded (limit 0, reached 1)\n"

    code = run([
        "check", "--graph", files["c4.g"], "--formula", files["bipartite_equal.cms"],
        "--k-max", "0", "--json",
    ])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "refused"
    assert doc["budget"] == {"kind": "vertex-cover", "limit": 0, "used": 1}


def test_budget_error_line_says_how_far_the_run_got(files, capsys):
    code = run([
        "partition", "--graph", files["c4.g"], "--formula", files["independence.cms"],
        "-r", "2", "--node-budget", "1",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: ilp-nodes budget exceeded (limit 1, reached 2)\n"


def test_removed_flags_rejected(files):
    for flags in (["--threads", "4"], ["--no-dedup"]):
        assert run([
            "check", "--graph", files["c4.g"], "--formula", files["bipartite_equal.cms"],
            *flags,
        ]) == 2


def test_no_empty_parts_flag(files):
    assert run([
        "partition", "--graph", files["c4.g"], "--formula", files["independence.cms"],
        "-r", "5", "--no-empty-parts",
    ]) == 1
    assert run([
        "partition", "--graph", files["c4.g"], "--formula", files["independence.cms"],
        "-r", "5",
    ]) == 0


def test_partition_with_a_large_part_exits_zero(tmp_path, files, capsys):
    star = tmp_path / "star40.g"
    star.write_text("p 41 40\n" + "".join(f"e 1 {i}\n" for i in range(2, 42)))
    code = run([
        "partition", "--graph", str(star), "--formula", files["independence.cms"],
        "-r", "2", "--json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert sorted(len(part) for part in doc["parts"]) == [1, 40]
    assert doc["stats"]["ilp_nodes"] >= 1


@pytest.mark.parametrize("error", [MemoryError(), RecursionError("maximum depth\nexceeded")])
def test_unexpected_error_exits_four(files, capsys, monkeypatch, error):
    def broken(args):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "check", broken)
    code = run(["check", "--graph", files["c4.g"], "--formula", files["bipartite_equal.cms"]])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INTERNAL == 4
    assert err.count("\n") == 1
    assert err.startswith("error: internal error: " + type(error).__name__)


@pytest.mark.parametrize("command, formula, limit", [
    # equitable_connected_3 keeps the enumeration path, whose typed
    # evaluator memoises its set-quantified conjuncts
    (["check"], "equitable_connected_3.cms", 1000),
    # on the shape path partition keeps one evaluator, and its memo, for
    # all of a query's shapes, so the budget adds up across them: here no
    # one of the 144 shapes stores more than 86 weighted entries, all of
    # them 5,314
    (["partition", "-r", "2"], "cluster.cms", 100),
])
def test_memo_budget_refuses_with_exit_three(files, tmp_path, command, formula, limit):
    # with the memo limited, a 12-vertex planted cover refuses early, in a
    # subprocess that reports its own peak memory on its last stderr line
    graph = tmp_path / "cover.g"
    edges = [(u, v) for u in range(2) for v in range(u + 1, 12) if (u + 3 * v) % 4]
    graph.write_text(f"p 12 {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges))
    code = (
        "import resource, sys\n"
        "from cardmso import cli, typed_eval\n"
        f"typed_eval.MEMO_BUDGET = {limit}\n"
        "code = cli.run(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, *command, "--graph", str(graph),
         "--formula", files[formula], "--json"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == cli.EXIT_BUDGET == 3, done.stderr
    budget = json.loads(done.stdout)["budget"]
    assert (budget["kind"], budget["limit"]) == ("mso-memo", limit) and budget["used"] > limit
    lines = done.stderr.splitlines()
    assert lines[0].startswith(f"error: mso-memo budget exceeded (limit {limit}, reached ")
    assert int(lines[-1]) < 300 * 1024  # ru_maxrss is in KiB


def _run_measured(args: list[str]) -> tuple[int, dict, float, int]:
    """cli.run in a subprocess: (exit code, JSON report, seconds the run
    took, peak RSS in KiB). The peak is the process's own VmHWM: Linux
    carries the parent's peak into a child's ru_maxrss when it spawns it."""
    code = (
        "import sys, time\n"
        "from cardmso import cli\n"
        "start = time.perf_counter()\n"
        "code = cli.run(sys.argv[1:])\n"
        "print(time.perf_counter() - start, file=sys.stderr)\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, *args, "--json"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    *_, seconds, peak = done.stderr.splitlines()
    return done.returncode, json.loads(done.stdout), float(seconds), int(peak)


@pytest.mark.parametrize("body", [
    "forall b. ({})",  # in the rows fragment: its column-pair grids are refused
    "exists a. forall b. (({}) -> a = b)",  # outside it: the pipeline's columns are
])
def test_wide_prefix_is_refused_before_its_columns_are_built(files, tmp_path, body):
    # 22 prefix sets on P3's two types make 2^23 columns; building them
    # took 9 s and 3 GB before the refusal
    sets = [f"X{i}" for i in range(22)]
    text = "".join(f"exists {s}. " for s in sets) + body.format(" | ".join(f"b in {s}" for s in sets))
    (tmp_path / "wide.cms").write_text(text)
    code, doc, seconds, peak = _run_measured(
        ["check", "--graph", files["p3.g"], "--formula", str(tmp_path / "wide.cms")]
    )
    assert code == cli.EXIT_BUDGET and doc["budget"]["kind"] == "mso-cells"
    assert seconds < 1 and peak < 200 * 1024  # ru_maxrss is in KiB


def test_many_pieces_are_refused_before_the_columns_are_built(files):
    # c = 12 gives 66 size pieces, past the 16 allowed; the columns of 12
    # sets with their 132 constraint rows took 148 MB before the refusal
    code, doc, seconds, peak = _run_measured(["cbalance", "--graph", files["p3.g"], "-c", "12"])
    assert code == cli.EXIT_BUDGET and doc["budget"]["kind"] == "pre-evaluation-pieces"
    assert peak < 100 * 1024


@pytest.mark.parametrize("preset", [None, "3"])
def test_blas_runs_single_threaded_unless_set(preset):
    # the root LP's dense products are small: a BLAS thread pool made a
    # rows-path check 10 times slower on a 2-vCPU machine. The thread count
    # is read when numpy is imported, so the package sets it first
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    code = "import os, cardmso.cli; print(*(os.environ[name] for name in %r))" % (names,)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["1", preset or "1", "1"], done.stderr
