import json

import pytest

from cardmso import cli, corpus
from cardmso.cli import run

C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
P3 = "p 3 2\ne 1 2\ne 2 3\n"
P4 = "p 4 3\ne 1 2\ne 2 3\ne 3 4\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("c4.g", C4), ("p3.g", P3), ("p4.g", P4)]:
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
    assert doc["stats"]["shapes"] > doc["stats"]["satisfying_shapes"] > 0
    assert doc["budget"] is None

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
    from cardmso.formula import parse_formula, pre_evaluate
    from cardmso.graph import parse_graph
    from cardmso.mso_eval import mso_check

    g = parse_graph(C4)
    f = parse_formula(corpus.bipartite_equal())
    name_to_index = {name: i for i, name in enumerate(g.names)}
    fixed = {
        item["variable"]: frozenset(name_to_index[v] for v in item["vertices"])
        for item in doc["witness"]
    }
    body = pre_evaluate(f, tuple(doc["alpha"]))
    assert mso_check(g, body.body, fixed_sets=fixed)


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
