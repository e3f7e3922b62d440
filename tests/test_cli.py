"""Command-line surface: exit codes, file outputs, verification plumbing."""

import csv
import errno
import hashlib
import json
import os
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest

from butterfly_agents import cli
from butterfly_agents.graphs import build_port_graph, make_complete_bipartite, save_graph
from butterfly_agents.oracle import diff_per_node
from butterfly_agents.protocols import butterfly as butterfly_module
from butterfly_agents.protocols import election as election_module
from butterfly_agents.protocols.butterfly import OddButterflySum
from butterfly_agents.protocols.treecast import tree_from_states
from butterfly_agents.runtime import write_trace_jsonl


def test_run_butterfly_with_verify_passes(capsys):
    rc = cli.main(
        ["run", "--gen", "complete", "3", "3", "--ids", "seq", "--verify"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "butterflies_total: 9" in out
    assert "verify:      ok" in out


def test_run_meeting_demo(capsys):
    rc = cli.main(
        ["run", "--protocol", "meeting-demo", "--gen", "path", "4",
         "--ids", "seq", "--verify"]
    )
    assert rc == 0
    assert "meetings" in capsys.readouterr().out


def test_meeting_demo_report_and_trace_are_pinned(tmp_path):
    # The report digest is the one the meeting demo wrote before it reported
    # through the phase timeline like every other protocol.  The trace is
    # pinned raw and sorted; each round is written in ascending id, so the
    # two are the same bytes.
    trace = tmp_path / "t.jsonl"
    report = tmp_path / "r.json"
    rc = cli.main(
        ["run", "--protocol", "meeting-demo", "--gen", "random", "4", "5", "--seed", "3",
         "--ids", "list:12,3,40,7,25,1,18,9,30", "--trace", str(trace), "--report", str(report),
         "--verify"]
    )
    assert rc == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "510dea4d541e00eaaa59e3a714c1ee6cc4c93faceb65cbf34a56059f86457751"
    )
    raw_digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert raw_digest == "96ee875912ac3194aebfebd219648ace119e98acfc53edf993c5952de6efa6aa"
    events = sorted(
        (e["round"], e["agent"], e["node"], e["action"], e["port"])
        for e in map(json.loads, trace.read_text().splitlines())
    )
    write_trace_jsonl(str(trace), events)
    sorted_digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert sorted_digest == "96ee875912ac3194aebfebd219648ace119e98acfc53edf993c5952de6efa6aa"
    assert raw_digest == sorted_digest


def test_run_election_and_known_leader(capsys):
    for proto in ("election", "known-leader"):
        rc = cli.main(
            ["run", "--protocol", proto, "--gen", "random", "4", "5",
             "--seed", "3", "--ids", "rand", "--verify"]
        )
        assert rc == 0, proto
        assert "leader: " in capsys.readouterr().out


def test_run_with_explicit_id_list(capsys):
    rc = cli.main(
        ["run", "--gen", "complete", "2", "2", "--ids", "list:7,3,9,5",
         "--protocol", "election", "--verify"]
    )
    assert rc == 0
    assert "leader: 3" in capsys.readouterr().out


def test_run_from_graph_file(tmp_path, capsys):
    g, bip = make_complete_bipartite(3, 2)
    path = str(tmp_path / "g.graph")
    save_graph(path, g, bip)
    rc = cli.main(["run", "--graph", path, "--ids", "seq", "--verify"])
    assert rc == 0
    assert "butterflies_total: 3" in capsys.readouterr().out


def test_unreadable_graph_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.graph"
    garbled = tmp_path / "garbled.graph"
    garbled.write_bytes(b"\xff\xfe 2 2 1\n0 0\n")
    for path, fault in (
        (missing, f"cannot read {missing}: {os.strerror(errno.ENOENT)}"),
        (garbled, f"{garbled}: not UTF-8 text"),
    ):
        assert cli.main(["run", "--graph", str(path), "--ids", "seq"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad graph file: {fault}\n"


@pytest.mark.parametrize("argv, message", [
    (["--graph", "g.graph", "--gen", "complete", "2", "2"],
     "--graph and --gen are mutually exclusive"),
    (["--gen", "random", "3", "3", "1.5"],
     "bad --gen random parameters ['3', '3', '1.5']: edge_prob must be within [0, 1]"),
    (["--gen", "random", "3", "--ids", "seq"],
     "bad --gen random parameters ['3']: not enough values to unpack (expected 3, got 1)"),
    (["--gen", "random", "2", "2", "0.5", "9"],
     "bad --gen random parameters ['2', '2', '0.5', '9']: too many values to unpack (expected 3)"),
    (["--gen", "complete", "2", "2", "--ids", "list:1,x"],
     "bad --ids list: invalid literal for int() with base 10: 'x'"),
    (["--gen", "complete", "2", "2", "--ids", "bogus"],
     "--ids must be seq, rand, or list:... (got 'bogus')"),
    (["--gen", "complete", "2", "2", "--ids", "seq", "--lam", "2"],
     "lam 2 is below max id 3"),
    (["--protocol", "known-leader", "--gen", "complete", "2", "2", "--ids", "seq",
      "--leader", "7"],
     "--leader 7 is not among the agent ids"),
], ids=["graph-and-gen", "random-prob", "random-too-few", "random-too-many", "ids-list",
        "ids-spec", "lam", "leader"])
def test_bad_configuration_is_a_config_error(capsys, argv, message):
    assert cli.main(["run", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_trace_and_report_files(tmp_path):
    trace = tmp_path / "t.jsonl"
    report = tmp_path / "r.json"
    rc = cli.main(
        ["run", "--gen", "complete", "2", "3", "--ids", "seq",
         "--trace", str(trace), "--report", str(report)]
    )
    assert rc == 0
    rows = [json.loads(ln) for ln in trace.read_text().splitlines()]
    assert rows and set(rows[0]) == {"round", "agent", "node", "action", "port"}
    rep = json.loads(report.read_text())
    assert set(rep) == {
        "rounds_total", "rounds_per_phase", "peak_memory_bits", "outputs",
        "total", "per_node", "rounds",
    }
    assert rep["outputs"]["butterflies_total"] == 3
    assert rep["total"] == 3
    assert sum(rep["per_node"].values()) == 4 * rep["total"]
    assert rep["rounds"] == rep["rounds_per_phase"]


def test_bad_generator_is_a_config_error(capsys):
    assert cli.main(["run", "--gen", "donut", "3"]) == 2
    assert cli.main(["run"]) == 2  # neither --gen nor --graph
    assert cli.main(["run", "--gen", "path", "3", "--ids", "list:1,2"]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "--gen", "complete", "3", "3", "--ids", "seq", "--trace"],
    ["run", "--gen", "complete", "3", "3", "--ids", "seq", "--report"],
    ["sweep", "--sizes", "2x2", "--out"],
])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "out")
    assert cli.main(argv + [path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("flag", ["--trace", "--report"])
@pytest.mark.parametrize(
    "target, code",
    [
        ("missing/out", errno.ENOENT),
        ("", errno.EISDIR),
        ("afile/out", errno.ENOTDIR),
        ("x" * 300, errno.ENAMETOOLONG),
    ],
    ids=["missing-directory", "a-directory", "a-file-as-directory", "name-too-long"],
)
def test_unwritable_output_fails_before_the_run(tmp_path, capsys, monkeypatch, flag, target, code):
    def never(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(cli, "count_butterflies", never)
    (tmp_path / "afile").touch()
    path = str(tmp_path / target)
    assert cli.main(["run", "--gen", "complete", "3", "3", "--ids", "seq", flag, path]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {path}: {os.strerror(code)}\n")


@pytest.mark.parametrize("output", ["trace", "sweep-out"])
def test_failed_write_names_the_output(tmp_path, capsys, monkeypatch, output):
    # an error raised by a write, not an open, carries no file name
    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    path = str(tmp_path / "out")
    if output == "trace":
        monkeypatch.setattr(cli, "write_trace_jsonl", full)
        argv = ["run", "--gen", "complete", "3", "3", "--ids", "seq", "--trace", path]
    else:
        monkeypatch.setattr(cli.csv, "writer", lambda out: SimpleNamespace(writerow=full))
        argv = ["sweep", "--sizes", "2x2", "--out", path]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n"


def test_round_budget_below_one_is_a_config_error(capsys):
    for budget in ("0", "-1"):
        for argv in (["run", "--gen", "complete", "3", "3", "--ids", "seq"], ["sweep"]):
            assert cli.main(argv + ["--max-rounds", budget]) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: --max-rounds must be at least 1, got {budget}\n"


def test_odd_cycle_is_a_config_error(capsys, monkeypatch):
    rc = cli.main(["run", "--gen", "clique", "4", "--ids", "seq"])
    assert rc == 2
    assert "odd cycle" in capsys.readouterr().err
    # no generator makes a 5-cycle, so hand the CLI one
    c5 = build_port_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    monkeypatch.setattr(cli, "_build_graph", lambda args: (c5, None))
    rc = cli.main(["run", "--gen", "c5", "--ids", "seq", "--verify"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: agent ") and "odd cycle" in err
    assert err.rstrip().endswith("(phase neighbor-scan)")


def test_verify_checks_partition_on_a_non_bipartite_graph(capsys, monkeypatch):
    # K4 has no 2-coloring: sides are held against tree-depth parity
    argv = ["run", "--gen", "clique", "4", "--ids", "seq", "--protocol", "election", "--verify"]
    assert cli.main(argv) == 0
    assert "verify:      ok" in capsys.readouterr().out

    elect = cli.elect_leader_and_tree

    def corrupted(*args, **kwargs):
        res = elect(*args, **kwargs)
        res.partition[3] ^= 1
        return res

    monkeypatch.setattr(cli, "elect_leader_and_tree", corrupted)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "VERIFY FAIL: agent 3: partition" in err


def test_round_budget_exit_code(capsys):
    rc = cli.main(
        ["run", "--gen", "complete", "3", "3", "--ids", "seq",
         "--max-rounds", "5"]
    )
    assert rc == 3


def test_verify_failure_exit_code(capsys, monkeypatch):
    # sabotage the reference count: verification must notice and fail
    monkeypatch.setattr("butterfly_agents.oracle._checked_total", lambda *args: 999)
    rc = cli.main(["run", "--gen", "complete", "3", "3", "--ids", "seq", "--verify"])
    assert rc == 1
    assert "VERIFY FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["received", "second_root"])
def test_butterfly_full_verify_checks_its_election(capsys, monkeypatch, damage):
    count = cli.count_butterflies

    def corrupted(*args, **kwargs):
        res = count(*args, **kwargs)
        el = res.election
        if damage == "received":
            el = replace(el, received={**el.received, 5: (0, 0, 0, 0, 0)})
        else:
            el = replace(el, tree=replace(el.tree, parent_port={**el.tree.parent_port, 5: None}))
        return replace(res, election=el)

    monkeypatch.setattr(cli, "count_butterflies", corrupted)
    rc = cli.main(["run", "--gen", "complete", "3", "3", "--ids", "seq", "--verify"])
    assert rc == 1
    err = capsys.readouterr().err
    if damage == "received":
        assert "VERIFY FAIL: agent 5: received (0, 0, 0, 0, 0), expected (6, 3, 3, 3, 18)" in err
    else:
        assert "VERIFY FAIL: expected single root 0, found roots [0, 5]" in err


@pytest.mark.parametrize("damage", ["stranger", "unsided", "stranger_root", "stranger_parent"])
def test_verify_names_agents_the_graph_or_the_partition_lacks(capsys, monkeypatch, damage):
    count = cli.count_butterflies

    def corrupted(*args, **kwargs):
        res = count(*args, **kwargs)
        if damage == "stranger":
            return replace(res, per_node={**res.per_node, 99: 0})
        el = res.election
        if damage == "stranger_root":
            return replace(res, election=replace(el, tree=replace(el.tree, root_id=99)))
        if damage == "stranger_parent":
            ports = {**el.tree.parent_port, 99: 0}
            return replace(res, election=replace(el, tree=replace(el.tree, parent_port=ports)))
        partition = {a: s for a, s in el.partition.items() if a != 4}
        return replace(res, election=replace(el, partition=partition))

    monkeypatch.setattr(cli, "count_butterflies", corrupted)
    rc = cli.main(["run", "--gen", "complete", "2", "3", "--ids", "seq", "--verify"])
    assert rc == 1
    err = capsys.readouterr().err
    if damage in ("stranger", "stranger_parent"):
        assert err == "VERIFY FAIL: agent 99: not an agent of this graph\n"
    elif damage == "stranger_root":
        assert err == (
            "VERIFY FAIL: tree root 99, expected 0\n"
            "VERIFY FAIL: agent 99: not an agent of this graph\n"
        )
    else:
        assert "VERIFY FAIL: agent 4: missing from the partition\n" in err


def test_missed_meeting_fails_verify(capsys, monkeypatch):
    real_run = cli.run

    def lossy_run(graph, config, program, **kwargs):
        result = real_run(graph, config, program, **kwargs)
        program.meetings.remove(next(m for m in program.meetings if m[1] == 0))
        return result

    monkeypatch.setattr(cli, "run", lossy_run)
    rc = cli.main(["run", "--protocol", "meeting-demo", "--gen", "path", "4", "--ids", "seq",
                   "--verify"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "VERIFY FAIL: agent 0 never met agent 1 across port 0\n"
    )


def test_slow_assignment_fails_verify(capsys, monkeypatch):
    real_tree = cli.known_leader_tree

    def slow_tree(graph, config, leader, **kwargs):
        res = real_tree(graph, config, leader, **kwargs)
        res.report.rounds_per_phase["assignment"] = 4 * graph.node_count + 1
        return res

    monkeypatch.setattr(cli, "known_leader_tree", slow_tree)
    rc = cli.main(["run", "--protocol", "known-leader", "--gen", "complete", "2", "2",
                   "--ids", "seq", "--verify"])
    assert rc == 1
    assert capsys.readouterr().err == "VERIFY FAIL: assignment took 17 rounds, budget 16\n"


def test_run_without_seed_draws_seed_0_ids(capsys):
    outs = []
    for seed in ([], [], ["--seed", "0"]):
        assert cli.main(["run", "--gen", "complete", "3", "3", "--protocol", "election", *seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_broken_invariant_exits_1(capsys, monkeypatch):
    def odd_fold(graph, config, values, value_width, timeline):
        root = tree_from_states(config.states).root_id
        raise OddButterflySum("total_fold", [root], "holds the odd per-node sum 5")

    monkeypatch.setattr(butterfly_module, "fold_and_halve", odd_fold)
    rc = cli.main(["run", "--gen", "complete", "2", "2", "--ids", "seq"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "invariant broken: total_fold: agents [0] holds the odd per-node sum 5\n"
    )


def test_illegal_port_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli.MeetingWindowProgram, "step", lambda self, state, view: 7)
    rc = cli.main(["run", "--protocol", "meeting-demo", "--gen", "path", "4", "--ids", "seq"])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"illegal port \(phase meeting-window, round 0, agent \d\): "
        r"agent \d at a degree-\d node asked for port 7 in round 0\n", err
    ), err


def test_oracle_self_check_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("butterfly_agents.oracle._enumerate", lambda g, color: 999)
    rc = cli.main(["run", "--gen", "complete", "3", "3", "--ids", "seq", "--verify"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "oracle self-check failed: two-hop count gives 9, enumeration gives 999\n"
    )


def test_diff_per_node_reports_both_directions():
    problems = diff_per_node({1: 4, 2: 0}, {1: 4, 3: 2})
    assert len(problems) == 2
    assert any("node 2" in p for p in problems)
    assert any("node 3" in p for p in problems)
    assert diff_per_node({1: 4}, {1: 4}) == []


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["sweep", "--sizes", "2x2", "3x3", "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[:6] == ["n", "max_degree", "min_side", "id_width", "status", "rounds_total"]
    assert header[-1] == "peak_bits"
    assert len(data) == 2
    assert all(row[4] == "ok" for row in data)
    assert [row[0] for row in data] == ["4", "6"]


def test_sweep_marks_failures(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["sweep", "--sizes", "3x3", "--seed", "1", "--out", str(out),
         "--max-rounds", "4"]
    )
    assert rc == 0  # a failed cell is data, not a crash
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][4].startswith("failed:")


def test_bad_sweep_sizes_is_a_config_error(capsys):
    assert cli.main(["sweep", "--sizes", "banana"]) == 2


def test_bad_sweep_shape_or_probability_is_a_config_error(capsys):
    for argv in (
        ["sweep", "--sizes", "0x3"],
        ["sweep", "--edge-prob", "1.5"],
        ["sweep", "--sizes", "65536x65537"],  # more than 2**32 cross pairs
    ):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""  # rejected before the CSV header is written
        assert err.startswith("error: ")


def test_round_limit_line_names_phase_and_round(capsys):
    rc = cli.main(
        ["run", "--gen", "complete", "3", "3", "--ids", "seq", "--max-rounds", "5"]
    )
    assert rc == 3
    assert capsys.readouterr().err == (
        "round limit (phase election, round 5): "
        "election: no termination within 5 rounds\n"
    )


def test_round_limit_line_names_the_agent(capsys, monkeypatch):
    # every agent starts with an errand one window short of the election's cap
    start = election_module.ElectionProgram.on_start

    def stalled_start(program, states, ctx):
        start(program, states, ctx)
        for s in states:
            s.phase_state.update(trip_port=0, trip_rep=False, trip_done=False,
                                 retry=program._retry_cap)

    monkeypatch.setattr(election_module.ElectionProgram, "on_start", stalled_start)
    assert cli.main(["run", "--gen", "complete", "2", "2", "--ids", "seq"]) == 3
    assert capsys.readouterr().err == (
        "round limit (phase election, round 0, agent 0): "
        "agent 0: errand to port 0 unresolved for 6 windows\n"
    )
