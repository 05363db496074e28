"""End-to-end CLI coverage, in-process via main(argv).

The tests at the bottom exercise the console script's entry point and the
README's command lines; everything else calls main() directly so coverage
and debuggers see it.
"""

import filecmp
import json
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from costshare import (
    add_terminal,
    explicit_metric,
    initial_state,
    parse_rational,
    schedule_from_jsonable,
    schedule_to_jsonable,
    solution_cost,
    verify_equilibrium,
    with_revealed,
)
from costshare.cli import (
    DATA_FILES,
    GENERATORS,
    build_parser,
    main,
    snapshot_from_jsonable,
    snapshot_to_jsonable,
)
from costshare.dynamics import ArrivalEvent, ArrivalItem, run_eqp, run_noneqp
from costshare.errors import ClosureViolationError
from costshare.metric import instance_from_dict, instance_to_dict
from costshare.routing import Witness, has_improving_move
from conftest import OFF_TREE, line_instance
from oracles import check_invariants


ROOT = Path(__file__).resolve().parent.parent


def _read_summary(path):
    header, row = path.read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


# ---------------------------------------------------------------------------
# gen


def test_gen_gm_writes_instance_schedule_and_paths(tmp_path, capsys):
    assert main(["gen", "--gen", "gm", "--m", "2", "--out", str(tmp_path)]) == 0
    assert "n=13" in capsys.readouterr().out
    events = schedule_from_jsonable(json.loads((tmp_path / "schedule.json").read_text()))
    assert len(events) == 32
    paths = json.loads((tmp_path / "paths.json").read_text())
    assert sorted(paths) == ["1,1", "1,2", "2,1", "2,2"]
    assert all(len(p) == 4 and p[-1] == 0 for p in paths.values())


def test_gen_gm_refuses_unsupported_m(tmp_path, capsys):
    assert main(["gen", "--gen", "gm", "--m", "6", "--out", str(tmp_path)]) == 2
    assert "m <= 5" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["gen", "run"])
def test_gm_m_is_refused_before_the_family_is_built(tmp_path, capsys, monkeypatch, command):
    # build_gm grows as (m^3)^2 in time and memory, so a large --m must be
    # refused before it runs
    def unbuildable(m):
        raise AssertionError(f"build_gm({m}) called")

    monkeypatch.setattr("costshare.cli.build_gm", unbuildable)
    mode = ["--mode", "noneqp"] if command == "run" else []
    assert main([command, "--gen", "gm", "--m", "1000", *mode,
                 "--out", str(tmp_path / "out")]) == 2
    assert "m <= 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# flags without a default, so that leaving one out leaves its key unset
_REQUIRED = {"m": "2", "n": "5"}
_VALUES = {**_REQUIRED, "seed": "0", "profile": "churn"}


def _missing_key_cases():
    for gen, row in sorted(GENERATORS.items()):
        for command in ("gen", "run", "sweep"):
            if command == "sweep" and not row.modes:
                continue  # sweep offers only generators with a schedule
            for key in row.keys:
                if key in _REQUIRED:
                    yield pytest.param(command, gen, key, id=f"{command}-{gen}-{key}")


@pytest.mark.parametrize("command, gen, key", _missing_key_cases())
def test_a_missing_generator_key_exits_2(tmp_path, capsys, command, gen, key):
    row = GENERATORS[gen]
    argv = [command, "--gen", gen]
    for k in row.keys:
        if k != key:
            argv += [f"--{'seeds' if command == 'sweep' and k == 'seed' else k}", _VALUES[k]]
    if command != "gen" and row.modes:
        argv += ["--mode", row.modes[0]]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: --gen {gen} needs --{key}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, says", [
    (["run", "--gen", "gm", "--m", "3"], "--mode noneqp"),
    (["sweep", "--gen", "gm", "--m", "1,2"], "--mode noneqp"),
    (["run", "--gen", "poa", "--n", "3"], "`costshare gen --gen poa` and `costshare verify`"),
], ids=["run-gm", "sweep-gm", "run-poa"])
def test_a_generator_runs_only_in_its_modes(tmp_path, capsys, monkeypatch, argv, says):
    # the gm schedule pins one-shot best responses, and poa has no schedule:
    # both are refused before the instance is built
    def unbuildable(*args):
        raise AssertionError("generator called")

    monkeypatch.setattr("costshare.cli.build_gm", unbuildable)
    monkeypatch.setattr("costshare.cli.build_poa_fixture", unbuildable)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err
    assert not (tmp_path / "out").exists()


def test_gen_poa_snapshot_passes_verify(tmp_path, capsys):
    assert main(["gen", "--gen", "poa", "--n", "5", "--out", str(tmp_path)]) == 0
    snap = tmp_path / "snapshot.json"
    assert main(["verify", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "equilibrium: yes" in out and "certified yes" in out

    state, family = snapshot_from_jsonable(json.loads(snap.read_text()))
    assert verify_equilibrium(state).ok
    check_invariants(family)


def test_verify_rejects_doctored_snapshot(tmp_path, capsys):
    main(["gen", "--gen", "poa", "--n", "5", "--out", str(tmp_path)])
    snap = json.loads((tmp_path / "snapshot.json").read_text())
    snap["terminals"][0][1] = 1  # melt the crowd down to one agent
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(snap))
    assert main(["verify", str(doctored)]) == 4
    assert "equilibrium: NO" in capsys.readouterr().out


def test_verify_names_the_first_improving_terminal_not_the_first_leaf(tmp_path, capsys):
    # Terminal 1 rides (1, 2, 0) at 1/2 + 1/2 and improves by (1, 0) at
    # 9/10; leaf 3 below it improves too.  The sweep searches leaf 3 first,
    # yet the witness is the smallest improving terminal, interior 1.
    inst = explicit_metric(4, {
        (0, 1): Fraction(9, 10), (0, 2): Fraction(1), (0, 3): Fraction(19, 10),
        (1, 2): Fraction(1), (1, 3): Fraction(1), (2, 3): Fraction(2),
    })
    state = with_revealed(initial_state(inst), range(1, 4))
    state = add_terminal(add_terminal(state, 1, 1, (1, 2, 0)), 3, 1, (3, 1, 2, 0))
    assert state.view.leaves == {3} and has_improving_move(state, 3)
    assert verify_equilibrium(state).witness == Witness(1, (1, 0), Fraction(1), Fraction(9, 10))
    snap = tmp_path / "snapshot.json"
    snap.write_text(json.dumps(snapshot_to_jsonable(state)))
    assert main(["verify", str(snap)]) == 4
    human, line = capsys.readouterr().out.splitlines()
    assert human == "equilibrium: NO — terminal witness at vertex 1 (current 1, better 9/10)"
    assert line == '{"candidate":"9/10","current":"1","path":[1,0],"vertex":1}'


def test_verify_names_the_witness_of_a_non_tree_snapshot(tmp_path, capsys):
    # OFF_TREE's one-shot run ends off the tree; the sweep then decides
    # every terminal, and 4 is the first that improves.
    costs, events = OFF_TREE
    state = run_noneqp(explicit_metric(5, costs), events, verify=False).state
    snap = tmp_path / "snapshot.json"
    snap.write_text(json.dumps(snapshot_to_jsonable(state)))
    assert main(["verify", str(snap)]) == 4
    human, line = capsys.readouterr().out.splitlines()
    assert human == "equilibrium: NO — terminal witness at vertex 4 (current 38/3, better 203/68)"
    assert line == '{"candidate":"203/68","current":"38/3","path":[4,3,1,0],"vertex":4}'


# ---------------------------------------------------------------------------
# run


def test_run_gm_noneqp_summary_row(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--gen", "gm", "--m", "2", "--mode", "noneqp",
                 "--out", str(out)]) == 0
    assert "final cost 12" in capsys.readouterr().out
    for name in DATA_FILES + ("meta.json",):
        assert (out / name).exists()
    row = _read_summary(out / "summary.csv")
    assert row["label"] == "gm-m2"
    assert (row["final_cost"], row["opt_cost"], row["ratio"]) == ("12", "10", "1.2")
    assert (row["events"], row["moves"], row["agents"]) == ("32", "0", "8")
    assert row["certified"] == "True" and row["verified"] == "True"
    assert row["final_class"] == "balanced-equilibrium"
    assert len((out / "events.jsonl").read_text().splitlines()) == 32

    acc = json.loads((out / "accounting.json").read_text())
    assert acc["total_cost"] == "12" and acc["certified"] is True
    assert len(acc["levels"]) == acc["levels_charged"]


def test_run_twice_is_byte_identical(tmp_path):
    argv = ["run", "--gen", "euclidean", "--n", "25", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in DATA_FILES:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


def test_run_euclidean_eqp_snapshot_is_an_equilibrium(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--gen", "euclidean", "--n", "25", "--seed", "1",
                 "--out", str(out)]) == 0
    state, family = snapshot_from_jsonable(
        json.loads((out / "snapshot.json").read_text()))
    assert verify_equilibrium(state).ok
    row = _read_summary(out / "summary.csv")
    assert int(row["moves"]) > 0  # churn forces at least some rebalancing


def _write_line_fixture(tmp_path, events):
    inst = line_instance(0, 10, 6)
    ipath = tmp_path / "instance.json"
    spath = tmp_path / "schedule.json"
    ipath.write_text(json.dumps(instance_to_dict(inst)))
    spath.write_text(json.dumps(schedule_to_jsonable(events)))
    return ipath, spath


def test_run_from_files(tmp_path):
    ipath, spath = _write_line_fixture(tmp_path, [
        ArrivalEvent((ArrivalItem(1, 1),)),
        ArrivalEvent((ArrivalItem(2, 1),)),
    ])
    out = tmp_path / "out"
    assert main(["run", "--instance", str(ipath), "--schedule", str(spath),
                 "--out", str(out)]) == 0
    row = _read_summary(out / "summary.csv")
    assert (row["label"], row["final_cost"], row["moves"]) == ("instance", "10", "1")


def test_exit_code_3_on_move_ceiling_breach(tmp_path, capsys, monkeypatch):
    ipath, spath = _write_line_fixture(tmp_path, [
        ArrivalEvent((ArrivalItem(1, 1),)),
        ArrivalEvent((ArrivalItem(2, 1),)),
    ])
    monkeypatch.setattr("costshare.dynamics.MOVE_CEILING_FACTOR", 0)
    rc = main(["run", "--instance", str(ipath), "--schedule", str(spath),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "invariant violated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # the breach writes no artifact


def test_exit_code_3_on_broken_path_pin(tmp_path, capsys):
    ipath, spath = _write_line_fixture(tmp_path, [
        ArrivalEvent((ArrivalItem(1, 1, (1, 0)),)),
        ArrivalEvent((ArrivalItem(2, 1, (2, 1, 0)),)),  # engine picks (2, 0)
    ])
    rc = main(["run", "--instance", str(ipath), "--schedule", str(spath),
               "--mode", "noneqp", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "engine chose" in capsys.readouterr().err


def test_exit_code_3_prints_closure_details_as_json(tmp_path, capsys, monkeypatch):
    details = {"tag": "lu-b", "mover": 7, "cut": "(2, 0)"}

    def breach(*args, **kwargs):
        raise ClosureViolationError("move left its class", details=details)

    monkeypatch.setattr("costshare.cli.run_eqp", breach)
    rc = main(["run", "--gen", "euclidean", "--n", "5", "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "invariant violated: move left its class"
    assert err[1] == json.dumps(details, sort_keys=True, separators=(",", ":"))
    assert json.loads(err[1]) == details


def test_exit_code_4_on_unstable_oneshot_state(tmp_path, capsys):
    rc = main(["run", "--gen", "euclidean", "--n", "20", "--seed", "0",
               "--mode", "noneqp", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "not an equilibrium" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--gen", "gm", "--out", "{tmp}"],                      # missing --m
    ["run", "--gen", "euclidean", "--out", "{tmp}"],               # missing --n
    ["run", "--gen", "poa", "--n", "5", "--out", "{tmp}"],         # no schedule
    ["run", "--instance", "{tmp}/nope.json", "--out", "{tmp}"],    # missing file
    ["run", "--out", "{tmp}"],                                     # nothing to run
    ["verify", "{tmp}/nope.json"],
    ["sweep", "--gen", "euclidean", "--mode", "eqp", "--out", "{tmp}"],
    ["sweep", "--gen", "gm", "--m", ",", "--mode", "noneqp",     # empty list
     "--out", "{tmp}"],
])
def test_exit_code_2_on_config_errors(tmp_path, capsys, argv):
    rc = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_refuses_a_non_integer_size(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--gen", "euclidean", "--n", "10,x", "--out", str(out)]) == 2
    assert "the n list wants a comma-separated integer list, got '10,x'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads, rc", [("0", 2), (None, 0)], ids=["zero", "unset"])
def test_sweep_workers_are_capped_by_the_environment(tmp_path, capsys, monkeypatch,
                                                     threads, rc):
    # unset, the cap is the CPU count; one job needs one worker either way
    if threads is None:
        monkeypatch.delenv("COSTSHARE_THREADS", raising=False)
    else:
        monkeypatch.setenv("COSTSHARE_THREADS", threads)
    out = tmp_path / "sweep"
    assert main(["sweep", "--gen", "gm", "--m", "1", "--mode", "noneqp",
                 "--out", str(out)]) == rc
    if rc:
        assert "error: COSTSHARE_THREADS must be >= 1" in capsys.readouterr().err
    else:
        assert json.loads((out / "meta.json").read_text())["workers"] == 1


def test_an_unwritable_output_exits_2_as_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["gen", "--gen", "poa", "--n", "3", "--out", str(blocker / "x")]) == 2
    assert capsys.readouterr().err.startswith("io error:")


# well-formed, but no engine instance can hold them
_UNREPRESENTABLE = [
    {"kind": "metric", "n": 3, "costs": [[0, 1, "1"], [0, 2, "3"], [1, 2, "1"]]},  # triangle
    {"kind": "euclidean", "points": [["0", "0"], ["1", "2"], ["1", "2"]]},  # duplicate
    {"kind": "weighted-graph", "n": 3, "edges": [[0, 1, "1"]]},    # disconnected
    {"kind": "euclidean", "points": []},                           # no root
    {"kind": "weighted-graph", "n": 0, "edges": []},               # no root
]


@pytest.mark.parametrize("instance", [
    {"kind": "euclidean"},                                         # no points
    {"kind": "euclidean", "points": [["0", "0"], ["1"]]},          # 1-field point
    {"kind": "euclidean", "points": "0,0"},                        # not a list
    {"kind": "metric", "n": 2},                                    # no costs
    {"kind": "metric", "n": 2000, "costs": []},                    # pairs missing
    {"kind": "metric", "costs": [[0, 1, "1"]]},                    # no n
    {"kind": "metric", "n": 2, "costs": [[0, 1]]},                 # 2-field row
    {"kind": "metric", "n": 2, "costs": [[0, 1, "1", "2"]]},       # 4-field row
    {"kind": "metric", "n": "two", "costs": [[0, 1, "1"]]},        # non-integer n
    {"kind": "metric", "n": 2, "costs": [["a", 1, "1"]]},          # non-integer id
    {"kind": "metric", "n": 2, "costs": [[0, 1.5, "1"]]},          # fractional id
    {"kind": "metric", "n": True, "costs": [[0, 1, "1"]]},         # boolean n
    {"kind": "metric", "n": 2, "costs": [[0, 1, "0.5"]]},          # decimal cost
    {"kind": "weighted-graph", "n": 2},                            # no edges
    {"kind": "weighted-graph", "edges": [[0, 1, "1"]]},            # no n
    {"kind": "weighted-graph", "n": 2, "edges": [[0, 1]]},         # 2-field row
    {"kind": "weighted-graph", "n": 2, "edges": [[0, None, "1"]]},  # null id
    *_UNREPRESENTABLE,
])
def test_malformed_instance_exits_2_without_traceback(tmp_path, capsys, instance):
    # no events: the instance alone must be refused
    ipath = tmp_path / "instance.json"
    ipath.write_text(json.dumps(instance))
    spath = tmp_path / "schedule.json"
    spath.write_text(json.dumps(schedule_to_jsonable([])))
    rc = main(["run", "--instance", str(ipath), "--schedule", str(spath),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", [
    '{"kind": "metric", "n": ' + "1" * 5000 + ', "costs": []}',  # an int past the digit limit
    b"\xff\xfe{}",                                                  # not UTF-8
], ids=["vast-int", "not-utf8"])
def test_unreadable_json_exits_2_without_traceback(tmp_path, capsys, text):
    ipath = tmp_path / "instance.json"
    (ipath.write_bytes if isinstance(text, bytes) else ipath.write_text)(text)
    spath = tmp_path / "schedule.json"
    spath.write_text(json.dumps(schedule_to_jsonable([])))
    rc = main(["run", "--instance", str(ipath), "--schedule", str(spath),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("instance", [
    {"kind": "euclidean"},
    {"kind": "metric", "n": 2, "costs": [[0, 1]]},
    *_UNREPRESENTABLE,
])
def test_malformed_instance_exits_2_as_a_process(tmp_path, instance):
    ipath = tmp_path / "instance.json"
    ipath.write_text(json.dumps(instance))
    spath = tmp_path / "schedule.json"
    spath.write_text(json.dumps(schedule_to_jsonable([])))
    proc = subprocess.run(
        [sys.executable, "-m", "costshare.cli", "run", "--instance", str(ipath),
         "--schedule", str(spath), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_a_huge_agent_count_exits_2_at_once(tmp_path):
    # the potential of 10**12 agents on one edge is over lcm(1..10**12)
    ipath, spath = tmp_path / "instance.json", tmp_path / "schedule.json"
    ipath.write_text(json.dumps(
        {"kind": "metric", "n": 3, "costs": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]}))
    spath.write_text(json.dumps(schedule_to_jsonable([ArrivalEvent((ArrivalItem(1, 10**12),))])))
    proc = subprocess.run(
        [sys.executable, "-m", "costshare.cli", "run", "--instance", str(ipath),
         "--schedule", str(spath), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert "agents active at once" in proc.stderr


_HUGE = "1" + "0" * 400  # beyond the float64 range


@pytest.mark.parametrize("instance, cost", [
    ({"kind": "metric", "n": 3, "costs": [[0, 1, _HUGE], [0, 2, _HUGE], [1, 2, "1"]]},
     int(_HUGE) + 1),
    ({"kind": "euclidean", "points": [["0", "0"], [_HUGE, "0"]]}, int(_HUGE)),
    ({"kind": "weighted-graph", "n": 2, "edges": [[0, 1, _HUGE]]}, int(_HUGE)),
], ids=["metric", "euclidean", "weighted-graph"])
def test_costs_beyond_float_range_run_exactly(tmp_path, capsys, instance, cost):
    inst = instance_from_dict(instance)
    events = [ArrivalEvent((ArrivalItem(v, 1),)) for v in range(1, inst.n)]
    for run in (run_eqp, run_noneqp):
        res = run(inst, events)
        assert res.verdict.ok and solution_cost(res.state) == cost
    ipath, spath = tmp_path / "instance.json", tmp_path / "schedule.json"
    ipath.write_text(json.dumps(instance))
    spath.write_text(json.dumps(schedule_to_jsonable(events)))
    for mode in ("eqp", "noneqp"):
        out = tmp_path / mode
        assert main(["run", "--instance", str(ipath), "--schedule", str(spath),
                     "--mode", mode, "--out", str(out)]) == 0
        assert _read_summary(out / "summary.csv")["final_cost"] == str(cost)
        assert main(["replay", str(out)]) == 0
        assert main(["verify", str(out / "snapshot.json")]) == 0
    assert "error" not in capsys.readouterr().err


_PEAK_RSS_GROWTH = """
import json, resource, sys
from costshare.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rc = main(sys.argv[1:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rc": rc, "growth_kb": after - before}))
"""


def test_incomplete_metric_is_refused_before_the_matrix_is_built(tmp_path):
    # none of the 5000 * 4999 / 2 pairs: refused at the size of the file,
    # not after an n x n matrix of references (about 200 MB at this n)
    ipath = tmp_path / "instance.json"
    ipath.write_text(json.dumps({"kind": "metric", "n": 5000, "costs": []}))
    spath = tmp_path / "schedule.json"
    spath.write_text(json.dumps(schedule_to_jsonable([ArrivalEvent((ArrivalItem(1, 1),))])))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_GROWTH, "run", "--instance", str(ipath),
         "--schedule", str(spath), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    got = json.loads(proc.stdout)
    assert got["rc"] == 2
    assert proc.stderr.startswith("error:") and "every vertex pair" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert got["growth_kb"] < 20 * 1024


def _reverse_order(snap):
    snap["insertion_order"].reverse()


# each edits the snapshot in place, or returns the document to write instead
@pytest.mark.parametrize("mutate", [
    _reverse_order,
    lambda snap: snap.update(insertion_order=snap["insertion_order"][:-1]),
    lambda snap: snap["insertion_order"].append(snap["insertion_order"][1]),
    lambda snap: snap["revealed"].append(99),
    lambda snap: snap.update(terminals=[[1, 1, ["x"]]]),
    lambda snap: snap.update(terminals=[[1, 0, [1, 0]]]),
    lambda snap: snap.update(last_mover="q"),
    lambda snap: snap.update(terminals=5),
    lambda snap: [snap],
    lambda snap: snap.update(revealed=snap["revealed"][1:]),
    lambda snap: snap.update(last_mover=99),
    lambda snap: snap.update(terminals=[[1, 1]]),
    lambda snap: snap.update(terminals=[[1, 10**12, [1, 0]]]),
], ids=["reversed-order", "short-order", "duplicate-in-order", "revealed-99",
        "non-int-path", "zero-count", "string-last-mover", "terminals-not-a-list",
        "not-an-object", "revealed-without-root", "last-mover-99", "two-field-row",
        "huge-count"])
def test_malformed_snapshot_exits_2_without_traceback(tmp_path, capsys, mutate):
    assert main(["gen", "--gen", "poa", "--n", "3", "--out", str(tmp_path)]) == 0
    snap = json.loads((tmp_path / "snapshot.json").read_text())
    doc = mutate(snap)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(snap if doc is None else doc))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_run_rejects_gen_and_instance_together(tmp_path, capsys):
    ipath, spath = _write_line_fixture(tmp_path, [ArrivalEvent((ArrivalItem(1, 1),))])
    rc = main(["run", "--gen", "gm", "--m", "1", "--instance", str(ipath),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "not both" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# replay


def test_replay_round_trip_then_divergence(tmp_path, capsys):
    out = tmp_path / "run"
    main(["run", "--gen", "euclidean", "--n", "12", "--seed", "2",
          "--out", str(out)])
    assert main(["replay", str(out)]) == 0
    assert "byte-identical" in capsys.readouterr().out

    events = out / "events.jsonl"
    events.write_text(events.read_text()[:-2] + "9\n")
    assert main(["replay", str(out)]) == 4
    assert "events.jsonl" in capsys.readouterr().out


def test_a_potential_past_the_int_digit_limit_is_written_and_replayed(tmp_path, capsys):
    # steiner-gap n=100 puts 20,000 agents on the chain's first edge, so
    # the late epochs' potentials, over lcm(1..N), pass 4,300 digits, which
    # Python refuses to print by default.
    out = tmp_path / "run"
    assert main(["run", "--gen", "steiner-gap", "--n", "100", "--out", str(out)]) == 0
    assert main(["replay", str(out)]) == 0
    assert "byte-identical" in capsys.readouterr().out
    phis = [json.loads(line)["phi"] for line in (out / "events.jsonl").read_text().splitlines()]
    assert len(phis) == 201 and max(map(len, phis)) > 2 * 4300


def test_a_cost_past_the_int_digit_limit_is_read_and_written(tmp_path, capsys):
    ipath, spath = tmp_path / "instance.json", tmp_path / "schedule.json"
    ipath.write_text(json.dumps({"kind": "weighted-graph", "n": 2, "edges": [[0, 1, "1" * 5000]]}))
    spath.write_text(json.dumps(schedule_to_jsonable([ArrivalEvent((ArrivalItem(1, 2),))])))
    out = tmp_path / "run"
    assert main(["run", "--instance", str(ipath), "--schedule", str(spath),
                 "--out", str(out)]) == 0
    assert _read_summary(out / "summary.csv")["final_cost"] == "1" * 5000
    assert main(["replay", str(out)]) == 0
    assert "error" not in capsys.readouterr().err


def test_verify_prints_a_cost_past_the_int_digit_limit(tmp_path, capsys):
    ipath, spath = tmp_path / "instance.json", tmp_path / "schedule.json"
    ipath.write_text(json.dumps({"kind": "weighted-graph", "n": 2, "edges": [[0, 1, "1" * 5000]]}))
    spath.write_text(json.dumps(schedule_to_jsonable([ArrivalEvent((ArrivalItem(1, 2),))])))
    out = tmp_path / "run"
    assert main(["run", "--instance", str(ipath), "--schedule", str(spath),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out / "snapshot.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["equilibrium: yes", "class: balanced-equilibrium"]
    assert lines[2].startswith(f"cost {'1' * 5000} vs optimum {'1' * 5000}: ratio 1.000")


# Vertex 1 keeps (1, 0) at 100 units although (1, 2, 0) costs 60 + 55/6
# once vertex 2's five agents ride (2, 0); a unit is 10^5000.
_UNIT = 10**5000
_HUGE_TRIANGLE = {"kind": "weighted-graph", "n": 3, "edges": [
    [0, 1, "100" + "0" * 5000], [1, 2, "60" + "0" * 5000], [0, 2, "55" + "0" * 5000]]}


def test_verify_witness_json_round_trips_past_the_int_digit_limit(tmp_path, capsys):
    state = with_revealed(initial_state(instance_from_dict(_HUGE_TRIANGLE)), (1, 2))
    state = add_terminal(add_terminal(state, 1, 1, (1, 0)), 2, 5, (2, 0))
    snap = tmp_path / "snapshot.json"
    snap.write_text(json.dumps(snapshot_to_jsonable(state)))
    assert main(["verify", str(snap)]) == 4
    human, line = capsys.readouterr().out.splitlines()
    assert human.startswith("equilibrium: NO — terminal witness at vertex 1 (current 1")
    got = json.loads(line)
    assert (got["vertex"], got["path"]) == (1, [1, 2, 0])
    assert parse_rational(got["current"]) == 100 * _UNIT
    assert parse_rational(got["candidate"]) == (60 + Fraction(55, 6)) * _UNIT


def test_noneqp_non_equilibrium_past_the_int_digit_limit_exits_4(tmp_path, capsys):
    ipath, spath = tmp_path / "instance.json", tmp_path / "schedule.json"
    ipath.write_text(json.dumps(_HUGE_TRIANGLE))
    spath.write_text(json.dumps(schedule_to_jsonable(
        [ArrivalEvent((ArrivalItem(1, 1),)), ArrivalEvent((ArrivalItem(2, 5),))])))
    assert main(["run", "--instance", str(ipath), "--schedule", str(spath),
                 "--mode", "noneqp", "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "final state is not an equilibrium" in err and "Traceback" not in err


@pytest.mark.parametrize("meta", [
    {"config": {"gen": "gm"}},
    [1, 2],
    {"config": {}},
    {"config": {"gen": "gm", "m": 2, "mode": "eqp"}},
    {"config": {"instance": 3, "schedule": 4, "mode": "eqp"}},
    {"config": {"gen": "poa", "n": 3, "mode": "noneqp"}},
    {"config": {"gen": "euclidean", "n": 5, "seed": "1", "profile": "churn",
                "mode": "eqp"}},
    {"config": {"gen": ["gm"], "m": 2, "mode": "eqp"}},
])
def test_malformed_meta_exits_2_without_traceback(tmp_path, capsys, meta):
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    assert main(["replay", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_replay_ignores_a_recorded_move_ceiling(tmp_path, capsys):
    # older runs recorded the move ceiling in their config; no artifact
    # depends on it, as a run past the ceiling writes none
    out = tmp_path / "run"
    assert main(["run", "--gen", "euclidean", "--n", "12", "--seed", "2",
                 "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    meta["config"]["move_ceiling"] = 10
    (out / "meta.json").write_text(json.dumps(meta))
    assert main(["replay", str(out)]) == 0
    assert "byte-identical" in capsys.readouterr().out


def test_replay_refuses_sweep_directories(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COSTSHARE_THREADS", "1")
    out = tmp_path / "sweep"
    assert main(["sweep", "--gen", "gm", "--m", "1", "--mode", "noneqp",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["replay", str(out)]) == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_gm_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COSTSHARE_THREADS", "1")
    out = tmp_path / "sweep"
    assert main(["sweep", "--gen", "gm", "--m", "1,2", "--mode", "noneqp",
                 "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("gm-m1,noneqp") and ",2," in lines[1]
    assert lines[2].startswith("gm-m2,noneqp") and ",12," in lines[2]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["workers"] == 1 and len(meta["config"]["jobs"]) == 2


def test_sweep_euclidean_parallel(tmp_path, monkeypatch):
    monkeypatch.setenv("COSTSHARE_THREADS", "2")
    out = tmp_path / "sweep"
    assert main(["sweep", "--gen", "euclidean", "--n", "10,12",
                 "--seeds", "0,1", "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 5
    labels = [ln.split(",")[0] for ln in lines[1:]]
    assert labels == sorted(labels)
    assert json.loads((out / "meta.json").read_text())["workers"] == 2


def test_sweep_rejects_bad_thread_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COSTSHARE_THREADS", "many")
    rc = main(["sweep", "--gen", "gm", "--m", "1", "--mode", "noneqp",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "COSTSHARE_THREADS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the installed entry point


def test_console_script_runs():
    exe = shutil.which("costshare")
    if exe is None:
        pytest.skip("console script not on PATH (non-editable test env?)")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("costshare ")


def test_console_script_target_runs():
    # the `costshare` script that pyproject.toml declares, run as pip's
    # wrapper runs it, without installing it
    target = re.search(r'^costshare = "([\w.]+):(\w+)"$',
                       (ROOT / "pyproject.toml").read_text(), re.M)
    module, func = target.groups()
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from {module} import {func}; "
         f"sys.argv[0] = 'costshare'; sys.exit({func}())", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("costshare ")


def _readme_command_lines():
    """Each line of README.md's shell blocks that runs `costshare`."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("costshare ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 6
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_module_invocation_runs():
    proc = subprocess.run([sys.executable, "-m", "costshare.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("gen", "run", "verify", "sweep", "replay"):
        assert sub in proc.stdout
