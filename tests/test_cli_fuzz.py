"""Fuzzing the CLI's input boundary.

Valid instance, schedule, snapshot and replay meta.json files are mutated (keys dropped, values
swapped for other JSON types, lists truncated, integers nudged) and fed to
`main` in-process.  Bad input must be refused with exit 2, never reach the
engine as an invariant breach (exit 3) or escape as an exception.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from costshare import (
    ArrivalEvent,
    ArrivalItem,
    DepartureEvent,
    build_poa_fixture,
    instance_to_dict,
    schedule_to_jsonable,
)
from costshare.cli import main, snapshot_to_jsonable
from conftest import line_instance

INSTANCE = instance_to_dict(line_instance(0, 4, 9, 15, 20))
SCHEDULE = schedule_to_jsonable([
    ArrivalEvent((ArrivalItem(2, 2),), reveal=(1,)),
    ArrivalEvent((ArrivalItem(3, 1), ArrivalItem(4, 1))),
    DepartureEvent((2,)),
    ArrivalEvent((ArrivalItem(1, 3),)),
])
_POA = build_poa_fixture(3)
SNAPSHOT = snapshot_to_jsonable(_POA.bad_state)



def _recorded_meta(*argv):
    """The meta.json a real `costshare run` writes, with its input dir as {tmp}."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        (Path(tmp) / "instance.json").write_text(json.dumps(INSTANCE))
        (Path(tmp) / "schedule.json").write_text(json.dumps(SCHEDULE))
        assert main(["run", *(a.format(tmp=tmp) for a in argv), "--out", f"{tmp}/out"]) == 0
        text = (Path(tmp) / "out" / "meta.json").read_text()
        return json.loads(text.replace(str(Path(tmp).resolve()), "{tmp}"))


METAS = (
    _recorded_meta("--gen", "gm", "--m", "2", "--mode", "noneqp"),
    _recorded_meta("--instance", "{tmp}/instance.json", "--schedule", "{tmp}/schedule.json",
                   "--batch-order", "snapshot"),
)

SWAPS = (None, True, -1, 0, 2, 99, 1.5, "x", "1/2", [], {}, [0])


def _slots(doc, where=()):
    """Every key path inside a JSON document, containers first."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield where + (key,)
        yield from _slots(value, where + (key,))


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        *where, key = draw(st.sampled_from(slots))
        parent = doc
        for k in where:
            parent = parent[k]
        value = parent[key]
        op = draw(st.sampled_from(("drop", "swap", "truncate", "nudge")))
        if op == "drop":
            del parent[key]
        elif op == "truncate" and isinstance(value, list) and value:
            parent[key] = value[:draw(st.integers(0, len(value) - 1))]
        elif op == "nudge" and type(value) is int:
            parent[key] = value + draw(st.sampled_from((-2, -1, 1, 2)))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    return doc


def _run(files, argv):
    """(exit code, stderr) of `main(argv)` with `files` written to a fresh dir."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        for name, doc in files.items():
            (Path(tmp) / name).write_text(json.dumps(doc).replace("{tmp}", tmp))
        rc = main([a.format(tmp=tmp) for a in argv])
    return rc, err.getvalue()


FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
RUN = ["run", "--instance", "{tmp}/instance.json", "--schedule", "{tmp}/schedule.json",
       "--out", "{tmp}/out"]


@FUZZ
@given(doc=mutated(INSTANCE), mode=st.sampled_from(("eqp", "noneqp")))
def test_mutated_instance(doc, mode):
    rc, err = _run({"instance.json": doc, "schedule.json": SCHEDULE}, RUN + ["--mode", mode])
    assert rc in (0, 2, 4) and "Traceback" not in err, err


@FUZZ
@given(doc=mutated(SCHEDULE), mode=st.sampled_from(("eqp", "noneqp")))
def test_mutated_schedule(doc, mode):
    rc, err = _run({"instance.json": INSTANCE, "schedule.json": doc}, RUN + ["--mode", mode])
    assert rc in (0, 2, 4) and "Traceback" not in err, err


@FUZZ
@given(doc=mutated(SNAPSHOT))
def test_mutated_snapshot(doc):
    rc, err = _run({"snapshot.json": doc}, ["verify", "{tmp}/snapshot.json"])
    assert rc in (0, 2, 4) and "Traceback" not in err, err


@FUZZ
@given(doc=st.sampled_from(METAS).flatmap(mutated))
def test_mutated_meta(doc):
    # the directory holds no artifacts, so a config that runs replays as exit 4
    files = {"meta.json": doc, "instance.json": INSTANCE, "schedule.json": SCHEDULE}
    rc, err = _run(files, ["replay", "{tmp}"])
    assert rc in (0, 2, 4) and "Traceback" not in err, err


@pytest.mark.parametrize("argv", [RUN, ["verify", "{tmp}/snapshot.json"]])
def test_unmutated_inputs_pass(argv):
    files = {"instance.json": INSTANCE, "schedule.json": SCHEDULE, "snapshot.json": SNAPSHOT}
    assert _run(files, argv) == (0, "")
