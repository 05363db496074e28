"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys

import pytest

import rep
import run
from record_reference import cli_digests
from tracer import Tracer
from workloads import Workload

ROOT = run.ROOT
TOYS = (
    Workload("toy-euclid", "euclidean", {"n": 25}, "eqp", True, "toy"),
    Workload("toy-layered", "gm", {"m": 2}, "noneqp", False, "toy"),
    Workload("toy-relay", "steiner-gap", {"n": 5}, "eqp", False, "toy"),
)
SEED = 7


@pytest.fixture(scope="module")
def scratch():
    run.SCRATCH.mkdir(exist_ok=True)
    return run.SCRATCH


@pytest.fixture(scope="module")
def reference(scratch):
    """Digests `costshare run` writes for every config the toy runs draw."""
    return {w.reference_key(cfg): cli_digests(cfg, scratch)
            for w in TOYS for cfg in w.configs(SEED, run.MIN_REPS)}


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", TOYS, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, reference):
    got = run.measure(workload, SEED, 0, trace, reference)
    assert got["failed"] == 0
    assert got["attempted"] == run.MIN_REPS * (2 if trace else 1)
    metrics = run.report(workload, SEED, trace, got)
    wanted = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in metrics.values())


def test_a_digest_mismatch_fails_every_repetition(reference):
    workload = TOYS[2]
    (key, digests), = [(k, v) for k, v in reference.items() if k.startswith("steiner-gap")]
    tampered = {key: {**digests, "snapshot.json": "0" * 64}}
    got = run.measure(workload, SEED, 0, False, tampered)
    assert got["failed"] == got["attempted"] == run.MIN_REPS
    assert run.report(workload, SEED, False, got) == {}


@pytest.mark.parametrize("workload", TOYS, ids=lambda w: w.name)
def test_digests_match_the_cli_with_and_without_tracing(workload, reference, scratch):
    cfg = workload.configs(SEED, 1)[0]
    plain = rep.repetition(cfg, scratch)
    traced = rep.repetition(cfg, scratch, "toy")
    assert plain["digests"] == traced["digests"] == reference[workload.reference_key(cfg)]
    assert workload.check(plain["facts"]) == []


def test_wrapped_attributes_are_restored(scratch):
    tracer = Tracer("toy")
    tracer.install()
    saved = list(tracer._saved)
    assert all(getattr(owner, attr) is not original for owner, attr, original in saved)
    tracer.restore()
    assert saved and all(getattr(owner, attr) is original for owner, attr, original in saved)

    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in saved]
    rep.repetition(TOYS[0].configs(SEED, 1)[0], scratch, "toy")
    assert all(getattr(owner, attr) is value for owner, attr, value in before)


@pytest.mark.parametrize("workload", TOYS, ids=lambda w: w.name)
def test_counts_repeat_exactly(workload, scratch):
    cfg = workload.configs(SEED, 1)[0]
    first, second = (rep.repetition(cfg, scratch, "toy")["trace"] for _ in range(2))
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    assert first["calls"]["routing.search|phase.dynamics"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relay-chain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_is_stopped_and_subtracts_its_own_time(scratch):
    out = rep.repetition(TOYS[1].configs(SEED, 1)[0], scratch)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    for p in out["phases"].values():
        assert 0 <= p["probe_s"] < p["wall_s"]
        assert p["kernel_s"] > 0
