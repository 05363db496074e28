"""Golden digests of the deterministic artifacts.

Every file in `cli.DATA_FILES` is byte-deterministic for a fixed config, so
a refactor that keeps behaviour must keep these sha256 digests.  A change
that alters an artifact on purpose updates the digest here and says why.
"""

import hashlib
import json

import pytest

from costshare import (
    ArrivalEvent,
    ArrivalItem,
    DepartureEvent,
    instance_to_dict,
    schedule_to_jsonable,
)
from costshare.cli import DATA_FILES, main
from conftest import line_instance


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


RUNS = {
    "gm-m3-noneqp": (
        ["--gen", "gm", "--m", "3", "--mode", "noneqp"],
        {
            "events.jsonl": "519fc5b6a13179fea6616b906b7175fa4be4aab0c60cd63c5be9ade13b3ab131",
            "snapshot.json": "28e6792d070f9ece0fbe3b49492fa853ffc58103b8152b18449b9531a9b0cb32",
            "accounting.json": "de4651a76c0706c148d07fc84e9317aafa263b8b9529f37ed46a4c2ccb489062",
            "accounting.csv": "61f4f8ab389d40f3f637bd64d77b733b92a80a0b14030088892b38de3053f040",
            "summary.csv": "6a8e9d5a4ea8a84d87b34368a1825ea0fbf64c341db28a8d4c0fa9793130ed43",
        },
    ),
    "euclidean-n50-s0-eqp": (
        ["--gen", "euclidean", "--n", "50", "--seed", "0", "--mode", "eqp"],
        {
            "events.jsonl": "56347184b26d95c42bd80f183633e3658efd86c2ff8b2c657ea0077001439e35",
            "snapshot.json": "2e38738ade6eb770aa2e58a50553ffa61a2f0f66881628b24dbea9c767ba415c",
            "accounting.json": "4bbae48136c17a5aeb05395a3ad83dfe9ef44e4b5aaa1a26abbd8cc80b304d1e",
            "accounting.csv": "d01888c0f5d108f3b3830ca873e5c0493085458d557162870e34bbaac0ff0177",
            "summary.csv": "3902fc8f265c664da08f48f99c9cf59fc9aaaf3cde6a0ae6f3d68b06acd60e35",
        },
    ),
    "steiner-gap-n3-eqp": (
        ["--gen", "steiner-gap", "--n", "3", "--mode", "eqp"],
        {
            "events.jsonl": "8b32bc9d993434c5c8ef87b360f9f2198fbceb0e5291e900055073cb23db1e2f",
            "snapshot.json": "5110825dd2c9cabb5cd65cf37dcd34b767ae7b064932310b2e06aad016c0a7e7",
            "accounting.json": "0a620f8ea6caee9c6047d3091ad79fb841ce93df9f7c8b65ca5d4a1a54295db3",
            "accounting.csv": "86f30e04ce73bdcef3bc1ada710a9e5eea682c867b7d8900c4a7ffc8c2e8ee09",
            "summary.csv": "c8cc0c9e2af321b04536a80e7bf6ee7edf019532a6c8b3bfd57c22a79c7facb6",
        },
    ),
    # the arrivals profile; every euclidean arrival holds one item, so its
    # digests equal a sequential run's and pin nothing of the batch order
    "euclidean-n40-s1-arrivals-snapshot": (
        ["--gen", "euclidean", "--n", "40", "--seed", "1", "--profile", "arrivals",
         "--batch-order", "snapshot"],
        {
            "events.jsonl": "f6cc4810a7d25d230310e871a230311bce5be9badc8cbc9071ee20a2664ed44d",
            "snapshot.json": "3206d0f0a2bf63213bcc345458ffd3ff37fe7aca3331ad371a4a6d40dccb5ff0",
            "accounting.json": "56dc318486e02d7923c35a371db6c700435f257af4a1b2b9664f692604282d3a",
            "accounting.csv": "9e89950193fbf2d63219980118ef11446c2c21a8cd2077e2cc50585399f4e57f",
            "summary.csv": "af6e44b39dae46bb154c3eea19e64315a6dfde623d31bc9c673338f49e55a430",
        },
    ),
}


# a line instance whose second event brings two agents at once: the batch
# orders route it differently (under the snapshot order, 4 grafts onto the
# tree without seeing 3, then moves to it), so these pin both
LINE_INSTANCE = instance_to_dict(line_instance(0, 4, 9, 15, 20))
LINE_SCHEDULE = schedule_to_jsonable([
    ArrivalEvent((ArrivalItem(2, 2),), reveal=(1,)),
    ArrivalEvent((ArrivalItem(3, 1), ArrivalItem(4, 1))),
    DepartureEvent((2,)),
    ArrivalEvent((ArrivalItem(1, 3),)),
])
LINE = ["--instance", "{tmp}/instance.json", "--schedule", "{tmp}/schedule.json"]

RUNS.update({
    "line-multi-item-eqp-sequential": (
        [*LINE, "--batch-order", "sequential"],
        {
            "events.jsonl": "7b72ee0c9fe9776752d8fcec9ba4289f6248df4870e5060d9d241a81de19f875",
            "snapshot.json": "73218a27d03969df07872b1f81853e56c5af5b5d440f167053904c5121fa542f",
            "accounting.json": "7c4f9c1050e8c269899a18c0b751a03a6bf7bb9d6d3add9ce473ff19fb8190a6",
            "accounting.csv": "a0bc03f0a5b720b5268951390abb8f41bdd3c7bc0d1c88ada8863bf586f2bed4",
            "summary.csv": "cd55c42187bb2a29d78b11f0fb53b9a342bb9c766c874e1b058e1444e104bdbf",
        },
    ),
    "line-multi-item-eqp-snapshot": (
        [*LINE, "--batch-order", "snapshot"],
        {
            "events.jsonl": "6874ad509014e3d6a480e7528fb61aae3ec2d745b36364af468dfb7fd0839e31",
            "snapshot.json": "9329a65f392367080a271b1d4a925af564af06371e728109cfe5e0435a9e03d9",
            "accounting.json": "7c4f9c1050e8c269899a18c0b751a03a6bf7bb9d6d3add9ce473ff19fb8190a6",
            "accounting.csv": "a0bc03f0a5b720b5268951390abb8f41bdd3c7bc0d1c88ada8863bf586f2bed4",
            "summary.csv": "096bc2c8a5da8a1319968975573dd8be9b9476378d2d08efe515bd573fa45a6c",
        },
    ),
    "line-multi-item-noneqp-sequential": (
        [*LINE, "--mode", "noneqp", "--batch-order", "sequential"],
        {
            "events.jsonl": "c8c9fb281cd899e643ae1be7dbc7864b77e414e2de9d9c6cebdc4f9824d45f89",
            "snapshot.json": "73218a27d03969df07872b1f81853e56c5af5b5d440f167053904c5121fa542f",
            "accounting.json": "7c4f9c1050e8c269899a18c0b751a03a6bf7bb9d6d3add9ce473ff19fb8190a6",
            "accounting.csv": "a0bc03f0a5b720b5268951390abb8f41bdd3c7bc0d1c88ada8863bf586f2bed4",
            "summary.csv": "3f8c390d8a9d7301bde7f81f5b33d564078bb57dd3f1c2bbdfc766aa7c2b5d58",
        },
    ),
})


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_artifact_digests(tmp_path, name):
    argv, want = RUNS[name]
    (tmp_path / "instance.json").write_text(json.dumps(LINE_INSTANCE))
    (tmp_path / "schedule.json").write_text(json.dumps(LINE_SCHEDULE))
    out = tmp_path / "out"
    assert main(["run", *(a.format(tmp=tmp_path) for a in argv), "--out", str(out)]) == 0
    assert {f: _sha256(out / f) for f in DATA_FILES} == want


def test_gen_poa_snapshot_digest(tmp_path):
    assert main(["gen", "--gen", "poa", "--n", "3", "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "snapshot.json") == (
        "3197aeca5ceed3b5a6f521a534d741531978a5b4b0610e1dbaf0ffab37ef5af1")


# every file `costshare gen` writes, and the sha256 of its stdout line
GENS = {
    "gm-m3": (
        ["--gen", "gm", "--m", "3"],
        {
            "instance.json": "1e9bec939f9a1a8c94548ce6a84d09523e85da7e278c15cc6b773c5a6cd61c41",
            "schedule.json": "631c3dff0c769ab483620e1b910758666561a04e1090246306e5d374ded858db",
            "paths.json": "1e0bfd7aff215893c796382d1efbb7aeb93e976d13a4216a3ac969f39a846705",
        },
        "1b14eb56f9a7c2dfca61fdfa7575cec1e8a7dc133e16cd7591f15093cf584aee",
    ),
    "euclidean-n20-s2": (
        ["--gen", "euclidean", "--n", "20", "--seed", "2"],
        {
            "instance.json": "a39d0ad839f3c2dcddf9c4a8ac8c86e0e072f9653af9afcfbac98ac5a9adaea9",
            "schedule.json": "b89a3af19ade74642f1294d132aec1a85f9d7a1025d6925917415ec0b5cf02f2",
        },
        "00a19800a0fde35ac1f16087c47625ec5804e0f1cddd0c08a0da33b2d1cdf42c",
    ),
    "steiner-gap-n5": (
        ["--gen", "steiner-gap", "--n", "5"],
        {
            "instance.json": "13ff5ebc1d3e5ba0729dd3d709dd215edf4a70b23dd47aab35d76becc21678ff",
            "schedule.json": "89497539593127ee4bc2c2753da7565659c830b8df7afa470e16ed391f52da2f",
        },
        "e1bad6ab9da57ed75470dcaa448ed25e6c3d7136a4e9e2872794db4067a6f8b6",
    ),
    "poa-n3": (
        ["--gen", "poa", "--n", "3"],
        {
            "instance.json": "2d54a3df64f7d222b85af95b25962a706324bc7b5498e2994f931699f331ffbc",
            "snapshot.json": "3197aeca5ceed3b5a6f521a534d741531978a5b4b0610e1dbaf0ffab37ef5af1",
        },
        "7b3d5ef7fa6120ac8bcc86c17892f2b8b9be5be87eba44b4f049a8e335174fef",
    ),
}


@pytest.mark.parametrize("name", sorted(GENS))
def test_gen_output_digests(tmp_path, capsys, name):
    argv, want, stdout = GENS[name]
    assert main(["gen", *argv, "--out", str(tmp_path)]) == 0
    assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == want
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout
