"""Command-line front end.

Five subcommands:

* ``gen``     write an instance (and schedule or snapshot) for a generator
* ``run``     simulate a schedule and write the full artifact set
* ``verify``  re-check a snapshot: equilibrium sweep + cost certificate
* ``sweep``   run a parameter grid in parallel, one summary row per run
* ``replay``  re-run a previous output directory and byte-compare artifacts

One table, `GENERATORS`, gives each ``--gen`` choice its config keys and the
modes its schedule runs in: the layered gm schedule pins one-shot paths, so
it runs under ``--mode noneqp`` alone, and the poa fixture has no schedule.
gen, run and sweep build their configs from the command line alike, and
every config, replay's too, is checked before any instance is built.

Every artifact except ``meta.json`` is byte-deterministic for a fixed
configuration (``meta.json`` records wall time, so replay skips it).  Exit
codes: 0 success, 2 bad input (ConfigError), 3 internal invariant breach
(EngineInvariantError, including closure violations, whose details follow
the message as one sorted-key JSON line on stderr), 4 verification
failure (VerificationError, non-equilibrium snapshot, uncertified ratio,
or replay divergence).
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import itertools
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

from . import __version__
from .duals import CLASS_NAMES, DualFamily, classify, logn_accounting
from .dynamics import (
    BATCH_ORDERS,
    run_eqp,
    run_noneqp,
    schedule_from_jsonable,
    schedule_to_jsonable,
)
from .errors import (
    ClosureViolationError,
    ConfigError,
    EngineInvariantError,
    VerificationError,
)
from .instances import (
    EUCLIDEAN_PROFILES,
    build_gm,
    build_poa_fixture,
    build_random_euclidean,
    build_sigma,
    build_steiner_gap_fixture,
    check_gm_m,
)
from .metric import ROOT, _int, _ints, instance_from_dict, instance_to_dict
from .rationals import format_rational
from .routing import (
    add_terminal,
    initial_state,
    solution_cost,
    verify_equilibrium,
    with_revealed,
)

DATA_FILES = ("events.jsonl", "snapshot.json", "accounting.json",
              "accounting.csv", "summary.csv")

LEVEL_COLUMNS = ("level", "charges", "charged_cost", "components", "dual_bound")

SUMMARY_COLUMNS = (
    "label", "mode", "n", "events", "moves", "agents", "final_cost",
    "opt_cost", "ratio", "certified", "final_class", "levels_charged",
    "level_budget", "verified",
)


# ---------------------------------------------------------------------------
# json helpers


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_json(path: Path, obj) -> None:
    path.write_text(_dumps(obj) + "\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except ValueError as exc:  # not JSON, not UTF-8, or an int past the digit limit
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# snapshot (state + dual family) serialization


def snapshot_to_jsonable(state) -> dict:
    return {
        "instance": instance_to_dict(state.instance),
        "revealed": list(state.revealed),
        "terminals": [[v, state.counts[v], list(state.paths[v])]
                      for v in sorted(state.counts)],
        "last_mover": state.last_mover,
        "insertion_order": list(state.revealed),  # a run's family inserts these, in order
    }


def snapshot_from_jsonable(data):
    """Rebuild (state, family) from a snapshot dict; ConfigError if malformed.

    The dual family starts empty: its first charge inserts `revealed`.
    `insertion_order`, written for compatibility, must repeat `revealed`.
    """
    if not isinstance(data, dict):
        raise ConfigError("snapshot must be a JSON object")
    for key in ("instance", "revealed", "terminals", "insertion_order"):
        if key not in data:
            raise ConfigError(f"snapshot is missing the {key!r} field")
    instance = instance_from_dict(data["instance"])
    revealed = _ints(data["revealed"], "snapshot revealed")
    if not revealed or revealed[0] != ROOT:
        raise ConfigError("snapshot revealed list must start with the root 0")
    if len(set(revealed)) != len(revealed) or not all(0 <= v < instance.n for v in revealed):
        raise ConfigError("snapshot revealed list must name distinct vertices of the instance")
    if data["insertion_order"] != revealed:
        raise ConfigError("snapshot insertion_order must equal its revealed list")
    last_mover = data.get("last_mover")
    if last_mover is not None and not 0 <= _int(last_mover, "snapshot last_mover") < instance.n:
        raise ConfigError(f"snapshot last_mover {last_mover} is not a vertex of the instance")
    if not isinstance(data["terminals"], list):
        raise ConfigError("snapshot terminals must be a list of [vertex, count, path] rows")
    state = with_revealed(initial_state(instance), revealed[1:])
    for row in data["terminals"]:
        if not isinstance(row, list) or len(row) != 3:
            raise ConfigError(f"malformed terminal row {row!r}: expected [vertex, count, path]")
        v = _int(row[0], "terminal vertex")
        count = _int(row[1], "terminal count")
        path = _ints(row[2], "terminal path")
        if v == ROOT or count < 1:
            raise ConfigError(f"terminal row {row!r} needs a non-root vertex and a count >= 1")
        try:
            state = add_terminal(state, v, count, path)
        except EngineInvariantError as exc:
            raise ConfigError(f"terminal row {row!r}: {exc}") from None
    return dc_replace(state, last_mover=last_mover), DualFamily(instance)


# ---------------------------------------------------------------------------
# artifact writers


def _event_lines(result, mode) -> list:
    """JSON-line dicts, one per epoch; an eq-p epoch lists its moves inline."""
    lines = []
    for ep in result.epochs:
        line = {"kind": ep.kind, "phi": format_rational(ep.phi),
                "cost": format_rational(ep.cost), "agents": ep.agents}
        if mode == "eqp":
            line.update(epoch=ep.index, post_event_class=ep.post_class, moves=[
                {"mover": mv.mover, "target": mv.target, "tag": mv.tag,
                 "cost": format_rational(mv.move_cost),
                 "post_class": CLASS_NAMES[mv.post_rank],
                 "phi": format_rational(mv.phi_post)}
                for mv in ep.moves
            ])
        else:
            line.update({"event": ep.index, "class": ep.post_class})
        lines.append(line)
    return lines


def _accounting_jsonable(report) -> dict:
    return {
        "n": report.n,
        "total_cost": format_rational(report.total_cost),
        "opt_cost": format_rational(report.opt_cost),
        "ratio": float(report.ratio),
        "gate": report.gate,
        "certified": report.certified,
        "max_edge": format_rational(report.max_edge),
        "ignored_cost": format_rational(report.ignored_cost),
        "ignored_count": report.ignored_count,
        "levels_charged": report.levels_charged,
        "level_budget": report.level_budget,
        "levels": [
            {"level": r.level, "charges": r.charges,
             "charged_cost": format_rational(r.charged_cost),
             "components": r.components,
             "dual_bound": format_rational(r.dual_bound)}
            for r in report.rows
        ],
    }


def _write_csv(path: Path, header, rows) -> None:
    """`header`, then per dict in `rows` its values under those keys."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([row[c] for c in header] for row in rows)


def _summary_row(cfg, result, report, final_class) -> dict:
    return {
        "label": (GENERATORS[cfg["gen"]].label.format(**cfg) if cfg.get("gen")
                  else Path(cfg["instance"]).stem),
        "mode": cfg["mode"],
        "n": len(result.state.revealed),
        "events": len(result.epochs),
        "moves": sum(len(ep.moves) for ep in result.epochs),
        "agents": sum(result.state.counts.values()),
        "final_cost": format_rational(solution_cost(result.state)),
        "opt_cost": format_rational(report.opt_cost),
        "ratio": float(report.ratio),
        "certified": report.certified,
        "final_class": final_class,
        "levels_charged": report.levels_charged,
        "level_budget": report.level_budget,
        "verified": result.verdict.ok if result.verdict is not None else "",
    }


# ---------------------------------------------------------------------------
# generators: one row per `--gen` choice


def _build_gm(cfg):
    check_gm_m(cfg["m"])
    gm = build_gm(cfg["m"])
    paths = {f"{j},{k}": list(p) for (j, k), p in sorted(gm.canonical_paths.items())}
    return (gm.instance, build_sigma(gm), {"paths.json": paths},
            f"gm m={cfg['m']}: n={gm.n}")


def _build_euclidean(cfg):
    run = build_random_euclidean(cfg["n"], cfg["seed"], cfg["profile"])
    return (run.instance, run.events, {},
            f"euclidean n={cfg['n']} seed={cfg['seed']} profile={cfg['profile']}: "
            f"{len(run.events)} events")


def _build_poa(cfg):
    fx = build_poa_fixture(cfg["n"])
    return (fx.instance, None, {"snapshot.json": snapshot_to_jsonable(fx.bad_state)},
            f"poa n={cfg['n']}: bad equilibrium of cost {fx.bad_cost} vs "
            f"optimum {fx.opt_cost}")


def _build_steiner_gap(cfg):
    fx = build_steiner_gap_fixture(cfg["n"])
    return (fx.instance, fx.events, {},
            f"steiner-gap n={cfg['n']}: {len(fx.events)} events")


MODES = ("eqp", "noneqp")


@dataclass(frozen=True)
class Generator:
    keys: tuple  # config keys, each named after its command-line flag
    label: str  # run label, formatted with the config
    build: object  # config -> (instance, events or None, extra files, note)
    modes: tuple  # the modes its schedule runs in; none for a static fixture


GENERATORS = {
    # the layered schedule pins one-shot best responses
    "gm": Generator(("m",), "gm-m{m}", _build_gm, ("noneqp",)),
    "euclidean": Generator(("n", "seed", "profile"),
                           "euclidean-n{n}-s{seed}-{profile}", _build_euclidean, MODES),
    "poa": Generator(("n",), "poa-n{n}", _build_poa, ()),
    "steiner-gap": Generator(("n",), "steiner-gap-n{n}", _build_steiner_gap, MODES),
}


# ---------------------------------------------------------------------------
# configs: a plain dict describes what gen writes or what run, sweep and
# replay run


def _config_from_args(args) -> dict:
    """The config a command line gives; a sweep's keys hold its raw lists."""
    cfg = {key: getattr(args, key) for key in ("mode", "batch_order") if key in args}
    if args.gen:
        cfg["gen"] = args.gen
        cfg.update((key, getattr(args, key)) for key in GENERATORS[args.gen].keys)
    for key in ("instance", "schedule"):
        if getattr(args, key, None):
            cfg[key] = str(Path(getattr(args, key)).resolve())
    return cfg


def _check_gen(cfg, mode=None) -> Generator:
    """The row of `cfg`'s generator; ConfigError unless `cfg` holds each of
    its keys and `mode`, if given, is one its schedule runs in."""
    gen = cfg.get("gen")
    if not isinstance(gen, str) or gen not in GENERATORS:
        raise ConfigError(f"unknown generator {gen!r}")
    row = GENERATORS[gen]
    for key in row.keys:
        if cfg.get(key) is None:
            raise ConfigError(f"--gen {gen} needs --{key}")
        if key != "profile":  # the generator checks its profile name itself
            _int(cfg[key], f"--{key}")
    if mode is not None and mode not in row.modes:
        raise ConfigError(
            f"--gen {gen} runs under --mode {' or '.join(row.modes)} only" if row.modes
            else f"the {gen} generator is a static fixture with no schedule; "
                 f"use `costshare gen --gen {gen}` and `costshare verify` instead")
    return row


def _check_config(cfg) -> dict:
    """Return `cfg` if `_execute` can run it; ConfigError otherwise.

    A config comes from the command line, from a sweep grid or from the
    meta.json of a run being replayed, which may have been edited by hand.
    """
    if cfg.get("mode") not in MODES:
        raise ConfigError(f"unknown mode {cfg.get('mode')!r}")
    if cfg.get("gen") is None:
        if not (isinstance(cfg.get("instance"), str) and isinstance(cfg.get("schedule"), str)):
            raise ConfigError("nothing to run: give --gen, or --instance with --schedule")
    elif "instance" in cfg or "schedule" in cfg:
        raise ConfigError("give either --gen or --instance/--schedule, not both")
    else:
        _check_gen(cfg, cfg["mode"])
    return cfg


def _execute(cfg):
    """Run a config to completion; returns (result, report, final_class)."""
    gen = _check_config(cfg).get("gen")
    if gen is None:
        instance = instance_from_dict(_load_json(cfg["instance"]))
        events = schedule_from_jsonable(_load_json(cfg["schedule"]))
    else:
        instance, events, _files, _note = GENERATORS[gen].build(cfg)
    batch_order = cfg.get("batch_order", "sequential")
    if cfg["mode"] == "eqp":
        result = run_eqp(instance, events, batch_order=batch_order, accounting=False)
    else:
        result = run_noneqp(instance, events, batch_order=batch_order)
    report = logn_accounting(result.state, result.family)
    final_class = classify(result.state, result.family).name
    return result, report, final_class


def _sweep_worker(cfg):
    result, report, final_class = _execute(cfg)
    return _summary_row(cfg, result, report, final_class)


def _max_workers(njobs: int) -> int:
    raw = os.environ.get("COSTSHARE_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"COSTSHARE_THREADS={raw!r} is not an integer") from None
        if cap < 1:
            raise ConfigError("COSTSHARE_THREADS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(njobs, cap))


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_gen(args) -> int:
    cfg = _config_from_args(args)
    instance, events, extra, note = _check_gen(cfg).build(cfg)
    files = {"instance.json": instance_to_dict(instance)}
    if events is not None:
        files["schedule.json"] = schedule_to_jsonable(events)
    files.update(extra)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in files.items():
        _write_json(out / name, doc)
    print(f"{note}, wrote {' '.join(files)}")
    return 0


def _run_into(cfg, out: Path) -> dict:
    """Execute a config and write the artifact set into `out`."""
    t0 = time.monotonic()
    result, report, final_class = _execute(cfg)
    wall = time.monotonic() - t0

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "events.jsonl", "w") as fh:
        for row in _event_lines(result, cfg["mode"]):
            fh.write(_dumps(row) + "\n")
    _write_json(out / "snapshot.json", snapshot_to_jsonable(result.state))
    accounting = _accounting_jsonable(report)
    _write_json(out / "accounting.json", accounting)
    _write_csv(out / "accounting.csv", LEVEL_COLUMNS, accounting["levels"])
    row = _summary_row(cfg, result, report, final_class)
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, [row])
    _write_json(out / "meta.json",
                {"config": cfg, "version": __version__,
                 "wall_time_s": round(wall, 3)})
    return row


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    row = _run_into(cfg, Path(args.out))
    print(f"{row['label']} ({row['mode']}): {row['events']} events, "
          f"{row['moves']} moves, final cost {row['final_cost']}, "
          f"ratio {row['ratio']:.3f} "
          f"({'certified' if row['certified'] else 'NOT CERTIFIED'}), "
          f"{row['final_class']}")
    print(f"wrote {args.out}/{{{','.join(DATA_FILES)},meta.json}}")
    return 0


def cmd_verify(args) -> int:
    data = _load_json(args.snapshot)
    state, family = snapshot_from_jsonable(data)
    verdict = verify_equilibrium(state)
    if not verdict.ok:
        w = verdict.witness
        print(f"equilibrium: NO — terminal witness at vertex {w.vertex} (current "
              f"{format_rational(w.current)}, better {format_rational(w.candidate)})")
        print(w)  # the same witness as one JSON line
        return 4
    cls = classify(state, family)
    report = logn_accounting(state, family)
    print("equilibrium: yes")
    print(f"class: {cls.name}")
    print(f"cost {format_rational(report.total_cost)} vs optimum "
          f"{format_rational(report.opt_cost)}: "
          f"ratio {float(report.ratio):.3f}, gate {report.gate:.1f}, "
          f"certified {'yes' if report.certified else 'NO'}")
    return 0 if report.certified else 4


def _parse_int_list(raw, what) -> list:
    try:
        vals = [int(tok) for tok in str(raw).split(",") if tok != ""]
    except ValueError:
        raise ConfigError(f"{what} wants a comma-separated integer list, got {raw!r}") from None
    if not vals:
        raise ConfigError(f"{what} is empty")
    return vals


def cmd_sweep(args) -> int:
    base = _config_from_args(args)
    keys = GENERATORS[args.gen].keys
    axes = [[base[key]] if key == "profile" or base[key] is None
            else _parse_int_list(base[key], f"the {key} list") for key in keys]
    jobs = [_check_config({**base, **dict(zip(keys, values))})
            for values in itertools.product(*axes)]

    workers = _max_workers(len(jobs))
    t0 = time.monotonic()
    if workers == 1:
        rows = [_sweep_worker(cfg) for cfg in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    rows.sort(key=lambda r: r["label"])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, rows)
    _write_json(out / "meta.json",
                {"config": {"cmd": "sweep", "jobs": jobs},
                 "version": __version__, "workers": workers,
                 "wall_time_s": round(time.monotonic() - t0, 3)})
    for r in rows:
        print(f"{r['label']}: cost {r['final_cost']}, ratio {r['ratio']:.3f}, "
              f"{'certified' if r['certified'] else 'NOT CERTIFIED'}, "
              f"{r['final_class']}")
    print(f"wrote {out}/summary.csv ({len(rows)} rows, {workers} workers)")
    return 0


def cmd_replay(args) -> int:
    old = Path(args.dir)
    meta = _load_json(old / "meta.json")
    cfg = meta.get("config") if isinstance(meta, dict) else None
    if not isinstance(cfg, dict) or cfg.get("cmd") == "sweep":
        raise ConfigError(f"{old}/meta.json does not describe a single run")
    with tempfile.TemporaryDirectory(prefix="costshare-replay-") as tmp:
        _run_into(cfg, Path(tmp))
        produced = {f for f in DATA_FILES if (Path(tmp) / f).exists()}
        expected = {f for f in DATA_FILES if (old / f).exists()}
        if produced != expected:
            print(f"replay diverged: artifact sets differ "
                  f"({sorted(expected ^ produced)})")
            return 4
        bad = [f for f in sorted(produced)
               if not filecmp.cmp(old / f, Path(tmp) / f, shallow=False)]
    if bad:
        print(f"replay diverged in: {', '.join(bad)}")
        return 4
    print(f"replay of {old} is byte-identical ({len(produced)} artifacts)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_gen_params(p, *, lists=False) -> None:
    if lists:
        p.add_argument("--m", help="comma-separated list for the gm generator (each <= 5)")
        p.add_argument("--n", help="comma-separated vertex counts")
        p.add_argument("--seeds", dest="seed", metavar="SEEDS", default="0",
                       help="comma-separated seeds")
    else:
        p.add_argument("--m", type=int, help="size parameter of the gm generator (1..5)")
        p.add_argument("--n", type=int, help="vertex/ratio parameter")
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="churn", choices=EUCLIDEAN_PROFILES,
                   help="euclidean schedule shape")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="costshare",
        description="Shapley cost-shared broadcast routing: simulate, verify, certify.")
    ap.add_argument("--version", action="version", version=f"costshare {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write instance/schedule files for a generator")
    p.add_argument("--gen", required=True, choices=tuple(GENERATORS))
    _add_gen_params(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="simulate one schedule and write artifacts")
    p.add_argument("--gen", choices=tuple(GENERATORS))
    _add_gen_params(p)
    p.add_argument("--instance", help="instance JSON file (alternative to --gen)")
    p.add_argument("--schedule", help="schedule JSON file")
    p.add_argument("--mode", default="eqp", choices=MODES)
    p.add_argument("--batch-order", default="sequential", choices=BATCH_ORDERS,
                   help="how a multi-item arrival event is routed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="check a snapshot: equilibrium + certificate")
    p.add_argument("snapshot", help="path to a snapshot.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run a parameter grid in parallel")
    p.add_argument("--gen", required=True,
                   choices=tuple(g for g, row in GENERATORS.items() if row.modes))
    _add_gen_params(p, lists=True)
    p.add_argument("--mode", default="eqp", choices=MODES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="re-run an output dir and byte-compare")
    p.add_argument("dir", help="output directory of a previous `costshare run`")
    p.set_defaults(func=cmd_replay)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except EngineInvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        if isinstance(exc, ClosureViolationError):
            print(json.dumps(exc.details, sort_keys=True, separators=(",", ":"),
                             default=str), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
