"""Command-line entry point.

Subcommands:
  run    one episode (suite index or fixture), full step log + trace file
  bench  the multi-variant benchmark suite, Table-style CSV + summary
  sweep  metrics versus one per-arm config value, plot-ready CSV

Exit codes: 0 success, 2 configuration error, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from .bench import (
    EpisodeSpec,
    GoalSpec,
    MethodVariant,
    SWEEP_PARAMETERS,
    SWEPT_SECTIONS,
    build_world,
    compute_metrics,
    generate,
    load_fixture,
    run as run_episode,
    run_suite,
    sweep as run_sweep,
)
from .config import ConfigError, RunConfig, load_config, read_assignments
from .world import parse_grid


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _fmt_exact(x: float) -> str:
    """`_fmt(x)` if it reads back as x, else `repr(x)`: distinct swept
    values never print alike."""
    text = _fmt(x)
    return text if float(text) == x else repr(x)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="morn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key=value config file")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted-key config override (repeatable)")
    one_variant = argparse.ArgumentParser(add_help=False)
    one_variant.add_argument("--variant", default="MORN_FULL",
                             choices=[v.value for v in MethodVariant])
    suite = argparse.ArgumentParser(add_help=False)
    suite.add_argument("--episodes", type=int, default=None,
                       help="scale the suite to N >= 1 episodes total")
    suite.add_argument("--workers", type=int, default=0,
                       help="parallel episode workers (0 = available parallelism)")

    run_p = sub.add_parser("run", parents=[common, one_variant], help="run a single episode")
    run_p.add_argument("--episode", type=int, default=None, help="suite episode index")
    run_p.add_argument("--fixture", default=None, help="fixture map name")
    run_p.add_argument("--trace-ascii", action="store_true",
                       help="render text frames of the world and path")

    bench_p = sub.add_parser("bench", parents=[common, suite], help="run the benchmark suite")
    bench_p.add_argument("--variants", default=None,
                         help="comma-separated variant list (default: all five)")

    sweep_p = sub.add_parser("sweep", parents=[common, one_variant, suite],
                             help="sweep one per-arm config value")
    sweep_p.add_argument("--parameter", required=True,
                         help=f"{' | '.join(SWEEP_PARAMETERS)}, or a dotted key in "
                              f"{' | '.join(SWEPT_SECTIONS)}; --set's checks bar the floor")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values; a list that starts with '-' "
                              "needs the = form, e.g. --values=-1.0,0.2")
    return p


def _load(args) -> RunConfig:
    return load_config(args.config, *read_assignments(
        (f"--set item {n}", item) for n, item in enumerate(args.set, 1)))


def _suite(config: RunConfig, episodes: int | None):
    bp = config.bench
    k2, k3 = bp.count_k2, bp.count_k3
    if k2 + k3 == 0:
        raise ConfigError("empty benchmark suite")
    if episodes is not None:
        if episodes < 1:
            raise ConfigError(f"--episodes must be >= 1, got {episodes}")
        frac = k2 / (k2 + k3)
        k2 = round(episodes * frac)
        k3 = episodes - k2
    return generate(k2, k3, bp.master_seed, config)


def _workers(args) -> int:
    if args.workers < 0:
        raise ConfigError(f"--workers must be >= 0 (0 = available parallelism), "
                          f"got {args.workers}")
    if args.workers:
        return args.workers
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_variants(raw: str | None) -> list[MethodVariant]:
    if raw is None:
        return list(MethodVariant)
    if not raw.strip():
        raise ConfigError("--variants is empty; omit it to run every variant")
    out = []
    for n, name in enumerate(raw.split(","), 1):
        name = name.strip()
        if not name:
            raise ConfigError(f"--variants item {n} of {raw!r} is empty")
        try:
            variant = MethodVariant(name)
        except ValueError:
            raise ConfigError(f"unknown variant {name!r}; variants: "
                              f"{', '.join(v.value for v in MethodVariant)}") from None
        if variant in out:
            raise ConfigError(f"variant {name!r} is listed twice in --variants")
        out.append(variant)
    return out


def _out_dir(raw: str) -> Path:
    """`--out`, checked before anything runs but not made: a directory, or
    a path not there yet whose nearest existing ancestor is a directory."""
    out = Path(raw)
    try:
        there = next(path for path in (out, *out.parents) if path.exists())
    except OSError as exc:  # e.g. an ancestor this user may not search
        raise ConfigError(f"--out {raw!r}: {exc.strerror or exc}") from None
    if not there.is_dir():
        where = "" if there == out else f" lies under {str(there)!r}, which"
        raise ConfigError(f"--out {raw!r}{where} is not a directory")
    return out


def _write(out: Path, files: dict[str, str]) -> None:
    """Write each named text into the `--out` directory, made if missing;
    an OSError is a configuration error naming the path."""
    path = out
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = out / name
            path.write_text(text, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {str(path)!r}: "
                          f"{exc.strerror or exc}") from None


def _fixture_spec(name: str, config: RunConfig) -> EpisodeSpec:
    gmap, digits = parse_grid(load_fixture(name), config.world.cell_size)
    ids = sorted(digits)
    return EpisodeSpec(
        episode_id=0,
        seed=config.bench.master_seed,
        goal_count=len(ids),
        budget_max=config.bench.budget(len(ids)),
        goals=[GoalSpec(goal_id=g, category=f"goal{g}") for g in ids],
        fixture=name,
        world=replace(config.world),
    )


def ascii_frames(world, trace) -> str:
    """Text rendering of the map with the agent path per goal segment."""
    frames = []
    gmap = world.gmap
    base = []
    for r in range(gmap.height):
        row = []
        for c in range(gmap.width):
            row.append("." if gmap.is_free((r, c)) else "#")
        base.append(row)
    for gid, goal in world.goals.items():
        r, c = goal.position
        base[r][c] = str(gid)
    segments: dict[int, list] = {}
    for rec in trace.steps:
        segments.setdefault(rec.goal_id, []).append(rec.pose)
    for gid, poses in segments.items():
        grid = [row[:] for row in base]
        for r, c in poses:
            if grid[r][c] == ".":
                grid[r][c] = "*"
        r, c = poses[-1]
        grid[r][c] = "@"
        frames.append(f"-- goal {gid} ({len(poses)} steps) --\n"
                      + "\n".join("".join(row) for row in grid))
    return "\n".join(frames) + "\n"


def cmd_run(args) -> int:
    config = _load(args)
    variant = MethodVariant(args.variant)
    if (args.episode is None) == (args.fixture is None):
        raise ConfigError("run needs exactly one of --episode or --fixture")
    out = _out_dir(args.out)
    if args.fixture is not None:
        spec = _fixture_spec(args.fixture, config)
    else:
        specs = _suite(config, None)
        if not (0 <= args.episode < len(specs)):
            raise ConfigError(f"episode index {args.episode} outside suite of {len(specs)}")
        spec = specs[args.episode]

    world = build_world(spec)
    trace = run_episode(spec, variant, config, world=world)

    stem = f"episode_{spec.episode_id}_{variant.value.lower()}"
    jsonl = "".join(json.dumps({
        "t": rec.t,
        "goal": rec.goal_id,
        "pose": list(rec.pose),
        "d": round(rec.distance, 4),
        "s": round(rec.evidence, 4),
        "pi": round(rec.potentiality, 4),
        "gamma": round(rec.persistence, 4),
        "sigma": round(rec.sufficiency, 4),
        "action": rec.action,
        "reason": rec.reason,
    }, separators=(",", ":")) + "\n" for rec in trace.steps)

    log_lines = [
        f"{'t':>4} {'goal':>4} {'d':>8} {'s':>6} {'pi':>6} {'gamma':>6} "
        f"{'sigma':>6} {'budget':>6}  action"
    ]
    for rec in trace.steps:
        budget_left = spec.budget_max - rec.t
        suffix = "" if rec.action == "PERSIST" else f" [{rec.reason}]"
        log_lines.append(
            f"{rec.t:>4} {rec.goal_id:>4} {_fmt(rec.distance):>8} {_fmt(rec.evidence):>6} "
            f"{_fmt(rec.potentiality):>6} {_fmt(rec.persistence):>6} "
            f"{_fmt(rec.sufficiency):>6} {budget_left:>6}  {rec.action}{suffix}"
        )
    for o in trace.outcomes.values():
        log_lines.append(
            f"goal {o.goal_id}: {o.state.value} found={o.found} spent={o.spent} "
            f"switches={o.switch_count}"
        )
    log = "\n".join(log_lines) + "\n"
    files = {f"{stem}.jsonl": jsonl, f"{stem}.log": log}
    if args.trace_ascii:
        files[f"{stem}.ascii"] = ascii_frames(world, trace)
    _write(out, files)
    sys.stdout.write(log + files.get(f"{stem}.ascii", ""))
    return 0


BENCH_COLUMNS = [
    "variant",
    "k2_mgsr", "k2_cr", "k2_wsf",
    "k3_mgsr", "k3_cr", "k3_wsf",
    "mgsr", "ssr", "cr", "steps", "wsf", "utility",
    "no_detection", "aborted", "switched_unresolved", "false_commit",
]


def cmd_bench(args) -> int:
    config = _load(args)
    variants = _parse_variants(args.variants)
    out = _out_dir(args.out)
    specs = _suite(config, args.episodes)
    results = run_suite(specs, variants, config, workers=_workers(args))

    rows = []
    summary = {}
    bp = config.bench
    for v in variants:
        traces = results[v]
        k2 = [t for t in traces if t.spec.goal_count == 2]
        k3 = [t for t in traces if t.spec.goal_count == 3]
        overall = compute_metrics(traces, bp.reward, bp.lambda_cost)
        row = {"variant": v.value}
        for label, group in (("k2", k2), ("k3", k3)):
            if group:
                m = compute_metrics(group, bp.reward, bp.lambda_cost)
                row[f"{label}_mgsr"] = _fmt(m.mgsr)
                row[f"{label}_cr"] = _fmt(m.cr)
                row[f"{label}_wsf"] = _fmt(m.wsf)
            else:
                row[f"{label}_mgsr"] = row[f"{label}_cr"] = row[f"{label}_wsf"] = ""
        entry = summary[v.value] = {
            "mgsr": overall.mgsr, "ssr": overall.ssr, "cr": overall.cr,
            "steps": overall.mean_steps, "wsf": overall.wsf,
            "utility": overall.utility_mean,
            "failures": overall.failure_counts,
            "episodes": overall.episodes,
        }
        row.update({name: _fmt(entry[name]) for name in BENCH_COLUMNS if name in entry})
        row.update({mode.lower(): str(n) for mode, n in overall.failure_counts.items()})
        rows.append(row)

    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write(out, {
        "bench.csv": table.getvalue(),
        "summary.json": json.dumps({"master_seed": bp.master_seed, "episodes": len(specs),
                                    "variants": summary}, indent=2, sort_keys=True) + "\n",
    })
    sys.stdout.write(table.getvalue())
    return 0


def cmd_sweep(args) -> int:
    config = _load(args)
    variant = MethodVariant(args.variant)
    items = [v.strip() for v in args.values.split(",")]
    if not any(items):
        raise ConfigError("sweep needs a non-empty value list")
    if "" in items:
        raise ConfigError(f"--values item {items.index('') + 1} of {args.values!r} is empty")
    try:
        values = [float(v) for v in items]
    except ValueError as exc:
        raise ConfigError(f"bad sweep value: {exc}") from None
    out = _out_dir(args.out)
    specs = _suite(config, args.episodes)
    rows = run_sweep(specs, variant, args.parameter, values, config, workers=_workers(args))

    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow([args.parameter, "mgsr", "ssr", "cr", "steps", "wsf", "in_envelope"])
    for value, m in rows:
        in_envelope = int(m.config.thresholds.commit > m.config.commit_floor())
        writer.writerow([_fmt_exact(value), _fmt(m.mgsr), _fmt(m.ssr), _fmt(m.cr),
                         _fmt(m.mean_steps), _fmt(m.wsf), in_envelope])
    _write(out, {f"sweep_{args.parameter}.csv": table.getvalue()})
    sys.stdout.write(table.getvalue())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_sweep(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
