"""The morn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite|sweep|suite-par \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The workload's 80 episode specs are generated from `--seed`, then
passes over them repeat for `--seconds`. Every operation (one episode x
variant run) is checked: invariants always, the committed reference at
the default seed (a few default-seed specs are also run first in every
run), the first pass's outcomes in later passes, the serial outcomes on
`suite-par`, and the untraced outcomes in traced passes.

With `--trace 0` the end-to-end metrics are printed, with `--trace 1` the
per-layer ones from a traced run; `metrics.json` defines both. The last
line of standard output is the result as JSON; the environment, the
metrics and (traced) the spans are also written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import figures
import harness
import outcomes
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5
PROBE_SPECS = 4

SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import harness
t0 = time.perf_counter()
harness.setup(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds of `SETUP_RUNS` fresh processes, each pinned to one
    CPU in turn and scaled by the calibration loop timed on that CPU just
    before and after it. Unpinned, the import of numpy's threaded BLAS
    also waits on the other CPU, and its time swung by half between
    minutes on a shared host."""
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    times = []
    for i in range(SETUP_RUNS):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})  # inherited by the child
        try:
            before = harness.calibrate(5)
            out = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload, str(seed)],
                capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
            after = harness.calibrate(5)
        finally:
            os.sched_setaffinity(0, allowed)
        seconds = float(out.stdout.strip().splitlines()[-1])
        times.append(seconds * harness.CALIBRATION_S / ((before + after) / 2))
    return times


def passes_for(seconds: float, inp, ledger, tag: str, expected=None, tracer=None) -> list:
    """Passes over `inp` until `seconds` have gone by (at least one). Each
    is checked against `expected`, or else against the first pass."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        token = tracer.open(spans.ROOT) if tracer else None
        p = harness.run_pass(inp)
        if tracer:
            tracer.close(token)
        ledger.check(tag, p, expected if expected is not None or not passes
                     else passes[0].records)
        if passes:
            p.traces = []
        passes.append(p)
    return passes


def probe(workload: str, ledger, reference: dict) -> None:
    """Run the first default-seed specs serially and check them against
    the committed reference, whatever `--seed` is. Also warms up."""
    inp = harness.setup(workload, harness.DEFAULT_SEED)
    inp = replace(inp, specs=inp.specs[:PROBE_SPECS], workers=1)
    ledger.check("reference", harness.run_pass(inp), reference)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(args, inp, ledger, reference, env) -> tuple[dict, dict]:
    setup_times = measure_setup(args.workload, args.seed)
    probe(args.workload, ledger, reference)
    full = harness.run_pass(harness.headline(inp))
    ledger.check("headline", full)
    expected = reference if args.seed == harness.DEFAULT_SEED else None
    pool = harness.timed_pool() if inp.workers > 1 else nullcontext()
    with pool:
        if inp.workers > 1:
            serial = harness.run_pass(replace(inp, workers=1))
            ledger.check("serial", serial, expected)
            expected = serial.records
        passes = passes_for(args.seconds, inp, ledger, "pass", expected)

    ok = [p for p in passes if not p.errors] or passes
    wall = sum(harness.best(ok).values())
    steps = sum(r["total_steps"] for r in ok[0].records.values())
    per_spec = list(harness.best(ok, lambda p: p.spec_s).values())
    pct, tail_s, beyond = figures.tail(per_spec)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "episodes_per_s": len(ok[0].records) / wall,
        "episode_ms.p50": statistics.median(per_spec) * 1e3,
        "episode_ms.tail": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "wsf": full.wsf,
        "cr": full.cr,
    }
    notes = {
        "setup_s": f"{SETUP_RUNS} processes, {min(setup_times):.4f}..{max(setup_times):.4f}",
        "wall_s": (f"best of {len(ok)} passes per unit; median pass unscaled "
                   f"{statistics.median(p.wall_s for p in ok):.4f} s, "
                   f"host slowdown x{statistics.median(1 / p.scale for p in ok):.3f}"),
        "steps_per_s": f"{steps} steps per pass",
        "episodes_per_s": f"{len(ok[0].records)} runs per pass",
        "episode_ms.tail": f"p{pct:g}, n={len(per_spec)} specs, {beyond} beyond",
        "wsf": f"MORN_FULL over {len(full.records)} specs",
        "cr": f"MORN_FULL over {len(full.records)} specs",
    }
    env["passes"] = [{"wall_s": p.wall_s, "scaled_s": p.scaled_s} for p in passes]
    return values, notes


def traced_passes(seconds, inp, ledger, tag, expected, layers):
    """Passes under a fresh tracer of `layers`; every rebound name must be
    the original object again afterwards."""
    tracer = spans.Tracer()
    rebinding = spans.Rebinding()
    missing = spans.install(tracer, rebinding, layers)
    try:
        passes = passes_for(seconds, inp, ledger, tag, expected, tracer)
    finally:
        wrong = rebinding.restore()
    if wrong:
        raise RuntimeError(f"rebound names not restored: {wrong}")
    for name in missing:
        print(f"warning: {name} not found, left untraced", file=sys.stderr)
    return tracer, passes


def layer_values(tracer, passes) -> dict:
    """Calls and scaled self seconds of every span name, per pass."""
    n = len(passes)
    scale = sum(p.scaled_s for p in passes) / sum(p.wall_s for p in passes)
    return {key: value
            for name, (calls, _, self_ns) in tracer.stats.items() if name != spans.ROOT
            for key, value in ((f"{name}.calls", calls / n),
                               (f"{name}.self_s", self_ns / 1e9 / n * scale))}


def per_layer(args, inp, ledger, reference, env) -> tuple[dict, dict]:
    probe(args.workload, ledger, reference)
    expected = reference if args.seed == harness.DEFAULT_SEED else None
    half = args.seconds / 2.0
    if inp.workers > 1:
        # Worker spans do not come back: step and world layers are traced
        # on a serial pass over the same specs, the pool from the parent.
        tracer, traced = traced_passes(0.0, replace(inp, workers=1), ledger, "traced-serial",
                                       expected, spans.ALL_LAYERS)
        with harness.timed_pool():
            plain = passes_for(half, inp, ledger, "pool", traced[0].records)
            parent, parent_traced = traced_passes(half, inp, ledger, "pool-traced",
                                                  traced[0].records, spans.PARENT_LAYERS)
        overhead_passes = parent_traced
        parent_values = layer_values(parent, parent_traced)
    else:
        plain = passes_for(half, inp, ledger, "untraced", expected)
        tracer, traced = traced_passes(half, inp, ledger, "traced", plain[0].records,
                                       spans.ALL_LAYERS)
        overhead_passes = traced
        parent_values = {}

    n = len(traced)
    scale = sum(p.scaled_s for p in traced) / sum(p.wall_s for p in traced)
    values = layer_values(tracer, traced)
    values.update({k: v for k, v in parent_values.items() if k.startswith("bench.compute_metrics.")})
    recs = list(traced[0].records.values())
    steps = sum(r["total_steps"] for r in recs)
    committed = sum(g[4] for r in recs for g in r["goals"])
    found = sum(g[3] for r in recs for g in r["goals"])
    layer_ns = sum(st[2] for name, st in tracer.stats.items() if name != spans.ROOT)
    timed_s = sum(p.wall_s for p in traced)
    job_bytes, result_bytes = harness.shipped_bytes(inp, plain[0])
    values.update({
        "world.build_world.ms_p50": (statistics.median(tracer.durations_ns("world.build_world"))
                                     / 1e6 * scale),
        "world.distance_field.per_world": (tracer.calls("world.distance_field")
                                           / tracer.calls("world.build_world")),
        "world.navigator.move_ratio": (tracer.tallies.get("world.navigator.step", 0)
                                       / tracer.calls("world.navigator.step")),
        "executive.commit_precision": found / committed,
        "bench.steps": steps,
        "bench.run.self_ns_per_step": tracer.self_ns("bench.run") / n / steps * scale,
        "bench.pool.child_cpu_s": statistics.median(p.cpu_s * p.scale for p in plain),
        "bench.pool.utilization": statistics.median(p.cpu_s / (p.wall_s * inp.workers)
                                                    for p in plain),
        "bench.pool.job_bytes": job_bytes,
        "bench.pool.result_bytes": result_bytes,
        "trace.overhead_frac": (sum(harness.best(overhead_passes).values())
                                / sum(harness.best(plain).values()) - 1.0),
        "trace.accounted_frac": layer_ns / 1e9 / timed_s,
    })
    notes = {
        "trace.accounted_frac": (f"layer self times sum to {layer_ns / 1e9:.4f} s of "
                                 f"{timed_s:.4f} s traced wall (unscaled) over {n} passes"),
        "trace.overhead_frac": f"{len(overhead_passes)} traced vs {len(plain)} untraced passes",
    }
    env["passes"] = {"untraced": len(plain), "traced": n}
    env["spans"] = {
        "aggregates": {k: {"calls": v[0], "inclusive_ns": v[1], "self_ns": v[2]}
                       for k, v in sorted(tracer.stats.items())},
        "record_fields": ["id", "name", "start_ns", "end_ns", "parent", "operation"],
        "records": tracer.records,
    }
    return values, notes


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "morn").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "morn" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'morn'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import morn
    import numpy

    if Path(morn.__file__).resolve().parent != SRC / "morn":
        print(f"perfbench: imported morn from {morn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    catalogue = figures.load_catalogue()
    reference = outcomes.load_reference()[outcomes.reference_kind(args.workload)]
    inp = harness.setup(args.workload, args.seed)
    env = {
        "commit": git_commit(), "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": harness.nproc(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "episodes": len(inp.specs),
        "k2": sum(s.goal_count == 2 for s in inp.specs),
        "k3": sum(s.goal_count == 3 for s in inp.specs),
        "variants": [v.value for v in inp.variants], "workers": inp.workers,
        "tau_c": list(inp.values) if args.workload == "sweep" else None,
    }
    ledger = outcomes.Ledger()
    measure = per_layer if args.trace else end_to_end
    values, notes = measure(args, inp, ledger, reference, env)

    wanted = catalogue["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    spans_out = env.pop("spans", None)
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        extra = f"  [{notes[m['name']]}]" if m["name"] in notes else ""
        print(f"metric {m['name']} = {value:.6g} {m['unit']} "
              f"({m['kind']}, {m['better']} is better){extra}")
    print(f"failed_frac = {ledger.failed_frac():.6g} ({len(ledger.failed)} of {ledger.attempted} "
          "operations)")
    for note in ledger.notes:
        print(f"failure {note}")
    result = {"correct": not ledger.failed, "attempted": ledger.attempted,
              "failed": len(ledger.failed), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "result": result, "failures": ledger.notes, "spans": spans_out}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
