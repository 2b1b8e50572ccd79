"""Workload inputs and timed passes over the public API of `morn.bench`.

One pass runs the workload once over its episode specs and returns the
host time of the pass, the host time of every spec, the outcome record of
every operation (one episode x variant run, or one episode x tau_c value
on `sweep`) and the metrics reports the program computed.

Nothing here imports `morn` at module level: `setup` does, so that the
set-up time a child process measures includes importing the program.
"""

from __future__ import annotations

import os
import pickle
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import outcomes
import spans

WORKLOADS = ("suite", "sweep", "suite-par")
DEFAULT_SEED = 20240901
# Episode types (goal count, absent goals, sealed goals) in 40 specs of the
# paper mix: the expected counts of 24 two-goal and 16 three-goal episodes
# under `generate`'s draw (each goal infeasible with probability 0.2,
# sealed at most once), rounded by largest remainder; 20 of 96 goals are
# infeasible. Taking the first specs of each type, instead of the first 40
# specs, keeps wsf, cr and the work per pass from swinging with how many
# infeasible goals a seed happens to draw.
MIX = {
    (2, 0, 0): 15, (2, 0, 1): 4, (2, 1, 0): 4, (2, 1, 1): 1,
    (3, 0, 0): 8, (3, 0, 1): 3, (3, 1, 0): 3, (3, 1, 1): 1, (3, 2, 0): 1,
}
CANDIDATES = 15  # candidate specs generated per selected spec
# A pass runs PASS_SCALE x MIX (80 specs): with 40, the median spec time
# alone moves by ~10 % from seed to seed. wsf and cr are taken over
# MORN_FULL on HEADLINE_SCALE x MIX (240 other specs from the same seed):
# over 40 specs their quartile spread across seeds is 0.1-0.2 of the median.
PASS_SCALE = 2
HEADLINE_SCALE = 6
TAU_C_OFFSETS = (-0.10, -0.05, 0.0, 0.05, 0.10)
# Host speed on a shared machine drifts by tens of percent within seconds.
# Every timed unit of a pass (one spec of a serial pass, the whole pool
# run of a parallel one, the metrics computation) is scaled by
# CALIBRATION_S over the time of a fixed pure-Python loop on either side
# of it (in the workers, around a pool run), so it reads as seconds on a host
# where the loop takes CALIBRATION_S (this 2-CPU box when quiet). A run
# keeps each unit's fastest scaled time over its passes (`best`). Over six
# seeds the quartile spread of a serial pass's time was 0.07 for the
# median raw pass, 0.11 for the median scaled pass and 0.03 for this.
CALIBRATION_S = 0.00225
SMOOTH = 2  # sections on either side whose calibration samples are pooled
SPEC_TIMES = Path(__file__).resolve().parent / "out" / "spec_times"


def calibrate(reps: int = 1) -> float:
    """Median seconds of `reps` runs of a fixed pure-Python loop."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x = 0
        for i in range(30_000):
            x += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Inputs:
    workload: str
    seed: int
    config: object  # morn RunConfig
    specs: list
    variants: list
    values: tuple  # tau_c values on `sweep`, (None,) elsewhere
    workers: int


@dataclass
class Pass:
    cpu_s: float = 0.0  # CPU of the processes that ran the timed sections
    spec_s: dict[int, float] = field(default_factory=dict)  # episode id -> scaled seconds
    records: dict[str, dict] = field(default_factory=dict)  # operation key -> record
    budgets: dict[str, int] = field(default_factory=dict)  # operation key -> budget_max
    errors: list[str] = field(default_factory=list)  # operations that raised
    wsf: float = float("nan")  # MORN_FULL at the default tau_c
    cr: float = float("nan")
    traces: list = field(default_factory=list)  # (key, EpisodeTrace)
    samples: list[float] = field(default_factory=list)  # calibration times between sections
    calibration: dict = field(default_factory=dict)  # unit -> its own calibration time
    sections: list[tuple] = field(default_factory=list)  # (unit, raw seconds, sample before)

    @contextmanager
    def section(self, unit, who: int = resource.RUSAGE_SELF):
        """Time the body as `unit`, with a calibration sample on either
        side; a body that raises is not counted."""
        if not self.samples:
            self.samples.append(calibrate())
        cpu0, t0 = _cpu(who), time.perf_counter()
        yield
        seconds, cpu = time.perf_counter() - t0, _cpu(who) - cpu0
        self.samples.append(calibrate())
        self.cpu_s += cpu
        self.sections.append((unit, seconds, len(self.samples) - 2))

    @property
    def units(self) -> dict:
        """Scaled seconds per unit: its raw seconds times CALIBRATION_S over
        its own calibration time if it has one, else the median calibration
        sample within SMOOTH sections of it."""
        return {unit: seconds * CALIBRATION_S / self.calibration.get(
                    unit, statistics.median(self.samples[max(0, i - SMOOTH): i + 2 + SMOOTH]))
                for unit, seconds, i in self.sections}

    @property
    def wall_s(self) -> float:
        """Raw host seconds of the timed sections."""
        return sum(seconds for _, seconds, _ in self.sections)

    @property
    def scaled_s(self) -> float:
        return sum(self.units.values())

    @property
    def scale(self) -> float:
        return self.scaled_s / self.wall_s if self.sections else 1.0


def best(passes: list, unit_times=lambda p: p.units) -> dict:
    """Each unit's fastest scaled seconds over the passes that timed it."""
    out: dict = {}
    for p in passes:
        for unit, seconds in unit_times(p).items():
            out[unit] = min(seconds, out.get(unit, seconds))
    return out


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def episode_type(spec) -> tuple[int, int, int]:
    feas = [g.feasibility for g in spec.goals]
    return (spec.goal_count, feas.count("absent"), feas.count("sealed"))


def paper_mix(generate, seed: int, config, scale: int = 1) -> list:
    """The first specs of each episode type in `generate`'s stream for
    `seed`, `scale * MIX[type]` of each, in stream order."""
    need = {t: n * scale for t, n in MIX.items()}
    picked = []
    n = CANDIDATES * scale
    k2 = sum(c for (k, _, _), c in MIX.items() if k == 2)
    k3 = sum(c for (k, _, _), c in MIX.items() if k == 3)
    for spec in generate(k2 * n, k3 * n, seed, config):
        t = episode_type(spec)
        if need.get(t, 0) > 0:
            need[t] -= 1
            picked.append(spec)
    short = {t: left for t, left in need.items() if left}
    if short:
        raise RuntimeError(f"seed {seed}: too few candidate episodes of types {short}")
    return picked


def headline(inp: Inputs) -> Inputs:
    """MORN_FULL at the default config, serially, over the headline specs."""
    from morn import bench
    from morn.executive import MethodVariant

    specs = paper_mix(bench.generate, inp.seed, inp.config, HEADLINE_SCALE)
    return Inputs("suite", inp.seed, inp.config, specs, [MethodVariant.MORN_FULL], (None,), 1)


def setup(workload: str, seed: int) -> Inputs:
    """Import the program, load its default config and generate the specs."""
    from morn import bench, load_config
    from morn.executive import MethodVariant

    config = load_config()
    specs = paper_mix(bench.generate, seed, config, PASS_SCALE)
    if workload == "sweep":
        base = config.thresholds.commit
        return Inputs(workload, seed, config, specs, [MethodVariant.MORN_FULL],
                      tuple(round(base + d, 4) for d in TAU_C_OFFSETS), 1)
    workers = nproc() if workload == "suite-par" else 1
    return Inputs(workload, seed, config, specs, list(MethodVariant), (None,), workers)


def op_key(episode_id: int, variant, value) -> str:
    return f"{episode_id}/{variant.value}/{'-' if value is None else format(value, 'g')}"


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def run_pass(inp: Inputs) -> Pass:
    if inp.workload == "sweep":
        return _sweep_pass(inp)
    if inp.workers > 1:
        return _parallel_pass(inp)
    return _serial_pass(inp)


def _finish(result: Pass, pairs) -> Pass:
    """Fill records and budgets from (key, spec, trace) triples."""
    for key, spec, trace in pairs:
        result.records[key] = outcomes.record(trace)
        result.budgets[key] = spec.budget_max
        result.traces.append((key, trace))
    return result


def _fail_spec(inp: Inputs, result: Pass, *specs) -> None:
    """Count every operation of `specs` as raised."""
    traceback.print_exc(file=sys.stderr)
    result.errors += [op_key(spec.episode_id, v, value)
                      for spec in specs for v in inp.variants for value in inp.values]


def _serial_pass(inp: Inputs) -> Pass:
    """`run_suite(..., workers=1)` one spec at a time, so each spec's host
    time (world build plus all variants) is seen from outside."""
    from morn import bench
    from morn.executive import MethodVariant

    bp = inp.config.bench
    traces = {v: [] for v in inp.variants}
    done = []
    result = Pass()
    for spec in inp.specs:
        try:
            with result.section(spec.episode_id):
                out = bench.run_suite([spec], inp.variants, inp.config, workers=1)
        except Exception:  # a failed operation is counted, never fatal
            _fail_spec(inp, result, spec)
            continue
        done.append(spec)
        for v in inp.variants:
            traces[v].append(out[v][0])
    try:
        with result.section("metrics"):
            reports = {v: bench.compute_metrics(traces[v], bp.reward, bp.lambda_cost)
                       for v in inp.variants if traces[v]}
    except Exception:
        _fail_spec(inp, result, *inp.specs)
        return result
    full = reports.get(MethodVariant.MORN_FULL)
    if full is not None:
        result.wsf, result.cr = full.wsf, full.cr
    result.spec_s = {spec.episode_id: result.units[spec.episode_id] for spec in done}
    return _finish(result, (
        (op_key(spec.episode_id, v, None), spec, traces[v][i])
        for v in inp.variants for i, spec in enumerate(done)))


class TimedRunOne:
    """Stands in for `morn.bench._run_one` in the pool workers and appends
    `<episode id> <seconds> <calibration before> <calibration after>` per
    spec to a file per worker process: the calibration loop runs in the
    worker, on the CPU the spec ran on (about 2 ms per spec, which the
    pool's wall time includes). Only the output directory is pickled; the
    original function is found again in the worker."""

    def __init__(self, original, out_dir: str):
        self.original = original
        self.out_dir = out_dir
        self.last = None

    def __getstate__(self):
        return {"out_dir": self.out_dir}

    def __setstate__(self, state):
        self.original = self.last = None
        self.out_dir = state["out_dir"]

    def __call__(self, args):
        run_one = self.original
        if run_one is None:
            from morn import bench
            run_one = bench._run_one
            if isinstance(run_one, TimedRunOne):  # forked copy of the parent
                run_one = run_one.original
        before = self.last if self.last is not None else calibrate()
        t0 = time.perf_counter()
        result = run_one(args)
        seconds = time.perf_counter() - t0
        self.last = calibrate()
        with open(os.path.join(self.out_dir, f"{os.getpid()}.txt"), "a") as fh:
            fh.write(f"{result[0]} {seconds!r} {before!r} {self.last!r}\n")
        return result


def read_spec_times(out_dir: Path) -> dict[int, tuple[float, float, float]]:
    """Episode id -> (seconds, calibration before, calibration after)."""
    times = {}
    for path in sorted(out_dir.glob("*.txt")):
        for line in path.read_text().splitlines():
            ep, *numbers = line.split()
            times[int(ep)] = tuple(float(x) for x in numbers)
        path.unlink()
    return times


def _parallel_pass(inp: Inputs) -> Pass:
    """`run_suite(..., workers=nproc)` over all specs at once: the process
    pool of `morn bench`. Needs `TimedRunOne` bound as `_run_one`; the
    pool run is scaled by the median of the workers' calibration samples,
    each spec by the samples on either side of it."""
    from morn import bench
    from morn.executive import MethodVariant

    bp = inp.config.bench
    result = Pass()
    try:
        with result.section("pool", who=resource.RUSAGE_CHILDREN):
            out = bench.run_suite(inp.specs, inp.variants, inp.config, workers=inp.workers)
        with result.section("metrics"):
            reports = {v: bench.compute_metrics(out[v], bp.reward, bp.lambda_cost)
                       for v in inp.variants}
    except Exception:
        _fail_spec(inp, result, *inp.specs)
        read_spec_times(SPEC_TIMES)  # drop this pass's spec times
        return result
    times = read_spec_times(SPEC_TIMES)
    result.calibration["pool"] = statistics.median(c for _, *cal in times.values() for c in cal)
    result.spec_s = {ep: s * CALIBRATION_S / ((before + after) / 2)
                     for ep, (s, before, after) in times.items()}
    full = reports[MethodVariant.MORN_FULL]
    result.wsf, result.cr = full.wsf, full.cr
    return _finish(result, (
        (op_key(spec.episode_id, v, None), spec, out[v][i])
        for v in inp.variants for i, spec in enumerate(inp.specs)))


def _sweep_pass(inp: Inputs) -> Pass:
    """`sweep` over MORN_FULL and the tau_c values, one spec at a time.
    `sweep` keeps only metrics reports, so the episode traces are taken
    from `morn.bench.run` as it returns them (see `collect_runs`)."""
    from morn import bench

    variant = inp.variants[0]
    bp = inp.config.bench
    result = Pass()
    by_id = {s.episode_id: s for s in inp.specs}
    with collect_runs() as runs:
        for spec in inp.specs:
            try:
                with result.section(spec.episode_id):
                    bench.sweep([spec], variant, "tau_c", list(inp.values), inp.config,
                                workers=1)
            except Exception:
                _fail_spec(inp, result, spec)
    result.spec_s = result.units
    done = [(value, tr) for value, tr in runs if tr.spec.episode_id in result.spec_s]
    at_default = [tr for value, tr in done if value == inp.config.thresholds.commit]
    if at_default:
        m = bench.compute_metrics(at_default, bp.reward, bp.lambda_cost)
        result.wsf, result.cr = m.wsf, m.cr
    return _finish(result, (
        (op_key(tr.spec.episode_id, variant, value), by_id[tr.spec.episode_id], tr)
        for value, tr in done))


class collect_runs:
    """Context manager rebinding `morn.bench.run` to append
    `(tau_c, EpisodeTrace)` for every episode it runs."""

    def __enter__(self) -> list:
        self.runs = []
        self.rebinding = spans.Rebinding()
        runs = self.runs

        def make(run):
            def collecting(spec, variant, config, *args, **kwargs):
                trace = run(spec, variant, config, *args, **kwargs)
                runs.append((config.thresholds.commit, trace))
                return trace
            return collecting

        if not self.rebinding.bind("morn.bench", "run", make):
            raise RuntimeError("morn.bench has no `run` to collect episodes from")
        return runs

    def __exit__(self, *exc) -> None:
        wrong = self.rebinding.restore()
        if wrong:
            raise RuntimeError(f"not restored: {wrong}")


class timed_pool:
    """Context manager binding `TimedRunOne` as `morn.bench._run_one` and
    preparing the directory the workers write spec times to."""

    def __enter__(self):
        shutil.rmtree(SPEC_TIMES, ignore_errors=True)
        SPEC_TIMES.mkdir(parents=True)
        self.rebinding = spans.Rebinding()
        if not self.rebinding.bind("morn.bench", "_run_one",
                                   lambda fn: TimedRunOne(fn, str(SPEC_TIMES))):
            raise RuntimeError("morn.bench has no `_run_one` pool task to time")
        return self

    def __exit__(self, *exc) -> None:
        wrong = self.rebinding.restore()
        shutil.rmtree(SPEC_TIMES, ignore_errors=True)
        if wrong:
            raise RuntimeError(f"not restored: {wrong}")


def shipped_bytes(inp: Inputs, p: Pass) -> tuple[int, int]:
    """Pickled bytes of the jobs and results a pool ships for this pass:
    one `(spec, variants, config, record_steps)` job and one
    `(episode id, traces)` result per spec and tau_c value, each pickled
    on its own (the pool's chunks of 8 share memo entries)."""
    job = res = 0
    per_spec: dict[tuple, list] = {}
    for key, trace in p.traces:
        ep, _, value = key.split("/")
        per_spec.setdefault((int(ep), value), []).append(trace)
    by_id = {s.episode_id: s for s in inp.specs}
    for (ep, _), traces in per_spec.items():
        job += len(pickle.dumps((by_id[ep], inp.variants, inp.config, False)))
        res += len(pickle.dumps((ep, traces)))
    return job, res
