"""Golden outputs: a digest of every step record and goal outcome of a
fixed set of closed-loop runs, so any change in controller behaviour,
however small, shows up here (floats rounded to 9 places), and the sha256
of the default benchmark's `bench.csv` and `summary.json`.

If a change is meant to move these, recompute the digests (`golden_digest()`,
`sha256sum` on the files `morn bench --workers 1` writes) and say in the
change log why they moved.
"""

import hashlib
import json

from morn.bench import SEALED, EpisodeSpec, GoalSpec, build_world, generate, run
from morn.config import RunConfig
from morn.executive import MethodVariant, Thresholds

GOLDEN = "05403d557aa26e0f3cb4aae53e670a2a3a41751536143495854c16182d2bbe77"
BENCH_SHA256 = {
    "bench.csv": "b185744aee10ce15d507e51c601d09c6282eaa9591aa65377981456e3f25a2de",
    "summary.json": "cf629647e16af96a1d2523f94bee2ac8457df99f4a5edf10792cab22967c35ec",
}

OUTCOME_FIELDS = ("goal_id", "state", "spent", "switch_count", "committed", "found",
                  "commit_distance", "aborted_by_meta", "gate_switches")


def _plain(x):
    if isinstance(x, float):
        return round(x, 9)
    if isinstance(x, tuple):
        return [_plain(v) for v in x]
    return getattr(x, "value", x)


def golden_specs(cfg):
    """The first six default-seed suite episodes plus the two fixture
    scenarios of ACCEPTANCE 8."""
    bp = cfg.bench
    specs = generate(bp.count_k2, bp.count_k3, bp.master_seed, cfg)[:6]
    specs.append(EpisodeSpec(episode_id=0, seed=7, goal_count=2, budget_max=500,
                             goals=[GoalSpec(1, "mug"), GoalSpec(2, "tv")],
                             fixture="trivial"))
    specs.append(EpisodeSpec(episode_id=0, seed=7, goal_count=2, budget_max=500,
                             goals=[GoalSpec(1, "mug", feasibility=SEALED),
                                    GoalSpec(2, "tv")],
                             fixture="sealed"))
    return specs


def golden_configs():
    """The defaults, and a controller with no grace whose abort and switch
    levels sit above a freshly reset window's states: the one setting in
    which the streak reset at an intervention shows in the step log."""
    return [RunConfig(), RunConfig(thresholds=Thresholds(grace=0, abort=0.6, switch=-0.1))]


def golden_digest():
    h = hashlib.sha256()
    configs = golden_configs()
    for spec in golden_specs(configs[0]):
        world = build_world(spec)
        for cfg in configs:
            for variant in MethodVariant:
                trace = run(spec, variant, cfg, world=world)
                for rec in trace.steps:
                    h.update(json.dumps([_plain(v) for v in rec]).encode())
                for gid, o in sorted(trace.outcomes.items()):
                    h.update(json.dumps([gid] + [_plain(getattr(o, f))
                                                 for f in OUTCOME_FIELDS]).encode())
                h.update(json.dumps([trace.total_steps, trace.commit_sequence]).encode())
    return h.hexdigest()


def test_step_log_matches_golden_digest():
    assert golden_digest() == GOLDEN


def test_default_benchmark_output_matches_golden_sha256(bench_run):
    out, _ = bench_run
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in BENCH_SHA256}
    assert digests == BENCH_SHA256
