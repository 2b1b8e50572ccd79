"""Tests for episode generation, the closed-loop runner and metrics."""

import math
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import morn.bench as bench_mod
from morn.bench import (
    ABSENT,
    FEASIBLE,
    SEALED,
    SWEEP_PARAMETERS,
    EpisodeSpec,
    EpisodeTrace,
    GoalSpec,
    build_world,
    compute_metrics,
    decompose_failures,
    generate,
    mix_seed,
    run,
    run_suite,
    sweep,
)
from morn.config import ConfigError, RunConfig, load_config
from morn.executive import GoalState, GoalStatus, InvalidCallError, MethodVariant
from morn.world import Navigator, distance_field, parse_grid
from test_golden import golden_configs, golden_specs

CFG = load_config()


def small_suite(k2=4, k3=2, seed=314):
    return generate(k2, k3, seed, CFG)


def fixture_spec(name, goals, budget=500, seed=7):
    return EpisodeSpec(episode_id=0, seed=seed, goal_count=len(goals),
                       budget_max=budget, goals=goals, fixture=name)


def synthetic_trace(found_flags, spents, total_steps, goal_count=None,
                    budget=500, commit_sequence=None):
    """Hand-built trace for metric arithmetic tests."""
    k = goal_count or len(found_flags)
    goals = [GoalSpec(i + 1, "thing") for i in range(k)]
    spec = EpisodeSpec(episode_id=0, seed=1, goal_count=k, budget_max=budget,
                       goals=goals)
    outcomes = {}
    for i, (found, spent) in enumerate(zip(found_flags, spents), start=1):
        outcomes[i] = GoalStatus(
            i, GoalState.COMPLETED if found else GoalState.FAILED,
            spent, 0, found=found)
    return EpisodeTrace(spec=spec, steps=[],
                        outcomes=outcomes, total_steps=total_steps,
                        commit_sequence=commit_sequence or
                        [i for i, f in enumerate(found_flags, 1) if f])


class TestSeeding:
    def test_mix_seed_deterministic_and_spread(self):
        assert mix_seed(1, 0) == mix_seed(1, 0)
        seeds = {mix_seed(20240901, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2 ** 64 for s in seeds)

    def test_master_seed_changes_everything(self):
        assert mix_seed(1, 0) != mix_seed(2, 0)


class TestGenerate:
    def test_counts_and_budgets(self):
        specs = generate(300, 200, 20240901, CFG)
        assert len(specs) == 500
        assert [s.episode_id for s in specs] == list(range(500))
        assert all(s.goal_count == 2 and s.budget_max == 500 for s in specs[:300])
        assert all(s.goal_count == 3 and s.budget_max == 650 for s in specs[300:])

    def test_empty(self):
        assert generate(0, 0, 1, CFG) == []

    def test_deterministic(self):
        assert generate(20, 10, 5, CFG) == generate(20, 10, 5, CFG)

    def test_infeasible_fraction_is_respected(self):
        specs = generate(300, 200, 20240901, CFG)
        goals = [g for s in specs for g in s.goals]
        infeasible = sum(1 for g in goals if g.feasibility != FEASIBLE)
        frac = infeasible / len(goals)
        assert abs(frac - CFG.bench.infeasible_fraction) < 0.05

    def test_at_most_one_sealed_goal_per_episode(self):
        specs = generate(300, 200, 20240901, CFG)
        for s in specs:
            assert sum(1 for g in s.goals if g.feasibility == SEALED) <= 1

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidCallError):
            generate(-1, 0, 1, CFG)


class TestEpisodeSpec:
    @pytest.mark.parametrize("goal_count, goals, message", [
        (3, [GoalSpec(1, "mug"), GoalSpec(2, "tv")], "goal_count 3 but 2 goals"),
        (2, [GoalSpec(1, "mug"), GoalSpec(1, "tv")], r"goal ids \[1, 1\] are not unique"),
        (0, [], "an episode needs a goal"),
        (2, [GoalSpec(1, "mug"), GoalSpec(2, "tv", feasibility="Sealed")],
         "goal 2 feasibility 'Sealed' is not one of present, absent, sealed"),
        (1, [GoalSpec(1, "mug", feasibility="absnt")],
         "goal 1 feasibility 'absnt' is not one of present, absent, sealed"),
    ], ids=["count", "duplicate-ids", "no-goals", "feasibility-case", "feasibility-typo"])
    def test_inconsistent_spec_rejected(self, goal_count, goals, message):
        with pytest.raises(InvalidCallError, match=f"episode 7: {message}"):
            EpisodeSpec(episode_id=7, seed=1, goal_count=goal_count, budget_max=500,
                        goals=goals)


class TestBuildWorld:
    def test_fixture_positions(self):
        spec = fixture_spec("two_room", [GoalSpec(1, "mug"), GoalSpec(2, "tv")])
        world = build_world(spec)
        assert set(world.goals) == {1, 2}
        assert all(world.gmap.is_free(g.position) for g in world.goals.values())

    def test_sealed_goal_unreachable_but_sentinel_finite(self):
        spec = fixture_spec("sealed", [GoalSpec(1, "mug", feasibility=SEALED),
                                       GoalSpec(2, "tv")])
        world = build_world(spec)
        assert math.isinf(world.fields[1][world.gmap.spawn])
        assert math.isfinite(world.fields[2][world.gmap.spawn])
        assert math.isfinite(world.sentinel) and world.sentinel > 0

    def test_separation_invariant_on_generated_worlds(self):
        for spec in small_suite(6, 3):
            world = build_world(spec)
            ids = list(world.goals)
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    d = world.fields[a][world.goals[b].position]
                    assert d >= spec.min_separation or math.isinf(d)

    def test_deterministic(self):
        spec = small_suite(1, 0)[0]
        a, b = build_world(spec), build_world(spec)
        assert a.gmap.cells == b.gmap.cells
        assert {g: v.position for g, v in a.goals.items()} == \
               {g: v.position for g, v in b.goals.items()}


class TestRun:
    def test_budget_bound_and_contiguous_steps(self):
        for spec in small_suite(3, 2):
            tr = run(spec, MethodVariant.MORN_FULL, CFG)
            assert tr.total_steps <= spec.budget_max
            assert [rec.t for rec in tr.steps] == list(range(1, len(tr.steps) + 1))
            charged = sum(o.spent for o in tr.outcomes.values())
            assert charged == tr.total_steps

    def test_replay_determinism(self):
        spec = small_suite(2, 0)[1]
        a = run(spec, MethodVariant.MORN_FULL, CFG)
        b = run(spec, MethodVariant.MORN_FULL, CFG)
        assert a.steps == b.steps
        assert a.outcomes == b.outcomes

    def test_trivial_fixture_completes_everything(self):
        spec = fixture_spec("trivial", [GoalSpec(1, "mug"), GoalSpec(2, "tv")])
        tr = run(spec, MethodVariant.MORN_FULL, CFG)
        assert tr.found_count == 2
        assert all(o.state is GoalState.COMPLETED for o in tr.outcomes.values())

    def test_sealed_fixture_fixed_order_pays_cap_morn_aborts(self):
        spec = fixture_spec("sealed", [GoalSpec(1, "mug", feasibility=SEALED),
                                       GoalSpec(2, "tv")])
        world = build_world(spec)
        fo = run(spec, MethodVariant.FIXED_ORDER, CFG, world=world)
        full = run(spec, MethodVariant.MORN_FULL, CFG, world=world)
        cap = 250  # even split of the 500 budget over 2 goals
        assert fo.outcomes[1].spent >= cap
        assert not fo.outcomes[1].aborted_by_meta
        assert full.outcomes[1].aborted_by_meta
        assert full.outcomes[1].spent < cap
        assert full.outcomes[2].found

    def test_baselines_never_use_meta_branches(self):
        for spec in small_suite(3, 1):
            for variant in (MethodVariant.FIXED_ORDER, MethodVariant.REACTIVE_ORDER):
                tr = run(spec, variant, CFG)
                for rec in tr.steps:
                    if rec.action in ("ABORT", "SWITCH"):
                        assert rec.reason == "SUBGOAL_CAP"
                    if rec.action == "COMMIT":
                        assert rec.reason == "EVIDENCE_COMMIT"

    def test_exact_tie_goes_to_the_lowest_goal_id(self):
        # both goals are one cell from the spawn; at 0.7 m per cell their
        # distances in meters would differ in the last bit
        config = load_config(overrides={"world.cell_size": "0.7", "signal.step_length": "0.7"})
        gmap, cells = parse_grid("#####\n#1S2#\n#####", 0.7)
        spec = EpisodeSpec(episode_id=0, seed=7, goal_count=2, budget_max=30,
                           goals=[GoalSpec(1, "mug"), GoalSpec(2, "tv")], world=config.world)
        fields = {g: distance_field(gmap, cell) for g, cell in cells.items()}
        world = bench_mod._assemble(gmap, spec, cells, fields)
        tr = run(spec, MethodVariant.REACTIVE_ORDER, config, world=world)
        assert tr.steps[0].goal_id == 1

    def test_step_length_checked_against_the_map(self):
        quarter = load_config(overrides={"world.cell_size": "0.25",
                                         "signal.step_length": "0.25"})
        spec = generate(1, 0, 314, quarter)[0]
        with pytest.raises(ConfigError, match=r"step_length \(0.5\) must equal the map's "
                                              r"cell_size \(0.25\)"):
            run(spec, MethodVariant.MORN_FULL, RunConfig())

    def test_found_requires_true_proximity(self):
        for spec in small_suite(4, 2):
            world = build_world(spec)
            tr = run(spec, MethodVariant.MORN_FULL, CFG, world=world)
            for o in tr.outcomes.values():
                if o.found:
                    assert o.committed
                    assert world.goals[o.goal_id].present
                    assert o.commit_distance <= CFG.bench.success_radius


class TestMetrics:
    def test_hand_example(self):
        tr = synthetic_trace([True, False], [100, 400], total_steps=500)
        m = compute_metrics([tr])
        assert m.cr == 0.5
        assert m.mgsr == 0.0
        assert m.wsf == pytest.approx(0.8)
        assert m.mean_steps == 500

    def test_all_found(self):
        tr = synthetic_trace([True, True], [60, 70], total_steps=130)
        m = compute_metrics([tr])
        assert m.mgsr == 1.0 and m.wsf == 0.0 and m.cr == 1.0
        assert m.ssr == 1.0

    def test_none_found(self):
        tr = synthetic_trace([False, False], [250, 250], total_steps=500)
        m = compute_metrics([tr])
        assert m.cr == 0.0 and m.wsf == 1.0

    def test_ssr_requires_prescribed_order(self):
        tr = synthetic_trace([True, True], [60, 70], total_steps=130,
                             commit_sequence=[2, 1])
        assert compute_metrics([tr]).ssr == 0.0

    def test_utility(self):
        tr = synthetic_trace([True, False], [100, 400], total_steps=500)
        m = compute_metrics([tr], reward=2.0, lambda_cost=0.001)
        assert m.utility_mean == pytest.approx(2.0 - 0.5)

    def test_empty_rejected(self):
        with pytest.raises(InvalidCallError):
            compute_metrics([])

    def test_consistency_on_real_traces(self):
        specs = small_suite(4, 2)
        results = run_suite(specs, [MethodVariant.MORN_FULL], CFG)
        traces = results[MethodVariant.MORN_FULL]
        m = compute_metrics(traces)
        assert m.mgsr <= m.cr
        assert 0.0 <= m.wsf <= 1.0
        cr_oracle = sum(t.found_count / t.spec.goal_count for t in traces) / len(traces)
        assert m.cr == pytest.approx(cr_oracle)
        failed_goals = sum(1 for t in traces for o in t.outcomes.values()
                           if not o.found)
        assert sum(m.failure_counts.values()) == failed_goals

    def test_aggregation_is_order_independent(self):
        specs = small_suite(4, 2)
        traces = run_suite(specs, [MethodVariant.MORN_FULL], CFG)[MethodVariant.MORN_FULL]
        shuffled = traces[:]
        random.Random(0).shuffle(shuffled)
        a, b = compute_metrics(traces), compute_metrics(shuffled)
        # summation order may differ by an ulp; anything beyond that is a bug
        for x, y in zip((a.mgsr, a.ssr, a.cr, a.mean_steps, a.wsf, a.utility_mean),
                        (b.mgsr, b.ssr, b.cr, b.mean_steps, b.wsf, b.utility_mean)):
            assert x == pytest.approx(y, rel=1e-12)
        assert a.failure_counts == b.failure_counts


class TestFailureDecomposition:
    def test_all_success_is_all_zero(self):
        tr = synthetic_trace([True, True], [50, 50], total_steps=100)
        assert all(v == 0 for v in decompose_failures([tr]).values())

    def test_sealed_fixture_classes(self):
        spec = fixture_spec("sealed", [GoalSpec(1, "mug", feasibility=SEALED),
                                       GoalSpec(2, "tv")])
        world = build_world(spec)
        fo = decompose_failures([run(spec, MethodVariant.FIXED_ORDER, CFG, world=world)])
        full = decompose_failures([run(spec, MethodVariant.MORN_FULL, CFG, world=world)])
        assert fo["NO_DETECTION"] == 1 and fo["ABORTED"] == 0
        assert full["ABORTED"] == 1 and full["NO_DETECTION"] == 0

    def test_false_commit_dominates(self):
        tr = synthetic_trace([False], [90], total_steps=90, goal_count=1)
        tr.outcomes[1].state = GoalState.COMPLETED  # committed, not found
        assert decompose_failures([tr])["FALSE_COMMIT"] == 1


POOL_SCRIPT = """\
import multiprocessing
import pickle
import sys

from morn.bench import generate, run_suite
from morn.config import RunConfig
from morn.executive import MethodVariant

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    config = RunConfig()
    results = run_suite(generate(3, 2, 11, config), list(MethodVariant), config, workers=2)
    with open(sys.argv[2], "wb") as f:
        pickle.dump(results, f)
"""


@pytest.fixture
def no_world(monkeypatch):
    def no_world(spec):
        raise AssertionError("a world was built before validation")

    monkeypatch.setattr(bench_mod, "build_world", no_world)


class TestSuiteAndSweep:
    def test_variants_share_worlds_and_specs(self):
        specs = small_suite(2, 1)
        results = run_suite(specs, [MethodVariant.FIXED_ORDER,
                                    MethodVariant.MORN_FULL], CFG)
        for fo, full in zip(results[MethodVariant.FIXED_ORDER],
                            results[MethodVariant.MORN_FULL]):
            assert fo.spec == full.spec

    def test_parallel_matches_serial(self):
        specs = small_suite(3, 0)
        serial = run_suite(specs, [MethodVariant.MORN_FULL], CFG)
        parallel = run_suite(specs, [MethodVariant.MORN_FULL], CFG, workers=2)
        for a, b in zip(serial[MethodVariant.MORN_FULL],
                        parallel[MethodVariant.MORN_FULL]):
            assert a.outcomes == b.outcomes
            assert a.total_steps == b.total_steps

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_under_start_method_matches_serial(self, tmp_path, method):
        # `fork` is the Linux default before Python 3.14, `forkserver` from
        # 3.14 and `spawn` on macOS; the children of the last two re-import
        # __main__, so the script must be a file
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        script = tmp_path / "pool_run.py"
        script.write_text(POOL_SCRIPT)
        src = os.path.dirname(os.path.dirname(bench_mod.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, str(script), method, str(tmp_path / "out")],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "out", "rb") as f:
            parallel = pickle.load(f)
        config = RunConfig()
        serial = run_suite(generate(3, 2, 11, config), list(MethodVariant), config, workers=1)
        assert suite_outcomes(parallel) == suite_outcomes(serial)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            sweep(small_suite(1, 0), MethodVariant.MORN_FULL, "tau_x", [0.1], CFG)

    def test_sweep_rows_match_direct_runs(self):
        specs = small_suite(2, 1)
        values = [0.5, CFG.thresholds.commit, 0.7]
        table = sweep(specs, MethodVariant.MORN_FULL, "tau_c", values, CFG)
        assert [value for value, _ in table] == values
        for value, report in table:
            # 0.5 is below the calibration floor
            cfg = replace(CFG, thresholds=replace(CFG.thresholds, commit=value))
            direct = run_suite(specs, [MethodVariant.MORN_FULL], cfg)
            assert report == compute_metrics(direct[MethodVariant.MORN_FULL])

    def test_sweep_builds_each_world_once(self, monkeypatch):
        built = []

        def counting(spec):
            built.append(spec.episode_id)
            return build_world(spec)

        monkeypatch.setattr(bench_mod, "build_world", counting)
        sweep(small_suite(3, 0), MethodVariant.MORN_FULL, "tau_c", [0.6, 0.65, 0.7], CFG)
        assert sorted(built) == [0, 1, 2]

    def test_parallel_sweep_matches_serial(self):
        specs = small_suite(3, 1)
        values = [0.55, 0.6, 0.65]
        serial = sweep(specs, MethodVariant.MORN_FULL, "tau_c", values, CFG)
        parallel = sweep(specs, MethodVariant.MORN_FULL, "tau_c", values, CFG, workers=2)
        assert parallel == serial

    @pytest.mark.parametrize("parameter, bad", [
        ("t_grace", -5), ("d_commit", 0.0),
        ("tau_c", math.nan), ("tau_c", math.inf), ("tau_a", -math.inf), ("tau_s", math.nan),
        ("d_commit", math.nan), ("d_commit", math.inf),
        # the second 10 repeats the first, as a float
        ("tau_c", 10.0), ("t_grace", 10.0), ("d_commit", 10),
    ])
    def test_out_of_range_sweep_value_rejected_before_running(self, no_world,
                                                              parameter, bad):
        with pytest.raises(ConfigError, match=f"{parameter}={bad}"):
            sweep(small_suite(1, 0), MethodVariant.MORN_FULL, parameter, [10, bad], CFG)

    @pytest.mark.parametrize("parameter", ["tau_c", "thresholds.bogus", "weights.pot_v"])
    def test_empty_sweep_rejected(self, no_world, parameter):
        with pytest.raises(ConfigError, match="sweep needs a non-empty value list"):
            sweep(small_suite(1, 0), MethodVariant.MORN_FULL, parameter, [], CFG)

    def test_zero_grace_sweep_runs(self):
        specs = small_suite(1, 0)
        table = sweep(specs, MethodVariant.MORN_FULL, "t_grace", [0.0], CFG)
        assert len(table) == 1

    def test_fractional_grace_sweep_rejected(self):
        with pytest.raises(ConfigError, match="10.5"):
            sweep(small_suite(1, 0), MethodVariant.MORN_FULL, "t_grace", [10, 10.5], CFG)

    @pytest.mark.parametrize("parameter, bad", [
        ("t_grace", 10.5), ("thresholds.grace", 10.5), ("thresholds.grace", -5),
        ("thresholds.commit_distance", 0), ("d_commit", 0), ("weights.prox_scale", 0),
        ("signal.window", 1), ("weights.acc_e", 0.9), ("thresholds.bogus", 1),
    ])
    def test_sweep_rejects_a_value_as_set_does(self, no_world, parameter, bad):
        key = SWEEP_PARAMETERS.get(parameter, parameter)
        with pytest.raises(ConfigError) as by_set:
            load_config(overrides={key: str(bad)})
        with pytest.raises(ConfigError) as by_sweep:
            sweep(small_suite(1, 0), MethodVariant.MORN_FULL, parameter, [bad], CFG)
        assert str(by_sweep.value) == f"sweep {parameter}={bad!r}: {by_set.value}"

    def test_sweep_leaves_the_calibration_envelope(self):
        # `--set` rejects a commit threshold at or below the floor; a sweep
        # runs it, and `in_envelope` reports it
        with pytest.raises(ConfigError, match="sufficiency floor 0.5946"):
            load_config(overrides={"thresholds.commit": "0.5"})
        table = sweep(small_suite(1, 0), MethodVariant.MORN_FULL, "thresholds.commit",
                      [0.5], CFG)
        assert [value for value, _ in table] == [0.5]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_weights_sweep_matches_runs_at_set_configs(self, workers):
        specs = small_suite(2, 1)
        values = [0.3, 0.4]
        table = sweep(specs, MethodVariant.MORN_FULL, "weights.pot_v", values, CFG,
                      workers=workers)
        assert [value for value, _ in table] == values
        for value, report in table:
            cfg = load_config(overrides={"weights.pot_v": repr(value)})
            direct = run_suite(specs, [MethodVariant.MORN_FULL], cfg)
            assert report == compute_metrics(direct[MethodVariant.MORN_FULL])

    @pytest.mark.parametrize("parameter", ["world.rooms_x", "bench.master_seed", "tau_x"])
    def test_sweep_of_a_suite_key_rejected_before_running(self, no_world, parameter):
        # specs and worlds come from the base config once, so a per-value
        # world or suite key would be ignored
        with pytest.raises(ConfigError, match=f"cannot sweep {parameter!r}"):
            sweep(small_suite(1, 0), MethodVariant.MORN_FULL, parameter, [4, 5], CFG)


def arm_lists(cfg):
    """Arm lists whose arms share simulation state up to some step, and one
    whose two weights settings may never share it."""
    other = replace(cfg, weights=replace(cfg.weights, pot_v=0.6, gate_inertia=0.5))
    return {
        "variants": [(v, cfg) for v in MethodVariant],
        "tau_c": [(MethodVariant.MORN_FULL,
                   replace(cfg, thresholds=replace(cfg.thresholds, commit=c)))
                  for c in (0.5, 0.55, 0.6, 0.65, 0.7)],
        "weights": [(v, c) for c in (cfg, other)
                    for v in (MethodVariant.FIXED_ORDER, MethodVariant.MORN_FULL)],
        # one branch whose arms count different streaks: none, abort only,
        # switch only, under two abort/switch/grace settings
        "streaks": [(v, replace(cfg, thresholds=replace(cfg.thresholds, **th)))
                    for th in ({}, {"abort": 0.6, "switch": 0.0, "grace": 5})
                    for v in (MethodVariant.FIXED_ORDER, MethodVariant.MORN_ABORT_ONLY,
                              MethodVariant.MORN_SWITCH_ONLY)],
        # one branch whose arms' quiet steps and commit gates differ: the
        # least grace of an abort or switch arm (20), not the baseline's 0,
        # the least warmup and the greatest commit distance bound the branch
        "gates": [(v, replace(cfg, thresholds=replace(cfg.thresholds, grace=g,
                                                      commit_warmup=w, commit_distance=c)))
                  for v, g, w, c in ((MethodVariant.FIXED_ORDER, 0, 5, 4.0),
                                     (MethodVariant.MORN_ABORT_ONLY, 30, 0, 2.0),
                                     (MethodVariant.MORN_FULL, 20, 5, 3.0))],
    }


def outcome(trace):
    return trace.outcomes, trace.total_steps, trace.commit_sequence


def suite_outcomes(results):
    return {variant.value: [(trace.spec, outcome(trace)) for trace in traces]
            for variant, traces in results.items()}


class TestForkedArms:
    """`_run_arms` simulates the steps arms share once and forks the state
    where their decisions part; every arm's trace must equal the one an
    independent `run` gives."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cfg_index", [0, 1])
    @pytest.mark.parametrize("arms_name", ["variants", "tau_c", "weights", "streaks", "gates"])
    def test_forked_arms_match_independent_runs(self, arms_name, cfg_index, workers):
        cfg = golden_configs()[cfg_index]
        arms = arm_lists(cfg)[arms_name]
        # the golden episodes have two goals; with three, the next goal
        # after an intervention depends on the variant
        specs = golden_specs(golden_configs()[0]) + generate(0, 4, 11, CFG)
        shared = bench_mod._run_arms(specs, arms, workers)
        for (variant, arm_cfg), traces in zip(arms, shared):
            for spec, trace in zip(specs, traces):
                alone = run(spec, variant, arm_cfg)
                assert outcome(trace) == outcome(alone), (arms_name, variant, spec.episode_id)

    def test_arms_with_different_gates_share_one_branch(self):
        arms = arm_lists(CFG)["gates"]
        for spec in small_suite(3, 1):
            forks = bench_mod._Forks(spec, build_world(spec), arms)
            assert [len(branch.arms) for branch in forks.pending] == [3]

    def test_quiet_steps_compute_no_signal(self, monkeypatch):
        counts = dict.fromkeys(("step", "update", "sufficiency"), 0)

        def counting(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(Navigator, "step", counting("step", Navigator.step))
        for name in ("update", "sufficiency"):
            monkeypatch.setattr(bench_mod, name, counting(name, getattr(bench_mod, name)))
        alone = run(small_suite(1, 0)[0], MethodVariant.MORN_FULL, CFG)
        assert counts == dict.fromkeys(counts, alone.total_steps)
        counts.update(dict.fromkeys(counts, 0))
        run_suite(small_suite(6, 4), list(MethodVariant), CFG)
        assert counts["step"] > counts["update"] > counts["sufficiency"] > 0

    def test_configs_differing_beyond_thresholds_never_share(self):
        arms = arm_lists(CFG)["weights"]
        for spec in small_suite(3, 1):
            forks = bench_mod._Forks(spec, build_world(spec), arms)
            for branch in forks.pending:
                assert len({id(arms[a.index][1]) for a in branch.arms}) == 1

    def test_run_called_once_per_arm_in_arm_order(self, monkeypatch):
        calls, returned = [], []
        real_run = bench_mod.run

        def recording(spec, variant, config, *args, **kwargs):
            calls.append((spec.episode_id, variant, config))
            returned.append(real_run(spec, variant, config, *args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(bench_mod, "run", recording)
        specs = small_suite(3, 1)
        arms = arm_lists(CFG)["variants"]
        shared = bench_mod._run_arms(specs, arms, 1)
        assert calls == [(spec.episode_id, v, c) for spec in specs for v, c in arms]
        assert returned == [shared[i][j] for j in range(len(specs)) for i in range(len(arms))]

    def test_arms_out_of_order_rejected(self):
        spec = small_suite(1, 0)[0]
        arms = arm_lists(CFG)["variants"]
        forks = bench_mod._Forks(spec, build_world(spec), arms)
        with pytest.raises(InvalidCallError, match="arm order"):
            run(spec, *arms[1], forks=forks)

    def test_forks_of_another_spec_rejected(self):
        a, b = small_suite(2, 0)
        arms = arm_lists(CFG)["variants"]
        forks = bench_mod._Forks(a, build_world(a), arms)
        with pytest.raises(InvalidCallError, match="built for episode 0 got episode 1"):
            run(b, *arms[0], forks=forks)

    @pytest.mark.parametrize("arms_name", ["variants", "weights"])
    def test_first_call_simulates_every_arm(self, monkeypatch, arms_name):
        simulated = 0
        real_step = Navigator.step

        def counting(nav):
            nonlocal simulated
            simulated += 1
            return real_step(nav)

        monkeypatch.setattr(Navigator, "step", counting)
        arms = arm_lists(CFG)[arms_name]
        for spec in small_suite(3, 1) + generate(0, 4, 11, CFG):
            forks = bench_mod._Forks(spec, build_world(spec), arms)
            per_call = []
            for variant, config in arms:
                simulated = 0
                run(spec, variant, config, forks=forks)
                per_call.append(simulated)
            assert per_call[0] > 0 and per_call[1:] == [0] * (len(arms) - 1), spec.episode_id
            assert not forks.pending and not forks.traces

    def test_shared_steps_are_simulated_once(self, monkeypatch):
        simulated = 0
        real_step = Navigator.step

        def counting(nav):
            nonlocal simulated
            simulated += 1
            return real_step(nav)

        monkeypatch.setattr(Navigator, "step", counting)
        spec = small_suite(1, 0)[0]
        alone = run(spec, MethodVariant.MORN_FULL, CFG)
        assert simulated == alone.total_steps
        simulated = 0
        results = run_suite(small_suite(6, 4), list(MethodVariant), CFG)
        reported = sum(tr.total_steps for traces in results.values() for tr in traces)
        assert simulated < reported

    def test_runs_never_write_their_world(self):
        # every arm of a spec replays one world, so no run may change it
        arms = arm_lists(CFG)["variants"]
        sealed = fixture_spec("sealed", [GoalSpec(1, "mug", feasibility=SEALED),
                                         GoalSpec(2, "tv")])
        for spec in [sealed] + generate(0, 3, 11, CFG):
            world = build_world(spec)
            before = pickle.dumps(world)
            for variant, config in arms:
                run(spec, variant, config, world=world)
            forks = bench_mod._Forks(spec, world, arms)
            for variant, config in arms:
                run(spec, variant, config, forks=forks)
            assert pickle.dumps(world) == before, spec.episode_id


@pytest.mark.parametrize("workers,spec_count,pool_size", [
    (3, 1, None), (3, 2, 2), (2, 5, 2), (1, 5, None), (0, 3, None),
])
def test_pool_no_larger_than_its_jobs(monkeypatch, workers, spec_count, pool_size):
    import concurrent.futures

    sizes = []

    class SerialPool:
        """Records its size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    specs = small_suite(spec_count, 0)
    arms = [(MethodVariant.MORN_FULL, CFG)]
    (traces,) = bench_mod._run_arms(specs, arms, workers)
    assert sizes == ([] if pool_size is None else [pool_size])
    assert [outcome(tr) for tr in traces] == [outcome(run(s, *arms[0])) for s in specs]
