"""Acceptance gate: the eight release criteria for the navigation executive.

Each criterion prints exactly one ``ACCEPTANCE n <name>: PASS|FAIL`` line on
the real stdout (bypassing capture) and then asserts, so the verdict is
visible in any captured test log while failures still fail the suite.

The full default benchmark (500 episodes, five method variants) is executed
once through the CLI and shared by criteria 4, 5, 6 and 7.
"""

import csv
import math
import random
import time
from collections import deque

import pytest

import morn.bench as bench_mod
from morn.bench import (
    EpisodeSpec,
    GoalSpec,
    SEALED,
    build_world,
    generate,
    run,
    sweep,
)
from morn.cli import main
from morn.config import RunConfig
from morn.executive import (
    BudgetLedger,
    DecisionReason,
    MetaAction,
    MethodVariant,
    MissionSchedule,
    Thresholds,
    allocate,
    apply,
    decide,
    select_next,
)
from morn.signals import RollingWindow, SignalParams, SignalSample, clip, update
from morn.signals import stability as stability_fn
from morn.states import (
    MetaStateVector,
    StateWeights,
    SunkCost,
    persistence_gate,
    potentiality,
    proximity,
    sigmoid,
    sufficiency,
)
from morn.world import WorldParams, distance_field, generate_map, geodesic_distance

TOL = 1e-9
VARIANT_NAMES = [
    "FIXED_ORDER",
    "REACTIVE_ORDER",
    "MORN_ABORT_ONLY",
    "MORN_SWITCH_ONLY",
    "MORN_FULL",
]


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capsys):
    """Let _report print verdict lines past pytest's output capture."""
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} {name}: {verdict}"
    if detail:
        line += f" ({detail})"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _two_pass(values, capacity):
    window = values[-capacity:]
    n = len(window)
    mean = sum(window) / n
    return mean, sum((x - mean) ** 2 for x in window) / n


def _bfs_hops(cells, h, w, start):
    """Independent shortest-hop oracle over the free 4-grid of the
    row-major `cells` of an h x w map."""
    hops = {start: 0}
    q = deque([start])
    while q:
        r, c = q.popleft()
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < h and 0 <= nc < w and cells[nr * w + nc] == 0 \
                    and (nr, nc) not in hops:
                hops[(nr, nc)] = hops[(r, c)] + 1
                q.append((nr, nc))
    return hops


def _read_bench_csv(out_dir):
    with open(out_dir / "bench.csv", newline="") as fh:
        return {row["variant"]: row for row in csv.DictReader(fh)}


@pytest.fixture(scope="session")
def suite_specs():
    cfg = RunConfig()
    return generate(cfg.bench.count_k2, cfg.bench.count_k3,
                    cfg.bench.master_seed, cfg)


class TestCriterion1:
    def test_formula_unit_suite(self):
        t0 = time.process_time()
        W = StateWeights()
        sp = SignalParams()
        checks = []

        def ck(label, actual, expected):
            checks.append((label, actual, expected))

        ck("clip upper", clip(1.5, 0, 1), 1.0)
        ck("clip inside", clip(0.3, 0, 1), 0.3)
        ck("clip lower", clip(-2.0, 0, 1), 0.0)

        win = RollingWindow(sp.window)
        s = update(win, SignalSample(1, 10.0, 0.0), sp)
        s = update(win, SignalSample(2, 10.0, 1.0), sp)
        ck("window mean", s.mean, 0.5)
        ck("window variance", s.variance, 0.25)

        rng = random.Random(42)
        values = [rng.random() for _ in range(100)]
        win = RollingWindow(sp.window)
        worst = 0.0
        for i, v in enumerate(values):
            s = update(win, SignalSample(i + 1, 10.0, v), sp)
            _, var = _two_pass(values[: i + 1], sp.window)
            worst = max(worst, abs(s.variance - var))
        ck("stream variance vs two-pass", worst, 0.0)

        ck("stability zero var", stability_fn(0.0, sp), 1.0)
        ck("stability at sigma", stability_fn(sp.sigma_norm, sp),
           1.0 - sp.sigma_norm / (sp.sigma_norm + sp.epsilon))
        ck("stability saturates", stability_fn(2 * sp.sigma_norm, sp), 0.0)

        spq = SignalParams(step_length=0.25)
        win = RollingWindow(spq.window)
        for i, d in enumerate((10.0, 9.75, 9.5, 9.25, 9.0)):
            s = update(win, SignalSample(i + 1, d, 0.1), spq)
        ck("velocity approach", s.velocity, 1.0)
        win = RollingWindow(spq.window)
        for i, d in enumerate((9.0, 9.25, 9.5)):
            s = update(win, SignalSample(i + 1, d, 0.1), spq)
        ck("velocity retreat", s.velocity, -1.0)

        from morn.signals import SignalSummary, info_gain
        ck("info gain resolving",
           info_gain(SignalSummary(variance=0.04), SignalSummary(variance=0.01)), 0.03)
        ck("info gain rising noise",
           info_gain(SignalSummary(variance=0.0), SignalSummary(variance=0.05)), -0.05)

        ck("sigmoid(1)", sigmoid(1.0), 1.0 / (1.0 + math.exp(-1.0)))
        ck("potentiality ones", potentiality(1, 1, 1, W), sigmoid(1.0))
        ck("potentiality retreat", potentiality(-1, 0, 0, W), sigmoid(-0.4))
        ck("gate full inertia",
           persistence_gate(0.0, SunkCost(100, 100), 0.0, W), sigmoid(-0.3))
        ck("gate mixed",
           persistence_gate(0.2, SunkCost(50, 100), 0.5, W), sigmoid(0.05))
        ck("proximity scale", proximity(5.0, W), math.exp(-1.0))
        ck("sufficiency ones", sufficiency(1.0, 1.0, 0.0, W), 1.0)
        ck("sufficiency blend", sufficiency(0.5, 1.0, 5.0, W),
           0.15 + 0.4 + 0.3 * math.exp(-1.0))

        ck("allocate even split",
           allocate(BudgetLedger(500, 0, elapsed=0), 2), 250)
        ck("allocate floor binds",
           allocate(BudgetLedger(650, 0, elapsed=600), 3), 50)
        ck("allocate cap binds",
           allocate(BudgetLedger(500, 0, elapsed=0), 1), 300)
        ck("allocate after abort",
           allocate(BudgetLedger(500, 0, elapsed=200), 2), 150)
        ck("select_next nearest",
           select_next([1, 2], (0.0, 0.0), {1: (3.0, 4.0), 2: (6.0, 0.0)}), 1)

        bad = [(lbl, a, e) for lbl, a, e in checks if abs(a - e) > TOL]
        elapsed = time.process_time() - t0
        ok = not bad and elapsed < 1.0
        _report(1, "formula unit suite",
                ok, f"{len(checks)} examples, {elapsed:.3f}s" +
                (f"; mismatches: {bad}" if bad else ""))


class TestCriterion2:
    def test_oracle_equivalence(self):
        t0 = time.process_time()
        sp = SignalParams()
        rng = random.Random(20240901)
        worst = 0.0
        for _ in range(1000):
            n = rng.randint(1, 30)
            values = [rng.random() for _ in range(n)]
            win = RollingWindow(sp.window)
            for i, v in enumerate(values):
                s = update(win, SignalSample(i + 1, 5.0, v), sp)
                _, var = _two_pass(values[: i + 1], sp.window)
                worst = max(worst, abs(s.variance - var))
        variance_ok = worst <= TOL

        geo_ok = True
        wp = WorldParams()
        for m in range(100):
            map_rng = random.Random(1000 + m)
            gmap, _, _ = generate_map(map_rng, wp, sealed_room=(m % 3 == 0))
            field = distance_field(gmap, gmap.spawn)
            h, w = gmap.height, gmap.width
            hops = _bfs_hops(gmap.cells, h, w, gmap.spawn)
            for r in range(h):
                for c in range(w):
                    if gmap.cells[r * w + c] != 0:
                        continue
                    expected = hops.get((r, c))
                    got = field[r * w + c]
                    if expected is None:
                        geo_ok &= math.isinf(got)
                    else:
                        geo_ok &= got == expected * gmap.cell_size
            free = [cell for cell in hops][:5]
            for cell in free:
                geo_ok &= geodesic_distance(gmap, cell, gmap.spawn) == \
                    hops[cell] * gmap.cell_size
        elapsed = time.process_time() - t0
        ok = variance_ok and geo_ok and elapsed < 30.0
        _report(2, "oracle equivalence", ok,
                f"variance worst err {worst:.2e}, geodesic exact={geo_ok}, "
                f"{elapsed:.1f}s")


class TestCriterion3:
    def test_controller_invariants(self, monkeypatch):
        t0 = time.process_time()
        th = Thresholds()
        rng = random.Random(7)
        problems = []

        # 10,000 randomized decision states against the declared invariants.
        for i in range(10_000):
            variant = MethodVariant[VARIANT_NAMES[rng.randrange(5)]]
            allocation = rng.randint(50, 300)
            spent = rng.randint(1, allocation)
            elapsed = rng.randint(spent, 650)
            ledger = BudgetLedger(650, allocation, elapsed=elapsed,
                                  active_spent=spent)
            states = MetaStateVector(rng.random(), rng.random(), rng.random())
            distance = rng.uniform(0.0, 20.0)
            remaining = rng.randint(1, 3)
            dec = decide(states, distance, ledger, th, variant,
                         remaining_count=remaining,
                         abort_streak=rng.randint(0, 80),
                         switch_streak=rng.randint(0, 80))
            if spent < th.grace and dec.action in (MetaAction.ABORT, MetaAction.SWITCH):
                problems.append(f"#{i}: {dec.action} during grace")
            if dec.action is MetaAction.COMMIT and not (
                    states.sufficiency > th.commit
                    and distance < th.commit_distance):
                problems.append(f"#{i}: commit outside gate")
            if dec.reason is DecisionReason.LOW_POTENTIALITY and not variant.abort_enabled:
                problems.append(f"#{i}: meta abort in {variant}")
            if dec.reason is DecisionReason.GATE_CLOSED and not variant.switch_enabled:
                problems.append(f"#{i}: meta switch in {variant}")
            if dec.action is MetaAction.SWITCH and remaining < 2:
                problems.append(f"#{i}: switch with no alternative")

        # Post-intervention bookkeeping: the ledger and schedule reset.
        schedule = MissionSchedule([1, 2])
        schedule.activate(1)
        ledger = BudgetLedger(500, 250, elapsed=100, active_spent=100)
        dec = decide(MetaStateVector(0.3, 0.2, 0.1), 9.0, ledger, th,
                     MethodVariant.MORN_FULL, remaining_count=2,
                     abort_streak=999, switch_streak=999)
        apply(dec, schedule, ledger, (0.0, 0.0),
              {1: (1.0, 1.0), 2: (2.0, 2.0)}, MethodVariant.MORN_FULL)
        if ledger.active_spent != 0:
            problems.append("apply() did not reset active goal spend")

        # Closed-loop episodes with an instrumented window: every
        # intervention resets the window, whose very next push has size 1.
        events = []

        class RecordingWindow(RollingWindow):
            def reset(self):
                events.append(("reset", None))
                super().reset()

            def push(self, value, distance):
                super().push(value, distance)
                events.append(("push", len(self)))

        monkeypatch.setattr(bench_mod, "RollingWindow", RecordingWindow)
        cfg = RunConfig()
        specs = generate(30, 10, 77, cfg)
        interventions = 0
        for spec in specs:
            for variant in (MethodVariant.MORN_FULL, MethodVariant.FIXED_ORDER):
                events.clear()
                trace = run(spec, variant, cfg)
                if trace.total_steps > spec.budget_max:
                    problems.append(f"ep{spec.episode_id}: budget exceeded")
                if sum(o.spent for o in trace.outcomes.values()) > spec.budget_max:
                    problems.append(f"ep{spec.episode_id}: charged > budget")
                active = 0
                for step in trace.steps:
                    active += 1
                    if step.action in ("ABORT", "SWITCH") and active < th.grace:
                        problems.append(
                            f"ep{spec.episode_id} t{step.t}: {step.action} in grace")
                    if step.action == "COMMIT":
                        if not (step.sufficiency > th.commit
                                and step.distance < th.commit_distance):
                            problems.append(
                                f"ep{spec.episode_id} t{step.t}: bad commit")
                    if step.action != "PERSIST":
                        active = 0
                non_persist = sum(1 for s in trace.steps if s.action != "PERSIST")
                resets = sum(1 for kind, _ in events if kind == "reset")
                if resets != non_persist:
                    problems.append(
                        f"ep{spec.episode_id}: {resets} resets vs "
                        f"{non_persist} interventions")
                for j, (kind, _) in enumerate(events):
                    if kind == "reset" and j + 1 < len(events):
                        nk, size = events[j + 1]
                        if nk == "push" and size != 1:
                            problems.append(
                                f"ep{spec.episode_id}: window size {size} "
                                "after reset")
                interventions += non_persist
        elapsed = time.process_time() - t0
        ok = not problems and elapsed < 30.0 and interventions > 0
        _report(3, "controller invariants", ok,
                f"10000 randomized states + {len(specs) * 2} episodes "
                f"({interventions} interventions), {elapsed:.1f}s" +
                (f"; first issues: {problems[:3]}" if problems else ""))


class TestCriterion4:
    def test_directional_replication(self, bench_run):
        out, elapsed = bench_run
        rows = _read_bench_csv(out)
        wsf = {v: float(rows[v]["wsf"]) for v in VARIANT_NAMES}
        cr = {v: float(rows[v]["cr"]) for v in VARIANT_NAMES}
        a = wsf["MORN_FULL"] <= wsf["REACTIVE_ORDER"] - 0.05 \
            and wsf["MORN_FULL"] <= wsf["FIXED_ORDER"] - 0.05
        b = cr["MORN_FULL"] >= cr["FIXED_ORDER"] + 0.03
        c = cr["MORN_FULL"] >= max(cr["MORN_ABORT_ONLY"],
                                   cr["MORN_SWITCH_ONLY"]) - 0.01
        timing = elapsed < 300.0
        _report(4, "directional replication", a and b and c and timing,
                f"WSF full {wsf['MORN_FULL']:.3f} vs RO {wsf['REACTIVE_ORDER']:.3f}"
                f"/FO {wsf['FIXED_ORDER']:.3f}; CR full {cr['MORN_FULL']:.3f} vs "
                f"FO {cr['FIXED_ORDER']:.3f}, ablations "
                f"{cr['MORN_ABORT_ONLY']:.3f}/{cr['MORN_SWITCH_ONLY']:.3f}; "
                f"{elapsed:.0f}s single-threaded")


class TestCriterion5:
    def test_failure_mode_shift(self, bench_run):
        out, _ = bench_run
        rows = _read_bench_csv(out)
        nd_full = int(rows["MORN_FULL"]["no_detection"])
        nd_fixed = int(rows["FIXED_ORDER"]["no_detection"])
        aborted = int(rows["MORN_FULL"]["aborted"])
        switched = int(rows["MORN_FULL"]["switched_unresolved"])
        ok = nd_full < nd_fixed and aborted + switched > 0
        _report(5, "failure-mode shift", ok,
                f"NO_DETECTION {nd_full} (full) < {nd_fixed} (fixed); "
                f"ABORTED {aborted} + SWITCHED_UNRESOLVED {switched}")


class TestCriterion6:
    def test_commit_threshold_sensitivity(self, bench_run, suite_specs):
        out, _ = bench_run
        cfg = RunConfig()
        default_cr = float(_read_bench_csv(out)["MORN_FULL"]["cr"])
        band = [cfg.thresholds.commit - 0.1, cfg.thresholds.commit + 0.1]
        swept = sweep(suite_specs, MethodVariant.MORN_FULL, "tau_c", band,
                      cfg, workers=1)
        crs = {value: report.cr for value, report in swept}
        crs[cfg.thresholds.commit] = default_cr
        span = max(crs.values()) - min(crs.values())
        _report(6, "commit-threshold sensitivity", span <= 0.05,
                "CR " + ", ".join(f"{v:.2f}->{c:.3f}" for v, c in sorted(crs.items()))
                + f"; span {span:.3f}")


class TestCriterion7:
    def test_determinism(self, bench_run, tmp_path):
        out_a, _ = bench_run
        out_b = tmp_path / "bench_b"
        out_c = tmp_path / "bench_c"
        assert main(["bench", "--workers", "1", "--out", str(out_b)]) == 0
        assert main(["bench", "--workers", "8", "--out", str(out_c)]) == 0
        csv_repeat = (out_a / "bench.csv").read_bytes() == \
            (out_b / "bench.csv").read_bytes()
        summary_repeat = (out_a / "summary.json").read_bytes() == \
            (out_b / "summary.json").read_bytes()
        csv_workers = (out_a / "bench.csv").read_bytes() == \
            (out_c / "bench.csv").read_bytes()
        traces = []
        for name in ("t1", "t2"):
            d = tmp_path / name
            assert main(["run", "--episode", "3", "--out", str(d)]) == 0
            traces.append((d / "episode_3_morn_full.jsonl").read_bytes())
        trace_repeat = traces[0] == traces[1]
        ok = csv_repeat and summary_repeat and csv_workers and trace_repeat
        _report(7, "determinism", ok,
                f"csv repeat={csv_repeat}, summary repeat={summary_repeat}, "
                f"workers 1 vs 8 identical={csv_workers}, "
                f"trace repeat={trace_repeat}")


class TestCriterion8:
    def test_fixture_scenarios(self):
        cfg = RunConfig()
        trivial = EpisodeSpec(episode_id=0, seed=7, goal_count=2, budget_max=500,
                              goals=[GoalSpec(1, "mug"), GoalSpec(2, "tv")],
                              fixture="trivial")
        tr = run(trivial, MethodVariant.MORN_FULL, cfg)
        trivial_ok = tr.found_count == 2

        sealed = EpisodeSpec(episode_id=0, seed=7, goal_count=2, budget_max=500,
                             goals=[GoalSpec(1, "mug", feasibility=SEALED),
                                    GoalSpec(2, "tv")],
                             fixture="sealed")
        world = build_world(sealed)
        fo = run(sealed, MethodVariant.FIXED_ORDER, cfg, world=world)
        full = run(sealed, MethodVariant.MORN_FULL, cfg, world=world)
        cap = allocate(BudgetLedger(500, 0, elapsed=0), 2)
        fixed_pays_cap = fo.outcomes[1].spent >= cap
        morn_aborts_early = full.outcomes[1].aborted_by_meta \
            and full.outcomes[1].spent < cap

        # A one-step false-positive spike inflates windowed variance, which
        # collapses stability and keeps sufficiency below the commit gate.
        sp = cfg.signal
        W = cfg.weights
        th = cfg.thresholds
        win = RollingWindow(sp.window)
        evidence = [cfg.perception.base_noise_mean] * 12
        evidence[6] += cfg.perception.spike_amplitude  # the single spike
        spiked_commit = False
        for i, e in enumerate(evidence):
            s = update(win, SignalSample(i + 1, 2.9, e), sp)
            sigma = sufficiency(e, s.stability, 2.9, W)
            ledger = BudgetLedger(500, 250, elapsed=i + 1, active_spent=i + 1)
            # high potentiality/persistence so the commit branch is reached
            dec = decide(MetaStateVector(0.9, 0.9, sigma), 2.9, ledger, th,
                         MethodVariant.MORN_FULL)
            if dec.action is MetaAction.COMMIT:
                spiked_commit = True
        ok = trivial_ok and fixed_pays_cap and morn_aborts_early \
            and not spiked_commit
        _report(8, "fixture scenarios", ok,
                f"trivial found {tr.found_count}/2; sealed spent: fixed "
                f"{fo.outcomes[1].spent} >= cap {cap}, full "
                f"{full.outcomes[1].spent} (meta abort="
                f"{full.outcomes[1].aborted_by_meta}); spike commit="
                f"{spiked_commit}")
