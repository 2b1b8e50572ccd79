"""Benchmark harness: seeded episode generation, closed-loop execution of
one method variant over one episode, metric aggregation (MGSR / SSR / CR /
Steps / WSF / utility), failure decomposition and threshold sweeps.

All randomness flows through per-episode seeds derived from the master
seed by a fixed 64-bit mixing function, so every variant replays the
same worlds and the same perception noise stream (paired comparison).
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import NamedTuple, Optional

from . import world as world_mod
from .config import ConfigError, RunConfig, apply_overrides
from .executive import (
    BudgetLedger,
    GoalStatus,
    MetaAction,
    MethodVariant,
    MissionSchedule,
    QuietBounds,
    allocate,
    apply,
    catch_up_streaks,
    count_streaks,
    decide,
    next_goal,
    quiet_bounds,
    streak_checkpoint,
    streak_keys,
)
from .signals import RollingWindow, SignalSample, signals_at, update
from .states import MetaStateVector, SunkCost, persistence_gate, potentiality, sufficiency
from .world import (
    Cell,
    GoalInstance,
    GridMap,
    Navigator,
    WorldParams,
    distance_field,
    generate_map,
    parse_grid,
)

_MASK64 = (1 << 64) - 1

CATEGORIES = ("chair", "bed", "plant", "toilet", "tv", "sofa", "sink", "mug")


def mix_seed(master_seed: int, index: int) -> int:
    """SplitMix64-style derivation of the per-episode seed."""
    z = (master_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


FEASIBLE = "present"
ABSENT = "absent"
SEALED = "sealed"
FEASIBILITIES = (FEASIBLE, ABSENT, SEALED)


@dataclass
class GoalSpec:
    goal_id: int
    category: str
    feasibility: str = FEASIBLE  # one of FEASIBILITIES


@dataclass
class EpisodeSpec:
    episode_id: int
    seed: int
    goal_count: int
    budget_max: int
    goals: list[GoalSpec]
    min_separation: float = 4.0
    fixture: Optional[str] = None  # fixture map name instead of procedural
    world: WorldParams = field(default_factory=WorldParams)

    def __post_init__(self) -> None:
        ids = [g.goal_id for g in self.goals]
        if not ids:
            raise ValueError(f"episode {self.episode_id}: an episode needs a goal")
        if self.goal_count != len(ids):
            raise ValueError(f"episode {self.episode_id}: goal_count {self.goal_count} "
                             f"but {len(ids)} goals")
        if len(set(ids)) != len(ids):
            raise ValueError(f"episode {self.episode_id}: goal ids {ids} are not unique")
        if self.budget_max < 1:
            raise ValueError(f"episode {self.episode_id}: budget_max {self.budget_max} "
                             "is not a positive step budget")
        for g in self.goals:
            if g.feasibility not in FEASIBILITIES:
                raise ValueError(
                    f"episode {self.episode_id}: goal {g.goal_id} feasibility "
                    f"{g.feasibility!r} is not one of {', '.join(FEASIBILITIES)}")


def generate(count_k2: int, count_k3: int, master_seed: int,
             config: RunConfig) -> list[EpisodeSpec]:
    """Deterministic episode suite: `count_k2` two-goal episodes followed
    by `count_k3` three-goal episodes, with a configured fraction of
    goals infeasible (absent or sealed)."""
    if count_k2 < 0 or count_k3 < 0:
        raise ValueError("episode counts must be nonnegative")
    bp = config.bench
    specs: list[EpisodeSpec] = []
    for i in range(count_k2 + count_k3):
        k = 2 if i < count_k2 else 3
        seed = mix_seed(master_seed, i)
        grng = random.Random(seed ^ 0x5EED5EED)
        goals = []
        sealed_used = False
        for g in range(k):
            feas = FEASIBLE
            if grng.random() < bp.infeasible_fraction:
                if grng.random() < 0.5 and not sealed_used:
                    feas = SEALED
                    sealed_used = True
                else:
                    feas = ABSENT
            goals.append(GoalSpec(
                goal_id=g + 1,
                category=CATEGORIES[grng.randrange(len(CATEGORIES))],
                feasibility=feas,
            ))
        specs.append(EpisodeSpec(
            episode_id=i,
            seed=seed,
            goal_count=k,
            budget_max=bp.budget(k),
            goals=goals,
            min_separation=bp.min_separation,
            world=replace(config.world),
        ))
    return specs


@dataclass(eq=False)
class World:
    gmap: GridMap
    goals: dict[int, GoalInstance]
    fields: dict[int, list[float]]  # geodesic meters to each goal, indexed like gmap.cells
    sentinel: float  # finite stand-in for an infinite (disconnected) distance


def load_fixture(name: str) -> str:
    """The text of the bundled fixture map `name`; any other name, a path
    included, is a ConfigError listing the bundled ones."""
    fixtures = resources.files("morn").joinpath("fixtures")
    bundled = sorted(p.name.removesuffix(".txt") for p in fixtures.iterdir()
                     if p.name.endswith(".txt"))
    if name not in bundled:
        raise ConfigError(f"unknown fixture {name!r}; bundled fixtures: {', '.join(bundled)}")
    return fixtures.joinpath(f"{name}.txt").read_text()


def build_world(spec: EpisodeSpec) -> World:
    """Deterministically materialize the world for an episode spec:
    procedural map (or fixture), goal placement honoring the pairwise
    separation invariant, and precomputed distance fields."""
    rng = random.Random(spec.seed)
    if spec.fixture is not None:
        gmap, digit_cells = parse_grid(load_fixture(spec.fixture), spec.world.cell_size)
        positions = {}
        for gs in spec.goals:
            if gs.goal_id not in digit_cells:
                raise ConfigError(f"fixture {spec.fixture} has no goal {gs.goal_id}")
            positions[gs.goal_id] = digit_cells[gs.goal_id]
        fields = {g: distance_field(gmap, cell) for g, cell in positions.items()}
        return _assemble(gmap, spec, positions, fields)

    needs_sealed = any(g.feasibility == SEALED for g in spec.goals)
    for _map_attempt in range(8):
        # generate_map connects every cell of a non-sealed room to the spawn
        gmap, rooms, sealed_idx = generate_map(rng, spec.world, sealed_room=needs_sealed)
        open_rooms = [i for i in range(len(rooms)) if i != sealed_idx]
        for _placement in range(30):
            positions: dict[int, tuple[int, int]] = {}
            used_rooms: set[int] = set()
            for gs in spec.goals:
                if gs.feasibility == SEALED:
                    room = rooms[sealed_idx]
                else:
                    choices = [i for i in open_rooms if i not in used_rooms] or open_rooms
                    room_idx = choices[rng.randrange(len(choices))]
                    room = rooms[room_idx]
                    used_rooms.add(room_idx)
                positions[gs.goal_id] = room[rng.randrange(len(room))]
            fields = _separated_fields(gmap, spec, positions)
            if fields is not None:
                return _assemble(gmap, spec, positions, fields)
    raise ConfigError(
        f"episode {spec.episode_id}: could not satisfy goal separation "
        f">= {spec.min_separation} m after bounded retries"
    )


def _separated_fields(gmap: GridMap, spec: EpisodeSpec,
                      positions: dict[int, Cell]) -> Optional[dict[int, list[float]]]:
    """Distance field to each goal, or None as soon as two goals are
    closer than the minimum separation."""
    ids = list(positions)
    fields = {}
    w = gmap.width
    for i, a in enumerate(ids):
        fa = fields[a] = distance_field(gmap, positions[a])
        for b in ids[i + 1:]:
            r, c = positions[b]
            if fa[r * w + c] < spec.min_separation:  # inf passes
                return None
    return fields


def _assemble(gmap: GridMap, spec: EpisodeSpec, positions: dict[int, Cell],
              fields: dict[int, list[float]]) -> World:
    goals = {}
    for gs in spec.goals:
        goals[gs.goal_id] = GoalInstance(positions[gs.goal_id],
                                         present=(gs.feasibility != ABSENT))
    sentinel = 2.0 * (gmap.height + gmap.width) * gmap.cell_size
    return World(gmap=gmap, goals=goals, fields=fields, sentinel=sentinel)


StepRecord = namedtuple(
    "StepRecord",
    "t goal_id pose distance evidence potentiality persistence sufficiency action reason",
)


@dataclass(eq=False)
class EpisodeTrace:
    spec: EpisodeSpec
    steps: list[StepRecord]
    outcomes: dict[int, GoalStatus]  # the schedule's goal records
    total_steps: int
    commit_sequence: list[int]  # goal ids in true-completion order

    @property
    def found_count(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.found)


def run(spec: EpisodeSpec, variant: MethodVariant, config: RunConfig,
        world: Optional[World] = None, forks: Optional[_Forks] = None) -> EpisodeTrace:
    """Execute one episode under one method variant. A standalone call
    records every step in the trace, with Π, Γ and Σ computed on each.

    Terminates on goal exhaustion or at the step budget, never later.
    All failure modes are recorded outcomes, not errors.

    With `forks` (from `_run_one`, which calls `run` once per arm of a
    spec, in arm order, and records no steps) the arms that decide alike
    share one simulation: the first call runs the work list `forks.pending`
    until it is empty, and every call returns its arm's finished trace.
    Such a run skips what no arm can read (`quiet_bounds`). A branch keeps
    its streak counts as of a step `seen`; below its `streak_checkpoint`,
    the first step on which a count could reach its patience (or the
    allocation), only a commit can fire. So a step below it is lazy, and
    every arm persists whatever Π and Γ are, when the commit gate is
    closed (the step only pushes the evidence window) or when Σ, computed
    from the signals read back for this step (`signals_at`), is at most
    the least τ_C. A step at or past the checkpoint whose counts are
    older than the step before first brings them up to it
    (`catch_up_streaks`, computing Π or Γ only on the steps each scan
    passes, from the window's stored series) and moves the checkpoint;
    if that moves it past the step, the step is lazy as above. Every
    other step is full: it reads its signals with `update`, or keeps
    those a gate step read once its counts are caught up. Then it
    computes Π only if some arm enables abort, Γ only while `spent <
    gamma_until` (unbounded while a switch arm rides a branch with two
    or more goals open, else the greatest grace of its switch arms, or 0
    without one), and Σ only while some arm's commit gate could be open.
    A branch counts each distinct streak of its arms once
    (`count_streaks`), a switch streak only while Γ is unbounded. On a
    full step that is not idle (`quiet_bounds`) one pass over its arms
    calls each arm's `decide`, and an arm that acts applies its decision
    to its own copy of the mission; when every arm persisted, the step
    goes on.
    """
    record_steps = forks is None
    if forks is None:
        forks = _Forks(spec, world if world is not None else build_world(spec),
                       [(variant, config)])
    index = forks.claim(spec, variant, config)
    world = forks.world
    gmap = world.gmap
    width = gmap.width

    while forks.pending:
        branch = forks.pending.pop()
        rng, nav, window = branch.rng, branch.nav, branch.window
        schedule, ledger = branch.mission.schedule, branch.mission.ledger
        arms = branch.arms
        shared = arms[0].config  # every arm's config apart from the thresholds
        weights = shared.weights
        sigpar = shared.signal
        # Every intervention ends the pop, so one pop runs one goal context:
        # the active goal and the open goals change only in `apply`.
        gid = schedule.active_id
        goal = world.goals[gid]
        dfield = world.fields[gid]
        status = schedule.goals[gid]
        open_count = len(schedule.open_ids())
        isfinite, sentinel = math.isfinite, world.sentinel
        allocation = ledger.allocation
        # a standalone run records Π, Γ and Σ on every step: its commit gate
        # is always open, so every step is full
        reach, least_commit, reads_pi, gamma_until = (
            QuietBounds(math.inf, -math.inf, True, math.inf) if record_steps else quiet_bounds(
                [(arm.variant, arm.config.thresholds) for arm in arms], open_count))
        # one count per distinct streak key of the arms riding this branch;
        # a switch streak only while Γ is read on every full step
        streaks = branch.streaks = {
            key: branch.streaks.get(key, 0) for arm in arms for key in arm.streak_keys
            if key is not None and (gamma_until == math.inf or not key.switch)}
        seen = branch.seen  # the step the counts are as of
        check = streak_checkpoint(streaks, seen, allocation)
        step, observe, push = nav.step, nav.observe, window.push

        def state(switch: bool, k: int) -> float:
            """Π (switch False) or Γ (True) of step k of this goal context,
            from the window's series, for the streaks' catch-up."""
            velocity, stab, gain, evidence = signals_at(window, k, sigpar)
            if switch:
                return persistence_gate(gain, SunkCost(k, allocation), velocity, weights)
            return potentiality(velocity, evidence, stab, weights)

        # the step counters live in locals and are written back to the
        # ledger and the goal record before `decide`, `apply`, a fork or
        # `finish` reads them
        t = ledger.elapsed
        spent = ledger.active_spent
        spent_before = status.spent - spent

        for t in range(t + 1, spec.budget_max + 1):
            step()
            r, c = pose = nav.pose
            d_raw = dfield[r * width + c]
            d = d_raw if isfinite(d_raw) else sentinel
            evidence, source = world_emit(goal, pose, gmap, shared, rng, d_raw)
            observe(evidence, source, rng)
            spent += 1

            if spent >= check and seen < spent - 1:
                # a stale checkpoint: the counts as of the step before may
                # move it past this step
                catch_up_streaks(streaks, seen, spent - 1, state)
                seen = spent - 1
                check = streak_checkpoint(streaks, seen, allocation)
            gate = d < reach
            if spent < check:
                push(evidence, d)
                if not gate:
                    continue  # lazy: every arm persists
                velocity, stab, gain, _ = signals_at(window, spent, sigpar)
                sigma = sufficiency(evidence, stab, d, weights)
                if sigma <= least_commit:
                    continue  # lazy in the gate: no arm's commit test passes
                if seen < spent - 1:
                    catch_up_streaks(streaks, seen, spent - 1, state)
            else:
                summary = update(window, SignalSample(t, d, evidence), sigpar)
                velocity, stab, gain = summary.velocity, summary.stability, summary.info_gain
                sigma = sufficiency(evidence, stab, d, weights) if gate else 0.0
            # a state no arm can read is a placeholder, 1.0 for Π and Γ (above
            # every level) and 0.0 for Σ (`quiet_bounds`)
            pi = potentiality(velocity, evidence, stab, weights) if reads_pi else 1.0
            gamma = (persistence_gate(gain, SunkCost(spent, allocation), velocity, weights)
                     if spent < gamma_until else 1.0)
            reached = count_streaks(streaks, pi, gamma, spent)
            seen = spent
            check = streak_checkpoint(streaks, seen, allocation)
            if not reached and spent < allocation and (not gate or sigma <= least_commit):
                continue  # idle: every arm persists
            ledger.elapsed = t
            ledger.active_spent = spent
            status.spent = spent_before + spent
            states = MetaStateVector(pi, gamma, sigma)

            # Each acting arm applies its decision to its own copy of the
            # mission and the persisting arms keep the branch's; arms stay
            # together while the resulting missions agree.
            parts: dict = {}
            for arm in arms:
                abort_key, switch_key = arm.streak_keys
                decision = decide(states, d, ledger, arm.config.thresholds, arm.variant,
                                  open_count, streaks.get(abort_key, 0),
                                  streaks.get(switch_key, 0))
                if record_steps:
                    arm.steps.append(StepRecord(t, gid, pose, d, evidence, pi, gamma, sigma,
                                                decision.action.value, decision.reason.value))
                key, mission = None, branch.mission
                if decision.action is not MetaAction.PERSIST:
                    mission = mission.copy()
                    if decision.action is MetaAction.COMMIT:
                        committed = mission.schedule.active  # still goal `gid`
                        committed.commit_distance = d
                        committed.found = goal.present and d_raw <= shared.bench.success_radius
                        if committed.found:
                            mission.commit_sequence.append(gid)
                    nxt = apply(decision, mission.schedule, mission.ledger, pose,
                                forks.goal_cells, arm.variant)
                    key = (decision.action, decision.reason, nxt)
                parts.setdefault(key, (mission, []))[1].append(arm)
            if list(parts) == [None]:
                continue  # every arm persisted

            # The other groups fork the live state before the first takes it
            # over. A group that persisted goes back on the work list as it
            # is. A group that acted gets a fresh window and streaks; it is
            # finished when `apply` activated no next goal, else it starts a
            # fresh search and goes back on the list.
            (first_key, (mission, members)), *others = parts.items()
            branch.seen = seen
            groups = [(other_key, branch.fork(other_mission, other_arms))
                      for other_key, (other_mission, other_arms) in others]
            branch.mission, branch.arms = mission, members
            for key, group in [*groups, (first_key, branch)]:
                if key is not None:
                    group.window.reset()
                    group.streaks = {}
                    group.seen = 0
                    if key[2] is None:  # `apply` activated no next goal
                        forks.finish(group)
                        continue
                    group.nav.begin_goal_context()
                forks.pending.append(group)
            break
        else:
            ledger.elapsed = t
            ledger.active_spent = spent
            status.spent = spent_before + spent
            forks.finish(branch)
    return forks.traces.pop(index)


def world_emit(goal, pose, gmap, config: RunConfig, rng, d_raw: float):
    """Evidence emission with the precomputed geodesic distance (inf when
    no path leads to the goal)."""
    return world_mod.emit_evidence(goal, pose, gmap, config.perception, rng, d_raw)


FAILURE_MODES = ("NO_DETECTION", "ABORTED", "SWITCHED_UNRESOLVED", "FALSE_COMMIT")


@dataclass
class MetricsReport:
    mgsr: float
    ssr: float
    cr: float
    mean_steps: float
    wsf: float
    failure_counts: dict[str, int]
    utility_mean: float
    episodes: int
    # the config the traces ran under, set by `sweep`; None elsewhere
    config: Optional[RunConfig] = field(default=None, init=False, repr=False, compare=False)


def decompose_failures(traces: list[EpisodeTrace]) -> dict[str, int]:
    """Tag every never-found goal with its dominant failure mode.

    FALSE_COMMIT: committed outside the true success radius (or on an
    absent goal). ABORTED: retired by the low-potentiality branch.
    SWITCHED_UNRESOLVED: deprioritized by the persistence gate and never
    completed. NO_DETECTION: budget or cap exhausted while searching.
    """
    counts = {m: 0 for m in FAILURE_MODES}
    for tr in traces:
        for o in tr.outcomes.values():
            if o.found:
                continue
            if o.committed:
                counts["FALSE_COMMIT"] += 1
            elif o.aborted_by_meta:
                counts["ABORTED"] += 1
            elif o.gate_switches > 0:
                counts["SWITCHED_UNRESOLVED"] += 1
            else:
                counts["NO_DETECTION"] += 1
    return counts


def compute_metrics(traces: list[EpisodeTrace], reward: float = 1.0,
                    lambda_cost: float = 0.0) -> MetricsReport:
    """Aggregate the paper-protocol metrics over a set of traces.

    A goal counts as found only if the executive committed AND the agent
    was truly within the success radius, so trigger-happy commits cannot
    inflate CR.
    """
    if not traces:
        raise ValueError("compute_metrics on empty trace list")
    n = len(traces)
    mgsr = cr = wsf = steps_sum = util = ssr = 0.0
    for tr in traces:
        k = tr.spec.goal_count
        found = tr.found_count
        mgsr += 1.0 if found == k else 0.0
        cr += found / k
        wasted = sum(o.spent for o in tr.outcomes.values() if not o.found)
        wsf += wasted / tr.total_steps if tr.total_steps else 0.0
        steps_sum += tr.total_steps
        util += reward * found - lambda_cost * tr.total_steps
        prescribed = [g.goal_id for g in tr.spec.goals]
        ssr += 1.0 if (found == k and tr.commit_sequence == prescribed) else 0.0
    return MetricsReport(
        mgsr=mgsr / n,
        ssr=ssr / n,
        cr=cr / n,
        mean_steps=steps_sum / n,
        wsf=wsf / n,
        failure_counts=decompose_failures(traces),
        utility_mean=util / n,
        episodes=n,
    )


def run_suite(specs: list[EpisodeSpec], variants: list[MethodVariant],
              config: RunConfig, workers: int = 1) -> dict[MethodVariant, list[EpisodeTrace]]:
    """Run every variant over every spec. Worlds are built once per spec
    and shared across variants; results are keyed and ordered so the
    output is independent of scheduling. Traces carry no step records.
    `specs` and `variants` must not be empty, and no variant is listed twice."""
    if not variants:
        raise ValueError("run_suite needs at least one variant")
    for n, v in enumerate(variants):
        if v in variants[:n]:
            raise ValueError(f"run_suite: variant {v.value} is listed twice")
    arms = [(v, config) for v in variants]
    return dict(zip(variants, _run_arms(specs, arms, workers)))


def _run_arms(specs: list[EpisodeSpec], arms: list[tuple[MethodVariant, RunConfig]],
              workers: int) -> list[list[EpisodeTrace]]:
    """One trace list per arm, a (variant, config) pair, in spec order. Each
    spec's world is built once and shared by all arms (`run` only reads it).
    A pool of `workers` processes, but never more than the jobs (one per
    spec), runs them; with one process or fewer they run in this one.

    Each pool process claims the next unclaimed spec whenever it is free
    (`_drain`), so which process runs a spec is settled at run time; the
    traces are put back in spec order, so no output depends on it. A
    failing suite raises the exception of its lowest-index failing spec,
    the one a serial run raises, with the worker's traceback chained as
    its `__cause__`."""
    if not specs:
        raise ValueError("the spec list is empty: there is no episode to run")
    jobs = [(spec, arms) for spec in specs]
    workers = min(workers, len(jobs))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context()
        # [0]: the next job to claim; [1 + k]: the job drain task k failed on
        claims = context.Array("q", [0] + [len(jobs)] * workers)
        # `_run_one` as bound now, so a rebinding reaches spawned processes too
        with ProcessPoolExecutor(workers, context, initializer=_join_pool,
                                 initargs=(jobs, claims, _run_one)) as pool:
            drains = [pool.submit(_drain, k) for k in range(workers)]
            failed = [(claims[1 + k], k) for k, task in enumerate(drains)
                      if task.exception() is not None]
        if failed:
            drains[min(failed)[1]].result()  # raises that job's exception
        claimed = {}
        for task in drains:
            claimed.update(task.result())
        per_spec = [claimed[n] for n in range(len(jobs))]
    else:
        per_spec = [traces for _, traces in map(_run_one, jobs)]
    return [[traces[i] for traces in per_spec] for i in range(len(arms))]


_pool_state = None  # in a pool process: `_join_pool`'s arguments, for `_drain`


def _join_pool(jobs, claims, run_one) -> None:
    """Pool process initializer: keep the jobs, the shared claim counter
    and the job runner (inherited under `fork`, pickled once otherwise)."""
    global _pool_state
    _pool_state = jobs, claims, run_one


def _drain(k: int) -> dict:
    """Drain task `k`: claim the next job index under the counter's lock and
    run the job, until none is left; returns the traces keyed by index.
    A failing job's index goes into `claims[1 + k]` and ends all claiming
    (every lower index is claimed already, so no later one can be the
    lowest failure) before the exception propagates."""
    jobs, claims, run_one = _pool_state
    done = {}
    while True:
        with claims.get_lock():
            n = claims[0]
            if n == len(jobs):
                return done
            claims[0] = n + 1
        try:
            done[n] = run_one(jobs[n])[1]
        except BaseException:
            with claims.get_lock():
                claims[0] = len(jobs)
                claims[1 + k] = n
            raise


def _run_one(job):
    """One job: a spec's world, then `run` once per arm, in arm order."""
    spec, arms = job
    forks = _Forks(spec, build_world(spec), arms)
    return spec.episode_id, [run(spec, v, cfg, forks=forks) for v, cfg in arms]


@dataclass(slots=True, eq=False)
class _Arm:
    """One arm of a spec, its variant and config, the keys of the streaks
    its `decide` reads (`streak_keys`; the branch it rides counts them),
    and its step records."""

    index: int
    variant: MethodVariant
    config: RunConfig
    streak_keys: tuple = field(init=False)
    steps: list[StepRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.streak_keys = streak_keys(self.variant, self.config.thresholds)


class _Mission(NamedTuple):
    """What `apply` and the commit check write: the goal records, the
    budget ledger and the goals truly completed, in order."""

    schedule: MissionSchedule
    ledger: BudgetLedger
    commit_sequence: list[int]

    def copy(self) -> _Mission:
        ledger = self.ledger
        return _Mission(self.schedule.copy(),
                        BudgetLedger(ledger.budget_max, ledger.allocation, ledger.elapsed,
                                     ledger.active_spent),
                        list(self.commit_sequence))


@dataclass(eq=False)
class _Branch:
    """The state a group of arms shares: perception noise, navigator,
    signal window and mission, plus the arms riding it (lowest index
    first) and the streaks they read, one per distinct `StreakKey`, as
    of step `seen` of the goal context. The mission's ledger holds the
    last step simulated."""

    rng: random.Random
    nav: Navigator
    window: RollingWindow
    mission: _Mission
    arms: list[_Arm]
    streaks: dict = field(default_factory=dict)
    seen: int = 0

    @classmethod
    def start(cls, spec: EpisodeSpec, world: World, config: RunConfig, first: int,
              arms: list[_Arm]) -> _Branch:
        """The state at the start of the episode, with goal `first` active."""
        schedule = MissionSchedule([g.goal_id for g in spec.goals])
        schedule.activate(first)
        ledger = BudgetLedger(budget_max=spec.budget_max, allocation=0)
        ledger.allocation = allocate(ledger, len(schedule.order))
        return cls(random.Random(spec.seed ^ 0xC0FFEE), Navigator(world.gmap, config.perception),
                   RollingWindow(config.signal.window), _Mission(schedule, ledger, []), arms)

    def fork(self, mission: _Mission, arms: list[_Arm]) -> _Branch:
        """An independent copy of this state, with `mission`, for `arms`."""
        rng = random.Random()
        rng.setstate(self.rng.getstate())
        return _Branch(rng, self.nav.copy(), self.window.copy(), mission, arms,
                       dict(self.streaks), self.seen)


class _Forks:
    """The arms of one spec as `run` serves them: `pending`, the work list
    of branches to simulate, `traces`, the finished arms' traces by index,
    and `goal_cells`, each goal's true cell (an absent goal's included),
    which `next_goal` compares when it takes the nearest goal. Arms may
    share a branch only if their configs are equal apart from the
    thresholds and `next_goal` starts them on the same goal."""

    def __init__(self, spec: EpisodeSpec, world: World,
                 arms: list[tuple[MethodVariant, RunConfig]]):
        self.spec = spec
        self.world = world
        self.arms = [_Arm(i, variant, config) for i, (variant, config) in enumerate(arms)]
        self.next = 0
        self.pending: list[_Branch] = []
        self.traces: dict[int, EpisodeTrace] = {}
        self.goal_cells = {g: goal.position for g, goal in world.goals.items()}
        order = [g.goal_id for g in spec.goals]
        cell_size = world.gmap.cell_size
        groups: list[tuple[int, list[_Arm]]] = []  # first goal, arms
        for arm in self.arms:
            config = arm.config
            # progress velocity is normalised by the meters one step covers
            if config.signal.step_length != cell_size:
                raise ConfigError(
                    f"episode {spec.episode_id}: signal.step_length "
                    f"({config.signal.step_length}) must equal the map's cell_size "
                    f"({cell_size}): the navigator moves one cell per step"
                )
            first = next_goal(arm.variant, order, order, None, world.gmap.spawn, self.goal_cells)
            for goal, members in groups:
                shared = members[0].config
                if goal == first and replace(config, thresholds=shared.thresholds) == shared:
                    members.append(arm)
                    break
            else:
                groups.append((first, [arm]))
        for first, members in groups:
            self.pending.append(_Branch.start(spec, world, members[0].config, first, members))

    def claim(self, spec: EpisodeSpec, variant: MethodVariant, config: RunConfig) -> int:
        """The next arm's index."""
        if spec is not self.spec:
            raise ValueError(f"run with forks built for episode {self.spec.episode_id} "
                             f"got episode {spec.episode_id}")
        i = self.next
        arm = self.arms[i] if i < len(self.arms) else None
        if arm is None or arm.variant is not variant or arm.config is not config:
            raise ValueError("run with forks takes each arm once, in arm order")
        self.next += 1
        return i

    def finish(self, branch: _Branch) -> None:
        """A trace for every arm riding `branch`, each with its own records."""
        for n, arm in enumerate(branch.arms):
            mission = branch.mission.copy() if n else branch.mission
            self.traces[arm.index] = EpisodeTrace(
                spec=self.spec,
                steps=arm.steps,
                outcomes=mission.schedule.goals,
                total_steps=mission.ledger.elapsed,
                commit_sequence=mission.commit_sequence,
            )


SWEEP_PARAMETERS = {
    "tau_a": "thresholds.abort",
    "tau_s": "thresholds.switch",
    "tau_c": "thresholds.commit",
    "d_commit": "thresholds.commit_distance",
    "t_grace": "thresholds.grace",
}
SWEPT_SECTIONS = ("thresholds", "weights", "signal", "perception")


def sweep(specs: list[EpisodeSpec], variant: MethodVariant, parameter: str,
          values: list[float], config: RunConfig,
          workers: int = 1) -> list[tuple[float, MetricsReport]]:
    """Re-run the same episodes at each value (paired: each spec's world is
    built once and shared by every value, one process pool serves the whole
    sweep, and the rows do not depend on `workers`). `parameter` is an alias
    in `SWEEP_PARAMETERS` or a key in `SWEPT_SECTIONS`, the sections `run`
    reads per arm (specs and worlds are built once); every value is
    checked up front, as `--set` checks it bar the calibration floor. Each
    report's `config` is the config its value's arm ran."""
    arms = [(variant, swept) for swept in _swept_configs(parameter, values, config)]
    bp = config.bench
    table = []
    for value, (_, swept), traces in zip(values, arms, _run_arms(specs, arms, workers)):
        report = compute_metrics(traces, reward=bp.reward, lambda_cost=bp.lambda_cost)
        report.config = swept
        table.append((value, report))
    return table


def _swept_configs(parameter: str, values: list[float], config: RunConfig) -> list[RunConfig]:
    """`config` with `parameter` set to each value by `apply_overrides`, then
    `RunConfig.validate`d; the list is not empty, and a value is finite and
    listed once (as a float)."""
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    key = SWEEP_PARAMETERS.get(parameter, parameter)
    if key.split(".")[0] not in SWEPT_SECTIONS:
        raise ConfigError(
            f"cannot sweep {parameter!r}: expected one of {sorted(SWEEP_PARAMETERS)} or "
            f"a key in {', '.join(SWEPT_SECTIONS)}; worlds are built once per suite")
    configs = []
    seen = set()
    for value in values:
        if not math.isfinite(value):
            raise ConfigError(f"sweep {parameter}={value!r}: not a finite number")
        if float(value) in seen:
            raise ConfigError(f"sweep {parameter}={value!r} is listed twice")
        seen.add(float(value))
        try:
            # apply_overrides sets fields of its argument; repr round-trips
            swept = apply_overrides(replace(config), {key: repr(float(value))})
            swept.validate()
        except ValueError as exc:
            raise ConfigError(f"sweep {parameter}={value!r}: {exc}") from None
        configs.append(swept)
    return configs
