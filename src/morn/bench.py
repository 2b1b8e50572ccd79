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
    InvalidCallError,
    MetaAction,
    MethodVariant,
    MissionSchedule,
    allocate,
    apply,
    below_abort,
    below_switch,
    decide,
    next_goal,
    quiet_bounds,
    streak,
)
from .signals import RollingWindow, SignalSample, update
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
            raise InvalidCallError(f"episode {self.episode_id}: an episode needs a goal")
        if self.goal_count != len(ids):
            raise InvalidCallError(f"episode {self.episode_id}: goal_count {self.goal_count} "
                                   f"but {len(ids)} goals")
        if len(set(ids)) != len(ids):
            raise InvalidCallError(f"episode {self.episode_id}: goal ids {ids} are not unique")
        for g in self.goals:
            if g.feasibility not in FEASIBILITIES:
                raise InvalidCallError(
                    f"episode {self.episode_id}: goal {g.goal_id} feasibility "
                    f"{g.feasibility!r} is not one of {', '.join(FEASIBILITIES)}")


class GenerationError(RuntimeError):
    pass


def generate(count_k2: int, count_k3: int, master_seed: int,
             config: RunConfig) -> list[EpisodeSpec]:
    """Deterministic episode suite: `count_k2` two-goal episodes followed
    by `count_k3` three-goal episodes, with a configured fraction of
    goals infeasible (absent or sealed)."""
    if count_k2 < 0 or count_k3 < 0:
        raise InvalidCallError("episode counts must be nonnegative")
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
    fields: dict[int, dict[Cell, float]]  # geodesic meters to each goal, per cell
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
                raise GenerationError(f"fixture {spec.fixture} has no goal {gs.goal_id}")
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
    raise GenerationError(
        f"episode {spec.episode_id}: could not satisfy goal separation "
        f">= {spec.min_separation} m after bounded retries"
    )


def _separated_fields(gmap: GridMap, spec: EpisodeSpec,
                      positions: dict[int, Cell]) -> Optional[dict[int, dict[Cell, float]]]:
    """Distance field to each goal, or None as soon as two goals are
    closer than the minimum separation."""
    ids = list(positions)
    fields = {}
    for i, a in enumerate(ids):
        fa = fields[a] = distance_field(gmap, positions[a])
        for b in ids[i + 1:]:
            if fa[positions[b]] < spec.min_separation:  # inf passes
                return None
    return fields


def _assemble(gmap: GridMap, spec: EpisodeSpec, positions: dict[int, Cell],
              fields: dict[int, dict[Cell, float]]) -> World:
    goals = {}
    for gs in spec.goals:
        goals[gs.goal_id] = GoalInstance(
            goal_id=gs.goal_id,
            category=gs.category,
            position=positions[gs.goal_id],
            present=(gs.feasibility != ABSENT),
        )
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
    Such a run skips what no arm can read: on a quiet step (`quiet_bounds`)
    it only pushes the evidence window, and Σ only while some arm's commit
    gate is open.
    """
    record_steps = forks is None
    if forks is None:
        forks = _Forks(spec, world if world is not None else build_world(spec),
                       [(variant, config)])
    index = forks.claim(spec, variant, config)
    world = forks.world
    gmap = world.gmap
    persist = MetaAction.PERSIST  # a local: read per arm and step

    while forks.pending:
        branch = forks.pending.pop()
        rng, nav, window = branch.rng, branch.nav, branch.window
        schedule, ledger = branch.mission.schedule, branch.mission.ledger
        arms = branch.arms
        shared = arms[0].config  # every arm's config apart from the thresholds
        weights = shared.weights
        sigpar = shared.signal
        success_radius = shared.bench.success_radius
        # Every intervention ends the pop, so one pop runs one goal context:
        # the active goal and the open goals change only in `apply`.
        gid = schedule.active_id
        goal = world.goals[gid]
        dfield = world.fields[gid]
        status = schedule.goals[gid]
        open_count = len(schedule.open_ids())
        isfinite, sentinel = math.isfinite, world.sentinel
        # a standalone run records Π, Γ and Σ on every step
        until, warmup, reach = ((0, 0, math.inf) if record_steps else quiet_bounds(
            [(arm.variant, arm.config.thresholds) for arm in arms], ledger.allocation))
        step, observe, push = nav.step, nav.observe, window.push

        for t in range(ledger.elapsed + 1, spec.budget_max + 1):
            step()
            pose = nav.pose
            d_raw = dfield[pose]
            d = d_raw if isfinite(d_raw) else sentinel
            evidence, detected = world_emit(goal, pose, gmap, shared, rng, d_raw)
            observe(evidence, detected, goal, rng)

            ledger.elapsed = t
            ledger.active_spent = spent = ledger.active_spent + 1
            status.spent += 1

            gate = spent >= warmup and d < reach
            if spent < until and not gate:
                push(evidence, d)
                continue
            summary = update(window, SignalSample(t, d, evidence), sigpar)
            pi = potentiality(summary.velocity, evidence, summary.stability, weights)
            gamma = persistence_gate(
                summary.info_gain,
                SunkCost(spent, ledger.allocation),
                summary.velocity,
                weights,
            )
            sigma = sufficiency(evidence, summary.stability, d, weights) if gate else 0.0
            states = MetaStateVector(pi, gamma, sigma)

            decisions = []
            acting = False
            for arm in arms:
                th = arm.config.thresholds
                variant = arm.variant
                # `decide` reads only the streaks of the branches it enables
                if variant.abort_enabled:
                    arm.abort_streak = streak(arm.abort_streak, below_abort(states, th),
                                              spent, th)
                if variant.switch_enabled:
                    arm.switch_streak = streak(arm.switch_streak, below_switch(states, th),
                                               spent, th)
                decision = decide(states, d, ledger, th, variant, open_count,
                                  arm.abort_streak, arm.switch_streak)
                decisions.append(decision)
                if record_steps:
                    arm.steps.append(StepRecord(t, gid, pose, d, evidence, pi, gamma, sigma,
                                                decision.action.value, decision.reason.value))
                if decision.action is not persist:
                    acting = True
            if not acting:
                continue

            # Each acting arm applies its decision to its own copy of the
            # mission and the persisting arms keep the branch's; arms stay
            # together while the resulting missions agree.
            found = goal.present and d_raw <= success_radius
            parts: dict = {}
            for arm, decision in zip(arms, decisions):
                key, mission = None, branch.mission
                if decision.action is not persist:
                    mission = mission.copy()
                    if decision.action is MetaAction.COMMIT:
                        committed = mission.schedule.active  # still goal `gid`
                        committed.commit_distance = d
                        committed.found = found
                        if found:
                            mission.commit_sequence.append(gid)
                    nxt = apply(decision, mission.schedule, mission.ledger, pose,
                                forks.goal_cells, arm.variant)
                    key = (decision.action, decision.reason, nxt)
                    arm.abort_streak = arm.switch_streak = 0
                parts.setdefault(key, (mission, []))[1].append(arm)

            # The other groups fork the live state before the first takes it
            # over. A group that persisted goes back on the work list as it
            # is. A group that acted gets a fresh window; it is finished when
            # `apply` activated no next goal, else it starts a fresh search
            # and goes back on the list.
            (first_key, (mission, members)), *others = parts.items()
            groups = [(other_key, branch.fork(other_mission, other_arms))
                      for other_key, (other_mission, other_arms) in others]
            branch.mission, branch.arms = mission, members
            for key, group in [*groups, (first_key, branch)]:
                if key is not None:
                    _action, _reason, nxt = key
                    group.window.reset()
                    if nxt is None:
                        forks.finish(group)
                        continue
                    group.nav.begin_goal_context()
                forks.pending.append(group)
            break
        else:
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
        raise InvalidCallError("compute_metrics on empty trace list")
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
    output is independent of scheduling. Traces carry no step records."""
    arms = [(v, config) for v in variants]
    return dict(zip(variants, _run_arms(specs, arms, workers)))


def _run_arms(specs: list[EpisodeSpec], arms: list[tuple[MethodVariant, RunConfig]],
              workers: int) -> list[list[EpisodeTrace]]:
    """One trace list per arm, a (variant, config) pair, in spec order. Each
    spec's world is built once and shared by all arms (`run` only reads it).
    A pool of `workers` processes, but never more than the jobs (one per
    spec), runs them; with one process or fewer they run in this one."""
    jobs = [(spec, arms) for spec in specs]
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_spec = [traces for _, traces in pool.map(_run_one, jobs, chunksize=8)]
    else:
        per_spec = [traces for _, traces in map(_run_one, jobs)]
    return [[traces[i] for traces in per_spec] for i in range(len(arms))]


def _run_one(job):
    """One job: a spec's world, then `run` once per arm, in arm order."""
    spec, arms = job
    forks = _Forks(spec, build_world(spec), arms)
    return spec.episode_id, [run(spec, v, cfg, forks=forks) for v, cfg in arms]


@dataclass(slots=True, eq=False)
class _Arm:
    """One arm of a spec, its variant and config, and what it owns in a
    shared simulation: its patience streaks and its step records. Only the
    streaks of the branches its variant enables are counted; the others
    stay 0, which `decide` never reads. An intervention resets both."""

    index: int
    variant: MethodVariant
    config: RunConfig
    abort_streak: int = 0
    switch_streak: int = 0
    steps: list[StepRecord] = field(default_factory=list)


class _Mission(NamedTuple):
    """What `apply` and the commit check write: the goal records, the
    budget ledger and the goals truly completed, in order."""

    schedule: MissionSchedule
    ledger: BudgetLedger
    commit_sequence: list[int]

    def copy(self) -> _Mission:
        return _Mission(self.schedule.copy(), replace(self.ledger), list(self.commit_sequence))


@dataclass(eq=False)
class _Branch:
    """The state a group of arms shares: perception noise, navigator,
    signal window and mission, plus the arms riding it (lowest index
    first). The mission's ledger holds the last step simulated."""

    rng: random.Random
    nav: Navigator
    window: RollingWindow
    mission: _Mission
    arms: list[_Arm]

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
        return _Branch(rng, self.nav.copy(), self.window.copy(), mission, arms)


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
            raise InvalidCallError(f"run with forks built for episode {self.spec.episode_id} "
                                   f"got episode {spec.episode_id}")
        i = self.next
        arm = self.arms[i] if i < len(self.arms) else None
        if arm is None or arm.variant is not variant or arm.config is not config:
            raise InvalidCallError("run with forks takes each arm once, in arm order")
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
    checked up front, as `--set` checks it bar the calibration floor."""
    arms = [(variant, swept) for swept in _swept_configs(parameter, values, config)]
    bp = config.bench
    return [(value, compute_metrics(traces, reward=bp.reward, lambda_cost=bp.lambda_cost))
            for value, traces in zip(values, _run_arms(specs, arms, workers))]


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
