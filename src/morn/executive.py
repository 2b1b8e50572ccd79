"""The per-step meta-controller: meta-action selection, goal scheduling,
grace periods and dynamic subgoal allocation. The context resets after an
intervention (`window.reset`, `nav.begin_goal_context`) are `bench.run`'s.

Threshold scale: the abort and switch thresholds are interpreted on the
pre-activation scale of the corresponding sigmoid state. Abort requires
the potentiality pre-activation to sit below tau_abort, switch requires
the gate pre-activation to sit below -tau_switch (a closure margin under
the neutral point). Both are additionally debounced: the condition must
hold for a run of consecutive steps (the patience) before the action
fires, so one noisy step never tears down a goal. The commit threshold
applies directly to the raw sufficiency blend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .states import MetaStateVector, sigmoid

ALLOC_MIN = 50
ALLOC_MAX = 300


class MetaAction(Enum):
    PERSIST = "PERSIST"
    SWITCH = "SWITCH"
    ABORT = "ABORT"
    COMMIT = "COMMIT"


class DecisionReason(Enum):
    GRACE = "GRACE"
    LOW_POTENTIALITY = "LOW_POTENTIALITY"
    GATE_CLOSED = "GATE_CLOSED"
    EVIDENCE_COMMIT = "EVIDENCE_COMMIT"
    SUBGOAL_CAP = "SUBGOAL_CAP"
    DEFAULT = "DEFAULT"


class MethodVariant(Enum):
    FIXED_ORDER = "FIXED_ORDER"
    REACTIVE_ORDER = "REACTIVE_ORDER"
    MORN_ABORT_ONLY = "MORN_ABORT_ONLY"
    MORN_SWITCH_ONLY = "MORN_SWITCH_ONLY"
    MORN_FULL = "MORN_FULL"

    def __init__(self, value: str) -> None:
        # plain attributes, set once per member: `decide` reads them on
        # every call, where a property costs several times an attribute
        self.abort_enabled = value in ("MORN_ABORT_ONLY", "MORN_FULL")
        self.switch_enabled = value in ("MORN_SWITCH_ONLY", "MORN_FULL")


@dataclass(frozen=True)
class Thresholds:
    abort: float = 0.30  # tau_A, on the potentiality pre-activation
    switch: float = 0.20  # tau_S, closure margin on the gate pre-activation
    commit: float = 0.60  # tau_C, on the raw sufficiency scale
    commit_distance: float = 3.0  # meters
    grace: int = 20  # steps
    abort_patience: int = 60  # consecutive below-threshold steps
    switch_patience: int = 10
    commit_warmup: int = 5  # steps before commit is meaningful (window fill)

    def __post_init__(self) -> None:
        # tau_A and -tau_S on the state scales, read every step: each sigmoid
        # once. Plain attributes, not fields, so no config key names them.
        object.__setattr__(self, "abort_level", sigmoid(self.abort))
        object.__setattr__(self, "switch_level", sigmoid(-self.switch))

    def validate(self) -> None:
        if self.commit_distance <= 0:
            raise ValueError("commit_distance must be positive")
        if self.grace < 0:
            raise ValueError("grace must be nonnegative")
        if self.abort_patience < 1 or self.switch_patience < 1:
            raise ValueError("patience must be >= 1")
        if self.commit_warmup < 0:
            raise ValueError("commit_warmup must be nonnegative")


class GoalState(Enum):
    PENDING = "PENDING"
    ACTIVE = "ACTIVE"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"


@dataclass
class GoalStatus:
    """One goal's record. `apply` writes the executive's fields; the
    runner writes the ground truth (`found`, `commit_distance`) at commit."""

    goal_id: int
    state: GoalState = GoalState.PENDING
    spent: int = 0
    switch_count: int = 0
    found: bool = False
    commit_distance: Optional[float] = None
    aborted_by_meta: bool = False  # retired by the low-potentiality branch
    gate_switches: int = 0  # switched away by the persistence gate

    @property
    def committed(self) -> bool:
        return self.state is GoalState.COMPLETED


@dataclass
class BudgetLedger:
    budget_max: int
    allocation: int
    elapsed: int = 0
    active_spent: int = 0


@dataclass(frozen=True)
class ExecutiveDecision:
    action: MetaAction
    reason: DecisionReason


# The seven decisions `decide` can return, shared by every call.
_CAP_SWITCH = ExecutiveDecision(MetaAction.SWITCH, DecisionReason.SUBGOAL_CAP)
_CAP_ABORT = ExecutiveDecision(MetaAction.ABORT, DecisionReason.SUBGOAL_CAP)
_GRACE = ExecutiveDecision(MetaAction.PERSIST, DecisionReason.GRACE)
_LOW_POTENTIALITY = ExecutiveDecision(MetaAction.ABORT, DecisionReason.LOW_POTENTIALITY)
_GATE_CLOSED = ExecutiveDecision(MetaAction.SWITCH, DecisionReason.GATE_CLOSED)
_COMMIT = ExecutiveDecision(MetaAction.COMMIT, DecisionReason.EVIDENCE_COMMIT)
_PERSIST = ExecutiveDecision(MetaAction.PERSIST, DecisionReason.DEFAULT)


class MissionSchedule:
    """Goal statuses plus the prescribed order; at most one goal active."""

    def __init__(self, goal_ids: list[int]):
        self.order = list(goal_ids)
        self.goals = {g: GoalStatus(g) for g in goal_ids}
        self.active_id: Optional[int] = None

    def copy(self) -> MissionSchedule:
        """An independent schedule with copies of the goal records."""
        new = MissionSchedule(self.order)
        new.goals = {g: GoalStatus(g, st.state, st.spent, st.switch_count, st.found,
                                   st.commit_distance, st.aborted_by_meta, st.gate_switches)
                     for g, st in self.goals.items()}
        new.active_id = self.active_id
        return new

    @property
    def active(self) -> GoalStatus:
        if self.active_id is None:
            raise ValueError("no active goal")
        return self.goals[self.active_id]

    def activate(self, goal_id: int) -> None:
        st = self.goals[goal_id]
        if st.state not in (GoalState.PENDING,):
            raise ValueError(f"goal {goal_id} not pending")
        st.state = GoalState.ACTIVE
        self.active_id = goal_id

    def open_ids(self) -> list[int]:
        """Goals still in play (pending or active), in prescribed order."""
        return [g for g in self.order if self.goals[g].state in (GoalState.PENDING, GoalState.ACTIVE)]


def allocate(budget: BudgetLedger, remaining_goals: int) -> int:
    """Dynamic per-subgoal step allocation: remaining budget split evenly
    across open goals, clamped into [ALLOC_MIN, ALLOC_MAX]."""
    if remaining_goals < 1:
        raise ValueError("remaining_goals must be >= 1")
    share = (budget.budget_max - budget.elapsed) // remaining_goals
    return min(ALLOC_MAX, max(share, ALLOC_MIN))


class StreakKey(NamedTuple):
    """What one patience streak depends on: the branch (`switch`: Γ
    against the switch level, else Π against the abort level), the level,
    the grace and the patience. Arms on one branch with equal keys hold
    equal streaks."""

    switch: bool
    level: float
    grace: int
    patience: int


def streak_keys(variant: MethodVariant,
                thresholds: Thresholds) -> tuple[Optional[StreakKey], Optional[StreakKey]]:
    """The keys of the abort and switch streaks `decide` reads for an arm,
    None for a branch its variant disables (`decide` never reads that
    streak, so nothing counts it)."""
    th = thresholds
    return (StreakKey(False, th.abort_level, th.grace, th.abort_patience)
            if variant.abort_enabled else None,
            StreakKey(True, th.switch_level, th.grace, th.switch_patience)
            if variant.switch_enabled else None)


def count_streaks(streaks: dict[StreakKey, int], potentiality: float, persistence: float,
                  spent: int) -> bool:
    """The patience streak rule, for every count of a branch in one call.
    `streaks` maps each key of the branch's arms to its streak before this
    step and is updated in place, with Π and Γ this step's states.

    A step counts once it is past the key's grace and its state is below
    the key's level; any other step resets the streak to 0, and so does
    every intervention. `decide` fires a branch once its streak, this step
    included, reaches the patience, and never reads the streak of a branch
    the variant disables. `run` calls this on its full steps only: the
    steps in between, on which no streak can reach its patience
    (`streak_checkpoint`), it counts afterwards by scanning back
    (`catch_up_streaks`). A switch streak is read only with two or more
    goals open, so `run` puts a switch key in `streaks` only while
    `quiet_bounds`' `gamma_until` is unbounded. Returns whether some
    streak, this step included, reached its patience (for `quiet_bounds`'
    idle rule)."""
    reached = False
    for key in streaks:
        # key[0..3] is (switch, level, grace, patience); indexing the
        # tuple is cheaper than unpacking it, and this runs every full step
        if (persistence if key[0] else potentiality) < key[1] and spent >= key[2]:
            count = streaks[key] = streaks[key] + 1
            if count >= key[3]:
                reached = True
        else:
            streaks[key] = 0
    return reached


def streak_checkpoint(streaks: dict[StreakKey, int], seen: int, allocation: int) -> int:
    """The first step on which a count of `streaks`, as of step `seen`,
    could reach its patience, and never later than `allocation` (the cap
    fires in every variant).

    A streak that counts every step after `seen` holds `count + k` at step
    `seen + k`, and a streak starts no earlier than the step after grace
    ends, so a key first reaches its patience at `max(seen - count,
    grace - 1) + patience`. Before that step no streak reaches its
    patience whatever Π and Γ are, so no abort or switch can fire; with
    the commit gate closed, or Σ at most the least τ_C, every arm
    persists (`run`'s lazy steps). Counts that are stale at the
    checkpoint give a later one once brought up to the step before
    (`catch_up_streaks`) when a streak was reset since `seen`. With no
    key the checkpoint is `allocation`."""
    check = allocation
    for key, count in streaks.items():
        start = seen - count
        if start < key[2] - 1:
            start = key[2] - 1
        if start + key[3] < check:
            check = start + key[3]
    return check


def catch_up_streaks(streaks: dict[StreakKey, int], seen: int, last: int,
                     state: Callable[[bool, int], float]) -> None:
    """Bring `streaks` from their counts as of step `seen` up to step
    `last`, as `count_streaks` on every step in between would. `state(
    switch, k)` is Γ (switch) or Π at step k.

    Each key scans back from `last` to its streak's last reset, a step
    inside its grace or with its state at or above its level; the count is
    the steps after that reset. A scan that reaches `seen` finds no reset,
    so the count at `seen` carries on. States are read only on the steps a
    scan passes."""
    for key in streaks:
        switch, level, grace = key[0], key[1], key[2]
        k = last
        while k > seen and k >= grace and state(switch, k) < level:
            k -= 1
        streaks[key] = last - k + (streaks[key] if k == seen else 0)


class QuietBounds(NamedTuple):
    """The meta-states the arms riding one branch can read, and the steps
    on which they can only persist; see `quiet_bounds`."""

    reach: float
    commit: float
    reads_pi: bool
    gamma_until: float


def quiet_bounds(arms: list[tuple[MethodVariant, Thresholds]],
                 open_goals: int) -> QuietBounds:
    """The commit-gate, idle-step and per-state rules for a branch's arms,
    (variant, thresholds) pairs, with `open_goals` goals open: four
    bounds, fixed for one goal context.

    - `reach`: the greatest commit distance.
    - `commit`: the least commit threshold τ_C.
    - `reads_pi`: whether some arm enables abort, the one branch that
      reads Π.
    - `gamma_until`: the `spent` below which some arm can read Γ. It is
      unbounded while a switch arm is on the branch and two or more goals
      are open. With one open goal no switch can fire, but a Γ below the
      level inside an arm's grace still returns GRACE and so blocks a
      commit: the bound is the greatest grace of the switch arms. It is 0
      when no arm enables switch.

    With `spent` the active goal's steps, this one included, and `d` the
    distance `decide` reads, some arm's commit gate may be open only while
    `d < reach`; outside it no arm's `decide` reads Σ. Inside it an arm
    still waits out its own commit warmup in `decide`. A step with
    `spent` below the branch's `streak_checkpoint` is lazy when that gate
    is closed: then every arm's `decide` returns PERSIST whatever Π, Γ
    and Σ are, so the step needs no signal or meta-state. Inside the gate
    it is lazy too when Σ <= `commit`: no arm's commit test passes, and
    no abort, switch or cap can fire below the checkpoint, so every arm
    persists whatever Π and Γ are; such a step needs Σ alone. On a full
    step, one that is not lazy, no arm's `decide` reads Π
    unless `reads_pi`, nor Γ unless `spent < gamma_until`, nor the switch
    streak while `gamma_until` is bounded.

    A full step is idle when `spent < allocation`, no streak the branch
    counts has reached its patience (`count_streaks`), and the gate is
    closed or Σ <= `commit`. Then no arm is at the cap, no abort or switch
    branch can fire and no arm's commit test passes, so every arm's
    `decide` returns PERSIST. A standalone run, which records every step,
    uses bounds under which every step is full and none idle and every
    state is read: `(inf, -inf, True, inf)`.
    """
    if not arms:
        raise ValueError("quiet_bounds needs at least one arm")
    switch_graces = [th.grace for v, th in arms if v.switch_enabled]
    if not switch_graces:
        gamma_until = 0
    elif open_goals > 1:
        gamma_until = math.inf
    else:
        gamma_until = max(switch_graces)
    return QuietBounds(max(th.commit_distance for _, th in arms),
                       min(th.commit for _, th in arms),
                       any(v.abort_enabled for v, _ in arms),
                       gamma_until)


def decide(
    states: MetaStateVector,
    distance: float,
    ledger: BudgetLedger,
    thresholds: Thresholds,
    variant: MethodVariant,
    remaining_count: int = 2,
    abort_streak: int = 0,
    switch_streak: int = 0,
) -> ExecutiveDecision:
    """Pick the meta-action for this step.

    Branch priority: subgoal cap, abort, switch, commit, persist. The cap
    is a benchmark-level rule and fires in every variant; with a single
    open goal it aborts that goal outright so the episode terminates
    instead of re-cycling the same goal forever. During grace an enabled
    abort or switch branch whose condition holds returns PERSIST/GRACE
    before commit is checked; otherwise commit ignores grace and needs only
    a short warmup, so a freshly reset window (trivially stable) cannot
    trigger it.

    Evaluation order follows the priority: the cap first, then Π against
    the abort level only if the variant enables abort, Γ against the
    switch level only if it enables switch, then commit, whose distance
    and warmup tests come before Σ is read. The result is one of the
    module's shared, frozen decisions; nothing is allocated.
    """
    spent = ledger.active_spent
    if spent >= ledger.allocation:
        return _CAP_ABORT if remaining_count <= 1 else _CAP_SWITCH
    in_grace = spent < thresholds.grace

    if variant.abort_enabled and states.potentiality < thresholds.abort_level:
        if in_grace:
            return _GRACE
        if abort_streak >= thresholds.abort_patience:
            return _LOW_POTENTIALITY

    if variant.switch_enabled and states.persistence < thresholds.switch_level:
        if in_grace:
            return _GRACE
        if switch_streak >= thresholds.switch_patience and remaining_count > 1:
            return _GATE_CLOSED

    # the gate before Σ: outside it Σ is never read (`quiet_bounds`)
    if (
        distance < thresholds.commit_distance
        and spent >= thresholds.commit_warmup
        and states.sufficiency > thresholds.commit
    ):
        return _COMMIT

    return _PERSIST


def select_next(
    remaining: list[int],
    agent_position: tuple[float, float],
    goal_positions: dict[int, tuple[float, float]],
) -> int:
    """Greedy geometric re-ordering: nearest remaining goal by Euclidean
    distance, ties broken by lowest goal id. The runner passes grid cells,
    so the ordering, ties included, does not depend on the cell size."""
    if not remaining:
        raise ValueError("select_next on empty goal set")
    ax, ay = agent_position

    def key(g: int) -> tuple[float, int]:
        gx, gy = goal_positions[g]
        return (math.hypot(gx - ax, gy - ay), g)

    return min(remaining, key=key)


def next_goal(
    variant: MethodVariant,
    pending: list[int],
    order: list[int],
    after: Optional[int],
    agent_position: tuple[float, float],
    goal_positions: dict[int, tuple[float, float]],
) -> int:
    """The pending goal to activate next, the one rule every goal choice
    follows; `after` is the goal just retired, or None at the start.

    FIXED_ORDER walks `order` past `after`, wrapping around, so `after`
    comes last. REACTIVE_ORDER always takes the nearest goal. The MORN
    variants take the first goal in `order` at the start, then the
    nearest. A nearest-goal choice is `select_next` over the grid cells
    the runner passes, and skips `after` unless no other goal is pending.
    """
    if not pending:
        raise ValueError("next_goal on empty goal set")
    if variant is MethodVariant.FIXED_ORDER or (
            after is None and variant is not MethodVariant.REACTIVE_ORDER):
        start = 0 if after is None else order.index(after) + 1
        return next(g for g in order[start:] + order[:start] if g in pending)
    candidates = [g for g in pending if g != after] or pending
    return select_next(candidates, agent_position, goal_positions)


def apply(
    decision: ExecutiveDecision,
    schedule: MissionSchedule,
    ledger: BudgetLedger,
    agent_position: tuple[float, float],
    goal_positions: dict[int, tuple[float, float]],
    variant: MethodVariant,
) -> Optional[int]:
    """Apply the decision to the schedule and ledger: the one place where
    a meta-action changes a goal's record.

    Non-persist actions retire or recycle the active goal, recompute the
    subgoal allocation from the remaining budget and activate the goal
    `next_goal` picks after it, so a goal just switched away from is not
    re-selected while an alternative exists. Returns the newly activated
    goal id, or None once no goal is pending.
    """
    if decision.action is MetaAction.PERSIST:
        return None

    prev_id = schedule.active_id
    active = schedule.active
    if decision.action is MetaAction.COMMIT:
        active.state = GoalState.COMPLETED
    elif decision.action is MetaAction.ABORT:
        active.state = GoalState.FAILED
        active.aborted_by_meta = decision.reason is DecisionReason.LOW_POTENTIALITY
    else:
        active.state = GoalState.PENDING
        active.switch_count += 1
        if decision.reason is DecisionReason.GATE_CLOSED:
            active.gate_switches += 1
    schedule.active_id = None

    # the active goal is retired, so no goal is ACTIVE: the open goals
    # are the pending ones
    pending = schedule.open_ids()
    if not pending:
        return None

    nxt = next_goal(variant, pending, schedule.order, prev_id, agent_position, goal_positions)
    ledger.allocation = allocate(ledger, len(pending))
    ledger.active_spent = 0
    schedule.activate(nxt)
    return nxt
