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
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional

from .states import MetaStateVector, sigmoid

ALLOC_MIN = 50
ALLOC_MAX = 300


class InvalidCallError(ValueError):
    pass


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
        # plain attributes, set once per member: `run` reads them per arm
        # and step, where a property costs several times an attribute
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
        new.goals = {g: replace(st) for g, st in self.goals.items()}
        new.active_id = self.active_id
        return new

    @property
    def active(self) -> GoalStatus:
        if self.active_id is None:
            raise InvalidCallError("no active goal")
        return self.goals[self.active_id]

    def activate(self, goal_id: int) -> None:
        st = self.goals[goal_id]
        if st.state not in (GoalState.PENDING,):
            raise InvalidCallError(f"goal {goal_id} not pending")
        st.state = GoalState.ACTIVE
        self.active_id = goal_id

    def open_ids(self) -> list[int]:
        """Goals still in play (pending or active), in prescribed order."""
        return [g for g in self.order if self.goals[g].state in (GoalState.PENDING, GoalState.ACTIVE)]


def allocate(budget: BudgetLedger, remaining_goals: int) -> int:
    """Dynamic per-subgoal step allocation: remaining budget split evenly
    across open goals, clamped into [ALLOC_MIN, ALLOC_MAX]."""
    if remaining_goals < 1:
        raise InvalidCallError("remaining_goals must be >= 1")
    share = (budget.budget_max - budget.elapsed) // remaining_goals
    return min(ALLOC_MAX, max(share, ALLOC_MIN))


def below_abort(states: MetaStateVector, thresholds: Thresholds) -> bool:
    """The abort branch's condition: potentiality under the abort level."""
    return states.potentiality < thresholds.abort_level


def below_switch(states: MetaStateVector, thresholds: Thresholds) -> bool:
    """The switch branch's condition: the gate under the switch level."""
    return states.persistence < thresholds.switch_level


def streak(count: int, below: bool, spent: int, thresholds: Thresholds) -> int:
    """The patience streak rule, `count` being the streak before this
    step: a step counts once it is past grace and below the branch's
    level, any other step resets the streak to 0. Every intervention
    resets it too. `decide` fires a branch once its streak, this step
    included, reaches the patience, and never reads the streak of a branch
    the variant disables, so `run` counts only the enabled branches'. A
    streak is 0 on every step before grace ends, so on a quiet step
    (`quiet_bounds`) `run` leaves it as it is."""
    return count + 1 if below and spent >= thresholds.grace else 0


class QuietBounds(NamedTuple):
    """The steps on which the arms riding one branch can read nothing; see
    `quiet_bounds`."""

    until: int
    warmup: int
    reach: float


def quiet_bounds(arms: list[tuple[MethodVariant, Thresholds]], allocation: int) -> QuietBounds:
    """The quiet-step rule for a branch's arms, (variant, thresholds) pairs,
    under a subgoal allocation: three bounds, fixed for one goal context.

    - `until`: the least grace of the arms that enable abort or switch,
      never more than `allocation` (the cap fires in every variant).
    - `warmup`: the least commit warmup.
    - `reach`: the greatest commit distance.

    With `spent` the active goal's steps, this one included, and `d` the
    distance `decide` reads, some arm's commit gate may be open only while
    `spent >= warmup and d < reach`; outside it no arm's `decide` reads
    Σ. A step is quiet when `spent < until` and that gate is closed: then
    every arm's `decide` returns PERSIST whatever Π, Γ and Σ are, and
    every streak it reads is 0 (`streak`), so the step needs no signal or
    meta-state.
    """
    if not arms:
        raise InvalidCallError("quiet_bounds needs at least one arm")
    graces = [th.grace for v, th in arms if v.abort_enabled or v.switch_enabled]
    return QuietBounds(min([allocation, *graces]),
                       min(th.commit_warmup for _, th in arms),
                       max(th.commit_distance for _, th in arms))


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

    Evaluation order follows the priority: the cap first, then
    `below_abort` only if the variant enables abort, `below_switch` only
    if it enables switch, then commit, whose distance and warmup tests
    come before Σ is read. The result is one of the module's shared,
    frozen decisions; nothing is allocated.
    """
    spent = ledger.active_spent
    if spent >= ledger.allocation:
        return _CAP_ABORT if remaining_count <= 1 else _CAP_SWITCH
    in_grace = spent < thresholds.grace

    if variant.abort_enabled and below_abort(states, thresholds):
        if in_grace:
            return _GRACE
        if abort_streak >= thresholds.abort_patience:
            return _LOW_POTENTIALITY

    if variant.switch_enabled and below_switch(states, thresholds):
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
        raise InvalidCallError("select_next on empty goal set")
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
        raise InvalidCallError("next_goal on empty goal set")
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
