"""Unit and property tests for the meta-controller."""

import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morn.executive import (
    ALLOC_MAX,
    ALLOC_MIN,
    BudgetLedger,
    DecisionReason,
    ExecutiveDecision,
    GoalState,
    InvalidCallError,
    MetaAction,
    MethodVariant,
    MissionSchedule,
    Thresholds,
    allocate,
    apply,
    below_abort,
    below_switch,
    decide,
    next_goal,
    quiet_bounds,
    select_next,
    streak,
)
from morn.states import MetaStateVector, sigmoid

TH = Thresholds()


def states(pi=0.9, gamma=0.9, sigma=0.0):
    return MetaStateVector(pi, gamma, sigma)


def ledger(budget=500, allocation=250, elapsed=0, spent=25):
    return BudgetLedger(budget_max=budget, allocation=allocation,
                        elapsed=elapsed, active_spent=spent)


class TestAllocate:
    def test_even_split(self):
        assert allocate(ledger(budget=500, elapsed=0), 2) == 250

    def test_floor_binds(self):
        assert allocate(ledger(budget=650, elapsed=600), 3) == ALLOC_MIN

    def test_cap_binds(self):
        assert allocate(ledger(budget=500, elapsed=0), 1) == ALLOC_MAX

    def test_zero_goals_rejected(self):
        with pytest.raises(InvalidCallError):
            allocate(ledger(), 0)

    @given(st.integers(1, 2000), st.integers(0, 2000), st.integers(1, 5))
    def test_always_clamped(self, budget, elapsed, rem):
        a = allocate(ledger(budget=budget, elapsed=elapsed), rem)
        assert ALLOC_MIN <= a <= ALLOC_MAX


class TestThresholds:
    def test_defaults_valid(self):
        TH.validate()

    def test_abort_level_on_state_scale(self):
        assert TH.abort_level == sigmoid(TH.abort)

    def test_switch_level_below_neutral(self):
        assert TH.switch_level == sigmoid(-TH.switch)
        assert TH.switch_level < 0.5

    def test_levels_follow_replace_and_are_frozen(self):
        th = replace(TH, abort=0.5, switch=0.4)
        assert (th.abort_level, th.switch_level) == (sigmoid(0.5), sigmoid(-0.4))
        for name in ("abort_level", "switch_level"):
            with pytest.raises(FrozenInstanceError):
                setattr(th, name, 0.1)
        # derived values, not fields: neither a config key nor a replace argument
        assert "abort_level" not in {f.name for f in fields(Thresholds)}

    @pytest.mark.parametrize("kwargs", [
        {"commit_distance": 0.0},
        {"grace": -1},
        {"abort_patience": 0},
        {"switch_patience": 0},
        {"commit_warmup": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Thresholds(**kwargs).validate()


class TestDecide:
    def test_grace_protects_low_potentiality(self):
        d = decide(states(pi=0.10), 10.0, ledger(spent=5), TH,
                   MethodVariant.MORN_FULL, abort_streak=TH.abort_patience)
        assert d.action is MetaAction.PERSIST
        assert d.reason is DecisionReason.GRACE

    def test_abort_after_grace_and_patience(self):
        d = decide(states(pi=0.25), 10.0, ledger(spent=25), TH,
                   MethodVariant.MORN_FULL, abort_streak=TH.abort_patience)
        assert d.action is MetaAction.ABORT
        assert d.reason is DecisionReason.LOW_POTENTIALITY

    def test_abort_waits_for_patience(self):
        d = decide(states(pi=0.25), 10.0, ledger(spent=25), TH,
                   MethodVariant.MORN_FULL, abort_streak=TH.abort_patience - 1)
        assert d.action is MetaAction.PERSIST

    def test_switch_on_closed_gate(self):
        d = decide(states(gamma=0.10), 10.0, ledger(spent=25), TH,
                   MethodVariant.MORN_FULL, switch_streak=TH.switch_patience)
        assert d.action is MetaAction.SWITCH
        assert d.reason is DecisionReason.GATE_CLOSED

    def test_no_gate_switch_with_single_goal(self):
        d = decide(states(gamma=0.10), 10.0, ledger(spent=25), TH,
                   MethodVariant.MORN_FULL, remaining_count=1,
                   switch_streak=TH.switch_patience)
        assert d.action is MetaAction.PERSIST

    def test_commit_on_sufficient_evidence(self):
        # commit threshold on the raw sufficiency scale, as published
        th = Thresholds(commit=0.300)
        d = decide(states(sigma=0.50), 2.0, ledger(spent=25), th,
                   MethodVariant.MORN_FULL)
        assert d.action is MetaAction.COMMIT
        assert d.reason is DecisionReason.EVIDENCE_COMMIT

    def test_commit_blocked_by_distance(self):
        th = Thresholds(commit=0.300)
        d = decide(states(sigma=0.50), 4.0, ledger(spent=25), th,
                   MethodVariant.MORN_FULL)
        assert d.action is MetaAction.PERSIST

    def test_commit_needs_no_grace_only_warmup(self):
        th = Thresholds(commit=0.300)
        in_grace = decide(states(sigma=0.90), 1.0, ledger(spent=10), th,
                          MethodVariant.MORN_FULL)
        assert in_grace.action is MetaAction.COMMIT
        fresh = decide(states(sigma=0.90), 1.0, ledger(spent=th.commit_warmup - 1),
                       th, MethodVariant.MORN_FULL)
        assert fresh.action is MetaAction.PERSIST

    @pytest.mark.parametrize("variant, action, reason", [
        (MethodVariant.MORN_FULL, MetaAction.PERSIST, DecisionReason.GRACE),
        (MethodVariant.MORN_SWITCH_ONLY, MetaAction.COMMIT, DecisionReason.EVIDENCE_COMMIT),
        (MethodVariant.FIXED_ORDER, MetaAction.COMMIT, DecisionReason.EVIDENCE_COMMIT),
    ])
    def test_grace_hold_outranks_commit(self, variant, action, reason):
        # low potentiality in grace: an enabled abort branch holds the goal
        # before the commit branch is reached, though all commit conditions hold
        d = decide(MetaStateVector(0.3, 0.9, 0.9), 1.0, ledger(spent=10), TH, variant)
        assert (d.action, d.reason) == (action, reason)

    def test_cap_forces_switch(self):
        d = decide(states(), 10.0, ledger(allocation=250, spent=250), TH,
                   MethodVariant.FIXED_ORDER)
        assert d.action is MetaAction.SWITCH
        assert d.reason is DecisionReason.SUBGOAL_CAP

    def test_cap_aborts_sole_goal(self):
        d = decide(states(), 10.0, ledger(allocation=250, spent=250), TH,
                   MethodVariant.FIXED_ORDER, remaining_count=1)
        assert d.action is MetaAction.ABORT
        assert d.reason is DecisionReason.SUBGOAL_CAP

    def test_decisions_are_shared_and_frozen(self):
        d = decide(states(), 10.0, ledger(), TH, MethodVariant.MORN_FULL)
        assert d is decide(states(), 10.0, ledger(), TH, MethodVariant.FIXED_ORDER)
        with pytest.raises(FrozenInstanceError):
            d.action = MetaAction.ABORT

    def test_branch_priority_cap_abort_switch_commit(self):
        # one step satisfying every branch resolves in declared order
        everything = states(pi=0.0, gamma=0.0, sigma=1.0)
        capped = decide(everything, 1.0, ledger(allocation=250, spent=250), TH,
                        MethodVariant.MORN_FULL,
                        abort_streak=99, switch_streak=99)
        assert capped.reason is DecisionReason.SUBGOAL_CAP
        aborting = decide(everything, 1.0, ledger(spent=25), TH,
                          MethodVariant.MORN_FULL,
                          abort_streak=99, switch_streak=99)
        assert aborting.action is MetaAction.ABORT
        switching = decide(states(gamma=0.0, sigma=1.0), 1.0, ledger(spent=25),
                           TH, MethodVariant.MORN_FULL, switch_streak=99)
        assert switching.action is MetaAction.SWITCH
        committing = decide(states(sigma=1.0), 1.0, ledger(spent=25), TH,
                            MethodVariant.MORN_FULL)
        assert committing.action is MetaAction.COMMIT

    @pytest.mark.parametrize("variant,abort_ok,switch_ok", [
        (MethodVariant.FIXED_ORDER, False, False),
        (MethodVariant.REACTIVE_ORDER, False, False),
        (MethodVariant.MORN_ABORT_ONLY, True, False),
        (MethodVariant.MORN_SWITCH_ONLY, False, True),
        (MethodVariant.MORN_FULL, True, True),
    ])
    def test_variant_masking(self, variant, abort_ok, switch_ok):
        assert variant.abort_enabled is abort_ok
        assert variant.switch_enabled is switch_ok
        low = states(pi=0.0, gamma=0.0)
        d = decide(low, 10.0, ledger(spent=25), TH, variant,
                   abort_streak=99, switch_streak=99)
        if abort_ok:
            assert d.action is MetaAction.ABORT
        elif switch_ok:
            assert d.action is MetaAction.SWITCH
        else:
            assert d.action is MetaAction.PERSIST


unit = st.floats(0.0, 1.0)


@st.composite
def streak_cases(draw):
    """An arbitrary step: states, ledger, valid thresholds, variant, open
    goal count, the streak before this step and any streak values."""
    th = Thresholds(abort=draw(st.floats(-3.0, 3.0)), switch=draw(st.floats(-3.0, 3.0)),
                    commit=draw(unit), commit_distance=draw(st.floats(0.1, 10.0)),
                    grace=draw(st.integers(0, 60)),
                    abort_patience=draw(st.integers(1, 80)),
                    switch_patience=draw(st.integers(1, 80)),
                    commit_warmup=draw(st.integers(0, 10)))
    th.validate()
    # spent near the end of grace half the time, where off-by-one rules differ
    offset = draw(st.one_of(st.integers(-2, 2), st.integers(-60, 300)))
    led = ledger(allocation=draw(st.integers(1, 300)), spent=max(0, th.grace + offset))
    return dict(states=states(draw(unit), draw(unit), draw(unit)),
                distance=draw(st.floats(0.0, 20.0)), ledger=led, thresholds=th,
                variant=draw(st.sampled_from(list(MethodVariant))),
                remaining=draw(st.integers(1, 3)), before=draw(st.integers(0, 100)),
                other=draw(st.integers(0, 100)))


class TestStreakRule:
    """`streak` (what `run` counts) and `decide` agree on every branch the
    patience guards."""

    @staticmethod
    def _decide(c, abort_streak, switch_streak):
        return decide(c["states"], c["distance"], c["ledger"], c["thresholds"], c["variant"],
                      remaining_count=c["remaining"],
                      abort_streak=abort_streak, switch_streak=switch_streak)

    @staticmethod
    def _streaks(c):
        th, spent = c["thresholds"], c["ledger"].active_spent
        return (streak(c["before"], below_abort(c["states"], th), spent, th),
                streak(c["before"], below_switch(c["states"], th), spent, th))

    @settings(max_examples=400, deadline=None)
    @given(streak_cases())
    def test_reset_step_never_fires(self, c):
        abort_now, switch_now = self._streaks(c)
        if abort_now == 0:
            d = self._decide(c, c["other"], c["other"])
            assert d.reason is not DecisionReason.LOW_POTENTIALITY
        if switch_now == 0:
            d = self._decide(c, c["other"], c["other"])
            assert d.reason is not DecisionReason.GATE_CLOSED

    @settings(max_examples=400, deadline=None)
    @given(streak_cases())
    def test_counted_step_fires_at_patience(self, c):
        th, variant = c["thresholds"], c["variant"]
        abort_now, switch_now = self._streaks(c)
        capped = c["ledger"].active_spent >= c["ledger"].allocation
        if abort_now > 0 and variant.abort_enabled:
            d = self._decide(c, th.abort_patience, c["other"])
            assert d.reason is (DecisionReason.SUBGOAL_CAP if capped
                                else DecisionReason.LOW_POTENTIALITY)
        if switch_now > 0 and variant.switch_enabled and c["remaining"] > 1:
            d = self._decide(c, c["other"], th.switch_patience)
            aborts = (variant.abort_enabled and below_abort(c["states"], th)
                      and c["other"] >= th.abort_patience)
            expected = (DecisionReason.SUBGOAL_CAP if capped
                        else DecisionReason.LOW_POTENTIALITY if aborts
                        else DecisionReason.GATE_CLOSED)
            assert d.reason is expected

    @settings(max_examples=400, deadline=None)
    @given(streak_cases())
    def test_disabled_branch_streak_is_never_read(self, c):
        variant = c["variant"]
        for patience_attr, enabled, position in (
                ("abort_patience", variant.abort_enabled, 0),
                ("switch_patience", variant.switch_enabled, 1)):
            if enabled:
                continue
            decisions = []
            for value in (0, getattr(c["thresholds"], patience_attr), 999):
                streaks = [c["other"], c["other"]]
                streaks[position] = value
                decisions.append(self._decide(c, *streaks))
            assert decisions == [decisions[0]] * 3, (variant, patience_attr)

    def test_intervention_and_grace_reset(self):
        assert streak(7, True, TH.grace, TH) == 8
        assert streak(7, False, TH.grace, TH) == 0
        assert streak(7, True, TH.grace - 1, TH) == 0


def quiet_cases(count, seed):
    """ACCEPTANCE 3-style random steps of one branch: one to three arms of
    any variants with grace 0/20/30, commit warmup 0/5, commit thresholds
    down to negative values and several commit distances; an allocation,
    the open goal count, and `spent` and the distance drawn next to the
    bounds the rule compares half the time."""
    rng = random.Random(seed)
    distances = (1.0, 2.0, 3.0, 4.0)
    for _ in range(count):
        arms = [(rng.choice(list(MethodVariant)),
                 Thresholds(abort=rng.uniform(-3.0, 3.0), switch=rng.uniform(-3.0, 3.0),
                            commit=rng.uniform(-0.5, 0.95),
                            commit_distance=rng.choice(distances),
                            grace=rng.choice((0, 20, 30)),
                            abort_patience=rng.randint(1, 60),
                            switch_patience=rng.randint(1, 20),
                            commit_warmup=rng.choice((0, 5))))
                for _ in range(rng.randint(1, 3))]
        allocation = rng.choice((rng.randint(1, 40), rng.randint(ALLOC_MIN, ALLOC_MAX)))
        if rng.random() < 0.5:
            edge = rng.choice((0, 5, 20, 30, allocation))
            spent = max(1, edge + rng.randint(-2, 2))
        else:
            spent = rng.randint(1, allocation + 10)
        if rng.random() < 0.5:
            distance = rng.choice(distances) + rng.choice((-0.5, 0.0, 0.5))
        else:
            distance = rng.uniform(0.0, 10.0)
        vectors = [states(pi, gamma, sigma) for pi in (0.0, 1.0) for gamma in (0.0, 1.0)
                   for sigma in (0.0, 1.0)]
        vectors += [states(rng.random(), rng.random(), rng.random()) for _ in range(3)]
        yield (arms, ledger(allocation=allocation, spent=spent), distance,
               rng.randint(1, 3), vectors, rng)


class TestQuietSteps:
    """`quiet_bounds` against `decide` and `streak`: on a quiet step no arm
    acts or counts a streak whatever Π, Γ and Σ are, outside the commit
    gate no arm's decision depends on Σ, and a step past `until` is one on
    which some arm can act or count."""

    def test_rule_agrees_with_decide(self):
        problems = []
        seen = dict.fromkeys(("quiet", "gate closed", "past until"), 0)
        for i, (arms, led, distance, remaining, vectors, rng) in enumerate(
                quiet_cases(10_000, 20240901)):
            bounds = quiet_bounds(arms, led.allocation)
            spent = led.active_spent
            gate = spent >= bounds.warmup and distance < bounds.reach
            quiet = spent < bounds.until and not gate
            seen["quiet"] += quiet
            seen["gate closed"] += not gate
            seen["past until"] += spent >= bounds.until and not gate
            can_act = False
            for variant, th in arms:
                for sv in vectors:
                    streaks = (rng.choice((0, th.abort_patience, 100)),
                               rng.choice((0, th.switch_patience, 100)))
                    d = decide(sv, distance, led, th, variant, remaining, *streaks)
                    counted = [streak(0, below(sv, th), spent, th)
                               for below, enabled in ((below_abort, variant.abort_enabled),
                                                      (below_switch, variant.switch_enabled))
                               if enabled]
                    if d.action is not MetaAction.PERSIST or any(counted):
                        can_act = True
                        if quiet:
                            problems.append(f"#{i} {variant.name}: {d.reason.name}, "
                                            f"streaks {counted} on a quiet step")
                    if not gate and len({
                            decide(replace(sv, sufficiency=sigma), distance, led, th, variant,
                                   remaining, *streaks) for sigma in (0.0, 1.0)}) > 1:
                        problems.append(f"#{i} {variant.name}: Σ read outside the gate")
            if spent >= bounds.until and not gate and not can_act:
                problems.append(f"#{i}: spent {spent} past until {bounds.until}, "
                                "but no arm can act or count")
        assert not problems, problems[:5]
        assert min(seen.values()) > 1000, seen

    def test_bounds(self):
        full = Thresholds(grace=20, commit_warmup=5, commit_distance=3.0)
        fixed = Thresholds(grace=0, commit_warmup=0, commit_distance=4.0)
        arms = [(MethodVariant.FIXED_ORDER, fixed), (MethodVariant.MORN_FULL, full)]
        assert quiet_bounds(arms, 250) == (20, 0, 4.0)
        assert quiet_bounds(arms, 10).until == 10
        assert quiet_bounds(arms[:1], 250).until == 250
        with pytest.raises(InvalidCallError):
            quiet_bounds([], 250)


FIXED, REACTIVE = MethodVariant.FIXED_ORDER, MethodVariant.REACTIVE_ORDER
MORN_VARIANTS = [v for v in MethodVariant if v not in (FIXED, REACTIVE)]


class TestSelectNext:
    POS = {1: (3.0, 4.0), 2: (6.0, 0.0)}

    def test_nearest_by_euclidean(self):
        assert select_next([1, 2], (0.0, 0.0), self.POS) == 1

    def test_single_goal(self):
        assert select_next([2], (0.0, 0.0), self.POS) == 2

    def test_tie_breaks_to_lower_id(self):
        pos = {1: (1.0, 0.0), 2: (-1.0, 0.0)}
        assert select_next([2, 1], (0.0, 0.0), pos) == 1

    def test_empty_rejected(self):
        with pytest.raises(InvalidCallError):
            select_next([], (0.0, 0.0), self.POS)

    # goal choice through `next_goal`, with `after` None at the episode start
    def test_fixed_order_wraps(self):
        pos = {1: (9.0, 0.0), 2: (3.0, 4.0), 3: (6.0, 0.0)}
        assert next_goal(FIXED, [1, 3], [1, 2, 3], 3, (0.0, 0.0), pos) == 1
        assert next_goal(FIXED, [1, 3], [1, 2, 3], 1, (0.0, 0.0), pos) == 3
        assert next_goal(FIXED, [1], [1, 2, 3], 1, (0.0, 0.0), pos) == 1

    def test_first_goal_nearest_under_reactive_order(self):
        pos = {1: (9.0, 0.0), 2: (3.0, 4.0), 3: (6.0, 0.0)}
        assert next_goal(REACTIVE, [1, 2, 3], [1, 2, 3], None, (0.0, 0.0), pos) == 2

    @pytest.mark.parametrize("variant", [FIXED, *MORN_VARIANTS])
    def test_first_goal_first_in_order_otherwise(self, variant):
        pos = {1: (9.0, 0.0), 2: (3.0, 4.0), 3: (6.0, 0.0)}
        assert next_goal(variant, [3, 1, 2], [3, 1, 2], None, (0.0, 0.0), pos) == 3

    def test_first_goal_tie_goes_to_lowest_id(self):
        pos = {1: (1.0, 0.0), 2: (-1.0, 0.0), 3: (0.0, 1.0)}
        assert next_goal(REACTIVE, [3, 2, 1], [3, 2, 1], None, (0.0, 0.0), pos) == 1


def expected_goal(variant, pending, order, after, agent, cells):
    """The goal-choice rule, written out on its own: prescribed order for
    FIXED_ORDER, and for the MORN variants at the start; otherwise the
    nearest pending goal other than `after` (unless it is the only one),
    compared as squared integer distances, ties to the lowest id."""
    if variant is FIXED or (after is None and variant is not REACTIVE):
        cut = 0 if after is None else order.index(after) + 1
        walk = order[cut:] + order[:cut]
        return [g for g in walk if g in pending][0]
    pool = sorted(g for g in pending if g != after) or [after]
    dist2 = {g: (cells[g][0] - agent[0]) ** 2 + (cells[g][1] - agent[1]) ** 2 for g in pool}
    return min(pool, key=lambda g: (dist2[g], g))


def selection_cases(count, seed):
    """Random goal choices: every variant, 1-4 goals in a shuffled order on
    integer cells (about half of them at the same distance from the agent
    as an earlier goal, so ties are common), each goal pending or retired,
    and `after` None, pending or retired."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        order = rng.sample(range(1, 9), n)
        agent = (rng.randint(0, 6), rng.randint(0, 6))
        cells = {}
        for g in order:
            if cells and rng.random() < 0.5:  # same distance as an earlier goal
                dx, dy = rng.choice(list(cells.values()))
                dx, dy = dx - agent[0], dy - agent[1]
                for _turn in range(rng.randrange(4)):
                    dx, dy = -dy, dx
                cells[g] = (agent[0] + dx, agent[1] + dy)
            else:
                cells[g] = (rng.randint(0, 6), rng.randint(0, 6))
        pending = [g for g in order if rng.random() < 0.7]
        after = rng.choice([None, rng.choice(order)])
        yield rng.choice(list(MethodVariant)), order, pending, after, agent, cells


class TestNextGoal:
    POS = {1: (9.0, 0.0), 2: (3.0, 4.0), 3: (6.0, 0.0)}

    @pytest.mark.parametrize("variant", [REACTIVE, *MORN_VARIANTS])
    def test_greedy_skips_after_unless_it_is_alone(self, variant):
        # goal 2 is nearest; 3 is next
        assert next_goal(variant, [1, 2, 3], [1, 2, 3], 2, (0.0, 0.0), self.POS) == 3
        assert next_goal(variant, [2], [1, 2, 3], 2, (0.0, 0.0), self.POS) == 2
        # a retired `after` is not pending, so nothing is skipped
        assert next_goal(variant, [1, 2], [1, 2, 3], 3, (0.0, 0.0), self.POS) == 2

    def test_tie_after_a_switch_goes_to_lowest_id(self):
        pos = {1: (1.0, 0.0), 2: (-1.0, 0.0), 3: (0.0, 0.5)}
        assert next_goal(MethodVariant.MORN_FULL, [3, 2, 1], [3, 2, 1], 3, (0.0, 0.0), pos) == 1

    @pytest.mark.parametrize("variant", list(MethodVariant))
    @pytest.mark.parametrize("after", [None, 1])
    def test_empty_rejected(self, variant, after):
        with pytest.raises(InvalidCallError):
            next_goal(variant, [], [1, 2], after, (0.0, 0.0), self.POS)

    def test_matches_the_rule(self):
        rng, seen = random.Random(22), set()
        for variant, order, pending, after, agent, cells in selection_cases(4000, 20):
            if not pending:
                continue
            shuffled = rng.sample(pending, len(pending))
            got = next_goal(variant, shuffled, order, after, agent, cells)
            assert got == expected_goal(variant, pending, order, after, agent, cells), \
                (variant, order, pending, after, agent, cells)
            seen.add((variant, after is None, after in pending))
        assert len(seen) == len(MethodVariant) * 3  # start, after pending, after retired

    def test_apply_activates_the_rule_s_goal(self):
        rng, seen = random.Random(23), set()
        for variant, order, pending, after, agent, cells in selection_cases(4000, 21):
            # `after` is the active goal that `apply` retires
            after = after if after is not None else order[0]
            schedule = MissionSchedule(order)
            for g in order:
                if g not in pending and g != after:
                    schedule.goals[g].state = GoalState.COMPLETED
            schedule.activate(after)
            action = rng.choice([MetaAction.SWITCH, MetaAction.COMMIT, MetaAction.ABORT])
            led = BudgetLedger(budget_max=900, allocation=200, elapsed=100, active_spent=30)
            nxt = apply(ExecutiveDecision(action, DecisionReason.DEFAULT), schedule, led,
                        agent, cells, variant)
            left = [g for g in order if g != after and g in pending]
            if action is MetaAction.SWITCH:
                left = [g for g in order if g == after or g in left]
            want = expected_goal(variant, left, order, after, agent, cells) if left else None
            assert nxt == want == schedule.active_id, (variant, order, left, after, action)
            seen.add((variant, action, want is None))
        # a switch always leaves a goal pending; a commit or abort may not
        assert len(seen) == len(MethodVariant) * 5


class TestApply:
    POS = {1: (1.0, 1.0), 2: (5.0, 5.0), 3: (9.0, 1.0)}

    def setup_method(self):
        self.schedule = MissionSchedule([1, 2, 3])
        self.schedule.activate(1)
        self.ledger = BudgetLedger(budget_max=500, allocation=166,
                                   elapsed=200, active_spent=40)

    def _decision(self, action, reason=DecisionReason.DEFAULT):
        return ExecutiveDecision(action, reason)

    def test_commit_completes_and_advances(self):
        nxt = apply(self._decision(MetaAction.COMMIT), self.schedule, self.ledger,
                    (1.0, 1.0), self.POS, MethodVariant.MORN_FULL)
        assert self.schedule.goals[1].state is GoalState.COMPLETED
        assert nxt == 2  # nearest remaining
        assert self.ledger.active_spent == 0
        assert self.ledger.allocation == 150  # (500-200)//2

    def test_abort_fails_goal(self):
        apply(self._decision(MetaAction.ABORT), self.schedule, self.ledger,
              (1.0, 1.0), self.POS, MethodVariant.MORN_FULL)
        assert self.schedule.goals[1].state is GoalState.FAILED

    def test_switch_keeps_goal_pending_and_revisitable(self):
        apply(self._decision(MetaAction.SWITCH), self.schedule, self.ledger,
              (1.0, 1.0), self.POS, MethodVariant.MORN_FULL)
        st1 = self.schedule.goals[1]
        assert st1.state is GoalState.PENDING
        assert st1.switch_count == 1
        assert 1 in self.schedule.open_ids() and self.schedule.active_id != 1

    def test_switched_goal_not_immediately_reselected(self):
        # goal 1 is nearest to the agent but was just switched away from
        nxt = apply(self._decision(MetaAction.SWITCH), self.schedule, self.ledger,
                    (1.0, 1.0), self.POS, MethodVariant.MORN_FULL)
        assert nxt != 1

    def test_fixed_order_round_robin(self):
        nxt = apply(self._decision(MetaAction.SWITCH), self.schedule, self.ledger,
                    (1.0, 1.0), self.POS, MethodVariant.FIXED_ORDER)
        assert nxt == 2

    def test_terminal_action_on_last_goal_ends_schedule(self):
        schedule = MissionSchedule([1])
        schedule.activate(1)
        decision = self._decision(MetaAction.COMMIT)
        nxt = apply(decision, schedule, self.ledger, (0.0, 0.0), self.POS,
                    MethodVariant.MORN_FULL)
        assert nxt is None
        assert not schedule.open_ids()

    @pytest.mark.parametrize("action,reason,field,value", [
        (MetaAction.COMMIT, DecisionReason.EVIDENCE_COMMIT, "committed", True),
        (MetaAction.ABORT, DecisionReason.LOW_POTENTIALITY, "aborted_by_meta", True),
        (MetaAction.ABORT, DecisionReason.SUBGOAL_CAP, "aborted_by_meta", False),
        (MetaAction.SWITCH, DecisionReason.GATE_CLOSED, "gate_switches", 1),
        (MetaAction.SWITCH, DecisionReason.SUBGOAL_CAP, "gate_switches", 0),
    ])
    def test_outcome_fields_follow_action_and_reason(self, action, reason, field, value):
        apply(self._decision(action, reason), self.schedule, self.ledger,
              (1.0, 1.0), self.POS, MethodVariant.MORN_FULL)
        assert getattr(self.schedule.goals[1], field) == value
        assert not self.schedule.goals[1].found  # ground truth is the runner's

    def test_persist_is_a_no_op(self):
        nxt = apply(self._decision(MetaAction.PERSIST), self.schedule, self.ledger,
                    (1.0, 1.0), self.POS, MethodVariant.MORN_FULL)
        assert nxt is None
        assert self.schedule.active_id == 1
        assert self.ledger.active_spent == 40


class TestScheduleInvariants:
    def test_at_most_one_active(self):
        rng = random.Random(99)
        for _ in range(200):
            schedule = MissionSchedule([1, 2, 3])
            schedule.activate(1)
            led = BudgetLedger(budget_max=650, allocation=216, elapsed=0,
                               active_spent=0)
            pos = {g: (rng.uniform(0, 10), rng.uniform(0, 10)) for g in (1, 2, 3)}
            while schedule.open_ids():
                led.elapsed += 1
                led.active_spent += 1
                action = rng.choice([MetaAction.PERSIST, MetaAction.COMMIT,
                                     MetaAction.ABORT, MetaAction.SWITCH])
                if action is MetaAction.SWITCH and len(schedule.open_ids()) <= 1:
                    action = MetaAction.ABORT
                decision = ExecutiveDecision(action, DecisionReason.DEFAULT)
                apply(decision, schedule, led, (0.0, 0.0), pos,
                      MethodVariant.MORN_FULL)
                active = [g for g, s in schedule.goals.items()
                          if s.state is GoalState.ACTIVE]
                if not schedule.open_ids():
                    assert not active
                else:
                    assert len(active) == 1 and active[0] == schedule.active_id
                if led.elapsed > 650:
                    break
            for s in schedule.goals.values():
                assert s.state is not GoalState.ACTIVE or schedule.open_ids()

    def test_copy_continued_alike_matches_and_shares_no_record(self):
        pos = {1: (2.0, 1.0), 2: (5.0, 5.0), 3: (9.0, 2.0), 4: (1.0, 8.0)}

        def snapshot(schedule):
            return (schedule.order, schedule.active_id,
                    {g: replace(st) for g, st in schedule.goals.items()})

        def step(schedule, ledger, action):
            if action is MetaAction.SWITCH and len(schedule.open_ids()) <= 1:
                action = MetaAction.ABORT
            ledger.elapsed += 7
            ledger.active_spent += 7
            apply(ExecutiveDecision(action, DecisionReason.DEFAULT), schedule, ledger,
                  (0.0, 0.0), pos, MethodVariant.MORN_FULL)

        schedule = MissionSchedule([1, 2, 3, 4])
        schedule.activate(1)
        led = BudgetLedger(budget_max=900, allocation=200)
        for action in (MetaAction.SWITCH, MetaAction.PERSIST, MetaAction.SWITCH):
            step(schedule, led, action)
        clone, clone_led = schedule.copy(), replace(led)
        assert snapshot(clone) == snapshot(schedule)

        # changing the copy leaves the original as it was, and back
        before = snapshot(schedule)
        clone.goals[schedule.active_id].found = True
        step(clone, clone_led, MetaAction.COMMIT)
        assert snapshot(schedule) == before
        clone, clone_led = schedule.copy(), replace(led)
        step(schedule, led, MetaAction.ABORT)
        assert snapshot(clone) == before

        # a copy continued with the same calls ends where the original does
        step(clone, clone_led, MetaAction.ABORT)
        for action in (MetaAction.SWITCH, MetaAction.PERSIST, MetaAction.COMMIT,
                       MetaAction.SWITCH, MetaAction.ABORT, MetaAction.COMMIT):
            if not schedule.open_ids():
                break
            step(schedule, led, action)
            step(clone, clone_led, action)
            assert snapshot(clone) == snapshot(schedule)
            assert clone_led == led
        assert not schedule.open_ids()

    def test_double_activate_rejected(self):
        schedule = MissionSchedule([1, 2])
        schedule.activate(1)
        with pytest.raises(InvalidCallError):
            schedule.activate(1)
