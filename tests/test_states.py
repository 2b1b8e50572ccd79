"""Unit and property tests for the executive meta-states."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

TOL = 1e-9
W = StateWeights()

unit = st.floats(0.0, 1.0)
signed_unit = st.floats(-1.0, 1.0)


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_hand_value(self):
        assert sigmoid(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=TOL)

    def test_saturation(self):
        assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-9)
        assert sigmoid(-50.0) == pytest.approx(0.0, abs=1e-9)

    @given(st.floats(-1e6, 1e6))
    def test_bounded_and_monotone_step(self, z):
        y = sigmoid(z)
        assert 0.0 <= y <= 1.0
        assert sigmoid(z + 1.0) >= y


class TestPotentiality:
    def test_zero_preactivation(self):
        assert potentiality(0, 0, 0, W) == 0.5

    def test_all_ones(self):
        assert potentiality(1, 1, 1, W) == pytest.approx(sigmoid(1.0), abs=TOL)

    def test_full_retreat(self):
        assert potentiality(-1, 0, 0, W) == pytest.approx(sigmoid(-0.4), abs=TOL)

    @given(signed_unit, unit, unit)
    def test_bounded(self, v, s, stab):
        assert 0.0 < potentiality(v, s, stab, W) < 1.0

    @given(signed_unit, signed_unit, unit, unit)
    def test_monotone_in_velocity(self, a, b, s, stab):
        lo, hi = min(a, b), max(a, b)
        assert potentiality(lo, s, stab, W) <= potentiality(hi, s, stab, W)

    @given(signed_unit, unit, unit, unit)
    def test_monotone_in_evidence(self, v, a, b, stab):
        lo, hi = min(a, b), max(a, b)
        assert potentiality(v, lo, stab, W) <= potentiality(v, hi, stab, W)


class TestPersistenceGate:
    def test_full_inertia(self):
        sunk = SunkCost(spent=100, allocation=100)
        assert persistence_gate(0.0, sunk, 0.0, W) == pytest.approx(sigmoid(-0.3), abs=TOL)

    def test_zero_preactivation(self):
        assert persistence_gate(0.0, SunkCost(0, 100), 0.0, W) == 0.5

    def test_mixed_inputs(self):
        sunk = SunkCost(spent=50, allocation=100)
        expected = sigmoid(0.5 * 0.2 - 0.3 * 0.5 + 0.2 * 0.5)
        assert persistence_gate(0.2, sunk, 0.5, W) == pytest.approx(expected, abs=TOL)

    def test_zero_allocation_rejected(self):
        with pytest.raises(ValueError, match="subgoal allocation must be positive"):
            persistence_gate(0.0, SunkCost(5, 0), 0.0, W)

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(1, 300))
    def test_decreasing_in_spent(self, a, b, allocation):
        lo, hi = min(a, b), max(a, b)
        g_lo = persistence_gate(0.1, SunkCost(lo, allocation), 0.0, W)
        g_hi = persistence_gate(0.1, SunkCost(hi, allocation), 0.0, W)
        assert g_hi <= g_lo
        if hi > lo:
            assert g_hi < g_lo  # strictly decreasing


class TestProximity:
    def test_at_goal(self):
        assert proximity(0.0, W) == 1.0

    def test_at_scale_distance(self):
        assert proximity(5.0, W) == pytest.approx(math.exp(-1.0), abs=TOL)

    def test_asymptote(self):
        assert proximity(1000.0, W) < 1e-6

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            proximity(-0.1, W)

    @given(st.floats(0.0, 1e6))
    def test_bounded(self, d):
        # exp underflows to exactly 0.0 for very large distances
        assert 0.0 <= proximity(d, W) <= 1.0


class TestSufficiency:
    def test_perfect_inputs(self):
        assert sufficiency(1.0, 1.0, 0.0, W) == pytest.approx(1.0, abs=TOL)

    def test_all_vanish(self):
        assert sufficiency(0.0, 0.0, 1000.0, W) < 1e-6

    def test_hand_blend(self):
        expected = 0.3 * 0.5 + 0.4 * 1.0 + 0.3 * math.exp(-1.0)
        assert sufficiency(0.5, 1.0, 5.0, W) == pytest.approx(expected, abs=TOL)

    @given(unit, unit, st.floats(0.0, 100.0))
    def test_bounded_for_unit_inputs(self, e, stab, d):
        assert 0.0 <= sufficiency(e, stab, d, W) <= 1.0

    @given(unit, unit, st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    def test_non_increasing_in_distance(self, e, stab, a, b):
        lo, hi = min(a, b), max(a, b)
        assert sufficiency(e, stab, hi, W) <= sufficiency(e, stab, lo, W)

    @given(unit, unit, st.floats(0.0, 100.0))
    def test_proximity_dominance_at_goal(self, e, stab, d):
        assert sufficiency(e, stab, 0.0, W) >= sufficiency(e, stab, d, W)


class TestWeights:
    def test_defaults_valid(self):
        StateWeights().validate()

    def test_accumulation_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            StateWeights(acc_e=0.5, acc_stab=0.4, acc_prox=0.3).validate()

    def test_prox_scale_positive(self):
        with pytest.raises(ValueError):
            StateWeights(prox_scale=0.0).validate()


def test_replay_determinism():
    """Pure functions: identical inputs yield identical outputs."""
    args = (0.3, 0.7, 0.2)
    assert potentiality(*args, W) == potentiality(*args, W)
    vec = MetaStateVector(0.5, 0.5, 0.5)
    assert vec == MetaStateVector(0.5, 0.5, 0.5)
