"""Unit and property tests for the windowed signal statistics."""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morn.signals import (
    InvalidBoundsError,
    RollingWindow,
    SignalParams,
    SignalSample,
    SignalSummary,
    clip,
    info_gain,
    progress_velocity,
    stability,
    update,
)

TOL = 1e-9
SPECIAL_FLOATS = (math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 0.5, 1e-300, -2.5)


def same_float(a, b):
    """Bit-identical floats (so 0.0 and -0.0 differ and NaN equals NaN)."""
    return struct.pack("<d", a) == struct.pack("<d", b)


def two_pass_window_stats(values, capacity):
    """Naive oracle: mean and population variance of the last `capacity`
    values, computed in two passes with no incremental state."""
    window = values[-capacity:]
    n = len(window)
    mean = sum(window) / n
    var = sum((x - mean) ** 2 for x in window) / n
    return mean, var


def feed(values, params, distances=None):
    """Push a value sequence through a fresh window, returning the last
    summary (or all of them when collect is needed by the caller)."""
    window = RollingWindow(params.window)
    summaries = []
    for i, v in enumerate(values):
        d = distances[i] if distances is not None else 10.0
        summaries.append(update(window, SignalSample(i + 1, d, v), params))
    return window, summaries


def oracle_summary(history, params):
    """All five `update` fields recomputed from scratch from the
    (evidence, distance) pairs pushed since the window's last reset."""
    w = params.window
    values = [e for e, _ in history]
    mean, var = two_pass_window_stats(values, w)
    stab = 1.0 - min(max(var / (params.sigma_norm + params.epsilon), 0.0), 1.0)
    distances = [d for _, d in history][-w:]
    velocity = 0.0
    if len(distances) >= 2:
        raw = (distances[0] - distances[-1]) / ((len(distances) - 1) * params.step_length)
        velocity = min(max(raw, -1.0), 1.0)
    gain = 0.0
    if len(values) >= 2 * w:
        gain = two_pass_window_stats(values[:-w], w)[1] - var
    return SignalSummary(mean, var, stab, velocity, gain)


def window_state(window):
    """Everything a window holds, for comparing two windows by value."""
    return (list(window.samples), list(window.distances), window._sum, window._sumsq,
            window._count_total, list(window._var_history))


class TestClip:
    def test_upper_saturation(self):
        assert clip(1.5, 0, 1) == 1.0

    def test_identity_inside_bounds(self):
        assert clip(0.3, 0, 1) == 0.3

    def test_lower_saturation(self):
        assert clip(-2.0, 0, 1) == 0.0

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBoundsError):
            clip(0.5, 1.0, 0.0)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_result_within_bounds(self, x, a, b):
        lo, hi = min(a, b), max(a, b)
        y = clip(x, lo, hi)
        assert lo <= y <= hi
        assert clip(y, lo, hi) == y  # idempotent

    @given(*[st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))] * 3)
    def test_equals_max_of_min(self, x, lo, hi):
        # the fast path is bit for bit the builtin composition, NaN and
        # signed zeros included, whenever the bounds pass the check
        if lo > hi:
            return
        assert same_float(clip(x, lo, hi), max(lo, min(x, hi)))

    def test_equals_max_of_min_on_every_special_triple(self):
        checked = 0
        for x in SPECIAL_FLOATS:
            for lo in SPECIAL_FLOATS:
                for hi in SPECIAL_FLOATS:
                    if lo > hi:
                        with pytest.raises(InvalidBoundsError):
                            clip(x, lo, hi)
                        continue
                    assert same_float(clip(x, lo, hi), max(lo, min(x, hi))), (x, lo, hi)
                    checked += 1
        assert checked > 500


class TestSignalSample:
    def test_positional_and_keyword_constructors(self):
        a = SignalSample(3, 2.5, 0.4)
        b = SignalSample(step=3, distance=2.5, evidence=0.4)
        assert a == b
        assert (a.step, a.distance, a.evidence) == (3, 2.5, 0.4)
        assert SignalSample._fields == ("step", "distance", "evidence")

    def test_rejects_assignment(self):
        sample = SignalSample(1, 1.0, 0.1)
        for name in SignalSample._fields:
            with pytest.raises(AttributeError):
                setattr(sample, name, 0)
        with pytest.raises(AttributeError):
            sample.extra = 0
        assert sample == SignalSample(1, 1.0, 0.1)


class TestUpdate:
    def test_constant_stream(self):
        params = SignalParams()
        _, summaries = feed([0.2] * 5, params)
        assert summaries[-1].mean == pytest.approx(0.2, abs=TOL)
        assert summaries[-1].variance == pytest.approx(0.0, abs=TOL)

    def test_two_samples(self):
        params = SignalParams()
        _, summaries = feed([0.0, 1.0], params)
        assert summaries[-1].mean == pytest.approx(0.5, abs=TOL)
        assert summaries[-1].variance == pytest.approx(0.25, abs=TOL)

    def test_variance_matches_two_pass_oracle_at_every_step(self):
        params = SignalParams()
        rng = random.Random(7)
        values = [rng.random() for _ in range(100)]
        window = RollingWindow(params.window)
        for i, v in enumerate(values):
            summary = update(window, SignalSample(i + 1, 10.0, v), params)
            mean, var = two_pass_window_stats(values[: i + 1], params.window)
            assert summary.mean == pytest.approx(mean, abs=TOL)
            assert summary.variance == pytest.approx(var, abs=TOL)

    def test_reset_clears_state(self):
        params = SignalParams()
        window, _ = feed([0.1, 0.9, 0.4], params)
        window.reset()
        assert len(window) == 0
        s = update(window, SignalSample(1, 5.0, 0.3), params)
        assert s.mean == pytest.approx(0.3, abs=TOL)
        assert s.variance == pytest.approx(0.0, abs=TOL)
        assert s.velocity == 0.0

    @pytest.mark.parametrize("window,seed", [(2, 1), (3, 2), (5, 3), (5, 4), (8, 5)])
    def test_every_field_matches_oracle_across_resets_and_copies(self, window, seed):
        # three windows fed one interleaved stream: now and then one is
        # reset, or replaced by a copy of another that then goes its own way
        params = SignalParams(window=window)
        rng = random.Random(seed)
        lanes = [(RollingWindow(window), []) for _ in range(3)]
        for step in range(400):
            roll = rng.random()
            i = rng.randrange(3)
            if roll < 0.02:
                lanes[i][0].reset()
                lanes[i][1].clear()
                continue
            if roll < 0.05:
                j = rng.randrange(3)
                lanes[i] = (lanes[j][0].copy(), list(lanes[j][1]))
                continue
            win, history = lanes[i]
            evidence = rng.random() * rng.choice((0.01, 0.2, 1.0))
            distance = rng.uniform(0.0, 30.0)
            history.append((evidence, distance))
            got = update(win, SignalSample(step, distance, evidence), params)
            want = oracle_summary(history, params)
            for name in ("mean", "variance", "stability", "velocity", "info_gain"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), abs=TOL), \
                    (name, step, len(history))
            if len(history) < 2 * window:
                assert got.info_gain == 0.0

    def test_replay_determinism(self):
        params = SignalParams()
        rng = random.Random(11)
        values = [rng.random() for _ in range(40)]
        _, first = feed(values, params)
        _, second = feed(values, params)
        assert first == second


class TestWindowCopy:
    def test_copy_continued_alike_matches_original(self):
        params = SignalParams()
        rng = random.Random(21)
        window, _ = feed([rng.random() for _ in range(12)], params)
        clone = window.copy()
        assert window_state(clone) == window_state(window)
        for i in range(20):
            sample = SignalSample(i, rng.uniform(0.0, 9.0), rng.random())
            assert update(clone, sample, params) == update(window, sample, params)
            assert window_state(clone) == window_state(window)

    def test_copy_and_original_do_not_share_state(self):
        params = SignalParams()
        window, _ = feed([0.1, 0.7, 0.3, 0.9, 0.2, 0.6, 0.4], params, list(range(7, 0, -1)))
        before = window_state(window)
        clone = window.copy()
        update(clone, SignalSample(8, 0.5, 0.8), params)
        assert window_state(window) == before
        clone.reset()
        assert window_state(window) == before
        update(window, SignalSample(8, 0.5, 0.8), params)
        assert window_state(clone) == ([], [], 0.0, 0.0, 0, [])


class TestStability:
    def test_zero_variance_is_maximally_stable(self):
        assert stability(0.0, SignalParams()) == 1.0

    def test_at_normalization_constant(self):
        params = SignalParams()
        expected = 1.0 - params.sigma_norm / (params.sigma_norm + params.epsilon)
        assert stability(params.sigma_norm, params) == pytest.approx(expected, abs=TOL)

    def test_saturates_at_twice_sigma(self):
        params = SignalParams()
        assert stability(2 * params.sigma_norm, params) == 0.0

    @given(st.floats(0, 10))
    def test_bounded(self, var):
        s = stability(var, SignalParams())
        assert 0.0 <= s <= 1.0
        if var == 0.0:
            assert s == 1.0
        elif var > 1e-12:  # below this the ratio can underflow to 0
            assert s < 1.0

    @given(st.floats(0, 10), st.floats(0, 10))
    def test_non_increasing_in_variance(self, a, b):
        params = SignalParams()
        lo, hi = min(a, b), max(a, b)
        assert stability(lo, params) >= stability(hi, params)


class TestProgressVelocity:
    def test_perfect_approach(self):
        params = SignalParams(step_length=0.25)
        distances = [10.0, 9.75, 9.5, 9.25, 9.0]
        _, summaries = feed([0.1] * 5, params, distances)
        assert summaries[-1].velocity == pytest.approx(1.0, abs=TOL)

    def test_constant_distance(self):
        params = SignalParams()
        _, summaries = feed([0.1] * 5, params, [4.0] * 5)
        assert summaries[-1].velocity == pytest.approx(0.0, abs=TOL)

    def test_pure_retreat_clips(self):
        params = SignalParams(step_length=0.25)
        _, summaries = feed([0.1] * 3, params, [9.0, 9.25, 9.5])
        assert summaries[-1].velocity == pytest.approx(-1.0, abs=TOL)

    def test_fewer_than_two_samples_neutral(self):
        params = SignalParams()
        window = RollingWindow(params.window)
        assert progress_velocity(window, params) == 0.0
        window.push(0.1, 5.0)
        assert progress_velocity(window, params) == 0.0

    @given(st.lists(st.floats(0, 50), min_size=2, max_size=5))
    def test_antisymmetric_under_reversal(self, distances):
        params = SignalParams()
        fwd = RollingWindow(5)
        rev = RollingWindow(5)
        for d in distances:
            fwd.push(0.0, d)
        for d in reversed(distances):
            rev.push(0.0, d)
        # clip to [-1, 1] is odd, so antisymmetry survives the clipping
        assert progress_velocity(fwd, params) == pytest.approx(
            -progress_velocity(rev, params), abs=TOL)


class TestInfoGain:
    def test_uncertainty_resolving(self):
        prev = SignalSummary(variance=0.04)
        now = SignalSummary(variance=0.01)
        assert info_gain(prev, now) == pytest.approx(0.03, abs=TOL)

    def test_equal_variances(self):
        s = SignalSummary(variance=0.02)
        assert info_gain(s, SignalSummary(variance=0.02)) == 0.0

    def test_rising_noise(self):
        prev = SignalSummary(variance=0.0)
        now = SignalSummary(variance=0.05)
        assert info_gain(prev, now) == pytest.approx(-0.05, abs=TOL)

    def test_update_gates_gain_until_two_full_windows(self):
        params = SignalParams()
        rng = random.Random(3)
        values = [rng.random() for _ in range(3 * params.window)]
        window = RollingWindow(params.window)
        variances = []
        for i, v in enumerate(values):
            s = update(window, SignalSample(i + 1, 10.0, v), params)
            variances.append(s.variance)
            if i + 1 < 2 * params.window:
                assert s.info_gain == 0.0
            else:
                expected = variances[i - params.window] - variances[i]
                assert s.info_gain == pytest.approx(expected, abs=TOL)


class TestParamsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"window": 1},
        {"sigma_norm": 0.0},
        {"sigma_norm": -0.1},
        {"epsilon": 0.0},
        {"step_length": 0.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SignalParams(**kwargs).validate()

    def test_defaults_valid(self):
        SignalParams().validate()
