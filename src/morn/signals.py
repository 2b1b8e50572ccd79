"""Online statistics over the evidence stream and distance telemetry.

Everything here is windowed: the caller owns a RollingWindow per goal
context, pushes one (distance, evidence) sample per step, and reads back
a SignalSummary with the window mean, windowed variance, stability,
progress velocity and information gain. `signals_at` reads those
statistics back for any earlier step of the goal context.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple


def clip(x: float, lo: float, hi: float) -> float:
    """Saturate x into [lo, hi]; exactly max(lo, min(x, hi)), NaN and
    signed zeros included, without the two builtin calls."""
    if lo > hi:
        raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
    m = hi if hi < x else x
    return m if m > lo else lo


class SignalSample(NamedTuple):
    """One step of telemetry: geodesic distance to the active goal and the
    raw evidence score in [0, 1]. An immutable named tuple."""

    step: int
    distance: float
    evidence: float


@dataclass
class SignalParams:
    window: int = 5
    sigma_norm: float = 0.001
    epsilon: float = 1e-6
    step_length: float = 0.5  # meters per primitive step

    def validate(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.sigma_norm <= 0:
            raise ValueError("sigma_norm must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.step_length <= 0:
            raise ValueError("step_length must be positive")


@dataclass(slots=True)
class SignalSummary:
    mean: float = 0.0
    variance: float = 0.0
    stability: float = 1.0
    velocity: float = 0.0
    info_gain: float = 0.0


class RollingWindow:
    """The evidence values and distances of one goal context, with running
    sums over the most recent `capacity` of them for O(1) mean and
    variance updates.

    Keeps every step's evidence, distance and windowed variance since the
    last reset, so `signals_at` can read any past step's statistics
    without replaying the stream: the information gain (variance
    reduction across one full window) reads the variance `capacity` steps
    back. A goal context is at most one subgoal allocation long, so the
    series stay short. `len` is the number of values the window covers,
    at most `capacity`. Slotted, like `world.Navigator`, so that a copy
    leaves both windows on CPython's fast attribute path.
    """

    __slots__ = ("capacity", "samples", "distances", "variances", "_sum", "_sumsq")

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("window capacity must be >= 2")
        self.capacity = capacity
        self.samples: list[float] = []
        self.distances: list[float] = []
        self.variances: list[float] = []
        self._sum = 0.0
        self._sumsq = 0.0

    def __len__(self) -> int:
        n = len(self.samples)
        return n if n < self.capacity else self.capacity

    def reset(self) -> None:
        self.samples.clear()
        self.distances.clear()
        self.variances.clear()
        self._sum = 0.0
        self._sumsq = 0.0

    def copy(self) -> RollingWindow:
        """An independent window with the same contents and sums."""
        new = copy.copy(self)
        new.samples = self.samples[:]
        new.distances = self.distances[:]
        new.variances = self.variances[:]
        return new

    def push(self, evidence: float, distance: float) -> None:
        samples = self.samples
        total, sumsq = self._sum, self._sumsq
        n = len(samples)
        capacity = self.capacity
        if n < capacity:
            n += 1
        else:
            old = samples[n - capacity]
            total -= old
            sumsq -= old * old
            n = capacity
        samples.append(evidence)
        self.distances.append(distance)
        total += evidence
        sumsq += evidence * evidence
        self._sum, self._sumsq = total, sumsq
        m = total / n
        v = sumsq / n - 2.0 * m * m + m * m
        self.variances.append(v if v > 0.0 else 0.0)


def stability(variance: float, params: SignalParams) -> float:
    """Map windowed variance to a stability score in [0, 1] by inverting
    the normalized variance; saturates to 0 once variance reaches the
    normalization constant."""
    return 1.0 - clip(variance / (params.sigma_norm + params.epsilon), 0.0, 1.0)


def info_gain(summary_prev_window: SignalSummary, summary_now: SignalSummary) -> float:
    """Variance reduction between two full windows one window apart.
    Positive means uncertainty is resolving."""
    return summary_prev_window.variance - summary_now.variance


def signals_at(window: RollingWindow, k: int,
               params: SignalParams) -> tuple[float, float, float, float]:
    """The velocity, stability, information gain and evidence of the k-th
    step since the window's last reset (1 <= k <= the steps pushed), as
    `update` returned them on that step: the one owner of these formulas.

    Stability is `stability()` written out with `clip`'s two comparisons
    to save two calls a step; the tests hold it bit for bit equal. The
    information gain is the variance `capacity` steps back minus the
    variance now, once both windows are full, and 0 before that.
    Velocity is the distance drop across the window over the largest drop
    its steps can make, clipped to [-1, 1]: positive means approaching
    the goal, and fewer than two samples give a neutral 0."""
    capacity = window.capacity
    variances = window.variances
    var = variances[k - 1]
    gain = variances[k - 1 - capacity] - var if k >= 2 * capacity else 0.0
    x = var / (params.sigma_norm + params.epsilon)
    stab = 1.0 - (1.0 if 1.0 < x else x if x > 0.0 else 0.0)
    n = k if k < capacity else capacity
    velocity = 0.0
    if n > 1:
        distances = window.distances
        raw = (distances[k - n] - distances[k - 1]) / ((n - 1) * params.step_length)
        velocity = 1.0 if 1.0 < raw else raw if raw > -1.0 else -1.0
    return velocity, stab, gain, window.samples[k - 1]


def update(window: RollingWindow, sample: SignalSample, params: SignalParams) -> SignalSummary:
    """Advance the window by one sample and read back all derived
    statistics: the window mean and variance, and `signals_at` this step.
    Partial windows are allowed: statistics cover whatever samples
    exist."""
    window.push(sample.evidence, sample.distance)
    velocity, stab, gain, _ = signals_at(window, len(window.samples), params)
    return SignalSummary(window._sum / len(window), window.variances[-1], stab, velocity, gain)
