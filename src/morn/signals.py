"""Online statistics over the evidence stream and distance telemetry.

Everything here is windowed: the caller owns a RollingWindow per goal
context, pushes one (distance, evidence) sample per step, and reads back
a SignalSummary with the window mean, windowed variance, stability,
progress velocity and information gain.
"""

from __future__ import annotations

import copy
from collections import deque
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
    """Fixed-capacity window over the most recent evidence values and
    distances, with running sums for O(1) mean and variance updates.

    Also remembers the variance from `capacity` steps ago so that the
    information gain (variance reduction across one full window) can be
    read without replaying the stream. The window has no read methods:
    `update` reads this running state once per step. Slotted, like
    `world.Navigator`, so that a copy leaves both windows on CPython's fast
    attribute path.
    """

    __slots__ = ("capacity", "samples", "distances", "_sum", "_sumsq", "_count_total",
                 "_var_history")

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("window capacity must be >= 2")
        self.capacity = capacity
        self.samples: deque[float] = deque(maxlen=capacity)
        self.distances: deque[float] = deque(maxlen=capacity)
        self._sum = 0.0
        self._sumsq = 0.0
        self._count_total = 0  # samples seen since last reset
        self._var_history: deque[float] = deque(maxlen=capacity + 1)

    def __len__(self) -> int:
        return len(self.samples)

    def reset(self) -> None:
        self.samples.clear()
        self.distances.clear()
        self._sum = 0.0
        self._sumsq = 0.0
        self._count_total = 0
        self._var_history.clear()

    def copy(self) -> RollingWindow:
        """An independent window with the same contents and sums."""
        new = copy.copy(self)
        new.samples = copy.copy(self.samples)
        new.distances = copy.copy(self.distances)
        new._var_history = copy.copy(self._var_history)
        return new

    def push(self, evidence: float, distance: float) -> None:
        samples = self.samples
        total, sumsq = self._sum, self._sumsq
        if len(samples) == self.capacity:
            old = samples[0]
            total -= old
            sumsq -= old * old
        samples.append(evidence)
        self.distances.append(distance)
        total += evidence
        sumsq += evidence * evidence
        self._sum, self._sumsq = total, sumsq
        self._count_total += 1
        n = len(samples)
        m = total / n
        v = sumsq / n - 2.0 * m * m + m * m
        self._var_history.append(v if v > 0.0 else 0.0)


def stability(variance: float, params: SignalParams) -> float:
    """Map windowed variance to a stability score in [0, 1] by inverting
    the normalized variance; saturates to 0 once variance reaches the
    normalization constant."""
    return 1.0 - clip(variance / (params.sigma_norm + params.epsilon), 0.0, 1.0)


def info_gain(summary_prev_window: SignalSummary, summary_now: SignalSummary) -> float:
    """Variance reduction between two full windows one window apart.
    Positive means uncertainty is resolving."""
    return summary_prev_window.variance - summary_now.variance


def update(window: RollingWindow, sample: SignalSample, params: SignalParams) -> SignalSummary:
    """Advance the window by one sample and recompute all derived
    statistics. Partial windows are allowed: statistics cover whatever
    samples exist. Stability is `stability()` written out with `clip`'s
    two comparisons to save two calls a step; the tests hold it bit for
    bit equal. Velocity is the distance drop across the window over the
    largest drop its steps can make, clipped to [-1, 1]: positive means
    approaching the goal, and fewer than two samples give a neutral 0."""
    window.push(sample.evidence, sample.distance)
    history = window._var_history
    var = history[-1]
    # information gain: the variance `capacity` steps ago minus now, once
    # both windows are full; 0 before that
    gain = history[0] - var if window._count_total >= 2 * window.capacity else 0.0
    x = var / (params.sigma_norm + params.epsilon)
    stab = 1.0 - (1.0 if 1.0 < x else x if x > 0.0 else 0.0)
    distances = window.distances
    n = len(distances)
    velocity = 0.0
    if n > 1:
        raw = (distances[0] - distances[-1]) / ((n - 1) * params.step_length)
        velocity = 1.0 if 1.0 < raw else raw if raw > -1.0 else -1.0
    return SignalSummary(window._sum / n, var, stab, velocity, gain)
