"""The three executive meta-states.

Potentiality blends progress velocity, evidence strength and stability
through a sigmoid; the persistence gate trades information gain against
sunk-cost inertia; sufficiency is a plain linear blend of evidence,
stability and a proximity kernel (no sigmoid), so its commit threshold
lives on the raw [0, 1] scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class StateWeights:
    # potentiality: velocity / evidence / stability
    pot_v: float = 0.4
    pot_s: float = 0.3
    pot_stab: float = 0.3
    # persistence gate: info gain / inertia / velocity
    gate_gain: float = 0.5
    gate_inertia: float = 0.3
    gate_v: float = 0.2
    # sufficiency: evidence / stability / proximity
    acc_e: float = 0.3
    acc_stab: float = 0.4
    acc_prox: float = 0.3
    prox_scale: float = 5.0  # meters

    def validate(self) -> None:
        if self.prox_scale <= 0:
            raise ValueError("prox_scale must be positive")
        for name in ("acc_e", "acc_stab", "acc_prox"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}; "
                                 "otherwise sufficiency leaves the unit interval")
        total = self.acc_e + self.acc_stab + self.acc_prox
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"accumulation weights must sum to 1 (got {total}); "
                "otherwise sufficiency leaves the unit interval"
            )


@dataclass(slots=True)
class SunkCost:
    """Steps already charged to the active goal versus its allocation."""

    spent: int
    allocation: int


@dataclass(slots=True)
class MetaStateVector:
    potentiality: float
    persistence: float
    sufficiency: float


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def potentiality(velocity: float, evidence: float, stability: float, w: StateWeights) -> float:
    """Sigmoid-squashed affordance estimate: is continued search on the
    active goal productive? `sigmoid` is written out to save a call a
    step."""
    z = w.pot_v * velocity + w.pot_s * evidence + w.pot_stab * stability
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def persistence_gate(info_gain: float, sunk: SunkCost, velocity: float, w: StateWeights) -> float:
    """Gate against sunk-cost persistence: decays with the inertia, the
    fraction `spent / allocation` of the subgoal allocation already
    consumed, and recovers with information gain and forward progress.
    `sigmoid` is written out to save a call a step."""
    if sunk.allocation <= 0:
        raise ValueError("subgoal allocation must be positive")
    z = (w.gate_gain * info_gain - w.gate_inertia * (sunk.spent / sunk.allocation)
         + w.gate_v * velocity)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def proximity(distance: float, w: StateWeights) -> float:
    """Exponentially decaying proximity kernel, 1 at the goal."""
    if distance < 0:
        raise ValueError(f"distance must be nonnegative, got {distance}")
    return math.exp(-distance / w.prox_scale)


def sufficiency(evidence: float, stability: float, distance: float, w: StateWeights) -> float:
    """Linear evidence/stability/proximity blend gating success
    declaration; in [0, 1] when the accumulation weights sum to 1."""
    return w.acc_e * evidence + w.acc_stab * stability + w.acc_prox * proximity(distance, w)
