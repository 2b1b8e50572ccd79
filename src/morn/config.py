"""Run configuration: defaults, plain-text dotted-key loading, and
load-time validation (weight sums and the no-false-commit calibration
constraint), so the per-step loop never has to re-check anything."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .executive import Thresholds
from .signals import SignalParams
from .states import StateWeights
from .world import PerceptionParams, WorldParams


class ConfigError(ValueError):
    pass


@dataclass
class BenchParams:
    count_k2: int = 300
    count_k3: int = 200
    master_seed: int = 20240901
    budget_k2: int = 500
    budget_k3: int = 650
    infeasible_fraction: float = 0.2
    min_separation: float = 4.0  # meters, pairwise goal geodesic
    success_radius: float = 1.0  # meters, truth check at commit
    reward: float = 1.0  # per-goal reward in the utility metric
    lambda_cost: float = 0.0  # per-step cost in the utility metric

    def validate(self) -> None:
        if self.count_k2 < 0 or self.count_k3 < 0:
            raise ValueError("episode counts must be nonnegative")
        if not (0.0 <= self.infeasible_fraction <= 1.0):
            raise ValueError("infeasible_fraction must be in [0, 1]")
        if self.min_separation < 0:
            raise ValueError("min_separation must be nonnegative")
        if self.success_radius <= 0:
            raise ValueError("success_radius must be positive")
        if self.budget_k2 < 1 or self.budget_k3 < 1:
            raise ValueError("budgets must be positive")

    def budget(self, goal_count: int) -> int:
        """The step budget of an episode with `goal_count` goals."""
        return self.budget_k2 if goal_count <= 2 else self.budget_k3


@dataclass
class RunConfig:
    thresholds: Thresholds = field(default_factory=Thresholds)
    weights: StateWeights = field(default_factory=StateWeights)
    signal: SignalParams = field(default_factory=SignalParams)
    perception: PerceptionParams = field(default_factory=PerceptionParams)
    world: WorldParams = field(default_factory=WorldParams)
    bench: BenchParams = field(default_factory=BenchParams)

    def validate(self) -> None:
        """Every rule but the calibration floor, which `load_config` adds."""
        self.thresholds.validate()
        self.weights.validate()
        self.signal.validate()
        self.perception.validate()
        self.world.validate()
        self.bench.validate()
        # progress velocity is normalised by the meters one step covers
        if self.signal.step_length != self.world.cell_size:
            raise ConfigError(
                f"signal.step_length ({self.signal.step_length}) must equal "
                f"world.cell_size ({self.world.cell_size}): the navigator moves "
                "one cell per step"
            )

    def commit_floor(self) -> float:
        """The calibration constraint: the sufficiency of a flat, fully
        stable baseline evidence stream on an absent goal at the
        commit-distance boundary. The commit threshold must exceed it,
        otherwise commits become pure proximity triggers."""
        w = self.weights
        return (
            w.acc_e * self.perception.base_noise_mean
            + w.acc_stab * 1.0
            + w.acc_prox * math.exp(-self.thresholds.commit_distance / w.prox_scale)
        )


_SECTIONS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _coerce(raw: str, template: float | int) -> float | int:
    """`raw` as the type of `template`; every config field is a float or
    an int. An int field also takes an integral float literal ('20.0' is
    20), as a sweep of `t_grace` gives; a non-integral, infinite or NaN one
    is not a whole number."""
    raw = raw.strip()
    if isinstance(template, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("not a finite number")
        return value
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = float(raw)
    except ValueError:
        value = math.nan  # not a number at all
    if not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def apply_overrides(config: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply dotted-key string overrides (e.g. 'thresholds.abort': '0.25')
    onto a config. Unknown keys raise ConfigError."""
    for key, raw in overrides.items():
        parts = key.split(".")
        if len(parts) != 2 or parts[0] not in _SECTIONS:
            raise ConfigError(f"unknown configuration key: {key!r}")
        section = getattr(config, parts[0])
        names = {f.name for f in dataclasses.fields(section)}
        if parts[1] not in names:
            raise ConfigError(f"unknown configuration key: {key!r}")
        current = getattr(section, parts[1])
        try:
            value = _coerce(raw, current)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        setattr(config, parts[0], dataclasses.replace(section, **{parts[1]: value}))
    return config


def load_config(path: str | Path | None = None,
                overrides: dict[str, str] | None = None) -> RunConfig:
    """Build a config from defaults, an optional key=value file of dotted
    keys and `overrides`; then validate it, the `commit_floor` included."""
    config = RunConfig()
    file_overrides: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read config file {str(path)!r}: {reason}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key in key_lines:
                raise ConfigError(f"{path}:{lineno}: key {key!r} is set again "
                                  f"(first set on line {key_lines[key]})")
            key_lines[key] = lineno
            file_overrides[key] = raw.strip()
    apply_overrides(config, file_overrides)
    apply_overrides(config, overrides or {})
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    floor = config.commit_floor()
    if config.thresholds.commit <= floor:
        raise ConfigError(f"commit threshold {config.thresholds.commit} does not exceed the "
                          f"stable-baseline sufficiency floor {floor:.4f}; commits would "
                          "fire on proximity alone")
    return config
