"""Summary statistics and the metric catalogue.

`metrics.json` in this directory is the catalogue: every workload with the
reason it exists, every metric with its unit, direction, bound, whether it
is host time or simulated, and for per-layer metrics the end-to-end metric
and workload it should move. `BENCHMARK.json` is derived from it.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

CATALOGUE = Path(__file__).resolve().parent / "metrics.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME.fullmatch(name) is not None


def nearest_rank(ordered: list[float], p: float) -> tuple[float, int]:
    """The p-th percentile of sorted samples by nearest rank, and how many
    samples lie beyond it."""
    rank = max(1, math.ceil(round(p * len(ordered) / 100.0, 9)))  # 99.9% of 10000 is 9990
    return ordered[rank - 1], len(ordered) - rank


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile of
    `LADDER` with at least `MIN_BEYOND` samples beyond it; the median when
    there are too few samples for any of them."""
    ordered = sorted(samples)
    for p in LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= MIN_BEYOND:
            return p, value, beyond
    value, beyond = nearest_rank(ordered, 50.0)
    return 50.0, value, beyond


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def load_catalogue(path: Path = CATALOGUE) -> dict:
    cat = json.loads(path.read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in cat[key]]
    names += [w["name"] for w in cat["workloads"]]
    bad = [n for n in names if not valid_name(n)]
    if bad or len(set(names)) != len(names):
        raise ValueError(f"invalid or repeated names in {path.name}: {bad or names}")
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in cat[key]]
    bad_units = [u for u in units if UNIT.fullmatch(u) is None]
    if bad_units:
        raise ValueError(f"invalid units in {path.name}: {bad_units}")
    return cat


def benchmark_json(cat: dict) -> dict:
    """`BENCHMARK.json` at the repository root: the catalogue without its notes."""
    return {
        "command": cat["command"],
        "paths": cat["paths"],
        "run_seconds": cat["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]} for w in cat["workloads"]],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in cat["end_to_end"]],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in cat["per_layer"]],
    }
