"""Span tracing by rebinding the names the program looks up at call time.

A `Tracer` wraps functions so that every call opens a span with a name, a
start, an end and a parent. Spans of one episode x variant run share an
operation id: the id of the enclosing `bench.run` span. Step-level spans
are far too many to keep, so every span is folded into a per-name
aggregate (calls, inclusive and self nanoseconds); only the names listed
in `record` are also kept as full records. Self time is a span's duration
minus the time its direct children cover.

`Rebinding` installs wrappers on module globals and class attributes and
puts the original objects back afterwards, reporting any name that is not
the original object again.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Iterable, Optional

# (owner, attribute, span name). Owners are modules of the program or a
# class inside one. These are the names `morn.bench.run`, `build_world`,
# `run_suite` and `sweep` resolve on every call.
STEP_LAYERS = (
    ("morn.bench", "world_emit", "world.emit"),
    ("morn.bench", "update", "signals.update"),
    ("morn.bench", "potentiality", "states.potentiality"),
    ("morn.bench", "persistence_gate", "states.persistence_gate"),
    ("morn.bench", "sufficiency", "states.sufficiency"),
    ("morn.bench", "decide", "executive.decide"),
    ("morn.bench", "apply", "executive.apply"),
    ("morn.world", "bfs_path", "world.bfs_path"),
    ("morn.world", "line_of_sight", "world.line_of_sight"),
    ("morn.world", "emit_evidence", "world.emit_evidence"),
    ("morn.world:Navigator", "step", "world.navigator.step"),
    ("morn.world:Navigator", "observe", "world.navigator.observe"),
    ("morn.world:Navigator", "begin_goal_context", "world.navigator.begin_goal_context"),
    ("morn.world:Navigator", "_plan_to_nearest_unvisited", "world.navigator.plan_frontier"),
)
WORLD_LAYERS = (
    ("morn.bench", "build_world", "world.build_world"),
    ("morn.bench", "generate_map", "world.generate_map"),
    ("morn.bench", "distance_field", "world.distance_field"),
)
EPISODE_LAYERS = (("morn.bench", "run", "bench.run"),)
PARENT_LAYERS = (("morn.bench", "compute_metrics", "bench.compute_metrics"),)
ALL_LAYERS = EPISODE_LAYERS + WORLD_LAYERS + STEP_LAYERS + PARENT_LAYERS

ROOT = "bench.pass"
OPERATION = "bench.run"
# Names kept as full records: episode and world level, and the pass root.
RECORDED = frozenset(
    [ROOT] + [name for _, _, name in EPISODE_LAYERS + WORLD_LAYERS + PARENT_LAYERS])


def resolve(owner: str):
    """'pkg.mod' names a module, 'pkg.mod:Class' a class inside it."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 record: Iterable[str] = RECORDED):
        self.clock = clock
        self.record = frozenset(record)
        self.stats: dict[str, list[int]] = {}  # name -> [calls, inclusive ns, self ns]
        self.tallies: dict[str, int] = {}
        # Each record: (span id, name, start ns, end ns, parent id, operation id).
        self.records: list[tuple] = []
        self._stack: list[list] = []  # open spans: [span id, operation id, child ns]
        self._next_id = 1

    def open(self, name: str) -> tuple:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        op = span_id if name == OPERATION else (parent[1] if parent else None)
        self._stack.append([span_id, op, 0])
        return (name, span_id, parent[0] if parent else None, self.clock())

    def close(self, token: tuple) -> None:
        end = self.clock()
        name, span_id, parent_id, start = token
        _, op, child_ns = self._stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if name in self.record:
            self.records.append((span_id, name, start, end, parent_id, op))

    def wrap(self, name: str, fn: Callable,
             tally: Optional[Callable[[object], bool]] = None) -> Callable:
        """`fn` traced as span `name`; `tally(result)` true counts the call
        under `tallies[name]`."""
        open_, close = self.open, self.close
        tallies = self.tallies

        def traced(*args, **kwargs):
            token = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(token)
            if tally is not None and tally(result):
                tallies[name] = tallies.get(name, 0) + 1
            return result

        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[2]

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for _, n, start, end, _, _ in self.records if n == name]


class Rebinding:
    """Rebind attributes of modules and classes; `restore` puts every
    original object back and returns the names that are not the original
    object afterwards (an empty list when all is well)."""

    def __init__(self):
        self._saved: list[tuple] = []

    def bind(self, owner: str, attr: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace `owner.attr` by `make(original)`; False when the
        program has no such name."""
        target = resolve(owner)
        original = vars(target).get(attr)
        if original is None:
            return False
        self._saved.append((owner, target, attr, original))
        setattr(target, attr, make(original))
        return True

    def restore(self) -> list[str]:
        for _, target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        wrong = [f"{owner}.{attr}" for owner, target, attr, original in self._saved
                 if vars(target).get(attr) is not original]
        self._saved.clear()
        return wrong


def install(tracer: Tracer, rebinding: Rebinding, layers) -> list[str]:
    """Trace every (owner, attribute, span name) in `layers`; returns the
    names the program does not define, which are left untraced."""
    missing = []
    for owner, attr, name in layers:
        tally = (lambda result: result == "move") if name == "world.navigator.step" else None
        if not rebinding.bind(owner, attr, lambda fn, n=name, t=tally: tracer.wrap(n, fn, t)):
            missing.append(f"{owner}.{attr}")
    return missing
