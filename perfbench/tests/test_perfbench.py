"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import types
from pathlib import Path

import pytest

import figures
import outcomes
import spans

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("n, pct, beyond", [
    (40, 75.0, 10), (100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10),
    (1000, 99.0, 10), (10000, 99.9, 10), (12, 50.0, 6),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    samples = [float(i) for i in range(n, 0, -1)]
    p, value, count = figures.tail(samples)
    assert (p, count) == (pct, beyond)
    assert sum(s > value for s in samples) == count


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock, record={"outer", "inner"})

    def leaf():
        clock.now += 7

    inner = tracer.wrap("inner", lambda: (leaf(), clock.__setattr__("now", clock.now + 3)))
    leaf_traced = tracer.wrap("leaf", leaf)

    def body():
        clock.now += 10
        inner()
        leaf_traced()
        clock.now += 5

    tracer.wrap("outer", body)()
    # outer: 10 + inner (7 + 3) + leaf 7 + 5 = 32, self 15
    assert tracer.stats["outer"] == [1, 32, 15]
    assert tracer.stats["inner"] == [1, 10, 10]
    assert tracer.stats["leaf"] == [1, 7, 7]
    assert sum(s[2] for s in tracer.stats.values()) == 32
    by_name = {r[1]: r for r in tracer.records}
    assert by_name["inner"][4] == by_name["outer"][0]  # parent id
    assert by_name["outer"][3] - by_name["outer"][2] == 32


def test_operation_id_is_shared_by_spans_of_one_run():
    tracer = spans.Tracer(record={"bench.run", "world.build_world"})
    child = tracer.wrap("world.build_world", lambda: None)
    tracer.wrap("bench.run", child)()
    tracer.wrap("bench.run", child)()
    runs = [r for r in tracer.records if r[1] == "bench.run"]
    builds = [r for r in tracer.records if r[1] == "world.build_world"]
    assert [b[5] for b in builds] == [r[0] for r in runs]
    assert [r[5] for r in runs] == [r[0] for r in runs]


def test_rebinding_restores_originals():
    import morn.bench
    import morn.world

    originals = {(o, a): vars(spans.resolve(o))[a] for o, a, _ in spans.ALL_LAYERS}
    rebinding = spans.Rebinding()
    assert spans.install(spans.Tracer(), rebinding, spans.ALL_LAYERS) == []
    assert morn.bench.decide is not originals[("morn.bench", "decide")]
    assert morn.world.Navigator.step is not originals[("morn.world:Navigator", "step")]
    assert rebinding.restore() == []
    for (owner, attr), fn in originals.items():
        assert vars(spans.resolve(owner))[attr] is fn
    assert not rebinding.bind("morn.bench", "no_such_name", lambda fn: fn)


@pytest.mark.parametrize("name, ok", [
    ("wall_s", True), ("episode_ms.p50", True), ("bench.pool.job_bytes", True),
    ("suite-par", True), ("9lives", True), ("", False), (".hidden", False),
    ("has space", False), ("slash/name", False), ("x" * 65, False),
])
def test_metric_name_validity(name, ok):
    assert figures.valid_name(name) is ok


def test_catalogue_names_are_valid_and_benchmark_json_matches():
    cat = figures.load_catalogue()
    for metric in cat["end_to_end"] + cat["per_layer"]:
        assert figures.valid_name(metric["name"])
        assert metric["kind"] in ("host", "simulated")
        assert metric["better"] in ("lower", "higher")
    for metric in cat["per_layer"]:
        assert metric["moves"]
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == figures.benchmark_json(cat)


def _pass(records):
    budget = {2: 500, 3: 650}  # BenchParams.budget_k2 and budget_k3
    return types.SimpleNamespace(records=records, errors=[],
                                 budgets={k: budget[len(r["goals"])] for k, r in records.items()})


def test_flipping_one_found_fails_the_operation():
    reference = outcomes.load_reference()["suite"]
    key = next(k for k, r in reference.items() if any(g[3] for g in r["goals"]))
    ledger = outcomes.Ledger()
    ledger.check("copy", _pass(copy.deepcopy(reference)), reference)
    assert ledger.failed_frac() == 0.0

    mutated = copy.deepcopy(reference)
    goal = next(g for g in mutated[key]["goals"] if g[3])
    goal[3] = False
    ledger = outcomes.Ledger()
    ledger.check("mutated", _pass(mutated), reference)
    assert ledger.failed_frac() > 0.0
    assert ledger.failed == {f"mutated:{key}"}


def test_invariants():
    ok = {"total_steps": 10, "commit_sequence": [1],
          "goals": [[1, "COMPLETED", 4, True, True, False], [2, "FAILED", 6, False, False, True]]}
    assert outcomes.violations(ok, 500) == []
    assert outcomes.violations(ok, 9)  # over budget
    found_uncommitted = copy.deepcopy(ok)
    found_uncommitted["goals"][0][4] = False
    assert outcomes.violations(found_uncommitted, 500)
    active = copy.deepcopy(ok)
    active["goals"][1][1] = "ACTIVE"
    assert outcomes.violations(active, 500)
    assert outcomes.violations(active, 10) == []  # ran to budget: allowed
    bad_spent = copy.deepcopy(ok)
    bad_spent["goals"][1][2] = 7
    assert outcomes.violations(bad_spent, 500)


def test_raised_operations_count_as_failed():
    ledger = outcomes.Ledger()
    p = _pass({})
    p.errors = ["0/MORN_FULL/-", "1/MORN_FULL/-"]
    ledger.check("pass", p)
    assert (ledger.attempted, len(ledger.failed)) == (2, 2)
