"""Self-tests for the benchmark's own arithmetic and tracing.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import stats  # noqa: E402
from spans import Tracer  # noqa: E402


# -- percentile picker -------------------------------------------------------

@pytest.mark.parametrize("n, percentile, value", [
    (100, 90.0, 90), (1_000, 99.0, 990), (10_000, 99.9, 9_990),
    (20, 50.0, 10)])
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, value):
    tail = stats.tail(range(1, n + 1))
    assert tail["percentile"] == percentile
    assert tail["value"] == value
    assert tail["samples"] == n
    assert tail["beyond"] >= 10
    higher = [p for p in stats.TAIL_PERCENTILES if p > percentile]
    for p in higher:
        rank, _ = stats.nearest_rank(list(range(1, n + 1)), p)
        assert n - rank < 10


def test_tail_of_thin_sample_reports_how_thin():
    tail = stats.tail([5.0] * 15)
    assert tail["percentile"] == 50.0
    assert tail["beyond"] == 7


def test_nearest_rank_is_order_insensitive():
    assert stats.percentile([3, 1, 2, 4], 50.0) == 2
    assert stats.percentile([3, 1, 2, 4], 100.0) == 4
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


# -- self time ---------------------------------------------------------------

class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_subtracts_covered_children():
    # outer [0, 10] holds inner [2, 5], which holds leaf [3, 4], and a
    # second child [6, 7].
    tracer = Tracer(clock=FakeClock(0, 2, 3, 4, 5, 6, 7, 10))
    with tracer.span("outer", "a"):
        with tracer.span("inner", "b"):
            with tracer.span("leaf", "c"):
                pass
        with tracer.span("other", "b"):
            pass
    assert tracer.self_s("outer") == 10 - 3 - 1
    assert tracer.self_s("inner") == 3 - 1
    assert tracer.self_s("leaf") == 1
    assert tracer.total_s("inner") == 3
    assert tracer.layer_self_s("b") == 2 + 1
    assert tracer.covered_s == 10
    parents = {name: parent for _id, name, _s, _e, parent in tracer.spans}
    ids = {name: sid for sid, name, _s, _e, _p in tracer.spans}
    assert parents["leaf"] == ids["inner"]
    assert parents["other"] == ids["outer"]
    assert parents["outer"] == -1


def test_unattributed_is_wall_minus_layer_self_time():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 4))
    with tracer.span("x", "sim"):
        with tracer.span("y", "actors"):
            pass
    out = layers.layer_metrics(tracer, wall_s=10.0)
    assert out["sim.self_s"] == 3 and out["actors.self_s"] == 1
    assert out["unattributed.self_s"] == 6
    shares = sum(out[f"{layer}.self_share"] for layer in layers.LAYERS)
    assert shares == pytest.approx(1.0)


def test_generator_wrapper_times_each_resume_and_is_transparent():
    tracer = Tracer(clock=FakeClock(0, 1, 5, 7, 20, 21))

    def body(x):
        got = yield x
        try:
            yield got * 2
        except KeyError:
            return "caught"

    wrapped = tracer.wrap(body, "g", "apps")
    gen = wrapped(3)
    assert next(gen) == 3                      # resume [0, 1]
    assert gen.send(4) == 8                    # resume [5, 7]
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("k"))               # resume [20, 21]
    assert stop.value.value == "caught"
    assert tracer.calls("g") == 1
    assert tracer.self_s("g") == 1 + 2 + 1
    assert tracer.span_count == 3


def test_patch_function_wraps_every_lookup_site_and_uninstalls():
    import types
    home = types.ModuleType("perfbench_test_home")
    caller = types.ModuleType("perfbench_test_caller")

    def f(x):
        return x + 1
    home.f = caller.f = f
    sys.modules[home.__name__] = home
    sys.modules[caller.__name__] = caller
    try:
        tracer = Tracer()
        tracer.patch_function(home, "f", "f", "apps")
        assert caller.f is not f and caller.f(1) == 2
        assert sorted(tracer.sites["f"]) == [
            "perfbench_test_caller.f", "perfbench_test_home.f"]
        tracer.uninstall()
        assert home.f is f and caller.f is f
    finally:
        del sys.modules[home.__name__], sys.modules[caller.__name__]


# -- goodput and capacity ----------------------------------------------------

def test_goodput_counts_only_answers_within_the_limit():
    assert stats.goodput([1.0, 2.0, 600.0], 500.0, 2.0) == 1.0
    assert stats.goodput([1.0, 2.0, 3.0], 500.0, 1.0, bad=1) == 2.0
    assert stats.goodput([900.0], 500.0, 1.0, bad=1) == 0.0


def test_rung_fails_on_tail_loss_or_growing_backlog():
    fast = [1.0] * 200
    assert stats.rung_passes(fast, 100.0, 1.0, 1.05)
    assert not stats.rung_passes(fast[:-3] + [150.0] * 3, 100.0, 1.0, 1.0)
    assert not stats.rung_passes(fast, 100.0, 1.0, 1.0, lost=1)
    assert not stats.rung_passes(fast, 100.0, 1.0, 1.3)
    assert not stats.rung_passes([], 100.0, 1.0, 1.0)


def test_capacity_is_last_pass_before_first_failure():
    assert stats.capacity([(300, True), (400, True), (450, False),
                           (500, True)]) == 400
    assert stats.capacity([(300, False)]) == 0.0
    assert stats.capacity([(300, True), (400, True)]) == 400


# -- digests ------------------------------------------------------------------

def test_digest_is_stable_and_sensitive():
    a = {"latencies": [1.5, 2.25], "placement": [[1, 0], [2, 1]]}
    b = {"placement": [[1, 0], [2, 1]], "latencies": [1.5, 2.25]}
    assert stats.digest(a) == stats.digest(b)
    assert stats.digest(a) != stats.digest(
        {"latencies": [1.5, 2.2500000000000004],
         "placement": [[1, 0], [2, 1]]})


def test_same_seed_same_simulated_outputs():
    import simwork
    params = dict(simwork.ESTORE_SKEW, clients=4, duration_ms=3_000.0,
                  period_ms=1_000.0)

    def digest_for(seed: int) -> str:
        inputs = simwork.estore_inputs(params, seed)
        scenario = simwork.EStoreScenario(params, inputs, seed,
                                          hierarchical=False)
        scenario.start()
        scenario.run()
        return stats.digest(scenario.outputs())

    assert digest_for(3) == digest_for(3)
    assert digest_for(3) != digest_for(4)


# -- unanswered calls -----------------------------------------------------------

def test_a_target_that_never_replies_ends_the_run_and_fails_it():
    import run
    import simwork
    from repro.actors import Actor
    from repro.sim import Signal
    params = dict(simwork.ESTORE_SKEW, clients=2, duration_ms=1_000.0,
                  period_ms=500.0)
    scenario = simwork.EStoreScenario(
        params, simwork.estore_inputs(params, 1), 1, hierarchical=False)
    sim = scenario.bed.sim

    class Silent(Actor):
        def read(self, key):
            yield Signal(sim)  # never triggered: no reply is ever sent

    silent = scenario.bed.system.create_actor(Silent)
    scenario.roots = [silent] * len(scenario.roots)
    scenario.start()
    scenario.run()
    assert sim.now <= params["duration_ms"] + simwork.DRAIN_LIMIT_MS
    assert scenario.attempted() == scenario.unanswered() == 2
    assert scenario.failed_units() == 2
    errors = run.sim_errors(scenario, simwork.SIM_WORKLOADS["estore-skew"])
    assert "2 of 2 calls never answered" in errors


def test_pagerank_counts_every_driver_call_and_empty_reply():
    import simwork
    params = dict(simwork.PAGERANK_SCALEOUT, nodes=200, partitions=4,
                  iterations=3)
    scenario = simwork.PageRankScenario(params, None, 1)
    scenario.start()
    scenario.run()
    # load_data, then three calls per superstep, to each worker
    assert scenario.attempted() == 4 * (1 + 3 * 3)
    assert scenario.unanswered() == scenario.failed_units() == 0
    assert scenario.rank_error() <= simwork.RANK_TOLERANCE
    lost, empty = scenario.replies[5], scenario.replies[6]
    lost.reset()
    empty.reset()
    empty.trigger(None)
    assert scenario.unanswered() == 1
    assert scenario.failed_units() == 2


# -- the benchmark's contract -------------------------------------------

def test_benchmark_json_matches_the_metrics_runs_print():
    import json
    import re
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        layers.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(m["better"] in ("higher", "lower")
               for m in doc["end_to_end"] + doc["per_layer"])
