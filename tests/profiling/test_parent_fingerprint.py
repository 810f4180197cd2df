"""Pinned fingerprints: the dispatch path against recorded behaviour.

The golden-refresh tests compare kernel configurations of the *same*
code, so a change that reorders events the same way under every
configuration passes them.  This test compares the current code with
fingerprints recorded from an earlier revision instead: the Fig. 9
E-Store and Fig. 7 PageRank equivalence scenarios, plus a burst of
clients that all start in the same instant (the case where zero-delay
hop order decides who is served first).

A fingerprint holds the scenario's elasticity trace, placements and
migration log (for the burst: every completion), the number of
``schedule()`` calls, and a hash over every delivery and CPU charge in
the order they happened (time, actor, function or busy time).  A
dispatch change that adds, drops or reorders a single event changes it.

Regenerate (only for an intended behaviour change, and say so in the
change log) with::

    PYTHONPATH=src python tests/profiling/test_parent_fingerprint.py --write
"""

import hashlib
import json
import os
import sys
from contextlib import contextmanager

import repro.actors.system as system_module
from repro.actors import Client, RuntimeHooks
from repro.apps.estore import build_estore
from repro.bench import build_cluster
from repro.sim import CalendarSimulator, HeapSimulator, spawn

from test_incremental_equivalence import (_reset_id_counters,
                                          run_estore_scenario,
                                          run_pagerank_scenario)

FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fingerprints", "dispatch.json")


class _EventLog(RuntimeHooks):
    """Hashes every delivery and CPU charge in order."""

    def __init__(self, sim):
        self.sim = sim
        self.digest = hashlib.sha256()
        self.events = 0

    def _note(self, *fields):
        self.events += 1
        self.digest.update(repr((self.sim.now,) + fields).encode())

    def on_message_delivered(self, record, message):
        self._note("deliver", record.ref.actor_id, message.function,
                   message.message_id)

    def on_compute(self, record, busy_ms):
        self._note("compute", record.ref.actor_id, busy_ms)


@contextmanager
def _recording():
    """Count schedule() calls on both kernels and log every system's
    deliveries and charges."""
    counts = [0]
    logs = []
    saved = []
    for kernel in (CalendarSimulator, HeapSimulator):
        for attr in ("schedule", "schedule_at"):
            original = kernel.__dict__[attr]

            def counted(self, *args, _original=original):
                counts[0] += 1
                return _original(self, *args)
            saved.append((kernel, attr, original))
            setattr(kernel, attr, counted)
    orig_init = system_module.ActorSystem.__init__

    def logged_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        log = _EventLog(self.sim)
        logs.append(log)
        self.add_hooks(log)

    system_module.ActorSystem.__init__ = logged_init
    try:
        yield counts, logs
    finally:
        system_module.ActorSystem.__init__ = orig_init
        for kernel, attr, original in saved:
            setattr(kernel, attr, original)


def _burst_scenario():
    """64 clients fire at one E-Store root in the same instant, three
    rounds each with no think time; returns every completion."""
    _reset_id_counters()
    bed = build_cluster(2, "m1.small", seed=5)
    setup = build_estore(bed, num_roots=4, children_per_root=2,
                         num_home_servers=2)
    finished = []

    def client_loop(index, client):
        for round_ in range(3):
            result, latency = yield from client.timed_call(
                setup.roots[round_ % 2], "read", index)
            finished.append((index, round_, bed.sim.now, latency,
                             repr(result)))

    for index in range(64):
        client = Client(bed.system, name=f"b{index}")
        spawn(bed.sim, client_loop(index, client))
    bed.run(until_ms=5_000.0)
    return {"finished": finished, "sim_now": bed.sim.now}


def _fingerprint(run):
    with _recording() as (counts, logs):
        observed = run()
    return {
        "observed": json.loads(json.dumps(observed)),
        "schedules": counts[0],
        "events": sum(log.events for log in logs),
        "event_digest": [log.digest.hexdigest() for log in logs],
    }


SCENARIOS = {
    "estore_fig9": lambda: run_estore_scenario(incremental=True),
    "pagerank_fig7": lambda: run_pagerank_scenario(incremental=True),
    "burst_same_instant": _burst_scenario,
}


def _load():
    with open(FINGERPRINTS) as handle:
        return json.load(handle)


def _check(name):
    pinned = _load()[name]
    current = _fingerprint(SCENARIOS[name])
    for key in ("schedules", "events", "event_digest", "observed"):
        assert current[key] == pinned[key], f"{name}: {key} differs"


def test_estore_matches_pinned_fingerprint():
    _check("estore_fig9")


def test_pagerank_matches_pinned_fingerprint():
    _check("pagerank_fig7")


def test_same_instant_burst_matches_pinned_fingerprint():
    _check("burst_same_instant")


def test_fingerprints_are_not_vacuous():
    pinned = _load()
    assert pinned["estore_fig9"]["observed"][2]  # migrations happened
    burst = pinned["burst_same_instant"]["observed"]["finished"]
    assert len(burst) == 64 * 3


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("pass --write to regenerate " + FINGERPRINTS)
    os.makedirs(os.path.dirname(FINGERPRINTS), exist_ok=True)
    data = {name: _fingerprint(run) for name, run in SCENARIOS.items()}
    with open(FINGERPRINTS, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FINGERPRINTS}")
