"""The three simulated workloads, composed from the program's public API.

Each workload is split into inputs (made by the benchmark from the seed,
outside every timed region), set-up (what ``setup_s`` times: cluster,
graph, deployment, compiled policy, elasticity manager) and the run (what
``msgs_per_s`` times).  A run's simulated outputs — per-unit latencies,
the migration list, the final placement and, for PageRank, the ranks —
are returned in a form whose digest must repeat exactly for one seed.

Simulated actor and server ids come from process-wide counters, so the
outputs are rewritten relative to the first id of the run before hashing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro import bench, core, graphs
from repro.actors import Client, RuntimeHooks
from repro.apps import estore as estore_app
from repro.apps import pagerank as pagerank_app
from repro.check import InvariantChecker
from repro.sim import Timeout, spawn
from repro.workload import cascade_split

#: Fig. 9 E-Store in PLASMA mode: 40 root partitions with 4 children each
#: on 4 m1.small servers plus one standby, 48 closed-loop clients, 35%
#: cascade skew.
ESTORE_SKEW = dict(servers=5, home_servers=4, roots=40, children=4,
                   skew=0.35, clients=48, think_ms=10.0,
                   duration_ms=24_000.0, period_ms=6_000.0,
                   gem_wait_ms=1_000.0, limit_ms=100.0)

#: A large, lightly loaded E-Store fleet under the hierarchical control
#: plane: 1,280 roots (6,400 partitions) over 64 servers in groups of 8,
#: skewed enough that the rules fire.
FLEET_CONTROL = dict(servers=64, home_servers=None, roots=1_280, children=4,
                     skew=0.4, clients=40, think_ms=10.0,
                     duration_ms=20_000.0, period_ms=5_000.0,
                     gem_wait_ms=500.0, limit_ms=100.0, group_size=8)

#: Fig. 8 dynamic PageRank: 32 workers start on one server and the
#: policy scales out toward 16.
PAGERANK_SCALEOUT = dict(nodes=3_000, edges_per_node=3, superhubs=6,
                         hub_fraction=0.06, partitions=32, iterations=60,
                         period_ms=8_000.0, gem_wait_ms=2_000.0,
                         boot_delay_ms=20_000.0, max_servers=16,
                         limit_ms=5_000.0)

#: Simulated time step while waiting for the last client answers ...
DRAIN_STEP_MS = 10.0
#: ... and how long past the end of the load to wait at most: a lost
#: reply must show as an unanswered call, not as a run that never ends.
DRAIN_LIMIT_MS = 10_000.0

#: Largest tolerated difference between distributed and reference ranks.
RANK_TOLERANCE = 1e-9


class Observer(RuntimeHooks):
    """Counts what the actor runtime publishes; never alters it."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.delivered = 0
        self.remote = 0
        self.busy_ms = 0.0
        self.bytes_sent = 0.0
        self.migrations = 0
        self.migration_sim_ms = 0.0
        self.started_at: Dict[str, float] = {}

    def on_message_delivered(self, record, message) -> None:
        self.delivered += 1
        if message.remote:
            self.remote += 1

    def on_compute(self, record, busy_ms: float) -> None:
        self.busy_ms += busy_ms

    def on_bytes_sent(self, record, nbytes: float) -> None:
        self.bytes_sent += nbytes

    def on_actor_migrated(self, record, old_server, new_server) -> None:
        self.migrations += 1
        started = self.started_at.pop(str(record.ref), None)
        if started is not None:
            self.migration_sim_ms += self.sim.now - started

    def on_emr_event(self, kind: str, detail: Dict[str, Any]) -> None:
        if kind == "migration-started":
            self.started_at[detail["actor"]] = self.sim.now


class DeliveryCounter(RuntimeHooks):
    """The one observer a timed run carries."""

    def __init__(self, _sim) -> None:
        self.delivered = 0

    def on_message_delivered(self, record, message) -> None:
        self.delivered += 1


class Scenario:
    """One set-up workload, ready to start and run once."""

    def __init__(self, bed, manager, limit_ms: float, refs: List[Any],
                 clients: List[Client]) -> None:
        self.bed = bed
        self.manager = manager
        self.limit_ms = limit_ms
        self.refs = refs
        self.clients = clients
        self.checker: Optional[InvariantChecker] = None
        self.bad_results = 0
        self.scale_outs = 0
        #: every server the run used, in boot order (for run-relative ids)
        self.servers_seen: List[Any] = list(bed.provisioner.servers)
        bed.provisioner.add_join_listener(self._joined)

    def _joined(self, server) -> None:
        self.servers_seen.append(server)
        self.scale_outs += 1

    def attach(self, hooks: RuntimeHooks) -> None:
        self.bed.system.add_hooks(hooks)
        if isinstance(hooks, Observer):
            self.manager.add_listener(hooks.on_emr_event)

    def attach_checker(self) -> None:
        self.checker = InvariantChecker(self.manager)
        self.checker.attach()

    def start(self) -> None:
        self.manager.start()

    def run(self) -> None:
        raise NotImplementedError

    def unit_latencies(self) -> List[float]:
        raise NotImplementedError

    def window_s(self) -> float:
        """Simulated seconds over which the units of work were done."""
        raise NotImplementedError

    def server_s(self) -> float:
        """Simulated server-seconds provisioned for that work."""
        raise NotImplementedError

    def extra_outputs(self) -> Dict[str, Any]:
        return {}

    def outputs(self) -> Dict[str, Any]:
        """Simulated outputs in run-relative ids, for the digest."""
        base_actor = min(ref.actor_id for ref in self.refs) - 1
        server_index = {server.name: index
                        for index, server in enumerate(self.servers_seen)}
        placement = [
            [ref.actor_id - base_actor,
             server_index[self.bed.system.server_of(ref).name]]
            for ref in self.refs]
        migrations = [
            [event.time_ms, event.actor.actor_id - base_actor, event.kind,
             server_index[event.src], server_index[event.dst]]
            for event in self.manager.migration_log]
        out = {"latencies": self.unit_latencies(),
               "migrations": migrations, "placement": placement}
        out.update(self.extra_outputs())
        return out

    def attempted(self) -> int:
        """Operations issued: client calls."""
        return sum(c.attempts for c in self.clients)

    def unanswered(self) -> int:
        """Client calls that never got a reply."""
        return sum(c.attempts - c.completed - c.failed
                   for c in self.clients)

    def failed_units(self) -> int:
        """Failed operations: unanswered, failed or wrongly answered
        calls, and dead letters."""
        return (self.unanswered()
                + sum(c.failed for c in self.clients)
                + sum(c.dead_letters_total for c in self.clients)
                + self.bad_results)


# ---------------------------------------------------------------------------
# E-Store: estore-skew and fleet-control
# ---------------------------------------------------------------------------

def estore_inputs(params: Dict[str, Any], seed: int) -> List[List[tuple]]:
    """Per-client request streams: (root index, key), cascade-skewed."""
    rng = random.Random(seed)
    weights = cascade_split(params["roots"], params["skew"])
    per_client = int(params["duration_ms"] / params["think_ms"]) + 1
    roots = range(params["roots"])
    streams = []
    for _ in range(params["clients"]):
        picks = rng.choices(roots, weights=weights, k=per_client)
        streams.append([(root, rng.randrange(10_000)) for root in picks])
    return streams


class EStoreScenario(Scenario):
    """Closed-loop clients reading root partitions (each read fetches one
    child); a request is the unit of work."""

    def __init__(self, params: Dict[str, Any], inputs: List[List[tuple]],
                 seed: int, hierarchical: bool) -> None:
        bed = bench.build_cluster(params["servers"],
                                  instance_type="m1.small", seed=seed)
        deployment = estore_app.build_estore(
            bed, num_roots=params["roots"],
            children_per_root=params["children"],
            skew_fraction=params["skew"],
            num_home_servers=params["home_servers"])
        policy = core.compile_source(estore_app.ESTORE_POLICY,
                                     [estore_app.Partition])
        plane = (dict(control_plane="hierarchical",
                      server_group_size=params["group_size"])
                 if hierarchical else {})
        manager = core.ElasticityManager(bed.system, policy, core.EmrConfig(
            period_ms=params["period_ms"],
            gem_wait_ms=params["gem_wait_ms"], **plane))
        clients = [Client(bed.system, name=f"c{i}")
                   for i in range(params["clients"])]
        super().__init__(
            bed, manager, params["limit_ms"],
            deployment.roots + [kid for kids in deployment.children
                                for kid in kids],
            clients)
        self.roots = deployment.roots
        self.inputs = inputs
        self.duration_ms = params["duration_ms"]
        self.think_ms = params["think_ms"]
        self.loops: List[Any] = []

    def _client_loop(self, client: Client, stream: List[tuple]):
        sim = self.bed.sim
        index = 0
        while sim.now < self.duration_ms:
            root, key = stream[index % len(stream)]
            index += 1
            result, _latency = yield from client.timed_call(
                self.roots[root], "read", key)
            # A ``None`` result is already counted by the client as failed.
            if result is not None and result != {"key": key,
                                                 "value": key * 31}:
                self.bad_results += 1
            yield Timeout(sim, self.think_ms)

    def start(self) -> None:
        super().start()
        for client, stream in zip(self.clients, self.inputs):
            self.loops.append(spawn(self.bed.sim,
                                    self._client_loop(client, stream),
                                    name=f"{client.name}/loop"))

    def run(self) -> None:
        # Clients stop issuing at ``duration_ms``; the run ends when the
        # last outstanding request has been answered, or at the drain
        # limit with the unanswered calls left for the checks to report.
        self.bed.run(until_ms=self.duration_ms)
        limit = self.duration_ms + DRAIN_LIMIT_MS
        while (not all(loop.finished for loop in self.loops)
               and self.bed.sim.now < limit):
            self.bed.run(until_ms=self.bed.sim.now + DRAIN_STEP_MS)

    def unit_latencies(self) -> List[float]:
        return [latency for client in self.clients
                for _t, latency in client.latencies.samples]

    def window_s(self) -> float:
        return self.bed.sim.now / 1000.0

    def server_s(self) -> float:
        return self.bed.provisioner.server_ms_consumed() / 1000.0


# ---------------------------------------------------------------------------
# PageRank: pagerank-scaleout
# ---------------------------------------------------------------------------

class PageRankScenario(Scenario):
    """One BSP driver; a superstep is the unit of work, and the driver's
    calls to the workers are the operations."""

    def __init__(self, params: Dict[str, Any], inputs: None,
                 seed: int) -> None:
        self.graph = graphs.social_graph(
            params["nodes"], params["edges_per_node"],
            superhubs=params["superhubs"],
            hub_fraction=params["hub_fraction"], rng=random.Random(seed))
        bed = bench.build_cluster(1, "m5.large", seed=seed,
                                  boot_delay_ms=params["boot_delay_ms"],
                                  max_servers=params["max_servers"])
        self.deployment = pagerank_app.build_pagerank(
            bed, self.graph, params["partitions"],
            placement=[0] * params["partitions"], partition_seed=seed)
        policy = core.compile_source(pagerank_app.PAGERANK_POLICY,
                                     [pagerank_app.PageRankWorker])
        manager = core.ElasticityManager(bed.system, policy, core.EmrConfig(
            period_ms=params["period_ms"],
            gem_wait_ms=params["gem_wait_ms"], allow_scale_out=True,
            max_scale_out_per_period=2))
        super().__init__(bed, manager, params["limit_ms"],
                         list(self.deployment.workers), [])
        self.iterations = params["iterations"]
        self.stats = None
        self.finished_server_ms = 0.0
        #: reply signal of every call the driver made
        self.replies: List[Any] = []

    def _on_iteration(self, index: int, _elapsed_ms: float) -> None:
        # The driver advances the clock in coarse chunks; note the fleet's
        # cost when the last superstep actually ends.
        if index == self.iterations - 1:
            self.finished_server_ms = \
                self.bed.provisioner.server_ms_consumed()

    def run(self) -> None:
        # The driver's client lives inside ``run_iterations``, and it
        # drops ``None`` replies; keep every reply it waits for so that a
        # lost or empty one counts as a failed operation.
        system = self.bed.system
        issue = system.client_call

        def client_call(*args, **kwargs):
            reply = issue(*args, **kwargs)
            self.replies.append(reply)
            return reply
        system.client_call = client_call
        try:
            self.stats = pagerank_app.run_iterations(
                self.deployment, self.iterations,
                on_iteration=self._on_iteration)
        finally:
            del system.client_call

    def attempted(self) -> int:
        return len(self.replies)

    def unanswered(self) -> int:
        return sum(1 for reply in self.replies if not reply.triggered)

    def failed_units(self) -> int:
        # Every worker entry point the driver calls returns a value.
        return sum(1 for reply in self.replies
                   if not reply.triggered or reply.value is None)

    def unit_latencies(self) -> List[float]:
        return list(self.stats.times_ms)

    def window_s(self) -> float:
        return sum(self.stats.times_ms) / 1000.0

    def server_s(self) -> float:
        return self.finished_server_ms / 1000.0

    def ranks(self) -> List[float]:
        dense = [0.0] * self.graph.num_nodes
        for ref in self.deployment.workers:
            for node, value in \
                    self.bed.system.actor_instance(ref).rank.items():
                dense[node] = value
        return dense

    def extra_outputs(self) -> Dict[str, Any]:
        return {"ranks": self.ranks()}

    def rank_error(self) -> float:
        """Largest |distributed - reference| rank over all nodes."""
        reference = graphs.pagerank(self.graph, iterations=self.iterations,
                                    tolerance=0.0)
        return max(abs(a - b) for a, b in zip(self.ranks(), reference))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimWorkload:
    name: str
    params: Dict[str, Any]
    make_inputs: Callable[[Dict[str, Any], int], Any]
    setup: Callable[[Dict[str, Any], Any, int], Scenario]


SIM_WORKLOADS = {
    "estore-skew": SimWorkload(
        "estore-skew", ESTORE_SKEW, estore_inputs,
        lambda p, i, s: EStoreScenario(p, i, s, hierarchical=False)),
    "fleet-control": SimWorkload(
        "fleet-control", FLEET_CONTROL, estore_inputs,
        lambda p, i, s: EStoreScenario(p, i, s, hierarchical=True)),
    "pagerank-scaleout": SimWorkload(
        "pagerank-scaleout", PAGERANK_SCALEOUT, lambda p, s: None,
        PageRankScenario),
}
