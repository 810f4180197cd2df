"""Which public entry points belong to which layer, and what the traced
run reports about each.

Layers are the program's modules: ``sim`` (kernel, processes),
``actors`` (dispatch, route, migrate), ``cluster`` (servers, network,
provisioner), ``profiling``, ``emr``, ``epl``, ``graphs``, ``apps`` and
``live``.  Host time inside no layer span is ``unattributed``.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Tuple

from spans import Tracer

LAYERS = ("sim", "actors", "cluster", "profiling", "emr", "epl", "graphs",
          "apps", "live", "unattributed")

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.schedules": "count", "sim.schedules_per_msg": "ratio",
    "sim.run_self_s": "s",
    "actors.msgs": "count", "actors.client_calls": "count",
    "actors.remote_frac": "ratio", "actors.migrations": "count",
    "actors.migration_sim_ms": "ms", "actors.dead_letters": "count",
    "cluster.executes": "count", "cluster.execute_self_s": "s",
    "cluster.cpu_util": "ratio", "cluster.servers_peak": "count",
    "cluster.net_mb": "MB",
    "profiling.ingest_calls": "count", "profiling.ingest_s": "s",
    "profiling.snapshots": "count", "profiling.snapshot_s": "s",
    "emr.rounds": "count", "emr.report_s": "s", "emr.eval_s": "s",
    "emr.plan_s": "s", "emr.actions": "count",
    "emr.migrations_committed": "count", "emr.useful_frac": "ratio",
    "emr.scale_outs": "count",
    "epl.compile_s": "s", "graphs.setup_s": "s",
    "live.server_p50_ms": "ms", "live.server_p99_ms": "ms",
    "live.gen_late_ms": "ms", "live.mailbox_depth_max": "count",
    "live.migration_wall_ms": "ms", "live.emr_rounds": "count",
    "live.emr_migrations": "count", "live.shed": "count",
}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.self_share"] = "ratio"
PER_LAYER_UNITS.update({"trace.slowdown": "ratio", "trace.wall_s": "s",
                        "trace.spans": "count",
                        "app_tail_ms": "ms", "req_p99_ms": "ms"})

#: Metrics that must be non-zero on the workload built to exercise them.
#: Failure counters (``actors.dead_letters``, ``live.shed``) are zero in
#: every correct run and so are not listed.  Neither is
#: ``live.emr_migrations``: the chatroom's charged CPU stays far below its
#: policy's 75% bound, so the live EMR has never moved an actor on its own
#: (the forced moves are the benchmark's); the count shows when it does.
EXERCISED_BY: Dict[str, Tuple[str, ...]] = {
    "estore-skew": (
        "sim.schedules", "sim.schedules_per_msg", "sim.run_self_s",
        "actors.msgs", "actors.client_calls", "actors.remote_frac",
        "actors.migrations", "actors.migration_sim_ms",
        "cluster.executes", "cluster.execute_self_s", "cluster.cpu_util",
        "cluster.servers_peak", "cluster.net_mb",
        "profiling.ingest_calls", "profiling.ingest_s", "epl.compile_s"),
    "pagerank-scaleout": (
        "actors.msgs", "actors.migrations", "actors.migration_sim_ms",
        "cluster.servers_peak", "cluster.net_mb", "emr.rounds",
        "emr.plan_s", "emr.actions", "emr.migrations_committed",
        "emr.useful_frac", "emr.scale_outs", "graphs.setup_s",
        "apps.self_s"),
    "fleet-control": (
        "profiling.snapshots", "profiling.snapshot_s", "emr.rounds",
        "emr.report_s", "emr.eval_s", "emr.plan_s", "emr.actions",
        "emr.migrations_committed", "emr.useful_frac"),
    "chatroom-live": (
        "live.server_p50_ms", "live.server_p99_ms", "live.gen_late_ms",
        "live.mailbox_depth_max", "live.migration_wall_ms",
        "live.emr_rounds", "profiling.ingest_calls", "epl.compile_s"),
}

#: Functions that callers import by name; each must be wrapped at every
#: module holding it, including these callers' namespaces.
DIRECT_IMPORT_SITES = {
    "emr.eval": ("repro.core.emr.lem.evaluate_rule",
                 "repro.core.emr.gem.evaluate_rule",
                 "repro.live.emr.evaluate_rule"),
    "emr.plan": ("repro.core.emr.gem.plan_balance",
                 "repro.core.emr.gem.plan_reserve",
                 "repro.core.emr.gem.plan_drain"),
    "emr.resolve": ("repro.core.emr.lem.resolve_actions",),
    "epl.compile": ("repro.apps.estore.compile_source",
                    "repro.live.apps.compile_source"),
    "graphs.build": ("repro.apps.pagerank.partition_graph",),
}

_INGEST = ("on_actor_created", "on_actor_destroyed", "on_actor_resurrected",
           "on_message_delivered", "on_compute", "on_bytes_sent",
           "on_bytes_received")


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (sim and live backends alike)."""
    from repro import graphs
    from repro.actors import Client, system as actor_system
    from repro.apps import estore, pagerank
    from repro.cluster import network, provisioner, server
    from repro.core import epl
    from repro.core.emr import (actions, evaluate, gem, hierarchy, lem,
                                manager, planning)
    from repro.core.profiling import collector
    from repro.live import emr as live_emr
    from repro.sim import CalendarSimulator, HeapSimulator

    for kernel in (CalendarSimulator, HeapSimulator):
        for attr in ("schedule", "schedule_at"):
            tracer.patch_method(kernel, attr, "sim.schedule", "sim",
                                count_only=True)
        tracer.patch_method(kernel, "run", "sim.run", "sim")

    system_cls = actor_system.ActorSystem
    for attr in ("__init__", "create_actor", "client_call", "_route",
                 "_deliver", "_deliver_batch", "_send_reply",
                 "_actor_compute", "migrate_actor", "_dispatch_loop",
                 "_migration_proc"):
        name = "actors.client_call" if attr == "client_call" else \
            f"actors.{attr.strip('_')}"
        tracer.patch_method(system_cls, attr, name, "actors")
    tracer.patch_method(Client, "timed_call", "actors.timed_call", "actors")

    server_cls = server.Server
    tracer.patch_method(server_cls, "execute", "cluster.execute", "cluster")
    tracer.patch_method(server_cls, "_core_loop", "cluster.core", "cluster")
    for attr in ("cpu_percent", "net_percent"):
        tracer.patch_method(server_cls, attr, "cluster.meter", "cluster")
    tracer.patch_method(network.NetworkFabric, "transfer_delay",
                        "cluster.net", "cluster")
    for attr in ("boot_server", "retire_server"):
        tracer.patch_method(provisioner.Provisioner, attr,
                            "cluster.provision", "cluster")

    runtime = collector.ProfilingRuntime
    for attr in _INGEST:
        tracer.patch_method(runtime, attr, "profiling.ingest", "profiling")
    for attr in ("snapshot_server", "snapshot_actors"):
        tracer.patch_method(runtime, attr, "profiling.snapshot",
                            "profiling")

    tracer.patch_method(gem.GEM, "receive_report", "emr.report", "emr")
    tracer.patch_method(gem.GEM, "_process", "emr.round", "emr")
    tracer.patch_method(lem.LEM, "_run", "emr.lem", "emr")
    tracer.patch_method(manager.ElasticityManager, "_janitor", "emr.janitor",
                        "emr")
    tracer.patch_method(manager.ElasticityManager, "__init__", "emr.setup",
                        "emr")
    tracer.patch_method(hierarchy.RootGem, "_flush", "emr.root", "emr")
    tracer.patch_method(hierarchy.RootGem, "arbitrate", "emr.arbitrate",
                        "emr", on_result=_count_moves(tracer))
    tracer.patch_method(hierarchy.RootGem, "_execute_cross", "emr.cross",
                        "emr")
    tracer.patch_method(live_emr.LiveElasticityManager, "run_round",
                        "emr.round", "emr")
    tracer.patch_function(evaluate, "evaluate_rule", "emr.eval", "emr")
    for attr in ("plan_balance", "plan_reserve", "plan_drain"):
        tracer.patch_function(planning, attr, "emr.plan", "emr")
    tracer.patch_function(actions, "resolve_actions", "emr.resolve", "emr",
                          on_result=_count_moves(tracer))

    tracer.patch_function(epl.compiler, "compile_source", "epl.compile",
                          "epl")
    for module, attr in ((graphs.generators, "social_graph"),
                         (graphs.partition, "partition_graph")):
        tracer.patch_function(module, attr, "graphs.build", "graphs")

    tracer.patch_function(estore, "build_estore", "apps.setup", "apps")
    tracer.patch_function(pagerank, "build_pagerank", "apps.setup", "apps")
    for cls in (estore.Partition, pagerank.PageRankWorker):
        for attr, value in list(cls.__dict__.items()):
            if inspect.isfunction(value) and not attr.startswith("_"):
                tracer.patch_method(cls, attr, "apps.handler", "apps")


def _count_moves(tracer: Tracer):
    """Adds each returned action list to the planned-moves count: the
    LEM's resolved plan and the root GEM's cross-group arbitration."""
    moves = tracer.counter("emr.planned_moves")

    def count(actions) -> None:
        moves[0] += len(actions)
    return count


def check_sites(tracer: Tracer) -> List[str]:
    """Direct-import lookup sites that were not wrapped."""
    missing = []
    for name, sites in DIRECT_IMPORT_SITES.items():
        for site in sites:
            if site not in tracer.sites.get(name, ()):
                missing.append(site)
    return missing


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Counts and times every layer shares between sim and live runs."""
    calls = tracer.calls
    total_s = tracer.total_s
    out = {
        "sim.schedules": calls("sim.schedule"),
        "sim.run_self_s": tracer.self_s("sim.run"),
        "actors.client_calls": calls("actors.client_call"),
        "cluster.executes": calls("cluster.execute"),
        "cluster.execute_self_s": tracer.self_s("cluster.execute"),
        "profiling.ingest_calls": calls("profiling.ingest"),
        "profiling.ingest_s": total_s("profiling.ingest"),
        "profiling.snapshots": calls("profiling.snapshot"),
        "profiling.snapshot_s": total_s("profiling.snapshot"),
        "emr.rounds": calls("emr.round"),
        "emr.report_s": total_s("emr.report"),
        "emr.eval_s": total_s("emr.eval"),
        "emr.plan_s": total_s("emr.plan"),
        "emr.actions": calls("emr.planned_moves"),
        "epl.compile_s": total_s("epl.compile"),
        "graphs.setup_s": total_s("graphs.build"),
        "trace.wall_s": wall_s,
        "trace.spans": tracer.span_count,
    }
    covered = 0.0
    for layer in LAYERS[:-1]:
        own = tracer.layer_self_s(layer)
        covered += own
        out[f"{layer}.self_s"] = own
        out[f"{layer}.self_share"] = own / wall_s
    out["unattributed.self_s"] = max(0.0, wall_s - covered)
    out["unattributed.self_share"] = out["unattributed.self_s"] / wall_s
    return out
