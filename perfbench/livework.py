"""chatroom-live: the live chatroom behind the HTTP front door.

One process, one event loop, at most ``nproc`` (and never more than two)
keep-alive connections.  Open-loop Poisson arrivals at a fixed rate well
below saturation, with the live EMR on, one forced migration of the hot
room and one scale-out, give the fixed-rate figures; a fixed ladder of
higher rates, stopped at the first failing rung, gives the capacity.
Latency counts from each request's *due* time.

``LoadGenerator`` keeps latencies per phase; giving every request its own
phase (its scheduled offset) returns each request's latency through that
public API.
"""

from __future__ import annotations

import asyncio
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro import live
from repro.actors import RuntimeHooks
from repro.core.profiling import LatencyRecorder

import stats

CHATROOM_LIVE = dict(
    servers=2, rooms=8, users_per_room=8, hot_share=0.5,
    fixed_rate=300.0, period_ms=250.0, limit_ms=500.0, setups=5,
    warmup_s=1.0, rung_s=1.0,
    ladder=(700.0, 750.0, 800.0, 850.0, 900.0, 950.0, 1000.0, 1060.0,
            1120.0, 1190.0, 1260.0, 1340.0, 1420.0),
    timeout_s=30.0)


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


class SampleRecorder(LatencyRecorder):
    """A front-door recorder that also keeps every sample."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        super().__init__(capacity=1 << 16)
        self.samples: List[float] = []

    def record(self, latency_ms: float) -> None:
        self.samples.append(latency_ms)
        super().record(latency_ms)


class MailboxWatch(RuntimeHooks):
    """Deepest mailbox seen at delivery time (traced runs only)."""

    def __init__(self, system) -> None:
        self.system = system
        self.deepest = 0

    def on_message_delivered(self, record, message) -> None:
        depth = self.system.mailbox_depth(record.ref.actor_id) + 1
        if depth > self.deepest:
            self.deepest = depth


@dataclass
class Stack:
    system: Any
    app: Any
    front: Any
    manager: Any
    recorder: SampleRecorder


@dataclass
class Phase:
    """One open-loop load phase's raw results."""

    rate: float
    scheduled_s: float
    sent: int
    ok: int
    lost: int
    finished_s: float
    latencies: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    report: Any = None

    def passes(self, limit_ms: float) -> bool:
        """This phase as a capacity-ladder rung (see ``stats``)."""
        return stats.rung_passes(self.latencies, limit_ms,
                                 self.scheduled_s, self.finished_s,
                                 self.lost)


def make_requests(count: int, params: Dict[str, Any],
                  rng: random.Random) -> List[Tuple[str, str, bytes]]:
    """Skewed chat traffic: half to room 0, a stats read every 50th."""
    out = []
    for index in range(count):
        room = (0 if rng.random() < params["hot_share"]
                else rng.randrange(params["rooms"]))
        if index % 50 == 49:
            out.append(("GET", f"/chat/{room}/stats", b""))
        else:
            out.append(("POST", f"/chat/{room}/post", b'{"msg": "hi"}'))
    return out


async def setup(params: Dict[str, Any], seed: int) -> Stack:
    system = live.LiveActorSystem()
    for _ in range(params["servers"]):
        system.add_server()
    app = live.build_live_app("chatroom", system, rooms=params["rooms"],
                              users_per_room=params["users_per_room"],
                              seed=seed)
    await app.setup()
    front = live.FrontDoor(app.handle)
    # Assigned, not passed: an empty recorder is falsy, and the front door
    # replaces a falsy ``recorder`` argument with its own.
    recorder = front.recorder = SampleRecorder()
    await front.start()
    manager = live.LiveElasticityManager(
        system, policy=app.policy(),
        config=live.LiveEmrConfig(period_ms=params["period_ms"]))
    manager.start()
    return Stack(system, app, front, manager, recorder)


async def teardown(stack: Stack) -> None:
    await stack.manager.stop()
    await stack.system.quiesce(timeout_s=5.0)
    await stack.front.stop()
    await stack.system.shutdown()


async def load_phase(stack: Stack, rate: float, duration_s: float,
                     rng: random.Random, params: Dict[str, Any],
                     seed: int) -> Phase:
    arrivals = live.poisson_arrivals(rate, duration_s, rng)
    requests = make_requests(len(arrivals), params, rng)
    loop = asyncio.get_running_loop()
    lateness: List[float] = []
    start = [0.0]

    def factory(index: int, _rng: random.Random):
        lateness.append((loop.time() - start[0] - arrivals[index]) * 1e3)
        return requests[index]

    generator = live.LoadGenerator(
        stack.front.host, stack.front.port, arrivals, factory,
        phase_of=repr, connections=connections(),
        timeout_s=params["timeout_s"], seed=seed)
    start[0] = loop.time()
    report = await generator.run()
    latencies: List[float] = []
    for recorder in report.by_phase.values():
        # Arrivals drawn at the same instant share a phase: each gets the
        # mean of their latencies.  A request that got no answer (timed
        # out, transport error) left its phase empty.
        if recorder.count:
            latencies += [recorder.total_ms / recorder.count] * recorder.count
    return Phase(rate=rate, scheduled_s=duration_s, sent=report.sent,
                 ok=report.ok, lost=report.sent - report.ok,
                 finished_s=report.duration_s, latencies=latencies,
                 lateness_ms=lateness, report=report)


async def warm_up(stack: Stack, params: Dict[str, Any], seed: int) -> Phase:
    """Load at the fixed rate whose figures are discarded: first-use
    costs (lazy imports, the EMR's first meter flushes) are not paid
    again by users.  Its requests still count in the books."""
    return await load_phase(stack, params["fixed_rate"], params["warmup_s"],
                            random.Random(seed - 1), params, seed)


async def _force_move(stack: Stack, at_s: float, room: int,
                      add_server: bool, log: List[Dict[str, Any]]) -> None:
    await asyncio.sleep(at_s)
    system = stack.system
    if add_server:
        system.add_server()
    ref = stack.app.rooms[room]
    source = system.server_of(ref)
    target = min((s for s in system.running_servers() if s is not source),
                 key=lambda s: (len(system.actors_on(s)), s.server_id))
    moved = await system.migrate_actor(ref, target, force=True)
    log.append({"room": room, "moved": moved,
                "wall_ms": system.last_migration_wall_ms})


async def fixed_phase(stack: Stack, params: Dict[str, Any], seed: int,
                      duration_s: float) -> Dict[str, Any]:
    """Fixed-rate load with a forced migration and a scale-out."""
    system = stack.system
    stack.recorder.samples.clear()
    delivered_before = system.messages_delivered
    phase_start_ms = system.clock.now
    moves: List[Dict[str, Any]] = []
    side = [asyncio.ensure_future(_force_move(stack, duration_s / 3, 0,
                                              False, moves)),
            asyncio.ensure_future(_force_move(stack, 2 * duration_s / 3, 1,
                                              True, moves))]
    phase = await load_phase(stack, params["fixed_rate"], duration_s,
                             random.Random(seed), params, seed)
    await asyncio.gather(*side)
    phase_end_ms = system.clock.now
    server_ms = sum(phase_end_ms - max(server.started_at, phase_start_ms)
                    for server in system.servers)
    return {"phase": phase, "moves": moves,
            "server_samples": list(stack.recorder.samples),
            "msgs": system.messages_delivered - delivered_before,
            "server_s": server_ms / 1000.0}


async def ladder(stack: Stack, params: Dict[str, Any],
                 seed: int) -> List[Phase]:
    """The capacity ladder's rungs above the fixed rate, up to and
    including the first that fails."""
    rng = random.Random(seed + 1)
    rungs = []
    for rate in params["ladder"]:
        phase = await load_phase(stack, rate, params["rung_s"], rng, params,
                                 seed)
        rungs.append(phase)
        if not phase.passes(params["limit_ms"]):
            break
    return rungs


def books_errors(stack: Stack, phases: List[Phase]) -> List[str]:
    """Disposition ledger and client books must balance with no loss."""
    errors = []
    ledger = stack.front.ledger
    if not ledger.balanced():
        errors.append(f"ledger unbalanced: {ledger.as_dict()}")
    sent = sum(p.sent for p in phases)
    if ledger.issued != sent:
        errors.append(f"ledger issued {ledger.issued} != sent {sent}")
    for p in phases:
        r = p.report
        if not r.balanced():
            errors.append(f"client books unbalanced: {r.as_dict()}")
        if r.transport_errors or r.timeouts or r.http_errors or r.shed:
            errors.append(f"failed requests at {p.rate}/s: {r.as_dict()}")
    if stack.system.handler_errors:
        errors.append(f"{stack.system.handler_errors} handler errors")
    return errors
