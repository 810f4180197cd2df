"""Simulated server: vCPU cores, memory, and a NIC meter.

The CPU model is a per-server multi-core run queue.  Work arrives as jobs
declaring a CPU demand in milliseconds; each of the server's ``vcpus``
cores services jobs FIFO, scaled by the instance type's ``cpu_speed``.
This reproduces the contention behaviour elasticity management reacts to:
when offered load exceeds ``vcpus * cpu_speed`` CPU-ms per ms, queueing
delay grows and the windowed CPU utilization saturates near 100%.

The cores are callbacks, not processes: a server holds a count of idle
cores and a run deque, and each core step is one engine event
(:meth:`Server._core_loop`).  A core starts one zero-delay hop after the
server boots; a job handed to a core starts one zero-delay hop later
(the pick-up); it completes ``scaled`` ms after that, and the core takes
the next queued job with another pick-up hop.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Optional

from ..sim import Signal, Simulator
from .instances import InstanceType
from .metrics import WindowedMeter

__all__ = ["Server", "CpuJob"]

_server_ids = itertools.count(1)


class CpuJob:
    """A unit of CPU work queued on a server.

    ``owner`` is an opaque tag (the actor, in practice) used by callers for
    accounting; the server itself only needs the demand.  ``done`` is
    triggered with the scaled busy time at completion: a fresh
    :class:`~repro.sim.Signal` unless the caller supplies its own.
    """

    __slots__ = ("demand_ms", "owner", "done")

    def __init__(self, sim: Simulator, demand_ms: float, owner: Any = None,
                 done: Any = None) -> None:
        self.demand_ms = demand_ms
        self.owner = owner
        self.done = done if done is not None else Signal(sim)


class Server:
    """One simulated machine in the cluster.

    Public resource API:

    - :meth:`execute` — submit CPU work, returns a waitable.
    - :meth:`allocate_memory` / :meth:`free_memory`.
    - :meth:`cpu_percent`, :meth:`memory_percent`, :meth:`net_percent` —
      windowed utilization percentages, the signals PLASMA rules consume.
    """

    def __init__(self, sim: Simulator, itype: InstanceType,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.itype = itype
        self.server_id = next(_server_ids)
        self.name = name or f"{itype.name}-{self.server_id}"
        self.started_at = sim.now
        self.running = True
        #: Chaos "limping server" multiplier: effective core speed is
        #: ``itype.cpu_speed * speed_factor``.  1.0 = healthy.
        self.speed_factor = 1.0

        #: Jobs waiting for a core, then one ``None`` per core after
        #: :meth:`shutdown` (a core that takes it stops).
        self._run_queue: Deque[Optional[CpuJob]] = deque()
        #: Cores waiting for work.  A core counts only once its start
        #: hop has run, so jobs submitted in the boot instant queue.
        self._idle_cores = 0
        self.cpu_meter = WindowedMeter(sim)
        self.net_meter = WindowedMeter(sim)
        self.memory_used_mb = 0.0
        for _ in range(itype.vcpus):
            sim.schedule(0.0, self._core_idle)

    def __repr__(self) -> str:
        return f"<Server {self.name}>"

    # -- CPU ---------------------------------------------------------------

    def execute(self, demand_ms: float, owner: Any = None,
                done: Any = None) -> Any:
        """Submit ``demand_ms`` of CPU work; returns the completion signal.

        The signal's value is the *scaled* busy time the job occupied a
        core for, letting callers charge per-actor CPU accounting.
        ``done`` replaces the fresh signal with any object whose
        ``trigger(scaled_ms)`` the core calls at completion; it is what
        is returned.
        """
        if demand_ms < 0:
            raise ValueError(f"negative CPU demand: {demand_ms!r}")
        job = CpuJob(self.sim, demand_ms, owner, done)
        self._offer(job)
        return job.done

    def _offer(self, job: Optional[CpuJob]) -> None:
        self._run_queue.append(job)
        if self._idle_cores:
            self._idle_cores -= 1
            self._core_idle()

    def _core_idle(self) -> None:
        """A core asks for work: the next queued job, else it idles."""
        if self._run_queue:
            self.sim.schedule(0.0, self._core_loop,
                              self._run_queue.popleft(), None)
        else:
            self._idle_cores += 1

    def _core_loop(self, job: Optional[CpuJob],
                   scaled: Optional[float]) -> None:
        """One core step, run as an engine event.

        With ``scaled`` of ``None`` this is the pick-up hop: the core
        starts ``job`` (``None`` is the shutdown sentinel: the core
        stops).  Otherwise ``job`` has just finished after ``scaled`` ms
        on the core: it is metered (while the server runs), completed,
        and the core takes the next job.
        """
        if scaled is None:
            if job is None:
                return
            scaled = job.demand_ms / (self.itype.cpu_speed
                                      * self.speed_factor)
            if scaled > 0:
                self.sim.schedule(scaled, self._core_loop, job, scaled)
                return
        if self.running:
            self.cpu_meter.add(scaled)
        job.done.trigger(scaled)
        self._core_idle()

    def run_queue_length(self) -> int:
        """Jobs waiting for a core (excludes jobs currently executing)."""
        return len(self._run_queue)

    # -- memory --------------------------------------------------------------

    def allocate_memory(self, mb: float) -> None:
        """Claim ``mb`` of memory.  Oversubscription is permitted (the paper's
        runtime does not kill actors on memory pressure) but shows up in
        :meth:`memory_percent` > 100, which memory rules can react to."""
        if mb < 0:
            raise ValueError(f"negative memory allocation: {mb!r}")
        self.memory_used_mb += mb

    def free_memory(self, mb: float) -> None:
        self.memory_used_mb = max(0.0, self.memory_used_mb - mb)

    # -- utilization percentages --------------------------------------------

    def _effective_window(self, window_ms: float) -> float:
        uptime = self.sim.now - self.started_at
        if uptime <= 0:
            return 0.0
        return min(window_ms, uptime)

    def cpu_percent(self, window_ms: float) -> float:
        """CPU utilization (0–100) over the trailing window."""
        effective = self._effective_window(window_ms)
        if effective <= 0:
            return 0.0
        capacity = effective * self.itype.vcpus
        return min(100.0, 100.0 * self.cpu_meter.total(window_ms) / capacity)

    def memory_percent(self, window_ms: float = 0.0) -> float:
        """Memory utilization (instantaneous; window kept for symmetry)."""
        return 100.0 * self.memory_used_mb / self.itype.memory_mb

    def net_percent(self, window_ms: float) -> float:
        """NIC utilization (0–100) over the trailing window."""
        effective = self._effective_window(window_ms)
        if effective <= 0:
            return 0.0
        capacity = effective * self.itype.net_bytes_per_ms()
        return min(100.0, 100.0 * self.net_meter.total(window_ms) / capacity)

    def idle_cpu_headroom(self, window_ms: float) -> float:
        """Unused CPU capacity, in CPU-ms per ms (used by admission checks)."""
        used_fraction = self.cpu_percent(window_ms) / 100.0
        return (1.0 - used_fraction) * self.itype.cpu_capacity_ms_per_ms()

    def set_speed_factor(self, factor: float) -> None:
        """Scale core speed (chaos "limping server" fault).  Applies to
        jobs dequeued from now on; a job already on a core finishes at
        the speed it started with."""
        if factor <= 0:
            raise ValueError(f"speed_factor must be positive: {factor!r}")
        self.speed_factor = factor

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop metering and stop the cores once they drain the queue.

        Jobs already queued still run to completion (unmetered), since
        each core stops only when it reaches its stop marker behind
        them; jobs submitted after shutdown queue behind the markers and
        never run.
        """
        if not self.running:
            return
        self.running = False
        for _ in range(self.itype.vcpus):
            self._offer(None)
