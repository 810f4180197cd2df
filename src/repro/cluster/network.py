"""Network fabric connecting simulated servers.

Messages between actors on the same server are delivered with a small
constant in-process latency and consume no NIC bandwidth.  Messages
between servers pay a propagation delay plus a serialization delay set by
the slower of the two NICs, and the bytes are charged to both ends'
network meters — that charge is what server-level ``net`` rules observe.

The local/remote asymmetry is the entire economic basis of the paper's
``colocate`` behavior, so its ratio (default 0.05 ms vs ~0.5 ms+)
matches intra-host vs intra-AZ messaging on EC2.

Fault injection: the chaos engine can :meth:`degrade` the fabric —
a latency multiplier applied to every remote delay, and a message-drop
probability sampled per remote send — and :meth:`partition` it, severing
the links between a named group of servers and the rest of the fleet.
Both return tokens so overlapping faults compose instead of clobbering
each other: the effective latency multiplier is the max over active
degradations (the strongest bottleneck dominates a path), drop draws
happen once per active degradation in injection order, and each
partition is tracked independently.  Drops model request loss in
transit: the message simply never arrives, so a caller without a timeout
waits forever (which is why :class:`repro.actors.Client` grows a
timeout + retry path).  In-process messages are never degraded or
partitioned.

Partition semantics: a partition separates ``group`` (a set of server
ids) from every server outside it.  Links *within* the group and links
*within* the rest keep working — each side is a healthy island.
``symmetric=True`` severs both directions; ``symmetric=False`` severs
only traffic *from* the group outward (the far side's packets still
arrive, its acks do not — the classic half-open failure).  ``loss``
below 1.0 makes the cut lossy instead of absolute, dropping each
crossing message independently with that probability.

Determinism contract: with no faults active, :meth:`drop_message` takes
one attribute check and returns, consumes no RNG, and every delay is
bit-identical to the pre-fault-model fabric.  Full-loss partitions never
consume RNG either; only lossy cuts (``loss < 1``) and probabilistic
degradations draw, and each active entry draws exactly once per remote
message in a fixed order.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..sim import Simulator
from .server import Server

__all__ = ["NetworkFabric"]


class _Degradation:
    """One active degrade() entry."""

    __slots__ = ("latency_multiplier", "drop_probability", "rng")

    def __init__(self, latency_multiplier: float, drop_probability: float,
                 rng: Optional[random.Random]) -> None:
        self.latency_multiplier = latency_multiplier
        self.drop_probability = drop_probability
        self.rng = rng


class _Partition:
    """One active partition() entry."""

    __slots__ = ("group", "symmetric", "loss", "rng")

    def __init__(self, group: FrozenSet[int], symmetric: bool, loss: float,
                 rng: Optional[random.Random]) -> None:
        self.group = group
        self.symmetric = symmetric
        self.loss = loss
        self.rng = rng

    def severs(self, src_id: int, dst_id: int) -> bool:
        """Does this partition cut the src -> dst direction?"""
        src_in = src_id in self.group
        if src_in == (dst_id in self.group):
            return False
        return True if self.symmetric else src_in


class NetworkFabric:
    """Computes delivery delays and meters NIC usage."""

    def __init__(self, sim: Simulator, local_latency_ms: float = 0.05,
                 remote_rtt_ms: float = 1.0) -> None:
        self.sim = sim
        self.local_latency_ms = local_latency_ms
        self.remote_rtt_ms = remote_rtt_ms
        # Fault-injection state (see degrade()/partition()).  The
        # effective latency_multiplier/drop_probability are cached plain
        # attributes, recomputed only when faults change, so the hot
        # delay path never loops over fault entries.
        self.latency_multiplier = 1.0
        self.drop_probability = 0.0
        self.messages_dropped = 0
        self.partition_drops = 0
        #: Per-link partition-drop counts keyed by ``(src_name, dst_name)``.
        self.drops_by_link: Dict[Tuple[str, str], int] = {}
        self._degradations: Dict[int, _Degradation] = {}
        self._partitions: Dict[int, _Partition] = {}
        self._drop_entries: List[_Degradation] = []
        self._next_token = 1

    # -- fault injection -----------------------------------------------------

    def degrade(self, latency_multiplier: float = 1.0,
                drop_probability: float = 0.0,
                rng: Optional[random.Random] = None) -> int:
        """Degrade remote messaging until healed; returns a heal token.

        ``latency_multiplier`` scales every remote delay (>= 1);
        ``drop_probability`` loses each remote message independently with
        that probability, drawn from ``rng`` (required when > 0 so runs
        stay deterministic).  Overlapping degradations compose: the
        effective multiplier is the max over active entries and each
        entry's drop probability is sampled independently.  Pass the
        returned token to :meth:`heal` to lift just this degradation.
        """
        if latency_multiplier < 1.0:
            raise ValueError("latency_multiplier must be >= 1")
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if drop_probability > 0.0 and rng is None:
            raise ValueError("drop_probability > 0 requires an rng "
                             "(use a named RandomStreams stream)")
        token = self._next_token
        self._next_token += 1
        self._degradations[token] = _Degradation(
            latency_multiplier, drop_probability, rng)
        self._refresh()
        return token

    def heal(self, token: Optional[int] = None) -> None:
        """Lift one degradation (by token) or, with no token, all of them."""
        if token is None:
            self._degradations.clear()
        else:
            self._degradations.pop(token, None)
        self._refresh()

    def partition(self, group, symmetric: bool = True, loss: float = 1.0,
                  rng: Optional[random.Random] = None) -> int:
        """Sever the links between ``group`` (server ids) and the rest.

        Returns a token for :meth:`heal_partition`.  ``loss < 1`` makes
        the cut lossy (each crossing message dropped independently with
        probability ``loss``, drawn from ``rng``); the default 1.0 is an
        absolute cut and consumes no RNG.
        """
        group = frozenset(group)
        if not group:
            raise ValueError("partition group must be non-empty")
        if not 0.0 < loss <= 1.0:
            raise ValueError("loss must be in (0, 1]")
        if loss < 1.0 and rng is None:
            raise ValueError("loss < 1 requires an rng "
                             "(use a named RandomStreams stream)")
        token = self._next_token
        self._next_token += 1
        self._partitions[token] = _Partition(
            group, symmetric, loss, rng if loss < 1.0 else None)
        return token

    def heal_partition(self, token: int) -> None:
        """Reconnect the links severed by one :meth:`partition` call."""
        self._partitions.pop(token, None)

    def _refresh(self) -> None:
        entries = self._degradations.values()
        self.latency_multiplier = max(
            (e.latency_multiplier for e in entries), default=1.0)
        self._drop_entries = [e for e in entries if e.drop_probability > 0.0]
        survive = 1.0
        for entry in self._drop_entries:
            survive *= 1.0 - entry.drop_probability
        self.drop_probability = 1.0 - survive

    @property
    def degraded(self) -> bool:
        return self.latency_multiplier > 1.0 or self.drop_probability > 0.0

    @property
    def partitioned(self) -> bool:
        return bool(self._partitions)

    def link_blocked(self, src: Server, dst: Server) -> bool:
        """Is the src -> dst link absolutely severed (full-loss cut)?

        Lossy partitions (``loss < 1``) do not block a link — individual
        messages may still get through — so this is the reachability
        check control loops and migrations use, and it never draws RNG.
        """
        if not self._partitions or src is dst:
            return False
        return any(part.loss >= 1.0
                   and part.severs(src.server_id, dst.server_id)
                   for part in self._partitions.values())

    def drop_message(self, src: Optional[Server] = None,
                     dst: Optional[Server] = None) -> bool:
        """Decide whether one remote message is lost in transit.

        Partitions are checked first: a severed link drops the message
        outright (loss 1.0, no RNG) or with probability ``loss`` (one
        draw per severing partition).  Then each active degradation with
        a drop probability draws once.  External clients (``src`` or
        ``dst`` of ``None``) ride the management network and are never
        partitioned, only degraded.  With no faults active this method
        consumes no RNG, so enabling chaos never perturbs the draws of a
        fault-free run.
        """
        if self._partitions and src is not None and dst is not None:
            for part in self._partitions.values():
                if not part.severs(src.server_id, dst.server_id):
                    continue
                if part.loss >= 1.0 or part.rng.random() < part.loss:
                    self.messages_dropped += 1
                    self.partition_drops += 1
                    link = (src.name, dst.name)
                    self.drops_by_link[link] = \
                        self.drops_by_link.get(link, 0) + 1
                    return True
        for entry in self._drop_entries:
            if entry.rng.random() < entry.drop_probability:
                self.messages_dropped += 1
                return True
        return False

    # -- delays --------------------------------------------------------------

    def delivery_delay(self, src: Optional[Server], dst: Server,
                       size_bytes: float) -> float:
        """Delay for a ``size_bytes`` message from ``src`` to ``dst``.

        ``src is None`` models an external client (always remote).
        Side effect: charges NIC meters for remote transfers.
        """
        if src is dst and src is not None:
            return self.local_latency_ms
        bandwidth = dst.itype.net_bytes_per_ms()
        dst.net_meter.add(size_bytes)
        if src is not None:
            src_bandwidth = src.itype.net_bytes_per_ms()
            if src_bandwidth < bandwidth:
                bandwidth = src_bandwidth
            src.net_meter.add(size_bytes)
        return self.latency_multiplier * (
            self.remote_rtt_ms / 2.0 + size_bytes / bandwidth)

    def transfer_delay(self, src: Server, dst: Server,
                       size_bytes: float) -> float:
        """Bulk transfer (actor state migration): full payload over the
        slower NIC plus one RTT of handshaking (the prepare and commit
        control messages of the migration protocol)."""
        if src is dst:
            return self.local_latency_ms
        src.net_meter.add(size_bytes)
        dst.net_meter.add(size_bytes)
        bandwidth = min(src.itype.net_bytes_per_ms(),
                        dst.itype.net_bytes_per_ms())
        return self.latency_multiplier * (
            self.remote_rtt_ms + size_bytes / bandwidth)
