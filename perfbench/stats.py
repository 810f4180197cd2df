"""The benchmark's own arithmetic: percentiles, goodput, capacity, digests.

Kept free of any ``repro`` import so the self-tests exercise it alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Dict, Iterable, Sequence, Tuple

#: Candidate percentiles for the tail, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0,
                    75.0, 50.0)
#: The tail is the highest percentile with at least this many samples
#: strictly beyond its nearest-rank position.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float],
                 p: float) -> Tuple[int, float]:
    """``(rank, value)`` of the nearest-rank ``p``-th percentile (1-based)."""
    if not sorted_values:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile out of range (0, 100]: {p!r}")
    # Rounded first: 99.9 / 100 * 10_000 is 9990.000000000002 in binary
    # floating point, which would round the rank up past the true one.
    rank = max(1, math.ceil(round(p / 100.0 * len(sorted_values), 9)))
    return rank, sorted_values[rank - 1]


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    return nearest_rank(sorted(values), p)[1]


def tail(values: Iterable[float]) -> Dict[str, float]:
    """The highest percentile with ``MIN_BEYOND`` samples beyond it.

    Returns ``{"percentile", "value", "samples", "beyond"}``.  When even
    the median has fewer than ``MIN_BEYOND`` samples beyond it, the
    median is returned and ``beyond`` says how thin the tail is.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank, value = nearest_rank(ordered, p)
        if n - rank >= MIN_BEYOND:
            return {"percentile": p, "value": value, "samples": n,
                    "beyond": n - rank}
    rank, value = nearest_rank(ordered, 50.0)
    return {"percentile": 50.0, "value": value, "samples": n,
            "beyond": n - rank}


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def goodput(latencies_ms: Iterable[float], limit_ms: float,
            duration_s: float, bad: int = 0) -> float:
    """Answers within ``limit_ms`` per second of schedule.

    ``latencies_ms`` holds one latency per *answered* request.  Requests
    that were shed, rejected, failed or timed out have no place in it and
    so never count; ``bad`` removes answered-but-unsuccessful requests
    (an error status still has a latency).
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    within = sum(1 for latency in latencies_ms if latency <= limit_ms)
    return max(0, within - bad) / duration_s


def rung_passes(latencies_ms: Sequence[float], limit_ms: float,
                scheduled_s: float, finished_s: float,
                lost: int = 0) -> bool:
    """One capacity-ladder rung: p99 within the limit, nothing lost, and
    no growing backlog.

    A backlog that grows during the rung is still being drained after the
    last arrival; one that holds steady is gone within a latency limit or
    two.  ``finished_s`` is when the last answer came back, measured from
    the rung's start, ``scheduled_s`` the length of its arrival schedule.
    """
    if lost or not latencies_ms:
        return False
    if percentile(latencies_ms, 99.0) > limit_ms:
        return False
    return finished_s - scheduled_s <= 2.0 * limit_ms / 1000.0


def capacity(rungs: Sequence[Tuple[float, bool]]) -> float:
    """Rate of the last passing rung before the first failing one.

    ``rungs`` is the fixed ladder in increasing rate order as
    ``(rate, passed)``; 0.0 when the first rung already fails.
    """
    best = 0.0
    for rate, passed in rungs:
        if not passed:
            break
        best = rate
    return best


def digest(obj: Any) -> str:
    """Stable hash of JSON-representable outputs (floats kept exact)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

