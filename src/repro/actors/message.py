"""Messages exchanged between actors (and from external clients).

A message is one function invocation: it names the target actor and
function, carries arguments and a payload size (which determines network
cost), and holds the reply signal the caller blocks on.  ``caller_kind``
is ``"client"`` for external callers or the calling actor's type name —
exactly the distinction PLASMA's EPL makes in ``cllr.call(...)`` features.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from ..sim import Signal

__all__ = ["Message", "Overloaded", "CLIENT_KIND",
           "DEFAULT_MESSAGE_BYTES", "DEFAULT_REPLY_BYTES"]

CLIENT_KIND = "client"
DEFAULT_MESSAGE_BYTES = 512.0
DEFAULT_REPLY_BYTES = 256.0

_message_ids = itertools.count(1)


class Overloaded:
    """Retriable NACK delivered as a reply when overload protection
    refuses a client call.

    ``reason`` is ``"admission"`` (server-level admission control turned
    the request away before it queued) or ``"shed"`` (the target's
    bounded mailbox dropped it).  Clients treat both as retriable —
    unlike a timeout, the server paid almost nothing to say no.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:
        return f"Overloaded({self.reason!r})"


# Slots (Python 3.10+) make messages smaller and faster to build.
@dataclass(**({"slots": True} if sys.version_info >= (3, 10) else {}))
class Message:
    """One in-flight function invocation."""

    target_id: int
    function: str
    args: Tuple[Any, ...]
    caller_kind: str
    caller_id: Optional[int]
    size_bytes: float
    reply: Optional[Signal]
    reply_bytes: float = DEFAULT_REPLY_BYTES
    sent_at: float = 0.0
    message_id: int = field(default_factory=lambda: next(_message_ids))
    forwards: int = 0
    remote: bool = False  # set at routing time: crossed a server boundary
    #: Absolute sim time after which the caller no longer wants the
    #: reply.  Only set by clients when overload protection is active;
    #: the ``deadline`` shedding policy drops expired messages on
    #: arrival instead of wasting a saturated server's cycles.
    deadline_ms: Optional[float] = None

    def is_client_call(self) -> bool:
        return self.caller_kind == CLIENT_KIND
