"""Server-Sent Events: bridging the sync EventBus into asyncio clients.

Solvers emit lifecycle events synchronously on the solving thread; SSE
clients live on the asyncio loop.  An :class:`EventStream` is the
bridge for one client: the bus callback (solver thread) hands each
event to the loop with ``call_soon_threadsafe``; the client coroutine
awaits :meth:`drain` and writes frames.

Backpressure is the whole design problem: a slow or stalled client
must never block the solver or grow memory without bound.  Each stream
holds a *bounded* pending deque; when it overflows, the **oldest**
pending event is dropped (the newest events are the ones a live
dashboard wants) and the loss is made visible — the next drain yields
a synthetic ``dropped`` event carrying the count, so clients can tell
"quiet solver" from "I was too slow".

Frame format (`text/event-stream`)::

    event: stage_timed
    data: {"event": "stage_timed", "problem": "ps2", ...}

Every frame's ``data`` is one JSON object; the ``event`` field names
the kind (the same ``Event.kind`` tags :meth:`Event.to_dict` embeds).
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.events import Event

# Enough for the chattiest solver (hundreds of candidate checks) while
# bounding a stalled client to a few hundred small dicts.
DEFAULT_MAX_PENDING = 512

SSE_HEADERS = (
    ("Content-Type", "text/event-stream; charset=utf-8"),
    ("Cache-Control", "no-store"),
)


def sse_frame(kind: str, payload: dict) -> bytes:
    """One SSE frame: ``event:`` the kind, ``data:`` the JSON payload."""
    data = json.dumps(payload, sort_keys=True, default=repr)
    return f"event: {kind}\ndata: {data}\n\n".encode("utf-8")


class EventStream:
    """One SSE client's bounded, thread-fed event queue.

    Args:
        loop: the serving event loop (frames are consumed there).
        max_pending: pending-event bound; overflow drops the oldest
            and surfaces a ``dropped`` event on the next drain.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
    ):
        self._loop = loop
        self._pending: deque[dict] = deque()
        self._max_pending = max(1, max_pending)
        self._wakeup = asyncio.Event()
        self._closed = False
        self.dropped_total = 0
        self._dropped_unreported = 0

    # -- producer side (any thread) --------------------------------------------

    def publish(self, event: "Event") -> None:
        """Bus callback: hand one event to the loop (thread-safe)."""
        try:
            self._loop.call_soon_threadsafe(self._push, event.to_dict())
        except RuntimeError:
            pass  # loop already closed; the client is gone anyway

    def close(self) -> None:
        """No more events; pending ones still drain (thread-safe)."""
        try:
            self._loop.call_soon_threadsafe(self._close)
        except RuntimeError:
            pass

    # -- loop-side internals ----------------------------------------------------

    def _push(self, payload: dict) -> None:
        if self._closed:
            return
        if len(self._pending) >= self._max_pending:
            self._pending.popleft()
            self.dropped_total += 1
            self._dropped_unreported += 1
        self._pending.append(payload)
        self._wakeup.set()

    def _close(self) -> None:
        self._closed = True
        self._wakeup.set()

    # -- consumer side (the loop) -----------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed and not self._pending

    def drain_now(self) -> Iterator[bytes]:
        """Frames for everything currently pending (no waiting).

        A ``dropped`` event is emitted first when events were lost
        since the previous drain, so the loss is reported in-order.
        """
        if self._dropped_unreported:
            count, self._dropped_unreported = self._dropped_unreported, 0
            yield sse_frame(
                "dropped", {"event": "dropped", "count": count}
            )
        while self._pending:
            payload = self._pending.popleft()
            yield sse_frame(payload["event"], payload)

    async def drain(self, timeout: float | None = None) -> list[bytes]:
        """Wait for activity, then return all pending frames.

        Returns ``[]`` on timeout or once the stream is closed and
        empty — callers distinguish the two via :attr:`closed`.
        """
        if not self._pending and not self._closed:
            self._wakeup.clear()
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout)
            except asyncio.TimeoutError:
                return []
        return list(self.drain_now())
