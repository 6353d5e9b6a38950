"""Typed lifecycle events and the subscriber bus for the public API.

Solvers emit events while they work; an :class:`EventBus` fans each
event out to subscriber callbacks.  This is the hook point for async
front-ends (stream progress to a websocket), per-stage profiling
(aggregate :class:`StageTimed` records across a batch), and live
dashboards — without the solvers knowing who is listening.

Layering: this module is pure stdlib on purpose.  Both the inference
runtime (:mod:`repro.infer.pipeline`) and the API adapters import it,
so it must not import anything from :mod:`repro`.

Event vocabulary (one dataclass per lifecycle point):

* :class:`AttemptStarted` — a solver begins one attempt on a problem.
* :class:`StageTimed` — one pipeline stage of an attempt finished;
  carries the wall-clock seconds.  Stages are :data:`STAGES`.
* :class:`CandidateChecked` — the checker accepted or rejected one
  candidate atom.
* :class:`ProblemSolved` — a solve call finished (``solved`` may be
  ``False``; the event marks completion, not success).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator

# Pipeline stages that StageTimed events (and SolveResult.stage_timings)
# report on.  Every solver reports the same four keys; stages a solver
# does not have (e.g. "train" for an exact method) report 0.0 seconds.
STAGES: tuple[str, ...] = ("collect", "train", "extract", "check")


@dataclass(frozen=True)
class Event:
    """Base class: every event names its problem and solver."""

    problem: str
    solver: str

    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict:
        """JSON-serializable view, tagged with the event kind."""
        payload = dataclasses.asdict(self)
        payload["event"] = self.kind
        return payload


@dataclass(frozen=True)
class AttemptStarted(Event):
    """A solver began attempt ``attempt`` (1-based) on a problem."""

    attempt: int = 1
    dropout: float | None = None
    fractional_interval: float | None = None

    kind: ClassVar[str] = "attempt_started"


@dataclass(frozen=True)
class StageTimed(Event):
    """One pipeline stage of one attempt finished.

    ``stage`` is one of :data:`STAGES`; ``seconds`` is the wall-clock
    time the stage took within that attempt.
    """

    stage: str = ""
    seconds: float = 0.0
    attempt: int = 1

    kind: ClassVar[str] = "stage_timed"


@dataclass(frozen=True)
class CandidateChecked(Event):
    """The checker accepted (``sound``) or rejected one candidate atom."""

    loop_index: int = 0
    atom: str = ""
    sound: bool = False
    reason: str | None = None

    kind: ClassVar[str] = "candidate_checked"


@dataclass(frozen=True)
class ProblemSolved(Event):
    """A solve call completed (successfully or not)."""

    solved: bool = False
    runtime_seconds: float = 0.0
    attempts: int = 0

    kind: ClassVar[str] = "problem_solved"


# A solver-facing event sink: solvers call it with each event and never
# learn who subscribes.  EventBus.emit satisfies this signature.
EventSink = Callable[[Event], None]


class EventBus:
    """Fans events out to subscriber callbacks.

    Subscribers must never break a solve: a callback that raises is
    counted in :attr:`subscriber_errors` and skipped, not propagated.

    Thread-safe: subscribe/unsubscribe/emit may race from any number of
    threads (the serving front end emits from executor threads while
    clients subscribe and disconnect on the event loop).  Emission
    snapshots the subscriber table under a lock and delivers *outside*
    it, so a callback that itself subscribes or unsubscribes — or
    emits — cannot deadlock.  A subscriber unsubscribed mid-emit may
    still receive the event already in flight; it never receives later
    ones.
    """

    def __init__(self) -> None:
        self._subscribers: dict[int, tuple[Callable[[Event], None], tuple[type, ...] | None]] = {}
        self._next_token = 0
        self._lock = threading.Lock()
        self.subscriber_errors = 0

    def __len__(self) -> int:
        return len(self._subscribers)

    def subscribe(
        self,
        callback: Callable[[Event], None],
        kinds: Iterable[type] | None = None,
    ) -> Callable[[], None]:
        """Register ``callback``; returns a zero-argument unsubscriber.

        Args:
            callback: called synchronously with each emitted event.
            kinds: optional event classes to filter on (e.g.
                ``(StageTimed,)``); ``None`` receives everything.
        """
        filters = tuple(kinds) if kinds is not None else None
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._subscribers[token] = (callback, filters)

        def unsubscribe() -> None:
            with self._lock:
                self._subscribers.pop(token, None)

        return unsubscribe

    def emit(self, event: Event) -> None:
        """Deliver ``event`` to every matching subscriber."""
        with self._lock:
            subscribers = list(self._subscribers.values())
        for callback, kinds in subscribers:
            if kinds is not None and not isinstance(event, kinds):
                continue
            try:
                callback(event)
            except Exception:  # noqa: BLE001 — subscribers must not break solves
                self.subscriber_errors += 1


@contextmanager
def timed_stage(timings: dict[str, float], stage: str) -> Iterator[None]:
    """Accumulate the block's wall-clock seconds into ``timings[stage]``.

    Exceptions propagate but the elapsed time is still recorded, so a
    failed training stage shows up in the profile instead of vanishing.
    """
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - start
