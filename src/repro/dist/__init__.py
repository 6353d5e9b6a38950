"""Distributed suite execution: journaled work queue + workers.

The distributed runner fans a suite out beyond one process (and, with a
shared filesystem, beyond one host) through a few small pieces:

* :mod:`repro.dist.queue` — a filesystem-backed work queue.  Items are
  JSON files moved between ``pending/``, ``claimed/``, and ``done/``
  with atomic renames; finished :class:`~repro.infer.runner.
  ProblemRecord` payloads append to a ``journal.jsonl``; claims carry a
  lease so items held by crashed workers are re-claimed.
* :mod:`repro.dist.worker` — the worker loop: claim a batch, solve it
  through the worker's :class:`~repro.api.service.InvariantService`
  (each solve memoizes only its own traces), ack each record, repeat
  until the queue drains.
* :mod:`repro.dist.coordinator` — enqueue a suite (skipping journaled
  items, so resume is free), spawn local workers (a fixed count or an
  elastic ``workers="auto"`` fleet sized to queue depth), wait, and
  merge the journal into the same payload ``run-all --json`` emits.
  It is the fan-out of ``InvariantService.solve_many(jobs=N)``.
* :mod:`repro.dist.transport` — the byte-transport layer under the
  queue: :class:`~repro.dist.transport.LocalDirTransport` (the PR 5
  directory semantics) and :class:`~repro.dist.transport.HttpTransport`
  (follow a queue with no filesystem access, with retry/backoff).
* :mod:`repro.dist.server` — ``python -m repro queue-server``, the
  thin HTTP object-store endpoint remote followers talk to.  It is not
  imported here, and :class:`~repro.dist.transport.HttpTransport`
  imports ``urllib`` only when used, so a local fan-out loads no HTTP
  code.

Everything rides on the wire formats of the earlier PRs:
``ProblemRecord.to_dict()`` is the journal line and
:mod:`repro.dist.wire` round-trips problems/configs/records as JSON.
"""

from repro.dist.coordinator import (
    enqueue_suite,
    merge_payload,
    run_distributed,
)
from repro.dist.queue import QueueError, WorkItem, WorkQueue
from repro.dist.transport import (
    HttpTransport,
    LocalDirTransport,
    RetryingTransport,
    Transport,
    TransportError,
    TransportNotFound,
    transport_for,
)
from repro.dist.wire import (
    config_from_dict,
    config_to_dict,
    problem_from_dict,
    problem_to_dict,
)
from repro.dist.worker import Worker, install_stop_handler

__all__ = [
    "HttpTransport",
    "LocalDirTransport",
    "QueueError",
    "RetryingTransport",
    "Transport",
    "TransportError",
    "TransportNotFound",
    "WorkItem",
    "WorkQueue",
    "Worker",
    "config_from_dict",
    "config_to_dict",
    "enqueue_suite",
    "install_stop_handler",
    "merge_payload",
    "problem_from_dict",
    "problem_to_dict",
    "run_distributed",
    "transport_for",
]
