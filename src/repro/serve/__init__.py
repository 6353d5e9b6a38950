"""Network front end: an asyncio HTTP/JSON service over the API.

``python -m repro serve`` exposes one long-lived
:class:`~repro.api.service.InvariantService` over HTTP — pure stdlib
(``asyncio`` + ``json``), no new runtime dependencies:

* ``POST /v1/solve`` — solve one problem (inline definition or a suite
  reference); ``?stream=1`` upgrades the response to Server-Sent
  Events and streams the live lifecycle feed (attempts, stage
  timings, candidate checks) before the final result.
* ``GET /v1/solvers`` — the registered solver table.
* ``GET /v1/results/<id>`` — re-fetch a finished result by id.
* ``GET /v1/stats`` — admission/dedup/memo/cache counters.

Three request-collapsing layers sit in front of the solver, all keyed
by the canonical :func:`~repro.utils.fingerprint.problem_fingerprint`
(the same key the distributed queue uses):

1. **admission** (:mod:`repro.serve.admission`) — per-client token
   buckets and a global in-flight cap; over-limit requests get
   ``429``/``503`` with ``Retry-After`` instead of queueing unbounded.
2. **dedup** (:mod:`repro.serve.dedup`) — N concurrent identical
   requests trigger exactly one solve; followers await the leader's
   future.
3. **memo** (:class:`~repro.api.memo.ResultMemo`) — finished results
   replay instantly (``"memo": true`` in the response).

Solving is pluggable (:mod:`repro.serve.executor`): the default runs
``service.solve`` in-process on a thread pool sharing the service's
event bus;
``--queue-dir`` enqueues onto the :mod:`repro.dist` work queue and
tails the journal, so any fleet of ``python -m repro worker``
processes does the solving.
"""

from repro.serve.app import InvariantServer, main, serve_main
from repro.serve.protocol import ProtocolError, parse_solve_request

__all__ = [
    "InvariantServer",
    "ProtocolError",
    "main",
    "parse_solve_request",
    "serve_main",
]
