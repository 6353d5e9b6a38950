"""The asyncio HTTP server and the ``python -m repro serve`` entry.

A deliberately minimal HTTP/1.1 implementation on
:func:`asyncio.start_server` — stdlib only, one connection per
request (``Connection: close``), JSON in and out.  That is all four
endpoints need, and it keeps the server importable everywhere the
repo runs (no aiohttp, no new runtime dependencies).

Request path for ``POST /v1/solve``::

    parse (protocol) → admit (admission) → memo? → dedup → executor
          400 on bad input   429/503 over quota   replay   collapse

The memo and result stores hold *response payloads* (plain dicts), so
replays are byte-for-byte what the original request saw, re-flagged
with ``"memo"``/``"dedup"`` to say how this particular request was
served.  With ``?stream=1`` the same path runs under a Server-Sent
Events response: lifecycle events stream live (in-process executor)
while the solve runs, then a terminal ``result`` event carries the
full response payload.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.api.memo import ResultMemo
from repro.api.service import InvariantService
from repro.infer.runner import STATUS_OK
from repro.serve.admission import AdmissionController
from repro.serve.dedup import InflightDeduper
from repro.serve.executor import (
    InProcessExecutor,
    QueueExecutor,
)
from repro.serve.protocol import (
    ProtocolError,
    SolveRequest,
    error_response,
    parse_solve_request,
    replayed,
    solve_response,
    solvers_response,
)
from repro.serve.stream import SSE_HEADERS, EventStream, sse_frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.infer.runner import ProblemRecord

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8977
DEFAULT_MEMO_ENTRIES = 256
MAX_BODY_BYTES = 2 * 1024 * 1024
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Maps straight to an error response."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class InvariantServer:
    """One service + one executor behind four HTTP endpoints.

    Args:
        service: the shared :class:`InvariantService` (its bus feeds
            SSE clients; ``/v1/stats`` reports its summed cache counters).
        executor: an :class:`InProcessExecutor` or :class:`QueueExecutor`.
        solver: the solver for requests that name none.
        admission: quota policy; defaults to a permissive controller.
        memo_entries: bound for the finished-response memo and the
            ``/v1/results`` store; 0 disables replay entirely.
        stream_max_pending: per-SSE-client pending-event bound
            (overflow drops oldest; see :mod:`repro.serve.stream`).
    """

    def __init__(
        self,
        service: InvariantService,
        executor,
        *,
        solver: str = "gcln",
        admission: AdmissionController | None = None,
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
        stream_max_pending: int | None = None,
    ):
        self.service = service
        self.executor = executor
        self.solver = solver
        self.admission = admission or AdmissionController()
        self.dedup = InflightDeduper()
        self.memo: ResultMemo[dict] = ResultMemo(max_entries=memo_entries)
        self.results: ResultMemo[dict] = ResultMemo(max_entries=max(memo_entries, 1))
        self.stream_max_pending = stream_max_pending
        self.requests = 0
        self.streams_active = 0
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str = DEFAULT_HOST, port: int = 0) -> None:
        """Bind and start accepting (``port=0`` picks a free port)."""
        self._server = await asyncio.start_server(self._handle, host, port)

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.executor.close()

    # -- connection handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                parsed = await self._read_request(reader)
                if parsed is None:
                    return
                method, path, query, headers, body = parsed
                self.requests += 1
                client = headers.get("x-client-id") or self._peer(writer)
                await self._route(
                    method, path, query, headers, body, client, writer
                )
            except _HttpError as exc:
                self._write_json(
                    writer,
                    exc.status,
                    error_response(str(exc)),
                    retry_after=exc.retry_after,
                )
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
            ):
                pass  # client went away; nothing to answer
            except Exception as exc:  # noqa: BLE001 — last-resort 500
                try:
                    self._write_json(
                        writer,
                        500,
                        error_response(f"{type(exc).__name__}: {exc}"),
                    )
                except (ConnectionResetError, BrokenPipeError):
                    pass
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _peer(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if isinstance(peer, (tuple, list)) and peer else "?"

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, f"malformed request line: {parts[:2]}")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= MAX_HEADERS:
                raise _HttpError(400, "too many headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as exc:
            raise _HttpError(400, "bad Content-Length") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        return method, split.path.rstrip("/") or "/", query, headers, body

    # -- routing ----------------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        headers: dict[str, str],
        body: bytes,
        client: str,
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/v1/solve":
            if method != "POST":
                raise _HttpError(405, "POST /v1/solve")
            stream = query.get("stream", "0") not in ("", "0", "false")
            await self._solve(body, client, stream, writer)
            return
        if path == "/v1/solvers":
            if method != "GET":
                raise _HttpError(405, "GET /v1/solvers")
            self._write_json(writer, 200, solvers_response())
            return
        if path == "/v1/stats":
            if method != "GET":
                raise _HttpError(405, "GET /v1/stats")
            self._write_json(writer, 200, self.stats())
            return
        if path.startswith("/v1/results/"):
            if method != "GET":
                raise _HttpError(405, "GET /v1/results/<id>")
            result_id = path[len("/v1/results/"):]
            stored = self.results.get(result_id)
            if stored is None:
                raise _HttpError(404, f"no result {result_id!r}")
            self._write_json(writer, 200, stored)
            return
        raise _HttpError(404, f"no route {method} {path}")

    # -- the solve path ----------------------------------------------------------

    def _fingerprint(self, request: SolveRequest) -> str:
        from repro.utils.fingerprint import problem_fingerprint

        config = request.config
        if config is None:
            if isinstance(self.executor, QueueExecutor):
                config = self.executor.config
            else:
                config = self.service.config
        return problem_fingerprint(request.problem, request.solver, config)

    async def _solve_shared(self, request: SolveRequest, fingerprint: str) -> dict:
        """The deduplicated, memoizing solve; returns the base response.

        Memoization happens *inside* the shared work so the result is
        stored even when every waiting client has disconnected.
        """

        async def work() -> dict:
            record: "ProblemRecord" = await self.executor.solve(
                request, fingerprint
            )
            response = solve_response(fingerprint, record, request.solver)
            if record.status == STATUS_OK:
                self.memo.put(fingerprint, response)
            self.results.put(response["id"], response)
            return response

        response, joined = await self.dedup.run(fingerprint, work)
        return replayed(response, dedup=joined)

    async def _solve(
        self,
        body: bytes,
        client: str,
        stream: bool,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = parse_solve_request(body, default_solver=self.solver)
        except ProtocolError as exc:
            raise _HttpError(400, str(exc)) from exc
        status, retry_after = self.admission.admit(client)
        if status:
            reason = (
                "client over request rate"
                if status == 429
                else "server at max in-flight solves"
            )
            raise _HttpError(status, reason, retry_after=retry_after)
        try:
            fingerprint = self._fingerprint(request)
            stored = self.memo.get(fingerprint)
            if stream:
                await self._solve_stream(request, fingerprint, stored, writer)
            elif stored is not None:
                self._write_json(writer, 200, replayed(stored, memo=True))
            else:
                try:
                    response = await self._solve_shared(request, fingerprint)
                except ProtocolError as exc:
                    raise _HttpError(400, str(exc)) from exc
                self._write_json(writer, 200, response)
        finally:
            self.admission.release()

    async def _solve_stream(
        self,
        request: SolveRequest,
        fingerprint: str,
        stored: dict | None,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._write_head(writer, 200, SSE_HEADERS)
        self.streams_active += 1
        stream = EventStream(
            asyncio.get_running_loop(),
            **(
                {"max_pending": self.stream_max_pending}
                if self.stream_max_pending is not None
                else {}
            ),
        )
        saw_solved = False

        def forward(event) -> None:
            nonlocal saw_solved
            if (
                event.problem == request.problem.name
                and event.solver == request.solver
            ):
                if event.kind == "problem_solved":
                    saw_solved = True
                stream.publish(event)

        unsubscribe = self.service.bus.subscribe(forward)
        try:
            writer.write(
                sse_frame(
                    "status",
                    {
                        "event": "status",
                        "state": "memo" if stored is not None else "started",
                        "mode": self.executor.mode,
                        "problem": request.problem.name,
                        "solver": request.solver,
                    },
                )
            )
            await writer.drain()
            if stored is not None:
                response = replayed(stored, memo=True)
            else:
                solve = asyncio.ensure_future(
                    self._solve_shared(request, fingerprint)
                )
                try:
                    while not solve.done():
                        frames = await stream.drain(timeout=0.1)
                        for frame in frames:
                            writer.write(frame)
                        if frames:
                            await writer.drain()
                    response = solve.result()
                except ProtocolError as exc:
                    writer.write(
                        sse_frame(
                            "error", {"event": "error", "error": str(exc)}
                        )
                    )
                    await writer.drain()
                    return
                except (ConnectionResetError, BrokenPipeError):
                    # Client gone: the shared solve continues for any
                    # followers; nothing more to write here.
                    raise
                # One loop tick so events emitted just before completion
                # (scheduled with call_soon_threadsafe) land, then flush.
                await asyncio.sleep(0)
                for frame in stream.drain_now():
                    writer.write(frame)
            if not saw_solved:
                # Queue-backed (or memo-replayed) solves have no live
                # bus feed; synthesize the terminal lifecycle event so
                # every stream ends with problem_solved → result.
                writer.write(
                    sse_frame(
                        "problem_solved",
                        {
                            "event": "problem_solved",
                            "problem": response["problem"],
                            "solver": response["solver"],
                            "solved": response["solved"],
                            "runtime_seconds": response["runtime_seconds"],
                            "attempts": (
                                response["result"]["attempts"]
                                if response.get("result")
                                else 0
                            ),
                        },
                    )
                )
            writer.write(sse_frame("result", response))
            await writer.drain()
        finally:
            self.streams_active -= 1
            unsubscribe()

    # -- stats ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "streams_active": self.streams_active,
            "executor": self.executor.describe(),
            "admission": self.admission.stats(),
            "dedup": self.dedup.stats(),
            "memo": self.memo.stats(),
            "results_stored": len(self.results),
            "cache": self.service.cache_stats,
            "subscriber_errors": self.service.bus.subscriber_errors,
        }

    # -- response writing --------------------------------------------------------

    @staticmethod
    def _write_head(
        writer: asyncio.StreamWriter,
        status: int,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}", "Connection: close"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))

    @classmethod
    def _write_json(
        cls,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        retry_after: float | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
        headers = [
            ("Content-Type", "application/json; charset=utf-8"),
            ("Content-Length", str(len(body))),
        ]
        if retry_after is not None:
            headers.append(("Retry-After", str(max(1, round(retry_after)))))
        cls._write_head(writer, status, tuple(headers))
        writer.write(body)


# -- CLI entry -------------------------------------------------------------------


def build_server(args) -> tuple[InvariantServer, InvariantService]:
    """Construct the service + executor + server from parsed CLI args."""
    from repro.infer.config import InferenceConfig

    config = InferenceConfig(max_epochs=args.epochs)
    service = InvariantService(config)
    if args.queue_dir:
        executor = QueueExecutor(
            args.queue_dir,
            solver=args.solver,
            config=config,
            timeout_seconds=args.timeout,
            wait_seconds=args.queue_wait,
        )
    else:
        executor = InProcessExecutor(service, threads=args.solve_threads)
    admission = AdmissionController(
        rate=args.rate, burst=args.burst, max_inflight=args.max_inflight
    )
    server = InvariantServer(
        service,
        executor,
        solver=args.solver,
        admission=admission,
        memo_entries=args.memo,
    )
    return server, service


async def _amain(args) -> int:
    server, _service = build_server(args)
    await server.start(args.host, args.port)
    mode = server.executor.describe()
    print(
        f"serving on http://{args.host}:{server.port} "
        f"(mode={mode['mode']}, solver={args.solver}); Ctrl-C to stop",
        flush=True,
    )
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, ValueError):  # pragma: no cover
            pass
    serve_task = asyncio.ensure_future(server.serve_forever())
    await stop.wait()
    serve_task.cancel()
    await server.close()
    print("server stopped", flush=True)
    return 0


def serve_main(args) -> int:
    """The ``python -m repro serve`` command body."""
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def main(argv: list[str] | None = None) -> int:  # pragma: no cover
    """Standalone entry (``python -m repro.serve.app``)."""
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", *(argv or [])])
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
