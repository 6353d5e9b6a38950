"""Tests for the HTTP front end: protocol, admission, dedup, SSE, server."""

import asyncio
import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import EventBus, InvariantService, StageTimed
from repro.dist.wire import config_to_dict, problem_to_dict
from repro.infer import InferenceConfig, Problem
from repro.infer.runner import STATUS_ERROR, STATUS_OK, ProblemRecord, run_many
from repro.serve.admission import AdmissionController
from repro.serve.app import InvariantServer
from repro.serve.dedup import InflightDeduper
from repro.serve.executor import InProcessExecutor, QueueExecutor
from repro.serve.protocol import (
    ProtocolError,
    parse_solve_request,
    solve_response,
)
from repro.serve.stream import EventStream, sse_frame
from repro.utils.fingerprint import problem_fingerprint

FAST_CONFIG = InferenceConfig(max_epochs=60, dropout_schedule=(0.6,))


def tiny_problem(name: str = "srv", step: int = 1) -> Problem:
    return Problem(
        name=name,
        source=f"""
program {name};
input n;
assume (n >= 0);
i = 0; x = 0;
while (i < n) {{ i = i + 1; x = x + {step}; }}
""",
        train_inputs=[{"n": v} for v in range(0, 8)],
        max_degree=1,
        ground_truth={0: [f"x == {step} * i"]},
    )


# -- protocol ------------------------------------------------------------------


def test_parse_rejects_malformed_bodies():
    for bad in [b"not json", b"[]", b"{}", b'{"suite": "nla"}']:
        with pytest.raises(ProtocolError):
            parse_solve_request(bad)
    with pytest.raises(ProtocolError, match="unknown suite"):
        parse_solve_request(b'{"suite": "nope", "problem": "ps2"}')
    with pytest.raises(ProtocolError, match="available"):
        parse_solve_request(
            b'{"suite": "nla", "problem": "ps2", "solver": "nope"}'
        )


def test_parse_suite_reference_and_inline_agree():
    by_ref = parse_solve_request(b'{"suite": "nla", "problem": "ps2"}')
    assert by_ref.problem.name == "ps2" and by_ref.solver == "gcln"
    inline_body = json.dumps(
        {"problem": problem_to_dict(by_ref.problem), "solver": "numinv"}
    ).encode()
    inline = parse_solve_request(inline_body)
    assert inline.solver == "numinv"
    assert problem_to_dict(inline.problem) == problem_to_dict(by_ref.problem)


def test_parse_request_defaults_to_the_servers_solver():
    body = b'{"suite": "nla", "problem": "ps2"}'
    assert parse_solve_request(body).solver == "gcln"
    assert parse_solve_request(body, default_solver="numinv").solver == "numinv"
    named = b'{"suite": "nla", "problem": "ps2", "solver": "octahedral"}'
    assert parse_solve_request(named, default_solver="numinv").solver == "octahedral"


def test_parse_request_config_roundtrips():
    body = json.dumps(
        {
            "suite": "nla",
            "problem": "ps2",
            "config": {"max_epochs": 42},
        }
    ).encode()
    request = parse_solve_request(body)
    assert request.config.max_epochs == 42


def test_solve_response_schema():
    problem = tiny_problem()
    fp = problem_fingerprint(problem, "gcln", FAST_CONFIG)
    [record] = run_many([problem], FAST_CONFIG)
    response = solve_response(fp, record, "gcln")
    assert response["id"] == fp[:16]
    assert response["status"] == STATUS_OK
    assert response["solved"] is True
    assert response["memo"] is False and response["dedup"] is False
    assert response["result"]["solver"] == "gcln"
    json.dumps(response)  # must be pure JSON


# -- admission ------------------------------------------------------------------


def test_token_bucket_rate_limits_per_client():
    clock = [0.0]
    ctl = AdmissionController(
        rate=1.0, burst=2, max_inflight=0, clock=lambda: clock[0]
    )
    assert ctl.admit("a") == (0, 0.0)
    assert ctl.admit("a") == (0, 0.0)
    status, retry = ctl.admit("a")
    assert status == 429 and retry == pytest.approx(1.0)
    # an unrelated client has its own bucket
    assert ctl.admit("b")[0] == 0
    # tokens refill with time
    clock[0] = 1.5
    assert ctl.admit("a")[0] == 0
    assert ctl.stats()["rejected_rate"] == 1


def test_inflight_cap_returns_503_until_release():
    ctl = AdmissionController(rate=0, max_inflight=2)
    assert ctl.admit("a")[0] == 0
    assert ctl.admit("b")[0] == 0
    status, retry = ctl.admit("c")
    assert status == 503 and retry > 0
    ctl.release()
    assert ctl.admit("c")[0] == 0
    assert ctl.stats()["rejected_capacity"] == 1


# -- dedup ----------------------------------------------------------------------


def test_dedup_collapses_concurrent_identical_requests():
    async def scenario():
        dedup = InflightDeduper()
        calls = []

        async def work():
            calls.append(1)
            await asyncio.sleep(0.05)
            return "outcome"

        results = await asyncio.gather(
            *(dedup.run("key", work) for _ in range(8))
        )
        return calls, results, dedup

    calls, results, dedup = asyncio.run(scenario())
    assert len(calls) == 1
    assert all(outcome == "outcome" for outcome, _ in results)
    assert sum(1 for _, joined in results if not joined) == 1
    assert dedup.stats() == {"inflight": 0, "led": 1, "joined": 7}


def test_dedup_failure_fans_out_and_clears():
    async def scenario():
        dedup = InflightDeduper()

        async def boom():
            await asyncio.sleep(0.02)
            raise RuntimeError("solver exploded")

        waiters = await asyncio.gather(
            *(dedup.run("k", boom) for _ in range(3)), return_exceptions=True
        )
        assert all(isinstance(w, RuntimeError) for w in waiters)
        assert len(dedup) == 0  # cleared: the key is retryable

        async def fine():
            return 42

        outcome, joined = await dedup.run("k", fine)
        assert outcome == 42 and not joined

    asyncio.run(scenario())


def test_dedup_survives_waiter_cancellation():
    """A cancelled client (leader included) must not kill the shared solve."""

    async def scenario():
        dedup = InflightDeduper()
        finished = asyncio.Event()

        async def work():
            await asyncio.sleep(0.05)
            finished.set()
            return "done"

        leader = asyncio.ensure_future(dedup.run("k", work))
        await asyncio.sleep(0.01)
        follower = asyncio.ensure_future(dedup.run("k", work))
        await asyncio.sleep(0.01)
        leader.cancel()
        outcome, joined = await follower
        assert outcome == "done" and joined
        assert finished.is_set()

    asyncio.run(scenario())


# -- SSE stream ------------------------------------------------------------------


def test_sse_frame_format():
    frame = sse_frame("stage_timed", {"event": "stage_timed", "seconds": 1.5})
    text = frame.decode()
    assert text.startswith("event: stage_timed\ndata: ")
    assert text.endswith("\n\n")
    payload = json.loads(text.split("data: ", 1)[1])
    assert payload == {"event": "stage_timed", "seconds": 1.5}


def _event(i: int) -> StageTimed:
    return StageTimed(problem="p", solver="s", stage="train", seconds=float(i))


def test_event_stream_orders_and_drains():
    async def scenario():
        stream = EventStream(asyncio.get_running_loop())
        for i in range(3):
            stream.publish(_event(i))
        stream.close()
        await asyncio.sleep(0)  # let call_soon_threadsafe callbacks run
        frames = await stream.drain()
        seconds = [
            json.loads(f.decode().split("data: ", 1)[1])["seconds"]
            for f in frames
        ]
        assert seconds == [0.0, 1.0, 2.0]
        assert stream.closed
        assert await stream.drain() == []

    asyncio.run(scenario())


def test_event_stream_overflow_drops_oldest_and_reports():
    async def scenario():
        stream = EventStream(asyncio.get_running_loop(), max_pending=3)
        for i in range(5):
            stream.publish(_event(i))
        await asyncio.sleep(0)
        frames = await stream.drain()
        kinds = [f.decode().split("\n", 1)[0] for f in frames]
        assert kinds[0] == "event: dropped"  # loss reported first, in-order
        dropped = json.loads(frames[0].decode().split("data: ", 1)[1])
        assert dropped["count"] == 2
        assert stream.dropped_total == 2
        seconds = [
            json.loads(f.decode().split("data: ", 1)[1])["seconds"]
            for f in frames[1:]
        ]
        assert seconds == [2.0, 3.0, 4.0]  # oldest were dropped

    asyncio.run(scenario())


def test_event_stream_publish_from_thread():
    async def scenario():
        stream = EventStream(asyncio.get_running_loop())

        def producer():
            for i in range(20):
                stream.publish(_event(i))
            stream.close()

        thread = threading.Thread(target=producer)
        thread.start()
        got = []
        while not stream.closed:
            got.extend(await stream.drain(timeout=1.0))
        thread.join()
        assert len(got) == 20

    asyncio.run(scenario())


# -- EventBus thread-safety -------------------------------------------------------


def test_event_bus_concurrent_emit_subscribe_unsubscribe():
    bus = EventBus()
    received = []
    stop = threading.Event()
    errors = []

    def emitter():
        while not stop.is_set():
            bus.emit(_event(0))

    def churner():
        try:
            while not stop.is_set():
                unsubscribe = bus.subscribe(received.append)
                unsubscribe()
        except Exception as exc:  # noqa: BLE001 — the test assertion
            errors.append(exc)

    threads = [threading.Thread(target=emitter) for _ in range(2)] + [
        threading.Thread(target=churner) for _ in range(2)
    ]
    for t in threads:
        t.start()
    time.sleep(0.3)
    stop.set()
    for t in threads:
        t.join()
    assert errors == []
    assert bus.subscriber_errors == 0
    assert len(bus) == 0  # every subscription was cleanly removed


def test_event_bus_callback_may_unsubscribe_itself_during_emit():
    bus = EventBus()
    seen = []
    unsubscribe_holder = {}

    def once(event):
        seen.append(event)
        unsubscribe_holder["u"]()

    unsubscribe_holder["u"] = bus.subscribe(once)
    bus.emit(_event(1))
    bus.emit(_event(2))
    assert len(seen) == 1
    assert bus.subscriber_errors == 0


# -- the HTTP server --------------------------------------------------------------


class StubExecutor:
    """Canned records + call counting, optionally slow."""

    mode = "stub"

    def __init__(self, delay: float = 0.0, fail: bool = False):
        self.delay = delay
        self.fail = fail
        self.calls = 0
        self._lock = threading.Lock()

    async def solve(self, request, fingerprint):
        with self._lock:
            self.calls += 1
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.fail:
            return ProblemRecord(
                name=request.problem.name,
                status=STATUS_ERROR,
                error="stub failure",
            )
        return ProblemRecord(
            name=request.problem.name, status=STATUS_OK, runtime_seconds=0.01
        )

    def describe(self):
        return {"mode": self.mode}

    def close(self):
        pass


class ServerHarness:
    """Runs an InvariantServer on a private loop thread; plain-HTTP client."""

    def __init__(self, server: InvariantServer):
        self.server = server
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start("127.0.0.1", 0))
        self.loop.run_forever()

    def __enter__(self):
        self._thread.start()
        deadline = time.time() + 5
        while self.server._server is None:
            if time.time() > deadline:
                raise TimeoutError("server did not start")
            time.sleep(0.01)
        self.base = f"http://127.0.0.1:{self.server.port}"
        return self

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop
        ).result(timeout=5)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        self.loop.close()

    def request(self, path, body=None, method=None, headers=None):
        """(status, parsed JSON) for one request; errors are not raised."""
        req = urllib.request.Request(
            self.base + path,
            data=body,
            method=method or ("POST" if body is not None else "GET"),
            headers=headers or {},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read() or b"null")
        except urllib.error.HTTPError as err:
            payload = err.read()
            return err.code, json.loads(payload) if payload else None

    def sse(self, path, body):
        """All SSE frames of one streamed solve, as (kind, payload) pairs."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=60
        )
        try:
            conn.request("POST", path, body=body)
            resp = conn.getresponse()
            assert resp.status == 200, resp.read()
            assert resp.getheader("Content-Type", "").startswith(
                "text/event-stream"
            )
            text = resp.read().decode()
        finally:
            conn.close()
        frames = []
        for block in text.strip().split("\n\n"):
            lines = dict(
                line.split(": ", 1) for line in block.splitlines() if line
            )
            frames.append((lines["event"], json.loads(lines["data"])))
        return frames


def stub_server(**kwargs) -> tuple[InvariantServer, StubExecutor]:
    service = InvariantService(FAST_CONFIG)
    executor = kwargs.pop("executor", None) or StubExecutor(
        delay=kwargs.pop("delay", 0.0)
    )
    server = InvariantServer(
        service,
        executor,
        admission=kwargs.pop(
            "admission", AdmissionController(rate=0, max_inflight=0)
        ),
        **kwargs,
    )
    return server, executor


def solve_body(problem: Problem, **extra) -> bytes:
    return json.dumps({"problem": problem_to_dict(problem), **extra}).encode()


def test_http_basic_endpoints_and_errors():
    server, _ = stub_server()
    with ServerHarness(server) as h:
        status, payload = h.request("/v1/solvers")
        assert status == 200
        assert {s["name"] for s in payload["solvers"]} >= {"gcln", "numinv"}

        status, payload = h.request("/v1/stats")
        assert status == 200 and payload["requests"] >= 1

        status, payload = h.request("/nope")
        assert status == 404
        status, payload = h.request("/v1/solve")  # GET on a POST route
        assert status == 405
        status, payload = h.request("/v1/solve", body=b"not json")
        assert status == 400 and "JSON" in payload["error"]
        status, payload = h.request("/v1/results/missing")
        assert status == 404


def test_http_solve_rejects_unknown_config_key():
    server, executor = stub_server()
    body = solve_body(tiny_problem(), config={"warm_start": True})
    with ServerHarness(server) as h:
        status, payload = h.request("/v1/solve", body=body)
    assert status == 400
    assert "warm_start" in payload["error"]
    assert executor.calls == 0


def test_http_solve_rejects_unknown_gcln_config_key():
    """The config is flat: a nested ``gcln`` block is refused."""
    server, executor = stub_server()
    body = solve_body(tiny_problem(), config={"gcln": {"max_epochs": 10}})
    with ServerHarness(server) as h:
        status, payload = h.request("/v1/solve", body=body)
    assert status == 400
    assert "gcln" in payload["error"]
    assert executor.calls == 0


def test_http_solve_rejects_ill_typed_config_value():
    """A string where a bool belongs is a 400, not a silent switch-on."""
    server, executor = stub_server()
    body = solve_body(tiny_problem(), config={"term_dropout": "no"})
    with ServerHarness(server) as h:
        status, payload = h.request("/v1/solve", body=body)
    assert status == 400
    assert "term_dropout" in payload["error"]
    assert executor.calls == 0


def test_http_solve_memo_and_result_store():
    server, executor = stub_server()
    problem = tiny_problem()
    with ServerHarness(server) as h:
        status, first = h.request("/v1/solve", body=solve_body(problem))
        assert status == 200
        assert first["status"] == STATUS_OK
        assert first["memo"] is False and first["dedup"] is False
        assert executor.calls == 1

        status, second = h.request("/v1/solve", body=solve_body(problem))
        assert second["memo"] is True
        assert executor.calls == 1  # replayed, not re-solved

        status, fetched = h.request("/v1/results/" + first["id"])
        assert status == 200 and fetched["fingerprint"] == first["fingerprint"]

        # a different problem is a different fingerprint → fresh solve
        status, third = h.request("/v1/solve", body=solve_body(tiny_problem(step=2)))
        assert third["memo"] is False and executor.calls == 2


def test_http_error_records_are_not_memoized():
    server, executor = stub_server(executor=StubExecutor(fail=True))
    problem = tiny_problem()
    with ServerHarness(server) as h:
        status, first = h.request("/v1/solve", body=solve_body(problem))
        assert status == 200 and first["status"] == STATUS_ERROR
        assert "stub failure" in first["error"]
        status, second = h.request("/v1/solve", body=solve_body(problem))
        assert second["memo"] is False  # errors retry
        assert executor.calls == 2


def test_http_concurrent_identical_requests_solve_once():
    server, executor = stub_server(delay=0.3)
    problem = tiny_problem()
    body = solve_body(problem)
    with ServerHarness(server) as h:
        results = []

        def post():
            results.append(h.request("/v1/solve", body=body))

        threads = [threading.Thread(target=post) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert executor.calls == 1  # exactly one solve for six requests
        statuses = [status for status, _ in results]
        assert statuses == [200] * 6
        dedup_flags = sorted(payload["dedup"] for _, payload in results)
        assert dedup_flags.count(False) == 1  # one leader
        assert server.dedup.stats()["joined"] == 5


def test_http_rate_limit_and_capacity():
    server, _ = stub_server(
        admission=AdmissionController(rate=0.001, burst=2, max_inflight=0),
        delay=0.0,
    )
    problem = tiny_problem()
    with ServerHarness(server) as h:
        headers = {"X-Client-Id": "impatient"}
        assert h.request("/v1/solve", body=solve_body(problem), headers=headers)[0] == 200
        assert h.request("/v1/solve", body=solve_body(problem), headers=headers)[0] == 200
        status, payload = h.request(
            "/v1/solve", body=solve_body(problem), headers=headers
        )
        assert status == 429 and "rate" in payload["error"]
        # other clients are unaffected
        assert h.request(
            "/v1/solve", body=solve_body(problem), headers={"X-Client-Id": "calm"}
        )[0] == 200


def test_http_capacity_503_with_retry_after():
    server, _ = stub_server(
        admission=AdmissionController(rate=0, max_inflight=1), delay=0.5
    )
    # distinct problems so dedup can't collapse them
    bodies = [solve_body(tiny_problem(step=s)) for s in (1, 2)]
    with ServerHarness(server) as h:
        statuses = {}

        def post(i):
            statuses[i] = h.request("/v1/solve", body=bodies[i])[0]

        t = threading.Thread(target=post, args=(0,))
        t.start()
        time.sleep(0.15)  # first request is now in flight
        status_second = h.request("/v1/solve", body=bodies[1])[0]
        t.join()
        assert statuses[0] == 200
        assert status_second == 503


def test_http_sse_stream_lifecycle(tmp_path):
    """A real in-process solve streams live events ending in
    problem_solved then the terminal result frame."""
    service = InvariantService(FAST_CONFIG)
    server = InvariantServer(
        service,
        InProcessExecutor(service, threads=2),
        admission=AdmissionController(rate=0, max_inflight=0),
    )
    problem = tiny_problem("ssetest")
    with ServerHarness(server) as h:
        frames = h.sse("/v1/solve?stream=1", solve_body(problem))
        kinds = [kind for kind, _ in frames]
        assert kinds[0] == "status"
        assert frames[0][1]["state"] == "started"
        assert "attempt_started" in kinds
        assert "stage_timed" in kinds
        assert kinds[-2] == "problem_solved"
        assert kinds[-1] == "result"
        result = frames[-1][1]
        assert result["status"] == STATUS_OK and result["solved"] is True

        # memo replay still terminates the stream correctly
        frames2 = h.sse("/v1/solve?stream=1", solve_body(problem))
        kinds2 = [kind for kind, _ in frames2]
        assert kinds2[0] == "status" and frames2[0][1]["state"] == "memo"
        assert kinds2[-2:] == ["problem_solved", "result"]
        assert frames2[-1][1]["memo"] is True


def test_http_inprocess_record_equivalence():
    """The HTTP front end returns the same SolveResult as run_many,
    modulo timing and cache counters."""
    problem = tiny_problem("equiv")
    service = InvariantService(FAST_CONFIG)
    server = InvariantServer(
        service,
        InProcessExecutor(service, threads=1),
        admission=AdmissionController(rate=0, max_inflight=0),
    )
    with ServerHarness(server) as h:
        status, response = h.request("/v1/solve", body=solve_body(problem))
    assert status == 200
    [direct] = run_many([tiny_problem("equiv")], FAST_CONFIG)
    via_http = response["result"]
    expected = direct.result.to_dict()
    for volatile in ("runtime_seconds", "stage_timings", "cache_stats"):
        via_http.pop(volatile)
        expected.pop(volatile)
    assert via_http == expected


def _without_volatile(result: dict) -> dict:
    return {
        key: value
        for key, value in result.items()
        if key not in ("runtime_seconds", "stage_timings", "cache_stats")
    }


def test_http_inprocess_default_solver_is_the_servers():
    """A request that names no solver is solved with the server's."""
    service = InvariantService(FAST_CONFIG)
    server = InvariantServer(
        service,
        InProcessExecutor(service, threads=1),
        solver="numinv",
        admission=AdmissionController(rate=0, max_inflight=0),
    )
    with ServerHarness(server) as h:
        status, response = h.request("/v1/solve", body=solve_body(tiny_problem()))
    assert status == 200 and response["status"] == STATUS_OK
    assert response["solver"] == "numinv"
    assert response["result"]["solver"] == "numinv"
    assert response["fingerprint"] == problem_fingerprint(
        tiny_problem(), "numinv", FAST_CONFIG
    )


def test_http_request_config_solves_under_that_config():
    """A request's own "config" runs through service.solve(config=...):
    the result matches a direct solve under that config, and the
    service default is left as it was."""
    override = InferenceConfig(max_epochs=30, dropout_schedule=(0.5,))
    service = InvariantService(FAST_CONFIG)
    server = InvariantServer(
        service,
        InProcessExecutor(service, threads=1),
        admission=AdmissionController(rate=0, max_inflight=0),
    )
    body = solve_body(tiny_problem("percfg"), config=config_to_dict(override))
    with ServerHarness(server) as h:
        status, response = h.request("/v1/solve", body=body)
    assert status == 200 and response["status"] == STATUS_OK
    expected = InvariantService().solve(
        tiny_problem("percfg"), "gcln", config=override
    )
    assert _without_volatile(response["result"]) == _without_volatile(
        expected.to_dict()
    )
    assert response["fingerprint"] == problem_fingerprint(
        tiny_problem("percfg"), "gcln", override
    )
    assert service.config is FAST_CONFIG


def test_http_queue_mode_default_solver_is_the_servers(tmp_path):
    """A queue-backed server started with a non-default solver accepts
    requests that name none, and its workers solve them with it."""
    from repro.dist import Worker, WorkQueue

    queue_dir = str(tmp_path / "q")
    service = InvariantService(FAST_CONFIG)
    server = InvariantServer(
        service,
        QueueExecutor(queue_dir, solver="numinv", config=FAST_CONFIG),
        solver="numinv",
        admission=AdmissionController(rate=0, max_inflight=0),
    )
    stop = threading.Event()

    def drain():
        worker = Worker(WorkQueue.open(queue_dir), poll_seconds=0.05)
        while not stop.is_set():
            worker.run(max_items=1)
            time.sleep(0.05)

    worker_thread = threading.Thread(target=drain, daemon=True)
    with ServerHarness(server) as h:
        worker_thread.start()
        try:
            status, response = h.request(
                "/v1/solve", body=solve_body(tiny_problem("qdefault"))
            )
        finally:
            stop.set()
    worker_thread.join(timeout=10)
    assert not worker_thread.is_alive()
    assert status == 200, response
    assert response["status"] == STATUS_OK
    assert response["solver"] == "numinv"
    assert response["result"]["solver"] == "numinv"


def test_http_queue_mode_record_equivalence(tmp_path):
    """Queue-backed serving: the server enqueues, a worker drains, and
    the HTTP response matches a sequential run."""
    from repro.dist import Worker, WorkQueue

    queue_dir = str(tmp_path / "q")
    service = InvariantService(FAST_CONFIG)
    executor = QueueExecutor(queue_dir, solver="gcln", config=FAST_CONFIG)
    server = InvariantServer(
        service,
        executor,
        admission=AdmissionController(rate=0, max_inflight=0),
    )
    problem = tiny_problem("qequiv")

    stop = threading.Event()

    def drain():
        worker = Worker(WorkQueue.open(queue_dir), poll_seconds=0.05)
        while not stop.is_set():
            worker.run(max_items=1)
            time.sleep(0.05)

    worker_thread = threading.Thread(target=drain, daemon=True)
    with ServerHarness(server) as h:
        worker_thread.start()
        try:
            status, response = h.request("/v1/solve", body=solve_body(problem))
            assert status == 200
            assert response["status"] == STATUS_OK

            # a repeat is answered from the journal/memo without new items
            status2, again = h.request("/v1/solve", body=solve_body(problem))
            assert again["memo"] is True

            # solver overrides conflict with the queue meta → 400
            status3, err = h.request(
                "/v1/solve", body=solve_body(problem, solver="numinv")
            )
            assert status3 == 400 and "queue" in err["error"]

            # streamed queue solve still ends problem_solved → result
            frames = h.sse(
                "/v1/solve?stream=1", solve_body(tiny_problem("qsse", step=2))
            )
            kinds = [kind for kind, _ in frames]
            assert kinds[-2:] == ["problem_solved", "result"]
        finally:
            stop.set()
    worker_thread.join(timeout=10)

    [direct] = run_many([tiny_problem("qequiv")], FAST_CONFIG)
    via_http = response["result"]
    expected = direct.result.to_dict()
    for volatile in ("runtime_seconds", "stage_timings", "cache_stats"):
        via_http.pop(volatile)
        expected.pop(volatile)
    assert via_http == expected


def test_stats_shape():
    server, _ = stub_server()
    with ServerHarness(server) as h:
        h.request("/v1/solve", body=solve_body(tiny_problem()))
        _, stats = h.request("/v1/stats")
    assert stats["executor"]["mode"] == "stub"
    assert {"admitted", "rejected_rate", "rejected_capacity"} <= set(
        stats["admission"]
    )
    assert {"led", "joined", "inflight"} <= set(stats["dedup"])
    assert {"hits", "misses", "entries"} <= set(stats["memo"])
    assert "trace_hits" in stats["cache"]
