"""Tests for trace-first solving: the ObservationSource layer.

Covers the RecordedTraceSource/InterpreterSource split, the recording
codecs (JSON payload + CSV), the degraded RecordedChecker, solver
capability enforcement, the per-solve state memo, and — the core
contract — seed equivalence: a problem fed its own recorded traces
produces identical invariants to the program-backed run at every
level (trainer, solve_many, HTTP serve, work queue).
"""

import asyncio
import json
import threading
import time
import urllib.request
from fractions import Fraction

import pytest

from repro.api import (
    InvariantService,
    SolverCapabilities,
    SolverCapabilityError,
    UnknownSolverError,
    register_solver,
    require_solver_supports,
    solver_entries,
    unregister_solver,
)
from repro.checker import CHECKING_FULL, CHECKING_RECORDED, CheckOutcome
from repro.checker.trace import RecordedChecker, make_checker
from repro.checker.vc import InvariantChecker
from repro.dist import Worker, WorkQueue, config_to_dict
from repro.dist.wire import item_for_problem, problem_from_dict, problem_to_dict
from repro.errors import InferenceError, ReproError
from repro.infer import (
    InferenceConfig,
    Problem,
    parse_ground_truth,
    record_observations,
    record_problem,
)
from repro.infer.runner import STATUS_OK
from repro.infer.stages import collect_states
from repro.sampling import TraceCache, collect_traces, loop_dataset
from repro.sampling.source import (
    InterpreterSource,
    LoopTrace,
    Observation,
    ObservationSource,
    RecordedTraceSource,
    traces_from_csv,
    traces_from_payload,
    traces_to_payload,
)
from repro.utils.fingerprint import fingerprint_traces

parse_atom = parse_ground_truth

FAST_CONFIG = InferenceConfig(max_epochs=60, dropout_schedule=(0.6,))


def tiny_problem(name: str = "tr", step: int = 1) -> Problem:
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


def loops_of(result) -> list[dict]:
    return [loop.to_dict() for loop in result.loops]


# -- sources -------------------------------------------------------------------


def test_sources_implement_the_protocol():
    problem = tiny_problem()
    interp = problem.observations()
    assert isinstance(interp, InterpreterSource)
    assert isinstance(interp, ObservationSource)
    assert interp.kind == "program" and interp.n_loops == 1
    recorded = RecordedTraceSource(record_observations(problem))
    assert isinstance(recorded, ObservationSource)
    assert recorded.kind == "trace" and recorded.n_loops == 1


def test_recorded_source_mirrors_loop_dataset_dedup_and_cap():
    """Recorded train states == loop_dataset over the same traces, for
    every cap — the byte-level half of the seed-equivalence contract."""
    problem = tiny_problem()
    # duplicate inputs so the recording contains duplicate states
    problem.train_inputs = problem.train_inputs + problem.train_inputs[:3]
    traces = collect_traces(problem.program, problem.train_inputs)
    source = RecordedTraceSource(record_observations(problem))
    for cap in (None, 3, 100):
        expected = loop_dataset(traces, 0, max_states=cap)
        assert source.train_states(cap)[0] == expected
    # Recording keeps raw duplicates; assembly dedups them.
    raw = sum(len(t.snapshots) for t in traces)
    assert len(source.data[0].train) == raw
    assert len(source.train_states(None)[0]) < raw


def test_recorded_source_rejects_bad_loop_keys():
    ob = Observation(state={"x": 1})
    with pytest.raises(ReproError, match="no loops"):
        RecordedTraceSource({})
    with pytest.raises(ReproError, match="contiguous"):
        RecordedTraceSource({1: LoopTrace(train=[ob])})
    with pytest.raises(ReproError, match="contiguous"):
        RecordedTraceSource({0: LoopTrace(train=[ob]), 2: LoopTrace(train=[ob])})


def test_recorded_source_variables_and_check_fallback():
    data = {
        0: LoopTrace(
            train=[Observation(state={"b": 1, "a": 2})],
            check=None,
        )
    }
    source = RecordedTraceSource(data)
    assert source.variables(0) == ["a", "b"]
    # check=None falls back to the train sequence
    assert [ob.state for ob in source.check_observations(0)] == [{"b": 1, "a": 2}]


# -- codecs --------------------------------------------------------------------


def test_payload_roundtrip_preserves_states_guards_and_fractions():
    data = {
        0: LoopTrace(
            train=[
                Observation(state={"x": 1, "q": Fraction(1, 3)}, guard=True),
                Observation(state={"x": 2, "q": Fraction(2, 3)}, guard=False),
            ],
            check=[Observation(state={"x": 5, "q": Fraction(0)}, guard=True)],
        ),
        1: LoopTrace(train=[Observation(state={"y": -4})], check=None),
    }
    payload = json.loads(json.dumps(traces_to_payload(data)))
    rebuilt = traces_from_payload(payload)
    assert sorted(rebuilt) == [0, 1]
    assert rebuilt[0].train[0].state == {"x": 1, "q": Fraction(1, 3)}
    assert rebuilt[0].train[1].guard is False
    assert rebuilt[0].check[0].state["q"] == Fraction(0)
    assert rebuilt[1].check is None  # None survives, not an empty list


def test_csv_parsing_kinds_guards_and_values():
    rows = [
        "loop,kind,guard,x,q",
        "0,train,1,1,1/3",
        "0,train,0,2,2/3",
        "0,check,,5,0/1",
        "1,,,7,1/2",
    ]
    data = traces_from_csv(rows)
    assert data[0].train[0].state == {"x": 1, "q": Fraction(1, 3)}
    assert data[0].train[1].guard is False
    assert data[0].check is not None and len(data[0].check) == 1
    assert data[1].train[0].state == {"x": 7, "q": Fraction(1, 2)}
    with pytest.raises(ReproError, match="'loop' column"):
        traces_from_csv(["x,y", "1,2"])
    with pytest.raises(ReproError, match="kind"):
        traces_from_csv(["loop,kind,x", "0,nope,1"])
    with pytest.raises(ReproError, match="no observations"):
        traces_from_csv(["loop,x"])


# -- problems ------------------------------------------------------------------


def test_problem_needs_program_or_traces():
    with pytest.raises(InferenceError, match="both are None"):
        Problem(name="empty")


def test_trace_only_problem_refuses_program_access():
    recorded = record_problem(tiny_problem())
    assert not recorded.program_backed
    assert recorded.n_loops == 1
    with pytest.raises(InferenceError, match="trace-only"):
        recorded.program


def test_trace_only_loop_variables_derived_or_explicit():
    recorded = record_problem(tiny_problem())
    # record_problem embeds the program's variables explicitly
    assert set(recorded.loop_variables(0)) == {"i", "x", "n"}
    bare = Problem(
        name="bare",
        traces={0: LoopTrace(train=[Observation(state={"u": 1, "v": 2})])},
    )
    assert bare.loop_variables(0) == ["u", "v"]
    empty = Problem(name="none", traces={0: LoopTrace(train=[])})
    with pytest.raises(InferenceError, match="no recorded states"):
        empty.loop_variables(0)


# -- degraded checker ----------------------------------------------------------


def test_make_checker_picks_mode_by_source():
    program = tiny_problem()
    full = make_checker(program)
    assert isinstance(full, InvariantChecker) and full.checking == CHECKING_FULL
    degraded = make_checker(record_problem(program))
    assert isinstance(degraded, RecordedChecker)
    assert degraded.checking == CHECKING_RECORDED


def test_recorded_checker_filters_on_held_out_states():
    recorded = record_problem(tiny_problem())
    checker = make_checker(recorded)
    good = parse_atom("x == i")
    bad = parse_atom("x == i + 99")
    result = checker.filter_sound_atoms(0, [good, bad])
    assert result.sound == [good]
    [(atom, reason)] = result.rejected
    assert atom is bad
    # Same reason string as the full checker's reachability phase, so
    # a recording reproduces the program run's rejection records.
    assert reason == "fails on reachable state"
    assert result.counterexamples
    # Memoized second pass
    before = checker.memo_hits
    checker.filter_sound_atoms(0, [good, bad])
    assert checker.memo_hits == before + 2


def test_recorded_checker_report_is_explicit_about_degradation():
    recorded = record_problem(tiny_problem())
    checker = make_checker(recorded)
    report = checker.check_invariant(0, parse_atom("x == i"))
    assert report.outcome is CheckOutcome.VALID
    assert any("trace-only" in note for note in report.notes)
    # Postconditions cannot be discharged without a program
    with_post = checker.check_invariant(
        0, parse_atom("x == i"), [object()]
    )
    assert with_post.postcondition is CheckOutcome.UNKNOWN
    assert with_post.outcome is CheckOutcome.UNKNOWN
    bad = checker.check_invariant(0, parse_atom("x == i + 99"))
    assert bad.outcome is CheckOutcome.INVALID
    assert bad.counterexamples


def test_recorded_checker_unknown_on_empty_recording():
    source = RecordedTraceSource({0: LoopTrace(train=[])})
    checker = RecordedChecker(source)
    report = checker.check_invariant(0, parse_atom("x == 0"))
    assert report.outcome is CheckOutcome.UNKNOWN


# -- capability enforcement ----------------------------------------------------


def test_builtin_solvers_declare_trace_support():
    caps = {e.name: e.capabilities for e in solver_entries()}
    assert all(c.trace_only for c in caps.values())
    assert caps["gcln"] == SolverCapabilities(
        trace_only=True, inequalities=True, fractional=True
    )
    assert caps["octahedral"].inequalities and not caps["octahedral"].fractional
    assert not caps["guess_and_check"].inequalities


def test_trace_only_dispatch_to_unsupporting_solver_is_refused():
    recorded = record_problem(tiny_problem())
    register_solver(
        "needs-program", lambda: None, description="test-only stub"
    )
    try:
        with pytest.raises(SolverCapabilityError, match="trace-only"):
            require_solver_supports("needs-program", recorded)
        with pytest.raises(SolverCapabilityError, match="gcln"):
            # the error lists the solvers that WOULD work
            InvariantService(FAST_CONFIG).solve(recorded, solver="needs-program")
        # program-backed problems still dispatch fine at the gate
        require_solver_supports("needs-program", tiny_problem())
    finally:
        unregister_solver("needs-program")
    with pytest.raises(UnknownSolverError):
        require_solver_supports("no-such-solver", recorded)


def test_http_protocol_rejects_unsupported_trace_dispatch():
    from repro.serve.protocol import ProtocolError, parse_solve_request

    recorded = record_problem(tiny_problem())
    register_solver(
        "needs-program2", lambda: None, description="test-only stub"
    )
    try:
        body = json.dumps(
            {"problem": problem_to_dict(recorded), "solver": "needs-program2"}
        ).encode()
        with pytest.raises(ProtocolError, match="trace-only"):
            parse_solve_request(body)
        ok = parse_solve_request(
            json.dumps({"problem": problem_to_dict(recorded)}).encode()
        )
        assert not ok.problem.program_backed
    finally:
        unregister_solver("needs-program2")


def test_solvers_response_lists_capabilities():
    from repro.serve.protocol import solvers_response

    payload = solvers_response()
    by_name = {s["name"]: s for s in payload["solvers"]}
    assert by_name["gcln"]["capabilities"] == {
        "trace_only": True,
        "inequalities": True,
        "fractional": True,
    }
    json.dumps(payload)  # must be pure JSON


# -- memo ----------------------------------------------------------------------


def test_repeated_trace_solves_hit_the_cache():
    recorded = record_problem(tiny_problem())
    cache = TraceCache()
    collect_states(recorded, FAST_CONFIG, None, cache)
    misses = cache.stats.trace_misses
    collect_states(recorded, FAST_CONFIG, None, cache)
    assert cache.stats.trace_misses == misses
    assert cache.stats.trace_hits == 1


# -- wire ----------------------------------------------------------------------


def test_trace_problem_round_trips_through_wire():
    recorded = record_problem(tiny_problem())
    data = json.loads(json.dumps(problem_to_dict(recorded)))
    rebuilt = problem_from_dict(data)
    assert rebuilt.source is None
    assert rebuilt.traces is not None
    assert problem_to_dict(rebuilt) == problem_to_dict(recorded)
    assert fingerprint_traces(rebuilt.traces) == fingerprint_traces(
        recorded.traces
    )


def test_program_problem_wire_format_unchanged():
    problem = tiny_problem()
    data = problem_to_dict(problem)
    assert data["traces"] is None
    assert problem_from_dict(data).traces is None


# -- seed equivalence ----------------------------------------------------------


def test_seed_equivalence_trainer_level():
    """record → re-solve produces identical invariants via the engine."""
    program = tiny_problem("eqt")
    recorded = record_problem(program)
    r_prog = InvariantService(FAST_CONFIG).solve(program)
    r_rec = InvariantService(FAST_CONFIG).solve(recorded)
    assert r_prog.solved and r_rec.solved
    assert loops_of(r_prog) == loops_of(r_rec)
    assert r_prog.checking == CHECKING_FULL
    assert r_rec.checking == CHECKING_RECORDED


def test_seed_equivalence_baseline_solver():
    program = tiny_problem("eqb")
    recorded = record_problem(program)
    r_prog = InvariantService(FAST_CONFIG).solve(program, solver="numinv")
    r_rec = InvariantService(FAST_CONFIG).solve(recorded, solver="numinv")
    assert loops_of(r_prog) == loops_of(r_rec)
    assert r_rec.checking == CHECKING_RECORDED


def test_seed_equivalence_run_many_level():
    program = tiny_problem("eqm")
    recorded = record_problem(program)
    [rec_prog] = InvariantService(FAST_CONFIG).solve_many([program])
    [rec_rec] = InvariantService(FAST_CONFIG).solve_many([recorded])
    assert rec_prog.status == rec_rec.status == STATUS_OK
    assert loops_of(rec_prog.result) == loops_of(rec_rec.result)


def test_seed_equivalence_work_queue_level(tmp_path):
    """An inline trace-payload queue item solves to the same journal
    record a direct in-process solve produces."""
    program = tiny_problem("eqq")
    recorded = record_problem(program)
    queue = WorkQueue.create(
        tmp_path / "q", meta={"config": config_to_dict(FAST_CONFIG)}
    )
    queue.enqueue([item_for_problem(recorded, 0, config=FAST_CONFIG)])
    assert Worker(queue, worker_id="t").run() == 1
    [entry] = queue.journal_entries()
    journaled = entry["payload"]["record"]
    assert journaled["status"] == STATUS_OK
    [direct] = InvariantService(FAST_CONFIG).solve_many([program])
    assert journaled["result"]["loops"] == loops_of(direct.result)
    assert journaled["result"]["checking"] == CHECKING_RECORDED


def test_seed_equivalence_http_serve_level():
    """POST /v1/solve with an inline trace payload returns the same
    invariants as the program-backed solve."""
    from repro.serve.admission import AdmissionController
    from repro.serve.app import InvariantServer
    from repro.serve.executor import InProcessExecutor

    program = tiny_problem("eqh")
    recorded = record_problem(program)
    service = InvariantService(FAST_CONFIG)
    server = InvariantServer(
        service,
        InProcessExecutor(service, threads=1),
        admission=AdmissionController(rate=0, max_inflight=0),
    )

    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=lambda: (
            asyncio.set_event_loop(loop),
            loop.run_until_complete(server.start("127.0.0.1", 0)),
            loop.run_forever(),
        ),
        daemon=True,
    )
    thread.start()
    deadline = time.time() + 5
    while server._server is None:
        if time.time() > deadline:
            raise TimeoutError("server did not start")
        time.sleep(0.01)
    try:
        body = json.dumps({"problem": problem_to_dict(recorded)}).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/solve", data=body
        )
        with urllib.request.urlopen(req, timeout=60) as resp:
            assert resp.status == 200
            response = json.loads(resp.read())
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(timeout=5)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()

    assert response["status"] == STATUS_OK
    assert response["result"]["checking"] == CHECKING_RECORDED
    [direct] = InvariantService(FAST_CONFIG).solve_many([program])
    assert response["result"]["loops"] == loops_of(direct.result)


# -- cli -----------------------------------------------------------------------


def test_cli_record_and_resolve_roundtrip(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "rec.json"
    recorded = record_problem(tiny_problem("clirec"))
    path.write_text(json.dumps(problem_to_dict(recorded)))
    code = main(["run", "--traces", str(path), "--epochs", "60"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "problem:  clirec" in out
    assert "checking: bounded-holdout" in out


def test_cli_run_rejects_conflicting_problem_sources(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="not both"):
        main(["run", "ps2", "--traces", str(tmp_path / "x.json")])
    with pytest.raises(SystemExit, match="problem name or --traces"):
        main(["run"])


def test_cli_solvers_lists_capability_columns(capsys):
    from repro.cli import main

    assert main(["solvers"]) == 0
    out = capsys.readouterr().out
    assert "trace-only" in out and "inequalities" in out
