"""Tests for the public API: registry, adapters, service, events."""

import json
import warnings

import pytest

from repro.api import (
    LOOP_KEYS,
    RESULT_KEYS,
    STAGES,
    AttemptStarted,
    CandidateChecked,
    EventBus,
    InvariantService,
    ProblemSolved,
    SolveResult,
    StageTimed,
    UnknownSolverError,
    available_solvers,
    get_solver,
    register_solver,
    solver_entries,
    unregister_solver,
)
from repro.infer import InferenceConfig, Problem

FAST_CONFIG = InferenceConfig(max_epochs=60, dropout_schedule=(0.6,))


def tiny_problem(name: str = "tinyline", ground_truth=None) -> Problem:
    return Problem(
        name=name,
        source=f"""
program {name};
input n;
assume (n >= 0);
i = 0; x = 0;
while (i < n) {{ i = i + 1; x = x + 2; }}
""",
        train_inputs=[{"n": v} for v in range(0, 8)],
        max_degree=1,
        ground_truth={0: ["x == 2 * i"]} if ground_truth is None else ground_truth,
    )


# -- registry -----------------------------------------------------------------


def test_default_solvers_registered():
    names = available_solvers()
    for expected in (
        "gcln",
        "guess_and_check",
        "octahedral",
        "numinv",
        "enumerative",
        "plain_cln",
    ):
        assert expected in names


def test_unknown_solver_error_lists_available():
    with pytest.raises(UnknownSolverError) as excinfo:
        get_solver("nosuch_solver")
    message = str(excinfo.value)
    assert "nosuch_solver" in message
    for name in available_solvers():
        assert name in message


def test_register_solver_rejects_duplicates_and_unregisters():
    class Fake:
        name = "fake_solver"

        def solve(self, problem, *, config=None, cache=None, events=None):
            return SolveResult(solver=self.name, problem=problem.name, solved=True)

    register_solver("fake_solver", Fake, description="test-only")
    try:
        assert "fake_solver" in available_solvers()
        with pytest.raises(Exception, match="already registered"):
            register_solver("fake_solver", Fake)
        register_solver(
            "fake_solver", Fake, description="replaced", replace=True
        )
        entry = {e.name: e for e in solver_entries()}["fake_solver"]
        assert entry.description == "replaced"
    finally:
        unregister_solver("fake_solver")
    assert "fake_solver" not in available_solvers()


# -- adapters: every solver end-to-end under one schema -----------------------


def _assert_schema(payload: dict) -> None:
    assert set(payload) == set(RESULT_KEYS)
    assert set(payload["stage_timings"]) == set(STAGES)
    for loop in payload["loops"]:
        assert set(loop) == set(LOOP_KEYS)
    json.dumps(payload)  # must be pure JSON


def test_every_registered_solver_runs_end_to_end():
    service = InvariantService(FAST_CONFIG)
    for name in available_solvers():
        result = service.solve(tiny_problem(), solver=name)
        assert result.solver == name
        assert result.problem == "tinyline"
        assert result.runtime_seconds > 0
        _assert_schema(result.to_dict())


def test_equality_solvers_solve_the_linear_problem():
    service = InvariantService(FAST_CONFIG)
    for name in ("gcln", "guess_and_check", "numinv", "enumerative"):
        result = service.solve(tiny_problem(), solver=name)
        assert result.solved, name
        assert result.loops[0].ground_truth_implied
        assert "x" in result.invariant(0)


def test_gcln_and_baseline_records_share_schema():
    """Acceptance: identical JSON schema across solvers via run_many."""
    from repro.infer.runner import run_many

    problems = [tiny_problem()]
    gcln = run_many(problems, FAST_CONFIG, solver="gcln")[0].to_dict()
    gac = run_many(problems, FAST_CONFIG, solver="guess_and_check")[0].to_dict()
    assert set(gcln) == set(gac)
    _assert_schema(gcln["result"])
    _assert_schema(gac["result"])


def test_solve_result_invariant_accessor():
    result = SolveResult(solver="s", problem="p", solved=False)
    assert result.invariant(0) == "true"


def test_solve_result_loads_records_that_still_carry_a_backend_key():
    """Journals and memos written before the replay-engine choice was
    removed carry ``"backend": "fused"``; they must still load."""
    old = {
        "solver": "gcln",
        "problem": "ps2",
        "solved": True,
        "runtime_seconds": 1.5,
        "attempts": 2,
        "notes": [],
        "stage_timings": {stage: 0.25 for stage in STAGES},
        "cache_stats": {"trace_hits": 3},
        "backend": "fused",
        "train_epochs": 812,
        "checking": "symbolic+bounded",
        "loops": [
            {
                "loop_index": 0,
                "invariant": "x == y",
                "sound_atoms": ["x == y"],
                "candidate_atoms": ["x == y"],
                "rejected_atoms": [],
                "ground_truth_implied": True,
            }
        ],
    }
    result = SolveResult.from_dict(old)
    assert result.solved and result.attempts == 2
    assert result.train_epochs == 812
    assert result.invariant(0) == "x == y"
    assert "backend" not in result.to_dict()
    _assert_schema(result.to_dict())


def test_train_epochs_flows_into_solve_result_wire_format():
    service = InvariantService(InferenceConfig(max_epochs=150))
    result = service.solve(tiny_problem("epochtoy"))
    assert result.train_epochs > 0
    record = result.to_dict()
    assert record["train_epochs"] == result.train_epochs


# -- service: shared cache, events, per-solver config -------------------------


def test_service_shares_cache_across_solvers():
    service = InvariantService(FAST_CONFIG)
    service.solve(tiny_problem(), solver="guess_and_check")
    misses = service.cache_stats["trace_misses"]
    service.solve(tiny_problem(), solver="octahedral")
    after = service.cache_stats
    assert after["trace_misses"] == misses  # second solver hit the cache
    assert after["trace_hits"] > 0


def test_service_streams_stage_timing_events_for_solved_problem():
    """Acceptance: a subscriber observes per-stage timings on a solve."""
    service = InvariantService(FAST_CONFIG)
    events = []
    service.subscribe(events.append)
    result = service.solve(tiny_problem(), solver="gcln")
    assert result.solved
    kinds = {type(e) for e in events}
    assert {AttemptStarted, StageTimed, CandidateChecked, ProblemSolved} <= kinds
    staged = [e for e in events if isinstance(e, StageTimed)]
    assert {e.stage for e in staged} == set(STAGES)
    assert all(e.solver == "gcln" and e.problem == "tinyline" for e in staged)
    assert sum(e.seconds for e in staged) > 0
    done = [e for e in events if isinstance(e, ProblemSolved)]
    assert len(done) == 1 and done[0].solved
    # The same timings ride along in the result's wire format.
    timings = result.to_dict()["stage_timings"]
    assert timings["train"] > 0


def test_service_event_kind_filter_and_unsubscribe():
    service = InvariantService(FAST_CONFIG)
    only_staged = []
    unsubscribe = service.subscribe(only_staged.append, kinds=(StageTimed,))
    service.solve(tiny_problem(), solver="octahedral")
    assert only_staged and all(isinstance(e, StageTimed) for e in only_staged)
    unsubscribe()
    count = len(only_staged)
    service.solve(tiny_problem(), solver="octahedral")
    assert len(only_staged) == count


def test_event_bus_isolates_subscriber_errors():
    bus = EventBus()
    seen = []
    bus.subscribe(lambda e: 1 / 0)
    bus.subscribe(seen.append)
    bus.emit(ProblemSolved(problem="p", solver="s"))
    assert bus.subscriber_errors == 1
    assert len(seen) == 1


def test_event_to_dict_is_tagged_and_serializable():
    event = StageTimed(
        problem="p", solver="s", stage="train", seconds=0.5, attempt=2
    )
    payload = event.to_dict()
    assert payload["event"] == "stage_timed"
    assert payload["stage"] == "train"
    json.dumps(payload)


def test_service_per_solver_config_override():
    service = InvariantService(FAST_CONFIG)
    service.configure("gcln", InferenceConfig(max_epochs=30, dropout_schedule=(0.5,)))
    assert service.config_for("gcln").max_epochs == 30
    assert service.config_for("octahedral") is FAST_CONFIG
    with pytest.raises(UnknownSolverError):
        service.configure("nosuch", FAST_CONFIG)


def test_service_solve_many_inline_shares_cache_and_events():
    service = InvariantService(FAST_CONFIG)
    done = []
    service.subscribe(done.append, kinds=(ProblemSolved,))
    records = service.solve_many(
        [tiny_problem("a1"), tiny_problem("a2")], solver="guess_and_check"
    )
    assert [r.name for r in records] == ["a1", "a2"]
    assert all(r.status == "ok" for r in records)
    assert [e.problem for e in done] == ["a1", "a2"]


def test_service_memo_replays_without_any_training(monkeypatch):
    """With memo_size set, a repeated solve returns the stored result:
    zero training epochs, zero attempts — only the completion event."""
    import repro.infer.pipeline as pipeline

    train_calls = []
    real_train = pipeline.train_gcln
    real_restarts = pipeline.train_gcln_restarts

    def counting_train(*args, **kwargs):
        train_calls.append(1)
        return real_train(*args, **kwargs)

    def counting_restarts(*args, **kwargs):
        train_calls.append(1)
        return real_restarts(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_gcln", counting_train)
    monkeypatch.setattr(pipeline, "train_gcln_restarts", counting_restarts)
    service = InvariantService(FAST_CONFIG, memo_size=4)
    events = []
    service.subscribe(events.append)

    problem = tiny_problem()
    first = service.solve(problem)
    assert first.solved
    trained_once = len(train_calls)
    assert trained_once > 0
    started = sum(1 for e in events if isinstance(e, AttemptStarted))
    assert started > 0

    second = service.solve(tiny_problem())  # same fingerprint, new object
    assert second is first  # the memoized result, not a re-solve
    assert len(train_calls) == trained_once  # ZERO new training calls
    assert (
        sum(1 for e in events if isinstance(e, AttemptStarted)) == started
    )  # no new attempts
    # ... but the completion event still fired for the memo hit
    assert sum(1 for e in events if isinstance(e, ProblemSolved)) == 2
    assert service.memo.stats()["hits"] == 1

    # a different config is a different fingerprint → real solve
    service.configure("gcln", InferenceConfig(max_epochs=30, dropout_schedule=(0.5,)))
    service.solve(tiny_problem())
    assert len(train_calls) > trained_once


def test_service_memo_off_by_default():
    service = InvariantService(FAST_CONFIG)
    assert service.memo is None
    a = service.solve(tiny_problem(), solver="guess_and_check")
    b = service.solve(tiny_problem(), solver="guess_and_check")
    assert a is not b  # no memoization without opting in


def test_solve_many_emits_completion_for_timeouts(monkeypatch):
    """Every record gets a ProblemSolved event, even on timeout."""
    import time

    service = InvariantService(FAST_CONFIG)
    done = []
    service.subscribe(done.append, kinds=(ProblemSolved,))
    monkeypatch.setattr(
        service, "solve", lambda problem, solver="gcln": time.sleep(30)
    )
    records = service.solve_many([tiny_problem()], timeout_seconds=0.2)
    assert records[0].status == "timeout"
    assert len(done) == 1
    assert done[0].problem == "tinyline"
    assert done[0].solved is False and done[0].attempts == 0


def test_rejected_atoms_mirror_checker_events():
    """LoopReport.rejected_atoms carries the checker's real verdicts."""
    for solver in ("octahedral", "gcln"):
        service = InvariantService(FAST_CONFIG)
        rejected_events = []
        service.subscribe(
            lambda e: rejected_events.append(e) if not e.sound else None,
            kinds=(CandidateChecked,),
        )
        result = service.solve(tiny_problem(), solver=solver)
        pairs = {
            (atom, reason)
            for loop in result.loops
            for atom, reason in loop.rejected_atoms
        }
        event_pairs = {(e.atom, e.reason) for e in rejected_events}
        assert {a for a, _ in pairs} == {e.atom for e in rejected_events}
        assert pairs <= event_pairs
        assert all(reason for _, reason in pairs)


# -- one result type, one scoring step -----------------------------------------


def test_engine_returns_the_registry_result_type():
    from repro.infer import InferenceEngine

    result = InferenceEngine(tiny_problem(), FAST_CONFIG).run()
    assert isinstance(result, SolveResult)
    assert result.solver == "gcln"
    assert set(result.to_dict()) == set(RESULT_KEYS)
    _assert_schema(result.to_dict())


def test_engine_and_baseline_score_without_ground_truth_the_same_way():
    """No ground truth: a checker-valid non-empty conjunction solves,
    for the G-CLN engine and a baseline alike."""
    problem = tiny_problem("nogt", ground_truth={})
    service = InvariantService(FAST_CONFIG)
    for name in ("gcln", "guess_and_check"):
        result = service.solve(problem, solver=name)
        assert result.solved, name
        assert result.loops[0].sound_atoms, name
        assert result.loops[0].ground_truth_implied, name


class _SpyChecker:
    """Rejects the ``refuse`` atoms, accepts the rest; records its calls."""

    def __init__(self, refuse=(), valid: bool = True):
        from repro.checker.result import CheckOutcome

        self.refuse = {str(a) for a in refuse}
        self.calls = []
        self.outcome = CheckOutcome.VALID if valid else CheckOutcome.INVALID

    def filter_sound_atoms(self, loop_index, atoms):
        from repro.checker.vc import AtomFilterResult

        self.calls.append(("filter", loop_index, [str(a) for a in atoms]))
        sound = [a for a in atoms if str(a) not in self.refuse]
        rejected = [(a, "not inductive") for a in atoms if str(a) in self.refuse]
        return AtomFilterResult(sound=sound, rejected=rejected)

    def check_invariant(self, loop_index, invariant, posts):
        from repro.checker.result import CheckReport

        self.calls.append(("check", loop_index, str(invariant)))
        return CheckReport(outcome=self.outcome)


def test_check_and_score_without_ground_truth():
    from repro.infer.pipeline import check_and_score
    from repro.infer.problem import parse_ground_truth

    problem = tiny_problem("nogt", ground_truth={})
    good, bad = parse_ground_truth("x == 2 * i"), parse_ground_truth("x == 3 * i")

    def score(candidates, checker):
        rejections = [{}]
        loops, solved = check_and_score(
            problem, checker, [candidates], rejections, {}, None
        )
        return loops[0], solved

    loop, solved = score([bad, good], _SpyChecker(refuse=[bad]))
    assert solved
    assert loop.sound_atoms == [str(good)]
    assert loop.rejected_atoms == [[str(bad), "not inductive"]]

    # The checker refusing the conjunction means not solved.
    assert not score([good], _SpyChecker(valid=False))[1]

    # An empty sound set is not solved, but the conjunction is still
    # checked: the checker's RNG stream must not depend on the outcome.
    checker = _SpyChecker(refuse=[bad])
    loop, solved = score([bad], checker)
    assert not solved
    assert loop.invariant == "true"
    assert [c[0] for c in checker.calls] == ["filter", "check"]


def test_baselines_honor_checker_memoization(monkeypatch):
    from repro.api import adapters
    from repro.checker.trace import make_checker

    seen = []

    def spy(problem, cache=None, memoize=True):
        seen.append(memoize)
        return make_checker(problem, cache=cache, memoize=memoize)

    monkeypatch.setattr(adapters, "make_checker", spy)
    config = InferenceConfig(
        max_epochs=60, dropout_schedule=(0.6,), checker_memoization=False
    )
    result = get_solver("guess_and_check").solve(tiny_problem(), config=config)
    assert result.solved
    assert seen == [False]


def test_engine_events_flow_without_service():
    """The engine emits to any sink, not just the service bus."""
    from repro.infer import InferenceEngine

    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # direct engine use must not warn
        result = InferenceEngine(
            tiny_problem(), FAST_CONFIG, events=events.append
        ).run()
    assert result.solved
    assert any(isinstance(e, AttemptStarted) for e in events)
    assert any(isinstance(e, StageTimed) for e in events)
