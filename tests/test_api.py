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

        def solve(self, problem, *, config=None, events=None):
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
    """Acceptance: identical JSON schema across solvers via solve_many."""
    service = InvariantService(FAST_CONFIG)
    problems = [tiny_problem()]
    gcln = service.solve_many(problems, "gcln")[0].to_dict()
    gac = service.solve_many(problems, "guess_and_check")[0].to_dict()
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


# -- service: summed cache stats, events, per-solve config --------------------


def test_service_cache_stats_sum_its_solves():
    """Each solve memoizes on its own; the service only sums the
    counters, and has all four from the start."""
    service = InvariantService(FAST_CONFIG)
    assert service.cache_stats == {
        "trace_hits": 0,
        "trace_misses": 0,
        "matrix_hits": 0,
        "matrix_misses": 0,
    }
    first = service.solve(tiny_problem(), solver="guess_and_check")
    second = service.solve(tiny_problem(), solver="octahedral")
    assert first.cache_stats["trace_misses"] == 1
    # The second solve collects again: nothing is kept across solves.
    assert second.cache_stats["trace_misses"] == 1
    assert service.cache_stats == {
        key: first.cache_stats[key] + second.cache_stats[key]
        for key in service.cache_stats
    }


def test_concurrent_solves_on_one_service_match_sequential():
    """``serve`` solves on threads sharing one service.  Each thread
    records its tapes into its own sink, so two concurrent G-CLN solves
    neither fail nor change each other's records."""
    from concurrent.futures import ThreadPoolExecutor

    # Unreachable ground truth: every attempt trains, so the two
    # threads record tapes at the same time.
    problems = [
        tiny_problem(name, ground_truth={0: ["x == i + 100"]})
        for name in ("conc1", "conc2")
    ]
    config = InferenceConfig(max_epochs=40, dropout_schedule=(0.6, 0.5, 0.4))

    def stable(result):
        record = result.to_dict()
        for volatile in ("runtime_seconds", "stage_timings", "cache_stats"):
            record.pop(volatile)
        return record

    sequential = [stable(InvariantService(config).solve(p)) for p in problems]
    service = InvariantService(config)
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(2):
            solved = pool.map(service.solve, problems)
            assert [stable(r) for r in solved] == sequential


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


def test_service_solve_config_applies_to_that_solve_only():
    """solve(config=C) runs the solver under C; the next solve without
    a config runs under the service default again."""
    seen = []

    class Recording:
        name = "recording"

        def solve(self, problem, *, config=None, events=None):
            seen.append(config)
            return SolveResult(solver=self.name, problem=problem.name, solved=True)

    override = InferenceConfig(max_epochs=30, dropout_schedule=(0.5,))
    service = InvariantService(FAST_CONFIG)
    done = []
    service.subscribe(done.append, kinds=(ProblemSolved,))
    register_solver("recording", Recording)
    try:
        service.solve(tiny_problem(), "recording", config=override)
        service.solve(tiny_problem(), "recording")
    finally:
        unregister_solver("recording")
    assert seen == [override, FAST_CONFIG]
    assert len(done) == 2
    assert service.config is FAST_CONFIG

    # A real solver: the override solve matches a service built on it.
    via_override = service.solve(tiny_problem(), "gcln", config=override).to_dict()
    direct = InvariantService(override).solve(tiny_problem(), "gcln").to_dict()
    for volatile in ("runtime_seconds", "stage_timings", "cache_stats"):
        via_override.pop(volatile)
        direct.pop(volatile)
    assert via_override == direct
    default = service.solve(tiny_problem(), "gcln")
    assert via_override["train_epochs"] < default.train_epochs


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


def test_solve_many_emits_completion_for_timeouts(monkeypatch):
    """Every record gets a ProblemSolved event, even on timeout."""
    import time

    service = InvariantService(FAST_CONFIG)
    done = []
    service.subscribe(done.append, kinds=(ProblemSolved,))
    monkeypatch.setattr(
        service, "solve", lambda problem, solver="gcln", config=None: time.sleep(30)
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

    # An empty sound set is not solved; the empty conjunction is still
    # checked.
    checker = _SpyChecker(refuse=[bad])
    loop, solved = score([bad], checker)
    assert not solved
    assert loop.invariant == "true"
    assert [c[0] for c in checker.calls] == ["filter", "check"]


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
