"""Tests for the batch runner, ``InvariantService.solve_many``."""

import json
import time
from contextlib import contextmanager

import pytest

from repro.api import (
    InvariantService,
    SolveResult,
    register_solver,
    unregister_solver,
)
from repro.infer import InferenceConfig, Problem
from repro.infer import runner as runner_module
from repro.infer.runner import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ProblemRecord,
    summarize,
)

FAST_CONFIG = InferenceConfig(max_epochs=60, dropout_schedule=(0.6,))


def tiny_problem(name: str, step: int = 1) -> Problem:
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


@contextmanager
def slow_solver(seconds: float):
    """Register a solver that sleeps ``seconds`` and then solves; yields
    its registry name."""

    class Slow:
        name = "slow"

        def solve(self, problem, *, config=None, events=None):
            time.sleep(seconds)
            return SolveResult(solver=self.name, problem=problem.name, solved=True)

    register_solver("slow", Slow)
    try:
        yield "slow"
    finally:
        unregister_solver("slow")


def test_run_many_aggregates_in_input_order():
    problems = [tiny_problem("alpha"), tiny_problem("beta", step=2)]
    records = InvariantService(FAST_CONFIG).solve_many(problems, jobs=1)
    assert [r.name for r in records] == ["alpha", "beta"]
    assert all(r.status == STATUS_OK for r in records)
    assert all(r.result is not None for r in records)
    assert all(r.runtime_seconds > 0 for r in records)
    stats = summarize(records)
    assert stats["problems"] == 2
    assert stats["ok"] == 2
    assert stats["error"] == stats["timeout"] == 0


def test_run_many_records_errors_without_aborting_batch():
    bad = Problem(
        name="noloop",
        source="program noloop;\ninput n;\nx = n;",
        train_inputs=[{"n": 1}],
    )
    records = InvariantService(FAST_CONFIG).solve_many(
        [bad, tiny_problem("ok")], jobs=1
    )
    assert records[0].status == STATUS_ERROR
    assert "InferenceError" in records[0].error
    assert records[0].result is None
    assert records[1].status == STATUS_OK
    assert summarize(records)["error"] == 1


def test_run_many_honors_timeout():
    """A problem exceeding the budget is recorded as a timeout."""
    start = time.perf_counter()
    with slow_solver(30) as solver:
        records = InvariantService(FAST_CONFIG).solve_many(
            [tiny_problem("slow"), tiny_problem("slow2")],
            solver,
            jobs=1,
            timeout_seconds=0.3,
        )
    elapsed = time.perf_counter() - start
    assert [r.status for r in records] == [STATUS_TIMEOUT, STATUS_TIMEOUT]
    assert all("timed out" in r.error for r in records)
    assert elapsed < 10
    assert summarize(records)["timeout"] == 2


def test_run_many_parallel_pool():
    """``jobs=2`` drains a private work queue with two worker
    processes and returns the records in input order."""
    problems = [tiny_problem("p1"), tiny_problem("p2", step=3)]
    seen: list[str] = []
    records = InvariantService(FAST_CONFIG).solve_many(
        problems, jobs=2, progress=lambda r: seen.append(r.name)
    )
    assert [r.name for r in records] == ["p1", "p2"]  # input order
    assert sorted(seen) == ["p1", "p2"]  # completion order, all reported
    assert all(r.status == STATUS_OK for r in records)


def test_records_serialize_to_json():
    records = InvariantService(FAST_CONFIG).solve_many(
        [tiny_problem("json1")], jobs=1
    )
    payload = json.dumps([r.to_dict() for r in records])
    decoded = json.loads(payload)
    assert decoded[0]["name"] == "json1"
    assert decoded[0]["status"] == STATUS_OK
    assert decoded[0]["result"]["problem"] == "json1"
    assert decoded[0]["result"]["solver"] == "gcln"
    assert "cache_stats" in decoded[0]["result"]
    assert "stage_timings" in decoded[0]["result"]
    assert set(decoded[0]) == {
        "name", "status", "solved", "runtime_seconds", "result", "error"
    }


def test_old_journal_records_still_load():
    """``from_dict`` ignores keys older records carried."""
    record = ProblemRecord.from_dict(
        {"name": "old", "status": STATUS_TIMEOUT, "timeout_enforced": False}
    )
    assert record == ProblemRecord(name="old", status=STATUS_TIMEOUT)


def test_run_many_dispatches_registered_baselines():
    """solve_many(solver=...) runs a baseline under the same schema."""
    records = InvariantService(FAST_CONFIG).solve_many(
        [tiny_problem("viareg")], "guess_and_check", jobs=1
    )
    assert records[0].status == STATUS_OK
    assert records[0].solved
    assert records[0].result.solver == "guess_and_check"
    assert records[0].result.attempts == 1


def test_run_many_inline_solves_through_the_given_service():
    """Inline runs solve through the calling service: its event bus
    sees every completion and its stats sum both solves."""
    from repro.api import ProblemSolved

    service = InvariantService(FAST_CONFIG)
    done = []
    service.subscribe(done.append, kinds=(ProblemSolved,))
    records = service.solve_many(
        [tiny_problem("sv1"), tiny_problem("sv2", step=2)], "guess_and_check"
    )
    assert [r.status for r in records] == [STATUS_OK, STATUS_OK]
    assert [e.problem for e in done] == ["sv1", "sv2"]
    assert service.cache_stats["trace_misses"] == 2


@pytest.mark.parametrize(
    "mode",
    [{"jobs": 1}, {"jobs": 2}, {"jobs": "auto"}],
    ids=["inline", "pool", "queue"],
)
def test_service_stats_sum_the_records_in_every_mode(mode):
    """Records solved by queue workers (two, or ``"auto"`` many) reach
    ``service.cache_stats`` too: the service's counters are the sum of
    its records' counters."""
    from repro.api import ProblemSolved
    from repro.bench import nla_problem

    service = InvariantService()
    done = []
    service.subscribe(done.append, kinds=(ProblemSolved,))
    records = service.solve_many(
        [nla_problem("ps2"), nla_problem("geo1")], "guess_and_check", **mode
    )
    assert [r.status for r in records] == [STATUS_OK, STATUS_OK]
    assert sorted(e.problem for e in done) == ["geo1", "ps2"]
    assert service.cache_stats["trace_misses"] == 2
    assert service.cache_stats == {
        key: sum(r.result.cache_stats[key] for r in records)
        for key in service.cache_stats
    }


def test_run_many_rejects_unknown_solver_up_front():
    from repro.api import UnknownSolverError

    with pytest.raises(UnknownSolverError, match="gcln"):
        InvariantService(FAST_CONFIG).solve_many([tiny_problem("x")], "nosuch")


def test_run_many_rejects_bad_jobs():
    service = InvariantService(FAST_CONFIG)
    with pytest.raises(ValueError, match=">= 1"):
        service.solve_many([tiny_problem("x")], jobs=0)
    with pytest.raises(ValueError, match="integer or 'auto'"):
        service.solve_many([tiny_problem("x")], jobs="soon")
    with pytest.raises(ValueError, match="integer or 'auto'"):
        service.solve_many([tiny_problem("x")], jobs=2.0)
    assert service.solve_many([], jobs=4) == []


@pytest.mark.parametrize(
    "cpus, count, width",
    [(None, 5, 2), (1, 5, 2), (4, 5, 4), (64, 20, 8), (64, 3, 3)],
)
def test_jobs_auto_is_the_cpu_count_clamped_to_2_to_8(
    monkeypatch, cpus, count, width
):
    """``jobs="auto"`` is resolved once, in ``solve_many``: the
    coordinator gets ``min(max(2, min(cpus, 8)), len(problems))``."""
    import os

    from repro.dist import coordinator

    widths = []

    def run_distributed(problems, config, *, workers, **kwargs):
        widths.append(workers)
        return []

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(coordinator, "run_distributed", run_distributed)
    problems = [tiny_problem(f"auto{i}") for i in range(count)]
    InvariantService(FAST_CONFIG).solve_many(problems, jobs="auto")
    assert widths == [width]


def test_run_many_rejects_non_positive_timeout():
    service = InvariantService(FAST_CONFIG)
    with pytest.raises(ValueError):
        service.solve_many([tiny_problem("x")], timeout_seconds=0)
    with pytest.raises(ValueError):
        service.solve_many([tiny_problem("x")], timeout_seconds=-1.0)


def test_solved_property_guards_missing_result():
    record = ProblemRecord(name="x", status=STATUS_TIMEOUT)
    assert not record.solved


def test_pool_records_match_inline_run(normalized):
    """Two queue workers return, in input order, exactly the records
    an inline run produces (modulo timing fields)."""
    problems = [tiny_problem("pa", 2), tiny_problem("pb", 3)]
    service = InvariantService(FAST_CONFIG)
    inline = service.solve_many(problems, jobs=1)
    pooled = service.solve_many(problems, jobs=2)
    assert all(r.status == STATUS_OK for r in pooled)
    assert [normalized(r) for r in pooled] == [normalized(r) for r in inline]


def test_pool_timeout_records_status_and_sane_runtime():
    """Under jobs > 1 each queue worker's alarm produces timeout
    records with runtimes near the budget, not the full solve."""
    slow_config = InferenceConfig(max_epochs=500_000, dropout_schedule=(0.6,))
    start = time.perf_counter()
    records = InvariantService(slow_config).solve_many(
        [tiny_problem("t1"), tiny_problem("t2", step=2)],
        jobs=2,
        timeout_seconds=1.0,
    )
    elapsed = time.perf_counter() - start
    assert [r.status for r in records] == [STATUS_TIMEOUT, STATUS_TIMEOUT]
    assert all(0.5 < r.runtime_seconds < 20 for r in records)
    assert elapsed < 60


@pytest.fixture
def solve_calls(monkeypatch):
    """The names of the problems ``InvariantService.solve`` is called
    on in this process."""
    calls = []
    original = InvariantService.solve

    def solve(self, problem, *args, **kwargs):
        calls.append(problem.name)
        return original(self, problem, *args, **kwargs)

    monkeypatch.setattr(InvariantService, "solve", solve)
    return calls


def test_timeout_without_sigalrm_is_refused(monkeypatch, solve_calls):
    """No SIGALRM (e.g. Windows): a budget is refused before any solve,
    in every mode, instead of running without one."""
    import signal

    monkeypatch.delattr(signal, "SIGALRM")
    service = InvariantService(FAST_CONFIG)
    for mode in ({"jobs": 1}, {"jobs": 2}, {"jobs": "auto"}):
        with pytest.raises(ValueError, match="SIGALRM"):
            service.solve_many(
                [tiny_problem("noalarm")], timeout_seconds=5.0, **mode
            )
    assert solve_calls == []
    # Without a budget nothing needs SIGALRM.
    [record] = service.solve_many([tiny_problem("noalarm")], "guess_and_check")
    assert record.status == STATUS_OK


def test_timeout_off_main_thread_is_refused(solve_calls):
    """Solving on a non-main thread cannot arm SIGALRM, so a budget is
    refused before any solve, inline and queued alike (the coordinator
    drains a dead worker's items on this thread); no budget needs no
    alarm."""
    import threading

    service = InvariantService(FAST_CONFIG)
    outcomes = {}

    def run(name, **kwargs):
        try:
            outcomes[name] = service.solve_many(
                [tiny_problem(name)], "guess_and_check", **kwargs
            )
        except ValueError as exc:
            outcomes[name] = exc

    for name, kwargs in (
        ("inline", {"timeout_seconds": 5.0}),
        ("queued", {"timeout_seconds": 5.0, "jobs": 2}),
        ("nobudget", {}),
    ):
        thread = threading.Thread(target=run, args=(name,), kwargs=kwargs)
        thread.start()
        thread.join()
    for name in ("inline", "queued"):
        assert isinstance(outcomes[name], ValueError), outcomes[name]
        assert "main thread" in str(outcomes[name])
    assert [r.status for r in outcomes["nobudget"]] == [STATUS_OK]
    assert solve_calls == ["nobudget"]


def test_inline_solve_does_not_extend_the_callers_alarm():
    """A pre-existing ITIMER_REAL comes back with the solve's time
    subtracted, and an already-passed deadline still fires."""
    import signal

    fired = []
    previous = signal.signal(signal.SIGALRM, lambda *_: fired.append(True))
    try:
        with slow_solver(0.6) as solver:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            record = runner_module._run_one(
                InvariantService(FAST_CONFIG), tiny_problem("outer"), solver, 5
            )
            remaining = signal.getitimer(signal.ITIMER_REAL)[0]
            assert record.status == STATUS_OK
            assert 0.2 < remaining < 0.45

            signal.setitimer(signal.ITIMER_REAL, 0.3)
            runner_module._run_one(
                InvariantService(FAST_CONFIG), tiny_problem("outer"), solver, 5
            )
            time.sleep(0.05)
        assert fired
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
