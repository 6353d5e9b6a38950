"""Tests for the distributed runner: queue, worker, coordinator."""

import json
import multiprocessing
import os
import signal
import time
from dataclasses import fields

import pytest

from repro.api import InvariantService
from repro.dist import (
    QueueError,
    Worker,
    WorkQueue,
    config_from_dict,
    config_to_dict,
    enqueue_suite,
    merge_payload,
    problem_from_dict,
    problem_to_dict,
    run_distributed,
)
from repro.dist.wire import item_for_problem, resolve_item_problem
from repro.dist.worker import worker_main
from repro.errors import ReproError
from repro.infer import InferenceConfig, Problem
from repro.infer.runner import STATUS_OK, ProblemRecord

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


def make_item(item_id: str, index: int = 0) -> dict:
    return {"id": item_id, "index": index, "name": item_id, "problem": {}}


# -- queue mechanics -----------------------------------------------------------


def test_queue_claim_is_exclusive_and_ordered(tmp_path):
    queue = WorkQueue.create(tmp_path / "q")
    queue.enqueue([make_item("0001-b", 1), make_item("0000-a", 0)])
    first = queue.claim("w1", limit=1)
    assert [i.id for i in first] == ["0000-a"]  # sorted by id
    second = queue.claim("w2", limit=5)
    assert [i.id for i in second] == ["0001-b"]  # w1's claim not visible
    assert queue.claim("w3") == []
    assert queue.counts()["claimed"] == 2
    assert first[0].data["claimed_by"] == "w1"


def test_queue_enqueue_skips_known_ids(tmp_path):
    queue = WorkQueue.create(tmp_path / "q")
    assert queue.enqueue([make_item("0000-a")]) == (1, 0)
    assert queue.enqueue([make_item("0000-a")]) == (0, 1)  # pending
    queue.claim("w1")
    assert queue.enqueue([make_item("0000-a")]) == (0, 1)  # claimed
    queue.ack("0000-a", {"record": None}, "w1")
    assert queue.enqueue([make_item("0000-a")]) == (0, 1)  # journaled/done


def test_queue_rejects_bad_ids_and_limits(tmp_path):
    queue = WorkQueue.create(tmp_path / "q")
    with pytest.raises(QueueError):
        queue.enqueue([{"index": 0}])
    with pytest.raises(QueueError):
        queue.enqueue([make_item("../escape")])
    with pytest.raises(QueueError):
        queue.claim("w", limit=0)
    with pytest.raises(QueueError):
        WorkQueue.create(tmp_path / "q2", lease_seconds=0)


def test_queue_open_requires_existing_queue(tmp_path):
    with pytest.raises(QueueError, match="enqueue"):
        WorkQueue.open(tmp_path / "nothing")
    WorkQueue.create(tmp_path / "q")
    assert WorkQueue.open(tmp_path / "q").counts()["pending"] == 0


def test_lease_expiry_reclaims_abandoned_item(tmp_path):
    """An item claimed by a crashed worker comes back after its lease."""
    queue = WorkQueue.create(tmp_path / "q", lease_seconds=0.2)
    queue.enqueue([make_item("0000-a")])
    assert queue.claim("crashed")  # claim, then "crash" (never ack)
    assert queue.claim("other") == []  # lease still live
    time.sleep(0.3)
    reclaimed = queue.claim("other")
    assert [i.id for i in reclaimed] == ["0000-a"]
    assert reclaimed[0].data["claimed_by"] == "other"


def test_lease_clock_starts_at_claim_not_enqueue(tmp_path):
    """An item that sat in pending longer than the lease must not look
    instantly expired once claimed (the rename keeps the old mtime)."""
    queue = WorkQueue.create(tmp_path / "q", lease_seconds=0.3)
    queue.enqueue([make_item("0000-a")])
    time.sleep(0.4)  # older than the lease while still pending
    assert [i.id for i in queue.claim("w1")] == ["0000-a"]
    assert queue.claim("w2") == []  # fresh lease; not reapable yet
    time.sleep(0.4)
    assert [i.id for i in queue.claim("w2")] == ["0000-a"]  # now it is


def test_renew_extends_lease(tmp_path):
    queue = WorkQueue.create(tmp_path / "q", lease_seconds=0.4)
    queue.enqueue([make_item("0000-a")])
    queue.claim("w1")
    for _ in range(3):
        time.sleep(0.25)
        assert queue.renew("0000-a")  # keep-alive beats the 0.4s lease
        assert queue.claim("w2") == []
    assert queue.renew("missing") is False


def test_release_returns_item_to_pending(tmp_path):
    queue = WorkQueue.create(tmp_path / "q")
    queue.enqueue([make_item("0000-a")])
    queue.claim("w1")
    assert queue.release("0000-a")
    assert [i.id for i in queue.claim("w2")] == ["0000-a"]
    assert queue.release("missing") is False


def test_double_ack_is_idempotent(tmp_path):
    """Acking twice (e.g. after a lease-expiry re-claim raced the
    original worker) journals exactly one entry."""
    queue = WorkQueue.create(tmp_path / "q")
    queue.enqueue([make_item("0000-a")])
    queue.claim("w1")
    assert queue.ack("0000-a", {"record": {"name": "a"}}, "w1") is True
    assert queue.ack("0000-a", {"record": {"name": "a"}}, "w2") is False
    assert len(queue.journal_entries()) == 1
    assert queue.unfinished() == 0


def test_ack_after_lost_lease_still_marks_done(tmp_path):
    """A worker that finishes after its lease expired (claim re-taken)
    still journals; the re-claimer's later ack is then a no-op."""
    queue = WorkQueue.create(tmp_path / "q", lease_seconds=0.1)
    queue.enqueue([make_item("0000-a")])
    queue.claim("slow")
    time.sleep(0.2)
    queue.claim("fast")  # re-claims the expired item
    assert queue.ack("0000-a", {"record": {"who": "slow"}}, "slow") is True
    assert queue.ack("0000-a", {"record": {"who": "fast"}}, "fast") is False
    entries = queue.journal_entries()
    assert len(entries) == 1 and entries[0]["worker"] == "slow"


def test_racing_acks_journal_exactly_once(tmp_path):
    """The ack gate is an atomic rename: of many racing ackers for one
    item, exactly one journals, no matter how the lease bounced."""
    queue = WorkQueue.create(tmp_path / "q", lease_seconds=0.1)
    queue.enqueue([make_item("0000-a")])
    queue.claim("a")
    time.sleep(0.15)
    queue.claim("b")  # re-claim after expiry; both now "hold" the item
    results = [
        queue.ack("0000-a", {"record": {"who": w}}, w) for w in ("a", "b", "c")
    ]
    assert results == [True, False, False]
    assert len(queue.journal_entries()) == 1


def test_append_journal_dedups_by_id_under_lock(tmp_path):
    """The journal itself refuses a second line for an id, so even two
    ackers that each won a rename on different incarnations of the item
    file (a resurrected-claim race) cannot double-journal."""
    queue = WorkQueue.create(tmp_path / "q")
    assert queue._append_journal({"id": "0000-a", "payload": {}}) is True
    assert queue._append_journal({"id": "0000-a", "payload": {}}) is False
    # A different id sharing a prefix is not confused with it.
    assert queue._append_journal({"id": "0000-ab", "payload": {}}) is True
    assert [e["id"] for e in queue.journal_entries()] == ["0000-a", "0000-ab"]


def test_done_marker_without_journal_is_rerunnable(tmp_path):
    """A worker that dies between winning the ack rename and appending
    the journal leaves a done/ marker with no record; the item must be
    re-enqueueable so the record is not lost forever."""
    queue = WorkQueue.create(tmp_path / "q")
    queue.enqueue([make_item("0000-a")])
    queue.claim("doomed")
    # Simulate the crash window: marker renamed into place, no journal.
    os.rename(
        queue.root / "claimed" / "0000-a.json", queue.root / "done" / "0000-a.json"
    )
    assert queue.journal_entries() == []
    assert queue.enqueue([make_item("0000-a")]) == (1, 0)  # re-runnable
    queue.claim("retry")
    assert queue.ack("0000-a", {"record": {"ok": True}}, "retry") is True
    assert [e["worker"] for e in queue.journal_entries()] == ["retry"]
    # Now it is journaled, so a further enqueue dedups again.
    assert queue.enqueue([make_item("0000-a")]) == (0, 1)


def test_append_heals_torn_journal_tail(tmp_path):
    """An ack that lands after a crashed appender must not fuse its
    line with the torn tail into mid-file corruption."""
    queue = WorkQueue.create(tmp_path / "q")
    queue.enqueue([make_item("0000-a"), make_item("0001-b", 1)])
    queue.claim("w", limit=2)
    with open(queue.root / "journal.jsonl", "ab") as handle:
        handle.write(b'{"id": "0000-a", "worker": "w", "payl')  # torn
    queue.ack("0001-b", {"record": {"name": "b"}}, "w")  # heals, appends
    entries = queue.journal_entries()  # must not raise "corrupt journal"
    assert [e["id"] for e in entries] == ["0001-b"]


def test_corrupt_trailing_journal_line_is_truncated(tmp_path):
    """A crash mid-append leaves a partial last line; reads drop it and
    repair the file instead of dying."""
    queue = WorkQueue.create(tmp_path / "q")
    queue.enqueue([make_item("0000-a"), make_item("0001-b", 1)])
    queue.claim("w1", limit=2)
    queue.ack("0000-a", {"record": {"name": "a"}}, "w1")
    with open(queue.root / "journal.jsonl", "ab") as handle:
        handle.write(b'{"id": "0001-b", "worker": "w1", "payl')  # torn write
    entries = queue.journal_entries()
    assert [e["id"] for e in entries] == ["0000-a"]
    # The file was repaired: a fresh append parses cleanly again.
    queue.ack("0001-b", {"record": {"name": "b"}}, "w1")
    assert [e["id"] for e in queue.journal_entries()] == ["0000-a", "0001-b"]


def test_corrupt_middle_journal_line_raises(tmp_path):
    queue = WorkQueue.create(tmp_path / "q")
    with open(queue.root / "journal.jsonl", "wb") as handle:
        handle.write(b'{"id": "torn\n{"id": "0001-b", "payload": {}}\n')
    with pytest.raises(QueueError, match="corrupt journal"):
        queue.journal_entries()


def test_create_preserves_existing_lease(tmp_path):
    """Re-opening a queue via create() (the coordinator resume path)
    must not reset a custom lease back to the default."""
    WorkQueue.create(tmp_path / "q", lease_seconds=7.5)
    reopened = WorkQueue.create(tmp_path / "q", meta={"solver": "gcln"})
    assert reopened.lease_seconds == 7.5
    explicit = WorkQueue.create(tmp_path / "q", lease_seconds=9.0)
    assert explicit.lease_seconds == 9.0


# -- wire formats --------------------------------------------------------------


def test_problem_round_trips_through_json():
    from fractions import Fraction

    from repro.sampling.termgen import ExternalTerm

    problem = Problem(
        name="rt",
        source="program rt;\ninput n;\nwhile (n > 0) { n = n - 1; }",
        train_inputs=[{"n": 3}, {"n": Fraction(7, 2)}],
        check_inputs=[{"n": 9}],
        max_degree=3,
        variables={0: ["n"]},
        externals=[ExternalTerm(func="gcd", args=("a", "b"))],
        learn_inequalities=True,
        fractional=True,
        fractional_vars=["n"],
        ground_truth={0: ["n >= 0"]},
        max_states=50,
    )
    data = json.loads(json.dumps(problem_to_dict(problem)))
    rebuilt = problem_from_dict(data)
    assert rebuilt == problem


def test_problem_encoding_names_an_unencodable_input():
    problem = tiny_problem("bad")
    problem.train_inputs = [{"n": 2j}]
    with pytest.raises(ReproError, match=r"2j \(complex\)"):
        problem_to_dict(problem)


def test_config_round_trips_through_json():
    config = InferenceConfig(
        max_epochs=123,
        dropout_schedule=(0.5, 0.4),
        seeds=(9,),
        term_dropout=False,
    )
    data = json.loads(json.dumps(config_to_dict(config)))
    assert sorted(data) == sorted(f.name for f in fields(InferenceConfig))
    rebuilt = config_from_dict(data)
    assert rebuilt == config
    assert rebuilt.dropout_schedule == (0.5, 0.4)
    assert rebuilt.seeds == (9,)


@pytest.mark.parametrize(
    "payload, message",
    [
        # Replay-engine options that no longer exist.
        ({"backend": "fused"}, "backend"),
        ({"vectorized": False}, "vectorized"),
        ({"backend": "numpy", "max_epochs": 10}, "backend"),
        # Empty schedules would run zero attempts, or divide by zero.
        ({"seeds": []}, "seeds must not be empty"),
        ({"dropout_schedule": []}, "dropout_schedule must not be empty"),
        # An inequality option that no longer exists: bounds come only
        # from the bound bank.
        ({"ineq_restarts": 2}, "ineq_restarts"),
        # At rate 1 no unprotected term survives dropout, and the mask
        # redraw would never end.
        ({"dropout_schedule": [1.0]}, "dropout"),
        # The config is flat: the G-CLN hyperparameters, the fractional
        # intervals and the growth-ratio cap are constants.
        ({"gcln": {"max_epochs": 10}}, "gcln"),
        ({"fractional_intervals": [0.5]}, "fractional_intervals"),
        ({"growth_ratio_cap": 1}, "growth_ratio_cap"),
        # Values are checked too: a string budget would fail deep in
        # training, and a truthy string would switch dropout on.
        ({"max_epochs": "10"}, "max_epochs"),
        ({"max_epochs": -3}, "max_epochs"),
        ({"max_epochs": True}, "max_epochs"),
        ({"seeds": [1.5]}, "seeds"),
        ({"seeds": 5}, "seeds"),
        ({"term_dropout": "no"}, "term_dropout"),
        ({"dropout_schedule": ["0.5"]}, "dropout"),
    ],
)
def test_config_from_dict_refuses_bad_payloads(payload, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict(payload)


def test_suite_items_resolve_from_registry():
    from repro.bench import nla_problem

    item = item_for_problem(nla_problem("ps2"), 3, suite="nla")
    # NNNN-name-ffffffff: input index, name, canonical fingerprint prefix.
    assert item["id"].startswith("0003-ps2-")
    assert len(item["id"]) == len("0003-ps2-") + 8
    assert item["fingerprint"].startswith(item["id"].rsplit("-", 1)[1])
    assert resolve_item_problem(item) == nla_problem("ps2")
    # Same problem + settings → same id (what makes resume dedup work);
    # different solver or config → different id (stale-resume guard).
    assert item_for_problem(nla_problem("ps2"), 3, suite="nla")["id"] == item["id"]
    other = item_for_problem(nla_problem("ps2"), 3, suite="nla", solver="numinv")
    assert other["id"] != item["id"]


def test_inline_items_resolve_without_registry():
    problem = tiny_problem("adhoc")
    item = item_for_problem(problem, 0)
    rebuilt = resolve_item_problem(json.loads(json.dumps(item)))
    assert rebuilt == problem


def test_record_round_trips_through_wire():

    [record] = InvariantService(FAST_CONFIG).solve_many([tiny_problem("wire")])
    rebuilt = ProblemRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert rebuilt.name == record.name
    assert rebuilt.solved == record.solved
    assert rebuilt.result.loops[0].invariant == record.result.loops[0].invariant
    assert rebuilt.to_dict() == record.to_dict()


# -- worker --------------------------------------------------------------------


def test_worker_drains_queue_and_journals_records(tmp_path):
    queue = WorkQueue.create(
        tmp_path / "q",
        meta={"solver": "gcln", "config": config_to_dict(FAST_CONFIG)},
    )
    problems = [tiny_problem("wa"), tiny_problem("wb", step=2)]
    queue.enqueue([item_for_problem(p, i) for i, p in enumerate(problems)])
    seen = []
    worker = Worker(queue, worker_id="t", progress=lambda r: seen.append(r.name))
    assert worker.run() == 2
    assert sorted(seen) == ["wa", "wb"]
    assert queue.unfinished() == 0
    entries = queue.journal_entries()
    assert len(entries) == 2
    assert all(e["worker"] == "t" for e in entries)
    assert all(e["payload"]["record"]["status"] == STATUS_OK for e in entries)


def test_worker_acks_unresolvable_items_as_errors(tmp_path):
    queue = WorkQueue.create(tmp_path / "q")
    queue.enqueue(
        [{"id": "0000-bad", "index": 0, "name": "bad",
          "problem": {"kind": "suite", "suite": "nla", "name": "nosuch"}}]
    )
    worker = Worker(queue, worker_id="t")
    assert worker.run() == 1
    [entry] = queue.journal_entries()
    record = entry["payload"]["record"]
    assert record["status"] == "error"
    assert "cannot resolve" in record["error"]
    assert queue.unfinished() == 0  # a bad item must not wedge the queue


def test_worker_respects_max_items(tmp_path):
    queue = WorkQueue.create(
        tmp_path / "q", meta={"config": config_to_dict(FAST_CONFIG)}
    )
    problems = [tiny_problem("ma"), tiny_problem("mb")]
    queue.enqueue([item_for_problem(p, i) for i, p in enumerate(problems)])
    assert Worker(queue, worker_id="t").run(max_items=1) == 1
    assert queue.counts()["pending"] == 1


def test_worker_ignores_legacy_cross_batch_meta(tmp_path, normalized):
    """A queue written when meta.json could carry a cross-batch width
    still drains: the key is ignored, items solve one at a time, and
    the records equal a sequential run's (modulo timing fields)."""
    problems = [tiny_problem("xa"), tiny_problem("xb", 2)]
    queue = WorkQueue.create(
        tmp_path / "q",
        meta={"config": config_to_dict(FAST_CONFIG), "cross_batch": 2},
    )
    queue.enqueue([item_for_problem(p, i) for i, p in enumerate(problems)])
    worker = Worker(queue, worker_id="t")
    assert worker.batch_size == 1
    assert worker.run() == 2
    entries = sorted(queue.journal_entries(), key=lambda e: e["payload"]["index"])
    journaled = [ProblemRecord.from_dict(e["payload"]["record"]) for e in entries]
    sequential = InvariantService(FAST_CONFIG).solve_many(problems)
    assert [normalized(r) for r in journaled] == [
        normalized(r) for r in sequential
    ]


def test_worker_main_entry_point(tmp_path):
    queue = WorkQueue.create(
        tmp_path / "q", meta={"config": config_to_dict(FAST_CONFIG)}
    )
    queue.enqueue([item_for_problem(tiny_problem("wm"), 0)])
    assert worker_main(str(tmp_path / "q"), worker_id="wm") == 1
    [journaled] = queue.journaled_ids()
    assert journaled.startswith("0000-wm-")


# -- coordinator / solve_many(jobs=N) -----------------------------------------


def test_two_workers_match_sequential_run(tmp_path, normalized):
    """The acceptance bar: two workers draining one queue produce the
    exact records (modulo timing fields) of a sequential run."""
    problems = [tiny_problem("eq1"), tiny_problem("eq2", 2), tiny_problem("eq3", 3)]
    service = InvariantService(FAST_CONFIG)
    sequential = service.solve_many(problems, jobs=1)
    distributed = service.solve_many(
        problems, jobs=2, queue_dir=str(tmp_path / "q")
    )
    assert [r.name for r in distributed] == [r.name for r in sequential]
    assert [normalized(r) for r in distributed] == [
        normalized(r) for r in sequential
    ]
    # Both workers share one journal; every item acked exactly once.
    queue = WorkQueue.open(tmp_path / "q")
    journaled = sorted(queue.journaled_ids())
    assert len(journaled) == 3
    for item_id, prefix in zip(journaled, ["0000-eq1-", "0001-eq2-", "0002-eq3-"]):
        assert item_id.startswith(prefix)


def test_distributed_resume_skips_journaled_records(tmp_path):
    """Re-running the coordinator on a half-finished queue only solves
    the missing items."""
    problems = [tiny_problem("ra"), tiny_problem("rb", 2)]
    queue = WorkQueue.create(
        tmp_path / "q", meta={"config": config_to_dict(FAST_CONFIG)}
    )
    # Same config as the coordinator below: item ids embed the
    # (problem, solver, config) fingerprint, so resume only dedups when
    # the settings match.
    queue.enqueue(
        [item_for_problem(p, i, config=FAST_CONFIG) for i, p in enumerate(problems)]
    )
    Worker(queue, worker_id="first").run(max_items=1)  # half-finish
    assert queue.counts()["journaled"] == 1

    solved_by_second_run = []
    records = run_distributed(
        problems,
        FAST_CONFIG,
        workers=1,
        queue_dir=str(tmp_path / "q"),
        progress=lambda r: solved_by_second_run.append(r.name),
    )
    assert [r.name for r in records] == ["ra", "rb"]
    assert all(r.status == STATUS_OK for r in records)
    # Only one new journal entry was added; the first run's record was
    # merged, not re-solved.
    entries = queue.journal_entries()
    assert len(entries) == 2
    assert {e["worker"] for e in entries} == {"first", "local-0"}
    assert sorted(solved_by_second_run) == ["ra", "rb"]  # both reported


def test_coordinator_finishes_after_worker_sigkill(tmp_path):
    """SIGKILL-ing a worker mid-run leaves a resumable queue: the next
    coordinator run reaps the orphaned claim and completes the suite."""
    queue = WorkQueue.create(
        tmp_path / "q",
        meta={"config": config_to_dict(FAST_CONFIG)},
        lease_seconds=0.5,
    )
    problems = [tiny_problem("ka"), tiny_problem("kb", 2)]
    queue.enqueue(
        [item_for_problem(p, i, config=FAST_CONFIG) for i, p in enumerate(problems)]
    )

    # A worker that claims an item and is killed before acking.
    claimed = queue.claim("doomed", limit=1)
    assert len(claimed) == 1 and claimed[0].id.startswith("0000-ka-")

    process = multiprocessing.get_context().Process(
        target=worker_main, args=(str(tmp_path / "q"),),
        kwargs={"worker_id": "victim", "poll_seconds": 0.05},
    )
    process.start()
    try:
        deadline = time.time() + 30
        while queue.counts()["journaled"] < 1 and time.time() < deadline:
            time.sleep(0.05)
        try:
            os.kill(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already exited; the queue is drained either way
    finally:
        process.join()
    assert queue.counts()["journaled"] >= 1  # victim finished 'kb' first

    records = run_distributed(
        problems, FAST_CONFIG, workers=2, queue_dir=str(tmp_path / "q")
    )
    assert [r.name for r in records] == ["ka", "kb"]
    assert all(r.status == STATUS_OK for r in records)
    # No item was journaled twice despite the crash + re-claim.
    ids = sorted(e["id"] for e in queue.journal_entries())
    assert len(ids) == 2 and len(set(ids)) == 2
    assert ids[0].startswith("0000-ka-") and ids[1].startswith("0001-kb-")


def test_worker_stop_request_acks_current_and_releases_rest(tmp_path):
    """A graceful stop finishes the in-flight item, releases the rest of
    the claim batch back to pending, and returns normally."""
    queue = WorkQueue.create(
        tmp_path / "q", meta={"config": config_to_dict(FAST_CONFIG)}
    )
    problems = [tiny_problem("ga"), tiny_problem("gb", 2), tiny_problem("gc", 3)]
    queue.enqueue(
        [item_for_problem(p, i, config=FAST_CONFIG) for i, p in enumerate(problems)]
    )
    worker = Worker(queue, worker_id="stopper", batch_size=3)
    worker.progress = lambda record: worker.request_stop()  # stop after #1
    processed = worker.run()
    assert processed == 1
    counts = queue.counts()
    # the two unstarted items went straight back to pending — not
    # stranded in claimed/ waiting for a lease to expire
    assert counts == {"pending": 2, "claimed": 0, "done": 1, "journaled": 1}
    assert queue.journal_entries()[0]["id"].startswith("0000-ga-")

    # a resumed drain picks them up immediately (lease is 300s — finishing
    # fast proves nothing waited on expiry)
    finisher = Worker(queue, worker_id="finisher")
    assert finisher.run() == 2
    assert queue.unfinished() == 0


def test_worker_sigterm_exits_cleanly_without_stranding_claims(tmp_path):
    """SIGTERM mid-drain: exit code 0, nothing left in claimed/, and the
    remaining items resume with no lease-timeout wait."""
    queue = WorkQueue.create(
        tmp_path / "q", meta={"config": config_to_dict(FAST_CONFIG)}
    )  # default 300s lease: any post-TERM progress proves no expiry wait
    problems = [tiny_problem("ta"), tiny_problem("tb", 2), tiny_problem("tc", 3)]
    queue.enqueue(
        [item_for_problem(p, i, config=FAST_CONFIG) for i, p in enumerate(problems)]
    )
    process = multiprocessing.get_context().Process(
        target=worker_main, args=(str(tmp_path / "q"),),
        kwargs={"worker_id": "termed", "batch_size": 3, "poll_seconds": 0.05},
    )
    start = time.time()
    process.start()
    try:
        deadline = time.time() + 30
        while queue.counts()["journaled"] < 1 and time.time() < deadline:
            time.sleep(0.02)
        os.kill(process.pid, signal.SIGTERM)
    except ProcessLookupError:
        pass  # drained everything before the signal landed
    finally:
        process.join(timeout=60)
    assert process.exitcode == 0  # graceful, not signal death (-15)
    assert queue.counts()["claimed"] == 0  # nothing stranded on a lease

    # resume completes the suite well inside the 300s lease window
    finisher = Worker(queue, worker_id="resume")
    finisher.run()
    assert queue.unfinished() == 0
    assert queue.counts()["journaled"] == 3
    assert time.time() - start < 120  # nowhere near a lease expiry


def test_merge_payload_matches_run_all_shape(tmp_path):
    problems = [tiny_problem("pa"), tiny_problem("pb", 2)]
    InvariantService(FAST_CONFIG).solve_many(
        problems, queue_dir=str(tmp_path / "q")
    )
    payload = merge_payload(WorkQueue.open(tmp_path / "q"))
    assert set(payload) == {
        "suite", "solver", "jobs", "timeout_seconds",
        "summary", "records",
    }
    assert payload["summary"]["problems"] == 2
    assert [r["name"] for r in payload["records"]] == ["pa", "pb"]
    json.dumps(payload)  # must be pure JSON


def test_enqueue_suite_resolves_and_dedups(tmp_path):
    queue, added, skipped = enqueue_suite(
        str(tmp_path / "q"), "nla", ["ps2", "ps3"], config=FAST_CONFIG
    )
    assert (added, skipped) == (2, 0)
    assert queue.meta["suite"] == "nla"
    _, added2, skipped2 = enqueue_suite(
        str(tmp_path / "q"), "nla", ["ps2", "ps3"], config=FAST_CONFIG
    )
    assert (added2, skipped2) == (0, 2)
    item = queue.claim("w")[0]
    assert item.data["problem"] == {
        "kind": "suite", "suite": "nla", "name": "ps2"
    }


def test_run_many_validates_distributed_args():
    """``jobs`` is the one width knob: ``workers=`` is gone, and a bad
    width is refused before any queue is made."""
    service = InvariantService(FAST_CONFIG)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        service.solve_many([tiny_problem("x")], jobs=0)
    with pytest.raises(ValueError, match="integer or 'auto'"):
        service.solve_many([tiny_problem("x")], jobs="many")
    with pytest.raises(TypeError, match="workers"):
        service.solve_many([tiny_problem("x")], workers=2)


def test_service_solve_many_workers(tmp_path):
    from repro.api import ProblemSolved

    service = InvariantService(FAST_CONFIG)
    events = []
    service.subscribe(lambda e: events.append(e), kinds=(ProblemSolved,))
    records = service.solve_many(
        [tiny_problem("sv1"), tiny_problem("sv2", 2)],
        jobs=2,
        queue_dir=str(tmp_path / "q"),
    )
    assert [r.name for r in records] == ["sv1", "sv2"]
    assert all(r.status == STATUS_OK for r in records)
    assert sorted(e.problem for e in events) == ["sv1", "sv2"]


def test_cli_enqueue_and_worker_roundtrip(tmp_path, capsys):
    from repro.cli import main

    queue_dir = str(tmp_path / "q")
    assert main(
        [
            "enqueue", "--queue-dir", queue_dir, "--suite", "stability",
            "--problems", "conj_eq", "--epochs", "200",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "enqueued 1 item(s)" in out
    assert main(["worker", "--queue-dir", queue_dir]) == 0
    out = capsys.readouterr().out
    assert "processed 1 item(s)" in out
    queue = WorkQueue.open(queue_dir)
    assert queue.unfinished() == 0
    [entry] = queue.journal_entries()
    assert entry["payload"]["record"]["name"] == "conj_eq"


def test_cli_worker_rejects_missing_queue(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="not a work queue"):
        main(["worker", "--queue-dir", str(tmp_path / "missing")])


def test_cli_run_all_workers_validation(capsys):
    """``--jobs`` sizes the worker fleet; ``--workers`` is gone."""
    from repro.cli import main

    for argv, message in (
        (["--jobs", "0"], "argument --jobs: must be >= 1"),
        (["--workers", "2"], "unrecognized arguments: --workers 2"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-all", *argv])
        assert excinfo.value.code == 2  # an argparse error
        assert message in capsys.readouterr().err


@pytest.mark.slow
def test_cli_run_all_distributed(tmp_path, capsys):
    from repro.cli import main

    out_path = tmp_path / "dist.json"
    code = main(
        [
            "run-all", "--suite", "stability", "--problems", "conj_eq",
            "--epochs", "400", "--jobs", "2",
            "--queue-dir", str(tmp_path / "q"), "--json", str(out_path),
        ]
    )
    assert code in (0, 1)
    out = capsys.readouterr().out
    assert "2 job(s)" in out
    payload = json.loads(out_path.read_text())
    assert payload["records"][0]["name"] == "conj_eq"
    assert payload["records"][0]["status"] == "ok"
