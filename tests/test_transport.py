"""Tests for the queue transport layer: local, HTTP, and fault injection.

The contract under test (see :mod:`repro.dist.transport`): a queue
drained over :class:`HttpTransport` — no filesystem access — behaves
exactly like a local one (same records as sequential solving, same
crash/resume semantics), and the queue's claim/ack/journal invariants
survive a transport that drops, duplicates, and delays operations.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import InvariantService
from repro.dist import (
    HttpTransport,
    LocalDirTransport,
    QueueError,
    RetryingTransport,
    Transport,
    TransportError,
    TransportNotFound,
    Worker,
    WorkQueue,
    run_distributed,
    transport_for,
)
from repro.dist.coordinator import build_meta
from repro.dist.server import serve_queue
from repro.dist.wire import item_for_problem
from repro.infer import InferenceConfig, Problem

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


@pytest.fixture
def http_queue(tmp_path):
    """A live queue server over a tmp directory: (url, queue_dir, server)."""
    queue_dir = tmp_path / "served-q"
    server = serve_queue(str(queue_dir), port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}", queue_dir, server
    finally:
        server.shutdown()
        server.server_close()


def fast_http(url: str) -> HttpTransport:
    """An HttpTransport that fails fast (tests hit a live local server)."""
    return HttpTransport(url, retries=1, backoff_seconds=0.01)


def _follower_env() -> dict:
    """Environment for a `python -m repro worker` follower subprocess."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    return env


# -- local transport primitives ------------------------------------------------


def test_local_transport_read_write_delete(tmp_path):
    transport = LocalDirTransport(tmp_path / "q")
    transport.ensure_layout()
    with pytest.raises(TransportNotFound):
        transport.read("pending/0000-a.json")
    transport.write("pending/0000-a.json", b'{"id": "0000-a"}')
    assert transport.read("pending/0000-a.json") == b'{"id": "0000-a"}'
    assert transport.exists("pending/0000-a.json")
    assert transport.delete("pending/0000-a.json") is True
    assert transport.delete("pending/0000-a.json") is False
    assert not transport.exists("pending/0000-a.json")


def test_local_transport_rename_gate(tmp_path):
    transport = LocalDirTransport(tmp_path / "q")
    transport.ensure_layout()
    transport.write("pending/0000-a.json", b"{}")
    assert transport.rename("pending/0000-a.json", "claimed/0000-a.json")
    # The source is gone: a second (racing or retried) rename loses.
    assert not transport.rename("pending/0000-a.json", "claimed/0000-a.json")
    assert transport.listdir("claimed") == ["0000-a.json"]


def test_local_transport_scan_shares_one_clock(tmp_path):
    transport = LocalDirTransport(tmp_path / "q")
    transport.ensure_layout()
    transport.write("claimed/0000-a.json", b"{}")
    now, stamps = transport.scan("claimed")
    assert [name for name, _ in stamps] == ["0000-a.json"]
    # Fresh file: its stamp is "now" up to clock resolution.
    assert abs(now - stamps[0][1]) < 5.0
    assert transport.scan("nonexistent")[1] == []


def test_local_transport_listdir_hides_temp_files(tmp_path):
    transport = LocalDirTransport(tmp_path / "q")
    transport.ensure_layout()
    transport.write("pending/0000-a.json", b"{}")
    (tmp_path / "q" / "pending" / ".tmp-zzz.json").write_bytes(b"{}")
    (tmp_path / "q" / "pending" / "notes.txt").write_bytes(b"")
    assert transport.listdir("pending") == ["0000-a.json"]


def test_local_transport_journal_append_dedups_on_needle(tmp_path):
    transport = LocalDirTransport(tmp_path / "q")
    transport.ensure_layout()
    line = b'{"id":"a","payload":1}\n'
    assert transport.journal_append(line, b'{"id":"a",') is True
    assert transport.journal_append(line, b'{"id":"a",') is False
    assert transport.journal_append(b'{"id":"b"}\n', b'{"id":"b",') is True
    assert transport.journal_read().count(b'"id":"a"') == 1


def test_local_transport_journal_append_heals_torn_tail(tmp_path):
    transport = LocalDirTransport(tmp_path / "q")
    transport.ensure_layout()
    transport.journal_append(b'{"id":"a"}\n', b'{"id":"a",')
    with open(tmp_path / "q" / "journal.jsonl", "ab") as handle:
        handle.write(b'{"id":"b", TORN')
    assert transport.journal_append(b'{"id":"c"}\n', b'{"id":"c",') is True
    assert transport.journal_read() == b'{"id":"a"}\n{"id":"c"}\n'


# -- HTTP transport over a live server -----------------------------------------


def test_http_transport_matches_local_semantics(http_queue):
    url, queue_dir, _server = http_queue
    remote = fast_http(url)
    local = LocalDirTransport(queue_dir)
    remote.write("pending/0000-a.json", b'{"id": "0000-a"}')
    # The same bytes are visible through both transports: one queue.
    assert local.read("pending/0000-a.json") == b'{"id": "0000-a"}'
    assert remote.read("pending/0000-a.json") == b'{"id": "0000-a"}'
    assert remote.exists("pending/0000-a.json")
    with pytest.raises(TransportNotFound):
        remote.read("pending/missing.json")
    assert remote.rename("pending/0000-a.json", "claimed/0000-a.json")
    assert not remote.rename("pending/0000-a.json", "claimed/0000-a.json")
    assert remote.listdir("claimed") == ["0000-a.json"]
    assert remote.touch("claimed/0000-a.json")
    now, stamps = remote.scan("claimed")
    assert [name for name, _ in stamps] == ["0000-a.json"]
    assert abs(now - stamps[0][1]) < 5.0
    assert remote.delete("claimed/0000-a.json") is True
    assert remote.delete("claimed/0000-a.json") is False


def test_http_transport_journal_roundtrip(http_queue):
    url, queue_dir, _server = http_queue
    remote = fast_http(url)
    line = b'{"id":"a","payload":1}\n'
    assert remote.journal_read() == b""
    assert remote.journal_append(line, b'{"id":"a",') is True
    # Retry-after-lost-response: the dedup makes re-sends exactly-once.
    assert remote.journal_append(line, b'{"id":"a",') is False
    assert remote.journal_read() == line
    assert (queue_dir / "journal.jsonl").read_bytes() == line
    remote.journal_truncate(0, expected_size=len(line))
    assert remote.journal_read() == b""


def test_http_transport_rejects_unsafe_paths(http_queue):
    url, _queue_dir, _server = http_queue
    remote = fast_http(url)
    for bad in ("../secrets.json", "pending/../../etc/passwd.json",
                "pending/.tmp-x.json", "somewhere/else.json"):
        with pytest.raises(TransportError):
            remote.write(bad, b"{}")


def test_http_transport_retries_then_raises_when_unreachable():
    transport = HttpTransport(
        "http://127.0.0.1:1", retries=2, backoff_seconds=0.01,
        timeout_seconds=0.2,
    )
    start = time.monotonic()
    with pytest.raises(TransportError, match="after 3 attempts"):
        transport.read("meta.json")
    assert time.monotonic() - start >= 0.03  # backoff actually slept


def test_transport_for_dispatches_on_scheme(tmp_path):
    assert isinstance(transport_for(tmp_path / "q"), LocalDirTransport)
    assert isinstance(transport_for("http://example:1"), HttpTransport)
    inner = LocalDirTransport(tmp_path / "q")
    assert transport_for(inner) is inner


# -- a full queue over HTTP ----------------------------------------------------


def test_queue_over_http_is_same_queue_as_local(http_queue):
    url, queue_dir, _server = http_queue
    queue = WorkQueue.create(url, meta={"solver": "gcln"})
    queue.enqueue([make_item("0000-a"), make_item("0001-b", 1)])
    # The served directory is a perfectly normal local queue.
    local = WorkQueue.open(queue_dir)
    assert local.counts()["pending"] == 2
    claimed = queue.claim("remote-w", limit=1)
    assert [i.id for i in claimed] == ["0000-a"]
    assert local.counts() == {
        "pending": 1, "claimed": 1, "done": 0, "journaled": 0,
    }
    assert queue.ack("0000-a", {"record": None}, worker="remote-w") is True
    assert queue.ack("0000-a", {"record": None}, worker="remote-w") is False
    assert local.journaled_ids() == {"0000-a"}
    # And vice versa: a local claim is visible remotely.
    local.claim("local-w", limit=1)
    assert queue.counts()["claimed"] == 1
    assert queue.unfinished() == 1


def test_queue_open_rejects_server_with_no_meta(http_queue):
    url, _queue_dir, _server = http_queue
    with pytest.raises(QueueError, match="not a work queue"):
        WorkQueue.open(url)


def test_two_http_workers_match_sequential(http_queue, normalized):
    url, _queue_dir, _server = http_queue
    problems = [tiny_problem("ta"), tiny_problem("tb", step=2),
                tiny_problem("tc", step=3)]
    queue = WorkQueue.create(
        url, meta=build_meta(solver="gcln", config=FAST_CONFIG)
    )
    items = [
        item_for_problem(p, i, solver="gcln", config=FAST_CONFIG)
        for i, p in enumerate(problems)
    ]
    queue.enqueue(items)

    # Two real follower processes, exactly as a remote operator would
    # run them: no shared filesystem, only the URL.  (Threads will not
    # do here — the autodiff tape is a per-process singleton, which is
    # why the coordinator forks worker *processes* too.)
    followers = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--queue-url", url, "--worker-id", f"follower-{i}",
                "--poll", "0.05",
            ],
            env=_follower_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(2)
    ]
    for process in followers:
        assert process.wait(timeout=120) == 0
    assert queue.unfinished() == 0
    entries = queue.journal_entries()
    assert {e["id"] for e in entries} == {i["id"] for i in items}
    by_id = {e["id"]: e["payload"]["record"] for e in entries}
    from repro.infer.runner import ProblemRecord

    remote = [
        normalized(ProblemRecord.from_dict(by_id[i["id"]])) for i in items
    ]
    sequential = [
        normalized(r) for r in InvariantService(FAST_CONFIG).solve_many(problems)
    ]
    assert remote == sequential
    # Both followers reported health; the queue host saw them exit.
    fleet = {w["worker"]: w for w in queue.worker_health()}
    assert set(fleet) == {"follower-0", "follower-1"}
    assert all(w["state"] == "exited" for w in fleet.values())
    assert sum(w["items_done"] for w in fleet.values()) == len(items)


def test_killed_http_follower_claim_is_reaped_and_resumed(http_queue, normalized):
    """A follower that dies mid-claim (SIGKILL: no release, no ack) loses
    its lease; a second follower re-claims and the records still match
    sequential solving exactly."""
    url, _queue_dir, _server = http_queue
    problems = [tiny_problem("ka"), tiny_problem("kb", step=2)]
    queue = WorkQueue.create(
        url,
        meta=build_meta(solver="gcln", config=FAST_CONFIG),
        lease_seconds=0.5,
    )
    items = [
        item_for_problem(p, i, solver="gcln", config=FAST_CONFIG)
        for i, p in enumerate(problems)
    ]
    queue.enqueue(items)
    # The "killed" follower: claims over HTTP, then vanishes without
    # acking or releasing — exactly what SIGKILL leaves behind.
    killed = WorkQueue.open(url).claim("killed-follower", limit=1)
    assert len(killed) == 1
    time.sleep(0.6)  # let the lease expire
    Worker(
        WorkQueue.open(url), worker_id="survivor", poll_seconds=0.05,
        heartbeat_seconds=0,
    ).run()
    assert queue.unfinished() == 0
    from repro.infer.runner import ProblemRecord

    by_id = {
        e["id"]: e["payload"]["record"] for e in queue.journal_entries()
    }
    resumed = [
        normalized(ProblemRecord.from_dict(by_id[i["id"]])) for i in items
    ]
    sequential = [
        normalized(r) for r in InvariantService(FAST_CONFIG).solve_many(problems)
    ]
    assert resumed == sequential
    # Exactly one journal line per item despite the re-claim.
    assert len(queue.journal_entries()) == len(items)


def test_http_stats_endpoint_reports_counts_and_health(http_queue):
    url, _queue_dir, _server = http_queue
    queue = WorkQueue.create(url, meta={"solver": "gcln", "suite": "nla"})
    queue.enqueue([make_item("0000-a")])
    queue.heartbeat("w1", {"pid": 1, "host": "h", "items_done": 0})
    import urllib.request

    with urllib.request.urlopen(f"{url}/v1/stats", timeout=5) as response:
        stats = json.loads(response.read())
    assert stats["counts"]["pending"] == 1
    assert stats["meta"]["solver"] == "gcln"
    assert [w["worker"] for w in stats["workers"]] == ["w1"]
    assert stats["workers"][0]["state"] == "live"


# -- heartbeats and health -----------------------------------------------------


def test_worker_health_states(tmp_path):
    queue = WorkQueue.create(tmp_path / "q")
    queue.heartbeat("alive", {"pid": 1, "items_done": 2, "exited": False})
    queue.heartbeat("gone", {"pid": 2, "items_done": 5, "exited": True})
    fleet = {w["worker"]: w for w in queue.worker_health()}
    assert fleet["alive"]["state"] == "live"
    assert fleet["alive"]["age_seconds"] < 5.0
    assert fleet["gone"]["state"] == "exited"
    # A beat nobody refreshed goes stale once it outlives the window.
    assert (
        {w["worker"]: w["state"] for w in queue.worker_health(
            stale_after_seconds=0.0
        )}["alive"]
        == "stale"
    )


def test_worker_heartbeats_during_run(tmp_path):
    problems = [tiny_problem("hb")]
    queue = WorkQueue.create(
        tmp_path / "q", meta=build_meta(solver="gcln", config=FAST_CONFIG)
    )
    queue.enqueue([
        item_for_problem(p, i, solver="gcln", config=FAST_CONFIG)
        for i, p in enumerate(problems)
    ])
    Worker(queue, worker_id="beater", heartbeat_seconds=0.01).run()
    (entry,) = queue.worker_health()
    assert entry["worker"] == "beater"
    assert entry["state"] == "exited"
    assert entry["items_done"] == 1
    assert entry["pid"] > 0
    assert entry["host"]
    assert entry["last_ack_age"] is not None


def test_heartbeat_failure_never_breaks_the_worker(tmp_path):
    class NoHealthTransport(LocalDirTransport):
        def write(self, path, data):
            if path.startswith("health/"):
                raise TransportError("health writes rejected")
            super().write(path, data)

    transport = NoHealthTransport(tmp_path / "q")
    queue = WorkQueue.create(
        transport=transport,
        meta=build_meta(solver="gcln", config=FAST_CONFIG),
    )
    queue.enqueue([
        item_for_problem(tiny_problem("nh"), 0, solver="gcln",
                         config=FAST_CONFIG)
    ])
    processed = Worker(
        queue, worker_id="stoic", heartbeat_seconds=0.01
    ).run()
    assert processed == 1  # the solve loop shrugged the beats off
    assert queue.worker_health() == []


def test_worker_id_sanitized_for_health_path(tmp_path):
    queue = WorkQueue.create(tmp_path / "q")
    queue.heartbeat("host name/with:odd chars", {"pid": 1})
    (entry,) = queue.worker_health()
    # The payload keeps the real id; only the filename is sanitized.
    assert entry["worker"] == "host name/with:odd chars"


# -- fault injection -----------------------------------------------------------


class FlakyTransport(Transport):
    """Deterministically unreliable transport: drops, duplicates, delays.

    Every Nth operation fails *before* reaching the inner transport
    (dropped request), every Mth fails *after* it took effect (dropped
    response — the retry then re-delivers a completed operation), and
    mutating verbs are sporadically executed twice (duplicated
    delivery).  A tiny delay widens race windows.
    """

    def __init__(self, inner: Transport, *, fail_before_every: int = 7,
                 fail_after_every: int = 11, duplicate_every: int = 5,
                 delay_seconds: float = 0.0):
        self.inner = inner
        self.fail_before_every = fail_before_every
        self.fail_after_every = fail_after_every
        self.duplicate_every = duplicate_every
        self.delay_seconds = delay_seconds
        self._calls = 0
        self._lock = threading.Lock()
        self.faults = {"before": 0, "after": 0, "duplicated": 0}

    def _invoke(self, name, *args, mutating=False):
        with self._lock:
            self._calls += 1
            calls = self._calls
        if self.delay_seconds:
            time.sleep(self.delay_seconds)
        if calls % self.fail_before_every == 0:
            self.faults["before"] += 1
            raise TransportError(f"injected drop before {name}")
        result = getattr(self.inner, name)(*args)
        if mutating and calls % self.duplicate_every == 0:
            self.faults["duplicated"] += 1
            getattr(self.inner, name)(*args)  # double delivery
        if calls % self.fail_after_every == 0:
            self.faults["after"] += 1
            raise TransportError(f"injected drop after {name}")
        return result

    def read(self, path):
        return self._invoke("read", path)

    def write(self, path, data):
        return self._invoke("write", path, data, mutating=True)

    def delete(self, path):
        return self._invoke("delete", path)

    def exists(self, path):
        return self._invoke("exists", path)

    def listdir(self, directory):
        return self._invoke("listdir", directory)

    def scan(self, directory):
        return self._invoke("scan", directory)

    def rename(self, src, dst):
        return self._invoke("rename", src, dst, mutating=True)

    def touch(self, path):
        return self._invoke("touch", path, mutating=True)

    def journal_append(self, data, needle):
        return self._invoke("journal_append", data, needle, mutating=True)

    def journal_read(self):
        return self._invoke("journal_read")

    def journal_truncate(self, offset, expected_size):
        return self._invoke("journal_truncate", offset, expected_size)

    def ensure_layout(self):
        return self.inner.ensure_layout()

    def describe(self):
        return f"flaky({self.inner.describe()})"


def test_flaky_transport_drain_matches_sequential(tmp_path, normalized):
    """A worker on a dropping/duplicating/delaying transport still
    produces exactly the sequential records: claims never double-solve
    into the journal and no journal line tears."""
    problems = [tiny_problem("fa"), tiny_problem("fb", step=2),
                tiny_problem("fc", step=3)]
    flaky = FlakyTransport(LocalDirTransport(tmp_path / "q"))
    transport = RetryingTransport(flaky, retries=6)
    queue = WorkQueue.create(
        transport=transport,
        meta=build_meta(solver="gcln", config=FAST_CONFIG),
        lease_seconds=2.0,
    )
    items = [
        item_for_problem(p, i, solver="gcln", config=FAST_CONFIG)
        for i, p in enumerate(problems)
    ]
    queue.enqueue(items)
    # Two rounds so duplicated acks/renames from round one meet the
    # dedup defenses in round two as well.
    Worker(queue, worker_id="flaky-w", heartbeat_seconds=0.05,
           poll_seconds=0.05).run()
    assert queue.unfinished() == 0
    assert flaky.faults["before"] > 0 and flaky.faults["after"] > 0
    assert flaky.faults["duplicated"] > 0

    # Journal integrity: parses cleanly, exactly one line per item.
    clean = WorkQueue.open(tmp_path / "q")
    entries = clean.journal_entries(repair=False)
    assert sorted(e["id"] for e in entries) == sorted(i["id"] for i in items)
    raw = clean.transport.journal_read()
    assert raw.endswith(b"\n")
    for line in raw.splitlines():
        json.loads(line)  # no torn/fused lines anywhere

    from repro.infer.runner import ProblemRecord

    by_id = {e["id"]: e["payload"]["record"] for e in entries}
    flaky_records = [
        normalized(ProblemRecord.from_dict(by_id[i["id"]])) for i in items
    ]
    sequential = [
        normalized(r) for r in InvariantService(FAST_CONFIG).solve_many(problems)
    ]
    assert flaky_records == sequential


def test_duplicated_claims_stay_exclusive(tmp_path):
    """Duplicate rename delivery must never hand one item to two
    workers: the second delivery of pending->claimed finds the source
    gone and reports False."""
    flaky = FlakyTransport(
        LocalDirTransport(tmp_path / "q"), duplicate_every=2,
        fail_before_every=10 ** 9, fail_after_every=10 ** 9,
    )
    transport = RetryingTransport(flaky, retries=6)
    queue = WorkQueue.create(transport=transport)
    queue.enqueue([make_item(f"{i:04d}-it", i) for i in range(6)])
    seen: list[str] = []
    for worker in ("w1", "w2", "w3"):
        for item in queue.claim(worker, limit=2):
            seen.append(item.id)
    assert len(seen) == len(set(seen)) == 6  # every item claimed once
    assert queue.counts()["claimed"] == 6


def test_retrying_transport_gives_up_after_budget(tmp_path):
    class AlwaysDown(LocalDirTransport):
        def read(self, path):
            raise TransportError("down")

    transport = RetryingTransport(AlwaysDown(tmp_path / "q"), retries=2)
    with pytest.raises(TransportError, match="after 3 attempts"):
        transport.read("meta.json")


def test_retrying_transport_passes_not_found_through(tmp_path):
    transport = RetryingTransport(LocalDirTransport(tmp_path / "q"))
    transport.ensure_layout()
    with pytest.raises(TransportNotFound):
        transport.read("pending/none.json")


def test_ack_journals_even_when_winner_crashed_before_journaling(tmp_path):
    """A done/ marker without a journal line (the winner died between
    rename and append) is healed by any later acker instead of losing
    the record — the idempotence retries rely on."""
    queue = WorkQueue.create(tmp_path / "q")
    queue.enqueue([make_item("0000-a")])
    queue.claim("w1")
    # Simulate the winner's crash: the rename happened, the append did
    # not.
    assert queue.transport.rename("claimed/0000-a.json", "done/0000-a.json")
    assert queue.journal_entries() == []
    # A retried/racing ack now completes the job.
    assert queue.ack("0000-a", {"record": None}, worker="w2") is True
    assert queue.journaled_ids() == {"0000-a"}
    # And further acks are still no-ops.
    assert queue.ack("0000-a", {"record": None}, worker="w3") is False
    assert len(queue.journal_entries()) == 1


# -- elastic fleet -------------------------------------------------------------


def test_run_distributed_auto_matches_sequential(tmp_path, normalized):
    problems = [tiny_problem("ea"), tiny_problem("eb", step=2),
                tiny_problem("ec", step=3)]
    records = run_distributed(
        problems,
        FAST_CONFIG,
        workers="auto",
        max_workers=2,
        queue_dir=str(tmp_path / "q"),
        poll_seconds=0.1,
    )
    sequential = InvariantService(FAST_CONFIG).solve_many(problems)
    assert [normalized(r) for r in records] == [
        normalized(r) for r in sequential
    ]


def test_run_distributed_auto_reports_fleet_status(tmp_path):
    snapshots: list[dict] = []
    run_distributed(
        [tiny_problem("fs")],
        FAST_CONFIG,
        workers="auto",
        max_workers=2,
        queue_dir=str(tmp_path / "q"),
        poll_seconds=0.05,
        fleet_status=snapshots.append,
    )
    assert snapshots, "the live tail never fired"
    assert all("live_workers" in s and "pending" in s for s in snapshots)
    final = snapshots[-1]
    assert final["journaled"] == 1
    assert isinstance(final["workers"], list)


def test_run_distributed_validates_worker_bounds():
    with pytest.raises(ValueError, match="integer or 'auto'"):
        run_distributed([tiny_problem("vb")], FAST_CONFIG, workers="many")
    with pytest.raises(ValueError, match="min_workers"):
        run_distributed(
            [tiny_problem("vb")], FAST_CONFIG, workers="auto", min_workers=0
        )
    with pytest.raises(ValueError, match="max_workers"):
        run_distributed(
            [tiny_problem("vb")], FAST_CONFIG, workers="auto",
            min_workers=3, max_workers=2,
        )


def test_run_many_accepts_auto(tmp_path):
    service = InvariantService(FAST_CONFIG)
    records = service.solve_many(
        [tiny_problem("rma")],
        jobs="auto",
        max_workers=1,
        queue_dir=str(tmp_path / "q"),
    )
    assert len(records) == 1 and records[0].solved
    with pytest.raises(ValueError, match="integer or 'auto'"):
        service.solve_many([tiny_problem("rma")], jobs="soon")


# -- CLI surface ---------------------------------------------------------------


def test_local_fan_out_loads_no_http_code():
    """``solve_many(jobs=N)`` imports the coordinator; in a fresh
    interpreter that import must load neither the HTTP client
    (``HttpTransport`` imports it when used) nor the queue server."""
    probe = (
        "import sys\n"
        "names = ('urllib.request', 'http.server')\n"
        "import repro.dist.coordinator\n"
        "print(','.join(n for n in names if n in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=_follower_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == ""


def test_queue_server_exits_cleanly_on_sigterm(tmp_path):
    """SIGTERM stops ``queue-server`` with exit code 0 within seconds:
    the handler unwinds ``serve_forever`` rather than waiting on it."""
    with subprocess.Popen(
        [
            sys.executable, "-m", "repro", "queue-server",
            "--queue-dir", str(tmp_path / "q"), "--port", "0",
        ],
        env=_follower_env(),
        stdout=subprocess.PIPE,
        text=True,
    ) as server:
        try:
            assert "serving work queue" in server.stdout.readline()
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()



def test_cli_run_all_workers_auto_validation(capsys):
    from repro.cli import main

    for argv, message in (
        (["--jobs", "soon"], "argument --jobs: must be an integer or 'auto'"),
        (["--jobs", "0"], "argument --jobs: must be >= 1"),
        (["--jobs", "auto", "--min-workers", "0"], "argument --min-workers"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-all", *argv])
        assert excinfo.value.code == 2  # an argparse error
        assert message in capsys.readouterr().err
    with pytest.raises(SystemExit, match="max_workers"):
        main([
            "run-all", "--jobs", "auto",
            "--min-workers", "3", "--max-workers", "2",
        ])


def test_cli_worker_requires_exactly_one_queue_target(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="queue-dir"):
        main(["worker"])
    with pytest.raises(SystemExit, match="mutually exclusive"):
        main([
            "worker", "--queue-dir", str(tmp_path / "q"),
            "--queue-url", "http://127.0.0.1:1",
        ])


def test_cli_queue_status_local(tmp_path, capsys):
    from repro.cli import main

    queue = WorkQueue.create(
        tmp_path / "q", meta=build_meta(solver="gcln", suite="nla")
    )
    queue.enqueue([make_item("0000-a")])
    queue.heartbeat(
        "w1", {"pid": 42, "host": "box", "items_done": 3, "last_ack_age": 1.5}
    )
    assert main(["queue-status", "--queue-dir", str(tmp_path / "q")]) == 0
    out = capsys.readouterr().out
    assert "1 pending" in out
    assert "w1" in out and "box" in out and "42" in out
    assert "live" in out


def test_cli_queue_status_json_over_http(http_queue, capsys):
    from repro.cli import main

    url, _queue_dir, _server = http_queue
    queue = WorkQueue.create(url, meta=build_meta(solver="gcln"))
    queue.enqueue([make_item("0000-a")])
    queue.heartbeat("remote-w", {"pid": 7, "host": "far", "items_done": 0})
    assert main(["queue-status", "--queue-url", url, "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["pending"] == 1
    assert payload["workers"][0]["worker"] == "remote-w"
    assert payload["workers"][0]["state"] == "live"


def test_cli_worker_drains_over_queue_url(http_queue, capsys):
    from repro.cli import main

    url, _queue_dir, _server = http_queue
    queue = WorkQueue.create(
        url, meta=build_meta(solver="gcln", config=FAST_CONFIG)
    )
    queue.enqueue([
        item_for_problem(tiny_problem("cu"), 0, solver="gcln",
                         config=FAST_CONFIG)
    ])
    assert main(["worker", "--queue-url", url]) == 0
    out = capsys.readouterr().out
    assert "processed 1 item(s)" in out
    assert queue.unfinished() == 0


def test_serve_executor_describe_includes_worker_health(tmp_path):
    from repro.serve.executor import QueueExecutor

    executor = QueueExecutor(str(tmp_path / "q"), solver="gcln")
    executor.queue.heartbeat("serve-w", {"pid": 9, "items_done": 4})
    description = executor.describe()
    assert description["mode"] == "queue"
    assert [w["worker"] for w in description["workers"]] == ["serve-w"]
