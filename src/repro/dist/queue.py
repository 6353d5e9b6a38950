"""Transport-backed, journaled work queue.

One queue is one directory — local, or served over HTTP by
``python -m repro queue-server``.  Every mutation is an atomic
operation of the underlying :class:`~repro.dist.transport.Transport`,
so any number of worker processes (or hosts, with no shared filesystem
at all) can claim from the same queue without a broker:

```
queue-dir/
├── meta.json        run-wide settings (solver, config, lease, ...)
├── pending/         one <item-id>.json per unclaimed item
├── claimed/         items leased to a worker (mtime = lease stamp)
├── done/            acked items (kept as idempotency markers)
├── health/          per-worker heartbeat files (mtime = last beat)
└── journal.jsonl    append-only finished-record log
```

* **enqueue** writes ``pending/<id>.json`` atomically and skips ids
  that are already anywhere in the queue or the journal —
  re-enqueueing a half-finished suite is a no-op for the finished
  part, which is what makes coordinator resume free.
* **claim** renames ``pending/X`` → ``claimed/X``; the rename is atomic,
  so exactly one of several racing workers wins each item.  The claimed
  file's mtime is the lease stamp: a worker renews it by touching the
  file, and any claim call first *reaps* expired leases back to
  ``pending/`` so items held by crashed workers are re-run.  Expiry is
  computed against the *transport's* clock (one ``scan`` returns the
  stamps and "now" together), so a remote follower with a skewed clock
  never mis-reaps.
* **ack** atomically renames the item's queue file onto ``done/X`` —
  of any number of racing ackers (possible after lease-expiry
  re-claims), exactly one rename wins — then appends the finished
  payload to ``journal.jsonl`` under the transport's journal lock.
  The journal itself dedups by item id, so acks are idempotent even
  when a transport retry re-delivers one (and a loser whose winner
  crashed before journaling heals the gap by appending its own line).
* **journal** writes and reads both tolerate a crash mid-append: a
  partial *trailing* line is truncated away (by the next appender
  under the lock, or by a reader), never fatal; corruption anywhere
  else raises, because that means something other than a mid-write
  crash damaged the log.
* **heartbeat** writes ``health/<worker>.json`` with the worker's
  vitals; the file's transport mtime is the beat clock, so staleness
  is judged on the queue host, not the (possibly skewed) worker.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

from repro.dist.transport import (
    LocalDirTransport,
    Transport,
    TransportNotFound,
    transport_for,
)
from repro.errors import ReproError

DEFAULT_LEASE_SECONDS = 300.0

#: A heartbeat older than this many seconds marks the worker "stale"
#: (likely dead; its claims will come back via lease expiry).
DEFAULT_STALE_SECONDS = 30.0

_META = "meta.json"
_JOURNAL = "journal.jsonl"

_UNSAFE_ID_CHARS = re.compile(r"[^A-Za-z0-9._-]+")


class QueueError(ReproError):
    """A work-queue operation failed or the queue is malformed."""


@dataclass(frozen=True)
class WorkItem:
    """One claimed queue item: the id plus the enqueued JSON payload."""

    id: str
    data: dict


def _dump(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def sanitize_worker_id(worker_id: str) -> str:
    """A worker id reduced to a safe ``health/`` file stem."""
    safe = _UNSAFE_ID_CHARS.sub("-", worker_id).lstrip(".")
    return safe or "worker"


class WorkQueue:
    """A queue handle over a transport; see the module docstring.

    ``root`` may be a local directory path or an ``http(s)://`` queue
    server URL (:func:`~repro.dist.transport.transport_for` picks the
    transport); pass ``transport=`` to inject a wrapped one.
    :attr:`root` is the queue directory's ``Path`` for local queues
    (also under a wrapping transport) and the transport's description,
    e.g. its URL, otherwise.
    """

    def __init__(
        self,
        root: "str | Path | None" = None,
        *,
        transport: Transport | None = None,
    ):
        if transport is None:
            if root is None:
                raise QueueError("WorkQueue needs a root path/URL or a transport")
            transport = transport_for(root)
        self.transport = transport
        local = transport
        while local is not None and not isinstance(local, LocalDirTransport):
            local = getattr(local, "inner", None)
        self.root: "Path | str" = (
            local.root if local is not None else transport.describe()
        )
        self._meta: dict | None = None

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: "str | Path | None" = None,
        *,
        meta: dict | None = None,
        lease_seconds: float | None = None,
        transport: Transport | None = None,
    ) -> "WorkQueue":
        """Create (or re-open) the queue, writing ``meta.json``.

        Re-creating an existing queue keeps its items and journal but
        refreshes the metadata — re-running a coordinator with the same
        settings on a half-finished queue is the resume path.  The
        lease, however, is a property of the *queue*: ``None`` (the
        default) keeps an existing queue's lease instead of resetting
        it, so a resuming coordinator still reaps the original run's
        expired claims on schedule.
        """
        queue = cls(root, transport=transport)
        if lease_seconds is None:
            lease_seconds = DEFAULT_LEASE_SECONDS
            existing = queue._read_meta()
            if existing is not None:
                try:
                    lease_seconds = float(
                        existing.get("lease_seconds", DEFAULT_LEASE_SECONDS)
                    )
                except (TypeError, ValueError):
                    pass
        if lease_seconds <= 0:
            raise QueueError(
                f"lease_seconds must be positive, got {lease_seconds}"
            )
        queue.transport.ensure_layout()
        payload = dict(meta or {})
        payload["lease_seconds"] = float(lease_seconds)
        payload.setdefault("created_at", time.time())
        queue.transport.write(_META, _dump(payload))
        queue._meta = payload
        return queue

    @classmethod
    def open(
        cls,
        root: "str | Path | None" = None,
        *,
        transport: Transport | None = None,
    ) -> "WorkQueue":
        """Open an existing queue; raises if the target is not one."""
        queue = cls(root, transport=transport)
        if queue._read_meta() is None:
            raise QueueError(
                f"{queue.root} is not a work queue (no {_META}); create one "
                "with 'python -m repro enqueue --queue-dir ...'"
            )
        return queue

    def _read_meta(self) -> dict | None:
        """Parsed ``meta.json``, or ``None`` if absent/corrupt."""
        try:
            return json.loads(self.transport.read(_META).decode("utf-8"))
        except TransportNotFound:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None

    @property
    def meta(self) -> dict:
        if self._meta is None:
            try:
                raw = self.transport.read(_META)
            except TransportNotFound as exc:
                raise QueueError(f"{self.root} has no {_META}") from exc
            try:
                self._meta = json.loads(raw.decode("utf-8"))
            except json.JSONDecodeError as exc:
                raise QueueError(
                    f"corrupt {_META} in {self.root}: {exc}"
                ) from exc
        return self._meta

    @property
    def lease_seconds(self) -> float:
        return float(self.meta.get("lease_seconds", DEFAULT_LEASE_SECONDS))

    # -- enqueue ---------------------------------------------------------------

    def enqueue(self, items: list[dict]) -> tuple[int, int]:
        """Add items (each needs a unique ``"id"``); returns (new, skipped).

        An item whose id is already pending, claimed, or journaled is
        skipped, so enqueueing is idempotent and resume never re-runs
        finished work.  A ``done/`` marker *without* a journal entry
        (a worker crashed between winning the ack and appending) does
        NOT block re-enqueueing: the item is re-run, and the fresh ack
        atomically replaces the stale marker.
        """
        seen = self.known_ids()
        added = skipped = 0
        for item in items:
            item_id = item.get("id")
            if not item_id or not isinstance(item_id, str):
                raise QueueError(f"queue item needs a string 'id': {item!r}")
            if "/" in item_id or item_id.startswith("."):
                raise QueueError(f"invalid item id {item_id!r}")
            if item_id in seen:
                skipped += 1
                continue
            self.transport.write(f"pending/{item_id}.json", _dump(item))
            seen.add(item_id)
            added += 1
        return added, skipped

    # -- claim / lease ---------------------------------------------------------

    def claim(self, worker: str, limit: int = 1) -> list[WorkItem]:
        """Claim up to ``limit`` items for ``worker``.

        Expired leases are reaped first, so a crashed worker's items
        come back automatically.  Racing workers are safe: the
        pending→claimed rename is atomic and the loser just moves on to
        the next file.
        """
        if limit < 1:
            raise QueueError(f"claim limit must be >= 1, got {limit}")
        self.reap_expired()
        claimed: list[WorkItem] = []
        for name in self.transport.listdir("pending"):
            if len(claimed) >= limit:
                break
            target = f"claimed/{name}"
            if not self.transport.rename(f"pending/{name}", target):
                continue  # another worker won this item
            # Start the lease clock now: the rename kept the file's
            # pending-era mtime, and an item that waited longer than
            # the lease would otherwise look instantly expired to a
            # concurrent reaper.  That reaper can still win the
            # microscopic window before this stamp — then the file is
            # already back in pending and we just lost the race.
            self.transport.touch(target)
            try:
                data = json.loads(self.transport.read(target).decode("utf-8"))
            except TransportNotFound:
                continue  # reaped out from under us; someone else's now
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise QueueError(
                    f"corrupt queue item {target} in {self.root}: {exc}"
                ) from exc
            data["claimed_by"] = worker
            data["claimed_at"] = time.time()
            self.transport.write(target, _dump(data))  # also re-stamps the lease
            claimed.append(WorkItem(id=name[: -len(".json")], data=data))
        return claimed

    def renew(self, item_id: str) -> bool:
        """Extend the lease on a claimed item; False if no longer held."""
        return self.transport.touch(f"claimed/{item_id}.json")

    def release(self, item_id: str) -> bool:
        """Voluntarily return a claimed item to pending (e.g. shutdown)."""
        return self.transport.rename(
            f"claimed/{item_id}.json", f"pending/{item_id}.json"
        )

    def reap_expired(self) -> int:
        """Move claims whose lease expired back to pending; returns count.

        Stamps and "now" come from one transport ``scan``, so expiry is
        judged entirely on the queue host's clock.
        """
        now, stamps = self.transport.scan("claimed")
        deadline = now - self.lease_seconds
        reaped = 0
        for name, mtime in stamps:
            if mtime >= deadline:
                continue
            if self.transport.rename(f"claimed/{name}", f"pending/{name}"):
                reaped += 1
        return reaped

    # -- ack / journal ---------------------------------------------------------

    def ack(self, item_id: str, payload: dict, worker: str = "") -> bool:
        """Record a finished item: mark it done, journal the payload.

        The gate is an atomic rename of the item's queue file onto the
        ``done/`` marker, so of any number of racing ackers — e.g.
        after a lease expired mid-solve and a second worker finished
        the re-claimed item — exactly one rename wins.  The journal
        appends are idempotent on top of that (one line per id, ever),
        which covers the two gaps a rename gate alone leaves: a
        transport retry that re-delivers a rename that already
        happened, and a winner that crashed after renaming but before
        journaling (the "loser" then heals the journal with its own,
        equally valid record).  Returns True if *this call* journaled.
        """
        done_marker = f"done/{item_id}.json"
        marker_present = False
        # The common case: we still hold the claim.  If another worker
        # re-claimed the item after our lease expired, this takes
        # *their* claim file — fine: their later ack then finds no file
        # and an existing marker, and dedups in the journal.
        if not self.transport.rename(f"claimed/{item_id}.json", done_marker):
            if self.transport.exists(done_marker):
                marker_present = True
            elif not self.transport.rename(
                f"pending/{item_id}.json", done_marker
            ):
                # Not claimed, not done, not pending: the item does not
                # exist here at all — nothing to journal against.
                return False
        if marker_present and item_id in self.journaled_ids():
            return False  # someone already acked *and* journaled this item
        return self._append_journal(
            {
                # "id" first: the journal dedup scan keys on the exact
                # line prefix this ordering produces.
                "id": item_id,
                "worker": worker,
                "finished_at": time.time(),
                "payload": payload,
            }
        )

    def _append_journal(self, line: dict) -> bool:
        data = (json.dumps(line, separators=(",", ":")) + "\n").encode("utf-8")
        # Every line starts {"id":"<id>", — the dict is built id-first
        # and compact — so a prefix scan is an exact id-dedup key.
        needle = (
            b'{"id":' + json.dumps(line["id"]).encode("utf-8") + b","
        )
        return self.transport.journal_append(data, needle)

    def journal_entries(self, repair: bool = True) -> list[dict]:
        """Parsed journal lines, oldest first.

        A corrupted *trailing* line (a worker died mid-append) is
        dropped — and with ``repair`` truncated from the file — because
        its item is still claimed/pending and will be re-run.  Corrupt
        lines elsewhere raise: that is damage, not a crash artifact.
        """
        raw = self.transport.journal_read()
        entries: list[dict] = []
        offset = 0
        for line in raw.splitlines(keepends=True):
            stripped = line.strip()
            if stripped:
                try:
                    entries.append(json.loads(stripped))
                except json.JSONDecodeError as exc:
                    if raw[offset + len(line):].strip():
                        raise QueueError(
                            f"corrupt journal line at byte {offset} of "
                            f"{self.root}/{_JOURNAL}: {exc}"
                        ) from exc
                    if repair:
                        self.transport.journal_truncate(
                            offset, expected_size=len(raw)
                        )
                    break
            offset += len(line)
        return entries

    def journaled_ids(self) -> set[str]:
        return {e["id"] for e in self.journal_entries()}

    # -- worker health ---------------------------------------------------------

    def heartbeat(self, worker_id: str, payload: dict) -> None:
        """Publish a worker's vitals to ``health/``.

        The transport stamps the file's mtime on write, so "how long
        since this worker last beat" is measured on the queue host —
        workers never need synchronized clocks.
        """
        body = dict(payload)
        body["worker"] = worker_id
        self.transport.write(
            f"health/{sanitize_worker_id(worker_id)}.json", _dump(body)
        )

    def worker_health(
        self, stale_after_seconds: float = DEFAULT_STALE_SECONDS
    ) -> list[dict]:
        """Every worker that ever beat on this queue, with liveness.

        Each entry is the worker's last heartbeat payload plus
        ``age_seconds`` (since that beat, on the queue host's clock)
        and ``state``: ``"exited"`` (clean shutdown), ``"live"``, or
        ``"stale"`` (no beat for ``stale_after_seconds`` — the worker
        is probably dead and its claims will come back via the lease).
        """
        now, stamps = self.transport.scan("health")
        fleet: list[dict] = []
        for name, mtime in stamps:
            try:
                entry = json.loads(
                    self.transport.read(f"health/{name}").decode("utf-8")
                )
            except (TransportNotFound, json.JSONDecodeError,
                    UnicodeDecodeError):
                continue
            age = max(0.0, now - mtime)
            entry["age_seconds"] = age
            if entry.get("exited"):
                entry["state"] = "exited"
            elif age > stale_after_seconds:
                entry["state"] = "stale"
            else:
                entry["state"] = "live"
            fleet.append(entry)
        return fleet

    # -- introspection ---------------------------------------------------------

    def known_ids(self) -> set[str]:
        """Ids that count as present for enqueue dedup.

        Deliberately excludes ``done/``-only ids: a marker without a
        journal entry is a crash artifact (the worker died mid-ack) and
        the item's record is lost, so it must be re-runnable.
        """
        ids = self.journaled_ids()
        for directory in ("pending", "claimed"):
            ids.update(
                name[: -len(".json")]
                for name in self.transport.listdir(directory)
            )
        return ids

    def counts(self) -> dict[str, int]:
        return {
            "pending": len(self.transport.listdir("pending")),
            "claimed": len(self.transport.listdir("claimed")),
            "done": len(self.transport.listdir("done")),
            "journaled": len(self.journal_entries()),
        }

    def unfinished(self) -> int:
        """Items still pending or claimed (0 = fully drained)."""
        return (
            len(self.transport.listdir("pending"))
            + len(self.transport.listdir("claimed"))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkQueue({str(self.root)!r}, {self.counts()})"
