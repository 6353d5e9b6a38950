"""Byte transports under the work queue: local directory or HTTP.

PR 5's queue semantics (atomic-rename claims, mtime leases, flock'd
journal appends) were written against a local directory.  This module
extracts the primitive operations the queue actually needs into a
:class:`Transport` interface so the *same* `WorkQueue` logic can run
against a directory it cannot see — today over HTTP against
``python -m repro queue-server``, tomorrow over anything that can
implement ~a dozen object-store verbs.

The contract every transport must honor (it is what makes the queue
crash-safe, so read carefully before adding one):

* ``write`` is atomic: readers see the old bytes or the new bytes,
  never a torn file.
* ``rename`` is atomic and reports whether *this call* moved the file:
  of any number of racing renames of one source, exactly one returns
  True.  The queue's claim and ack gates are built on this.
* ``scan`` returns modification stamps **and the transport's own
  current time** from the same clock, so lease expiry is immune to
  clock skew between workers and the queue host.
* ``journal_append`` is exclusive (one appender at a time), heals a
  torn trailing line before appending, and dedups on the given line
  prefix — the server side of the PR 5 journal logic, executed where
  the journal lives so HTTP retries are exactly-once.

:class:`LocalDirTransport` is bitwise-compatible with the PR 5 layout:
a queue directory written through it is indistinguishable from one
written by the old code, and the two can be mixed freely (a local
worker and an HTTP follower can drain the same queue).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from abc import ABC, abstractmethod
from pathlib import Path

from repro.errors import ReproError

try:  # POSIX only; on other platforms journal appends go unlocked.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

_TMP_PREFIX = ".tmp-"
_JOURNAL = "journal.jsonl"

#: Directories every queue has; ``health/`` is new in this PR (worker
#: heartbeats) and created lazily on old queues.
QUEUE_DIRS = ("pending", "claimed", "done", "health")


class TransportError(ReproError):
    """A transport operation failed (after any retries)."""


class TransportNotFound(TransportError):
    """The requested object does not exist on the transport."""


class Transport(ABC):
    """Primitive byte/object operations the work queue is built on.

    All paths are queue-relative POSIX strings (``"meta.json"``,
    ``"pending/0001-x.json"``); the journal has dedicated verbs because
    its append/truncate logic must execute *where the file lives* to
    stay atomic.
    """

    @abstractmethod
    def read(self, path: str) -> bytes:
        """Return the object's bytes; :class:`TransportNotFound` if absent."""

    @abstractmethod
    def write(self, path: str, data: bytes) -> None:
        """Atomically create or replace the object."""

    @abstractmethod
    def delete(self, path: str) -> bool:
        """Remove the object; False if it did not exist."""

    @abstractmethod
    def exists(self, path: str) -> bool:
        """Whether the object exists."""

    @abstractmethod
    def listdir(self, directory: str) -> list[str]:
        """Sorted ``*.json`` names in a queue directory (temp files hidden)."""

    @abstractmethod
    def scan(self, directory: str) -> tuple[float, list[tuple[str, float]]]:
        """``(now, [(name, mtime), ...])`` — stamps and *the transport's*
        clock, taken together so lease math never mixes clocks."""

    @abstractmethod
    def rename(self, src: str, dst: str) -> bool:
        """Atomically move ``src`` onto ``dst`` (replacing it); False if
        ``src`` did not exist.  Exactly one of racing renames wins."""

    @abstractmethod
    def touch(self, path: str) -> bool:
        """Refresh the object's mtime (lease renewal); False if absent."""

    @abstractmethod
    def journal_append(self, data: bytes, needle: bytes) -> bool:
        """Append one journal line under the journal lock.

        Heals a torn trailing line first, then dedups: if any existing
        line starts with ``needle`` nothing is written and False is
        returned.  True means this call appended the line.
        """

    @abstractmethod
    def journal_read(self) -> bytes:
        """The whole journal (b"" if it does not exist yet)."""

    @abstractmethod
    def journal_truncate(self, offset: int, expected_size: int) -> None:
        """Truncate the journal to ``offset`` under the journal lock —
        only if it is still exactly ``expected_size`` bytes long."""

    @abstractmethod
    def ensure_layout(self) -> None:
        """Create the queue directory skeleton if missing."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable location ('/path/to/queue', 'http://...')."""


class LocalDirTransport(Transport):
    """The PR 5 semantics, verbatim: one queue is one directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _path(self, path: str) -> Path:
        return self.root / path

    def read(self, path: str) -> bytes:
        try:
            return self._path(path).read_bytes()
        except FileNotFoundError as exc:
            raise TransportNotFound(f"{self._path(path)} does not exist") from exc

    def write(self, path: str, data: bytes) -> None:
        target = self._path(path)
        fd, tmp = tempfile.mkstemp(
            prefix=_TMP_PREFIX, suffix=".json", dir=str(target.parent)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def delete(self, path: str) -> bool:
        try:
            os.unlink(self._path(path))
            return True
        except FileNotFoundError:
            return False

    def exists(self, path: str) -> bool:
        return self._path(path).exists()

    def listdir(self, directory: str) -> list[str]:
        try:
            entries = list(os.scandir(self._path(directory)))
        except FileNotFoundError:
            return []
        return sorted(
            e.name for e in entries
            if e.name.endswith(".json") and not e.name.startswith(".")
        )

    def scan(self, directory: str) -> tuple[float, list[tuple[str, float]]]:
        now = time.time()
        stamps: list[tuple[str, float]] = []
        try:
            entries = list(os.scandir(self._path(directory)))
        except FileNotFoundError:
            return now, []
        for entry in entries:
            if not entry.name.endswith(".json") or entry.name.startswith("."):
                continue
            try:
                stamps.append((entry.name, entry.stat().st_mtime))
            except FileNotFoundError:
                continue  # raced with a rename/delete
        stamps.sort()
        return now, stamps

    def rename(self, src: str, dst: str) -> bool:
        try:
            os.rename(self._path(src), self._path(dst))
            return True
        except FileNotFoundError:
            return False

    def touch(self, path: str) -> bool:
        try:
            os.utime(self._path(path), None)
            return True
        except FileNotFoundError:
            return False

    def journal_append(self, data: bytes, needle: bytes) -> bool:
        # "a+b" (not "ab") so the heal/dedup logic below can read.
        with open(self._path(_JOURNAL), "a+b") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                handle.seek(0)
                existing = handle.read()
                # Self-heal before appending: every complete journal
                # line ends with a newline (written in one call), so a
                # file that doesn't has a torn tail from a crashed
                # appender.  Appending after it would fuse the partial
                # record with ours into permanent mid-file corruption;
                # truncating it instead keeps the tear trailing, where
                # readers already know it means "still claimed, will be
                # re-run".
                if existing and not existing.endswith(b"\n"):
                    keep = existing.rfind(b"\n") + 1
                    handle.truncate(keep)
                    existing = existing[:keep]
                # Last line of duplicate defense: even if two ackers
                # each won a rename on *different* incarnations of the
                # item file (a claim resurrected across a reap race),
                # only one line per id ever lands in the journal.
                index = existing.find(needle)
                while index != -1:
                    if index == 0 or existing[index - 1:index] == b"\n":
                        return False
                    index = existing.find(needle, index + 1)
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
                return True
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def journal_read(self) -> bytes:
        try:
            return self._path(_JOURNAL).read_bytes()
        except FileNotFoundError:
            return b""

    def journal_truncate(self, offset: int, expected_size: int) -> None:
        try:
            handle = open(self._path(_JOURNAL), "r+b")
        except FileNotFoundError:
            return
        with handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                # Only repair what the caller actually read: if another
                # worker appended since, leave the file alone rather
                # than chop off its line (the next reader will deal).
                handle.seek(0, os.SEEK_END)
                if handle.tell() == expected_size:
                    handle.truncate(offset)
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def ensure_layout(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        for name in QUEUE_DIRS:
            (self.root / name).mkdir(exist_ok=True)

    def describe(self) -> str:
        return str(self.root)


class HttpTransport(Transport):
    """Follow a queue served by ``python -m repro queue-server``.

    Every verb maps to one HTTP request; the server executes the
    corresponding :class:`LocalDirTransport` operation on its own
    filesystem, so atomicity (rename gates, journal lock) holds no
    matter how many followers talk to it.

    Transient failures — connection refused/reset, timeouts, 5xx —
    are retried with exponential backoff.  Retries are safe for every
    verb: reads and writes are idempotent, renames that already
    happened report False (the queue treats that as "lost the race",
    which is correct either way), and ``journal_append`` dedups
    server-side so a retry after a lost success response appends
    nothing.
    """

    def __init__(
        self,
        base_url: str,
        *,
        retries: int = 4,
        backoff_seconds: float = 0.2,
        timeout_seconds: float = 30.0,
    ):
        self.base_url = base_url.rstrip("/")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.timeout_seconds = timeout_seconds

    # -- plumbing --------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str = "application/json",
    ) -> tuple[int, bytes]:
        """One HTTP round-trip with retry/backoff; returns (status, body).

        404 is returned (not raised) so callers can map it to their
        "absent" semantics; other 4xx raise immediately (retrying a
        rejected request cannot help); network errors and 5xx retry.
        """
        # Imported here, not at module level: local queues (every
        # solve_many fan-out) never load the HTTP client.
        import urllib.error
        import urllib.request

        url = f"{self.base_url}{path}"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                request = urllib.request.Request(
                    url,
                    data=body,
                    method=method,
                    headers={"Content-Type": content_type} if body else {},
                )
                with urllib.request.urlopen(
                    request, timeout=self.timeout_seconds
                ) as response:
                    return response.status, response.read()
            except urllib.error.HTTPError as exc:
                if exc.code == 404:
                    return 404, b""
                if exc.code < 500:
                    detail = b""
                    try:
                        detail = exc.read()
                    except Exception:  # noqa: BLE001 — best-effort detail
                        pass
                    raise TransportError(
                        f"{method} {url} failed: HTTP {exc.code} "
                        f"{detail[:200].decode('utf-8', 'replace')}"
                    ) from exc
                last_error = exc
            except (urllib.error.URLError, ConnectionError, TimeoutError,
                    OSError) as exc:
                last_error = exc
            if attempt < self.retries:
                time.sleep(self.backoff_seconds * (2 ** attempt))
        raise TransportError(
            f"{method} {url} failed after {self.retries + 1} attempts: "
            f"{last_error}"
        ) from last_error

    def _object_url(self, path: str) -> str:
        import urllib.parse

        return "/q/" + urllib.parse.quote(path)

    def _post_json(self, path: str, payload: dict) -> dict:
        status, body = self._request(
            "POST", path, json.dumps(payload).encode("utf-8")
        )
        if status == 404:
            raise TransportError(
                f"queue server at {self.base_url} has no endpoint {path} "
                "(version mismatch?)"
            )
        return json.loads(body)

    # -- verbs -----------------------------------------------------------------

    def read(self, path: str) -> bytes:
        status, body = self._request("GET", self._object_url(path))
        if status == 404:
            raise TransportNotFound(f"{self.base_url}: no object {path!r}")
        return body

    def write(self, path: str, data: bytes) -> None:
        status, _ = self._request("PUT", self._object_url(path), data)
        if status == 404:
            raise TransportError(
                f"{self.base_url} rejected write to {path!r}"
            )

    def delete(self, path: str) -> bool:
        return bool(self._post_json("/v1/delete", {"path": path})["ok"])

    def exists(self, path: str) -> bool:
        return bool(self._post_json("/v1/exists", {"path": path})["ok"])

    def listdir(self, directory: str) -> list[str]:
        return [name for name, _mtime in self.scan(directory)[1]]

    def scan(self, directory: str) -> tuple[float, list[tuple[str, float]]]:
        payload = self._post_json("/v1/scan", {"dir": directory})
        return (
            float(payload["now"]),
            [(name, float(mtime)) for name, mtime in payload["entries"]],
        )

    def rename(self, src: str, dst: str) -> bool:
        return bool(self._post_json("/v1/rename", {"src": src, "dst": dst})["ok"])

    def touch(self, path: str) -> bool:
        return bool(self._post_json("/v1/touch", {"path": path})["ok"])

    def journal_append(self, data: bytes, needle: bytes) -> bool:
        payload = self._post_json(
            "/v1/journal/append",
            {
                "line": data.decode("utf-8"),
                "needle": needle.decode("utf-8"),
            },
        )
        return bool(payload["appended"])

    def journal_read(self) -> bytes:
        status, body = self._request("GET", "/v1/journal")
        return b"" if status == 404 else body

    def journal_truncate(self, offset: int, expected_size: int) -> None:
        self._post_json(
            "/v1/journal/truncate",
            {"offset": offset, "expected_size": expected_size},
        )

    def ensure_layout(self) -> None:
        # The server lays out its queue directory at startup; remote
        # followers cannot (and need not) mkdir anything.
        pass

    def describe(self) -> str:
        return self.base_url


class RetryingTransport(Transport):
    """Retry every verb of an unreliable inner transport.

    :class:`HttpTransport` retries network failures itself; this
    wrapper exists for transports that surface transient
    :class:`TransportError`\\ s from their verbs directly — in-tree it
    hardens the fault-injection tests' flaky transport, and it
    documents which verbs *are* safe to blindly retry (all of them,
    for the same reasons as the HTTP transport: rename gates tolerate
    "already happened" and the journal dedups).
    """

    def __init__(
        self,
        inner: Transport,
        *,
        retries: int = 5,
        backoff_seconds: float = 0.0,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.inner = inner
        self.retries = retries
        self.backoff_seconds = backoff_seconds

    def _retry(self, operation, *args):
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                return operation(*args)
            except TransportNotFound:
                raise  # a definitive answer, not a transient failure
            except TransportError as exc:
                last_error = exc
                if attempt < self.retries and self.backoff_seconds:
                    time.sleep(self.backoff_seconds * (2 ** attempt))
        raise TransportError(
            f"operation failed after {self.retries + 1} attempts"
        ) from last_error

    def read(self, path: str) -> bytes:
        return self._retry(self.inner.read, path)

    def write(self, path: str, data: bytes) -> None:
        return self._retry(self.inner.write, path, data)

    def delete(self, path: str) -> bool:
        return self._retry(self.inner.delete, path)

    def exists(self, path: str) -> bool:
        return self._retry(self.inner.exists, path)

    def listdir(self, directory: str) -> list[str]:
        return self._retry(self.inner.listdir, directory)

    def scan(self, directory: str) -> tuple[float, list[tuple[str, float]]]:
        return self._retry(self.inner.scan, directory)

    def rename(self, src: str, dst: str) -> bool:
        return self._retry(self.inner.rename, src, dst)

    def touch(self, path: str) -> bool:
        return self._retry(self.inner.touch, path)

    def journal_append(self, data: bytes, needle: bytes) -> bool:
        return self._retry(self.inner.journal_append, data, needle)

    def journal_read(self) -> bytes:
        return self._retry(self.inner.journal_read)

    def journal_truncate(self, offset: int, expected_size: int) -> None:
        return self._retry(self.inner.journal_truncate, offset, expected_size)

    def ensure_layout(self) -> None:
        return self._retry(self.inner.ensure_layout)

    def describe(self) -> str:
        return self.inner.describe()


def is_queue_url(target: object) -> bool:
    """Whether a queue target is an HTTP(S) URL rather than a path."""
    return isinstance(target, str) and target.startswith(
        ("http://", "https://")
    )


def transport_for(target: "str | Path | Transport") -> Transport:
    """Build the right transport for a queue target.

    ``http(s)://...`` strings get an :class:`HttpTransport`; anything
    else is treated as a local directory.  A ready-made transport
    passes through, so callers can inject wrapped (retrying, flaky)
    transports anywhere a path is accepted.
    """
    if isinstance(target, Transport):
        return target
    if is_queue_url(target):
        return HttpTransport(str(target))
    return LocalDirTransport(target)
