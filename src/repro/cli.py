"""Command-line interface: ``python -m repro <command>``.

Every inference command drives the public API: an
:class:`~repro.api.service.InvariantService` with a registered solver
selected by ``--solver`` (default ``gcln``).

Commands:

* ``run <nla-problem> [--solver NAME]`` — run one registered solver on
  one of the 27 NLA benchmark problems and print the learned
  invariants (``--json PATH`` additionally writes the structured
  result; ``--events`` streams lifecycle events as they happen).
  ``run --traces FILE`` solves a *trace-only* problem instead: FILE is
  a recorded-problem JSON (``python -m repro record``), a bare trace
  payload, or a CSV of loop-head states — no program involved.
* ``run-all [--solver NAME]`` — run a whole suite (``nla``,
  ``code2inv``, or ``stability``) through the service's batch path,
  with ``--jobs N|auto`` queue worker processes, per-problem
  ``--timeout``, and ``--json`` output.  Records share one schema
  across solvers, so two runs with different ``--solver`` values are
  directly comparable.
  ``--traces FILE [FILE ...]`` batches recorded trace files instead of
  a suite.
* ``record <nla-problem> --json PATH`` — run the interpreter once and
  write the problem's train/check observations as a trace-only
  recording; re-solving the recording produces identical invariants
  (the ObservationSource seed-equivalence contract).
* ``profile <nla-problem>`` — run one solver and render the per-stage
  wall-clock breakdown (collect/train/extract/check) as a table, so hot
  paths are visible without reading JSON; also prints the solve's
  trace/matrix cache counters.
* ``enqueue --queue-dir PATH`` — enqueue a suite on a journaled work
  queue (items already journaled are skipped, so re-enqueueing a
  half-finished run is a no-op for the finished part).
* ``worker --queue-dir PATH | --queue-url URL`` — drain a work queue:
  claim, solve, ack, until nothing is pending or claimed.  Run any
  number of these against one queue — on any host sharing the
  directory, or on any host at all via ``--queue-url`` against a
  ``queue-server``.
* ``queue-server --queue-dir PATH`` — serve a queue directory over
  HTTP so remote followers (``worker --queue-url``) can drain it with
  no shared filesystem.
* ``queue-status --queue-dir PATH | --queue-url URL`` — one glance at
  a queue: item counts, run settings, and per-worker health
  (heartbeats: pid, host, items done, last-ack age, live/stale).
* ``serve --host HOST --port PORT`` — expose the service over HTTP
  (JSON + Server-Sent Events; see :mod:`repro.serve`).  The default
  solves in-process on a thread pool; ``--queue-dir PATH`` enqueues
  onto the distributed work queue instead and lets a ``worker`` fleet
  solve.
* ``solvers`` — list the registered solvers with their capability
  flags (trace-only / inequalities / fractional).
* ``list`` — list the available benchmark problems with metadata.
* ``trace <nla-problem> --inputs k=5`` — execute a benchmark program on
  one input assignment and dump the loop-head trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from repro.api import InvariantService, solver_entries
from repro.bench import NLA_PROBLEMS, nla_problem, suite_problems, SUITES
from repro.errors import ReproError
from repro.infer import InferenceConfig
from repro.infer.runner import summarize
from repro.lang import run_program
from repro.utils import format_table


def _parse_assignment(pairs: list[str]) -> dict[str, object]:
    assignment: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad input {pair!r}; expected name=value")
        name, _, value = pair.partition("=")
        try:
            assignment[name] = (
                int(value) if "/" not in value else Fraction(value)
            )
        except ValueError as exc:
            raise SystemExit(f"bad value in {pair!r}: {exc}") from exc
    return assignment


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1 (``--epochs``,
    worker counts)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """An argparse type: a positive number of seconds."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value:g}")
    return value


def _jobs(text: str) -> "int | str":
    """``--jobs``: a process count or ``auto`` (elastic)."""
    if text == "auto":
        return "auto"
    try:
        return _positive_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer or 'auto', got {text!r}"
        ) from None


def _write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as JSON to ``path`` (``-`` for stdout)."""
    text = json.dumps(payload, indent=2)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        [e.name, e.degree, e.n_vars, "yes" if e.expected_solved else "no (paper fails too)"]
        for e in NLA_PROBLEMS
    ]
    print(format_table(["problem", "degree", "vars", "paper solves"], rows))
    return 0


def _print_event(event) -> None:
    payload = event.to_dict()
    kind = payload.pop("event")
    detail = " ".join(
        f"{k}={v}" for k, v in payload.items() if v is not None
    )
    print(f"[event] {kind:<17} {detail}", flush=True)


def _cmd_solvers(_args: argparse.Namespace) -> int:
    def flag(value: bool) -> str:
        return "yes" if value else "no"

    rows = [
        [
            entry.name,
            flag(entry.capabilities.trace_only),
            flag(entry.capabilities.inequalities),
            flag(entry.capabilities.fractional),
            entry.description,
        ]
        for entry in solver_entries()
    ]
    print(
        format_table(
            ["solver", "trace-only", "inequalities", "fractional", "strategy"],
            rows,
            title="registered solvers",
        )
    )
    return 0


def _load_trace_problem(path: str):
    """A trace-only :class:`Problem` from a recording file.

    Accepts a full recorded-problem JSON (``python -m repro record``
    output / :func:`~repro.dist.wire.problem_to_dict`), a bare trace
    payload (``{"0": {"train": [...]}}``), or a ``.csv`` of loop-head
    states; bare payloads take the problem name from the file stem.
    """
    from pathlib import Path

    from repro.dist.wire import problem_from_dict
    from repro.infer.problem import Problem
    from repro.sampling.source import traces_from_csv, traces_from_payload

    file = Path(path)
    try:
        text = file.read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read traces file {path!r}: {exc}") from exc
    try:
        if file.suffix.lower() == ".csv":
            return Problem(name=file.stem, traces=traces_from_csv(text.splitlines()))
        data = json.loads(text)
        if isinstance(data, dict) and "name" in data:
            return problem_from_dict(data)
        return Problem(name=file.stem, traces=traces_from_payload(data))
    except (ReproError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"bad traces file {path!r}: {exc}") from exc


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.dist.wire import problem_to_dict
    from repro.infer.record import record_problem

    problem = nla_problem(args.problem)
    recorded = record_problem(problem)
    _write_json(args.json, problem_to_dict(recorded))
    if args.json != "-":
        assert recorded.traces is not None
        counts = ", ".join(
            f"loop {i}: {len(t.train)} train / "
            f"{len(t.check or [])} check"
            for i, t in sorted(recorded.traces.items())
        )
        print(f"recorded {problem.name} -> {args.json} ({counts})")
        print(
            f"re-solve: python -m repro run --traces {args.json}"
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    problem = nla_problem(args.problem)
    service = InvariantService(InferenceConfig(max_epochs=args.epochs))
    result = service.solve(problem, solver=args.solver)
    timings = result.to_dict()["stage_timings"]
    staged = sum(timings.values())
    other = max(result.runtime_seconds - staged, 0.0)
    total = max(result.runtime_seconds, 1e-9)
    rows = [
        [stage, f"{seconds:.3f}s", f"{100.0 * seconds / total:.1f}%"]
        for stage, seconds in timings.items()
    ]
    rows.append(["(other)", f"{other:.3f}s", f"{100.0 * other / total:.1f}%"])
    rows.append(["TOTAL", f"{result.runtime_seconds:.3f}s", "100.0%"])
    print(
        format_table(
            ["stage", "seconds", "share"],
            rows,
            title=(
                f"profile — {problem.name}, solver {args.solver}, "
                f"solved={result.solved}, {result.attempts} attempt(s)"
            ),
        )
    )
    stats = ", ".join(f"{k}={v}" for k, v in result.cache_stats.items())
    print(f"cache:    {stats}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.traces is not None:
        if args.problem is not None:
            raise SystemExit(
                "give a problem name OR --traces FILE, not both"
            )
        problem = _load_trace_problem(args.traces)
    elif args.problem is not None:
        problem = nla_problem(args.problem)
    else:
        raise SystemExit("run needs a problem name or --traces FILE")
    service = InvariantService(InferenceConfig(max_epochs=args.epochs))
    if args.events:
        service.subscribe(_print_event)
    result = service.solve(problem, solver=args.solver)
    print(f"problem:  {problem.name}")
    print(f"solver:   {result.solver}")
    if result.checking:
        print(f"checking: {result.checking}")
    print(f"solved:   {result.solved} "
          f"({result.runtime_seconds:.1f}s, {result.attempts} attempt(s))")
    stages = ", ".join(
        f"{stage}={seconds:.2f}s"
        for stage, seconds in result.to_dict()["stage_timings"].items()
    )
    print(f"stages:   {stages}")
    for loop in result.loops:
        print(f"loop {loop.loop_index}:")
        print(f"  invariant: {loop.invariant}")
        print(f"  ground truth implied: {loop.ground_truth_implied}")
    if args.json:
        _write_json(args.json, result.to_dict())
    return 0 if result.solved else 1


def _cmd_run_all(args: argparse.Namespace) -> int:
    if args.traces:
        if args.problems:
            raise SystemExit(
                "--traces and --problems are mutually exclusive (trace "
                "files already name their problems)"
            )
        problems = [_load_trace_problem(path) for path in args.traces]
        suite_label = "recorded traces"
    else:
        problems = suite_problems(args.suite, args.problems or None)
        suite_label = args.suite
    if not problems:
        raise SystemExit(f"no problems selected from suite {args.suite!r}")
    service = InvariantService(InferenceConfig(max_epochs=args.epochs))

    def progress(record) -> None:
        detail = (
            f"{record.result.attempts} attempt(s)"
            if record.result is not None
            else (record.error or "").splitlines()[0]
        )
        print(
            f"[{record.status:>7}] {record.name:<14} "
            f"{record.runtime_seconds:6.1f}s  {detail}",
            flush=True,
        )

    def fleet_tail(snapshot: dict) -> None:
        # The coordinator's live tail: one line per fleet/queue change,
        # with per-worker health inline when anything is unhealthy.
        states = [w.get("state") for w in snapshot.get("workers", [])]
        stale = sum(1 for s in states if s == "stale")
        suffix = f", {stale} stale" if stale else ""
        print(
            f"[  fleet] {snapshot['live_workers']} live worker(s){suffix}; "
            f"{snapshot['pending']} pending, {snapshot['claimed']} claimed, "
            f"{snapshot['journaled']} journaled",
            flush=True,
        )

    try:
        records = service.solve_many(
            problems,
            solver=args.solver,
            jobs=args.jobs,
            timeout_seconds=args.timeout,
            progress=progress,
            queue_dir=args.queue_dir,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            fleet_status=fleet_tail,
        )
    except ValueError as exc:
        # Batch arguments that do not fit together (checked before
        # any solve): one line, not a traceback.
        raise SystemExit(str(exc)) from exc
    stats = summarize(records)
    rows = [
        [
            r.name,
            r.status,
            "yes" if r.solved else "no",
            r.result.attempts if r.result is not None else "-",
            f"{r.runtime_seconds:.1f}s",
        ]
        for r in records
    ]
    rows.append(
        [
            "TOTAL",
            f"{stats['ok']} ok / {stats['timeout']} timeout / {stats['error']} error",
            f"{stats['solved']}/{stats['problems']}",
            "",
            f"{stats['total_runtime_seconds']:.1f}s",
        ]
    )
    print(
        format_table(
            ["problem", "status", "solved", "attempts", "time"],
            rows,
            title=(
                f"run-all — suite {suite_label}, solver {args.solver}, "
                f"{args.jobs} job(s)"
            ),
        )
    )
    if args.json:
        _write_json(
            args.json,
            {
                "suite": suite_label,
                "solver": args.solver,
                "jobs": args.jobs,
                "timeout_seconds": args.timeout,
                "summary": stats,
                "records": [r.to_dict() for r in records],
            },
        )
    return 0 if stats["solved"] == stats["problems"] else 1


def _cmd_enqueue(args: argparse.Namespace) -> int:
    from repro.dist import enqueue_suite

    queue, added, skipped = enqueue_suite(
        args.queue_dir,
        args.suite,
        args.problems or None,
        solver=args.solver,
        config=InferenceConfig(max_epochs=args.epochs),
        timeout_seconds=args.timeout,
        lease_seconds=args.lease,
    )
    counts = queue.counts()
    print(
        f"enqueued {added} item(s) to {queue.root} "
        f"({skipped} already queued or journaled)"
    )
    print(
        f"queue:    {counts['pending']} pending, {counts['claimed']} claimed, "
        f"{counts['journaled']} journaled"
    )
    print(f"drain it: python -m repro worker --queue-dir {queue.root}")
    return 0


def _queue_target(args: argparse.Namespace) -> str:
    """The queue a command should talk to: a directory or a server URL."""
    if getattr(args, "queue_url", None) and getattr(args, "queue_dir", None):
        raise SystemExit("--queue-dir and --queue-url are mutually exclusive")
    target = getattr(args, "queue_url", None) or getattr(
        args, "queue_dir", None
    )
    if not target:
        raise SystemExit("need --queue-dir PATH or --queue-url URL")
    return target


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist import Worker, WorkQueue, install_stop_handler

    target = _queue_target(args)

    def progress(record) -> None:
        print(
            f"[{record.status:>7}] {record.name:<14} "
            f"{record.runtime_seconds:6.1f}s",
            flush=True,
        )

    worker = Worker(
        WorkQueue.open(target),
        worker_id=args.worker_id,
        batch_size=args.batch_size,
        poll_seconds=args.poll,
        progress=progress,
    )
    install_stop_handler(worker)  # SIGTERM = finish current item, release rest
    processed = worker.run(max_items=args.max_items)
    if worker.stop_requested:
        print(
            f"worker {worker.worker_id}: stop requested; processed "
            f"{processed} item(s), unstarted claims released"
        )
    else:
        print(f"worker {worker.worker_id}: processed {processed} item(s)")
    return 0


def _cmd_queue_server(args: argparse.Namespace) -> int:
    import signal

    from repro.dist.server import serve_queue

    server = serve_queue(
        args.queue_dir, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    print(
        f"serving work queue {args.queue_dir} at http://{host}:{port}",
        flush=True,
    )
    print(
        f"follow it: python -m repro worker --queue-url http://{host}:{port}",
        flush=True,
    )
    # SIGTERM unwinds serve_forever() like Ctrl-C.  shutdown() cannot
    # be called here: the handler runs on the thread serving, and
    # shutdown() waits for that loop to finish.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_queue_status(args: argparse.Namespace) -> int:
    from repro.dist import WorkQueue

    target = _queue_target(args)
    queue = WorkQueue.open(target)
    counts = queue.counts()
    fleet = queue.worker_health()
    meta = queue.meta
    if args.json:
        _write_json(
            args.json,
            {
                "queue": str(queue.root),
                "meta": meta,
                "counts": counts,
                "workers": fleet,
            },
        )
        return 0
    print(f"queue:   {queue.root}")
    print(
        f"run:     solver={meta.get('solver', 'gcln')} "
        f"lease={meta.get('lease_seconds')}s suite={meta.get('suite')}"
    )
    print(
        f"items:   {counts['pending']} pending, {counts['claimed']} claimed, "
        f"{counts['done']} done, {counts['journaled']} journaled"
    )
    if not fleet:
        print("workers: none have reported yet")
        return 0
    rows = [
        [
            w.get("worker", "?"),
            w.get("state", "?"),
            w.get("host", "?"),
            w.get("pid", "?"),
            w.get("items_done", 0),
            (
                f"{w['last_ack_age']:.0f}s"
                if w.get("last_ack_age") is not None
                else "-"
            ),
            f"{w.get('age_seconds', 0.0):.0f}s",
        ]
        for w in fleet
    ]
    print(
        format_table(
            ["worker", "state", "host", "pid", "done", "last ack", "last beat"],
            rows,
            title="worker fleet",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import serve_main

    if args.memo < 0:
        raise SystemExit(f"--memo must be >= 0, got {args.memo}")
    if args.timeout is not None and not args.queue_dir:
        raise SystemExit(
            "--timeout needs --queue-dir: in-process solves run without a budget"
        )
    if args.queue_wait is not None and not args.queue_dir:
        raise SystemExit(
            "--queue-wait needs --queue-dir: in-process solves wait for no worker"
        )
    return serve_main(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    problem = nla_problem(args.problem)
    assignment = _parse_assignment(args.inputs)
    trace = run_program(problem.program, assignment)
    if trace.assume_violated:
        print("assume violated; no trace")
        return 1
    variables = sorted(trace.snapshots[0].state) if trace.snapshots else []
    rows = [
        [s.loop_id, s.iteration, *[s.state[v] for v in variables]]
        for s in trace.snapshots[: args.limit]
    ]
    print(format_table(["loop", "iter", *variables], rows))
    if trace.assertion_failures:
        print(f"assertion failures: {len(trace.assertion_failures)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="G-CLN nonlinear loop invariant inference (PLDI 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark problems").set_defaults(
        func=_cmd_list
    )

    sub.add_parser(
        "solvers", help="list registered inference solvers"
    ).set_defaults(func=_cmd_solvers)

    run_parser = sub.add_parser("run", help="infer invariants for a problem")
    run_parser.add_argument(
        "problem",
        nargs="?",
        default=None,
        help="NLA problem name (see 'list'); omit with --traces",
    )
    run_parser.add_argument(
        "--traces",
        metavar="FILE",
        help=(
            "solve a trace-only problem from a recording (JSON from "
            "'record', a bare trace payload, or a CSV of loop-head "
            "states) instead of a benchmark program"
        ),
    )
    run_parser.add_argument(
        "--solver",
        default="gcln",
        metavar="NAME",
        help="registered solver to use (see 'solvers'; default: gcln)",
    )
    run_parser.add_argument(
        "--epochs", type=_positive_int, default=2000, help="training epochs per attempt"
    )
    run_parser.add_argument(
        "--events",
        action="store_true",
        help="stream lifecycle events (attempts, stage timings, checks)",
    )
    run_parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the structured result as JSON ('-' for stdout)",
    )
    run_parser.set_defaults(func=_cmd_run)

    profile_parser = sub.add_parser(
        "profile",
        help="run one solver and print the per-stage timing breakdown",
    )
    profile_parser.add_argument("problem", help="NLA problem name (see 'list')")
    profile_parser.add_argument(
        "--solver",
        default="gcln",
        metavar="NAME",
        help="registered solver to profile (default: gcln)",
    )
    profile_parser.add_argument(
        "--epochs", type=_positive_int, default=2000, help="training epochs per attempt"
    )
    profile_parser.set_defaults(func=_cmd_profile)

    all_parser = sub.add_parser(
        "run-all", help="run a whole suite through the batch runner"
    )
    all_parser.add_argument(
        "--suite", choices=SUITES, default="nla", help="which suite to run"
    )
    all_parser.add_argument(
        "--solver",
        default="gcln",
        metavar="NAME",
        help="registered solver to use (see 'solvers'; default: gcln)",
    )
    all_parser.add_argument(
        "--problems",
        nargs="+",
        metavar="NAME",
        help="restrict to these problem names",
    )
    all_parser.add_argument(
        "--traces",
        nargs="+",
        metavar="FILE",
        help=(
            "batch recorded trace files (see 'record') instead of a "
            "benchmark suite"
        ),
    )
    all_parser.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        metavar="N",
        help=(
            "solve inline (1, the default), or drain the suite with N "
            "queue worker processes, or 'auto' for an elastic fleet "
            "sized to queue depth between --min-workers and "
            "--max-workers"
        ),
    )
    all_parser.add_argument(
        "--min-workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="elastic-fleet floor with --jobs auto (default: 1)",
    )
    all_parser.add_argument(
        "--max-workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "elastic-fleet ceiling with --jobs auto "
            "(default: CPU count, capped at 8)"
        ),
    )
    all_parser.add_argument(
        "--queue-dir",
        metavar="PATH",
        help=(
            "durable work-queue directory (or queue-server URL) to "
            "drain with --jobs workers (one with --jobs 1); re-running "
            "on a half-finished queue resumes it "
            "(journaled problems are not re-solved).  Default with "
            "--jobs N>1 or auto: a private temporary queue"
        ),
    )
    all_parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-problem wall-clock budget (enforced with SIGALRM)",
    )
    all_parser.add_argument(
        "--epochs", type=_positive_int, default=2000, help="training epochs per attempt"
    )
    all_parser.add_argument(
        "--json",
        metavar="PATH",
        help="write all records as JSON ('-' for stdout)",
    )
    all_parser.set_defaults(func=_cmd_run_all)

    enqueue_parser = sub.add_parser(
        "enqueue", help="enqueue a suite on a journaled work queue"
    )
    enqueue_parser.add_argument(
        "--queue-dir", required=True, metavar="PATH",
        help="work-queue directory (created if missing)",
    )
    enqueue_parser.add_argument(
        "--suite", choices=SUITES, default="nla", help="which suite to enqueue"
    )
    enqueue_parser.add_argument(
        "--problems", nargs="+", metavar="NAME",
        help="restrict to these problem names",
    )
    enqueue_parser.add_argument(
        "--solver", default="gcln", metavar="NAME",
        help="registered solver workers should run (default: gcln)",
    )
    enqueue_parser.add_argument(
        "--epochs", type=_positive_int, default=2000, help="training epochs per attempt"
    )
    enqueue_parser.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-problem wall-clock budget applied by workers",
    )
    enqueue_parser.add_argument(
        "--lease", type=float, default=300.0, metavar="SECONDS",
        help=(
            "claim lease; items held longer without a renewal are "
            "re-claimed (crashed-worker recovery; default: 300)"
        ),
    )
    enqueue_parser.set_defaults(func=_cmd_enqueue)

    worker_parser = sub.add_parser(
        "worker", help="drain a work queue: claim, solve, ack"
    )
    worker_parser.add_argument(
        "--queue-dir", metavar="PATH",
        help="work-queue directory to drain",
    )
    worker_parser.add_argument(
        "--queue-url", metavar="URL",
        help=(
            "follow a remote queue served by 'queue-server' over HTTP "
            "instead of a local --queue-dir (no shared filesystem needed)"
        ),
    )
    worker_parser.add_argument(
        "--batch-size", type=_positive_int, default=1, metavar="N",
        help="items claimed per round (default: 1)",
    )
    worker_parser.add_argument(
        "--max-items", type=_positive_int, default=None, metavar="N",
        help="exit after processing this many items (default: drain fully)",
    )
    worker_parser.add_argument(
        "--poll", type=_positive_float, default=0.5, metavar="SECONDS",
        help="sleep between claim attempts while other workers hold items",
    )
    worker_parser.add_argument(
        "--worker-id", metavar="NAME",
        help="identity recorded on claims/journal lines (default: generated)",
    )
    worker_parser.set_defaults(func=_cmd_worker)

    queue_server_parser = sub.add_parser(
        "queue-server",
        help="serve a work-queue directory over HTTP for remote workers",
    )
    queue_server_parser.add_argument(
        "--queue-dir", required=True, metavar="PATH",
        help="work-queue directory to serve (layout created if missing)",
    )
    queue_server_parser.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="bind address (default: 127.0.0.1; 0.0.0.0 for a fleet)",
    )
    queue_server_parser.add_argument(
        "--port", type=int, default=8787, metavar="PORT",
        help="bind port (default: 8787; 0 picks an ephemeral port)",
    )
    queue_server_parser.add_argument(
        "--verbose", action="store_true",
        help="log every request (default: quiet)",
    )
    queue_server_parser.set_defaults(func=_cmd_queue_server)

    queue_status_parser = sub.add_parser(
        "queue-status",
        help="show a queue's depth, settings, and per-worker health",
    )
    queue_status_parser.add_argument(
        "--queue-dir", metavar="PATH", help="work-queue directory to inspect",
    )
    queue_status_parser.add_argument(
        "--queue-url", metavar="URL",
        help="inspect a remote queue served by 'queue-server'",
    )
    queue_status_parser.add_argument(
        "--json", metavar="PATH",
        help="write status as JSON ('-' for stdout)",
    )
    queue_status_parser.set_defaults(func=_cmd_queue_status)

    serve_parser = sub.add_parser(
        "serve", help="expose the invariant service over HTTP (JSON + SSE)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8977,
        help="bind port (default: 8977; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--solver", default="gcln", metavar="NAME",
        help="default solver for requests that name none (default: gcln)",
    )
    serve_parser.add_argument(
        "--epochs", type=_positive_int, default=2000, help="training epochs per attempt"
    )
    serve_parser.add_argument(
        "--queue-dir", metavar="PATH",
        help=(
            "solve via the distributed work queue at PATH instead of "
            "in-process (drain it with 'python -m repro worker')"
        ),
    )
    serve_parser.add_argument(
        "--queue-wait", type=float, default=None, metavar="SECONDS",
        help=(
            "with --queue-dir: give up on a request when no worker acks "
            "it within this long (default: wait forever)"
        ),
    )
    serve_parser.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-problem budget recorded in the queue meta (needs --queue-dir)",
    )
    serve_parser.add_argument(
        "--solve-threads", type=_positive_int, default=2, metavar="N",
        help="in-process solver threads (default: 2)",
    )
    serve_parser.add_argument(
        "--memo", type=int, default=256, metavar="N",
        help=(
            "finished results replayed instantly for repeated requests "
            "(LRU entries; 0 disables; default: 256)"
        ),
    )
    serve_parser.add_argument(
        "--rate", type=float, default=5.0, metavar="R",
        help="per-client sustained requests/second (<= 0 disables; default: 5)",
    )
    serve_parser.add_argument(
        "--burst", type=int, default=10, metavar="N",
        help="per-client burst capacity (default: 10)",
    )
    serve_parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="global concurrent-solve cap (<= 0 disables; default: 8)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    record_parser = sub.add_parser(
        "record",
        help="record a problem's train/check observations for trace-first solving",
    )
    record_parser.add_argument("problem", help="NLA problem name (see 'list')")
    record_parser.add_argument(
        "--json",
        default="-",
        metavar="PATH",
        help=(
            "where to write the trace-only recording ('-' for stdout; "
            "default: stdout)"
        ),
    )
    record_parser.set_defaults(func=_cmd_record)

    trace_parser = sub.add_parser("trace", help="dump one execution trace")
    trace_parser.add_argument("problem")
    trace_parser.add_argument(
        "--inputs", nargs="+", default=[], metavar="NAME=VALUE"
    )
    trace_parser.add_argument("--limit", type=int, default=30)
    trace_parser.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # One line, not a traceback: unknown problems/solvers, bad
        # queues, and unsupported solver/problem pairs are user errors.
        raise SystemExit(str(exc)) from exc


if __name__ == "__main__":
    sys.exit(main())
