"""One solving process of the benchmark; ``run.py`` starts it.

    python3 perfbench/solve.py --workload NAME --seed N [--train-seed S]
                               [--trace --spans PATH]
    python3 perfbench/solve.py --workload NAME --setup-only

Solves the workload once with a fresh ``InvariantService`` (no cache
directory, no memo) and prints one JSON object as its last stdout
line.  With ``--trace`` every problem is solved in this process so the
layer wrappers see every call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import BLAS_ENV, PROBLEM_TIMEOUT_S, WORKLOADS, ordered, train_seeds

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(workload, seed: int, train_seed: int):
    """Import the program, build and parse the problems, make the service.

    Returns the seconds this took, the problems in the seed's order,
    and the service.
    """
    start = time.perf_counter()
    from repro.api import InvariantService
    from repro.bench import code2inv_suite, nla_suite
    from repro.infer.config import InferenceConfig

    if workload.suite == "nla":
        problems = nla_suite(list(workload.problems))
    else:
        problems = code2inv_suite(workload.stride)
    by_name = {p.name: p for p in problems}
    problems = [by_name[n] for n in ordered(list(by_name), workload, seed)]
    for problem in problems:
        problem.program  # parse here, not inside the first solve
    service = InvariantService(config=InferenceConfig(seeds=train_seeds(train_seed)))
    return time.perf_counter() - start, problems, service


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children (pool workers)."""
    own, children = _usage()
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own, children = _usage()
    return max(own.ru_maxrss, children.ru_maxrss) / 1024.0  # Linux reports KiB


def summary(record) -> dict:
    result = record.result
    return {
        "name": record.name,
        "status": record.status,
        "solved": record.solved,
        "runtime_seconds": record.runtime_seconds,
        "attempts": result.attempts if result is not None else 0,
        "train_epochs": result.train_epochs if result is not None else 0,
        "stage_timings": dict(result.stage_timings) if result is not None else {},
    }


def solve(problems, service, jobs: int) -> dict:
    """Solve every problem once; times run from the first solve call to
    the arrival of the last record."""
    done_at: list[float] = []
    cpu_before = cpu_seconds()
    start = time.perf_counter()
    records = service.solve_many(
        problems,
        jobs=jobs,
        timeout_seconds=PROBLEM_TIMEOUT_S,
        progress=lambda _record: done_at.append(time.perf_counter()),
    )
    return {
        "suite_s": done_at[-1] - start,
        "cpu_s": cpu_seconds() - cpu_before,
        "peak_rss_mb": peak_rss_mb(),
        "jobs": jobs,
        "records": records,
    }


def recheck_solved(problems, records) -> dict[str, list[str]]:
    """Independent re-check failures, by solved problem."""
    from recheck import recheck

    by_name = {p.name: p for p in problems}
    failures: dict[str, list[str]] = {}
    for record in records:
        if record.solved:
            loops = [loop.to_dict() for loop in record.result.loops]
            found = recheck(by_name[record.name], loops)
            if found:
                failures[record.name] = found
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--train-seed", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where --trace writes its spans (JSON lines)")
    args = parser.parse_args(argv)

    # Before numpy loads, so this process and its pool workers inherit
    # them; PYTHONPATH lets workers started by spawn/forkserver import repro.
    os.environ.update(BLAS_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    setup_s, problems, service = setup(workload, args.seed, args.train_seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
        try:
            out = solve(problems, service, jobs=1)
        finally:
            tracer.restore()
    else:
        out = solve(problems, service, jobs=workload.jobs)
    records = out["records"]
    failures = recheck_solved(problems, records)
    for failure in (f for found in failures.values() for f in found):
        print(f"re-check failed: {failure}", file=sys.stderr)
    out["records"] = [summary(r) for r in records]
    out["setup_s"] = setup_s
    out["recheck_failed"] = sorted(failures)
    for record in records:
        if record.error:
            print(f"{record.name}: {record.status}: {record.error}", file=sys.stderr)
    if tracer is not None:
        from tracing import layer_metrics

        out["layers"] = layer_metrics(tracer, service.cache_stats)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
