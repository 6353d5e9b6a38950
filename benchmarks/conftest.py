"""Shared helpers for the benchmark harnesses.

Environment knobs:

* ``REPRO_BENCH_FULL=1`` — run every problem / full repetition counts
  (matches the paper's protocol; takes over an hour on one CPU core).
  The default uses representative subsets and reduced repetitions so
  the whole suite finishes in tens of minutes while preserving the
  tables' *shape*.
* ``REPRO_BENCH_JOBS=N`` — fan suite benchmarks out over N local
  queue workers on this host, or ``auto`` for an elastic fleet sized
  to queue depth.  With ``REPRO_BENCH_QUEUE_DIR=PATH`` the queues are
  durable (one worker unless ``REPRO_BENCH_JOBS`` says more), so an
  interrupted ``REPRO_BENCH_FULL`` run resumes instead of starting
  over.
"""

from __future__ import annotations

import os

import pytest


def full_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


def batch_kwargs(label: str) -> dict:
    """``solve_many`` fan-out arguments from the environment.

    ``label`` keeps durable queues of different benchmark passes (e.g.
    the gcln and numinv columns of Table 2) apart: item ids embed only
    the problem index, so two passes must never share one queue.
    """
    raw = os.environ.get("REPRO_BENCH_JOBS", "1")
    kwargs: dict = {"jobs": raw if raw == "auto" else int(raw)}
    queue_base = os.environ.get("REPRO_BENCH_QUEUE_DIR", "")
    if queue_base:
        kwargs["queue_dir"] = os.path.join(queue_base, label)
    return kwargs


@pytest.fixture
def emit():
    """Print a block of table output, visible with pytest -s and in
    benchmark summaries."""

    def _emit(text: str) -> None:
        print("\n" + text + "\n", flush=True)

    return _emit
