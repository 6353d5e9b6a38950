"""§6.4 — the linear (Code2Inv-style) benchmark.

The paper: all 124 solvable Code2Inv problems solved in under 30 s
each.  We run the generated 124-problem linear suite (see
docs/architecture.md, "Substitutes for the paper's tools") and report
solved count and times.
"""

from __future__ import annotations

import os

import pytest

from repro.api import InvariantService
from repro.bench.code2inv import code2inv_suite
from repro.infer import InferenceConfig
from repro.utils import format_table

from benchmarks.conftest import batch_kwargs, full_mode

# Which registered solver to benchmark; the linear suite is also a good
# yardstick for the baselines (e.g. REPRO_BENCH_SOLVER=numinv).
_SOLVER = os.environ.get("REPRO_BENCH_SOLVER", "gcln")


@pytest.mark.benchmark(group="code2inv")
def test_code2inv_linear_suite(benchmark, emit):
    # 16 representative instances in quick mode, all 124 in full mode.
    problems = code2inv_suite(stride=1 if full_mode() else 8)
    config = InferenceConfig(
        max_epochs=900,
        dropout_schedule=(0.4, 0.6),
    )
    service = InvariantService(config)

    def run():
        records = service.solve_many(
            problems, solver=_SOLVER, **batch_kwargs(f"code2inv-{_SOLVER}")
        )
        times = [r.runtime_seconds for r in records]
        solved = sum(1 for r in records if r.solved)
        slowest = max(times, default=0.0)
        failures = [r.name for r in records if not r.solved]
        return solved, times, slowest, failures

    solved, times, slowest, failures = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        ["problems", len(times)],
        ["solved", solved],
        ["mean time", f"{sum(times) / len(times):.1f}s"],
        ["max time", f"{slowest:.1f}s"],
        ["failures", ", ".join(failures) if failures else "-"],
    ]
    emit(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"§6.4 — linear suite, solver {_SOLVER} "
                "(paper: 124/124 solved, < 30 s each)"
            ),
        )
    )
