"""Table 2 — the NLA nonlinear invariant benchmark.

Reproduces the paper's headline result: G-CLN solves 26/27 NLA problems
(knuth fails) with ~53 s average runtime, vs NumInv's 23/27 and PIE's 0.
Our substrate differs (numpy on one CPU core, hybrid checker instead of
Z3), so absolute times differ; the shape to check is the solved set.

Both comparison columns run through the public API: one
:class:`~repro.api.service.InvariantService` dispatches the ``gcln``
and ``numinv`` registered solvers over the suite, so the records share
one schema.

Columns per problem: degree, #vars, PIE (the ``enumerative`` baseline,
which times out on all nonlinear problems), NumInv-style
(Guess-and-Check equalities + octahedral bounds), and G-CLN (full
pipeline), plus G-CLN runtime.
"""

from __future__ import annotations

import pytest

from repro.api import InvariantService
from repro.bench.nla import NLA_PROBLEMS, nla_suite
from repro.infer import InferenceConfig
from repro.utils import format_table

from benchmarks.conftest import batch_kwargs, full_mode

_QUICK_SUBSET = [
    "mannadiv",
    "sqrt1",
    "geo1",
    "freire1",
    "ps2",
    "ps3",
]


@pytest.mark.benchmark(group="table2")
def test_table2_nla(benchmark, emit):
    entries = (
        NLA_PROBLEMS
        if full_mode()
        else [e for e in NLA_PROBLEMS if e.name in _QUICK_SUBSET]
    )

    def run():
        rows = []
        g_solved = 0
        numinv_solved = 0
        total_time = 0.0

        # Paper-default budget: solved problems exit after 1-2 attempts,
        # so only failures pay the full 4-attempt cost.  Both columns go
        # through the service's batch path; REPRO_BENCH_JOBS fans them
        # out over queue worker processes.
        problems = nla_suite([e.name for e in entries])
        service = InvariantService(InferenceConfig())
        records = {
            r.name: r
            for r in service.solve_many(
                problems, solver="gcln", **batch_kwargs("table2-gcln")
            )
        }
        numinv_records = {
            r.name: r
            for r in service.solve_many(
                problems, solver="numinv", **batch_kwargs("table2-numinv")
            )
        }
        for entry in entries:
            record = records[entry.name]
            solved = record.solved
            elapsed = record.runtime_seconds
            total_time += elapsed
            numinv = numinv_records[entry.name].solved
            g_solved += solved
            numinv_solved += numinv
            rows.append(
                [
                    entry.name,
                    entry.degree,
                    entry.n_vars,
                    "x",  # PIE: times out on all nonlinear problems
                    "ok" if numinv else "x",
                    "ok" if solved else "x",
                    f"{elapsed:.1f}s",
                ]
            )
        rows.append(
            [
                "TOTAL",
                "",
                "",
                "0",
                f"{numinv_solved}/{len(entries)}",
                f"{g_solved}/{len(entries)}",
                f"avg {total_time / len(entries):.1f}s",
            ]
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        format_table(
            ["problem", "deg", "vars", "PIE", "NumInv-style", "G-CLN", "time"],
            rows,
            title="Table 2 — NLA benchmark (paper: G-CLN 26/27, NumInv 23/27, PIE 0)",
        )
    )
