"""Compare every registered solver on one problem, streaming events.

Demonstrates the three pillars of the public API:

* the **registry** — iterate ``available_solvers()`` and dispatch by
  name, no per-strategy code;
* the **service** — one long-lived :class:`InvariantService` that runs
  every solver; each solve memoizes its own traces and term matrices,
  and ``cache_stats`` sums their hits and misses over the solves;
* the **event bus** — a subscriber receives typed lifecycle events;
  here we aggregate ``StageTimed`` events into a per-solver profile.

Usage:  python examples/solver_shootout.py
"""

from collections import defaultdict

from repro import InferenceConfig, InvariantService, Problem
from repro.api import StageTimed, available_solvers

SOURCE = """
program cubes;
input k;
assume (k >= 0);
n = 0; x = 0; y = 1; z = 6;
while (n < k) { n = n + 1; x = x + y; y = y + z; z = z + 6; }
assert (z == 6 * n + 6);
"""


def main() -> None:
    problem = Problem(
        name="cubes",
        source=SOURCE,
        train_inputs=[{"k": value} for value in range(0, 20)],
        max_degree=2,
        ground_truth={
            0: ["z == 6 * n + 6", "y == 3 * n * n + 3 * n + 1"],
        },
    )

    service = InvariantService(InferenceConfig(max_epochs=1200))
    profile: dict[tuple[str, str], float] = defaultdict(float)
    service.subscribe(
        lambda e: profile.__setitem__(
            (e.solver, e.stage), profile[(e.solver, e.stage)] + e.seconds
        ),
        kinds=(StageTimed,),
    )

    print(f"{'solver':<16} {'solved':<7} {'time':>7}  invariant")
    for name in available_solvers():
        result = service.solve(problem, solver=name)
        print(
            f"{name:<16} {str(result.solved):<7} "
            f"{result.runtime_seconds:6.1f}s  {result.invariant(0)[:60]}"
        )

    print("\nper-stage profile (seconds):")
    for (solver, stage), seconds in sorted(profile.items()):
        if seconds > 0.005:
            print(f"  {solver:<16} {stage:<8} {seconds:6.2f}")
    print(f"\ncache counters, summed over solves: {service.cache_stats}")


if __name__ == "__main__":
    main()
