"""The benchmark's fixed problem sets.

Every problem here runs with status ``ok`` under the default ``gcln``
solver, so ``failed`` starts at 0: the crashing ``egcd2``/``egcd3`` and
the ``lcm1`` timeout are left out.  Each set is sized so that one pass
takes about 20 s on a 2-core x86 container without numba; the driver's
run budget (4 + 22 runs per workload) does not fit larger sets.

This module imports nothing from the repo, so the harness can validate
arguments before anything heavy loads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Hard wall-clock budget per problem (SIGALRM in the solving process);
# the slowest problem in any set takes under 10 s.
PROBLEM_TIMEOUT_S = 60.0

# BLAS/OpenMP thread pins for every solving process, set before numpy
# loads so pool workers inherit them.  Unpinned, OpenBLAS starts one
# thread per core in each process: a 2-process pool then runs 4 BLAS
# threads on 2 cores, and even a single solving process burns ~25% more
# CPU-seconds for the same wall-clock.  The pin also moves a few
# training epochs (ps5: 6922 -> 6925), so it is part of the benchmark's
# definition, not a tuning knob.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    """One fixed problem set and how it is solved.

    Attributes:
        name: workload name (``--workload``).
        suite: ``"nla"`` or ``"code2inv"``.
        problems: NLA problem names (``suite == "nla"``).
        stride: keep every ``stride``-th code2inv problem.
        jobs: ``solve_many`` process-pool width.
        heavy_prefix: problems whose names start with this run first,
            so the pool's tail (and so ``suite_s``) does not depend on
            the seed's shuffle.
        why: why the workload is in the benchmark (one line).
    """

    name: str
    suite: str
    problems: tuple[str, ...] = ()
    stride: int = 1
    jobs: int = 1
    heavy_prefix: str = ""
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nla-check",
            suite="nla",
            problems=("sqrt1", "ps2", "cohencu"),
            why=(
                "NLA problems where the exact checker dominates (about "
                "2/3 of stage time): bounded inductiveness and "
                "interpreter steps on perturbed states; training is small"
            ),
        ),
        Workload(
            name="nla-train",
            suite="nla",
            problems=(
                "divbin", "mannadiv", "hard", "prodbin",
                "freire1", "geo1", "geo2",
            ),
            why=(
                "NLA problems where train plus extract take ~95% of stage "
                "time, with retries on attempts 2-3 (TapePool reuse) and "
                "a two-loop program; check is ~5%"
            ),
        ),
        Workload(
            name="code2inv",
            suite="code2inv",
            stride=2,
            jobs=2,
            heavy_prefix="c2i_bound",
            why=(
                "Every 2nd generated linear problem through "
                "solve_many(jobs=2): the process-pool fan-out, many tiny "
                "maxDeg-1 models, and the PBQU bound bank (c2i_bound)"
            ),
        ),
    )
}


def ordered(names: list[str], workload: Workload, seed: int) -> list[str]:
    """The workload's problem order for one seed.

    The seed shuffles the problems; problems matching
    ``heavy_prefix`` then move to the front, keeping their shuffled
    order.  Solving is deterministic per problem, so the seed changes
    the order the program sees but not what it must solve.
    """
    shuffled = list(names)
    random.Random(seed).shuffle(shuffled)
    if workload.heavy_prefix:
        shuffled.sort(key=lambda n: not n.startswith(workload.heavy_prefix))
    return shuffled


def train_seeds(seed: int) -> tuple[int, int, int, int]:
    """``InferenceConfig.seeds`` for a training seed (1 = shipped config)."""
    return (seed, seed + 1, seed + 2, seed + 3)
