"""Generated linear-invariant suite standing in for Code2Inv (§6.4).

The Code2Inv benchmark (133 C programs with SMT checks; 124 solvable)
is not redistributable here, so we generate 124 linear problems from
four structural templates modeled on it: paired counters, scaled
accumulators, three-variable couplings, and guarded bounds.  Every
instance exercises the same code path as the paper's linear experiment
(linear G-CLN learning, maxDeg = 1).  See docs/architecture.md,
"Substitutes for the paper's tools".
"""

from __future__ import annotations

from repro.infer.problem import Problem


def _counter_pair(index: int, a0: int, b0: int, s: int, t: int) -> Problem:
    """x starts at a0 stepping s; y starts at b0 stepping t.

    Invariant: ``t*x - s*y == t*a0 - s*b0``.
    """
    const = t * a0 - s * b0
    source = f"""
program c2i_pair_{index};
input N;
assume (N >= 0);
x = {a0}; y = {b0}; i = 0;
while (i < N) {{ i = i + 1; x = x + {s}; y = y + {t}; }}
assert ({t} * x - {s} * y == {const});
"""
    return Problem(
        name=f"c2i_pair_{index}",
        source=source,
        train_inputs=[{"N": v} for v in range(0, 20)],
        check_inputs=[{"N": v} for v in range(0, 40, 2)],
        max_degree=1,
        ground_truth={0: [f"{t} * x - {s} * y == {const}"]},
    )


def _accumulator(index: int, c: int, x0: int) -> Problem:
    """s accumulates c per step from x0*c.

    Invariant: ``s == c*i + c*x0``.
    """
    source = f"""
program c2i_acc_{index};
input N;
assume (N >= 0);
s = {c * x0}; i = 0;
while (i < N) {{ i = i + 1; s = s + {c}; }}
assert (s == {c} * i + {c * x0});
"""
    return Problem(
        name=f"c2i_acc_{index}",
        source=source,
        train_inputs=[{"N": v} for v in range(0, 20)],
        check_inputs=[{"N": v} for v in range(0, 40, 2)],
        max_degree=1,
        ground_truth={0: [f"s == {c} * i + {c * x0}"]},
    )


def _triple(index: int, p: int, q: int) -> Problem:
    """z tracks p*x + q*y.

    Invariant: ``z == p*x + q*y``.
    """
    source = f"""
program c2i_triple_{index};
input N;
assume (N >= 0);
x = 0; y = 0; z = 0; i = 0;
while (i < N) {{ i = i + 1; x = x + 1; y = y + 2; z = z + {p + 2 * q}; }}
assert (z == {p} * x + {q} * y);
"""
    return Problem(
        name=f"c2i_triple_{index}",
        source=source,
        train_inputs=[{"N": v} for v in range(0, 20)],
        check_inputs=[{"N": v} for v in range(0, 40, 2)],
        max_degree=1,
        ground_truth={0: [f"z == {p} * x + {q} * y"]},
    )


def _bound(index: int, step: int) -> Problem:
    """Guarded counter: loop-head bound ``x <= N + step - 1``.

    The ground truth keeps the equality part learnable at maxDeg 1 and
    a linear bound for the PBQU model.
    """
    source = f"""
program c2i_bound_{index};
input N;
assume (N >= 0);
x = 0; y = 0;
while (x < N) {{ x = x + {step}; y = y + {step}; }}
assert (x == y);
"""
    return Problem(
        name=f"c2i_bound_{index}",
        source=source,
        train_inputs=[{"N": v} for v in range(0, 24)],
        check_inputs=[{"N": v} for v in range(0, 48, 2)],
        max_degree=1,
        learn_inequalities=True,
        ground_truth={0: ["x == y", f"x <= N + {step - 1}"]},
    )


def code2inv_problems() -> list[Problem]:
    """All 124 generated linear problems (deterministic)."""
    problems: list[Problem] = []
    index = 0
    # 60 paired counters.
    for a0, b0, s, t in [
        (a0, b0, s, t)
        for a0 in (0, 1, 3)
        for b0 in (0, 2)
        for s in (1, 2, 3, 5, 7)
        for t in (1, 4)
    ]:
        problems.append(_counter_pair(index, a0, b0, s, t))
        index += 1
    # 30 accumulators.
    for c in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
        for x0 in (0, 1, 2):
            problems.append(_accumulator(index, c, x0))
            index += 1
    # 20 triples.
    for p in (1, 2, 3, 4, 5):
        for q in (1, 2, 3, 4):
            problems.append(_triple(index, p, q))
            index += 1
    # 14 bounds.
    for step in range(1, 15):
        problems.append(_bound(index, step))
        index += 1
    assert len(problems) == 124, len(problems)
    return problems


def code2inv_suite(stride: int = 1) -> list[Problem]:
    """The linear suite for the batch runner.

    Args:
        stride: keep every ``stride``-th problem (``8`` gives the same
            16-instance subset the quick benchmark mode uses).
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return code2inv_problems()[::stride]
