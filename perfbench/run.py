"""Solved-set benchmark: one command, every metric by name.

    python3 perfbench/run.py --workload nla-check --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repo.  Each solve pass is a
fresh ``perfbench/solve.py`` process with a fresh ``InvariantService``
and the default ``gcln`` solver.  ``--trace 0`` measures the end-to-end
metrics: set-up time (median of several set-ups), then solve passes
until ``--seconds`` is spent (at least one), reported as medians.
``--trace 1`` runs one untraced pass and one traced pass and reports
the per-layer metrics, including the tracing overhead.

``--seed`` shuffles the workload's problem order; ``--train-seed S``
sets ``InferenceConfig.seeds = (S, S+1, S+2, S+3)`` (1 = shipped).
Every solved record is re-checked independently of ``repro.checker``.
Human-readable lines come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, count_failed, end_to_end, harness_layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
# A run must end within 180 s; leave room to report.
DEADLINE_S = 170.0


class ChildFailed(Exception):
    """A solving process exited non-zero or overran the deadline."""


def child(args: list[str], deadline: float) -> dict:
    """Run solve.py to completion and return its JSON result.

    The child leads its own process group, so an overrun kills its
    pool workers with it.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for solve.py {' '.join(args)}")
    cmd = [sys.executable, str(HERE / "solve.py"), *args]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"solve.py {' '.join(args)} overran the deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"solve.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def describe(workload: str, args, passes: list[dict]) -> list[str]:
    """The deterministic counts a timing change can hide."""
    records = passes[0]["records"]
    solved = sorted(r["name"] for r in records if r["solved"])
    return [
        f"perfbench workload={workload} seed={args.seed} train_seed={args.train_seed} "
        f"passes={len(passes)} jobs={passes[0]['jobs']}",
        f"solved {len(solved)}/{len(records)}: {' '.join(solved)}",
        "attempts: " + " ".join(f"{r['name']}={r['attempts']}" for r in sorted(records, key=lambda r: r["name"])),
        f"train.epochs: {sum(r['train_epochs'] for r in records)}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--train-seed", type=int, default=1)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--train-seed", str(args.train_seed)]
    try:
        setup = []
        if not args.trace:
            setup = [child(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
        passes: list[dict] = []
        start = time.monotonic()
        while True:
            passes.append(child(common, deadline))
            spent = time.monotonic() - start
            if args.trace or spent + spent / len(passes) > args.seconds:
                break
        traced = None
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = child(common + ["--trace", "--spans", str(spans)], deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    runs = passes + ([traced] if traced else [])
    attempted = sum(len(p["records"]) for p in runs)
    failed = sum(count_failed(p["records"], set(p["recheck_failed"])) for p in runs)
    if traced:
        values = {**traced["layers"], **harness_layers(passes[0], traced)}
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values = end_to_end(passes, setup)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    lines = describe(args.workload, args, passes)
    lines.append(f"failed {failed}/{attempted} (failed_frac {failed / attempted:.4g})")
    lines.extend(f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
