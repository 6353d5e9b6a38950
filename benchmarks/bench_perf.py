"""Performance microbenchmark: the perf trajectory of the training core.

Measures four things and writes them to ``BENCH_PERF.json``:

1. **gcln** — epochs/sec on an auto-built equality model: the eager
   per-unit reference trainer (``train_gcln_eager``) vs the vectorized
   taped ``train_gcln``.
2. **end_to_end** — wall-clock of full solves on a fixed problem set,
   with every optimization disabled (eager training, no attempt
   batching, no checker memoization) vs the defaults.
3. **replay** — ``tape.step``-only epochs/sec of a PBQU
   :class:`~repro.cln.bounds.BoundBank` training graph through the
   reference closure walker (``numpy``) vs the compiled plan
   (``fused``).  This isolates the replay engine
   from optimizer/bookkeeping overhead; section 1 replays through the
   walker so its trajectory stays comparable with historical records.
4. **serve** — the HTTP front end under concurrent load: one cold
   solve latency vs memoized replays hammered by 8 concurrent clients
   (req/s, p50/p95 latency, and the memo speedup ``check_perf.py``
   gates at >= 10x), plus N concurrent *identical* requests proving
   the in-flight dedup collapses them to exactly one solve.

The walker is reached the way the test suite's ``walker`` fixture
reaches it: the tape's plan compile is patched to decline, so the tape
takes its own fallback.  Speedups are ratios measured in the same
process on the same machine, so they are comparable across hosts; the
absolute epochs/sec numbers are what ``check_perf.py`` gates CI
regressions against.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py --out BENCH_PERF.json
    PYTHONPATH=src python benchmarks/bench_perf.py --quick   # CI sizes
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import time
from unittest import mock

import numpy as np

from repro.api import InvariantService
from repro.bench import nla_problem
from repro.autodiff import Tape, Tensor
from repro.autodiff import tape as tape_module
from repro.cln.bounds import BoundBank, enumerate_bound_masks
from repro.cln.model import GCLN, GCLNConfig
from repro.cln.train import train_gcln, train_gcln_eager
from repro.infer import InferenceConfig
from repro.sampling import normalize_rows
from repro.utils import format_table

# Never early-stop inside the microbenchmarks: epochs/sec must divide
# by a deterministic epoch count.
_NO_EARLY_STOP = 10**9


def _walker_replay():
    """Every Tape replays through its closure walker inside this block."""
    return mock.patch.object(
        tape_module,
        "compile_plan",
        lambda nodes, root: (None, "compile declined: walker oracle"),
    )


def _unit_bank_inputs(n_terms: int, samples: int, seed: int):
    """Synthetic data + a linear term basis, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    data = normalize_rows(np.abs(rng.normal(size=(samples, n_terms))) + 0.5)
    term_vars = [frozenset()] + [frozenset([f"v{i}"]) for i in range(1, n_terms)]
    term_degs = [0] + [1] * (n_terms - 1)
    return data, term_vars, term_degs


def bench_gcln(epochs: int, n_terms: int = 15, samples: int = 60) -> dict:
    rng = np.random.default_rng(0)
    data = normalize_rows(np.abs(rng.normal(size=(samples, n_terms))) + 0.5)
    out: dict = {}
    for label, trainer in (
        ("eager", train_gcln_eager), ("vectorized", train_gcln)
    ):
        config = GCLNConfig(n_clauses=10, max_epochs=epochs, dropout_rate=0.5)
        model = GCLN(
            n_terms, config, np.random.default_rng(7), protected_terms=[0]
        )
        with _walker_replay():
            start = time.perf_counter()
            result = trainer(
                model, data, max_epochs=epochs,
                early_stop_patience=_NO_EARLY_STOP,
            )
            elapsed = time.perf_counter() - start
        out[f"{label}_epochs_per_sec"] = result.epochs / elapsed
        out["units"] = len(model.units_flat)
    out["speedup"] = out["vectorized_epochs_per_sec"] / out["eager_epochs_per_sec"]
    return out


def bench_replay(
    reps: int, n_terms: int = 15, samples: int = 60
) -> dict:
    """``tape.step``-only epochs/sec of the bound-bank graph, walker vs plan.

    A :class:`BoundBank` over every one- and two-variable bound mask,
    each twice (unit residuals → PBQU → loss), timing pure replays — no
    optimizer, clipping, or annealing — so the number measures the
    replay engine itself.
    """
    data, term_vars, term_degs = _unit_bank_inputs(n_terms, samples, seed=0)
    out: dict = {"reps": reps}
    for label in ("numpy", "fused"):
        config = GCLNConfig(max_epochs=reps)
        masks = np.repeat(
            enumerate_bound_masks(term_vars, term_degs, config), 2, axis=0
        )
        bank = BoundBank(masks, config, np.random.default_rng(3))
        X = Tensor(np.asarray(data, dtype=np.float64))
        c1_box = np.array(config.c1 * 10.0)

        def build():
            return (1.0 - bank.forward(X, c1=c1_box)).sum()

        tape = Tape()
        engine = (
            _walker_replay() if label == "numpy" else contextlib.nullcontext()
        )
        with engine:
            tape.step(build)  # record (eager)
            bank.weight.grad = None
            tape.step(build)  # first replay: compiles the plan
            start = time.perf_counter()
            for _ in range(reps):
                bank.weight.grad = None
                tape.step(build)
            elapsed = time.perf_counter() - start
        out[f"{label}_epochs_per_sec"] = reps / elapsed
        out["nodes"] = tape.stats()["n_nodes"]
    out["speedup"] = (
        out["fused_epochs_per_sec"] / out["numpy_epochs_per_sec"]
    )
    return out


def bench_end_to_end(problems: list[str], epochs: int) -> dict:
    """Full solves: all optimizations off vs the defaults.

    The baseline trains every model with the eager reference trainer
    (patched in for ``repro.infer.pipeline.train_gcln``; with
    ``attempt_batch_size=1`` every model goes through it).
    """
    baseline_config = InferenceConfig(
        max_epochs=epochs,
        attempt_batch_size=1,
        checker_memoization=False,
    )
    optimized_config = InferenceConfig(max_epochs=epochs)
    per_problem: dict[str, dict] = {}
    totals = {"baseline": 0.0, "optimized": 0.0}
    for name in problems:
        entry: dict = {}
        for label, config in (
            ("baseline", baseline_config),
            ("optimized", optimized_config),
        ):
            service = InvariantService(config)
            problem = nla_problem(name)
            trainer = (
                mock.patch("repro.infer.pipeline.train_gcln", train_gcln_eager)
                if label == "baseline"
                else contextlib.nullcontext()
            )
            with trainer:
                start = time.perf_counter()
                result = service.solve(problem)
                elapsed = time.perf_counter() - start
            entry[f"{label}_seconds"] = elapsed
            entry[f"{label}_solved"] = result.solved
            totals[label] += elapsed
        entry["speedup"] = entry["baseline_seconds"] / max(
            entry["optimized_seconds"], 1e-9
        )
        per_problem[name] = entry
    return {
        "problems": problems,
        "epochs": epochs,
        "baseline_seconds": totals["baseline"],
        "optimized_seconds": totals["optimized"],
        "speedup": totals["baseline"] / max(totals["optimized"], 1e-9),
        "per_problem": per_problem,
    }


def _serve_problem(name: str, step: int) -> "object":
    from repro.infer import Problem

    return Problem(
        name=name,
        source=f"""
program {name};
input n;
assume (n >= 0);
i = 0; x = 0;
while (i < n) {{ i = i + 1; x = x + {step}; }}
""",
        train_inputs=[{"n": v} for v in range(0, 8)],
        max_degree=1,
        ground_truth={0: [f"x == {step} * i"]},
    )


def bench_serve(
    epochs: int, clients: int = 8, requests_per_client: int = 25
) -> dict:
    """HTTP front-end load: cold solve vs memo replays vs dedup."""
    import asyncio
    import threading
    import urllib.request

    from repro.dist.wire import problem_to_dict
    from repro.serve.admission import AdmissionController
    from repro.serve.app import InvariantServer
    from repro.serve.executor import InProcessExecutor

    service = InvariantService(
        InferenceConfig(max_epochs=epochs, dropout_schedule=(0.6,))
    )
    server = InvariantServer(
        service,
        InProcessExecutor(service, threads=4),
        admission=AdmissionController(rate=0, max_inflight=0),
    )
    loop = asyncio.new_event_loop()

    def run_loop():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start("127.0.0.1", 0))
        loop.run_forever()

    thread = threading.Thread(target=run_loop, daemon=True)
    thread.start()
    while server._server is None:
        time.sleep(0.01)
    base = f"http://127.0.0.1:{server.port}/v1/solve"

    def post(body: bytes) -> float:
        start = time.perf_counter()
        with urllib.request.urlopen(
            urllib.request.Request(base, data=body), timeout=300
        ) as resp:
            resp.read()
        return time.perf_counter() - start

    out: dict = {"clients": clients, "epochs": epochs}
    try:
        body = json.dumps(
            {"problem": problem_to_dict(_serve_problem("servecold", 1))}
        ).encode()
        out["cold_seconds"] = post(body)

        # sequential memo replays: the clean per-request replay cost
        # (no client-side thread contention) — basis for memo_speedup
        replays = sorted(post(body) for _ in range(12))
        out["memo_median_seconds"] = replays[len(replays) // 2]
        out["memo_speedup"] = out["cold_seconds"] / max(
            out["memo_median_seconds"], 1e-9
        )

        # memoized replays under concurrent load
        latencies: list[float] = []
        lock = threading.Lock()

        def client():
            mine = [post(body) for _ in range(requests_per_client)]
            with lock:
                latencies.extend(mine)

        start = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        latencies.sort()
        n = len(latencies)
        out["memo_requests"] = n
        out["memo_req_per_sec"] = n / elapsed
        out["memo_p50_ms"] = latencies[n // 2] * 1e3
        out["memo_p95_ms"] = latencies[min(n - 1, int(n * 0.95))] * 1e3

        # N concurrent identical fresh requests → exactly one solve
        led_before = server.dedup.stats()["led"]
        fresh = json.dumps(
            {"problem": problem_to_dict(_serve_problem("servededup", 2))}
        ).encode()
        threads = [
            threading.Thread(target=post, args=(fresh,))
            for _ in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = server.dedup.stats()
        out["dedup_requests"] = clients
        out["dedup_solves"] = stats["led"] - led_before
        out["dedup_joined"] = stats["joined"]
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(
            timeout=10
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
    return out


def run(args: argparse.Namespace) -> dict:
    unit_epochs = 120 if args.quick else 400
    e2e_epochs = 200 if args.quick else 400
    payload = {
        "schema": 1,
        "quick": args.quick,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "gcln": bench_gcln(unit_epochs),
        "replay": bench_replay(1500 if args.quick else 3000),
        "end_to_end": bench_end_to_end(args.problems, e2e_epochs),
        "serve": bench_serve(
            unit_epochs,
            requests_per_client=(10 if args.quick else 25),
        ),
    }
    return payload


def report(payload: dict) -> str:
    gcln, e2e = payload["gcln"], payload["end_to_end"]
    replay = payload["replay"]
    rows = [
        [
            "gcln (train_gcln)",
            f"{gcln['eager_epochs_per_sec']:.0f} ep/s",
            f"{gcln['vectorized_epochs_per_sec']:.0f} ep/s",
            f"{gcln['speedup']:.1f}x",
        ],
        [
            f"replay ({replay['nodes']} nodes, tape.step only)",
            f"{replay['numpy_epochs_per_sec']:.0f} ep/s",
            f"{replay['fused_epochs_per_sec']:.0f} ep/s",
            f"{replay['speedup']:.1f}x",
        ],
        [
            f"end-to-end ({', '.join(e2e['problems'])})",
            f"{e2e['baseline_seconds']:.1f}s",
            f"{e2e['optimized_seconds']:.1f}s",
            f"{e2e['speedup']:.1f}x",
        ],
    ]
    if "serve" in payload:
        serve = payload["serve"]
        rows.append(
            [
                f"serve (memo, {serve['clients']} clients,"
                f" {serve['memo_req_per_sec']:.0f} req/s,"
                f" p95 {serve['memo_p95_ms']:.1f}ms,"
                f" dedup {serve['dedup_requests']}->"
                f"{serve['dedup_solves']})",
                f"{serve['cold_seconds'] * 1e3:.0f}ms",
                f"{serve['memo_median_seconds'] * 1e3:.1f}ms",
                f"{serve['memo_speedup']:.0f}x",
            ]
        )
    return format_table(
        ["path", "baseline", "optimized", "speedup"],
        rows,
        title="bench_perf — vectorized training core",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--problems",
        nargs="+",
        default=["ps2", "ps3"],
        metavar="NAME",
        help="fixed NLA problem set for the end-to-end comparison",
    )
    parser.add_argument(
        "--out", default="BENCH_PERF.json", metavar="PATH",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI sizes: fewer epochs, same structure",
    )
    args = parser.parse_args(argv)
    payload = run(args)
    print(report(payload))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
