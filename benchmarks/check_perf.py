"""CI perf gate: compare a fresh BENCH_PERF.json against the baseline.

Two kinds of checks:

* **Relative speedups** (machine-independent): the end-to-end solves
  must stay >= 2x the all-optimizations-off configuration, the
  compiled (fused) tape replay >= 2x the batched units epochs/sec
  recorded in the baseline and never slower than the reference closure
  walker, and the HTTP server's memoized replays >= 10x faster than a
  cold solve (with the in-flight dedup collapsing N concurrent
  identical requests to exactly one solve) — the acceptance criteria
  of the vectorized-training-core, compiled-replay, and serve changes.
  On loaded or heavily shared runners the ratios themselves get noisy;
  set ``REPRO_PERF_FLOOR_SCALE`` (a float in (0, 1], default 1.0) to
  scale every relative floor down instead of letting the gate flake —
  e.g. ``REPRO_PERF_FLOOR_SCALE=0.8`` accepts 80% of each floor.
* **Absolute regression** (against the checked-in baseline, with 2x
  slack for host variance): epochs/sec on the batched paths must not
  drop below half the recorded baseline.  Only applied when the two
  records were produced at the same sizes (matching ``quick`` flags) —
  epochs/sec at CI sizes is not comparable to a full-size baseline.

Usage::

    python benchmarks/check_perf.py BENCH_PERF.json benchmarks/bench_perf_baseline.json
"""

from __future__ import annotations

import json
import os
import sys

MIN_E2E_SPEEDUP = 2.0
# The compiled fused replay vs the batched epochs/sec recorded in the
# checked-in baseline — the compiled-replay acceptance criterion.  The
# batched (numpy-walker) reference itself has sped up since the plan
# compiler landed, so the floor vs the *current* reference is lower
# than the original 3x-vs-historical-reference criterion.
MIN_REPLAY_SPEEDUP = 2.0
# The fused plan must never lose to the closure walker it replaces.
MIN_REPLAY_VS_WALKER = 1.0
# Serving: a memoized replay must be >= 10x faster than a cold solve.
MIN_SERVE_MEMO_SPEEDUP = 10.0
MAX_REGRESSION = 2.0  # current must be >= baseline / MAX_REGRESSION


def floor_scale() -> float:
    """Relative-floor override for loaded runners (env-tunable)."""
    raw = os.environ.get("REPRO_PERF_FLOOR_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise SystemExit(
            f"REPRO_PERF_FLOOR_SCALE must be a float, got {raw!r}"
        ) from exc
    if not 0.0 < scale <= 1.0:
        raise SystemExit(
            f"REPRO_PERF_FLOOR_SCALE must be in (0, 1], got {scale}"
        )
    return scale


def check(current: dict, baseline: dict) -> list[str]:
    failures: list[str] = []
    scale = floor_scale()
    if scale != 1.0:
        print(f"note: relative floors scaled by REPRO_PERF_FLOOR_SCALE={scale}")
    if "replay" not in current:
        failures.append(
            "record has no 'replay' section — regenerate it with the "
            "current benchmarks/bench_perf.py"
        )
    if "serve" not in current:
        failures.append(
            "record has no 'serve' section — regenerate it with the "
            "current benchmarks/bench_perf.py"
        )
    floors = [
        ("end-to-end", current["end_to_end"]["speedup"], MIN_E2E_SPEEDUP),
    ]
    if "replay" in current:
        replay = current["replay"]
        floors.append(
            (
                "replay fused vs walker",
                replay["fused_epochs_per_sec"] / replay["numpy_epochs_per_sec"],
                MIN_REPLAY_VS_WALKER,
            )
        )
    if "serve" in current:
        serve = current["serve"]
        floors.append(
            ("serve memo vs cold", serve["memo_speedup"], MIN_SERVE_MEMO_SPEEDUP)
        )
        # Exact, not a floor: concurrent identical requests must
        # collapse to one solve or dedup is broken outright.
        if serve["dedup_solves"] != 1:
            failures.append(
                f"serve dedup ran {serve['dedup_solves']} solves for "
                f"{serve['dedup_requests']} concurrent identical requests "
                "(expected exactly 1)"
            )
    for label, got, floor in floors:
        required = floor * scale
        if got < required:
            failures.append(
                f"{label} speedup {got:.2f}x < required {required:.2f}x"
            )
    if current.get("quick") != baseline.get("quick"):
        print(
            "note: size mismatch (quick flags differ); skipping the "
            "absolute epochs/sec comparison, relative speedups still gate"
        )
        return failures
    if "replay" in current and "units" in baseline:
        # The compiled-replay acceptance criterion, against the
        # *checked-in* baseline: the fused replay must deliver >= 2x
        # the batched units epochs/sec recorded there.
        required = MIN_REPLAY_SPEEDUP * scale
        got = (
            current["replay"]["fused_epochs_per_sec"]
            / baseline["units"]["batched_epochs_per_sec"]
        )
        if got < required:
            failures.append(
                f"replay fused vs baseline units.batched {got:.2f}x "
                f"< required {required:.2f}x"
            )
    for section, metric in (
        ("gcln", "vectorized_epochs_per_sec"),
        ("replay", "fused_epochs_per_sec"),
    ):
        if section not in baseline or section not in current:
            continue  # record from before this section existed
        base = baseline[section][metric]
        cur = current[section][metric]
        if cur < base / MAX_REGRESSION:
            failures.append(
                f"{section}.{metric} regressed >{MAX_REGRESSION}x: "
                f"{cur:.0f} ep/s vs baseline {base:.0f} ep/s"
            )
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        current = json.load(handle)
    with open(argv[2], encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = check(current, baseline)
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        print(
            "perf gate ok: "
            f"gcln {current['gcln']['speedup']:.1f}x, "
            f"replay {current['replay']['speedup']:.1f}x, "
            f"end-to-end {current['end_to_end']['speedup']:.1f}x, "
            f"serve memo {current['serve']['memo_speedup']:.0f}x"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
