"""Gate run-all solved sets against the checked-in expected sets.

    python benchmarks/compare_solved.py benchmarks/expected_solved.json RUN.json [RUN.json ...]

Each ``RUN.json`` is a ``python -m repro run-all --json`` payload.  Its
``suite`` and ``solver`` select the expected list in
``expected_solved.json``, laid out as ``{suite: {solver: [names]}}``.
The comparer exits 1 when an expected problem is not solved in its run
(a problem the run left out counts as unsolved), and prints the
problems solved beyond the expected set: a change that moves a solved
set updates the file in the same commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def compare(expected: dict, payload: dict) -> tuple[list[str], list[str]]:
    """The (dropped, newly solved) problem names of one run-all payload."""
    want = set(expected[payload["suite"]][payload["solver"]])
    solved = {record["name"] for record in payload["records"] if record["solved"]}
    return sorted(want - solved), sorted(solved - want)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("expected", help="expected_solved.json")
    parser.add_argument("runs", nargs="+", help="run-all --json payloads")
    args = parser.parse_args(argv)
    expected = json.loads(Path(args.expected).read_text())
    failed = False
    for run in args.runs:
        payload = json.loads(Path(run).read_text())
        label = f"{payload['suite']}/{payload['solver']}"
        if payload["solver"] not in expected.get(payload["suite"], {}):
            print(f"{label}: no expected set in {args.expected}")
            failed = True
            continue
        dropped, new = compare(expected, payload)
        if new:
            print(f"{label}: newly solved, add to {args.expected}: {' '.join(new)}")
        if dropped:
            print(f"{label}: expected but not solved: {' '.join(dropped)}")
            failed = True
        else:
            solved = sum(record["solved"] for record in payload["records"])
            print(f"{label}: every expected problem solved ({solved} solved)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
