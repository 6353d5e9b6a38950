"""The checked-in solved sets and the comparer CI runs against them."""

import importlib.util
import json
from pathlib import Path

from repro.bench import suite_problems

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPECTED = REPO_ROOT / "benchmarks" / "expected_solved.json"


def load_comparer():
    path = REPO_ROOT / "benchmarks" / "compare_solved.py"
    spec = importlib.util.spec_from_file_location("compare_solved", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expected_sets_name_suite_problems():
    expected = json.loads(EXPECTED.read_text())
    assert set(expected) == {"nla", "code2inv"}
    for suite, by_solver in expected.items():
        names = {p.name for p in suite_problems(suite)}
        for solver, solved in by_solver.items():
            assert len(solved) == len(set(solved)), (suite, solver)
            assert set(solved) <= names, (suite, solver)
    assert len(expected["nla"]["gcln"]) == 11
    assert len(expected["code2inv"]["gcln"]) == 111


def _payload(suite, solved, unsolved=()):
    records = [{"name": n, "solved": True} for n in solved]
    records += [{"name": n, "solved": False} for n in unsolved]
    return {"suite": suite, "solver": "gcln", "records": records}


def test_comparer_fails_on_a_dropped_problem_and_reports_new_ones(
    tmp_path, capsys
):
    comparer = load_comparer()
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"nla": {"gcln": ["ps2", "geo1"]}}))
    run = tmp_path / "run.json"

    run.write_text(json.dumps(_payload("nla", ["ps2", "geo1", "ps3"])))
    assert comparer.main([str(expected), str(run)]) == 0
    assert "newly solved" in capsys.readouterr().out

    # Unsolved, or left out of the run: both drop the expected problem.
    for payload in (_payload("nla", ["ps2"], ["geo1"]), _payload("nla", ["ps2"])):
        run.write_text(json.dumps(payload))
        assert comparer.main([str(expected), str(run)]) == 1
        assert "expected but not solved: geo1" in capsys.readouterr().out

    # A suite with no expected set cannot pass silently.
    run.write_text(json.dumps(_payload("code2inv", ["c2i_pair_0"])))
    assert comparer.main([str(expected), str(run)]) == 1
