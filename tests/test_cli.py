"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_assignment, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sqrt1" in out and "ps6" in out and "knuth" in out


def test_trace_command(capsys):
    assert main(["trace", "ps2", "--inputs", "k=4"]) == 0
    out = capsys.readouterr().out
    assert "loop" in out and "iter" in out
    # 4 passing guard tests + exit snapshot.
    assert len(out.strip().splitlines()) >= 6


def test_trace_assume_violation(capsys):
    assert main(["trace", "ps2", "--inputs", "k=-3"]) == 1
    assert "assume violated" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "profile", "record", "trace"])
def test_unknown_problem_is_one_line_exit(command):
    """A library error exits with its message, not a traceback."""
    with pytest.raises(SystemExit, match="nosuch"):
        main([command, "nosuch"])


def test_parse_assignment():
    parsed = _parse_assignment(["k=5", "r=3/2"])
    assert parsed["k"] == 5
    from fractions import Fraction

    assert parsed["r"] == Fraction(3, 2)


def test_parse_assignment_errors():
    with pytest.raises(SystemExit):
        _parse_assignment(["k"])
    with pytest.raises(SystemExit):
        _parse_assignment(["k=abc"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.slow
def test_run_command(capsys):
    code = main(["run", "ps2", "--epochs", "1200"])
    out = capsys.readouterr().out
    assert "invariant:" in out
    assert code in (0, 1)


def test_solvers_command(capsys):
    assert main(["solvers"]) == 0
    out = capsys.readouterr().out
    for name in ("gcln", "guess_and_check", "octahedral", "numinv"):
        assert name in out


def test_run_rejects_unknown_solver(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "ps2", "--solver", "nosuch"])
    # The error names the typo and lists the registered solvers.
    message = str(excinfo.value)
    assert "nosuch" in message and "gcln" in message


def test_run_all_rejects_unknown_solver():
    with pytest.raises(SystemExit) as excinfo:
        main(["run-all", "--solver", "nosuch", "--problems", "ps2"])
    assert "nosuch" in str(excinfo.value)


def test_run_baseline_solver_with_events(capsys, tmp_path):
    """A registered baseline runs through the CLI and streams events."""
    import json

    out_path = tmp_path / "result.json"
    code = main(
        [
            "run",
            "ps2",
            "--solver",
            "numinv",
            "--events",
            "--json",
            str(out_path),
        ]
    )
    assert code == 0  # numinv solves ps2 (equalities + octahedral bound)
    out = capsys.readouterr().out
    assert "solver:   numinv" in out
    assert "[event] stage_timed" in out
    assert "[event] problem_solved" in out
    payload = json.loads(out_path.read_text())
    assert payload["solver"] == "numinv"
    assert payload["solved"] is True
    assert set(payload["stage_timings"]) == {"collect", "train", "extract", "check"}


def test_run_all_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["run-all", "--suite", "nosuch"])


def test_run_all_rejects_unknown_problem():
    with pytest.raises(SystemExit):
        main(["run-all", "--problems", "nosuch_problem"])


@pytest.mark.slow
def test_run_all_command_with_json(capsys, tmp_path):
    import json

    out_path = tmp_path / "records.json"
    code = main(
        [
            "run-all",
            "--suite",
            "stability",
            "--problems",
            "conj_eq",
            "--epochs",
            "400",
            "--jobs",
            "1",
            "--json",
            str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert "run-all" in out and "conj_eq" in out
    assert code in (0, 1)
    payload = json.loads(out_path.read_text())
    assert payload["suite"] == "stability"
    assert payload["summary"]["problems"] == 1
    assert payload["records"][0]["name"] == "conj_eq"
    assert payload["records"][0]["status"] == "ok"


@pytest.mark.slow
def test_run_json_output(capsys, tmp_path):
    import json

    out_path = tmp_path / "result.json"
    code = main(["run", "ps2", "--epochs", "600", "--json", str(out_path)])
    assert code in (0, 1)
    payload = json.loads(out_path.read_text())
    assert payload["problem"] == "ps2"
    assert isinstance(payload["solved"], bool)
    assert payload["loops"] and "invariant" in payload["loops"][0]


@pytest.mark.slow
def test_profile_command(capsys):
    code = main(["profile", "ps2", "--epochs", "120"])
    out = capsys.readouterr().out
    assert code == 0
    for stage in ("collect", "train", "extract", "check"):
        assert stage in out
    assert "TOTAL" in out
    assert "trace_hits" in out
    assert "replay:" not in out
    assert "backend" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "ps2", "--warm-start"],
        ["run-all", "--tape-pool-size", "0"],
        ["profile", "ps2", "--backend", "auto"],
        ["run", "ps2", "--backend", "fused"],
        ["run-all", "--backend", "numpy"],
        ["serve", "--backend", "fused"],
        ["run-all", "--min-workers", "2"],
        ["run-all", "--max-workers", "2"],
    ],
)
def test_removed_options_no_longer_parse(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_serve_timeout_needs_queue_dir(monkeypatch, tmp_path):
    """In-process serving enforces no budget, so ``serve --timeout``
    without ``--queue-dir`` is refused before the server starts."""
    import repro.serve

    started = []
    monkeypatch.setattr(repro.serve, "serve_main", lambda args: started.append(args) or 0)
    with pytest.raises(SystemExit, match="--timeout needs --queue-dir"):
        main(["serve", "--timeout", "120"])
    assert not started
    assert main(["serve", "--timeout", "120", "--queue-dir", str(tmp_path / "q")]) == 0
    assert started[0].timeout == 120


def test_serve_queue_wait_needs_queue_dir(monkeypatch, tmp_path):
    """``--queue-wait`` bounds the wait for a queue worker, so without
    ``--queue-dir`` it is refused before the server starts."""
    import repro.serve

    started = []
    monkeypatch.setattr(repro.serve, "serve_main", lambda args: started.append(args) or 0)
    with pytest.raises(SystemExit, match="--queue-wait needs --queue-dir"):
        main(["serve", "--queue-wait", "5"])
    assert not started
    assert main(["serve", "--queue-wait", "5", "--queue-dir", str(tmp_path / "q")]) == 0
    assert started[0].queue_wait == 5


def test_cross_batch_option_removed(capsys, tmp_path):
    """``--cross-batch`` is an argparse error on run-all and enqueue."""
    for argv in (
        ["run-all", "--cross-batch", "2"],
        ["enqueue", "--queue-dir", str(tmp_path / "q"), "--cross-batch", "2"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --cross-batch 2" in capsys.readouterr().err
    assert not (tmp_path / "q").exists()


def test_run_all_refuses_unenforceable_timeout(monkeypatch):
    """Without SIGALRM ``--timeout`` is refused with one line before
    any solve, instead of running without a budget."""
    import signal

    from repro.api import InvariantService

    def solve(*_args, **_kwargs):
        raise AssertionError("nothing may be solved")

    monkeypatch.delattr(signal, "SIGALRM")
    monkeypatch.setattr(InvariantService, "solve", solve)
    with pytest.raises(SystemExit, match="no SIGALRM"):
        main(
            [
                "run-all",
                "--suite",
                "stability",
                "--problems",
                "conj_eq",
                "--timeout",
                "600",
            ]
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["--jobs", "0"],
        ["--timeout", "0"],
        ["--timeout", "-1"],
        ["--jobs", "soon"],
        ["--epochs", "0"],
    ],
)
def test_run_all_flag_values_are_argparse_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run-all", *argv])
    assert excinfo.value.code == 2
    assert f"argument {argv[0]}:" in capsys.readouterr().err
