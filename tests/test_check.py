import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check.py"
spec = importlib.util.spec_from_file_location("check", TOOL)
check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check)


def test_steps_are_the_three_standing_checks():
    assert [name for name, _, _ in check.STEPS] == ["tier 1", "long", "bench smoke"]
    _, long_argv, long_env = check.STEPS[1]
    assert long_env == {"GEOPOSET_ACCEPT_LONG": "1"}
    assert all((check.ROOT / path).is_file() for path in check.LONG_TESTS)
    assert (check.ROOT / check.STEPS[2][1][1]).is_file()


def test_the_long_step_runs_every_test_file_that_reads_the_long_flag():
    (flag,) = check.STEPS[1][2]
    reads_flag = {
        f"tests/{path.name}"
        for path in (check.ROOT / "tests").glob("*.py")
        if f'environ.get("{flag}")' in path.read_text()
    }
    assert reads_flag and reads_flag <= set(check.LONG_TESTS)


def test_one_line_per_step_and_a_failing_exit(monkeypatch, capsys):
    monkeypatch.setattr(
        check,
        "STEPS",
        [
            ("ok", [sys.executable, "-c", "print('quiet')"], {}),
            ("env", [sys.executable, "-c", "import os, sys; sys.exit(os.environ['X'] != '1')"], {"X": "1"}),
            ("bad", [sys.executable, "-c", "import sys; print('why'); sys.exit(3)"], {}),
        ],
    )
    assert check.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["PASS", "ok"], ["PASS", "env"], ["FAIL", "bad"], ["why"]]


def test_all_passing_exits_zero_and_options_are_refused(monkeypatch, capsys):
    monkeypatch.setattr(check, "STEPS", [("ok", [sys.executable, "-c", "pass"], {})])
    assert check.main([]) == 0
    assert check.main(["--fast"]) == 2
    assert "takes no options" in capsys.readouterr().err
