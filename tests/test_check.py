import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check.py"
spec = importlib.util.spec_from_file_location("check", TOOL)
check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check)

N9_ORDER = "tests/test_poset.py::test_n9_order_is_bounded_and_not_graded"
BENCH_SMOKE = "perfbench/test_perfbench.py::test_every_metric_present_and_nothing_fails"


def collected(*options: str) -> list[str]:
    """The node ids a ``pytest --collect-only -q`` run lists from the root."""
    passed, output = check.run_step([sys.executable, "-m", "pytest", "--collect-only", "-q", *options])
    assert passed, output
    return [line for line in output.splitlines() if "::" in line]


@pytest.fixture(scope="module")
def plain() -> list[str]:
    return collected()


def test_steps_are_the_two_standing_checks():
    assert check.STEPS == [
        ("tier 1", [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]),
        ("long", [sys.executable, "-m", "pytest", "-q", "-m", "long"]),
    ]


def test_no_environment_switch_is_left():
    root = check.ROOT
    files = [root / "pyproject.toml", *(root / "tests").rglob("*.py"), *(root / "tools").rglob("*.py")]
    switch = "GEOPOSET_" + "ACCEPT_"  # split, so this file does not name it
    assert [str(f.relative_to(root)) for f in files if switch in f.read_text()] == []
    assert not (root / "tests" / "conftest.py").exists()


def test_the_long_marker_selects_the_n9_order(plain):
    assert N9_ORDER in collected("-m", "long")
    assert N9_ORDER not in plain


def test_tier_1_runs_the_benchmark_smoke(plain):
    # the premise for having no separate bench-smoke step
    assert BENCH_SMOKE in plain


def test_one_line_per_step_and_a_failing_exit(monkeypatch, capsys):
    monkeypatch.setattr(
        check,
        "STEPS",
        [
            ("ok", [sys.executable, "-c", "print('quiet')"]),
            ("bad", [sys.executable, "-c", "import sys; print('why'); sys.exit(3)"]),
        ],
    )
    assert check.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["PASS", "ok"], ["FAIL", "bad"], ["why"]]


def test_all_passing_exits_zero_and_options_are_refused(monkeypatch, capsys):
    monkeypatch.setattr(check, "STEPS", [("ok", [sys.executable, "-c", "pass"])])
    assert check.main([]) == 0
    assert check.main(["--fast"]) == 2
    assert "takes no options" in capsys.readouterr().err
