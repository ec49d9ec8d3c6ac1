"""Guards of the two standing checks, ``pytest`` and ``pytest -m long``:
``pyproject.toml`` alone decides what each one runs."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
N9_ORDER = "tests/test_poset.py::test_n9_order_is_bounded_and_not_graded"
BENCH_SMOKE = "perfbench/test_perfbench.py::test_every_metric_present_and_nothing_fails"


def collected(*options: str) -> list[str]:
    """The node ids a ``pytest --collect-only -q`` run lists from the root."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", *options],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert done.returncode == 0, done.stdout
    return [line for line in done.stdout.splitlines() if "::" in line]


@pytest.fixture(scope="module")
def plain() -> list[str]:
    return collected()


def test_no_environment_switch_is_left():
    files = [ROOT / "pyproject.toml", *(ROOT / "tests").rglob("*.py"), *(ROOT / "tools").rglob("*.py")]
    switch = "GEOPOSET_" + "ACCEPT_"  # split, so this file does not name it
    assert [str(f.relative_to(ROOT)) for f in files if switch in f.read_text()] == []
    assert not (ROOT / "tests" / "conftest.py").exists()


def test_the_long_marker_selects_the_n9_order(plain):
    assert N9_ORDER in collected("-m", "long")
    assert N9_ORDER not in plain


def test_tier_1_runs_the_benchmark_smoke(plain):
    # the premise for having no separate bench-smoke step
    assert BENCH_SMOKE in plain
