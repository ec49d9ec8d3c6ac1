"""Run the repository's two standing checks and report each in one line.

    python tools/check.py

1. tier 1: the whole test suite but the ``long`` tests,
   ``pytest -q --continue-on-collection-errors`` (``pyproject.toml`` adds
   ``-m 'not long'``); it also runs the benchmark's smoke tests in
   ``perfbench/test_perfbench.py``;
2. long: every test marked ``long`` (the cases that take seconds or more),
   ``pytest -q -m long``.

Each step runs from the repository root with ``src`` on ``PYTHONPATH``.
It prints ``PASS`` or ``FAIL``, the step and its wall time; a failing
step's last output lines follow its line.  The exit status is 1 when any
step failed, else 0.  It takes no options.  Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (name, argv)
STEPS = [
    ("tier 1", [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]),
    ("long", [sys.executable, "-m", "pytest", "-q", "-m", "long"]),
]
TAIL = 20  # output lines shown under a failing step


def run_step(argv: list[str]) -> tuple[bool, str]:
    """Run one step from the repository root; (passed, combined output)."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        argv,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return done.returncode == 0, done.stdout


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = 0
    for name, step in STEPS:
        start = time.perf_counter()
        passed, output = run_step(step)
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({time.perf_counter() - start:.0f} s)")
        if not passed:
            failed += 1
            for line in output.splitlines()[-TAIL:]:
                print(f"    {line}")
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
