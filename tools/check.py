"""Run the repository's three standing checks and report each in one line.

    python tools/check.py

1. tier 1: the whole test suite, ``pytest -q --continue-on-collection-errors``;
2. long: every test marked ``long`` (the cases that take seconds or more),
   ``pytest -q -m long`` with ``GEOPOSET_ACCEPT_LONG=1``;
3. bench smoke: ``perfbench/suite.py --smoke --seconds 0.3``.

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
# (name, argv, extra environment)
STEPS = [
    ("tier 1", [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"], {}),
    ("long", [sys.executable, "-m", "pytest", "-q", "-m", "long"], {"GEOPOSET_ACCEPT_LONG": "1"}),
    ("bench smoke", [sys.executable, "perfbench/suite.py", "--smoke", "--seconds", "0.3"], {}),
]
TAIL = 20  # output lines shown under a failing step


def run_step(argv: list[str], extra: dict[str, str]) -> tuple[bool, str]:
    """Run one step from the repository root; (passed, combined output)."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    return done.returncode == 0, done.stdout


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = 0
    for name, step, extra in STEPS:
        start = time.perf_counter()
        passed, output = run_step(step, extra)
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({time.perf_counter() - start:.0f} s)")
        if not passed:
            failed += 1
            for line in output.splitlines()[-TAIL:]:
                print(f"    {line}")
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
