"""Run every workload in its own process, untraced and traced, and report.

    python3 perfbench/suite.py --seed 1 --seconds 15 [--out perfbench/results/BENCH_x.json]
    python3 perfbench/suite.py --smoke --seconds 0.3

For each workload this runs ``run.py --trace 0`` (the end-to-end metrics)
and then ``run.py --trace 1`` (the per-layer metrics and the tracing
overhead), one fresh process at a time, and prints every metric with its
unit and sample count.  Per-layer metrics are listed under the workloads
that exercise them, with the end-to-end metric each should move.  The exit
code is non-zero when any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402
from spans import LAYERS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple[int, dict]:
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent, timeout=900)
    sys.stderr.write(done.stderr)
    records = [line[len("RECORD "):] for line in done.stdout.splitlines() if line.startswith("RECORD ")]
    if not records:
        raise SystemExit(f"{workload} (trace {trace}) printed no record; exit {done.returncode}")
    return done.returncode, json.loads(records[-1])


def layer_of(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--smoke", action="store_true", help="sizes n <= 5, for the benchmark's own test")
    parser.add_argument("--out", type=Path, help="write every record to this JSON file")
    args = parser.parse_args(argv)

    status = 0
    result: dict = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    for workload in WORKLOAD_NAMES:
        code0, plain = run_one(workload, args.seed, args.seconds, 0, args.smoke)
        code1, traced = run_one(workload, args.seed, args.seconds, 1, args.smoke)
        status = status or code0 or code1
        result["workloads"][workload] = {"untraced": plain, "traced": traced}

        print(f"== {workload}  ({plain['unit_of_work']}; seed {plain['seed']}, "
              f"commit {plain['git_commit'][:12]}, python {plain['python']}, "
              f"nproc {plain['nproc']}, {plain['cpu_model']})")
        for name, m in plain["metrics"].items():
            note = f"  p{plain['op_tail_percentile']}" if name == "op_tail_ms" else ""
            print(f"  {name:38s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}{note}")
        print(f"  attempted {plain['attempted']}, failed {plain['failed']}")
        print("  -- traced run: per-layer metrics, per op")
        for name, m in traced["metrics"].items():
            layer = LAYERS.get(layer_of(name))
            if layer is None and name != "trace.overhead_ratio":
                continue
            if layer is not None and traced["metrics"][f"{layer_of(name)}.self_s"]["value"] == 0:
                continue
            moves = f"  -> {', '.join(layer.moves)}" if layer is not None else ""
            print(f"  {name:38s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}{moves}")
        for record in (plain, traced):
            for failure in record["failures"]:
                print(f"  FAILED ({workload}, trace {record['trace']}): {failure}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
