"""Run one geoposet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, and the run fails without printing a result when that is missing.
The process is a closed loop with one caller, library ``workers=1`` and a
private ``GEOPOSET_CACHE_DIR`` under ``.bench_build/`` that is removed on
exit.  Ops repeat in whole passes over the workload's inputs until
``--seconds`` of op time has accumulated; outputs are checked after the
timed phase.  ``setup_s`` is the median, over several fresh processes
(``--setup-probe``), of the time from spawning the process to the point
where it is ready for its first op.  Both ``setup_s`` and ``ops_per_s``
are scaled to a reference machine speed, measured with a fixed kernel
during the run (see ``speed.py``); the record keeps the unscaled figures.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` every op runs twice, once untraced and once with span
wrappers installed, in alternating order, and the last line carries the
per-layer metrics and the tracing overhead.  The line before it,
``RECORD {...}``, holds every metric with its sample count plus the run's
provenance.  The exit code is non-zero when any op raised or failed its
check.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("enumerate", "poset", "classify", "cache")
# Set-up probes: at least this many fresh processes, and more, up to the
# maximum, until their set-up time adds up to a fifth of --seconds.
SETUP_PROBES = 3
SETUP_PROBES_MAX = 50
# Kernel samples taken just before and just after each probe.
EDGE_SAMPLES = 5
TAIL_BEYOND = 10
# The end-to-end metrics on every workload's last line.  Medians of short
# ops (wall_s, op_p50_ms on classify) jump between the host's fast and slow
# phases, so the gated latency figure is the mean-based ops_per_s.
GATED = ("setup_s", "ops_per_s", "peak_rss_mb")
UNITS = {
    "setup_s": "s",
    "setup_s_unscaled": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "ops_per_s_unscaled": "1/s",
    "speed_scale": "ratio",
    "op_tail_ms": "ms",
    "load_s": "s",
    "save_s": "s",
    "cache_bytes": "bytes",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}


def tail(latencies: list[float]) -> "tuple[int, float] | None":
    """The highest whole percentile with at least TAIL_BEYOND samples
    above its nearest-rank value, and that value; None for too few samples."""
    count = len(latencies)
    if count <= TAIL_BEYOND:
        return None
    pct = 100 * (count - TAIL_BEYOND) // count
    rank = -(-pct * count // 100)
    return pct, sorted(latencies)[rank - 1]


class Phase:
    """Latencies, units of work, output summaries and failures of a phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.units = 0
        self.summaries: list = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class SetupProbes:
    """Set-up times of fresh processes, each from its spawn to the point
    where it would start its first op (see ``--setup-probe``): unscaled
    in ``times``, and in ``scaled`` at the reference speed.  The scale of a
    probe comes from kernel samples taken just before and just after it,
    and inside it while it sets up.

    The machine's CPU speed drifts in phases from a second to minutes
    long, so the probes are spread evenly over the timed phase rather than
    taken in one block: ``due`` runs the probes whose turn has come, given
    the share of the op budget spent so far.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
        ]
        if args.smoke:
            self.argv.append("--smoke")
        self.times: list[float] = []
        self.scaled: list[float] = []
        first = self.take()
        self.count = min(max(math.ceil(args.seconds / 5 / first), SETUP_PROBES), SETUP_PROBES_MAX)

    def take(self) -> float:
        kernel_s = [speed.time_kernel() for _ in range(EDGE_SAMPLES)]
        start = time.monotonic()
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        probe = json.loads(done.stdout.splitlines()[-1])
        kernel_s += probe["kernel_s"] + [speed.time_kernel() for _ in range(EDGE_SAMPLES)]
        self.times.append(probe["ready"] - probe["paused_s"] - start)
        self.scaled.append(self.times[-1] * speed.scale(kernel_s))
        return self.times[-1]

    def due(self, share: float, sampler=None) -> None:
        """Take the probes now due, with the sampler (if any) stopped."""
        while len(self.times) < min(self.count, 1 + share * (self.count - 1)):
            if sampler is not None:
                sampler.stop()
            try:
                self.take()
            finally:
                if sampler is not None:
                    sampler.start()


def run_op(workload, item, phase: Phase, tracer=None, totals=None, sampler=None) -> float:
    """Time one op into phase, less the kernel samples a sampler took
    inside it; with a tracer, fold its spans into totals."""
    if tracer is not None:
        tracer.op += 1
    start = time.perf_counter()
    try:
        result = workload.run(item)
    except Exception:
        result = None
        phase.failures.append(traceback.format_exc(limit=3))
    end = time.perf_counter()
    elapsed = end - start
    if sampler is not None:
        elapsed -= sampler.paused(start, end)
    if totals is not None:
        totals.absorb(tracer)
    phase.latencies.append(elapsed)
    phase.units += workload.units(item)
    if result is not None:
        phase.summaries.append((item, workload.summarize(item, result)))
    return elapsed


def measure(
    workload, budget_s: float, probes: SetupProbes, tracer=None, totals=None, sampler=None
) -> "tuple[Phase, Phase | None]":
    """Run whole passes over the workload's items until budget_s of op time
    has been spent, taking set-up probes as they fall due between ops.
    An untraced run passes a sampler, which runs throughout but for probes.

    With a tracer, each item runs untraced and then traced, or the other
    way round on every other item, so both sides sample the same stretches
    of host time.  Installing and removing the wrappers is not timed, and
    removing them checks that every untraced op ran on the original names.
    """
    plain = Phase()
    traced = None if tracer is None else Phase()
    items = workload.items()
    spent = 0.0
    if sampler is not None:
        sampler.start()
    try:
        while spent < budget_s or not plain.latencies:
            for item in items:
                traced_first = traced is not None and len(plain.latencies) % 2 == 1
                if not traced_first:
                    spent += run_op(workload, item, plain, sampler=sampler)
                if traced is not None:
                    tracer.install()
                    try:
                        spent += run_op(workload, item, traced, tracer, totals)
                    finally:
                        tracer.uninstall()
                if traced_first:
                    spent += run_op(workload, item, plain)
                probes.due(spent / budget_s, sampler)
    finally:
        if sampler is not None:
            sampler.stop()
    probes.due(1.0)
    return plain, traced


def check(workload, phase: Phase) -> None:
    """Check every output of a phase; run with no wrapper installed."""
    for item, summary in phase.summaries:
        reason = workload.check(item, summary)
        if reason is not None:
            phase.failures.append(reason)


def end_to_end(name: str, phase: Phase, probes: SetupProbes, sampler=None) -> dict:
    """Every end-to-end metric of a phase, with its unit and sample count.
    Without a sampler (traced runs) ops_per_s is left unscaled."""
    lat = phase.latencies
    wall = statistics.median(lat)
    ops_per_s = phase.units / sum(lat)
    scale = 1.0 if sampler is None else speed.scale(sampler.samples)
    m = {
        "setup_s": (statistics.median(probes.scaled), len(probes.scaled)),
        "setup_s_unscaled": (statistics.median(probes.times), len(probes.times)),
        "wall_s": (wall, len(lat)),
        "op_p50_ms": (wall * 1000, len(lat)),
        "ops_per_s": (ops_per_s / scale, len(lat)),
        "ops_per_s_unscaled": (ops_per_s, len(lat)),
        "speed_scale": (scale, 0 if sampler is None else len(sampler.samples)),
    }
    if name == "classify":
        found = tail(lat)
        if found is not None:
            m["op_tail_ms"] = (found[1] * 1000, len(lat))
    checked = [s for _, s in phase.summaries]
    if name == "cache" and checked:
        m["load_s"] = (statistics.median(s["load_s"] for s in checked), len(checked))
        m["save_s"] = (statistics.median(s["save_s"] for s in checked), len(checked))
        m["cache_bytes"] = (max(s["cache_bytes"] for s in checked), len(checked))
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    m["fail_ratio"] = (len(phase.failures) / phase.attempted, phase.attempted)
    return {k: {"value": v, "unit": UNITS[k], "samples": n} for k, (v, n) in m.items()}


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD's commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def prepare(args: argparse.Namespace):
    """Everything a run does before its first op: imports and set-up."""
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.smoke)
    workload.setup(args.seed)
    tracer = spans.Tracer()
    tracer.assert_pristine()
    return spans, workload, tracer


def run(args: argparse.Namespace) -> int:
    spans, workload, tracer = prepare(args)
    probes = SetupProbes(args)

    if args.trace:
        totals = spans.LayerTotals()
        plain, traced = measure(workload, args.seconds, probes, tracer, totals)
        check(workload, plain)
        check(workload, traced)
        phases = (plain, traced)
        metrics = end_to_end(args.workload, plain, probes)
        layer = totals.metrics()
        # Each op ran on both sides, so compare them op by op: a median of
        # each side alone can land on different words of classify's pass.
        pairs = zip(plain.latencies, traced.latencies)
        layer["trace.overhead_ratio"] = statistics.median(t / p for p, t in pairs) - 1
        for name, value in layer.items():
            unit = "count" if name.endswith(".calls") else "s" if name.endswith("_s") else "ratio"
            metrics[name] = {"value": value, "unit": unit, "samples": totals.ops}
        reported = spans.layer_metric_names()
    else:
        sampler = speed.Sampler()
        phase, _ = measure(workload, args.seconds, probes, sampler=sampler)
        tracer.assert_pristine()
        check(workload, phase)
        phases = (phase,)
        metrics = end_to_end(args.workload, phase, probes, sampler)
        reported = GATED

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "unit_of_work": workload.unit,
        **provenance(args.seed),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "samples_per_side": [p.attempted for p in phases],
        "setup_probes_s": probes.times,
        "setup_probes_scaled_s": probes.scaled,
        "latencies": phases[0].latencies,
    }
    if "op_tail_ms" in metrics:
        record["op_tail_percentile"] = tail(phases[0].latencies)[0]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"unit of work: {workload.unit}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("RECORD " + json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in reported},
    }))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="sizes n <= 5, for the benchmark's own test")
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up only, then print the monotonic clock, the kernel samples and their "
        "time, and exit (used for setup_s)",
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "geoposet" / "__init__.py").is_file():
        print(f"error: no geoposet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="geoposet-cache-", dir=build)
    os.environ["GEOPOSET_CACHE_DIR"] = cache
    try:
        if args.setup_probe:
            sampler = speed.Sampler()
            sampler.start()
            prepare(args)
            sampler.stop()
            ready = time.monotonic()
            print(json.dumps({"ready": ready, "paused_s": sampler.paused(), "kernel_s": sampler.samples}))
            return 0
        return run(args)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
