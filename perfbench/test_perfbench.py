"""Smoke test of the benchmark at n <= 5: every named metric is reported,
no op fails, traced call counts repeat, and the untraced path wraps nothing."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "suite.py"), "--smoke", "--seed", "7", "--seconds", "0.1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())["workloads"]


def test_benchmark_json_names_the_reported_metrics():
    assert {m["name"] for m in BENCH["end_to_end"]} == set(run.GATED)
    assert [m["name"] for m in BENCH["per_layer"]] == spans.layer_metric_names()
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)


def test_every_metric_present_and_nothing_fails(suite):
    assert set(suite) == set(run.WORKLOAD_NAMES)
    for workload, records in suite.items():
        plain, traced = records["untraced"], records["traced"]
        for record in (plain, traced):
            assert record["failed"] == 0, record["failures"]
            assert record["metrics"]["fail_ratio"]["value"] == 0
        assert set(run.GATED) <= set(plain["metrics"])
        assert set(spans.layer_metric_names()) <= set(traced["metrics"])
        untraced_ops, traced_ops = traced["samples_per_side"]
        assert untraced_ops == traced_ops >= 1
        assert plain["metrics"]["setup_s"]["samples"] >= run.SETUP_PROBES
        assert plain["metrics"]["speed_scale"]["samples"] >= 1
        assert {"ops_per_s_unscaled", "setup_s_unscaled"} <= set(plain["metrics"])
        for key in ("seed", "python", "nproc", "cpu_model", "git_commit"):
            assert plain[key] is not None
    classify = suite["classify"]["untraced"]
    tail_ms = classify["metrics"]["op_tail_ms"]["value"]
    assert sum(x * 1000 > tail_ms for x in classify["latencies"]) >= run.TAIL_BEYOND
    assert 0 < classify["op_tail_percentile"] < 100
    assert {"load_s", "save_s", "cache_bytes"} <= set(suite["cache"]["untraced"]["metrics"])


def test_last_line_is_the_result():
    done = _run("cache", 1)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == spans.layer_metric_names()


def test_traced_call_counts_repeat(suite):
    done = _run("classify", 1)
    assert done.returncode == 0, done.stderr
    again = json.loads(done.stdout.splitlines()[-1])["metrics"]
    first = suite["classify"]["traced"]["metrics"]
    calls = [name for name in spans.layer_metric_names() if name.endswith(".calls")]
    assert {n: again[n]["value"] for n in calls} == {n: first[n]["value"] for n in calls}
    assert first["geoequiv.members.calls"]["value"] == 1


def test_tracer_wraps_only_while_installed():
    import geoposet.poset

    original = geoposet.poset.spanning_embeds
    tracer = spans.Tracer()
    tracer.assert_pristine()
    tracer.install()
    try:
        assert geoposet.poset.spanning_embeds is not original
        with pytest.raises(AssertionError):
            tracer.assert_pristine()
    finally:
        tracer.uninstall()
    assert geoposet.poset.spanning_embeds is original
    tracer.assert_pristine()


def test_sampler_time_is_taken_out_of_ops():
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.5:
        pass
    end = time.perf_counter()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(sampler.samples) == len(sampler.intervals) >= 2
    assert 0 < sampler.paused(start, end) < sampler.paused() < end - start + 0.1


def test_scale_leaves_out_paused_samples():
    ref = speed.REF_KERNEL_S
    assert speed.scale([ref] * 9 + [50 * ref]) == 1.0
    assert speed.scale([2 * ref] * 10) == 0.5


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("enumerate", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
