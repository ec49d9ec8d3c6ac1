import errno
import io
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from geoposet.cli import load_cached_table, main, save_cached_table
from geoposet.geoequiv import enumerate_classes


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOPOSET_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_table_row_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "5", "--format", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 39 + 1  # header, data, total
    assert lines[-1] == "total classes: 39"


def test_enumerate_single_class(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1 and obj["classes"][0]["members"] == ["1"]


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "label,inversions,size,representative,members"


def test_enumerate_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "enumerate", "12")
    assert code == 2 and "error" in err


def test_enumerate_gates_long_runs(capsys):
    code, _, err = run_cli(capsys, "enumerate", "8")
    assert code == 2 and "--allow-long" in err


def test_enumerate_output_identical_with_and_without_cache(capsys):
    code1, out1, _ = run_cli(capsys, "enumerate", "4", "--format", "json")
    code2, out2, _ = run_cli(capsys, "enumerate", "4", "--format", "json")  # cache hit
    code3, out3, _ = run_cli(capsys, "enumerate", "4", "--format", "json", "--no-cache")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3


# ---------------------------------------------------------------------------
# cache layer


def test_cache_round_trip():
    table = enumerate_classes(4)
    save_cached_table(table)
    loaded = load_cached_table(4)
    assert loaded is not None
    assert loaded.to_json() == table.to_json()
    assert [c.key for c in loaded.classes] == [c.key for c in table.classes]


def test_cache_digest_mismatch_forces_recompute(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOPOSET_CACHE_DIR", str(tmp_path / "c2"))
    table = enumerate_classes(3)
    save_cached_table(table)
    from geoposet.cli import _cache_path

    path = _cache_path(3)
    entry = json.loads(path.read_text())
    entry["table"]["classes"][0]["members"] = ["321"]
    path.write_text(json.dumps(entry))
    assert load_cached_table(3) is None


def test_cache_schema_mismatch_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOPOSET_CACHE_DIR", str(tmp_path / "c4"))
    save_cached_table(enumerate_classes(3))
    from geoposet.cli import CACHE_SCHEMA_VERSION, _cache_path

    path = _cache_path(3)
    entry = json.loads(path.read_text())
    entry["schema_version"] = CACHE_SCHEMA_VERSION + 1  # the digest stays intact
    path.write_text(json.dumps(entry))
    assert load_cached_table(3) is None


def test_cache_garbage_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOPOSET_CACHE_DIR", str(tmp_path / "c3"))
    from geoposet.cli import _cache_path

    path = _cache_path(3)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert load_cached_table(3) is None


def test_cache_entry_nested_too_deep_to_parse_is_a_miss(capsys):
    from geoposet.cli import _cache_path

    path = _cache_path(3)
    path.parent.mkdir(parents=True)
    path.write_text("[" * 200_000)  # json.loads raises RecursionError
    assert load_cached_table(3) is None
    code1, out1, _ = run_cli(capsys, "enumerate", "3")
    code2, out2, _ = run_cli(capsys, "enumerate", "3", "--no-cache")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cache_entry_that_is_not_an_object_is_a_miss(capsys):
    from geoposet.cli import _cache_path

    path = _cache_path(4)
    path.parent.mkdir(parents=True)
    path.write_text("[]")
    assert load_cached_table(4) is None
    code, out, _ = run_cli(capsys, "enumerate", "4")
    assert code == 0 and out.endswith("total classes: 12\n")


def test_cache_entry_of_another_n_is_a_miss(capsys):
    from geoposet.cli import _cache_path

    save_cached_table(enumerate_classes(5))
    _cache_path(5).replace(_cache_path(6))
    assert load_cached_table(6) is None
    code, out, _ = run_cli(capsys, "poset", "6")
    assert code == 0 and "classes: 182\n" in out


def test_cache_payload_of_the_wrong_shape_is_a_miss():
    from geoposet.cli import CACHE_SCHEMA_VERSION, _cache_path, _digest

    def one_class(members):
        item = {"label": "0.1", "inversions": 0, "representative": "123"}
        return {"n": 3, "classes": [dict(item, members=members)]}

    with_empty_class = enumerate_classes(3).to_json_obj()
    with_empty_class["classes"].append(one_class([])["classes"][0])
    payloads = [
        {"n": 3, "classes": 5},  # iterating the classes raises TypeError
        one_class([5]),  # members that are not strings cannot be parsed
        one_class([[1, 2, 3]]),
        with_empty_class,  # every word once, but one class has no least member
    ]
    path = _cache_path(3)
    path.parent.mkdir(parents=True)
    for payload in payloads:
        entry = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "n": 3,
            "digest": _digest(payload),
            "table": payload,
        }
        path.write_text(json.dumps(entry))
        assert load_cached_table(3) is None, payload


def s2_words_as_n3():
    payload = enumerate_classes(2).to_json_obj()
    payload["n"] = 3
    return payload


def s3_with_two_classes_swapped():
    payload = enumerate_classes(3).to_json_obj()
    one, two = payload["classes"][1:3]
    one["members"], two["members"] = two["members"], one["members"]
    return payload


@pytest.mark.parametrize("make", [s2_words_as_n3, s3_with_two_classes_swapped])
def test_cache_payload_that_is_not_a_table_of_s3_is_a_miss(capsys, make):
    from geoposet.cli import CACHE_SCHEMA_VERSION, _cache_path, _digest
    from geoposet.geoequiv import ClassTable

    payload = make()
    with pytest.raises(ValueError):
        ClassTable.from_json_obj(payload)
    entry = {
        "schema_version": CACHE_SCHEMA_VERSION,
        "n": 3,
        "digest": _digest(payload),
        "table": payload,
    }
    path = _cache_path(3)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(entry))
    assert load_cached_table(3) is None
    code, out, _ = run_cli(capsys, "enumerate", "3")
    assert code == 0
    assert out == run_cli(capsys, "enumerate", "3", "--no-cache")[1]


def inversions_swapped(payload):
    one, two = payload["classes"][1], payload["classes"][-2]
    one["inversions"], two["inversions"] = two["inversions"], one["inversions"]


def one_class_relabelled(payload):
    last = payload["classes"][-1]
    last["label"] = f"{last['inversions']}.2"


def class_order_reversed(payload):
    payload["classes"].reverse()


def members_out_of_order(payload):
    largest = max(payload["classes"], key=lambda item: len(item["members"]))
    first, *rest = largest["members"]
    largest["members"] = [first, *reversed(rest)]  # the representative stays first


def classes_merged(payload):
    """Classes 2.1 and 2.2 as one class, every other field rebuilt to match."""
    classes = payload["classes"]
    kept, gone = (next(c for c in classes if c["label"] == label) for label in ("2.1", "2.2"))
    kept["members"] = sorted(kept["members"] + gone["members"])
    classes.remove(gone)
    classes.sort(key=lambda c: (c["inversions"], c["members"][0]))
    for inversions, run in itertools.groupby(classes, key=lambda c: c["inversions"]):
        for within, item in enumerate(run, start=1):
            item["label"] = f"{inversions}.{within}"
            item["representative"] = item["members"][0]
    payload["count"] = len(classes)


@pytest.mark.parametrize(
    "n, tamper",
    [
        (5, inversions_swapped),
        (4, one_class_relabelled),
        (4, class_order_reversed),
        (5, members_out_of_order),
        (5, classes_merged),
    ],
)
def test_cache_entry_that_is_not_the_table_of_its_members_is_a_miss(capsys, n, tamper):
    from geoposet.cli import _cache_path, _digest
    from geoposet.geoequiv import ClassTable

    save_cached_table(enumerate_classes(n))
    path = _cache_path(n)
    entry = json.loads(path.read_text())
    tamper(entry["table"])
    entry["digest"] = _digest(entry["table"])
    with pytest.raises(ValueError):
        ClassTable.from_json_obj(entry["table"])
    for argv in (["poset", str(n)], ["enumerate", str(n), "--format", "json"]):
        path.write_text(json.dumps(entry))  # a miss saves the true table over it
        assert load_cached_table(n) is None
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == run_cli(capsys, *argv, "--no-cache")[1]


def test_commands_leave_the_cache_alone(isolated_cache, capsys):
    for argv in (["enumerate", "4"], ["poset", "4"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert not (isolated_cache / "cache").exists()


def test_closed_stdout_exits_1_with_nothing_on_stderr():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    # The n = 7 json table is far larger than a pipe's buffer.
    proc = subprocess.Popen(
        [sys.executable, "-m", "geoposet.cli", "enumerate", "7", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


class FullStdout(io.TextIOBase):
    """A stdout on a full disk: every write raises ENOSPC.  ``fileno`` is a
    scratch file's descriptor, which ``main`` may point at devnull."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd

    def writable(self):
        return True

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


WRITING_COMMANDS = [
    ["enumerate", "5"],
    ["enumerate", "5", "--format", "csv"],
    ["enumerate", "5", "--format", "json"],
    ["classify", "2431"],
    ["poset", "4"],
]


@pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=" ".join)
def test_a_stdout_write_error_is_one_error_line_and_exit_1(argv, tmp_path, monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", FullStdout(fd))
        code = main(argv)
    finally:
        os.close(fd)
    assert code == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", WRITING_COMMANDS[2:], ids=" ".join)
def test_a_full_device_on_stdout_leaves_no_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "geoposet.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    assert done.returncode == 1
    assert done.stderr.decode().splitlines() == [
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    ]


def test_concurrent_saves_all_succeed(isolated_cache):
    table = enumerate_classes(5)
    writers = 4
    rounds = 20
    barrier = threading.Barrier(writers, timeout=30)
    errors = []
    done = []

    def save_repeatedly():
        try:
            for _ in range(rounds):
                barrier.wait()
                save_cached_table(table)
                done.append(1)
        except Exception as exc:  # reported through ``errors`` below
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=save_repeatedly) for _ in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(done) == writers * rounds
    loaded = load_cached_table(5)
    assert loaded is not None and loaded.to_json() == table.to_json()
    cache = isolated_cache / "cache"
    assert sorted(p.name for p in cache.iterdir()) == ["classes_n5.json"]


# ---------------------------------------------------------------------------
# classify


def test_classify_singleton(capsys):
    code, out, _ = run_cli(capsys, "classify", "4231")
    assert code == 0
    assert "class size: 1" in out and "members: 4231" in out


def test_classify_identity(capsys):
    code, out, _ = run_cli(capsys, "classify", "12345")
    assert code == 0
    assert "inversions: 0" in out and "class size: 1" in out
    assert "closed-form size: 1" in out


def test_classify_prime_example(capsys):
    code, out, _ = run_cli(capsys, "classify", "51284367")
    assert code == 0
    assert "class size: 2" in out
    assert "members: 23651784 51284367" in out
    assert "cograph: no" in out


def test_classify_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "classify", "10,20")
    assert code == 2 and "error" in err


def test_classify_refuses_words_above_the_scan_bound(capsys):
    code, out, err = run_cli(capsys, "classify", "10,9,8,7,6,5,4,3,2,1")
    assert code == 2 and "n <= 9" in err
    assert out == ""


# ---------------------------------------------------------------------------
# poset


def test_poset_summary_and_exports(tmp_path, capsys):
    dot = tmp_path / "h.dot"
    js = tmp_path / "h.json"
    code, out, _ = run_cli(
        capsys, "poset", "4", "--dot", str(dot), "--json", str(js)
    )
    assert code == 0
    assert "classes: 12" in out
    assert "bounded: yes" in out
    assert "graded by inversion count: yes" in out
    assert dot.read_text().startswith("digraph hasse {")
    payload = json.loads(js.read_text())
    assert payload["n"] == 4
    assert len(payload["poset"]["labels"]) == 12
    assert payload["hasse"]["edges"]


def test_poset_dot_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    dot = tmp_path / "missing" / "h.dot"
    code, out, err = run_cli(capsys, "poset", "3", "--dot", str(dot))
    assert code == 2
    assert err.startswith(f"error: cannot write {dot}: ")
    assert "classes: 4" in out and "wrote DOT" not in out


def test_poset_chain_summary(capsys):
    code, out, _ = run_cli(capsys, "poset", "3")
    assert code == 0
    assert "classes: 4" in out and "cover edges: 3" in out


def test_poset_6_summary(capsys):
    code, out, _ = run_cli(capsys, "poset", "6")
    assert code == 0
    assert out.splitlines() == [
        "poset of geo-equivalence classes, n = 6",
        "classes: 182",
        "cover edges: 621",
        "bounded: yes (first 0.1 = 123456, last 15.1 = 654321)",
        "graded by inversion count: yes",
        "note: gradedness beyond n = 5 is an experimental result of this tool",
    ]


def test_poset_7_lists_the_rank_skipping_covers(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, _ = run_cli(capsys, "poset", "7")
    assert code == 0
    jumps = [line for line in out.splitlines() if " jumps " in line]
    assert len(jumps) == 42
    assert jumps[0] == "  cover 6.16 -> 8.69 jumps 6 -> 8"


def test_poset_rejects_large_n(capsys):
    code, _, err = run_cli(capsys, "poset", "8")
    assert code == 2 and "error" in err


def test_poset_gates_long_runs(capsys):
    code, out, err = run_cli(capsys, "poset", "8")
    assert code == 2 and "--allow-long" in err
    assert out == ""
    code, out, err = run_cli(capsys, "poset", "10", "--allow-long")
    assert code == 2 and "1 <= n <= 9" in err
    assert out == ""


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_writes_json(tmp_path, capsys):
    js = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "3", "--json", str(js))
    assert code == 0
    assert "ok = True" in out
    payload = json.loads(js.read_text())
    assert payload["ok"] is True
    assert all(s["ok"] for s in payload["suites"])
    assert {s["name"] for s in payload["suites"]} >= {
        "class-counts",
        "geometry-crossings",
        "poset-structure",
    }


VERIFY_5_STDOUT = [
    "PASS inversion-round-trip: rebuilt 153 words from their inversion sets (n <= 5)",
    "PASS symmetric-difference: action equals symmetric difference on 917 pairs",
    "PASS inverse-pair-relation: inverse pair relation holds exhaustively (n <= 5)",
    "PASS reverse-digraph: arc reversal matches the inverse digraph (n <= 5)",
    "PASS key-relabeling: canonical keys are relabeling-invariant on 25 samples",
    "PASS fast-vs-bruteforce: digraph and witness-search oracles agree on 767 pairs",
    "PASS geometry-crossings: template crossings equal inversion sets for 153 words",
    "PASS orientation-count: decomposition count matches enumeration on all of S_5",
    "PASS cograph-class-sizes: closed-form class sizes match enumeration for 121 cograph words",
    "PASS schroeder-count: cograph counts follow the large Schroeder numbers: [1, 2, 6, 22, 90]",
    "PASS class-counts: class counts match the known sequence: [1, 2, 4, 12, 39]",
    "PASS reference-table: reference classes matched exactly: 38; reference class 4.2: "
    "listed word 15234 belongs elsewhere; enumeration puts 15243 in this class; "
    "duplicated word 15234 enumerates into our class 3.2",
    "PASS poset-structure: S_3 is a 4-chain; n=4 bounded, graded, extends Bruhat; "
    "n=5 bounded, graded, extends Bruhat",
    "PASS four-family: four-member families stay inside their class on 40 samples",
    "verified 14 suites; ok = True",
]


# N_MAX = 6 is the only size at which schroeder-count, class-counts and
# cograph-class-sizes reach n = 6.
VERIFY_6_STDOUT = [
    "PASS inversion-round-trip: rebuilt 153 words from their inversion sets (n <= 5)",
    "PASS symmetric-difference: action equals symmetric difference on 917 pairs",
    "PASS inverse-pair-relation: inverse pair relation holds exhaustively (n <= 5)",
    "PASS reverse-digraph: arc reversal matches the inverse digraph (n <= 5)",
    "PASS key-relabeling: canonical keys are relabeling-invariant on 25 samples",
    "PASS fast-vs-bruteforce: digraph and witness-search oracles agree on 917 pairs",
    "PASS geometry-crossings: template crossings equal inversion sets for 153 words",
    "PASS orientation-count: decomposition count matches enumeration on all of S_5",
    "PASS cograph-class-sizes: closed-form class sizes match enumeration for 515 cograph words",
    "PASS schroeder-count: cograph counts follow the large Schroeder numbers: "
    "[1, 2, 6, 22, 90, 394]",
    "PASS class-counts: class counts match the known sequence: [1, 2, 4, 12, 39, 182]",
    "PASS reference-table: reference classes matched exactly: 38; reference class 4.2: "
    "listed word 15234 belongs elsewhere; enumeration puts 15243 in this class; "
    "duplicated word 15234 enumerates into our class 3.2",
    "PASS poset-structure: S_3 is a 4-chain; n=4 bounded, graded, extends Bruhat; "
    "n=5 bounded, graded, extends Bruhat",
    "PASS four-family: four-member families stay inside their class on 40 samples",
    "verified 14 suites; ok = True",
]


def test_verify_json_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    js = tmp_path / "missing" / "verify.json"
    code, out, err = run_cli(capsys, "verify", "2", "--json", str(js))
    assert code == 2
    assert err.startswith(f"error: cannot write {js}: ")
    assert "ok = True" in out and "wrote JSON" not in out


def test_verify_5_stdout(capsys):
    code, out, _ = run_cli(capsys, "verify", "5")
    assert code == 0
    assert out.splitlines() == VERIFY_5_STDOUT


def test_verify_6_stdout(capsys):
    code, out, _ = run_cli(capsys, "verify", "6")
    assert code == 0
    assert out.splitlines() == VERIFY_6_STDOUT


def test_verify_reports_a_failing_suite(tmp_path, capsys, monkeypatch):
    from geoposet import verify

    def failing(n_max, rng):
        return False, f"planted failure at n_max={n_max}"

    suites = [(name, failing if name == "class-counts" else fn) for name, fn in verify._SUITES]
    monkeypatch.setattr(verify, "_SUITES", suites)
    js = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "3", "--json", str(js))
    assert code == 1
    lines = out.splitlines()
    assert "FAIL class-counts: planted failure at n_max=3" in lines
    assert sum(line.startswith("FAIL ") for line in lines) == 1
    assert "verified 14 suites; ok = False" in lines
    payload = json.loads(js.read_text())
    assert payload["ok"] is False
    assert [s["name"] for s in payload["suites"] if not s["ok"]] == ["class-counts"]


def test_verify_trivial_n1(capsys):
    code, out, _ = run_cli(capsys, "verify", "1")
    assert code == 0 and "ok = True" in out


def test_verify_rejects_large_n(capsys):
    code, _, err = run_cli(capsys, "verify", "9")
    assert code == 2 and "error" in err
