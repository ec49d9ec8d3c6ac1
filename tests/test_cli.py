import json
import sys
import threading

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


def test_enumerate_threads_do_not_change_output(capsys):
    code1, out1, _ = run_cli(capsys, "enumerate", "5", "--no-cache", "--threads", "1")
    code2, out2, _ = run_cli(capsys, "enumerate", "5", "--no-cache", "--threads", "2")
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_poset_7_lists_the_rank_skipping_covers(capsys):
    code, out, _ = run_cli(capsys, "poset", "7")
    assert code == 0
    jumps = [line for line in out.splitlines() if " jumps " in line]
    assert len(jumps) == 42
    assert jumps[0] == "  cover 6.16 -> 8.69 jumps 6 -> 8"


def test_poset_rejects_large_n(capsys):
    code, _, err = run_cli(capsys, "poset", "8")
    assert code == 2 and "error" in err


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


def test_verify_5_stdout(capsys):
    code, out, _ = run_cli(capsys, "verify", "5")
    assert code == 0
    assert out.splitlines() == VERIFY_5_STDOUT


def test_verify_trivial_n1(capsys):
    code, out, _ = run_cli(capsys, "verify", "1")
    assert code == 0 and "ok = True" in out


def test_verify_rejects_large_n(capsys):
    code, _, err = run_cli(capsys, "verify", "9")
    assert code == 2 and "error" in err
