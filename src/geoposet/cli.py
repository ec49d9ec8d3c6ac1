"""Command-line front end: enumeration reports, classification, posets,
and the one-shot verification suite.

``classify`` reads "cograph" and the closed-form size off the word's class
key walk (``moddecomp.cograph_class_size``): a prime node in the word's
substitution tree means no cograph.  No command decomposes a graph except
``verify``.  ``enumerate`` prints its table through ``ClassTable.write``,
which holds the text, JSON and CSV layouts; this module reads no private
attribute of the table.

Exit codes: 0 success, 1 verification failure or a stdout that could not
take the output: a closed pipe prints nothing on stderr, any other write
error (a full disk, as ``>/dev/full`` gives) one ``error:`` line; 2 usage
error or an output path that cannot be written.  Every command computes
what it prints afresh, ``enumerate``, ``poset`` and ``verify`` their class
tables and ``classify`` the word's class, so output for identical inputs
is byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Optional, TextIO

from .geoequiv import ENUMERATION_MAX_N, ClassTable, class_members, enumerate_classes
from .moddecomp import cograph_class_size
from .perms import inversion_count, parse
from .poset import build_poset, hasse, is_graded

CACHE_SCHEMA_VERSION = 1
LONG_RUN_THRESHOLD = 8
NO_CACHE_HELP = "ignored: every command computes its table"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# cache
#
# No command reads or writes the cache: every command computes its table,
# because checking a stored grouping costs a key per orbit of words, which
# is the enumeration itself.  These names and GEOPOSET_CACHE_DIR stay only
# because perfbench's ``cache`` workload (perfbench/workloads.py) calls
# them and perfbench/spans.py wraps them; delete them with that workload.


def cache_dir() -> Path:
    override = os.environ.get("GEOPOSET_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "geoposet"


def _cache_path(n: int) -> Path:
    return cache_dir() / f"classes_n{n}.json"


def _digest(obj: dict) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_cached_table(table: ClassTable) -> None:
    payload = table.to_json_obj()
    entry = {
        "schema_version": CACHE_SCHEMA_VERSION,
        "n": table.n,
        "digest": _digest(payload),
        "table": payload,
    }
    path = _cache_path(table.n)
    path.parent.mkdir(parents=True, exist_ok=True)
    # A temp file of its own per writer, so concurrent saves cannot clobber
    # or steal each other's file before the atomic rename.
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(entry))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_cached_table(n: int) -> Optional[ClassTable]:
    """A cached table, or None when absent, stale, corrupted, of another n,
    or not exactly the table ``enumerate_classes(n)`` gives: the load
    recomputes the table (``ClassTable.from_json_obj``) and compares."""
    path = _cache_path(n)
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(entry, dict) or entry.get("schema_version") != CACHE_SCHEMA_VERSION:
        return None
    payload = entry.get("table")
    if not isinstance(payload, dict) or entry.get("digest") != _digest(payload):
        return None
    if payload.get("n") != n:
        return None
    try:
        return ClassTable.from_json_obj(payload)
    except ValueError:
        return None


def _obtain_table(args: argparse.Namespace, command: str, work: str) -> ClassTable:
    """The class table of S_n for a table command; a usage error when n is
    outside 1..``ENUMERATION_MAX_N``, or from ``LONG_RUN_THRESHOLD`` on
    without --allow-long."""
    n = args.n
    # Before the long-run gate: its message formats n!, too large for str() at huge n.
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise UsageError(f"{command} supports 1 <= n <= {ENUMERATION_MAX_N}")
    if n >= LONG_RUN_THRESHOLD and not args.allow_long:
        raise UsageError(
            f"n = {n} {work} all {math.factorial(n)} words of S_{n}; "
            "pass --allow-long to run it anyway"
        )
    return enumerate_classes(n)


# ---------------------------------------------------------------------------
# commands


def _write_json(obj: object, fh: TextIO) -> None:
    """``json.dumps(obj, indent=2)`` plus a newline, written in batches of
    encoder chunks: never one string, nor one slow write per chunk.  It
    serves ``poset --json`` and ``verify --json``; ``enumerate`` writes
    through ``ClassTable.write``."""
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 4096)):
        fh.write(batch)
    fh.write("\n")


def _write_file(path: str, write: Callable[[TextIO], object]) -> None:
    """Open ``path`` for writing and hand it to ``write``; a path that cannot
    be written is a usage error."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def cmd_enumerate(args: argparse.Namespace) -> int:
    _obtain_table(args, "enumerate", "scans").write(sys.stdout, args.format)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        p = parse(args.word)
        members = class_members(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    lines = [
        f"permutation: {p}",
        f"n: {p.n}",
        f"inversions: {inversion_count(p)}",
        f"class size: {len(members)}",
        "members: " + " ".join(str(m) for m in members),
    ]
    try:
        report = cograph_class_size(p)
    except ValueError:  # a prime node: not a cograph
        lines.append("cograph: no")
    else:
        lines.append("cograph: yes")
        lines.append(
            f"closed-form size: {report.class_size} "
            f"(represented by one orientation: {report.n_d}, "
            f"self-related: {'yes' if report.self_related else 'no'})"
        )
    print("\n".join(lines))
    return 0


def cmd_poset(args: argparse.Namespace) -> int:
    n = args.n
    table = _obtain_table(args, "poset construction", "orders the classes of")
    poset = build_poset(table)
    diagram = hasse(poset)
    first, last = poset.bounds()
    graded, witnesses = is_graded(poset)
    lines = [
        f"poset of geo-equivalence classes, n = {n}",
        f"classes: {poset.size}",
        f"cover edges: {len(diagram.edges)}",
    ]
    if first is not None and last is not None:
        lines.append(
            f"bounded: yes (first {first.label} = {first.representative}, "
            f"last {last.label} = {last.representative})"
        )
    else:
        lines.append("bounded: no")
    lines.append(f"graded by inversion count: {'yes' if graded else 'no'}")
    for lo, hi, lo_inv, hi_inv in witnesses:
        lines.append(f"  cover {lo} -> {hi} jumps {lo_inv} -> {hi_inv}")
    if n >= 6:
        lines.append(
            "note: gradedness beyond n = 5 is an experimental result of this tool"
        )
    print("\n".join(lines))
    if args.dot:
        _write_file(args.dot, lambda fh: fh.write(diagram.to_dot() + "\n"))
        print(f"wrote DOT to {args.dot}")
    if args.json:
        payload = {
            "schema_version": 1,
            "n": n,
            "poset": poset.to_json_obj(),
            "hasse": diagram.to_json_obj(),
        }
        _write_file(args.json, lambda fh: _write_json(payload, fh))
        print(f"wrote JSON to {args.json}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import VERIFY_MAX_N, run_verification

    n_max = args.n_max
    if not 1 <= n_max <= VERIFY_MAX_N:
        raise UsageError(f"verify supports 1 <= N_MAX <= {VERIFY_MAX_N}")
    results = run_verification(n_max)
    for suite in results["suites"]:
        status = "PASS" if suite["ok"] else "FAIL"
        print(f"{status} {suite['name']}: {suite['detail']}")
    print(f"verified {len(results['suites'])} suites; ok = {results['ok']}")
    if args.json:
        _write_file(args.json, lambda fh: _write_json(results, fh))
        print(f"wrote JSON to {args.json}")
    return 0 if results["ok"] else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoposet",
        description=(
            "Classify straight-line drawings of K_{2,n} through permutation "
            "inversion sets: enumerate geo-equivalence classes, classify "
            "single words, and build the order on classes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="partition S_n into classes")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_enum.add_argument("--no-cache", action="store_true", help=NO_CACHE_HELP)
    p_enum.add_argument("--allow-long", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_cls = sub.add_parser("classify", help="class of a single permutation word")
    p_cls.add_argument("word")
    p_cls.set_defaults(func=cmd_classify)

    p_pos = sub.add_parser("poset", help="order on the classes of S_n")
    p_pos.add_argument("n", type=int)
    p_pos.add_argument("--dot", metavar="PATH")
    p_pos.add_argument("--json", metavar="PATH")
    p_pos.add_argument("--no-cache", action="store_true", help=NO_CACHE_HELP)
    p_pos.add_argument("--allow-long", action="store_true")
    p_pos.set_defaults(func=cmd_poset)

    p_ver = sub.add_parser("verify", help="run the cross-module property suites")
    p_ver.add_argument("n_max", type=int, nargs="?", default=4)
    p_ver.add_argument("--json", metavar="PATH")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Most likely a write to stdout failed.  A closed pipe is the
        # reader's choice and prints nothing; any other error gets one line.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        # Python's recipe for a closed pipe: point stdout at devnull so the
        # flush at shutdown stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
