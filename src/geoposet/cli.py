"""Command-line front end: enumeration reports, classification, posets,
and the one-shot verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output for
identical inputs is byte-identical regardless of worker count or cache
state.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from .geoequiv import ENUMERATION_MAX_N, ClassTable, class_members, enumerate_classes
from .graphs import inversion_graph
from .moddecomp import cograph_class_size, is_cograph
from .perms import inversion_count, parse
from .poset import build_poset, hasse, is_graded

CACHE_SCHEMA_VERSION = 1
LONG_RUN_THRESHOLD = 8


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# cache


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
    """A cached table, or None when absent, stale, or corrupted."""
    path = _cache_path(n)
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if entry.get("schema_version") != CACHE_SCHEMA_VERSION:
        return None
    payload = entry.get("table")
    if not isinstance(payload, dict) or entry.get("digest") != _digest(payload):
        return None
    try:
        return ClassTable.from_json_obj(payload)
    except (KeyError, ValueError):
        return None


def _obtain_table(n: int, use_cache: bool, workers: int) -> ClassTable:
    if use_cache:
        cached = load_cached_table(n)
        if cached is not None:
            return cached
    table = enumerate_classes(n, workers=workers)
    if use_cache:
        try:
            save_cached_table(table)
        except OSError as exc:
            print(f"warning: could not write cache: {exc}", file=sys.stderr)
    return table


def _resolve_workers(threads: int) -> int:
    if threads < 0:
        raise UsageError("--threads must be >= 0")
    if threads == 0:
        return os.cpu_count() or 1
    return threads


# ---------------------------------------------------------------------------
# commands


def _format_table(table: ClassTable) -> str:
    rows = [("label", "inversions", "size", "representative", "members")]
    for c in table.classes:
        rows.append(
            (
                c.label,
                str(c.inversions),
                str(c.size),
                str(c.representative),
                " ".join(str(m) for m in c.members),
            )
        )
    widths = [max(len(r[k]) for r in rows) for k in range(4)]
    lines = []
    for r in rows:
        head = "  ".join(r[k].ljust(widths[k]) for k in range(4))
        lines.append(f"{head}  {r[4]}")
    lines.append(f"total classes: {table.count}")
    return "\n".join(lines)


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise UsageError(f"enumerate supports 1 <= n <= {ENUMERATION_MAX_N}")
    if n >= LONG_RUN_THRESHOLD and not args.allow_long:
        raise UsageError(
            f"n = {n} takes minutes; pass --allow-long to run it anyway"
        )
    table = _obtain_table(n, use_cache=not args.no_cache, workers=_resolve_workers(args.threads))
    if args.format == "json":
        print(table.to_json())
    elif args.format == "csv":
        print(table.to_csv(), end="")
    else:
        print(_format_table(table))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        p = parse(args.word)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if p.n > ENUMERATION_MAX_N:
        raise UsageError(f"classification scans are bounded to n <= {ENUMERATION_MAX_N}")
    members = class_members(p)
    g = inversion_graph(p)
    cograph = is_cograph(g)
    lines = [
        f"permutation: {p}",
        f"n: {p.n}",
        f"inversions: {inversion_count(p)}",
        f"class size: {len(members)}",
        "members: " + " ".join(str(m) for m in members),
        f"cograph: {'yes' if cograph else 'no'}",
    ]
    if cograph:
        report = cograph_class_size(p)
        lines.append(
            f"closed-form size: {report.class_size} "
            f"(represented by one orientation: {report.n_d}, "
            f"self-related: {'yes' if report.self_related else 'no'})"
        )
    print("\n".join(lines))
    return 0


def cmd_poset(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= 7:
        raise UsageError("poset construction supports 1 <= n <= 7")
    workers = _resolve_workers(args.threads)
    table = _obtain_table(n, use_cache=not args.no_cache, workers=workers)
    poset = build_poset(table, workers=workers)
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
        Path(args.dot).write_text(diagram.to_dot() + "\n")
        print(f"wrote DOT to {args.dot}")
    if args.json:
        payload = {
            "schema_version": 1,
            "n": n,
            "poset": poset.to_json_obj(),
            "hasse": diagram.to_json_obj(),
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote JSON to {args.json}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    n_max = args.n_max
    if not 1 <= n_max <= 6:
        raise UsageError("verify supports 1 <= N_MAX <= 6")
    workers = _resolve_workers(args.threads)
    results = run_verification(n_max, workers=workers)
    for suite in results["suites"]:
        status = "PASS" if suite["ok"] else "FAIL"
        print(f"{status} {suite['name']}: {suite['detail']}")
    print(f"verified {len(results['suites'])} suites; ok = {results['ok']}")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
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
    p_enum.add_argument("--no-cache", action="store_true")
    p_enum.add_argument("--threads", type=int, default=1, help="0 = auto")
    p_enum.add_argument("--allow-long", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_cls = sub.add_parser("classify", help="class of a single permutation word")
    p_cls.add_argument("word")
    p_cls.set_defaults(func=cmd_classify)

    p_pos = sub.add_parser("poset", help="order on the classes of S_n")
    p_pos.add_argument("n", type=int)
    p_pos.add_argument("--dot", metavar="PATH")
    p_pos.add_argument("--json", metavar="PATH")
    p_pos.add_argument("--no-cache", action="store_true")
    p_pos.add_argument("--threads", type=int, default=1, help="0 = auto")
    p_pos.set_defaults(func=cmd_poset)

    p_ver = sub.add_parser("verify", help="run the cross-module property suites")
    p_ver.add_argument("n_max", type=int, nargs="?", default=4)
    p_ver.add_argument("--json", metavar="PATH")
    p_ver.add_argument("--threads", type=int, default=1, help="0 = auto")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
