"""Count the code lines of the geoposet package.

A code line holds at least one token that is not a comment and is not part
of a docstring (the leading string of a module, class or function body).
Blank lines, comment-only lines and docstrings are left out, so moving text
into or out of a docstring does not change the count.

    python tools/src_lines.py                 # the working tree
    python tools/src_lines.py REV             # REV against the working tree
    python tools/src_lines.py BASE HEAD       # two git revisions

Prints the count of every ``src/geoposet/*.py`` file, the total and, with a
revision, the difference.  A revision git cannot read, or no ``git`` to
read it with, is a usage error: one ``error:`` line on stderr and exit
status 2.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/geoposet"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring in the tree spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a Python source string."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def sources(rev: Optional[str]) -> dict[str, str]:
    """File name to source of every package module, at ``rev`` or, for
    None, in the working tree."""
    if rev is None:
        return {p.name: p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {
        name: _git("show", f"{rev}:{PACKAGE}/{name}")
        for name in sorted(names)
        if name.endswith(".py")
    }


def counts(rev: Optional[str]) -> dict[str, int]:
    return {name: code_lines(text) for name, text in sources(rev).items()}


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if not argv:
        now = counts(None)
        for name, count in now.items():
            print(f"{name:<16}{count:>6}")
        print(f"{'total':<16}{sum(now.values()):>6}")
        return 0
    try:
        base = counts(argv[0])
        head = counts(argv[1] if len(argv) == 2 else None)
    except (OSError, subprocess.CalledProcessError) as exc:
        text = exc.stderr if isinstance(exc, subprocess.CalledProcessError) else str(exc)
        detail = "; ".join(text.strip().splitlines())
        print(f"error: git cannot read {PACKAGE} at {' or '.join(argv)}: {detail}", file=sys.stderr)
        return 2
    labels = (argv[0][:10], argv[1][:10] if len(argv) == 2 else "worktree")
    print(f"{'file':<16}{labels[0]:>10}{labels[1]:>10}{'diff':>7}")
    for name in sorted(base.keys() | head.keys()):
        a, b = base.get(name, 0), head.get(name, 0)
        print(f"{name:<16}{a:>10}{b:>10}{b - a:>+7}")
    a, b = sum(base.values()), sum(head.values())
    print(f"{'total':<16}{a:>10}{b:>10}{b - a:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
