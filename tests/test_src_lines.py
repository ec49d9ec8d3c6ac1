import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment-only line
class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string that
        is not a docstring"""
        return (
            text,
            os.sep,
        )
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import, class, def, the two lines of the assigned string, return and
    # the three lines of its bracket
    assert src_lines.code_lines(SOURCE) == 9


def test_counts_cover_every_module_of_the_working_tree():
    counts = src_lines.counts(None)
    assert "poset.py" in counts and "__init__.py" in counts
    assert all(count > 0 for count in counts.values())


def _in_git_checkout() -> bool:
    try:
        subprocess.run(
            ["git", "rev-parse", "--is-inside-work-tree"],
            cwd=src_lines.ROOT, check=True, capture_output=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.skipif(
    not _in_git_checkout(), reason="needs a git checkout: a revision's modules are read from git"
)
def test_counts_at_a_revision_name_the_same_modules():
    assert src_lines.counts("HEAD").keys() == src_lines.counts(None).keys()


def test_a_bad_revision_is_a_usage_error(capsys):
    assert src_lines.main(["nosuchrev"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
