"""``tools/codelines.py`` counts lines, code lines and statement lines."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"

# lines 1-2 and 10 are docstrings, 4 a comment; one statement spans 5-6
SAMPLE = '''"""A module docstring
over two lines."""

# a comment
total = (1 +
         2)


def f():
    """A function docstring."""
    return total  # a trailing comment
'''


def test_counts_a_module_and_the_total(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text("")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["module", "lines", "code", "statements"],
        ["empty.py", "0", "0", "0"],
        ["sample.py", "11", "4", "3"],
        ["total", "11", "4", "3"],
    ]
