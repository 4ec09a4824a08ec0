"""bench/lines.py, the code-line count, on a small synthetic module."""

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "bench" / "lines.py"

SOURCE = '''"""A module docstring
over two lines."""

# a comment line
import math  # a trailing comment


class Box:
    """One-line class docstring."""

    size = (1,
            2)

    def area(self):
        """A function docstring

        with a blank line inside.
        """

        text = """a string that is
        no docstring"""
        return math.prod(self.size), text
'''


def test_lines_counts_code_but_not_comments_blanks_or_docstrings(tmp_path):
    module = tmp_path / "box.py"
    module.write_text(SOURCE, encoding="utf-8")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout
    # import, class, size over two lines, def, the string's two lines, return
    box = {"code": 8, "physical": len(SOURCE.splitlines())}
    assert json.loads(out) == {"modules": {"box.py": box}, "code": 8,
                               "physical": box["physical"]}
