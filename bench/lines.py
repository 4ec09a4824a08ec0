"""Count code lines and physical lines of Python modules, as JSON.

A code line holds a token other than a comment, a line break, an indent or
a dedent, and is not part of a module, class or function docstring. Every
line of a token that spans lines counts. Run from the repository root:

    python bench/lines.py                  # src/spinbath/*.py
    python bench/lines.py path/to/a.py ... # the given files or directories

It prints {"modules": {name: {"code": n, "physical": n}}, "code": total,
"physical": total}, modules keyed by file name.
"""

import ast
import io
import json
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(text):
    """{"code": n, "physical": n} for the Python source `text`."""
    held = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return {"code": len(held - _docstring_lines(ast.parse(text))),
            "physical": len(text.splitlines())}


def main():
    paths = [pathlib.Path(a) for a in sys.argv[1:] or ["src/spinbath"]]
    files = sorted(f for p in paths for f in (p.glob("*.py") if p.is_dir() else [p]))
    modules = {f.name: count(f.read_text(encoding="utf-8")) for f in files}
    print(json.dumps({"modules": modules,
                      "code": sum(m["code"] for m in modules.values()),
                      "physical": sum(m["physical"] for m in modules.values())}, indent=1))


if __name__ == "__main__":
    main()
