"""The package's documented API and the import graph of its modules."""

import ast
import pathlib
import re

import spinbath

PACKAGE = pathlib.Path(spinbath.__file__).parent
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_documented_name_resolves():
    missing = [name for name in spinbath.__all__ if not hasattr(spinbath, name)]
    assert missing == []
    assert len(set(spinbath.__all__)) == len(spinbath.__all__)


def _imported(module):
    """(source module, name) of every import in spinbath/<module>.py, with the
    name None where a whole module is imported."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {(alias.name.removeprefix("spinbath."), None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("spinbath.")
            found |= {(base, alias.name) if base else (alias.name, None) for alias in node.names}
    return found


def test_run_frame_and_spectral_modules_import_one_way():
    # frame <- spectral <- engine, and avgham reads the frame and the
    # eigenphase kernels from their own modules, not through engine
    sources = {m: {source for source, _ in _imported(m)} for m in ("frame", "spectral", "engine")}
    assert not sources["frame"] & {"engine", "spectral"}
    assert "engine" not in sources["spectral"]
    assert {"frame", "spectral"} <= sources["engine"]
    assert [name for source, name in _imported("avgham")
            if source == "engine" and (name or "").startswith("_")] == []


def test_every_module_stays_under_500_lines():
    sizes = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in PACKAGE.glob("*.py")}
    assert {name: n for name, n in sizes.items() if n >= 500} == {}


def test_the_declared_numpy_floor_has_bitwise_count():
    # the sector layouts call np.bitwise_count, a ufunc new in NumPy 2.0;
    # read by a regex, as tomllib is not in Python 3.10
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', PYPROJECT.read_text(encoding="utf-8"))
    assert floor is not None
    assert tuple(map(int, floor.groups())) >= (2, 0)
