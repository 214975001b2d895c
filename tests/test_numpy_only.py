"""The runtime needs numpy and the standard library only; scipy is a test oracle.

The runtime also runs in one process: no source file imports a process pool.
"""

import ast
from pathlib import Path

import pytest

import critedge

SRC = Path(critedge.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def offending_imports(roots) -> list[str]:
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    return [
        f"{path.relative_to(SRC)}: {module}"
        for path in files
        for module in imported_modules(path)
        if module.split(".")[0] in roots
    ]


def test_no_source_file_imports_scipy():
    assert offending_imports({"scipy"}) == []


def test_no_source_file_starts_worker_processes():
    # every run is one process: no pool, no fork
    assert offending_imports({"concurrent", "multiprocessing"}) == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
