"""Source-level guards on the package."""

import ast
import pathlib
import re
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "quiverz"


def test_package_has_no_assert():
    """python -O strips assert statements, so a certificate re-check written
    as one would silently switch off; every re-check must raise instead."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_stdlib():
    """The package has no runtime dependencies: every import names a module
    of the standard library, __future__ or quiverz itself."""
    allowed = set(sys.stdlib_module_names) | {"__future__", "quiverz"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else ["quiverz"]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names if name.split(".")[0] not in allowed]
    assert found == []


def test_package_runs_jobs_on_one_process_pool():
    """--jobs runs on processes: threads stay behind the GIL, so src/ names
    neither ThreadPoolExecutor nor threading, and builds one executor."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    text = {path.name: path.read_text() for path in sources}
    found = [
        f"{name}:{match.group()}"
        for name, body in text.items()
        for match in re.finditer(r"\b(ThreadPoolExecutor|threading)\b", body)
    ]
    assert found == []
    assert sum(len(re.findall(r"\bProcessPoolExecutor\(", body)) for body in text.values()) == 1
