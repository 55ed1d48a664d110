"""Source-level guards on the package."""

import ast
import pathlib

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
