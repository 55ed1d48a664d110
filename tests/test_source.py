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
    """--jobs runs on processes: threads stay behind the GIL.  The workers
    are forked at one place, so src/ calls os.fork once and names neither
    an executor, concurrent.futures nor threading."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    text = {path.name: path.read_text() for path in sources}
    found = [
        f"{name}:{match.group()}"
        for name, body in text.items()
        for match in re.finditer(r"\b(\w*PoolExecutor|concurrent\.futures|threading)\b", body)
    ]
    assert found == []
    assert sum(len(re.findall(r"\bos\.fork\(", body)) for body in text.values()) == 1


def _library_tour() -> set:
    """The names listed in the contents column of README's Library tour."""
    text = (PACKAGE.parent.parent / "README.md").read_text()
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `quiverz.")]
    return {name for row in rows for name in re.findall(r"`(\w+)`", row[2])}


def test_every_public_name_has_a_caller_or_is_documented():
    """Every public module-level function or class of the package is listed
    in README's Library tour or reached from it, or from module-level code,
    through references in package code: names loaded, attributes of a
    package module, and strings naming a definition (the CLI's driver
    table).  A helper that only tests call belongs in tests/oracles.py."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 7
    defined = {
        node.name: stem
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }

    def references(node) -> set:
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in trees:
                out.add(sub.attr)
            elif isinstance(sub, ast.Constant) and sub.value in defined:
                out.add(sub.value)
        return out

    edges = {}
    live = _library_tour()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                edges[node.name] = references(node) - {node.name}
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                live |= references(node)
    todo = list(live)
    while todo:
        for name in edges.get(todo.pop(), ()):
            if name not in live:
                live.add(name)
                todo.append(name)
    found = sorted(f"{stem}.{name}" for name, stem in defined.items() if not name.startswith("_") and name not in live)
    assert not found, f"public names with no caller and no Library tour entry: {found}"


def test_package_has_no_unused_imports():
    """Every name a module of the package imports at module level is read in
    that module, or listed in __all__ of __init__.py, which imports the
    submodules for the package's users; __future__ imports bind nothing to
    read."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and name not in exported:
                        found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == []
