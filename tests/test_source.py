"""Source-level guards on the package."""

import ast
import importlib.util
import io
import os
import pathlib
import re
import subprocess
import sys
import tokenize

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


def _imported(node) -> list:
    """The top-level modules an import statement names; a relative import
    names quiverz."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(node.module or "").split(".")[0] if node.level == 0 else "quiverz"]
    return []


def _imports_outside_stdlib(source: str, filename: str) -> list:
    """filename:line:module for every import of a module that is neither in
    the standard library nor __future__ or quiverz.  A module missing from
    the running interpreter's standard library is accepted only as a
    statement of a try whose except ImportError handler imports standard
    modules: a builtin that later versions drop, with its fallback."""
    stdlib = set(sys.stdlib_module_names)
    allowed = stdlib | {"__future__", "quiverz"}

    def falls_back(handler) -> bool:
        names = {name for stmt in handler.body for name in _imported(stmt)}
        catches = isinstance(handler.type, ast.Name) and handler.type.id == "ImportError"
        return catches and bool(names) and names <= stdlib

    tree = ast.parse(source, filename=filename)
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(falls_back(handler) for handler in node.handlers):
            guarded.update(id(stmt) for stmt in node.body)
    return [
        f"{filename}:{node.lineno}:{name}"
        for node in ast.walk(tree)
        if id(node) not in guarded
        for name in _imported(node)
        if name not in allowed
    ]


def test_package_imports_only_stdlib():
    """The package has no runtime dependencies: every import names a module
    of the standard library, __future__ or quiverz itself, or is a guarded
    builtin with a standard fallback (verify's _sha256, gone in 3.12)."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    found = [name for path in sources for name in _imports_outside_stdlib(path.read_text(), path.name)]
    assert found == []


def test_stdlib_check_accepts_only_a_guarded_fallback():
    """The check accepts a module outside the standard library only in a
    try whose except ImportError handler imports a standard module."""
    guarded = "try:\n    from _nonstd import f\nexcept ImportError:\n    from hashlib import {}\n"
    assert _imports_outside_stdlib(guarded.format("sha256"), "ok.py") == []
    assert _imports_outside_stdlib("import os\nfrom . import verify\nfrom __future__ import x\n", "ok.py") == []
    refused = {
        "unguarded": "import os\nimport _nonstd.sub\n",
        "unguarded_from": "from _nonstd import f\n",
        "fallback_outside_stdlib": "try:\n    import _nonstd\nexcept ImportError:\n    import _other\n",
        "no_fallback_import": "try:\n    import _nonstd\nexcept ImportError:\n    _nonstd = None\n",
        "other_exception": "try:\n    import _nonstd\nexcept ValueError:\n    import hashlib\n",
        "bare_except": "try:\n    import _nonstd\nexcept:\n    import hashlib\n",
        "in_handler": "try:\n    import os\nexcept ImportError:\n    import _nonstd\n",
        "in_else": "try:\n    import os\nexcept ImportError:\n    import hashlib\nelse:\n    import _nonstd\n",
        "nested": "try:\n    if True:\n        import _nonstd\nexcept ImportError:\n    import hashlib\n",
    }
    for name, source in refused.items():
        assert any(found.endswith(":_nonstd") for found in _imports_outside_stdlib(source, name)), name


def test_import_loads_no_dataclasses_or_openssl():
    """Every CLI call pays for what import quiverz.cli loads.  Beside a bare
    interpreter, it newly loads neither dataclasses nor inspect (which
    dataclasses pulls in), and, wherever the builtin _sha256 exists, neither
    hashlib nor OpenSSL's _hashlib."""
    script = "import sys\n{}\nprint(' '.join(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    loaded = []
    for body in ("", "import quiverz.cli"):
        done = subprocess.run(
            [sys.executable, "-c", script.format(body)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        loaded.append(set(done.stdout.split()))
    new = loaded[1] - loaded[0]
    assert "quiverz.cli" in new
    heavy = {"dataclasses", "inspect"}
    if importlib.util.find_spec("_sha256") is not None:
        heavy |= {"hashlib", "_hashlib"}
    assert sorted(new & heavy) == []


def test_package_runs_jobs_on_one_process_pool():
    """--jobs runs on processes: threads stay behind the GIL.  The workers
    are forked at one place, so src/ calls os.fork once and names neither
    an executor, concurrent.futures, multiprocessing nor threading."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    text = {path.name: path.read_text() for path in sources}
    found = [
        f"{name}:{match.group()}"
        for name, body in text.items()
        for match in re.finditer(r"\b(\w*PoolExecutor|concurrent\.futures|multiprocessing|threading)\b", body)
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


def test_oracles_run_no_elimination_of_exactmat():
    """An oracle that ran the kernel it checks would agree with it by
    construction: tests/oracles.py eliminates on its own loops
    (rref_by_rows), so it imports none of exactmat's elimination loops,
    _rref, _rref_packed, _echelon and _inverse_flat, and reads none of them
    as an attribute."""
    loops = {"_rref", "_rref_packed", "_echelon", "_inverse_flat"}
    path = PACKAGE.parent.parent / "tests" / "oracles.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"oracles.py:{node.lineno}:{name}"
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [node.id] if isinstance(node, ast.Name)
            else []
        )
        if name in loops
    ]
    assert found == []


# Private names cited in the package's prose that are not the package's
# own: builtin modules of the standard library, os._exit, and the check
# names the image sweep formats, whose {k} is a trial number.
_CITED_ELSEWHERE = {"_sha256", "_sha512", "_hashlib", "os._exit", "chain{k}_bounded_by_lambda", "stable{k}_nilpotency"}


def _prose() -> list:
    """(where, text) of every docstring and comment of the package and of
    every backtick span of README."""
    texts = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
                texts.append((path.name, ast.get_docstring(node)))
        texts += [
            (path.name, tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    return texts + [("README.md", span) for span in re.findall(r"`([^`]*)`", readme)]


def _defined() -> set:
    """Every name the package binds: functions, classes and methods,
    assigned names and imported names."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name.split(".")[-1])
    return names


def _stale(texts, defined) -> list:
    """where:citation for every _private name cited in texts, bare, dotted
    (quiverrep._walk) or after a {k} placeholder (stable{k}_nilpotency),
    that defined lacks and _CITED_ELSEWHERE does not list; dunder names are
    Python's."""
    cited = re.compile(r"(?<![\w.{}])((?:\w+\.)*|\w*\{\w+\})(_(?!_)\w+)")
    return [
        f"{where}:{match.group()}"
        for where, text in texts
        for match in cited.finditer(text)
        if match.group() not in _CITED_ELSEWHERE and match.group(2) not in defined
    ]


def test_cited_private_names_are_defined():
    """Every _private name that a docstring or comment of the package, or a
    backtick span of README, cites is defined in the package, so no prose
    keeps the name of a helper that was removed or renamed.  The check
    sees such a name bare, dotted and in a span."""
    defined = _defined()
    assert _stale(_prose(), defined) == []
    removed = [
        ("quiverrep.py", "walked by _walk_chain, one _glued_step each"),
        ("README.md", "quiverrep._greedy_on_path"),
    ]
    assert _stale(removed, defined) == [
        "quiverrep.py:_walk_chain", "quiverrep.py:_glued_step", "README.md:quiverrep._greedy_on_path"
    ]
    assert _stale([("verify.py", "chain{k}_bounded_by_lambda via os._exit and _walk")], defined) == []
    assert _stale([("verify.py", "chain{k}_walk_chain")], defined) == ["verify.py:chain{k}_walk_chain"]
