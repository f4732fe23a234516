import ast
import os
import subprocess
import sys
from pathlib import Path

import dsums

SRC = Path(dsums.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read | exported)


def test_unused_imports_are_caught():
    source = "from dataclasses import dataclass\nimport math\nimport os.path\n__all__ = ['math']\nos.sep\n"
    assert unused_imports(source) == ["dataclass (line 1)"]


def test_no_module_imports_a_name_it_never_uses():
    # the package's own imports are its exports, so __init__ is left out
    found = {path.name: unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names and name != "__init__.py"} == {}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (a def, class or assignment named with one leading
    underscore) of the modules' sources that no one of them reads, as a name, an attribute
    or an import: "module: name (line n)"."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                ends = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [(t.id, t.lineno) for end in ends for t in ast.walk(end) if isinstance(t, ast.Name)]
            else:
                continue
            defined |= {(module, name): line for name, line in targets
                        if name.startswith("_") and not name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return sorted(f"{module}: {name} (line {line})" for (module, name), line in defined.items() if name not in read)


def test_unread_private_names_are_caught():
    a = "_kept = 1\n_lost = 2\ndef _f(): pass\nclass _C: pass\n__version__ = 3\n_seen: int = 4\nprint(_seen)\n"
    b = "import a\nfrom a import _f\na._kept\n_lost = 5\n_x, (_y, z) = 1, (2, 3)\nprint(_x)\n"
    assert unread_private_names({"a": a, "b": b}) == [
        "a: _C (line 4)", "a: _lost (line 2)", "b: _lost (line 4)", "b: _y (line 5)"]


def test_every_private_name_has_a_reader():
    # the package reads each of its private names: tests are no readers, so a helper only a
    # test calls shows up here
    assert unread_private_names({path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}) == []


def test_the_cli_imports_without_mpmath():
    # numpy is the only runtime dependency: mpmath serves the tests and perfbench's checks
    code = "import sys, dsums.cli; assert 'mpmath' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True,
                   timeout=60)


def module_level_imports(source: str) -> set[str]:
    """The modules a module's source imports outside any function or class body, by full name."""
    out, todo = set(), list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)  # the bodies of if, try and with at module level
    return out


def test_module_level_imports_are_caught():
    source = "import os.path\nif True:\n    from concurrent.futures import Executor\ndef f():\n    import threading\n"
    assert module_level_imports(source) == {"os.path", "concurrent.futures"}


# The process pool's machinery loads only when a scan starts a pool, which no scan below
# 2^17 expected lanes does, so `import dsums` does not pay for it.
_POOL_MODULES = ("multiprocessing", "threading", "concurrent")


def test_no_module_imports_the_pool_machinery_at_module_level():
    found = {path.name: sorted(m for m in module_level_imports(path.read_text()) if m.split(".")[0] in _POOL_MODULES)
             for path in sorted(SRC.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == {}
    code = "import sys, dsums; assert 'concurrent.futures' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True,
                   timeout=60)


def package_imports(source: str) -> set[str]:
    """The dsums modules a module's source imports, relative or absolute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("dsums")):
            path = node.module.split(".")[node.level == 0:] if node.module else []  # the part after "dsums"
            out |= {path[0]} if path else {alias.name for alias in node.names}  # from . import x
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("dsums.")}
    return out


def test_package_imports_are_caught():
    source = "from . import survey as s\nfrom .numkernel import mulmod\nimport dsums.dedekind\nfrom dsums.cli import main\n"
    assert package_imports(source) == {"survey", "numkernel", "dedekind", "cli"}


def test_the_import_graph_has_no_cycle_and_only_the_entry_points_import_the_scans():
    # the kernels live in numkernel and dedekind: survey holds the scan driver and imports them
    graph = {path.stem: package_imports(path.read_text()) for path in SRC.glob("*.py")}
    assert {name for name, deps in graph.items() if "survey" in deps} == {"__init__", "cli"}
    done, active = set(), []

    def visit(name: str) -> None:
        assert name not in active, " -> ".join(active[active.index(name):] + [name])
        if name not in done:
            active.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            active.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)
    assert len(done) == len(graph) >= 10 and graph["survey"] >= {"numkernel", "dedekind"}


def test_every_module_parses_as_python_3_10():
    # requires-python promises 3.10: this catches newer syntax, not newer library keywords
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.rglob("*.py")]):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
