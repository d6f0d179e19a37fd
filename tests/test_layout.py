"""Package layout: every import of src/spantrace and of the tests sits at
module level, the package modules' imports of one another form no cycle,
and every function the benchmark traces still exists under its name."""

import ast
import importlib
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spantrace"
LAYERS = TESTS.parent / "perfbench" / "layers.py"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _source(name: str) -> str:
    return (PACKAGE / f"{name}.py").read_text(encoding="utf-8")


def local_imports(source: str) -> list[int]:
    """Line numbers of the import statements inside a function body."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lines += [n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
    return sorted(set(lines))


def package_imports(source: str, modules: list[str]) -> set[str]:
    """The package modules a module imports; `from . import x` names x when
    x is a module and the package's __init__ otherwise."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            out |= {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "spantrace"}
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if not path or path[0] != "spantrace":
                    continue
                path = path[1:]
            if path:
                out.add(path[0])
            else:
                out |= {a.name if a.name in modules else "__init__" for a in node.names}
    return out


def module_constants(path: Path, names: set[str]) -> dict[str, object]:
    """The literal values assigned to the given top-level names, read
    without importing the module."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id in names:
                    out[t.id] = ast.literal_eval(node.value)
    return out


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a closed path, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(v: str) -> list[str] | None:
        state[v] = 1
        path.append(v)
        for w in sorted(graph.get(v, ())):
            if state.get(w) == 1:
                return path[path.index(w):] + [w]
            if w not in state:
                found = visit(w)
                if found:
                    return found
        path.pop()
        state[v] = 2
        return None

    for v in sorted(graph):
        if v not in state:
            found = visit(v)
            if found:
                return found
    return None


def test_no_import_inside_a_function():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    offenders = {str(p.relative_to(TESTS.parent)): local_imports(p.read_text(encoding="utf-8"))
                 for p in files}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def test_package_import_graph_is_acyclic():
    graph = {name: package_imports(_source(name), MODULES) & set(MODULES) for name in MODULES}
    assert graph["cli"] >= {"dualtrace", "suites"}  # the walk sees relative imports
    assert find_cycle(graph) is None


def test_layout_checks_catch_violations():
    assert local_imports("import json\n\ndef f():\n    from .x import y\n    return y\n") == [4]
    assert local_imports("class C:\n    def m(self):\n        import os\n") == [3]
    assert local_imports("import json\nfrom .chainalg import mat\n") == []
    mods = ["a", "b", "c"]
    assert package_imports("from .a import x\nimport spantrace.b\nfrom . import c, z\n", mods) == {
        "a", "b", "c", "__init__",
    }
    assert package_imports("from spantrace.c import x\nimport json\nfrom json import dumps\n", mods) == {"c"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"a"}}) == ["a", "a"]


def test_perfbench_traced_names_exist():
    consts = module_constants(LAYERS, {"TRACED", "CACHED"})
    missing = []
    for module, qualname, _ in consts["TRACED"]:
        owner = importlib.import_module(f"spantrace.{module}")
        *path, name = qualname.split(".")
        for part in path:
            owner = vars(owner).get(part)
        if owner is None or name not in vars(owner):
            missing.append(f"{module}.{qualname}")
    assert missing == []
    chainalg = importlib.import_module("spantrace.chainalg")
    assert [fn for fn in consts["CACHED"] if not hasattr(vars(chainalg).get(fn), "cache_info")] == []
