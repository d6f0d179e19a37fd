"""Package layout: every import of src/spantrace and of the tests sits at
module level, the package modules' imports of one another form no cycle,
every function the benchmark traces still exists under its name, every
benchmark workload runs one instance correctly, and every module-level
function and class of the package has a caller outside the tests or
states a fact of the paper that a test checks."""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spantrace"
PERFBENCH = TESTS.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
CALLERS = ("src", "scripts", "perfbench")  # the directories whose code is not a test

# The constructions only tests call, each with the statement of the paper
# it checks.  A suite that runs one promotes it out of this dict.
PAPER_STATEMENTS = {
    "adjunction_triangles": "the pushforward f_natural is left adjoint to f_conatural: "
                            "the two triangle pastings of unit and counit",
    "triangle_composite_is_identity": "each triangle pasting composes to the identity 2-cell",
    "proper_splitting": "for proper vertical maps the left down-square of the "
                        "Lefschetz-Verdier diagram splits through the pushforward",
    "dual_of_morphism": "a morphism of dualizable objects has a dual (its mate), "
                        "contravariantly functorial",
    "split_epi_criterion": "an object is dualizable when a (x) hom(a, 1) -> hom(a, a) "
                           "has a section",
    "uncurry_morphism": "the internal hom is right adjoint to the tensor product",
    "sum_tensor_distribute": "the tensor product distributes over direct sums",
    "monoidal_structure": "pullback along a base change is symmetric monoidal",
}


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


def defined_names(source: str) -> list[str]:
    """The functions and classes a module defines at its top level."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.parse(source).body if isinstance(node, kinds)]


def referenced_names(source: str) -> set[str]:
    """The names a module's code reads, bare or as attributes; a mention in
    a docstring or a comment is no reference."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def reference_violations(defined: set[str], referenced: set[str], statements: dict) -> dict:
    """Defined names with no reference and no paper statement, statement
    keys that are referenced after all, and keys no longer defined."""
    return {
        "unreferenced": sorted(defined - referenced - set(statements)),
        "referenced_keys": sorted(set(statements) & referenced),
        "undefined_keys": sorted(set(statements) - defined),
    }


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


def test_reference_check_catches_violations():
    source = '''"""mentions lonely()"""

def used():
    return helper.attr  # lonely() again


class Kept:
    pass


def lonely():
    return used()
'''
    assert defined_names(source) == ["used", "Kept", "lonely"]
    refs = referenced_names(source) | referenced_names("x = Kept()\n")
    assert {"used", "helper", "attr", "Kept"} <= refs and "lonely" not in refs
    defined = set(defined_names(source))
    # an unreferenced function fails unless a paper statement names it
    assert reference_violations(defined, refs, {})["unreferenced"] == ["lonely"]
    assert reference_violations(defined, refs, {"lonely": "a fact"}) == {
        "unreferenced": [], "referenced_keys": [], "undefined_keys": [],
    }
    # a key that gained a caller, or lost its definition, fails too
    assert reference_violations(defined, refs, {"lonely": "", "used": ""})["referenced_keys"] == ["used"]
    assert reference_violations(defined, refs, {"lonely": "", "gone": ""})["undefined_keys"] == ["gone"]


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


def _load_perfbench(name: str, monkeypatch):
    """A perfbench module loaded by path under the name its siblings import
    it by; the name leaves sys.modules again after the test."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_workloads_run_one_instance(monkeypatch):
    """Each workload builds from seed 0, runs its first instance (for
    fuzz_all, the first instance seed's six suites) and verifies it with no
    failure; the make_dual rung counter reads the dual_wide object's size."""
    workloads = _load_perfbench("workloads", monkeypatch)
    _load_perfbench("tracer", monkeypatch)
    layers = _load_perfbench("layers", monkeypatch)
    built = {name: w.build(0) for name, w in workloads.WORKLOADS.items()}
    for name, w in workloads.WORKLOADS.items():
        first = built[name][:len(w.suite_names) if name == "fuzz_all" else 1]
        verdicts = w.verify(first, [w.run(inst) for inst in first])
        assert verdicts.attempted > 0 and verdicts.failures == [], name
    obj, _ = built["dual_wide"][0].data
    counts = Counter()
    layers.COUNTERS["make_dual"](counts, (obj,), None, 0.25)
    assert counts == {f"dualtrace.make_dual.n{obj.space.size}.incl_s": 0.25}


def test_every_package_function_has_a_caller_or_states_the_paper():
    defined = {name for m in MODULES for name in defined_names(_source(m))}
    referenced = {qualname.split(".")[0] for _, qualname, _ in module_constants(LAYERS, {"TRACED"})["TRACED"]}
    for directory in CALLERS:
        for path in sorted((TESTS.parent / directory).rglob("*.py")):
            referenced |= referenced_names(path.read_text(encoding="utf-8"))
    assert reference_violations(defined, referenced, PAPER_STATEMENTS) == {
        "unreferenced": [], "referenced_keys": [], "undefined_keys": [],
    }
    assert len(PAPER_STATEMENTS) <= 8
