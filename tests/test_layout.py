"""Package layout: every import of src/spantrace and of the tests sits at
module level, the package modules' imports of one another form no cycle,
every function the benchmark traces still exists under its name, every
benchmark workload runs one instance correctly, and traffic calls every
function and method of the package and instantiates every class but a
short allowlist.

Traffic is ``fuzz --suite all --seed 7 --count 10``, ``report`` in both
formats on its output, and ``check``, ``trace`` and ``lv`` on each fixture.
``python tests/test_layout.py DIR`` runs it with its calls traced, its
report under DIR, and prints the exit codes and the names that ran as
JSON; the test runs that in a fresh interpreter, so no cache an earlier
test warmed hides a function."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import subprocess
import sys
from collections import Counter
from collections.abc import Callable
from pathlib import Path

from spantrace.suites import run_suite
from statements import clear_caches

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spantrace"
PERFBENCH = TESTS.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"
FIXTURES = TESTS / "fixtures"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
FUZZ = ("fuzz", "--suite", "all", "--seed", "7", "--count", "10")

# The functions of the package that traffic does not run, each with the
# reason it stays.
TRAFFIC_ALLOWLIST = {
    "corrcat.CCObject": "perfbench/workloads.py builds its objects through it",
    "instances.emit_instance": "perfbench/workloads.py writes its pair instances with it",
    "instances._name_of": "emit_instance names each space, object and span with it",
    "generate.wide_object": "the wide family of scripts/sweep_make_dual.py",
    "generate.deep_object": "the deep family of scripts/sweep_make_dual.py",
    "cli._verification_raised": "error path: a verification of a parsed file raised",
    "chainalg.OnDemand.__repr__": "debugging aid: shows the entries built so far",
    "chainalg.Matrix.__repr__": "debugging aid: shows the dense entries",
    "chainalg.Matrix.entries": "the dense view: emit_instance writes stalks and components with it, "
                               "and tests compare it with list-of-lists oracles",
    "chainalg.OnDemand.__hash__": "traffic keys tensors by construction (Complex.key), so any traffic run "
                                  "of it is a regression that builds every differential; tests hash "
                                  "tensors to compare them with eager oracles",
    "chainalg.OnDemand.__eq__": "value equality, which reads every entry; tests compare tensors with eager "
                                "oracles; traffic never compares two distinct tensors",
    "chainalg.OnDemand.__iter__": "reads every entry; traffic reads differentials and components by index",
    "chainalg.OnDemand.__len__": "Sequence protocol; traffic sizes nothing by an OnDemand",
    "sheafops.ProductSheaf.stalks": "a tensor's stalks listed out at once; traffic reads them one at a time",
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


def record_calls(run: Callable[[], object], modules: set[str]) -> set[str]:
    """Run run() under sys.settrace; as "module.qualname", the functions of
    the given modules that were called and their classes that were
    instantiated, with every base of those classes in the given modules.
    Only call events are traced, so this costs little more than the run."""
    ran: set[str] = set()
    made: set[type] = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_flags & inspect.CO_OPTIMIZED and frame.f_globals.get("__name__") in modules:
            ran.add(f"{frame.f_globals['__name__']}.{code.co_qualname}")  # not a class body
        if code.co_name == "__init__" and code.co_argcount:
            made.add(type(frame.f_locals[code.co_varnames[0]]))
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran | {f"{c.__module__}.{c.__qualname__}" for t in made for c in t.__mro__ if c.__module__ in modules}


def definitions(source: str) -> set[str]:
    """The qualified names of the functions, methods and classes of a module."""
    names = set()

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(prefix + child.name)
                inner = "." if isinstance(child, ast.ClassDef) else ".<locals>."
                visit(child, prefix + child.name + inner)
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return names


def traffic_violations(defined: set[str], ran: set[str], allowlist: dict) -> dict:
    """Defined names that did not run and the allowlist does not name,
    allowlisted names that ran, and allowlist entries naming nothing.  A
    class ran if it was instantiated or one of its methods was called."""
    unrun = {name for name in defined if name not in ran and not any(r.startswith(name + ".") for r in ran)}
    return {
        "unrun": sorted(unrun - set(allowlist)),
        "allowlisted_ran": sorted(set(allowlist) & (defined - unrun)),
        "allowlisted_gone": sorted(set(allowlist) - defined),
    }


def run_traffic(workdir: Path) -> dict[str, int]:
    """Run the traffic through spantrace.cli.main, writing its report
    under workdir and discarding the rest of its output; the exit code of
    each command."""
    cli = importlib.import_module("spantrace.cli")
    codes = {}

    def run(key: str, *argv: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes[key] = cli.main(list(argv))
        return out.getvalue()

    report = workdir / "fuzz_all.json"
    report.write_text(run("fuzz", *FUZZ), encoding="utf-8")
    for fmt in ("text", "json"):
        run(f"report {fmt}", "report", "--format", fmt, str(report))
    for fixture in sorted(FIXTURES.glob("*.json")):
        for command in ("check", "trace", "lv"):
            run(f"{command} {fixture.name}", command, str(fixture))
    return codes


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


def every_cache() -> dict:
    """name -> cache of every object with a cache_info that a package
    module, or a class of one, holds: a memo added anywhere is found."""
    found = {}
    for name in MODULES:
        if name == "__main__":  # importing it runs the command line
            continue
        for key, obj in vars(importlib.import_module(f"spantrace.{name}")).items():
            found[f"{name}.{key}"] = obj
            if inspect.isclass(obj):
                found.update((f"{name}.{key}.{k}", getattr(v, "__func__", v)) for k, v in vars(obj).items())
    return {name: obj for name, obj in found.items() if hasattr(obj, "cache_info")}


def test_clear_caches_empties_every_package_cache():
    """After a suite run fills them, clear_caches leaves every cache of the
    package empty: the memo slots, the kernel caches, the identities,
    make_dual's memo, the generator's pieces and the draws' memos among
    them.  The table of rings is no cache, and neither finds it."""
    assert run_suite("all", 5, 1).ok
    filled = {name for name, fn in every_cache().items() if fn.cache_info().currsize}
    assert {"chainalg._kept", "chainalg._identity_by_key", "chainalg.cx_tensor", "dualtrace.make_dual",
            "generate.piece_complex", "generate.random_lv_instance", "generate.random_pair_instance"} <= filled
    clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in every_cache().items() if fn.cache_info().currsize} == {}


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


PLANTED = """
from dataclasses import dataclass
def called(x):
    return helper(x) + 1
def helper(x):
    def inner():
        return x
    return 2 * x
def planted():
    return 0
class Kept:
    def used(self):
        return 1
    def unused(self):
        return 2
@dataclass(frozen=True)
class Made:
    x: int
class Sub(Made):
    pass
@dataclass(frozen=True)
class Dead:
    x: int
"""


def test_traffic_rule_catches_violations():
    namespace = {"__name__": "planted"}
    exec(compile(PLANTED, "<planted>", "exec"), namespace)
    ran = record_calls(lambda: (namespace["called"](3), namespace["Kept"]().used(), namespace["Sub"](1)),
                       {"planted"})
    ran = {name.removeprefix("planted.") for name in ran}
    defined = definitions(PLANTED)
    assert defined == {"called", "helper", "helper.<locals>.inner", "planted", "Kept", "Kept.used",
                       "Kept.unused", "Made", "Sub", "Dead"}
    # a function never called is reported, and so is a nested one its caller
    # never ran and a class never instantiated; a base of one made is not
    unrun = ["Dead", "Kept.unused", "helper.<locals>.inner", "planted"]
    assert traffic_violations(defined, ran, {})["unrun"] == unrun
    allow = dict.fromkeys(unrun, "a reason")
    assert traffic_violations(defined, ran, allow) == {
        "unrun": [], "allowlisted_ran": [], "allowlisted_gone": [],
    }
    # an allowlist entry that ran, or names nothing, fails too
    assert traffic_violations(defined, ran, {**allow, "helper": ""})["allowlisted_ran"] == ["helper"]
    assert traffic_violations(defined, ran, {**allow, "Made": ""})["allowlisted_ran"] == ["Made"]
    assert traffic_violations(defined, ran, {**allow, "gone": ""})["allowlisted_gone"] == ["gone"]


def test_traffic_runs_every_package_function_but_the_allowlist(tmp_path):
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    # every command ran as in use: lv on the fixture without a diagram is an input error
    assert doc["exit_codes"] == {key: 2 if key == "lv two_point.json" else 0 for key in doc["exit_codes"]}
    assert len(doc["exit_codes"]) == 3 + 3 * len(list(FIXTURES.glob("*.json")))
    defined = {f"{name}.{d}" for name in MODULES for d in definitions(_source(name))}
    ran = {name.removeprefix("spantrace.") for name in doc["ran"]}
    assert traffic_violations(defined, ran, TRAFFIC_ALLOWLIST) == {
        "unrun": [], "allowlisted_ran": [], "allowlisted_gone": [],
    }
    assert len(TRAFFIC_ALLOWLIST) <= 14 and all(TRAFFIC_ALLOWLIST.values())


if __name__ == "__main__":
    sys.path.insert(0, str(PACKAGE.parent))
    exit_codes = {}
    ran = record_calls(lambda: exit_codes.update(run_traffic(Path(sys.argv[1]))),
                       {f"spantrace.{name}" for name in MODULES})
    json.dump({"exit_codes": exit_codes, "ran": sorted(ran)}, sys.stdout)
