"""Package layout: every import of src/spantrace and of the tests sits at
module level, the package modules' imports of one another form no cycle,
object.__setattr__ stores a field only in Ring.__new__, the computation
makes no reference cycles (the collector policy rests on it), every
function the benchmark traces still exists under its name, every benchmark
workload runs one instance correctly, and traffic runs every function,
class and statement of the package but short allowlists.

Traffic is what the command line does in use: ``fuzz --suite all --seed 5
--count 40``, ``report`` in both formats on its output, ``report`` on a
failed report read from standard input, a small ``fuzz`` over Z/1 with
ranks capped at 1, and ``check``, ``trace`` and ``lv`` on each fixture.
Two rules read it:

* the function rule: every function and method is called, and every class
  instantiated or one of its methods called, unless TRAFFIC_ALLOWLIST
  names it;
* the line rule: every statement of a function body runs, unless it is a
  ``raise`` or a comparison's ``return NotImplemented``, lies in a function
  TRAFFIC_ALLOWLIST names, or LINE_ALLOWLIST names it by its function and
  the text of its first line.  A statement ran if a line event fell on its
  own lines, from its first to the last before its first nested statement;
  one inside a statement that never ran is not reported again.

An allowlist entry that runs, or names nothing, fails too.
``python tests/test_layout.py DIR`` runs the traffic traced, its reports
under DIR, and prints as JSON the exit codes, the names that ran and the
statements the line rule finds unrun; the test runs that in a fresh
interpreter, so no cache an earlier test warmed hides a function or a
line."""

import ast
import contextlib
import gc
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
from typing import NamedTuple

import pytest

from spantrace import dualtrace, suites
from spantrace.chainalg import ZZ, Ring, map_compose_shared
from spantrace.corrcat import cc_identity
from spantrace.dualtrace import local_pairing, make_dual, pairing, trace
from spantrace.generate import GenParams
from spantrace.instances import omega_doc, parse_instance
from spantrace.suites import parse_report, report_doc, report_emit, run_suite
from statements import biting_lv_diagram, clear_caches, deep_object, every_small_diagram, seeds, wide_object

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spantrace"
PERFBENCH = TESTS.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"
FIXTURES = TESTS / "fixtures"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
FUZZ = ("fuzz", "--suite", "all", "--seed", "5", "--count", "40")
# over Z/1 every value is 0, so the sign -1 scales by zero; a rank cap of 1 drops pieces
SMALL_FUZZ = ("fuzz", "--suite", "all", "--seed", "1", "--count", "2", "--max-rank", "1", "--modulus", "1")
# a report with a failed check, as a fault in the program would leave one
FAILED_REPORT = json.dumps({
    "suite": "symmetry", "seed": 0, "count": 1, "failures": 1, "elapsed_seconds": 0.0,
    "checks": [{"index": 0, "name": "verification raised", "status": "fail",
                "detail": {"error": "ValueError", "message": "pairing not symmetric", "child_seed": 1}}],
})
COMPARISONS = {"__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"}

# The functions of the package that traffic does not run, each with the
# reason it stays.
TRAFFIC_ALLOWLIST = {
    "corrcat.CCObject": "perfbench/workloads.py builds its objects through it",
    "instances.emit_instance": "perfbench/workloads.py writes its pair instances with it",
    "instances._name_of": "emit_instance names each space, object and span with it",
    "chainalg.mat_kron": "the Kronecker product, _placed's one-block case: tests hold it to the dense "
                         "oracle and perfbench/layers.py traces it by name; tensor components place "
                         "their blocks through _placed",
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
    "chainalg.OnDemand.__len__": "Sequence protocol; traffic sizes nothing by an OnDemand",
    "sheafops.ProductSheaf.stalks": "a tensor's stalks listed out at once; traffic reads them one at a time",
}

# The statements of functions that traffic runs which traffic does not
# run, by (function, text of the first line), each with the reason it stays.
LINE_ALLOWLIST = {
    ("chainalg.OnDemand.__getitem__", "return tuple(map(self.__getitem__, range(len(self._done))[i]))"):
        "Sequence slicing, which comparing and hashing read through; only tests slice, compare or hash an "
        "OnDemand, traffic reads its entries by index",
    ("cli._dispatch", "return _verification_raised(e)"):
        "error path of trace and lv: a verification of a parsed file raised",
    ("corrcat.cc_cell_check", "zero = tuple((n, mat_zero(m.ring, m.rows, m.cols)) for n, m in expect.components)"):
        "a cell whose fiber has several components, or none, summed from zero; traffic's cells have one",
    ("corrcat.cc_cell_check", "got = reduce(map_add, parts, ChainMap(expect.source, expect.target, zero))"):
        "the same sum as the line before",
    ("finspan.FinOver.__post_init__", "x, a = next((x, a) for x, a in zip(self.elements, self.anchor) if a in stray)"):
        "error path: the element whose anchor is not a base element, named by the raise that follows",
    ("suites._guarded", 'yield Check(index, "verification raised", "fail",'):
        "error path: a verification raised inside a suite",
}


# The package functions that both the pointwise oracle (local_pairing) and
# the categorical pairing (pairing, with make_dual) run, each with the reason
# it may be shared: value classes' constructors and accessors, no cache and
# no kernel.
ORACLE_SHARED = {
    "chainalg.Ring.norm": "a ring element's normal form, which both sides report",
    "finspan.FinOver.__init__": "the constructor of the fixed-point set both sides are valued on",
    "finspan.FinOver.__post_init__": "the same constructor's checks",
    "finspan.FinOver.size": "OmegaClass checks its values against the size of its carrier",
    "finspan.Span.apex": "the accessor of a span's apex",
    "sheafops.OmegaClass.__init__": "the constructor of the values both sides return",
    "sheafops.OmegaClass.__post_init__": "the same constructor's checks",
    "sheafops.Sheaf.__eq__": "the boundary check compares the objects of the two morphisms",
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


def setattr_sites(source: str) -> list[str]:
    """The qualified name of the function around each call of
    object.__setattr__ in a module, "<module>" outside any: the store a
    frozen dataclass needs, and a plain one does not."""
    sites = []

    def visit(node, scope: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                visit(child, scope if isinstance(child, ast.ClassDef) else name, name + ".")
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                sites.append(scope)
            visit(child, scope, prefix)

    visit(ast.parse(source), "<module>", "")
    return sites


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


def imported_roots(source: str) -> set[str]:
    """The top-level names of the modules a module imports, absolutely."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
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


def record_run(run: Callable[[], object], modules: set[str]) -> tuple[set[str], dict[str, set[int]]]:
    """Run run() under sys.settrace.  As "module.qualname", the functions of
    the given modules that were called and their classes that were
    instantiated, with every base of those classes in the given modules;
    and by module, the lines that ran of code compiled from the module's
    own file (not, say, a dataclass's generated __init__).  Only the
    frames of those modules trace their lines."""
    ran: set[str] = set()
    made: set[type] = set()
    lines: dict[str, set[int]] = {module: set() for module in modules}

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_name == "__init__" and code.co_argcount:
            made.add(type(frame.f_locals[code.co_varnames[0]]))
        module = frame.f_globals.get("__name__")
        if module not in modules:
            return None
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a class body
            ran.add(f"{module}.{code.co_qualname}")
        if code.co_filename != frame.f_globals.get("__file__"):
            return None
        hit = lines[module].add

        def on_line(frame, event, arg):
            if event == "line":
                hit(frame.f_lineno)
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    made_names = {f"{c.__module__}.{c.__qualname__}" for t in made for c in t.__mro__ if c.__module__ in modules}
    return ran | made_names, lines


def record_profile(run: Callable[[], object]) -> tuple[set[str], set[str]]:
    """Run run() under sys.setprofile.  As "module.qualname", the package
    functions called, and the package caches asked, hit or miss: for the
    run, each cache is wrapped in every package module that holds it."""
    ran: set[str] = set()
    asked: set[str] = set()

    def on_event(frame, event, arg):
        module, code = frame.f_globals.get("__name__", ""), frame.f_code
        if event == "call" and module.startswith("spantrace."):
            own = code.co_filename == frame.f_globals.get("__file__")  # not a dataclass's generated method
            owner = code.co_qualname if own else f"{type(frame.f_locals['self']).__qualname__}.{code.co_name}"
            ran.add(f"{module.removeprefix('spantrace.')}.{owner}")

    def asking(cache, name):
        def wrapper(*args):
            asked.add(name)
            return cache(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for module in MODULES:
            if module != "__main__":
                for key, obj in list(vars(owner := importlib.import_module(f"spantrace.{module}")).items()):
                    if hasattr(obj, "cache_info"):
                        fn = getattr(obj, "__wrapped__", obj)
                        home = fn.__module__.removeprefix("spantrace.")
                        mp.setattr(owner, key, asking(obj, f"{home}.{fn.__qualname__}"))
        sys.setprofile(on_event)
        try:
            run()
        finally:
            sys.setprofile(None)
    return ran, asked


def oracle_violations(oracle: tuple[set[str], set[str]], categorical: tuple[set[str], set[str]],
                      table: dict[str, str]) -> dict:
    """Against a table of what the oracle may share: the functions both sides
    ran that the table does not name, the entries neither shared, and the
    caches the oracle asked or the table names, and the kernels (chainalg's
    module-level functions) it names."""
    shared = oracle[0] & categorical[0]
    kernels = {f"chainalg.{name}" for name, obj in vars(importlib.import_module("spantrace.chainalg")).items()
               if inspect.isfunction(obj) or hasattr(obj, "cache_info")}
    return {
        "unlisted": sorted(shared - set(table)),
        "listed_unshared": sorted(set(table) - shared),
        "caches": sorted(oracle[1] | (set(table) & set(every_cache()))),
        "kernels": sorted(set(table) & kernels),
    }


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


class Statement(NamedTuple):
    function: str  # the qualified name of the function whose body holds it
    text: str  # its first line, stripped
    lines: range  # its own lines, before its first nested statement
    parent: int | None  # the index of the statement around it, if any
    exempt: bool  # a raise, or a comparison's return NotImplemented


def body_statements(source: str) -> list[Statement]:
    """The statements of the function bodies of a module, each before the
    ones nested in it.  A function's docstring compiles to no code and is
    left out; a statement's first line is its first decorator's, if any."""
    text = source.splitlines()
    out: list[Statement] = []

    def block(stmts: list[ast.stmt], function: str, parent: int | None) -> None:
        for st in stmts:
            if parent is None and st is stmts[0] and isinstance(st, ast.Expr) and isinstance(
                    st.value, ast.Constant) and isinstance(st.value.value, str):
                continue
            nested = [*getattr(st, "body", ()), *getattr(st, "orelse", ()), *getattr(st, "finalbody", ()),
                      *(s for h in getattr(st, "handlers", ()) for s in h.body)]
            first = min([st.lineno] + [d.lineno for d in getattr(st, "decorator_list", ())])
            last = min((s.lineno for s in nested), default=st.end_lineno + 1) - 1
            exempt = isinstance(st, ast.Raise) or (
                isinstance(st, ast.Return) and isinstance(st.value, ast.Name) and st.value.id == "NotImplemented"
                and function.rsplit(".", 1)[-1] in COMPARISONS)
            out.append(Statement(function, text[first - 1].strip(), range(first, last + 1), parent, exempt))
            if not isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                block(nested, function, len(out) - 1)

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                block(child.body, prefix + child.name, None)
                visit(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def unrun_statements(stmts: list[Statement], lines: set[int]) -> list[tuple[str, int, str]]:
    """(function, first line, text) of each statement that is not exempt
    and did not run, although the statement around it, if any, did."""
    ran = [not lines.isdisjoint(st.lines) for st in stmts]
    return [(st.function, st.lines.start, st.text) for i, st in enumerate(stmts)
            if not ran[i] and not st.exempt and (st.parent is None or ran[st.parent])]


def line_violations(named: set[tuple[str, str]], unrun: list[tuple[str, int, str]], functions: dict,
                    lines: dict) -> dict:
    """The unrun statements that lie in no function of the functions
    allowlist and that the lines allowlist does not name by (function,
    text); the line entries naming statements that ran, or that the
    functions allowlist excuses; and those naming no statement."""
    flagged = [(f, n, t) for f, n, t in unrun if not any(f == g or f.startswith(g + ".") for g in functions)]
    return {
        "unrun": sorted(f"{f}:{n}: {t}" for f, n, t in flagged if (f, t) not in lines),
        "line_allowlisted_ran": sorted((set(lines) & named) - {(f, t) for f, _, t in flagged}),
        "line_allowlisted_gone": sorted(set(lines) - named),
    }


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

    def run(key: str, *argv: str, stdin: str = "") -> str:
        out, saved = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes[key] = cli.main(list(argv))
        finally:
            sys.stdin = saved
        return out.getvalue()

    report = workdir / "fuzz_all.json"
    report.write_text(run("fuzz", *FUZZ), encoding="utf-8")
    for fmt in ("text", "json"):
        run(f"report {fmt}", "report", "--format", fmt, str(report))
    run("report stdin", "report", "--format", "text", stdin=FAILED_REPORT)
    run("fuzz small", *SMALL_FUZZ)
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


def test_tests_draw_seed_lists_and_start_with_empty_caches():
    """No module of the tests or scripts imports hypothesis: each randomised
    test runs on a fixed seed list (statements.seeded), so every run tests
    the same inputs.  tests/conftest.py, the only conftest, empties every
    package cache before each test, so no verdict depends on the tests run
    before it, and this test finds every cache empty."""
    files = sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "scripts").glob("*.py"))
    assert [p.name for p in files if "hypothesis" in imported_roots(p.read_text(encoding="utf-8"))] == []
    assert sorted(TESTS.parent.rglob("conftest.py")) == [TESTS / "conftest.py"]
    conftest = (TESTS / "conftest.py").read_text(encoding="utf-8")
    assert "clear_caches()" in conftest[conftest.index("@pytest.fixture(autouse=True)"):]
    assert {name: fn.cache_info().currsize for name, fn in every_cache().items() if fn.cache_info().currsize} == {}


def test_object_setattr_stores_only_a_ring():
    """The values are plain dataclasses, read-only by convention, so
    object.__setattr__ stores a field in one place alone: Ring.__new__,
    which keeps one frozen Ring per modulus."""
    sites = [f"{name}.{site}" for name in MODULES for site in setattr_sites(_source(name))]
    assert sites == ["chainalg.Ring.__new__"]


def test_package_import_graph_is_acyclic():
    graph = {name: package_imports(_source(name), MODULES) & set(MODULES) for name in MODULES}
    assert graph["cli"] >= {"dualtrace", "suites"}  # the walk sees relative imports
    assert find_cycle(graph) is None


def test_layout_checks_catch_violations():
    assert local_imports("import json\n\ndef f():\n    from .x import y\n    return y\n") == [4]
    assert local_imports("class C:\n    def m(self):\n        import os\n") == [3]
    assert local_imports("import json\nfrom .chainalg import mat\n") == []
    assert setattr_sites("class A:\n    def f(self):\n        object.__setattr__(self, 'x', 1)\n"
                         "        setattr(self, 'y', 2)\nobject.__setattr__(A, 'z', 3)\n") == ["A.f", "<module>"]
    mods = ["a", "b", "c"]
    assert package_imports("from .a import x\nimport spantrace.b\nfrom . import c, z\n", mods) == {
        "a", "b", "c", "__init__",
    }
    assert package_imports("from spantrace.c import x\nimport json\nfrom json import dumps\n", mods) == {"c"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"a"}}) == ["a", "a"]
    assert imported_roots("import os.path\nfrom hypothesis import given\nfrom . import x\n") == {"os", "hypothesis"}
    # the oracle rule fails when the oracle composes through the shared memo
    # or reads make_dual, and when its table names a kernel or a cache
    u, v = next((u, v) for u, v in oracle_pairs() if u.maps and v.maps)
    categorical = record_profile(lambda: pairing(u, v, make_dual(u.source)))
    composing = record_profile(lambda: (local_pairing(u, v), map_compose_shared(v.maps[0], u.maps[0])))
    found = oracle_violations(composing, categorical, ORACLE_SHARED)
    assert {"chainalg.map_compose_shared", "chainalg.memo"} <= set(found["unlisted"])
    assert "chainalg._kept" in found["caches"]
    dual_reading = record_profile(lambda: (local_pairing(u, v), dualtrace.make_dual(u.source)))
    assert "dualtrace.make_dual" in oracle_violations(dual_reading, categorical, ORACLE_SHARED)["caches"]
    named = oracle_violations(record_profile(lambda: local_pairing(u, v)), categorical,
                              {**ORACLE_SHARED, "chainalg.mat_mul": "", "chainalg.map_identity": ""})
    assert named["kernels"] == ["chainalg.map_identity", "chainalg.mat_mul"]
    assert named["caches"] == ["chainalg.map_identity"]
    assert named["listed_unshared"] == ["chainalg.map_identity", "chainalg.mat_mul"]


def oracle_pairs() -> list[tuple]:
    """The pairs the oracle rule runs on: criterion 11's scope over Z/2 and
    80 diagrams of statements.biting_lv_diagram over Z and Z/7."""
    rects = [*every_small_diagram(Ring(2)), *(biting_lv_diagram(seed, Ring(modulus))
                                              for modulus in (0, 7) for seed in seeds(0x0AC1E + modulus, 40))]
    return [(rect.u, rect.v) for rect in rects]


def test_the_oracle_shares_only_value_classes_with_the_categorical_pairing():
    """The pointwise oracle (local_pairing) and the categorical pairing
    (pairing, with make_dual) share exactly the functions ORACLE_SHARED
    names, each with its reason: value classes' constructors and accessors.
    The oracle asks no cache, and the table names no cache and no kernel."""
    oracle, categorical = (set(), set()), (set(), set())
    for u, v in oracle_pairs():
        for side, run in ((oracle, lambda: local_pairing(u, v)),
                          (categorical, lambda: pairing(u, v, make_dual(u.source)))):
            ran, asked = record_profile(run)
            side[0].update(ran)
            side[1].update(asked)
    assert oracle_violations(oracle, categorical, ORACLE_SHARED) == {
        "unlisted": [], "listed_unshared": [], "caches": [], "kernels": [],
    }
    assert all(ORACLE_SHARED.values())


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
    assert {"chainalg._kept", "chainalg.map_identity", "chainalg.cx_tensor", "dualtrace.make_dual",
            "generate.piece_complex", "generate.random_lv_instance", "generate.random_pair_instance"} <= filled
    clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in every_cache().items() if fn.cache_info().currsize} == {}


def test_the_computation_makes_no_reference_cycles(monkeypatch):
    """Everything below the argument parser frees what it builds by
    reference counting: with automatic collection off, a collection after
    the suites (at moduli 0, 7, 2 and 1, and with a verification that
    raises inside _guarded), make_dual and trace on the wide and deep
    families, parsing the fixtures with what check, trace and lv compute
    on them, and parse_report on a fuzz report finds no garbage.  The
    collector policy of spantrace/__init__.py rests on this; the
    thresholds it sets are pinned too.  (Formatting JSON with an indent,
    as the CLI's output does, and argparse's parser make small cycles of
    the standard library's own.)"""
    assert gc.get_threshold() == (50_000, 20, 100)
    report = report_emit(report_doc(run_suite("all", 1, 2)), "json")
    fixtures = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.json"))]
    source, symmetry = suites._SUITES["symmetry"]

    def raising(pair):
        yield from symmetry(pair)
        raise ValueError("a fault in the program under test")

    def compute():
        for modulus in (0, 7, 2, 1):
            assert run_suite("all", 3, 3, GenParams(modulus=modulus)).count == 3
        monkeypatch.setitem(suites._SUITES, "symmetry", (source, raising))
        raised = run_suite("all", 3, 3)
        monkeypatch.setitem(suites._SUITES, "symmetry", (source, symmetry))
        assert [c.index for c in raised.checks if c.name == "symmetry: verification raised"] == [0, 1, 2]
        for obj in (wide_object(ZZ, 6), deep_object(ZZ, 8)):
            trace(cc_identity(obj), make_dual(obj))
        for text in fixtures:
            inst = parse_instance(text)
            for m in inst.morphisms.values():
                if m.source == m.target:
                    omega_doc(trace(m, make_dual(m.source)).omega)
            if inst.lv is not None:
                [(_, _, (pushed, rhs))] = suites.lv_checks(inst.lv)
                omega_doc(pushed), omega_doc(rhs)
        parse_report(report)

    clear_caches()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        compute()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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


def _run_planted(source: str, run: Callable[[dict], object]) -> tuple[set[str], set[int]]:
    """The names and the lines that ran of source while run(its namespace) ran."""
    namespace = {"__name__": "planted", "__file__": "<planted>"}
    exec(compile(source, "<planted>", "exec"), namespace)
    ran, lines = record_run(lambda: run(namespace), {"planted"})
    return {name.removeprefix("planted.") for name in ran}, lines["planted"]


def test_traffic_rule_catches_violations():
    ran, _ = _run_planted(PLANTED, lambda ns: (ns["called"](3), ns["Kept"]().used(), ns["Sub"](1)))
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


PLANTED_LINES = """
def called(x):
    \"\"\"A docstring, which compiles to no code.\"\"\"
    if x < 0:
        raise ValueError(x)
    total = (
        x
        + 1
    )
    if (  # the line event falls on the condition's line, not on this one
        x > 100
    ):
        for y in range(x):
            x += y
        return 0
    return skipped(x) if x > 50 else total
def skipped(x):
    return x
class Kept:
    def __eq__(self, other):
        if not isinstance(other, Kept):
            return NotImplemented
        return True
    def unused(self):
        return NotImplemented
"""


def test_line_rule_catches_violations():
    _, lines = _run_planted(PLANTED_LINES, lambda ns: (ns["called"](3), ns["Kept"]() == ns["Kept"]()))
    stmts = body_statements(PLANTED_LINES)
    named = {(st.function, st.text) for st in stmts}
    assert ("called", '"""A docstring, which compiles to no code."""') not in named
    # an unrun statement of a function that ran is reported, but not one
    # inside it, a raise or a comparison's return NotImplemented; a
    # statement spread over lines runs if any of its own lines does
    unrun = unrun_statements(stmts, lines)
    assert [(f, t) for f, _, t in unrun] == [
        ("called", "for y in range(x):"), ("called", "return 0"), ("skipped", "return x"),
        ("Kept.unused", "return NotImplemented"),
    ]
    assert line_violations(named, unrun, {}, {})["unrun"] == sorted(f"{f}:{n}: {t}" for f, n, t in unrun)
    functions = {"skipped": "a reason", "Kept": "a reason"}  # a class's entry covers its methods
    entries = {("called", "for y in range(x):"): "a reason", ("called", "return 0"): "a reason"}
    clean = {"unrun": [], "line_allowlisted_ran": [], "line_allowlisted_gone": []}
    assert line_violations(named, unrun, functions, entries) == clean
    # a line entry naming a statement that ran, is exempt, lies inside an
    # unrun one or in an allowlisted function fails, and so does one naming nothing
    for key in [("called", "return skipped(x) if x > 50 else total"), ("called", "raise ValueError(x)"),
                ("called", "x += y"), ("skipped", "return x")]:
        assert line_violations(named, unrun, functions, {**entries, key: ""})["line_allowlisted_ran"] == [key]
    gone = ("called", "return 1")
    assert line_violations(named, unrun, functions, {**entries, gone: ""})["line_allowlisted_gone"] == [gone]


def test_traffic_runs_every_package_function_but_the_allowlist(tmp_path):
    """Both rules on the package: its functions and classes, then the
    statements of its function bodies."""
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    # every command ran as in use: lv on the fixture without a diagram is an input error
    assert doc["exit_codes"] == {key: 2 if key == "lv two_point.json" else 0 for key in doc["exit_codes"]}
    assert len(doc["exit_codes"]) == 5 + 3 * len(list(FIXTURES.glob("*.json")))
    defined = {f"{name}.{d}" for name in MODULES for d in definitions(_source(name))}
    ran = {name.removeprefix("spantrace.") for name in doc["ran"]}
    assert traffic_violations(defined, ran, TRAFFIC_ALLOWLIST) == {
        "unrun": [], "allowlisted_ran": [], "allowlisted_gone": [],
    }
    assert len(TRAFFIC_ALLOWLIST) <= 12 and all(TRAFFIC_ALLOWLIST.values())
    named = {(f"{name}.{st.function}", st.text) for name in MODULES for st in body_statements(_source(name))}
    assert line_violations(named, [tuple(u) for u in doc["unrun"]], TRAFFIC_ALLOWLIST, LINE_ALLOWLIST) == {
        "unrun": [], "line_allowlisted_ran": [], "line_allowlisted_gone": [],
    }
    assert len(LINE_ALLOWLIST) <= 20 and all(LINE_ALLOWLIST.values())


if __name__ == "__main__":
    sys.path.insert(0, str(PACKAGE.parent))
    exit_codes = {}
    ran, lines = record_run(lambda: exit_codes.update(run_traffic(Path(sys.argv[1]))),
                            {f"spantrace.{name}" for name in MODULES})
    unrun = [(f"{name}.{f}", n, t) for name in MODULES
             for f, n, t in unrun_statements(body_statements(_source(name)), lines[f"spantrace.{name}"])]
    json.dump({"exit_codes": exit_codes, "ran": sorted(ran), "unrun": unrun}, sys.stdout, indent=0)
