"""Verification suites over seeded random instances, with machine reports."""

from __future__ import annotations

import json
import random
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

from .basefunc import BaseChange, functor_preserves, pull_object, push2_strict
from .chainalg import alt_trace
from .corrcat import CCMorphism, shriek_push
from .dualtrace import (
    PushRectangles,
    local_pairing,
    make_dual,
    pairing,
    pairing_functorial,
    pairing_symmetry,
    trace,
)
from .finspan import Span, base_space, om_anchor
from .generate import (
    GenParams,
    random_base_change_for,
    random_endo_instance,
    random_lv_instance,
    random_object_instance,
    random_pair_instance,
)
from .instances import ParseError, load_json, omega_doc
from .sheafops import OmegaClass, Sheaf, verdier

@dataclass
class Check:
    index: int
    name: str
    status: str  # "pass" | "fail"
    detail: dict | None = None


@dataclass
class Report:
    suite: str
    seed: int
    count: int
    params: GenParams
    checks: list[Check] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if c.status != "pass")

    @property
    def ok(self) -> bool:
        return self.failures == 0


# Each suite is a (source, body): the source maps a child seed and params to an
# instance; the body yields, for each check of it, the check's name, its verdict
# (not always lhs == rhs) and the two values it compares, (lhs, rhs), or None.


def lv_checks(rect: PushRectangles) -> Iterator[tuple]:
    pushed, rhs = pairing_functorial(rect)
    yield "pushforward trace identity", pushed == rhs, (pushed, rhs)


def global_checks(e: CCMorphism) -> Iterator[tuple]:
    tr = trace(e, make_dual(e.source)).omega
    local_total = tr.ring.norm(sum(tr.values))
    s = base_space(e.source.space.base)  # one point: e lies over a one-point base
    a_x, point = om_anchor(e.source.space), Span(om_anchor(s), om_anchor(s))
    total = alt_trace(shriek_push(e, a_x, om_anchor(e.span.apex), a_x, point).map_at(s.elements[0]))
    yield "sum of local terms equals global alternating trace", local_total == total, (local_total, total)


def triangle_checks(obj: Sheaf) -> Iterator[tuple]:
    d = make_dual(obj)  # a failed certificate raises, and _guarded reports it
    yield ("duality triangle certificates",
           d.triangle_obj.graph.is_bijective() and d.triangle_dual.graph.is_bijective(), None)
    yield "double dual is the identity on matrices", verdier(verdier(obj)) == obj, None


def symmetry_checks(pair: tuple[CCMorphism, CCMorphism]) -> Iterator[tuple]:
    u, v = pair
    lhs, rhs, swap = pairing_symmetry(u, v, make_dual(u.source), make_dual(v.source))  # or raises
    yield ("pairing symmetric through the swap",
           all(lhs.value(e) == rhs.value(swap(e)) for e in lhs.carrier.elements), None)


def basechange_checks(based: tuple[PushRectangles, BaseChange]) -> Iterator[tuple]:
    rect, bc = based
    d = make_dual(rect.u.source)
    duals = pull_object(bc, d.dual) == verdier(pull_object(bc, d.obj))
    lhs, rhs, recoord = functor_preserves(bc, d, rect.u, rect.v)  # or raises
    yield "pullback commutes with duals strictly", duals, None
    # compared after recoordination: the two sides lie on different carriers
    yield ("pullback commutes with pairings after recoordination",
           all(rhs.value(e) == lhs.value(recoord(e)) for e in rhs.carrier.elements)
           and rhs.carrier.size == lhs.carrier.size, (lhs, rhs))
    pulled, pushed = push2_strict(bc, rect)
    yield "pullback commutes with pushforward strictly", pulled == pushed, None


def oracle_checks(pair: tuple[CCMorphism, CCMorphism]) -> Iterator[tuple]:
    u, v = pair
    cat, loc = pairing(u, v, make_dual(u.source)).omega, local_pairing(u, v)
    yield "pairing equals pointwise alternating trace", cat == loc, (cat, loc)


def _pair(seed: int, params: GenParams) -> tuple[CCMorphism, CCMorphism]:
    return random_pair_instance(seed, params)[2:]


def _based_rect(seed: int, params: GenParams) -> tuple[PushRectangles, BaseChange]:
    inst = random_lv_instance(seed, params)
    return inst.lv, random_base_change_for(seed ^ 0x5A5A5A, inst.base, params)


_SUITES = {
    "lv": (lambda seed, params: random_lv_instance(seed, params).lv, lv_checks),
    "global": (lambda seed, params: random_endo_instance(seed, params)[1], global_checks),
    "triangle": (lambda seed, params: random_object_instance(seed, params).obj, triangle_checks),
    "symmetry": (_pair, symmetry_checks),
    "basechange": (_based_rect, basechange_checks),
    "oracle": (_pair, oracle_checks),
}
SUITE_NAMES = (*_SUITES, "all")  # "all" runs every suite in this order


def _guarded(suite: str, seed: int, index: int, params: GenParams) -> Iterator[Check]:
    """The checks of one suite on one child seed; an exception raised while
    drawing or verifying ends them with a failed check naming it and the
    child seed, so the checks already made and the rest of the report survive."""
    source, body = _SUITES[suite]
    try:
        for name, ok, sides in body(source(seed, params)):
            detail = sides and {key: omega_doc(x) if isinstance(x, OmegaClass) else x
                                for key, x in zip(("lhs", "rhs"), sides)}
            yield Check(index, name, "pass" if ok else "fail", None if ok else detail)
    except Exception as e:  # a fault in the program under test, reported as a check
        yield Check(index, "verification raised", "fail",
                    {"error": type(e).__name__, "message": str(e), "child_seed": seed})


def run_suite(name: str, seed: int, count: int, params: GenParams | None = None) -> Report:
    """The checks of suite name on count child seeds drawn from seed.

    "all" runs child-major, every suite on child 0 and then on child 1, so
    that the suites of one child share its draws and duality data through
    the memos of generate and make_dual.  It lists the checks suite-major,
    as the single-suite reports one after another."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    params = params or GenParams()
    names = list(_SUITES) if name == "all" else [name]
    report = Report(name, seed, count, params)
    start = time.perf_counter()
    master = random.Random(seed)
    child_seeds = [master.getrandbits(63) for _ in range(count)]
    checks: dict[str, list[Check]] = {suite: [] for suite in names}
    for i, child in enumerate(child_seeds):
        for suite in names:
            for check in _guarded(suite, child, i, params):
                if name == "all":
                    check.name = f"{suite}: {check.name}"
                checks[suite].append(check)
    report.checks = [c for suite in names for c in checks[suite]]
    report.elapsed_seconds = time.perf_counter() - start
    return report


def report_doc(report: Report) -> dict:
    return {
        "suite": report.suite,
        "seed": report.seed,
        "count": report.count,
        "params": asdict(report.params),
        "failures": report.failures,
        "checks": [
            {"index": c.index, "name": c.name, "status": c.status,
             **({"detail": c.detail} if c.detail else {})}
            for c in report.checks
        ],
        "elapsed_seconds": report.elapsed_seconds,
    }


_REPORT_FIELDS = {"suite": str, "seed": int, "count": int, "failures": int, "checks": list,
                  "elapsed_seconds": (int, float)}
_CHECK_FIELDS = {"index": int, "name": str, "status": str}


def parse_report(text: str) -> dict:
    """A report document from JSON text; raises ParseError at the location
    of the first missing, mistyped or inconsistent field."""
    doc = load_json(text)
    _expect_fields(doc, "", _REPORT_FIELDS)
    if doc["count"] < 0:
        raise ParseError("/count", "must be non-negative")
    for i, c in enumerate(doc["checks"]):
        _expect_fields(c, f"/checks/{i}", _CHECK_FIELDS)
        if c["status"] not in ("pass", "fail"):
            raise ParseError(f"/checks/{i}/status", 'must be "pass" or "fail"')
        if not 0 <= c["index"] < doc["count"]:
            raise ParseError(f"/checks/{i}/index", f"must name one of the {doc['count']} instances")
    failing = sum(1 for c in doc["checks"] if c["status"] != "pass")
    if doc["failures"] != failing:
        raise ParseError("/failures", f"is {doc['failures']}, but {failing} checks do not pass")
    # NaN fails every comparison; an int beyond the float range would not format
    if not 0 <= doc["elapsed_seconds"] <= sys.float_info.max:
        raise ParseError("/elapsed_seconds", "must be finite and non-negative")
    return doc


def _expect_fields(doc, loc: str, fields: dict) -> None:
    if not isinstance(doc, dict):
        raise ParseError(loc or "/", "expected an object")
    for key, kind in fields.items():
        if key not in doc:
            raise ParseError(f"{loc}/{key}", "missing")
        # no field is a boolean, and a bool is an int that would re-emit as true
        if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
            raise ParseError(f"{loc}/{key}", "has the wrong type")


def report_emit(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"suite {doc['suite']}  seed {doc['seed']}  count {doc['count']}"]
    for c in doc["checks"]:
        lines.append(f"  [{c['status']:>4}] instance {c['index']:>4}  {c['name']}")
        if c.get("detail"):
            lines.append(f"         {json.dumps(c['detail'], sort_keys=True)}")
    n = len(doc["checks"])
    lines.append(
        f"{n - doc['failures']}/{n} checks passed in {doc['elapsed_seconds']:.2f}s"
    )
    return "\n".join(lines) + "\n"
