"""Verification suites over seeded random instances, with machine reports."""

from __future__ import annotations

import json
import random
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

from .basefunc import functor_preserves, push2_strict
from .chainalg import alt_trace
from .corrcat import shriek_push
from .dualtrace import (
    make_dual,
    local_pairing,
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
from .sheafops import verdier

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


def _check(index: int, name: str, ok: bool, detail: dict | None = None) -> Check:
    return Check(index, name, "pass" if ok else "fail", None if ok else detail)


def _suite_oracle(seed: int, index: int, params: GenParams) -> Iterator[Check]:
    a, b, u, v = random_pair_instance(seed, params)
    cat = pairing(u, v, make_dual(a.obj)).omega
    loc = local_pairing(u, v)
    ok = cat == loc
    yield _check(index, "pairing equals pointwise alternating trace", ok,
                 {"lhs": omega_doc(cat), "rhs": omega_doc(loc)})


def _suite_lv(seed: int, index: int, params: GenParams) -> Iterator[Check]:
    res = pairing_functorial(random_lv_instance(seed, params).lv)
    yield _check(index, "pushforward trace identity", res.equal,
                 {"lhs": omega_doc(res.pushed), "rhs": omega_doc(res.rhs)})


def _suite_global(seed: int, index: int, params: GenParams) -> Iterator[Check]:
    gen, e = random_endo_instance(seed, params)
    obj = gen.obj
    dx = make_dual(obj)
    tr = trace(e, dx).omega
    local_total = tr.ring.norm(sum(tr.values))

    s = base_space(obj.space.base)
    a_x = om_anchor(obj.space)
    a_c = om_anchor(e.span.apex)
    point_span = Span(om_anchor(s), om_anchor(s))
    e_tot = shriek_push(e, a_x, a_c, a_x, point_span)
    total = alt_trace(e_tot.map_at(s.elements[0]))
    ok = local_total == total
    yield _check(index, "sum of local terms equals global alternating trace", ok,
                 {"lhs": local_total, "rhs": total})


def _suite_triangle(seed: int, index: int, params: GenParams) -> Iterator[Check]:
    gen = random_object_instance(seed, params)
    try:
        make_dual(gen.obj)
        yield _check(index, "duality triangle certificates", True)
    except ValueError as e:
        yield _check(index, "duality triangle certificates", False, {"error": str(e)})
    bidual = verdier(verdier(gen.obj)) == gen.obj
    yield _check(index, "double dual is the identity on matrices", bidual)


def _suite_symmetry(seed: int, index: int, params: GenParams) -> Iterator[Check]:
    a, b, u, v = random_pair_instance(seed, params)
    try:
        lhs, rhs, _ = pairing_symmetry(u, v, make_dual(a.obj), make_dual(b.obj))
        yield _check(index, "pairing symmetric through the swap", True)
    except ValueError as e:
        yield _check(index, "pairing symmetric through the swap", False, {"error": str(e)})


def _suite_basechange(seed: int, index: int, params: GenParams) -> Iterator[Check]:
    inst = random_lv_instance(seed, params)
    rect = inst.lv
    bc = random_base_change_for(seed ^ 0x5A5A5A, inst.base, params)
    da = make_dual(rect.u.source)
    rep = functor_preserves(bc, da, rect.u, rect.v)
    yield _check(index, "pullback commutes with duals strictly", rep.dual_strict)
    yield _check(index, "pullback commutes with pairings after recoordination",
                 rep.pairing_strict, {"lhs": omega_doc(rep.lhs), "rhs": omega_doc(rep.rhs)})
    yield _check(index, "pullback commutes with pushforward strictly", push2_strict(bc, rect))


_SUITES = {
    "lv": _suite_lv,
    "global": _suite_global,
    "triangle": _suite_triangle,
    "symmetry": _suite_symmetry,
    "basechange": _suite_basechange,
    "oracle": _suite_oracle,
}
SUITE_NAMES = (*_SUITES, "all")  # "all" runs every suite in this order


def _guarded(fn, seed: int, index: int, params: GenParams) -> Iterator[Check]:
    """The checks of one suite call; an exception raised while verifying
    ends the call with a failed check naming it and the child seed, so the
    checks already made and the rest of the report survive."""
    try:
        yield from fn(seed, index, params)
    except Exception as e:  # a fault in the program under test, reported as a check
        yield Check(index, "verification raised", "fail",
                    {"error": type(e).__name__, "message": str(e), "child_seed": seed})


def run_suite(name: str, seed: int, count: int, params: GenParams | None = None) -> Report:
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
    for suite in names:
        fn = _SUITES[suite]
        for i, child in enumerate(child_seeds):
            for check in _guarded(fn, child, i, params):
                if name == "all":
                    check.name = f"{suite}: {check.name}"
                report.checks.append(check)
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
    for i, c in enumerate(doc["checks"]):
        _expect_fields(c, f"/checks/{i}", _CHECK_FIELDS)
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


def report_emit(report_or_doc, fmt: str) -> str:
    doc = report_doc(report_or_doc) if isinstance(report_or_doc, Report) else report_or_doc
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
