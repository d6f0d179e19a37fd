"""Instance files, reports, and the command line surface."""

import dataclasses
import glob
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from spantrace import cli, dualtrace, suites
from spantrace.cli import main
from spantrace.dualtrace import FunctorialResult, PairingResult, make_dual, pairing_functorial
from spantrace.generate import GenParams, random_lv_instance, random_pair_instance
from spantrace.instances import Instance, ParseError, emit_instance, parse_instance
from spantrace.sheafops import OmegaClass
from spantrace.suites import SUITE_NAMES, Check, Report, parse_report, report_doc, report_emit, run_suite
from statements import clear_caches

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
TWO_POINT = os.path.join(FIXTURES, "two_point.json")
LV_SMALL = os.path.join(FIXTURES, "lv_small.json")
LV_NONZERO = os.path.join(FIXTURES, "lv_nonzero.json")

MINIMAL = """
{
 "modulus": 0,
 "base": ["z"],
 "spaces": {"S": {"elements": ["z"], "anchor": {"z": "z"}}},
 "objects": {"unit": {"space": "S", "stalks": {"z": {"ranks": {"0": 1}, "diff": {}}}}}
}
"""


def test_parse_minimal():
    inst = parse_instance(MINIMAL)
    assert inst.objects["unit"].stalks[0].rank(0) == 1


def test_parse_error_locations():
    bad = json.loads(MINIMAL)
    del bad["objects"]["unit"]["stalks"]["z"]
    with pytest.raises(ParseError) as e:
        parse_instance(json.dumps(bad))
    assert "/objects/unit/stalks" in str(e.value)
    bad2 = json.loads(MINIMAL)
    bad2["objects"]["unit"]["space"] = "missing"
    with pytest.raises(ParseError, match="unknown space"):
        parse_instance(json.dumps(bad2))
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_instance("{nope")


def test_parse_rejects_bad_chain_data():
    bad = json.loads(MINIMAL)
    bad["objects"]["unit"]["stalks"]["z"] = {
        "ranks": {"0": 1, "1": 1, "2": 1},
        "diff": {"0": [[1]], "1": [[1]]},
    }
    with pytest.raises(ParseError, match="degree 0"):
        parse_instance(json.dumps(bad))


def test_fixtures_round_trip():
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        text = open(path, encoding="utf-8").read()
        inst = parse_instance(text)
        assert emit_instance(inst) == text
        again = parse_instance(emit_instance(inst))
        assert emit_instance(again) == text


def test_generate_deterministic():
    a = random_lv_instance(42, GenParams())
    clear_caches()  # so that b is drawn again, not shared
    b = random_lv_instance(42, GenParams())
    assert a is not b and emit_instance(a) == emit_instance(b)
    c = random_lv_instance(43, GenParams())
    assert emit_instance(a) != emit_instance(c)


def test_generated_instance_round_trips():
    inst = random_lv_instance(7, GenParams())
    text = emit_instance(inst)
    assert emit_instance(parse_instance(text)) == text


def test_report_shapes():
    empty = Report("oracle", 0, 0, GenParams())
    doc = report_doc(empty)
    assert doc["checks"] == []
    assert report_emit(report_doc(empty), "json").endswith("\n")
    one = Report("oracle", 1, 1, GenParams())
    one.checks.append(Check(0, "thing", "pass"))
    assert '"status": "pass"' in report_emit(report_doc(one), "json")
    # a failing check carries both value maps
    fail = Report("oracle", 2, 1, GenParams())
    fail.checks.append(
        Check(0, "thing", "fail", {"lhs": {"values": {"a": 1}}, "rhs": {"values": {"a": 2}}})
    )
    out = report_emit(report_doc(fail), "json")
    assert '"lhs"' in out and '"rhs"' in out
    text = report_emit(report_doc(fail), "text")
    assert "fail" in text and "1/2" not in text


def test_report_determinism_modulo_elapsed():
    r1 = run_suite("oracle", 5, 5)
    r2 = run_suite("oracle", 5, 5)
    d1, d2 = report_doc(r1), report_doc(r2)
    d1.pop("elapsed_seconds")
    d2.pop("elapsed_seconds")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_cli_check_and_trace(capsys):
    assert main(["check", TWO_POINT]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out
    assert main(["trace", TWO_POINT]) == 0
    doc = json.loads(capsys.readouterr().out)
    # u is the scaling loop at a: single fixed point of value 3
    assert doc["u"]["values"] == {"g": 3}
    # v is the identity: pointwise euler characteristics
    assert doc["v"]["values"] == {"a": 1, "b": 2}


def test_cli_lv(capsys):
    assert main(["lv", LV_SMALL]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equal"] is True
    assert main(["lv", TWO_POINT]) == 2
    assert "no lv diagram" in capsys.readouterr().err


def test_cli_lv_nonzero(capsys):
    # Over Z, on one base point: u is 2 and 3 on c0 and c1, which share the
    # feet x0 -> y0, and is 5 in degree 0 and 2 in degree 1 on c2 : x1 -> y1,
    # whose stalks have rank 1 in degrees 0 and 1; v is the identity.  The
    # fixed points (c0, d0), (c1, d0), (c2, d1) carry 2, 3 and 5 - 2, and all
    # three lie over the one lower fixed point (cp, dp): pushed, 2 + 3 + 3.
    # The pushed u sums c0 and c1 into one block, so the right side is
    # (2 + 3) + 5 - 2 as well.
    assert main(["lv", LV_NONZERO]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equal"] is True
    assert doc["pushed"]["values"] == {'["cp","dp"]': 8}
    assert doc["rhs"] == doc["pushed"]


@pytest.mark.parametrize("error", [ValueError("broken pairing"), ZeroDivisionError("division by zero")],
                         ids=["ValueError", "ZeroDivisionError"])
def test_cli_reports_a_raising_verification_as_a_failure(monkeypatch, capsys, error):
    def raising(*args):
        raise error

    monkeypatch.setattr(cli, "pairing_functorial", raising)
    monkeypatch.setattr(cli, "trace", raising)
    for command, path in (("lv", LV_SMALL), ("trace", TWO_POINT)):
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verification raised {type(error).__name__}: {error}\n"
    # a file that does not parse is still an input error
    assert main(["lv", TWO_POINT]) == 2
    assert "no lv diagram" in capsys.readouterr().err


def test_cli_fuzz_and_report(capsys):
    assert main(["fuzz", "--suite", "oracle", "--seed", "3", "--count", "3"]) == 0
    out1 = capsys.readouterr().out
    doc = json.loads(out1)
    assert doc["failures"] == 0
    assert main(["fuzz", "--suite", "oracle", "--seed", "3", "--count", "3"]) == 0
    out2 = capsys.readouterr().out
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_seconds")
    d2.pop("elapsed_seconds")
    assert d1 == d2


def test_cli_report_formats(tmp_path, capsys):
    main(["fuzz", "--suite", "triangle", "--seed", "1", "--count", "2"])
    raw = capsys.readouterr().out
    p = tmp_path / "r.json"
    p.write_text(raw)
    assert main(["report", str(p), "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "suite triangle" in text and "checks passed" in text
    assert main(["report", str(p), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(raw)


def test_cli_exit_codes(capsys, tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["fuzz", "--suite", "typo", "--seed", "1", "--count", "1"])
    assert e.value.code == 2
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["check", str(bad)]) == 2


def assert_rejected_at(tmp_path, capsys, doc, location):
    """parse_report raises at location, and `report` exits 2 in both formats
    with a located error and no traceback."""
    with pytest.raises(ParseError) as e:
        parse_report(json.dumps(doc))
    assert e.value.location == location
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    for fmt in ("text", "json"):
        assert main(["report", str(p), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert f"error: {location}:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "doc, location",
    [
        ({}, "/suite"),
        ([], "/"),
        ({"suite": "lv", "seed": 1, "count": 1, "failures": 0, "elapsed_seconds": 0.0}, "/checks"),
        ({"suite": "lv", "seed": "1", "count": 1, "failures": 0, "checks": [],
          "elapsed_seconds": 0.0}, "/seed"),
        ({"suite": "lv", "seed": 1, "count": 1, "failures": 0, "elapsed_seconds": 0.0,
          "checks": [{"index": 0, "name": "x"}]}, "/checks/0/status"),
        ({"suite": "lv", "seed": 1, "count": 1, "failures": 0, "elapsed_seconds": 0.0,
          "checks": [{"index": 0, "name": "x", "status": "pass"}, 3]}, "/checks/1"),
        ({"suite": "lv", "seed": 1, "count": 1, "failures": 1, "elapsed_seconds": 0.0,
          "checks": [{"index": 0, "name": "x", "status": "maybe"}]}, "/checks/0/status"),
    ],
)
def test_cli_report_rejects_non_reports(tmp_path, capsys, doc, location):
    assert_rejected_at(tmp_path, capsys, doc, location)


@pytest.mark.parametrize(
    "path, value",
    [(["seed"], True), (["count"], True), (["failures"], False),
     (["elapsed_seconds"], True), (["checks", 0, "index"], False)],
    ids=["seed", "count", "failures", "elapsed_seconds", "index"],
)
def test_cli_report_rejects_booleans_as_integers(tmp_path, capsys, path, value):
    # a report with true for a number would print "seed True" and re-emit true
    doc = report_doc(run_suite("lv", 1, 1))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert_rejected_at(tmp_path, capsys, doc, "/" + "/".join(map(str, path)))


@pytest.mark.parametrize(
    "key, value",
    [("failures", -3), ("failures", 1), ("elapsed_seconds", float("nan")),
     ("elapsed_seconds", float("inf")), ("elapsed_seconds", -1), ("elapsed_seconds", 10**400)],
    ids=["failures-negative", "failures-miscounted", "elapsed-nan", "elapsed-infinity",
         "elapsed-negative", "elapsed-past-float-range"],
)
def test_cli_report_rejects_inconsistent_values(tmp_path, capsys, key, value):
    # failures -3 would print "4/1 checks passed"; NaN would print "in nans"
    # and re-emit the non-standard token NaN; 10**400 would not format
    doc = report_doc(run_suite("lv", 1, 1))
    assert doc["failures"] == 0 and len(doc["checks"]) == 1
    doc[key] = value
    assert_rejected_at(tmp_path, capsys, doc, "/" + key)


def test_fuzz_all_report_bytes_are_pinned(capsys):
    """The report of `fuzz --suite all --seed 7 --count 50` without its
    elapsed_seconds line is byte-identical to the recorded one.

    Refactors must keep this hash.  Adding deterministic context to each
    check (ROADMAP item 5) changes the report on purpose; that change
    re-records the hash once.
    """
    assert main(["fuzz", "--suite", "all", "--seed", "7", "--count", "50"]) == 0
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(keepends=True) if "elapsed_seconds" not in line)
    digest = hashlib.sha256(kept.encode()).hexdigest()
    assert digest == "efbc1e60675c5b028221e699b3de918ae43cf1ac7b1468b9788e91806f88c9fd"


def test_cli_fuzz_reports_a_raising_verification(monkeypatch, capsys):
    master = random.Random(5)
    child = [master.getrandbits(63) for _ in range(2)][1]

    def raising(seed):  # its instance is the child seed
        yield "made before the fault", True, None
        if seed == child:
            raise ZeroDivisionError("injected fault")

    clean = [(c.index, c.name) for c in run_suite("all", 5, 2).checks]
    monkeypatch.setitem(suites._SUITES, "lv", (lambda seed, params: seed, raising))
    assert main(["fuzz", "--suite", "all", "--seed", "5", "--count", "2"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    doc = parse_report(captured.out)
    assert doc["failures"] == 1
    (failed,) = [c for c in doc["checks"] if c["status"] != "pass"]
    assert failed["index"] == 1 and failed["name"] == "lv: verification raised"
    assert failed["detail"] == {"error": "ZeroDivisionError", "message": "injected fault",
                                "child_seed": child}
    names = [(c["index"], c["name"]) for c in doc["checks"]]
    # the checks made before the fault and every other suite's checks survive
    assert names[:3] == [(0, "lv: made before the fault"), (1, "lv: made before the fault"),
                         (1, "lv: verification raised")]
    assert names[3:] == [n for n in clean if not n[1].startswith("lv: ")]


@pytest.mark.parametrize("suite, name", [("triangle", "make_dual"), ("symmetry", "pairing_symmetry")])
def test_a_suite_fault_is_reported_with_its_child_seed(monkeypatch, suite, name):
    """A fault raised inside make_dual during triangle, or inside
    pairing_symmetry during symmetry, is a failed check naming the fault
    and the child seed, as in every other suite."""
    def raising(*args):
        raise ValueError("injected fault")

    monkeypatch.setattr(suites, name, raising)
    master = random.Random(5)
    children = [master.getrandbits(63) for _ in range(2)]
    got = [(c.index, c.name, c.status, c.detail) for c in run_suite("all", 5, 2).checks
           if c.name.startswith(f"{suite}: ")]
    assert got == [(i, f"{suite}: verification raised", "fail",
                    {"error": "ValueError", "message": "injected fault", "child_seed": child})
                   for i, child in enumerate(children)]


def shifted(side):
    """One side of a comparison moved off its value: an integer plus one, a
    class one more at its first element, and a pushforward result or
    pairing_symmetry's (lhs, rhs, swap) with its right-hand class so moved."""
    if isinstance(side, int):
        return side + 1
    if isinstance(side, FunctorialResult):
        return FunctorialResult(side.pushed, shifted(side.rhs))
    if isinstance(side, tuple):
        return side[0], shifted(side[1]), side[2]
    return OmegaClass(side.ring, side.carrier, (side.ring.norm(side.values[0] + 1), *side.values[1:]))


def moved(f):
    return lambda *args: shifted(f(*args))


# duality data whose triangle cells do not map their apexes bijectively
NOT_BIJECTIVE = SimpleNamespace(graph=SimpleNamespace(is_bijective=lambda: False))
UNCERTIFIED = SimpleNamespace(triangle_obj=NOT_BIJECTIVE, triangle_dual=NOT_BIJECTIVE)


@pytest.mark.parametrize("suite, name, broken, check, sides", [
    ("oracle", "local_pairing", moved, "pairing equals pointwise alternating trace", True),
    ("global", "alt_trace", moved, "sum of local terms equals global alternating trace", True),
    ("lv", "pairing_functorial", moved, "pushforward trace identity", True),
    ("symmetry", "pairing_symmetry", moved, "pairing symmetric through the swap", False),
    ("basechange", "functor_preserves", lambda f: lambda *args: dataclasses.replace(f(*args), dual_strict=False),
     "pullback commutes with duals strictly", False),
    ("basechange", "push2_strict", lambda f: lambda *args: False, "pullback commutes with pushforward strictly", False),
    ("triangle", "make_dual", lambda f: lambda obj: UNCERTIFIED, "duality triangle certificates", False),
    ("triangle", "verdier", lambda f: lambda sheaf: None, "double dual is the identity on matrices", False),
], ids=["oracle", "global", "lv", "symmetry", "duals", "pushforward", "certificates", "double-dual"])
def test_a_check_body_fails_when_what_it_checks_breaks(monkeypatch, suite, name, broken, check, sides):
    """With one side of a comparison moved, or what a check reads broken,
    one check fails on each child of seed 3 (each has a nonempty class to
    move), a comparison with its two sides as detail: a body that compared
    a side with itself, or passed a check unchecked, would still pass."""
    monkeypatch.setattr(suites, name, broken(getattr(suites, name)))
    failed = [c for c in run_suite(suite, 3, 3).checks if c.status != "pass"]
    assert [(c.index, c.name) for c in failed] == [(0, check), (1, check), (2, check)]
    for c in failed:
        assert c.detail["lhs"] != c.detail["rhs"] and c.detail.keys() == {"lhs", "rhs"} if sides else c.detail is None


def test_an_asymmetric_pairing_fails_the_symmetry_check(monkeypatch):
    """pairing_symmetry returns both pairings and the swap without comparing
    them, so with the pairing of (v, u) moved off its value, the symmetry
    check itself fails on each child of seed 3, not as a verification that
    raised."""
    pairing, calls = dualtrace.pairing, []

    def second_moved(u, v, dx):
        calls.append(None)
        out = pairing(u, v, dx)
        return PairingResult(shifted(out.omega)) if len(calls) % 2 == 0 else out

    monkeypatch.setattr(dualtrace, "pairing", second_moved)
    failed = [(c.index, c.name, c.detail) for c in run_suite("symmetry", 3, 3).checks if c.status != "pass"]
    assert failed == [(i, "pairing symmetric through the swap", None) for i in range(3)]


def test_trace_certifies_each_object_once(capsys):
    """two_point.json has two endomorphisms of L: trace certifies L once."""
    make_dual.cache_clear()
    assert main(["trace", TWO_POINT]) == 0
    info = make_dual.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert set(json.loads(capsys.readouterr().out)) == {"u", "v"}


def pair_instance(draw) -> Instance:
    """A random_pair_instance draw as an instance file's contents."""
    a, b, u, v = draw
    inst = Instance(a.obj.ring, a.obj.space.base)
    inst.spaces = {"X": a.obj.space, "Y": b.obj.space, "C": u.span.apex, "D": v.span.apex}
    inst.maps = {"cl": u.span.left, "cr": u.span.right, "dl": v.span.left, "dr": v.span.right}
    inst.objects = {"A": a.obj, "B": b.obj}
    inst.spans = {"c": u.span, "d": v.span}
    inst.morphisms = {"u": u, "v": v}
    return inst


def test_suites_share_a_child_draws_and_leave_them_unchanged():
    """The six suites of one child share its two draws, and none of them
    changes a shared draw: both emit the same bytes after the run."""
    params = GenParams()
    child = random.Random(31).getrandbits(63)
    lv, pair = random_lv_instance(child, params), random_pair_instance(child, params)
    before = emit_instance(lv), emit_instance(pair_instance(pair))
    assert run_suite("all", 31, 1).ok
    assert random_lv_instance(child, params) is lv and random_pair_instance(child, params) is pair
    assert (emit_instance(lv), emit_instance(pair_instance(pair))) == before


def test_all_lists_checks_as_the_single_suite_reports(monkeypatch):
    """all runs child-major but lists its checks suite by suite: with a
    suite raising on child 1 of 3, its report is the six single-suite
    reports one after another, names prefixed."""
    source, symmetry = suites._SUITES["symmetry"]
    master = random.Random(5)
    child = [master.getrandbits(63) for _ in range(3)][1]

    def raising(seed):  # its instance is the child seed
        yield from symmetry(source(seed, GenParams()))
        if seed == child:
            raise ZeroDivisionError("injected fault")

    monkeypatch.setitem(suites._SUITES, "symmetry", (lambda seed, params: seed, raising))
    doc = report_doc(run_suite("all", 5, 3))
    singles = []
    for name in SUITE_NAMES[:-1]:
        singles += [{**c, "name": f"{name}: {c['name']}"} for c in report_doc(run_suite(name, 5, 3))["checks"]]
    assert doc["checks"] == singles and doc["failures"] == 1


def test_negative_count_rejected(capsys):
    with pytest.raises(ValueError, match="count"):
        run_suite("lv", 1, -3)
    assert main(["fuzz", "--suite", "lv", "--seed", "1", "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "count must be non-negative" in captured.err
    assert run_suite("lv", 1, 0).checks == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-set", "0"], "size parameters must be positive"),
        (["--deg-min", "2", "--deg-max", "1"], "empty degree window"),
        (["--modulus", "-1"], "modulus must be non-negative"),
    ],
    ids=["max-set", "degree-window", "modulus"],
)
def test_cli_fuzz_rejects_bad_generator_parameters(capsys, flags, message):
    assert main(["fuzz", "--suite", "lv", "--seed", "1", "--count", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err
    assert "Traceback" not in captured.err


def test_cli_rejects_a_non_commuting_lv_diagram(tmp_path, capsys):
    with open(LV_SMALL, encoding="utf-8") as fh:
        doc = json.load(fh)
    # a second point of Xp over s0 takes f's image of x1, so f . c.left no
    # longer equals cp.left . p
    doc["spaces"]["Xp"]["elements"].append("xp3")
    doc["spaces"]["Xp"]["anchor"]["xp3"] = "s0"
    doc["maps"]["f"]["graph"]["x1"] = "xp3"
    p = tmp_path / "crossed.json"
    p.write_text(json.dumps(doc))
    for command in ("check", "lv"):
        assert main([command, str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "error: /lv: non-commuting diagram" in captured.err


@pytest.mark.parametrize("value, message", [("nope", "unknown map 'nope'"), (3, "expected a map name")])
def test_cli_locates_a_bad_lv_name_once(tmp_path, capsys, value, message):
    with open(LV_SMALL, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["lv"]["p"] = value
    text = json.dumps(doc)
    with pytest.raises(ParseError) as e:
        parse_instance(text)
    assert e.value.location == "/lv/p" and str(e.value) == f"/lv/p: {message}"
    p = tmp_path / "bad_name.json"
    p.write_text(text)
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == f"error: /lv/p: {message}\n"


@pytest.mark.parametrize(
    "fixture, path, value, message",
    [
        (TWO_POINT, ["spaces", "X", "anchor", "a"], ["z"], "expected a label string"),
        (TWO_POINT, ["spaces", "X", "anchor", "a"], {"z": "z"}, "expected a label string"),
        (LV_SMALL, ["objects", "M", "stalks", "y0", "ranks", "1"], 2 ** 70, "rank must be at most 65536"),
        (LV_SMALL, ["objects", "M", "stalks", "y0", "ranks", "1"], 2 ** 62, "rank must be at most 65536"),
        (LV_SMALL, ["objects", "M", "stalks", "y0", "ranks", "1"], 2 ** 40, "rank must be at most 65536"),
        (LV_SMALL, ["objects", "M", "stalks", "y0", "ranks", "1"], 2 ** 16 + 1, "rank must be at most 65536"),
    ],
    ids=["list-anchor", "object-anchor", "rank-2^70", "rank-2^62", "rank-2^40", "rank-2^16+1"],
)
@pytest.mark.parametrize("command", ["check", "trace", "lv"])
def test_cli_rejects_a_non_label_anchor_or_a_huge_rank_at_its_location(tmp_path, capsys, fixture, path, value,
                                                                       message, command):
    """An anchor that is no label, or a rank past instances.MAX_RANK, is an
    input error at its own location on every command, not a traceback: an
    unhashable anchor used to raise TypeError, a huge rank OverflowError or
    MemoryError while a component check built the zero differential."""
    with open(fixture, encoding="utf-8") as fh:
        doc = json.load(fh)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    location = "/" + "/".join(path)
    with pytest.raises(ParseError) as e:
        parse_instance(json.dumps(doc))
    assert e.value.location == location
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main([command, str(p)]) == 2
    assert capsys.readouterr().err == f"error: {location}: {message}\n"


# One of each kind of JSON value, with the edge cases a parser must locate:
# an edit puts one of them at a path of a fixture
EDIT_VALUES = (None, True, False, 0, 1, -1, 2 ** 70, 0.5, "", "zz", [], [[1]], {})
# The objects whose keys the file's author chooses (names, labels, degrees),
# by path kind; every other key is a field name
NAMED_KEYS = {("spaces",), ("maps",), ("objects",), ("spans",), ("morphisms",),
              ("spaces", "*", "anchor"), ("maps", "*", "graph"), ("objects", "*", "stalks"),
              ("objects", "*", "stalks", "*", "ranks"), ("objects", "*", "stalks", "*", "diff"),
              ("morphisms", "*", "maps"), ("morphisms", "*", "maps", "*"), ("base_change", "g")}


def path_kinds(doc) -> dict:
    """The first path of each path kind of a JSON document, in document
    order, by kind: a path with each list index read as "#" and each
    author-chosen key (NAMED_KEYS) as "*"."""
    first = {}

    def walk(node, path, kind):
        first.setdefault(kind, path)
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (key,), kind + ("*" if kind in NAMED_KEYS else key,))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, path + (i,), kind + ("#",))

    walk(doc, (), ())
    return first


def one_edit_mutants(text: str):
    """(path, edit, document) for every one-edit mutant of the slice: every
    value of EDIT_VALUES put at the first path of each path kind, that
    entry deleted, and a list item duplicated."""
    for path in path_kinds(json.loads(text)).values():
        edits = [("put", v) for v in EDIT_VALUES]
        edits += [("delete", None)] * bool(path) + [("duplicate", None)] * (bool(path) and type(path[-1]) is int)
        for op, value in edits:
            if not path:
                yield path, op, value
                continue
            doc = json.loads(text)
            node = doc
            for key in path[:-1]:
                node = node[key]
            if op == "put":
                node[path[-1]] = value
            elif op == "delete":
                del node[path[-1]]
            else:
                node.insert(path[-1], node[path[-1]])
            yield path, op, doc


def test_cli_answers_every_one_edit_mutant_of_the_fixtures(tmp_path, capsys):
    """A deterministic slice of the one-edit mutants of the four fixtures,
    every value kind at every path kind, runs through check, trace and lv:
    each exits 0, 1 or 2 without an uncaught exception, and an input error
    names its location."""
    exits, faults = {}, []
    for fixture in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(fixture, encoding="utf-8") as fh:
            text = fh.read()
        assert len(path_kinds(json.loads(text))) >= 30
        for path, op, doc in one_edit_mutants(text):
            p = tmp_path / "mutant.json"
            p.write_text(json.dumps(doc))
            for command in ("check", "trace", "lv"):
                case = (os.path.basename(fixture), path, op, command)
                try:
                    code = main([command, str(p)])
                except Exception as e:  # an uncaught exception is what the slice looks for
                    faults.append((*case, repr(e)))
                    continue
                err = capsys.readouterr().err
                exits[code] = exits.get(code, 0) + 1
                if code not in (0, 1, 2) or code == 2 and not re.fullmatch(r"error: /\S*: [^\n]+\n", err):
                    faults.append((*case, code, err))
    assert faults == []
    assert {0, 2} <= exits.keys() and sum(exits.values()) > 5000


def test_cli_subprocess_entry():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "spantrace", "check", TWO_POINT],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "ok:" in proc.stdout


def test_generator_envelope_examples():
    # max-set 1 forces a one-point base
    inst = random_lv_instance(0, GenParams(max_set=1))
    assert len(inst.base) == 1
    # a default instance passes the pushforward check
    assert pairing_functorial(random_lv_instance(42, GenParams()).lv).equal


def test_cli_fuzz_tiny_lv(capsys):
    assert main(["fuzz", "--suite", "lv", "--seed", "1", "--count", "1", "--max-set", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0


def test_cli_fuzz_oracle_hundred(capsys):
    assert main(["fuzz", "--suite", "oracle", "--seed", "7", "--count", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0


def test_parse_error_more_locations():
    base = json.loads(MINIMAL)
    base["spaces"]["X"] = {"elements": ["a"], "anchor": {"a": "nowhere"}}
    with pytest.raises(ParseError) as e:
        parse_instance(json.dumps(base))
    assert str(e.value).startswith("/spaces/X")

    base2 = json.loads(MINIMAL)
    base2["maps"] = {"f": {"source": "S", "target": "S", "graph": {}}}
    with pytest.raises(ParseError, match="/maps/f"):
        parse_instance(json.dumps(base2))

    base3 = json.loads(MINIMAL)
    base3["morphisms"] = {
        "u": {"span": "nope", "source": "unit", "target": "unit", "maps": {}}
    }
    with pytest.raises(ParseError, match="unknown span"):
        parse_instance(json.dumps(base3))

    for doc in ({"modulus": 0, "base": ["s", "s"]},
                {"modulus": 0, "base": ["s", "s"], "base_change": {"g": {"t": "s"}}}):
        with pytest.raises(ParseError, match="^/base: duplicate labels$"):
            parse_instance(json.dumps(doc))


def test_cli_fuzz_deterministic_across_processes():
    cmd = [sys.executable, "-m", "spantrace", "fuzz", "--suite", "symmetry",
           "--seed", "99", "--count", "4"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    da.pop("elapsed_seconds")
    db.pop("elapsed_seconds")
    assert da == db


@pytest.mark.parametrize("bad", [[1], {"x": "x1"}, 1, None])
def test_cli_check_rejects_non_label_images(tmp_path, capsys, bad):
    with open(LV_SMALL, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["maps"]["cl"]["graph"]["c0"] = bad
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error: /maps/cl/graph/c0: expected a label string" in err and "Traceback" not in err


STALK_Z = ["objects", "unit", "stalks", "z"]


@pytest.mark.parametrize(
    "path, value, location",
    [
        (["modulus"], True, "/modulus"),
        (STALK_Z + ["ranks", "0"], True, "/objects/unit/stalks/z/ranks/0"),
        (STALK_Z, {"ranks": {"0": 1, "1": 1}, "diff": {"0": [[True]]}}, "/objects/unit/stalks/z/diff/0"),
        (["morphisms", "u", "maps", "g", "0"], [[True]], "/morphisms/u/maps/g"),
    ],
    ids=["modulus", "rank", "diff", "component"],
)
def test_cli_check_rejects_booleans_as_integers(tmp_path, capsys, path, value, location):
    # true == 1 in Python, but a boolean would parse to an instance equal to
    # the one with 1 and then re-emit as true, breaking canonical emission
    if path[0] == "morphisms":
        with open(TWO_POINT, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = json.loads(MINIMAL)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    text = json.dumps(doc)
    with pytest.raises(ParseError) as e:
        parse_instance(text)
    assert e.value.location == location
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"error: {location}:" in err and "Traceback" not in err


def test_parse_rejects_non_label_base_change():
    doc = json.loads(MINIMAL)
    doc["base_change"] = {"g": {"w": ["z"]}}
    with pytest.raises(ParseError) as e:
        parse_instance(json.dumps(doc))
    assert e.value.location == "/base_change/g/w"


STALK_A = ["objects", "L", "stalks", "a"]


@pytest.mark.parametrize(
    "path, value, location, message",
    [
        (STALK_A + ["diff"], {"0": [[5]]}, "/objects/L/stalks/a", "differentials at degrees [0]"),
        (STALK_A + ["diff"], {"3": [[1]]}, "/objects/L/stalks/a", "differentials at degrees [3]"),
        (["morphisms", "u", "maps", "g", "1"], [[1]], "/morphisms/u/maps/g", "components at degrees [0, 1]"),
        (["morphisms", "u", "maps", "h"], {"0": [[1]]}, "/morphisms/u", "component at 'h', which is not in the apex"),
        (["objects", "L", "stalks", "c"], {"ranks": {"0": 1}}, "/objects/L/stalks",
         "stalk at 'c', which is not an element"),
        (["maps", "to_a", "graph", "h"], "a", "/maps/to_a", "graph entry for 'h', which is not in the source"),
        (["spaces", "X", "anchor", "c"], "z", "/spaces/X", "anchor for 'c', which is not an element"),
        (STALK_A + ["ranks"], {" 0": 1}, "/objects/L/stalks/a/ranks/ 0", "bad integer key ' 0'"),
        (STALK_A + ["ranks"], {"0_0": 1}, "/objects/L/stalks/a/ranks/0_0", "bad integer key '0_0'"),
        (STALK_A + ["ranks"], {"0": 1, "00": 2}, "/objects/L/stalks/a/ranks/00", "bad integer key '00'"),
        (STALK_A + ["ranks"], {"0": 1, "-0": 1}, "/objects/L/stalks/a/ranks/-0", "bad integer key '-0'"),
        (STALK_A, {"ranks": {"0": 1, "1": 1}, "diff": {"+0": [[1]]}}, "/objects/L/stalks/a/diff/+0",
         "bad integer key '+0'"),
        (["morphisms", "u", "maps", "g"], {"00": [[3]]}, "/morphisms/u/maps/g/00", "bad integer key '00'"),
    ],
    ids=["diff-without-target", "diff-off-the-ranks", "component-off-the-ranks", "component-off-the-apex",
         "stalk-off-the-space", "graph-entry-off-the-source", "anchor-off-the-space", "padded-key",
         "underscored-key", "zero-padded-key", "negative-zero-key", "plus-signed-diff-key",
         "zero-padded-component-key"],
)
def test_cli_check_rejects_data_the_parser_would_drop(tmp_path, capsys, path, value, location, message):
    # each edit names a label, degree or key the instance has no place for;
    # parsing must fail there rather than drop it or let it shadow another key
    with open(TWO_POINT, encoding="utf-8") as fh:
        doc = json.load(fh)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    text = json.dumps(doc)
    with pytest.raises(ParseError) as e:
        parse_instance(text)
    assert e.value.location == location and message in str(e.value)
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"error: {location}: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "fixture, path, location",
    [
        (TWO_POINT, ["morphsims"], "/morphsims"),
        (LV_SMALL, ["lv", "extra"], "/lv/extra"),
        (None, ["base_change", "h"], "/base_change/h"),
        (TWO_POINT, ["spaces", "X", "anchors"], "/spaces/X/anchors"),
        (TWO_POINT, ["maps", "to_a", "graf"], "/maps/to_a/graf"),
        (TWO_POINT, ["objects", "L", "stalkz"], "/objects/L/stalkz"),
        (TWO_POINT, ["spans", "loop", "middle"], "/spans/loop/middle"),
        (TWO_POINT, ["morphisms", "u", "map"], "/morphisms/u/map"),
        (TWO_POINT, STALK_A + ["differential"], "/objects/L/stalks/a/differential"),
    ],
    ids=["top-level", "lv", "base-change", "space", "map", "object", "span", "morphism", "complex"],
)
def test_cli_check_rejects_unknown_keys(tmp_path, capsys, fixture, path, location):
    # a misspelt key would otherwise be skipped, and a misspelt section
    # together with every check it asks for
    if fixture is None:
        doc = json.loads(MINIMAL)
        doc["base_change"] = {"g": {"z": "z"}}
    else:
        with open(fixture, encoding="utf-8") as fh:
            doc = json.load(fh)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = {}
    text = json.dumps(doc)
    with pytest.raises(ParseError) as e:
        parse_instance(text)
    assert e.value.location == location and "unknown key" in str(e.value)
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"error: {location}: unknown key" in err and "Traceback" not in err
