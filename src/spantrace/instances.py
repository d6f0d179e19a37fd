"""Instance files: named spaces, maps, objects, spans and morphisms in
JSON, with an optional pushforward rectangle and base-change datum.

Parsing validates everything (anchors, chain conditions, span feet) and
reports the first failure with a JSON-pointer style location.  No key,
label or degree is dropped: one the data has no place for is an error, so a
misspelt section fails rather than skipping its checks, and a degree
key must be written as its integer is ("0", not "00" or " 0"), a label as
a string and a rank as at most MAX_RANK.
Emission is canonical, so parse . emit . parse == parse and fixtures
round-trip byte for byte.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from .basefunc import BaseChange, make_base_change
from .chainalg import Complex, Matrix, Ring, make_chain_map, make_complex, mat
from .corrcat import CCMorphism, make_cc_morphism
from .dualtrace import PushRectangles
from .finspan import FinOver, OverMap, Span, make_fin_over, make_over_map
from .sheafops import OmegaClass, Sheaf, make_sheaf


class ParseError(ValueError):
    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass
class Instance:
    ring: Ring
    base: tuple[str, ...]
    spaces: dict[str, FinOver] = field(default_factory=dict)
    maps: dict[str, OverMap] = field(default_factory=dict)
    objects: dict[str, Sheaf] = field(default_factory=dict)
    spans: dict[str, Span] = field(default_factory=dict)
    morphisms: dict[str, CCMorphism] = field(default_factory=dict)
    lv: PushRectangles | None = None
    base_change: BaseChange | None = None


MAX_RANK = 2 ** 16  # the largest stalk rank a file may give, far above any fixture's
# each part of the lv diagram: the Instance table that names it, and its kind
_LV_PARTS = {"f": ("maps", "map"), "p": ("maps", "map"), "g": ("maps", "map"), "q": ("maps", "map"),
             "u": ("morphisms", "morphism"), "v": ("morphisms", "morphism"),
             "cp": ("spans", "span"), "dp": ("spans", "span")}


def _expect(cond: bool, loc: str, msg: str) -> None:
    if not cond:
        raise ParseError(loc, msg)


def _as_dict(x, loc, keys: tuple = ()):
    """x, checked to be a JSON object, and to have no key but keys if given."""
    _expect(isinstance(x, dict), loc, "expected an object")
    for k in x if keys else ():
        _expect(k in keys, f"{loc.rstrip('/')}/{k}", "unknown key")
    return x


@contextmanager
def _located(loc: str):
    """Report a ValueError raised inside the block as a ParseError at loc, unless it is one."""
    try:
        yield
    except ValueError as e:
        raise e if isinstance(e, ParseError) else ParseError(loc, str(e)) from None


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("/", f"invalid JSON: {e}") from None


def parse_instance(text: str) -> Instance:
    doc = _as_dict(load_json(text), "/", ("modulus", "base", "spaces", "maps", "objects", "spans", "morphisms",
                                          "lv", "base_change"))
    _expect("modulus" in doc, "/modulus", "missing")
    _expect(_is_int(doc["modulus"]) and doc["modulus"] >= 0, "/modulus", "must be a non-negative integer")
    ring = Ring(doc["modulus"])
    _expect("base" in doc, "/base", "missing")
    base = doc["base"]
    _expect(isinstance(base, list) and all(isinstance(x, str) for x in base), "/base", "must be a list of strings")
    _expect(len(set(base)) == len(base), "/base", "duplicate labels")
    inst = Instance(ring, tuple(base))

    for name, raw in _as_dict(doc.get("spaces", {}), "/spaces").items():
        loc = f"/spaces/{name}"
        raw = _as_dict(raw, loc, ("elements", "anchor"))
        els = raw.get("elements")
        _expect(isinstance(els, list) and all(isinstance(x, str) for x in els), f"{loc}/elements", "must be a list of strings")
        anchor = _labels(raw.get("anchor", {}), f"{loc}/anchor")
        with _located(loc):
            inst.spaces[name] = make_fin_over(inst.base, els, anchor)

    for name, raw in _as_dict(doc.get("maps", {}), "/maps").items():
        loc = f"/maps/{name}"
        raw = _as_dict(raw, loc, ("source", "target", "graph"))
        src = _ref(inst.spaces, raw.get("source"), f"{loc}/source", "space")
        tgt = _ref(inst.spaces, raw.get("target"), f"{loc}/target", "space")
        graph = _labels(raw.get("graph", {}), f"{loc}/graph")
        with _located(loc):
            inst.maps[name] = make_over_map(src, tgt, graph)

    for name, raw in _as_dict(doc.get("objects", {}), "/objects").items():
        loc = f"/objects/{name}"
        raw = _as_dict(raw, loc, ("space", "stalks"))
        space = _ref(inst.spaces, raw.get("space"), f"{loc}/space", "space")
        stalks_raw = _as_dict(raw.get("stalks", {}), f"{loc}/stalks")
        stalks = {}
        for el, c in stalks_raw.items():
            stalks[el] = parse_complex(ring, c, f"{loc}/stalks/{el}")
        with _located(f"{loc}/stalks"):
            inst.objects[name] = make_sheaf(ring, space, stalks)

    for name, raw in _as_dict(doc.get("spans", {}), "/spans").items():
        loc = f"/spans/{name}"
        raw = _as_dict(raw, loc, ("left", "right"))
        left = _ref(inst.maps, raw.get("left"), f"{loc}/left", "map")
        right = _ref(inst.maps, raw.get("right"), f"{loc}/right", "map")
        with _located(loc):
            inst.spans[name] = Span(left, right)

    for name, raw in _as_dict(doc.get("morphisms", {}), "/morphisms").items():
        loc = f"/morphisms/{name}"
        raw = _as_dict(raw, loc, ("span", "source", "target", "maps"))
        span = _ref(inst.spans, raw.get("span"), f"{loc}/span", "span")
        src = _ref(inst.objects, raw.get("source"), f"{loc}/source", "object")
        tgt = _ref(inst.objects, raw.get("target"), f"{loc}/target", "object")
        maps_raw = _as_dict(raw.get("maps", {}), f"{loc}/maps")
        maps = dict.fromkeys(maps_raw)  # a label off the apex stays, for make_cc_morphism to reject
        for el in span.apex.elements:
            mloc = f"{loc}/maps/{el}"
            _expect(el in maps_raw, mloc, "missing component")
            comps = {}
            for deg, rows in _as_dict(maps_raw[el], mloc).items():
                n = _int(deg, f"{mloc}/{deg}")
                comps[n] = _matrix(ring, rows, mloc, src.stalk(span.left(el)).rank(n))
            with _located(mloc):
                maps[el] = make_chain_map(
                    src.stalk(span.left(el)), tgt.stalk(span.right(el)), comps
                )
        with _located(loc):
            inst.morphisms[name] = make_cc_morphism(src, tgt, span, maps)

    if "lv" in doc:
        loc = "/lv"
        raw = _as_dict(doc["lv"], loc, tuple(_LV_PARTS))
        for key in _LV_PARTS:
            _expect(key in raw, f"{loc}/{key}", "missing")
        with _located(loc):
            inst.lv = PushRectangles(**{key: _ref(getattr(inst, table), raw[key], f"{loc}/{key}", kind)
                                        for key, (table, kind) in _LV_PARTS.items()})

    if "base_change" in doc:
        loc = "/base_change"
        raw = _as_dict(doc["base_change"], loc, ("g",))
        graph = _labels(raw.get("g", {}), f"{loc}/g")
        with _located(loc):
            inst.base_change = make_base_change(tuple(graph.keys()), graph, inst.base)
    return inst


def _labels(x, loc: str) -> dict:
    """A JSON object whose values are labels, i.e. strings."""
    for key, value in _as_dict(x, loc).items():
        _expect(isinstance(value, str), f"{loc}/{key}", "expected a label string")
    return x


def _ref(table: dict, name, loc: str, kind: str):
    _expect(isinstance(name, str), loc, f"expected a {kind} name")
    _expect(name in table, loc, f"unknown {kind} {name!r}")
    return table[name]


def _is_int(x) -> bool:
    """A JSON integer; booleans are ints in Python but would not re-emit as one."""
    return isinstance(x, int) and not isinstance(x, bool)


_INT_KEY = re.compile(r"0|-?[1-9][0-9]*")  # what str() writes for an int


def _int(s: str, loc: str) -> int:
    """A degree key, written as str() writes its integer, so that no two
    keys name one degree."""
    _expect(_INT_KEY.fullmatch(s) is not None, loc, f"bad integer key {s!r}")
    return int(s)


def _matrix(ring: Ring, rows, loc: str, cols_hint: int) -> Matrix:
    _expect(
        isinstance(rows, list) and all(isinstance(r, list) and all(map(_is_int, r)) for r in rows),
        loc,
        "expected a matrix as a list of integer rows",
    )
    with _located(loc):
        return mat(ring, rows, cols=cols_hint if not rows else None)


def parse_complex(ring: Ring, raw, loc: str) -> Complex:
    raw = _as_dict(raw, loc, ("ranks", "diff"))
    ranks = {}
    for deg, r in _as_dict(raw.get("ranks", {}), f"{loc}/ranks").items():
        _expect(_is_int(r) and r >= 0, f"{loc}/ranks/{deg}", "rank must be a non-negative integer")
        _expect(r <= MAX_RANK, f"{loc}/ranks/{deg}", f"rank must be at most {MAX_RANK}")
        ranks[_int(deg, f"{loc}/ranks/{deg}")] = r
    diff = {}
    for deg, rows in _as_dict(raw.get("diff", {}), f"{loc}/diff").items():
        n = _int(deg, f"{loc}/diff/{deg}")
        diff[n] = _matrix(ring, rows, f"{loc}/diff/{deg}", ranks.get(n, 0))
    with _located(loc):
        return make_complex(ring, ranks, diff)


def parse_file(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


# ---------------------------------------------------------------------------
# emission


def emit_instance(inst: Instance) -> str:
    doc: dict = {"modulus": inst.ring.modulus, "base": list(inst.base)}
    doc["spaces"] = {
        name: {
            "elements": list(s.elements),
            "anchor": {x: s.anchor_of(x) for x in s.elements},
        }
        for name, s in inst.spaces.items()
    }
    doc["maps"] = {
        name: {
            "source": _name_of(inst.spaces, m.source),
            "target": _name_of(inst.spaces, m.target),
            "graph": {x: m(x) for x in m.source.elements},
        }
        for name, m in inst.maps.items()
    }
    doc["objects"] = {
        name: {
            "space": _name_of(inst.spaces, o.space),
            "stalks": {
                x: {"ranks": {str(n): r for n, r in c.ranks},
                    "diff": {str(n): [list(r) for r in m.entries] for n, m in c.diff}}
                for x in o.space.elements for c in [o.stalk(x)]
            },
        }
        for name, o in inst.objects.items()
    }
    doc["spans"] = {
        name: {"left": _name_of(inst.maps, s.left), "right": _name_of(inst.maps, s.right)}
        for name, s in inst.spans.items()
    }
    doc["morphisms"] = {
        name: {
            "span": _name_of(inst.spans, m.span),
            "source": _name_of(inst.objects, m.source),
            "target": _name_of(inst.objects, m.target),
            "maps": {
                g: {str(n): [list(r) for r in c.entries] for n, c in m.map_at(g).components}
                for g in m.span.apex.elements
            },
        }
        for name, m in inst.morphisms.items()
    }
    if inst.lv is not None:
        doc["lv"] = {key: _name_of(getattr(inst, table), getattr(inst.lv, key))
                     for key, (table, _) in _LV_PARTS.items()}
    if inst.base_change is not None:
        g = inst.base_change.g
        doc["base_change"] = {"g": {x: g(x) for x in g.source.elements}}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _name_of(table: dict, value) -> str:
    # prefer the identical object: distinct registered values can compare
    # equal (e.g. two empty spaces), and naming must stay stable
    for name, v in table.items():
        if v is value:
            return name
    for name, v in table.items():
        if v == value:
            return name
    raise ValueError("value not registered under a name")


def omega_doc(a: OmegaClass) -> dict:
    return {
        "carrier": [_label_doc(x) for x in a.carrier.elements],
        "values": {_label_key(x): a.value(x) for x in a.carrier.elements},
    }


def _label_doc(x):
    if isinstance(x, tuple):
        return [_label_doc(y) for y in x]
    return x


def _label_key(x) -> str:
    if isinstance(x, str):
        return x
    return json.dumps(_label_doc(x), separators=(",", ":"))
