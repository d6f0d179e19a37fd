"""Seeded random instances for the verification suites.

Everything is built so that validity holds by construction: differentials
square to zero because complexes are sums of one- and two-term pieces
conjugated by unimodular basis changes; vertical rectangles commute
because the lower row is drawn first and the upper row is lifted through
the fibers; chain maps are assembled from piece-to-piece maps that are
tried against the commutation constraint and kept only when it holds,
plus null-homotopic perturbations which are chain maps for free.

The suites of one child seed share its draws: lv and basechange check the
same diagram, symmetry and oracle the same pair.  random_lv_instance and
random_pair_instance are pure functions of (seed, params), so each keeps
its latest draws and hands the same values to every suite that asks.  A
drawn value is shared and read-only: no caller may change it.  So are the
pieces: piece_complex builds each (ring, piece) once, random_complex's
recipe keeps the direct sum of its pieces, and random_chain_map maps
between those sums.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .basefunc import make_base_change
from .chainalg import (
    ChainMap,
    Complex,
    Matrix,
    Ring,
    cx_direct_sum,
    homotopy_perturb,
    make_chain_map,
    make_complex,
    map_direct_sum,
    mat,
    mat_mul,
)
from .corrcat import CCMorphism, make_cc_morphism
from .dualtrace import PushRectangles
from .finspan import FinOver, Label, OverMap, Span, om_anchor
from .instances import Instance
from .sheafops import Sheaf


@dataclass(frozen=True)
class GenParams:
    """Size bounds for the generator.  A complex is at most two one- or
    two-term pieces, so no degree exceeds rank 2: every max_rank above 2
    generates the same complexes as 2.  Checked at construction."""

    max_set: int = 4
    max_rank: int = 3
    deg_min: int = -2
    deg_max: int = 2
    modulus: int | None = None  # None: alternate between 0 and 7

    def __post_init__(self) -> None:
        if self.max_set < 1 or self.max_rank < 1:
            raise ValueError("size parameters must be positive")
        if self.deg_min > self.deg_max:
            raise ValueError("empty degree window")
        if self.modulus is not None and self.modulus < 0:
            raise ValueError("modulus must be non-negative")


@dataclass
class ComplexRecipe:
    """A complex remembered together with how it was built, so that valid
    chain maps between two recipes can be written down piecewise: cx is the
    direct sum of the pieces, kept as summed if given, in the bases basis."""

    pieces: list[tuple[int, int | None]]  # (degree, None) free | (degree, a) two-term
    basis: dict[int, Matrix]
    basis_inv: dict[int, Matrix]
    cx: Complex
    summed: Complex | None = None

    @property
    def parts(self) -> list[Complex]:
        return [piece_complex(self.cx.ring, p) for p in self.pieces]


@lru_cache(maxsize=256)
def piece_complex(ring: Ring, piece: tuple[int, int | None]) -> Complex:
    """The one- or two-term complex of a piece, one per (ring, piece)."""
    k, a = piece
    if a is None:
        return make_complex(ring, {k: 1})
    return make_complex(ring, {k: 1, k + 1: 1}, {k: [[a]]})


def _random_unimodular(rng: random.Random, ring: Ring, n: int) -> tuple[Matrix, Matrix]:
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randrange(0, 3)):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                u[i][k] += c * u[j][k]
            for k in range(n):
                inv[k][j] -= c * inv[k][i]
        elif op == 1 and i != j:
            u[i], u[j] = u[j], u[i]
            for k in range(n):
                inv[k][i], inv[k][j] = inv[k][j], inv[k][i]
        elif op == 2:
            for k in range(n):
                u[i][k] = -u[i][k]
            for k in range(n):
                inv[k][i] = -inv[k][i]
    return mat(ring, u, cols=n), mat(ring, inv, cols=n)


def random_complex(rng: random.Random, ring: Ring, params: GenParams) -> ComplexRecipe:
    pieces: list[tuple[int, int | None]] = []
    ranks: dict[int, int] = {}
    for _ in range(rng.randrange(0, 3)):
        if rng.random() < 0.4 or params.deg_min == params.deg_max:
            piece = (rng.randint(params.deg_min, params.deg_max), None)
        else:
            piece = (rng.randint(params.deg_min, params.deg_max - 1), rng.choice([-3, -2, -1, 1, 2, 3]))
        k, a = piece
        degrees = (k,) if a is None else (k, k + 1)
        if any(ranks.get(d, 0) >= params.max_rank for d in degrees):
            continue
        for d in degrees:
            ranks[d] = ranks.get(d, 0) + 1
        pieces.append(piece)
    parts = [piece_complex(ring, p) for p in pieces]
    base = cx_direct_sum(parts, ring)
    basis, basis_inv, diff = {}, {}, {}
    for n, r in base.ranks:
        basis[n], basis_inv[n] = _random_unimodular(rng, ring, r)
    for n, _ in base.ranks:
        if base.rank(n + 1):
            diff[n] = mat_mul(basis[n + 1], mat_mul(base.d(n), basis_inv[n]))
    cx = make_complex(ring, dict(base.ranks), diff)
    return ComplexRecipe(pieces, basis, basis_inv, cx, base)


def _piece_map(
    rng: random.Random, ring: Ring, src: tuple[int, int | None], tgt: tuple[int, int | None], t: int
) -> ChainMap | None:
    """A candidate chain map between two building-block complexes; returns
    None when the commutation constraint rejects it."""
    k, a = src
    l, b = tgt
    comps: dict[int, list[list[int]]] = {}
    if a is None and b is None:
        if k != l:
            return None
        comps[k] = [[t]]
    elif a is None:
        if l not in (k - 1, k):
            return None
        comps[k] = [[t]]
    elif b is None:
        if l == k:
            comps[k] = [[t]]
        elif l == k + 1:
            comps[k + 1] = [[t]]
        else:
            return None
    else:
        if l != k:
            return None
        if rng.randrange(3) == 1 and a == b:
            comps[k], comps[k + 1] = [[t]], [[t]]
        else:
            comps[k], comps[k + 1] = [[a * t]], [[b * t]]
    try:
        return make_chain_map(piece_complex(ring, src), piece_complex(ring, tgt), comps)
    except ValueError:
        return None


def random_chain_map(rng: random.Random, a: ComplexRecipe, b: ComplexRecipe, skip: float = 0.45) -> ChainMap:
    """A chain map a -> b from piece-to-piece blocks, each left out with
    probability skip, plus a null-homotopic perturbation."""
    ring = a.cx.ring
    blocks: dict[tuple[int, int], ChainMap] = {}
    for bi, bp in enumerate(b.pieces):
        for ai, ap in enumerate(a.pieces):
            if rng.random() < skip:
                continue
            t = rng.choice([-2, -1, 1, 2, 3])
            piece = _piece_map(rng, ring, ap, bp, t)
            if piece is not None:
                blocks[(bi, ai)] = piece
    raw = map_direct_sum(blocks, a.parts, b.parts, ring, a.summed, b.summed)
    comps = {}
    for n, m in raw.components:
        comps[n] = mat_mul(b.basis[n], mat_mul(m, a.basis_inv[n]))
    f = make_chain_map(a.cx, b.cx, comps)
    h_comps = {}
    for n, r in a.cx.ranks:
        rt = b.cx.rank(n - 1)
        if rt and rng.random() < 0.5:
            h_comps[n] = [
                [rng.choice([-1, 0, 0, 1, 2]) for _ in range(r)] for _ in range(rt)
            ]
    if h_comps:
        f = homotopy_perturb(f, h_comps)
    return f


# ---------------------------------------------------------------------------
# spaces, maps, sheaves


def random_base(rng: random.Random, params: GenParams) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(rng.randint(1, params.max_set)))


def random_space(
    rng: random.Random, base: tuple[str, ...], prefix: str, params: GenParams, min_size: int = 0
) -> FinOver:
    n = rng.randint(min_size, params.max_set)
    elements = tuple(f"{prefix}{i}" for i in range(n))
    anchor = tuple(rng.choice(base) for _ in elements)
    return FinOver(tuple(base), elements, anchor)


def random_space_over(
    rng: random.Random, target: FinOver, prefix: str, params: GenParams
) -> tuple[FinOver, OverMap]:
    """A space fibered over the target together with its projection."""
    elements, anchors, graph = [], [], []
    budget = params.max_set
    for t in target.elements:
        size = rng.randint(0, 2)
        for _ in range(min(size, budget)):
            x = f"{prefix}{len(elements)}"
            elements.append(x)
            anchors.append(target.anchor_of(t))
            graph.append(t)
            budget -= 1
    space = FinOver(target.base, tuple(elements), tuple(anchors))
    return space, OverMap(space, target, tuple(graph))


def random_span(rng: random.Random, x: FinOver, y: FinOver, prefix: str, params: GenParams) -> Span:
    """Random correspondence between two spaces over the common base; each
    apex element draws a base point both spaces reach, then its two feet."""
    lefts, rights = om_anchor(x).fiber, om_anchor(y).fiber  # the feet over each base point
    shared = [s for s in x.base if lefts(s) and rights(s)]
    n, drawn = rng.randint(0, params.max_set), []  # (base point, left foot, right foot) per element
    for _ in range(n if shared else 0):
        s = rng.choice(shared)
        drawn.append((s, rng.choice(lefts(s)), rng.choice(rights(s))))
    anchors, lgraph, rgraph = zip(*drawn) if drawn else ((), (), ())
    apex = FinOver(x.base, tuple(f"{prefix}{i}" for i in range(len(drawn))), anchors)
    return Span(OverMap(apex, x, lgraph), OverMap(apex, y, rgraph))


@dataclass
class GenObject:
    obj: Sheaf
    recipes: dict[Label, ComplexRecipe]


def random_gen_object(
    rng: random.Random, ring: Ring, space: FinOver, params: GenParams
) -> GenObject:
    recipes = {x: random_complex(rng, ring, params) for x in space.elements}
    sheaf = Sheaf(ring, space, tuple(recipes[x].cx for x in space.elements))
    return GenObject(sheaf, recipes)


def random_cc_morphism(
    rng: random.Random, src: GenObject, tgt: GenObject, span: Span
) -> CCMorphism:
    maps = {}
    for g in span.apex.elements:
        maps[g] = random_chain_map(rng, src.recipes[span.left(g)], tgt.recipes[span.right(g)])
    return make_cc_morphism(src.obj, tgt.obj, span, maps)


def choose_ring(rng: random.Random, params: GenParams) -> Ring:
    if params.modulus is not None:
        return Ring(params.modulus)
    return Ring(rng.choice([0, 7]))


# ---------------------------------------------------------------------------
# whole-diagram instances

# a child's suites ask each memo for one draw; it also keeps the child before
SHARED_DRAWS = 2


@lru_cache(maxsize=SHARED_DRAWS)
def random_lv_instance(seed: int, params: GenParams) -> Instance:
    """A random commuting two-rectangle diagram, lower row first, upper row
    lifted through the fibers, with coefficient data on the upper row."""
    rng = random.Random(seed)
    ring = choose_ring(rng, params)
    base = random_base(rng, params)
    inst = Instance(ring, base)

    xp = random_space(rng, base, "xp", params, min_size=1)
    yp = random_space(rng, base, "yp", params, min_size=1)
    cp = random_span(rng, xp, yp, "cp", params)
    dp = random_span(rng, yp, xp, "dp", params)

    x, f = random_space_over(rng, xp, "x", params)
    y, g = random_space_over(rng, yp, "y", params)
    c, p = _lift_span(rng, cp, f, g, "c")
    d, q = _lift_span(rng, dp, g, f, "d")

    lobj = random_gen_object(rng, ring, x, params)
    mobj = random_gen_object(rng, ring, y, params)
    u = random_cc_morphism(rng, lobj, mobj, c)
    v = random_cc_morphism(rng, mobj, lobj, d)

    inst.spaces = {"X": x, "Y": y, "Xp": xp, "Yp": yp, "C": c.apex, "D": d.apex,
                   "Cp": cp.apex, "Dp": dp.apex}
    inst.maps = {
        "f": f, "g": g, "p": p, "q": q,
        "cl": c.left, "cr": c.right, "dl": d.left, "dr": d.right,
        "cpl": cp.left, "cpr": cp.right, "dpl": dp.left, "dpr": dp.right,
    }
    inst.objects = {"L": lobj.obj, "M": mobj.obj}
    inst.spans = {"c": c, "d": d, "cp": cp, "dp": dp}
    inst.morphisms = {"u": u, "v": v}
    inst.lv = PushRectangles(f=f, p=p, g=g, q=q, u=u, v=v, cp=cp, dp=dp)
    return inst


def _lift_span(
    rng: random.Random, lower: Span, f: OverMap, g: OverMap, prefix: str
) -> tuple[Span, OverMap]:
    """Lift a span through fibered covers of its feet; commutes by choice."""
    elements, anchors, lgraph, rgraph, down = [], [], [], [], []
    for gp in lower.apex.elements:
        lx = f.fiber(lower.left(gp))
        ry = g.fiber(lower.right(gp))
        if not lx or not ry:
            continue
        for _ in range(rng.randint(0, 2)):
            gname = f"{prefix}{len(elements)}"
            elements.append(gname)
            anchors.append(lower.apex.anchor_of(gp))
            lgraph.append(rng.choice(lx))
            rgraph.append(rng.choice(ry))
            down.append(gp)
    apex = FinOver(lower.apex.base, tuple(elements), tuple(anchors))
    span = Span(
        OverMap(apex, f.source, tuple(lgraph)), OverMap(apex, g.source, tuple(rgraph))
    )
    return span, OverMap(apex, lower.apex, tuple(down))


def random_endo_instance(seed: int, params: GenParams) -> tuple[GenObject, CCMorphism]:
    """Endomorphism over a one-point base: the generated object and the endomorphism."""
    rng = random.Random(seed)
    ring = choose_ring(rng, params)
    base = ("pt",)
    x = random_space(rng, base, "x", params, min_size=1)
    obj = random_gen_object(rng, ring, x, params)
    span = random_span(rng, x, x, "c", params)
    e = random_cc_morphism(rng, obj, obj, span)
    return obj, e


@lru_cache(maxsize=SHARED_DRAWS)
def random_pair_instance(seed: int, params: GenParams) -> tuple:
    """Two objects over a shared base with morphisms both ways."""
    rng = random.Random(seed)
    ring = choose_ring(rng, params)
    base = random_base(rng, params)
    x = random_space(rng, base, "x", params, min_size=1)
    y = random_space(rng, base, "y", params, min_size=1)
    a = random_gen_object(rng, ring, x, params)
    b = random_gen_object(rng, ring, y, params)
    u = random_cc_morphism(rng, a, b, random_span(rng, x, y, "c", params))
    v = random_cc_morphism(rng, b, a, random_span(rng, y, x, "d", params))
    return a, b, u, v


def random_object_instance(seed: int, params: GenParams):
    rng = random.Random(seed)
    ring = choose_ring(rng, params)
    base = random_base(rng, params)
    x = random_space(rng, base, "x", params)
    return random_gen_object(rng, ring, x, params)


def random_base_change_for(seed: int, base: tuple, params: GenParams):
    rng = random.Random(seed)
    n = rng.randint(0, params.max_set)
    new_base = tuple(f"t{i}" for i in range(n))
    graph = {t: rng.choice(base) for t in new_base}
    return make_base_change(new_base, graph, base)
