"""Seeded inputs and the per-instance work of the three benchmark workloads.

Each workload builds a list of instances from one seed (set-up, not timed),
runs each instance through public spantrace calls (timed), and then checks
every verdict (not timed).  Program functions are always reached through
their module (``dualtrace.make_dual``), never through a name imported into
this module, so that the outside-in tracer sees every call.

Why these three:

* ``fuzz_all`` is what ``spantrace fuzz --suite all`` and the acceptance
  tests run: many small instances at default generator sizes.  Constant
  factors, generation and the churning 4096-entry kernel caches show here.
* ``dual_wide`` puts n points over one base point, n past the generator's
  ``max_set`` cap, with rank-1 stalks from a tiny pool: the n^3
  certificate apexes make finite-set plumbing (``finspan``/``corrcat``) do
  the work while the ``chainalg`` kernels mostly hit their caches.
* ``pair_deep`` is the opposite: two-point spaces whose stalks have total
  rank 6 to 8, so the integer kernels on rank-r^3 complexes do the work and
  set sizes are trivial.  It runs the ``spantrace trace FILE`` path: parse,
  dualise both objects, pair against the pointwise oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from spantrace import chainalg, corrcat, dualtrace, finspan, generate, instances, sheafops, suites


@dataclass
class Instance:
    label: str  # suite name or ladder rung, e.g. "lv", "n16", "r8"
    seed: int  # the seed this instance was built from
    size: dict  # deterministic sizes, named in failure messages
    data: object


@dataclass
class Verdicts:
    attempted: int
    failures: list[str]
    digest: str | None = None  # fuzz_all only: hash of its reports


def _failure(inst: Instance, what: str) -> str:
    return f"{inst.label} seed={inst.seed} size={json.dumps(inst.size, sort_keys=True)}: {what}"


# ---------------------------------------------------------------------------
# fuzz_all


class FuzzAll:
    name = "fuzz_all"
    instance_seeds = 40  # per worker; one instance seed runs all six suites
    worker_seconds = 4.0
    suite_names = tuple(n for n in suites.SUITE_NAMES if n != "all")

    def build(self, seed: int) -> list[Instance]:
        rng = random.Random(seed)
        params = generate.GenParams()
        size = {"max_set": params.max_set, "max_rank": params.max_rank}
        out = []
        for _ in range(self.instance_seeds):
            s = rng.getrandbits(63)
            out.extend(Instance(name, s, size, params) for name in self.suite_names)
        return out

    def run(self, inst: Instance):
        return suites.run_suite(inst.label, inst.seed, 1, inst.data)

    def verify(self, insts: list[Instance], outs: list) -> Verdicts:
        """Each instance seed's six one-instance reports, names prefixed as
        ``run_suite("all", s, 1)`` prefixes them, form exactly the report of
        ``spantrace fuzz --suite all --seed s --count 1``; the digest hashes
        those reports without ``elapsed_seconds``."""
        attempted, failures = 0, []
        h = hashlib.sha256()
        by_seed: dict[int, list] = {}
        for inst, out in zip(insts, outs):
            checks = by_seed.setdefault(inst.seed, [])
            if isinstance(out, BaseException):
                attempted += 1
                failures.append(_failure(inst, f"raised {out!r}"))
                checks.append(suites.Check(0, f"{inst.label}: raised", "fail",
                                           {"error": repr(out)}))
                continue
            for c in out.checks:
                attempted += 1
                if c.status != "pass":
                    failures.append(_failure(inst, f"{c.name}: {c.detail}"))
                checks.append(suites.Check(c.index, f"{inst.label}: {c.name}", c.status, c.detail))
        for s, checks in by_seed.items():
            report = suites.Report("all", s, 1, insts[0].data, checks)
            h.update(canonical_report(suites.report_doc(report)).encode())
        return Verdicts(attempted, failures, h.hexdigest())


def canonical_report(doc: dict) -> str:
    """A report document without its wall-clock field, as canonical JSON."""
    doc = {k: v for k, v in doc.items() if k != "elapsed_seconds"}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# explicit objects the generator cannot produce


def _unimodular(rng: random.Random, ring, n: int):
    """A seeded unimodular matrix and its inverse, by two row additions."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            u[i][k] += c * u[j][k]
            inv[k][j] -= c * inv[k][i]
    return chainalg.mat(ring, u, cols=n), chainalg.mat(ring, inv, cols=n)


def make_recipe(rng: random.Random, ring, pieces) -> generate.ComplexRecipe:
    """Sum of the given one- and two-term pieces, conjugated degreewise by
    seeded unimodular basis changes; d.d = 0 holds by construction.  Unlike
    ``generate.random_complex`` the caller fixes the pieces, so a ladder rung
    has the same rank profile under every seed."""
    pieces = [(k, None if a is None else rng.choice((-3, -2, -1, 1, 2, 3)))
              for k, a in pieces]
    base = chainalg.cx_direct_sum([generate.piece_complex(ring, p) for p in pieces], ring)
    basis, basis_inv, diff = {}, {}, {}
    for n, r in base.ranks:
        basis[n], basis_inv[n] = _unimodular(rng, ring, r)
    for n, _ in base.ranks:
        if base.rank(n + 1):
            diff[n] = chainalg.mat_mul(basis[n + 1], chainalg.mat_mul(base.d(n), basis_inv[n]))
    cx = chainalg.make_complex(ring, dict(base.ranks), diff)
    return generate.ComplexRecipe(pieces, basis, basis_inv, cx)


def point_space(prefix: str, n: int) -> finspan.FinOver:
    return finspan.FinOver(("pt",), tuple(f"{prefix}{i}" for i in range(n)), ("pt",) * n)


def gen_object(space, recipes: dict) -> generate.GenObject:
    ring = next(iter(recipes.values())).cx.ring
    sheaf = sheafops.Sheaf(ring, space, tuple(recipes[x].cx for x in space.elements))
    return generate.GenObject(corrcat.CCObject(space, sheaf), recipes)


def random_span(rng: random.Random, x, y, prefix: str, size: int, loop_bias: float = 0.0):
    """A span with ``size`` apex elements over the one-point base; with
    ``loop_bias`` the i-th element is a loop at x_i with that probability."""
    left, right = [], []
    for i in range(size):
        left.append(x.elements[i % x.size] if loop_bias else rng.choice(x.elements))
        if loop_bias and rng.random() < loop_bias:
            right.append(left[-1])
        else:
            right.append(rng.choice(y.elements))
    apex = point_space(prefix, size)
    return finspan.Span(finspan.OverMap(apex, x, tuple(left)), finspan.OverMap(apex, y, tuple(right)))


def _ring(rung: int):
    # Z and Z/7 alternate by rung, as the generator's default alternates them
    return chainalg.Ring(0 if rung % 2 == 0 else 7)


# ---------------------------------------------------------------------------
# dual_wide


class DualWide:
    name = "dual_wide"
    rungs = (12, 14, 16)  # points over one base point; the generator caps at 4
    repeats = 2  # each rung twice a worker, once over Z and once over Z/7
    pool_degrees = (-2, -1, 0)  # three distinct stalks per ring: kernels mostly hit caches
    worker_seconds = 3.8

    def build(self, seed: int) -> list[Instance]:
        rng = random.Random(seed)
        pools = {}
        out = []
        for i, n in enumerate(self.rungs * self.repeats):
            ring = _ring(i)
            if ring not in pools:
                # rank-1 stalks at fixed degrees, so that the set handling
                # rather than the kernels does the work
                pools[ring] = [make_recipe(rng, ring, [(k, None)]) for k in self.pool_degrees]
            x = point_space("x", n)
            obj = gen_object(x, {e: rng.choice(pools[ring]) for e in x.elements})
            span = random_span(rng, x, x, "c", n, loop_bias=0.5)
            endo = generate.random_cc_morphism(rng, obj, obj, span)
            out.append(Instance(f"n{n}", seed, {"points": n, "modulus": ring.modulus},
                                (obj.obj, endo)))
        return out

    def run(self, inst: Instance):
        obj, endo = inst.data
        dx = dualtrace.make_dual(obj)
        tr = dualtrace.trace(endo, dx).omega
        loc = dualtrace.local_pairing(endo, corrcat.cc_identity(obj))
        return dx, tr, loc

    def verify(self, insts: list[Instance], outs: list) -> Verdicts:
        attempted, failures = 0, []
        for inst, out in zip(insts, outs):
            if isinstance(out, BaseException):
                attempted += 1
                failures.append(_failure(inst, f"raised {out!r}"))
                continue
            attempted += 3  # two triangle certificates, trace against the oracle
            dx, tr, loc = out
            failures += [_failure(inst, e) for e in certificate_errors(dx)]
            span = inst.data[1].span
            expect = tuple((g, span.left(g)) for g in tr.carrier.elements)
            if loc.carrier.elements != expect or loc.values != tr.values:
                failures.append(_failure(inst, "trace differs from the pointwise oracle"))
        return Verdicts(attempted, failures)


def certificate_errors(dx) -> list[str]:
    """One check per triangle cell: it ends at the identity and passes the
    exact fiberwise-sum check."""
    errors = []
    for name, cell, obj in (("object", dx.triangle_obj, dx.obj),
                            ("dual", dx.triangle_dual, dx.dual)):
        try:
            if cell.target != corrcat.cc_identity(obj):
                raise ValueError("it does not end at the identity")
            corrcat.cc_cell_check(cell)
        except ValueError as e:
            errors.append(f"{name} triangle certificate fails: {e}")
    return errors


# ---------------------------------------------------------------------------
# pair_deep


class PairDeep:
    name = "pair_deep"
    rungs = (6, 7, 8)  # total stalk rank at every point
    points = 2
    span_size = 3
    worker_seconds = 2.5

    @staticmethod
    def pieces(rank: int):
        # fixed rank profile per rung, so seeds differ only in coefficients:
        # two-term pieces at degrees -2..1 in turn, free pieces fill the rest
        two = [((-2, -1, 0, 1)[j % 4], 1) for j in range((rank - 1) // 2)]
        free = [(d, None) for d in (0, -1)[: rank - 2 * len(two)]]
        return two + free

    def build(self, seed: int) -> list[Instance]:
        rng = random.Random(seed)
        out = []
        for i, r in enumerate(self.rungs):
            ring = _ring(i)
            x, y = point_space("x", self.points), point_space("y", self.points)
            a = gen_object(x, {e: make_recipe(rng, ring, self.pieces(r)) for e in x.elements})
            b = gen_object(y, {e: make_recipe(rng, ring, self.pieces(r)) for e in y.elements})
            c = random_span(rng, x, y, "c", self.span_size)
            d = random_span(rng, y, x, "d", self.span_size)
            spec = instances.Instance(ring, ("pt",))
            spec.spaces = {"X": x, "Y": y, "C": c.apex, "D": d.apex}
            spec.maps = {"cl": c.left, "cr": c.right, "dl": d.left, "dr": d.right}
            spec.objects = {"A": a.obj, "B": b.obj}
            spec.spans = {"c": c, "d": d}
            spec.morphisms = {"u": generate.random_cc_morphism(rng, a, b, c),
                              "v": generate.random_cc_morphism(rng, b, a, d)}
            text = instances.emit_instance(spec)
            out.append(Instance(f"r{r}", seed, {"points": self.points, "stalk_rank": r,
                                                "modulus": ring.modulus}, text))
        return out

    def run(self, inst: Instance):
        parsed = instances.parse_instance(inst.data)
        da = dualtrace.make_dual(parsed.objects["A"])
        db = dualtrace.make_dual(parsed.objects["B"])
        u, v = parsed.morphisms["u"], parsed.morphisms["v"]
        return (da, db,
                (dualtrace.pairing(u, v, da).omega, dualtrace.local_pairing(u, v)),
                (dualtrace.pairing(v, u, db).omega, dualtrace.local_pairing(v, u)))

    def verify(self, insts: list[Instance], outs: list) -> Verdicts:
        attempted, failures = 0, []
        for inst, out in zip(insts, outs):
            if isinstance(out, BaseException):
                attempted += 1
                failures.append(_failure(inst, f"raised {out!r}"))
                continue
            attempted += 6  # four triangle certificates, two pairings against the oracle
            da, db, uv, vu = out
            failures += [_failure(inst, e) for e in certificate_errors(da) + certificate_errors(db)]
            for name, (cat, loc) in (("<u, v>", uv), ("<v, u>", vu)):
                if cat != loc:
                    failures.append(_failure(inst, f"pairing {name} differs from the pointwise oracle"))
        return Verdicts(attempted, failures)


WORKLOADS = {w.name: w for w in (FuzzAll(), DualWide(), PairDeep())}
