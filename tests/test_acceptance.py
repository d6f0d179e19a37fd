"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints its own summary line.
"""

import itertools
import json
import os
import random
import time

from spantrace.basefunc import functor_preserves, push2_strict
from spantrace.chainalg import (
    Ring,
    alt_trace,
    homotopy_perturb,
    make_chain_map,
)
from spantrace.corrcat import (
    cc_cell_check,
    cc_compose,
    f_natural,
    make_cc_cell,
    make_cc_morphism,
    shriek_push,
)
from spantrace.dualtrace import (
    char_class,
    local_pairing,
    make_dual,
    pairing,
    pairing_functorial,
    pairing_symmetry,
    trace,
)
from spantrace.finspan import Span, base_space, om_anchor
from spantrace.generate import (
    GenParams,
    random_base,
    random_base_change_for,
    random_endo_instance,
    random_gen_object,
    random_lv_instance,
    random_object_instance,
    random_pair_instance,
    random_space,
    random_space_over,
)
from spantrace.instances import emit_instance, parse_instance
from spantrace.sheafops import omega_push, push, verdier
from spantrace.suites import report_doc, run_suite

DEFAULTS = GenParams()  # sets <= 4, ranks <= 3, degrees in [-2, 2], moduli {0, 7}


def _seeds(master, n):
    rng = random.Random(master)
    return [rng.getrandbits(63) for _ in range(n)]


def test_criterion_1_pushforward_trace_identity_500():
    """500 random commuting rectangles over Z and Z/7; both sides equal
    exactly after recoordination; single-threaded under 60 s."""
    start = time.perf_counter()
    checked = 0
    for modulus in (0, 7):
        params = GenParams(modulus=modulus)
        for seed in _seeds(0xACC1 + modulus, 250):
            res = pairing_functorial(random_lv_instance(seed, params).lv)
            assert res.equal, (modulus, seed, res.pushed, res.rhs)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 500
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"criterion 1: PASS ({checked} diagrams, {elapsed:.1f}s)")


def test_criterion_2_global_fixed_point_200():
    """200 endomorphisms over a one-point base: the local terms sum to the
    alternating trace of the induced endomorphism of the total complex."""
    checked = 0
    for seed in _seeds(0xACC2, 200):
        gen, e = random_endo_instance(seed, DEFAULTS)
        obj = gen.obj
        tr = trace(e, make_dual(obj)).omega
        local_total = tr.ring.norm(sum(tr.values))
        s = base_space(obj.space.base)
        e_tot = shriek_push(
            e, om_anchor(obj.space), om_anchor(e.span.apex), om_anchor(obj.space),
            Span(om_anchor(s), om_anchor(s)),
        )
        total = alt_trace(e_tot.map_at(s.elements[0]))
        assert local_total == total, (seed, local_total, total)
        checked += 1
    print(f"criterion 2: PASS ({checked} endomorphisms)")


def test_criterion_3_local_term_oracle_500():
    """Categorical pairing equals the pointwise alternating trace on 500
    random pairs; this pins every sign convention."""
    checked = 0
    for seed in _seeds(0xACC3, 500):
        a, b, u, v = random_pair_instance(seed, DEFAULTS)
        cat = pairing(u, v, make_dual(a.obj)).omega
        assert cat == local_pairing(u, v), seed
        checked += 1
    print(f"criterion 3: PASS ({checked} pairs)")


def test_criterion_4_duality_certificates_100():
    """Triangle identities certified with explicit invertible cells on 100
    random objects; double dual is the identity on matrices."""
    checked = 0
    for seed in _seeds(0xACC4, 100):
        gen = random_object_instance(seed, DEFAULTS)
        d = make_dual(gen.obj)  # verifies both triangle cells on construction
        assert d.triangle_obj.graph.is_bijective()
        assert d.triangle_dual.graph.is_bijective()
        assert verdier(verdier(gen.obj)) == gen.obj
        checked += 1
    print(f"criterion 4: PASS ({checked} objects)")


def test_criterion_5_pairing_symmetry_200():
    """Valuewise equality through the swap bijection on 200 random pairs."""
    checked = 0
    for seed in _seeds(0xACC5, 200):
        a, b, u, v = random_pair_instance(seed, DEFAULTS)
        lhs, rhs, swap = pairing_symmetry(u, v, make_dual(a.obj), make_dual(b.obj))
        for e in lhs.carrier.elements:
            assert lhs.value(e) == rhs.value(swap(e))
        checked += 1
    print(f"criterion 5: PASS ({checked} pairs)")


def test_criterion_6_characteristic_class_200():
    """The trace of the identity is the pointwise Euler characteristic, and
    it commutes with pushforward on 200 random maps."""
    checked = 0
    for seed in _seeds(0xACC6, 200):
        rng = random.Random(seed)
        ring = Ring(rng.choice([0, 7]))
        base = random_base(rng, DEFAULTS)
        xp = random_space(rng, base, "xp", DEFAULTS, min_size=1)
        x, f = random_space_over(rng, xp, "x", DEFAULTS)
        gen = random_gen_object(rng, ring, x, DEFAULTS)
        cc = char_class(gen.obj)
        for el in x.elements:
            stalk = gen.obj.stalk(el)
            euler = sum(r if n % 2 == 0 else -r for n, r in stalk.ranks)
            assert cc.value(el) == ring.norm(euler)
        pushed = push(f, gen.obj)
        assert omega_push(f, cc) == char_class(pushed), seed
        checked += 1
    print(f"criterion 6: PASS ({checked} pushforwards)")


def test_criterion_7_base_change_200():
    """Base change commutes with duals, traces and pairings exactly after
    recoordination, and with pushforward literally, on 200 instances."""
    checked = 0
    for seed in _seeds(0xACC7, 200):
        inst = random_lv_instance(seed, DEFAULTS)
        rect = inst.lv
        bc = random_base_change_for(seed ^ 0xBEEF, inst.base, DEFAULTS)
        rep = functor_preserves(bc, make_dual(rect.u.source), rect.u, rect.v)
        assert rep.dual_strict and rep.pairing_strict, seed
        assert push2_strict(bc, rect), seed
        checked += 1
    print(f"criterion 7: PASS ({checked} base changes)")


def test_criterion_8_homotopy_invariance_200():
    """Traces are unchanged under 200 random homotopy perturbations."""
    checked = 0
    attempts = 0
    rng_master = random.Random(0xACC8)
    while checked < 200:
        attempts += 1
        seed = rng_master.getrandbits(63)
        rng = random.Random(seed)
        gen, e = random_endo_instance(seed, DEFAULTS)
        if e.span.apex.size == 0:
            continue
        dx = make_dual(gen.obj)
        before = trace(e, dx).omega
        pick = rng.choice(e.span.apex.elements)
        f = e.map_at(pick)
        comps = {
            n: [[rng.randint(-2, 2) for _ in range(r)] for _ in range(f.target.rank(n - 1))]
            for n, r in f.source.ranks
            if f.target.rank(n - 1)
        }
        new_maps = dict(zip(e.span.apex.elements, e.maps))
        new_maps[pick] = homotopy_perturb(f, comps)
        e2 = make_cc_morphism(e.source, e.target, e.span, new_maps)
        assert trace(e2, dx).omega == before, seed
        checked += 1
    print(f"criterion 8: PASS ({checked} perturbations, {attempts} attempts)")


def _chain_candidates_mod2(src, tgt):
    ring = Ring(2)
    shapes = [(n, tgt.rank(n), src.rank(n)) for n, _ in src.ranks if tgt.rank(n)]
    slots = sum(r * c for _, r, c in shapes)
    if slots > 14:
        return None
    out = []
    for bits in itertools.product(range(2), repeat=slots):
        comps, k = {}, 0
        for n, r, c in shapes:
            rows = []
            for _ in range(r):
                rows.append(list(bits[k : k + c]))
                k += c
            comps[n] = rows
        try:
            out.append(make_chain_map(src, tgt, comps))
        except ValueError:
            pass
    return out


def _cell_passes(cell):
    try:
        cc_cell_check(cell)
    except ValueError:
        return False
    return True


def _lift_test(rect):
    """The pushforward of u down the rectangle, and a test of whether a
    candidate lift over the lower span makes the rectangle a passing 2-cell."""
    pushed = shriek_push(rect.u, rect.f, rect.p, rect.g, rect.cp)
    fn = f_natural(rect.f, rect.u.source)
    left = cc_compose(rect.u, f_natural(rect.g, rect.u.target))
    graph = {e: (rect.u.span.left(e[0]), rect.p(e[0])) for e in left.span.apex.elements}
    return pushed, lambda cand: _cell_passes(make_cc_cell(left, cc_compose(fn, cand), graph))


def _exhaustive_unique_lifts(params, seeds, enough):
    """Instances, up to enough, on which every chain map over Z/2 at each
    lower apex point was tried and only the pushforward passes."""
    exhaustive = 0
    for seed in seeds:
        if exhaustive >= enough:
            break
        rect = random_lv_instance(seed, params).lv
        pushed, passes = _lift_test(rect)
        assert passes(pushed), seed
        if not rect.cp.apex.elements:
            continue
        per_point = []
        for gp in rect.cp.apex.elements:
            cands = _chain_candidates_mod2(
                pushed.source.stalk(rect.cp.left(gp)),
                pushed.target.stalk(rect.cp.right(gp)),
            )
            if cands is None:
                per_point = None
                break
            per_point.append(cands)
        if per_point is None:
            continue
        total = 1
        for c in per_point:
            total *= len(c)
        if not (1 < total <= 4096):
            continue
        matches = 0
        for combo in itertools.product(*per_point):
            cand = make_cc_morphism(
                pushed.source, pushed.target, rect.cp,
                dict(zip(rect.cp.apex.elements, combo)),
            )
            if passes(cand):
                matches += 1
                assert cand == pushed
        assert matches == 1, seed
        exhaustive += 1
    return exhaustive


def test_criterion_9_pushforward_unique_lift():
    """On small instances the pushforward is the unique morphism over the
    lower span through which the rectangle is a 2-cell: exhaustively over
    Z/2, and by single-entry perturbation over Z."""
    small = GenParams(max_set=3, max_rank=2, deg_min=0, deg_max=1, modulus=2)
    exhaustive = _exhaustive_unique_lifts(small, range(200), 12)
    assert exhaustive >= 12

    # over Z: flipping any single stored entry of the pushforward breaks the cell
    perturbed_checked = 0
    params_z = GenParams(max_set=3, max_rank=2, modulus=0)
    for seed in range(60):
        inst = random_lv_instance(seed, params_z)
        rect = inst.lv
        if not rect.cp.apex.elements:
            continue
        pushed, passes = _lift_test(rect)
        assert passes(pushed), seed
        for gp in rect.cp.apex.elements:
            m = pushed.map_at(gp)
            for n, mtx in m.components:
                for i in range(mtx.rows):
                    for j in range(mtx.cols):
                        rows = [list(r) for r in mtx.entries]
                        rows[i][j] += 1
                        try:
                            cand_map = make_chain_map(m.source, m.target, {**dict(m.components), n: rows})
                        except ValueError:
                            perturbed_checked += 1
                            continue  # not even a chain map: not a competing lift
                        cands = dict(zip(rect.cp.apex.elements, pushed.maps))
                        cands[gp] = cand_map
                        cand = make_cc_morphism(pushed.source, pushed.target, rect.cp, cands)
                        assert not passes(cand), seed
                        perturbed_checked += 1
    assert perturbed_checked >= 50
    print(f"criterion 9: PASS ({exhaustive} exhaustive, {perturbed_checked} perturbations)")


def test_criterion_10_determinism_and_round_trip():
    """Identical seeds give byte-identical reports modulo timing; shipped
    fixtures and generated instances round-trip byte for byte."""
    r1 = report_doc(run_suite("all", 12321, 5))
    r2 = report_doc(run_suite("all", 12321, 5))
    r1.pop("elapsed_seconds")
    r2.pop("elapsed_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    for name in ("two_point.json", "lv_small.json", "lv_nonzero.json"):
        text = open(os.path.join(fixtures, name), encoding="utf-8").read()
        assert emit_instance(parse_instance(text)) == text
    for seed in range(20):
        inst = random_lv_instance(seed, DEFAULTS)
        text = emit_instance(inst)
        assert emit_instance(parse_instance(text)) == text
        assert emit_instance(random_lv_instance(seed, DEFAULTS)) == text
    print("criterion 10: PASS (reports deterministic, fixtures round-trip)")
