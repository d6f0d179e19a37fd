"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints its own summary line.
"""

import json
import os
import random
import time
from collections import Counter

from spantrace.chainalg import Ring, homotopy_perturb, make_chain_map
from spantrace.corrcat import make_cc_morphism
from spantrace.dualtrace import make_dual, trace
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
from spantrace.sheafops import omega_push, push
from spantrace.suites import (basechange_checks, global_checks, lv_checks, oracle_checks, report_doc, run_suite,
                              symmetry_checks, triangle_checks)
from statements import (biting_lv_diagram, char_class, clear_caches, every_small_diagram, exhaustive_unique_lifts,
                        lift_test, seeds)

DEFAULTS = GenParams()  # sets <= 4, ranks <= 3, degrees in [-2, 2], moduli {0, 7}


def _holds(body, draw, seeds) -> int:
    """Asserts every check of body on draw(seed) for each seed; the number of seeds."""
    for seed in seeds:
        for name, ok, sides in body(draw(seed)):
            assert ok, (seed, name, sides)
    return len(seeds)


def test_criterion_1_pushforward_trace_identity_500():
    """500 random commuting rectangles over Z and Z/7; both sides equal
    exactly after recoordination; single-threaded under 60 s."""
    start = time.perf_counter()
    checked = 0
    for modulus in (0, 7):
        params = GenParams(modulus=modulus)
        checked += _holds(lv_checks, lambda s: random_lv_instance(s, params).lv, seeds(0xACC1 + modulus, 250))
    elapsed = time.perf_counter() - start
    assert checked == 500
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"criterion 1: PASS ({checked} diagrams, {elapsed:.1f}s)")


def test_criterion_2_global_fixed_point_200():
    """200 endomorphisms over a one-point base: the local terms sum to the
    alternating trace of the induced endomorphism of the total complex."""
    checked = _holds(global_checks, lambda s: random_endo_instance(s, DEFAULTS)[1], seeds(0xACC2, 200))
    print(f"criterion 2: PASS ({checked} endomorphisms)")


def test_criterion_3_local_term_oracle_500():
    """Categorical pairing equals the pointwise alternating trace on 500
    random pairs; this pins every sign convention."""
    checked = _holds(oracle_checks, lambda s: random_pair_instance(s, DEFAULTS)[2:], seeds(0xACC3, 500))
    print(f"criterion 3: PASS ({checked} pairs)")


def test_criterion_4_duality_certificates_100():
    """Triangle identities certified with explicit invertible cells on 100
    random objects; double dual is the identity on matrices."""
    checked = _holds(triangle_checks, lambda s: random_object_instance(s, DEFAULTS).obj, seeds(0xACC4, 100))
    print(f"criterion 4: PASS ({checked} objects)")


def test_criterion_5_pairing_symmetry_200():
    """Valuewise equality through the swap bijection on 200 random pairs."""
    checked = _holds(symmetry_checks, lambda s: random_pair_instance(s, DEFAULTS)[2:], seeds(0xACC5, 200))
    print(f"criterion 5: PASS ({checked} pairs)")


def test_criterion_6_characteristic_class_200():
    """The trace of the identity is the pointwise Euler characteristic, and
    it commutes with pushforward on 200 random maps."""
    checked = 0
    for seed in seeds(0xACC6, 200):
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
    def based_rect(seed):
        inst = random_lv_instance(seed, DEFAULTS)
        return inst.lv, random_base_change_for(seed ^ 0xBEEF, inst.base, DEFAULTS)

    checked = _holds(basechange_checks, based_rect, seeds(0xACC7, 200))
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


def test_criterion_9_pushforward_unique_lift():
    """On small instances the pushforward is the unique morphism over the
    lower span through which the rectangle is a 2-cell: exhaustively over
    Z/2, and by single-entry perturbation over Z."""
    small = GenParams(max_set=3, max_rank=2, deg_min=0, deg_max=1, modulus=2)
    exhaustive = exhaustive_unique_lifts(small, range(200), 12)
    assert exhaustive >= 12

    # over Z: flipping any single stored entry of the pushforward breaks the cell
    perturbed_checked = 0
    params_z = GenParams(max_set=3, max_rank=2, modulus=0)
    for seed in range(60):
        inst = random_lv_instance(seed, params_z)
        rect = inst.lv
        if not rect.cp.apex.elements:
            continue
        pushed, passes = lift_test(rect)
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
    clear_caches()  # so that r2 draws and certifies everything again
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
        clear_caches()
        assert emit_instance(random_lv_instance(seed, DEFAULTS)) == text
    print("criterion 10: PASS (reports deterministic, fixtures round-trip)")


def test_criterion_11_every_small_diagram():
    """The pushforward identity on every diagram of a small scope (one point
    at each lower place, 1-2 upper points, at most 2 apex elements per
    upper span, rank-1 stalks at degree 0, every nonzero scalar), over Z/2
    and Z/3: a configuration that random draws miss is still checked.  On
    each, the upper pairing also equals the pointwise oracle's."""
    counts = {}
    for modulus in (2, 3):
        diagrams = nonzero = paired = 0
        for rect in every_small_diagram(Ring(modulus)):
            ((_, ok, (_, rhs)),) = lv_checks(rect)
            assert ok, (modulus, diagrams, rhs)
            ((_, ok, (omega, _)),) = oracle_checks((rect.u, rect.v))
            assert ok, (modulus, diagrams, omega)
            diagrams += 1
            nonzero += any(rhs.values)
            paired += any(omega.values)
        counts[modulus] = diagrams, nonzero, paired
    assert counts == {2: (306, 65, 132), 3: (3028, 1104, 1604)}
    print(f"criterion 11: PASS ({counts[2][0] + counts[3][0]} diagrams, {counts[2][1] + counts[3][1]} nonzero)")


def test_criterion_12_diagrams_on_which_the_identities_bite_500():
    """500 diagrams of statements.biting_lv_diagram over Z and Z/7: the
    pushforward identity (lv form) and the pairing against the pointwise
    oracle (oracle form) hold on each, and the identities compare nonzero
    values: at least 80 % are nonzero on both sides of the lv form, at
    least 50 % have an s-fibre of two or more upper fixed points carrying a
    nonzero value, and at least 50 % push a block that sums two or more
    upper components."""
    counts = Counter()
    for modulus in (0, 7):
        for seed in seeds(0xACC12 + modulus, 250):
            rect = biting_lv_diagram(seed, Ring(modulus))
            ((_, ok, (pushed, rhs)),) = lv_checks(rect)
            assert ok, (modulus, seed, pushed, rhs)
            ((_, ok, (upper, loc)),) = oracle_checks((rect.u, rect.v))
            assert ok, (modulus, seed, upper, loc)
            fibres = {}
            for (g, d), value in zip(upper.carrier.elements, upper.values):
                fibres.setdefault((rect.p(g), rect.q(d)), []).append(value)
            summed = [[(span.left(k), span.right(k)) for k in down.fiber(low)]
                      for lower, span, down in ((rect.cp, rect.u.span, rect.p), (rect.dp, rect.v.span, rect.q))
                      for low in lower.apex.elements]
            counts["diagrams"] += 1
            counts["nonzero"] += any(pushed.values) and any(rhs.values)
            counts["s-fibre"] += any(len(values) >= 2 and any(values) for values in fibres.values())
            counts["summed"] += any(len(set(feet)) < len(feet) for feet in summed)
    assert counts["diagrams"] == 500
    assert counts["nonzero"] >= 400 and counts["s-fibre"] >= 250 and counts["summed"] >= 250, counts
    print(f"criterion 12: PASS ({counts['diagrams']} diagrams, {counts['nonzero']} nonzero, "
          f"{counts['s-fibre']} with a valued s-fibre, {counts['summed']} summing blocks)")
