"""What the traced run measures: the functions wrapped in each spantrace
layer, the work they count, and the per-layer metric catalog.

Metrics are named ``<module>.<function>.<stat>``.  Every traced function
reports ``calls`` and ``self_s``; functions that call further traced
functions (the entry points of a layer) also report ``incl_s``.  A
function a workload never calls reads 0 on that workload.

Which end-to-end metric each layer should move, and where:

* ``chainalg`` kernels move ``instances_per_s`` on ``pair_deep``; the cache
  counters move ``instances_per_s`` and ``peak_rss_mb`` on ``fuzz_all``.
* ``finspan`` set handling moves ``instances_per_s`` on ``dual_wide``.
* ``sheafops`` moves ``instances_per_s`` and ``instance_p95_ms`` on
  ``fuzz_all``.
* ``corrcat`` moves ``dual_wide`` and ``fuzz_all``.
* ``dualtrace`` moves ``dual_wide`` (one ``make_dual`` figure per rung)
  and ``pair_deep``.
* ``basefunc``, ``generate`` and ``instances`` move ``instance_p50_ms`` on
  ``fuzz_all``, ``setup_s`` on the ladders and ``pair_deep``; each is
  predicted to be small.

``wall.*`` are the end-to-end figures of the untraced workers from
unscaled wall times, and the median reference slice, which shows how
fast the machine was.
"""

from __future__ import annotations

from workloads import DualWide, FuzzAll

from tracer import Target

# (module, function, stats): c = calls, s = self_s, i = incl_s
TRACED = [
    ("chainalg", "mat", "cs"),
    ("chainalg", "mat_mul", "cs"),
    ("chainalg", "mat_kron", "cs"),
    ("chainalg", "mat_transpose", "cs"),
    ("chainalg", "cx_tensor", "csi"),
    ("chainalg", "cx_dual", "cs"),
    ("chainalg", "map_compose", "csi"),
    ("chainalg", "map_tensor", "csi"),
    ("chainalg", "assoc_map", "csi"),
    ("chainalg", "assoc_map_inv", "csi"),
    ("finspan", "fiber_product", "cs"),
    ("finspan", "OverMap.fiber", "cs"),
    ("finspan", "span_compose", "csi"),
    ("finspan", "span_tensor", "csi"),
    ("sheafops", "box", "csi"),
    ("sheafops", "push", "csi"),
    ("sheafops", "verdier", "csi"),
    ("sheafops", "Sheaf.stalk", "cs"),
    ("corrcat", "obj_tensor", "csi"),
    ("corrcat", "cc_compose", "csi"),
    ("corrcat", "cc_tensor", "csi"),
    ("corrcat", "shriek_push", "csi"),
    ("corrcat", "cc_cell_check", "csi"),
    ("corrcat", "CCMorphism.map_at", "cs"),
    ("dualtrace", "make_dual", "csi"),
    ("dualtrace", "pairing", "csi"),
    ("dualtrace", "local_pairing", "csi"),
    ("dualtrace", "fixed_point_space", "csi"),
    ("dualtrace", "pairing_functorial", "csi"),
    ("basefunc", "functor_preserves", "ci"),
    ("basefunc", "push2_strict", "ci"),
    ("generate", "random_lv_instance", "i"),
    ("generate", "random_endo_instance", "i"),
    ("generate", "random_pair_instance", "i"),
    ("generate", "random_object_instance", "i"),
    ("instances", "parse_instance", "ci"),
]
CACHED = ("cx_tensor", "cx_dual", "ev_map", "coev_map", "swap_map", "assoc_map", "mat_identity")
LAYERS = ("chainalg", "finspan", "sheafops", "corrcat", "dualtrace")
# the end-to-end figures from unscaled wall times, and the reference slice
WALL = (("instances_per_s", "1/s"), ("instance_p50_ms", "ms"), ("instance_p95_ms", "ms"),
        ("setup_s", "s"), ("ref_slice_ms", "ms"))
STATS = {"c": ("calls", "count"), "s": ("self_s", "s"), "i": ("incl_s", "s")}


def _mul_adds(counts, args, result, seconds):
    a, b = args
    counts["chainalg.mat_mul.mul_adds"] += a.rows * a.cols * b.cols


def _kron_entries(counts, args, result, seconds):
    counts["chainalg.mat_kron.entries"] += result.rows * result.cols


def _pairs(counts, args, result, seconds):
    f, g = args
    counts["finspan.fiber_product.pairs_scanned"] += f.source.size * g.source.size
    counts["finspan.fiber_product.pairs_out"] += result[0].size


def _apex_out(counts, args, result, seconds):
    counts["corrcat.cc_compose.apex_out"] += result.span.apex.size


def _dual_rung(counts, args, result, seconds):
    n = args[0].space.size
    if n in DualWide.rungs:
        counts[f"dualtrace.make_dual.n{n}.incl_s"] += seconds


COUNTERS = {
    "mat_mul": _mul_adds,
    "mat_kron": _kron_entries,
    "fiber_product": _pairs,
    "cc_compose": _apex_out,
    "make_dual": _dual_rung,
}


def targets() -> list[Target]:
    return [Target(f"spantrace.{m}", q, f"{m}.{q}", COUNTERS.get(q)) for m, q, _ in TRACED]


def catalog() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for m, q, stats in TRACED:
        out += [(f"{m}.{q}.{STATS[s][0]}", STATS[s][1]) for s in stats]
        if q == "mat_mul":
            out.append(("chainalg.mat_mul.mul_adds", "count"))
        elif q == "mat_kron":
            out.append(("chainalg.mat_kron.entries", "count"))
        elif q == "fiber_product":
            out += [("finspan.fiber_product.pairs_scanned", "count"),
                    ("finspan.fiber_product.pairs_out", "count"),
                    ("finspan.fiber_product.match_ratio", "ratio")]
        elif q == "cc_compose":
            out.append(("corrcat.cc_compose.apex_out", "count"))
        elif q == "make_dual":
            out += [(f"dualtrace.make_dual.n{n}.incl_s", "s") for n in DualWide.rungs]
    for fn in CACHED:
        out += [(f"chainalg.cache.{fn}.hit_ratio", "ratio"), (f"chainalg.cache.{fn}.misses", "count")]
    out += [(f"layer.{m}.self_s", "s") for m in LAYERS]
    out += [(f"suites.{s}.instances_per_s", "1/s") for s in FuzzAll.suite_names]
    out.append(("trace.overhead_ratio", "ratio"))
    out += [(f"wall.{k}", u) for k, u in WALL]
    return out


def derive(raw: dict, untraced_suites: dict, overhead_ratio: float,
           wall: dict) -> dict[str, float]:
    """The catalog's values from the summed raw counts of the traced workers,
    the per-suite (instances, scaled seconds) of the untraced ones, the
    ratio of traced to untraced wall time and the untraced wall figures."""
    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _ in catalog():
        parts = name.split(".")
        if name == "finspan.fiber_product.match_ratio":
            v = ratio(raw.get("finspan.fiber_product.pairs_out", 0),
                      raw.get("finspan.fiber_product.pairs_scanned", 0))
        elif parts[:2] == ["chainalg", "cache"] and parts[3] == "hit_ratio":
            hits = raw.get(f"chainalg.cache.{parts[2]}.hits", 0)
            v = ratio(hits, hits + raw.get(f"chainalg.cache.{parts[2]}.misses", 0))
        elif parts[0] == "layer":
            v = sum(raw.get(f"{m}.{q}.self_s", 0.0) for m, q, _ in TRACED if m == parts[1])
        elif parts[0] == "suites":
            v = ratio(*untraced_suites.get(parts[1], (0, 0)))
        elif name == "trace.overhead_ratio":
            v = overhead_ratio
        elif parts[0] == "wall":
            v = wall[parts[1]]
        else:
            v = raw.get(name, 0)
        out[name] = v
    return out
