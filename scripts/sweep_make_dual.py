#!/usr/bin/env python3
"""Time make_dual, with both triangle certificates, over a size sweep.

Two size families, both over ZZ and both past the generator's caps:

* ``wide`` (the default), generate.wide_object: n points over one base point
  with rank-(2,1) stalks, so the growth of duality's certificates in n
  shows: their apexes have n^2 elements, the tensor objects around them
  n^3, which stay unbuilt.  One untimed warm-up fills the kernel caches
  first, so the figures measure the set and correspondence layers rather
  than first-time matrix work.
* ``deep``, generate.deep_object: one point whose stalk has total rank n, so
  the chain-complex kernels on the rank-n^3 certificate tensors do the work.
  The kernel caches are emptied before every round, so each round pays that
  matrix work.

The speed of a shared machine drifts, so around every round the script
times the benchmark's fixed reference slice of pure-Python work
(perfbench/worker.py) and also reports each round scaled to the slice's
nominal time: files recorded in different sessions compare on the scaled
figures.  The growth exponents are taken from the scaled medians.

Usage: python scripts/sweep_make_dual.py [--family wide|deep] [--sizes 8,16,24,32,48,64]
                                         [--rounds 3] [--out BENCH_make_dual.json]

The sizes default to 8,16,24,32,48,64 for wide and 4,8,12,16,20,24,32 for
deep, the output to BENCH_make_dual.json and BENCH_make_dual_deep.json.
Writes one record per size (median and minimum seconds, raw and scaled,
rounds, and the growth exponent against the previous size) plus the Python
version and the CPU count.  It times the spantrace of its own checkout.
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from worker import REF_NOMINAL_S, reference_slice, scaled  # noqa: E402  (puts src/ on the path)

from spantrace import chainalg  # noqa: E402
from spantrace.chainalg import ZZ  # noqa: E402
from spantrace.dualtrace import make_dual  # noqa: E402
from spantrace.generate import deep_object, wide_object  # noqa: E402

# family: (builder, default sizes, default output, description)
FAMILIES = {
    "wide": (wide_object, "8,16,24,32,48,64", "BENCH_make_dual.json",
             "generate.wide_object over ZZ: n points over one base point, rank-(2,1) stalks"),
    "deep": (deep_object, "4,8,12,16,20,24,32", "BENCH_make_dual_deep.json",
             "generate.deep_object over ZZ: one point, a stalk of total rank n from fixed pieces"),
}


def clear_kernel_caches() -> None:
    """Empty every cache of chainalg, including any added later."""
    for fn in vars(chainalg).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", choices=sorted(FAMILIES), default="wide")
    ap.add_argument("--sizes")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out")
    args = ap.parse_args()
    build, default_sizes, default_out, family = FAMILIES[args.family]
    sizes = [int(n) for n in (args.sizes or default_sizes).split(",")]
    if args.rounds < 1 or any(n < 1 for n in sizes):
        ap.error("sizes and rounds must be positive")
    if args.family == "wide":
        make_dual(wide_object(ZZ, 6))  # warm-up: every stalk of the family
    records = []
    reference_slice(1000)  # warm the slice's code up
    for n in sizes:
        times, refs = [], [reference_slice()]
        for _ in range(args.rounds):
            obj = build(ZZ, n)
            if args.family == "deep":
                clear_kernel_caches()
            t0 = time.perf_counter()
            make_dual(obj)
            times.append(time.perf_counter() - t0)
            refs.append(reference_slice())
        at_ref = scaled(times, refs, range(len(times)))
        rec = {"n": n, "median_s": statistics.median(times), "min_s": min(times),
               "scaled_median_s": statistics.median(at_ref), "scaled_min_s": min(at_ref),
               "rounds": len(times)}
        if records and n != records[-1]["n"]:
            prev = records[-1]
            rec["growth_exponent"] = (math.log(rec["scaled_median_s"] / prev["scaled_median_s"])
                                      / math.log(n / prev["n"]))
        records.append(rec)
        print(f"n={n}: median {rec['median_s']:.3f} s ({rec['scaled_median_s']:.3f} s scaled), "
              f"min {rec['min_s']:.3f} s", flush=True)
    doc = {
        "case": "dualtrace.make_dual",
        "family": family,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "ref_nominal_s": REF_NOMINAL_S,
        "records": records,
    }
    with open(args.out or default_out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
