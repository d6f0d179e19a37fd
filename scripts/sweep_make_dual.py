#!/usr/bin/env python3
"""Time make_dual, with both triangle certificates, over a size sweep.

The object is generate.wide_object over ZZ: n points over one base point with
rank-(2,1) stalks, past the generator's max_set cap, so the growth of
duality's n^3 certificate apexes shows.  One untimed warm-up fills the
kernel caches first, so the figures measure the set and correspondence
layers rather than first-time matrix work.

Usage: python scripts/sweep_make_dual.py [--sizes 8,16,24,32,48] [--rounds 3]
                                         [--out BENCH_make_dual.json]

Writes one record per size (median and minimum seconds, rounds, and the
growth exponent against the previous size) plus the Python version and
the CPU count.
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time

from spantrace.chainalg import ZZ
from spantrace.dualtrace import make_dual
from spantrace.generate import wide_object


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="8,16,24,32,48")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out", default="BENCH_make_dual.json")
    args = ap.parse_args()
    sizes = [int(n) for n in args.sizes.split(",")]
    if args.rounds < 1 or any(n < 1 for n in sizes):
        ap.error("sizes and rounds must be positive")
    make_dual(wide_object(ZZ, 6))  # warm-up: every stalk of the family
    records = []
    for n in sizes:
        times = []
        for _ in range(args.rounds):
            obj = wide_object(ZZ, n)
            t0 = time.perf_counter()
            make_dual(obj)
            times.append(time.perf_counter() - t0)
        rec = {"n": n, "median_s": statistics.median(times), "min_s": min(times), "rounds": len(times)}
        if records and n != records[-1]["n"]:
            prev = records[-1]
            rec["growth_exponent"] = math.log(rec["median_s"] / prev["median_s"]) / math.log(n / prev["n"])
        records.append(rec)
        print(f"n={n}: median {rec['median_s']:.3f} s, min {rec['min_s']:.3f} s", flush=True)
    doc = {
        "case": "dualtrace.make_dual",
        "family": "generate.wide_object over ZZ: n points over one base point, rank-(2,1) stalks",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "records": records,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
