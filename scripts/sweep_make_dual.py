#!/usr/bin/env python3
"""Time make_dual, with both triangle certificates, over a size sweep.

Two size families from tests/statements.py, both over ZZ and both past the
generator's caps:

* ``wide`` (the default), wide_object: n points over one base point
  with rank-(2,1) stalks, so the growth of duality's certificates in n
  shows: their apexes have n^2 elements, the tensor objects around them
  n^3, which stay unbuilt.  One untimed warm-up fills the kernel caches
  first, so the figures measure the set and correspondence layers rather
  than first-time matrix work.  Each record also counts the relabeling
  checks of one more, untimed, make_dual (``relabeling_checks``): a
  deterministic figure, so its growth in n shows without timing noise.
* ``deep``, deep_object: one point whose stalk has total rank n, so
  the chain-complex kernels on the rank-n^3 certificate tensors do the work.
  The kernel caches are emptied before every round, so each round pays that
  matrix work.

make_dual keeps the duality data of its latest objects, and every round
builds an equal object, so its memo is emptied before every round in both
families: each round computes the data, and each record counts the rounds
that hit the memo anyway (``memo_hits``, 0).

Each size runs in a fresh interpreter, which reports its peak resident
set size (``ru_maxrss``) after its rounds as ``peak_rss_mb``: the memory one
size needs, with the interpreter, the package and the warm-up, not the
largest size run before it.

The speed of a shared machine drifts, so around every round the script
times the benchmark's fixed reference slice of pure-Python work
(perfbench/worker.py) and also reports each round scaled to the slice's
nominal time: files recorded in different sessions compare on the scaled
figures.  The growth exponents are taken from the scaled medians.

Usage: python scripts/sweep_make_dual.py [--family wide|deep] [--sizes 8,16,24,32,48,64,96,128]
                                         [--rounds 3] [--out BENCH_make_dual.json]

The sizes default to 8,16,24,32,48,64,96,128 for wide and
4,8,12,16,20,24,32,48,64,96,128 for deep, the output to
BENCH_make_dual.json and BENCH_make_dual_deep.json.
Writes one record per size (median and minimum seconds, raw and scaled,
rounds, memo hits, peak RSS in MB, the relabeling checks for wide, and the
growth exponent against the previous size) plus the Python version and the CPU count.  It times the
spantrace of its own checkout.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
from worker import REF_NOMINAL_S, reference_slice, scaled  # noqa: E402  (puts src/ on the path)

from spantrace import chainalg  # noqa: E402
from spantrace.chainalg import ZZ  # noqa: E402
from spantrace.corrcat import CCRelabel  # noqa: E402
from spantrace.dualtrace import make_dual  # noqa: E402
from statements import deep_object, wide_object  # noqa: E402

# family: (builder, default sizes, default output, description)
FAMILIES = {
    "wide": (wide_object, "8,16,24,32,48,64,96,128", "BENCH_make_dual.json",
             "statements.wide_object over ZZ: n points over one base point, rank-(2,1) stalks"),
    "deep": (deep_object, "4,8,12,16,20,24,32,48,64,96,128", "BENCH_make_dual_deep.json",
             "statements.deep_object over ZZ: one point, a stalk of total rank n from fixed pieces"),
}


def clear_kernel_caches() -> None:
    """Empty every cache of chainalg, including any added later."""
    for fn in vars(chainalg).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def relabeling_checks(obj) -> int:
    """The relabeling checks that one make_dual of obj runs, memo bypassed."""
    check, calls = CCRelabel.check, []

    def counted(self, x, y):
        calls.append(None)
        return check(self, x, y)

    CCRelabel.check = counted
    try:
        make_dual.__wrapped__(obj)
    finally:
        CCRelabel.check = check
    return len(calls)


# what a fresh interpreter runs to measure one size: it prints measure()'s record
CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); import sweep_make_dual as sweep; "
         "print(json.dumps(sweep.measure(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))))")


def measure(family: str, n: int, rounds: int) -> dict:
    """The rounds of one size, timed in this process, with the reference
    slices around them, the memo hits and the process's peak RSS after."""
    build = FAMILIES[family][0]
    if family == "wide":
        make_dual(wide_object(ZZ, 6))  # warm-up: every stalk of the family
    reference_slice(1000)  # warm the slice's code up
    times, refs, hits = [], [reference_slice()], 0
    for _ in range(rounds):
        obj = build(ZZ, n)
        make_dual.cache_clear()
        if family == "deep":
            clear_kernel_caches()
        t0 = time.perf_counter()
        make_dual(obj)
        times.append(time.perf_counter() - t0)
        hits += make_dual.cache_info().hits
        refs.append(reference_slice())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    run = {"times": times, "refs": refs, "memo_hits": hits, "peak_rss_mb": round(peak, 2)}
    if family == "wide":
        run["relabeling_checks"] = relabeling_checks(build(ZZ, n))
    return run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", choices=sorted(FAMILIES), default="wide")
    ap.add_argument("--sizes")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out")
    args = ap.parse_args()
    _, default_sizes, default_out, family = FAMILIES[args.family]
    sizes = [int(n) for n in (args.sizes or default_sizes).split(",")]
    if args.rounds < 1 or any(n < 1 for n in sizes):
        ap.error("sizes and rounds must be positive")
    records = []
    for n in sizes:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent), args.family, str(n),
             str(args.rounds)], capture_output=True, text=True, check=True)
        run = json.loads(proc.stdout)
        times, refs, hits = run["times"], run["refs"], run["memo_hits"]
        at_ref = scaled(times, refs, range(len(times)))
        rec = {"n": n, "median_s": statistics.median(times), "min_s": min(times),
               "scaled_median_s": statistics.median(at_ref), "scaled_min_s": min(at_ref),
               "rounds": len(times), "memo_hits": hits, "peak_rss_mb": run["peak_rss_mb"]}
        if "relabeling_checks" in run:
            rec["relabeling_checks"] = run["relabeling_checks"]
        if records and n != records[-1]["n"]:
            prev = records[-1]
            rec["growth_exponent"] = (math.log(rec["scaled_median_s"] / prev["scaled_median_s"])
                                      / math.log(n / prev["n"]))
        records.append(rec)
        print(f"n={n}: median {rec['median_s']:.3f} s ({rec['scaled_median_s']:.3f} s scaled), "
              f"min {rec['min_s']:.3f} s, peak RSS {rec['peak_rss_mb']:.1f} MB", flush=True)
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
