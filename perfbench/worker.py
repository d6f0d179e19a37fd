"""One benchmark worker: a fresh interpreter, as a command-line user gets
on every call, that builds one workload's inputs from a seed, runs them
(timed, and traced on request), checks every verdict and prints one JSON
line.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED
SPAWNED is the parent's time.monotonic() just before it started this
process, so that set-up time includes interpreter start and imports.

On a shared virtual machine the speed of pure-Python code can drift by a
third and more within minutes, in bursts of a few seconds.  So between the timed instances, after every ``CHUNK_S`` seconds
of them, the worker times a fixed reference slice of pure-Python work
(dict updates, tuple building, a sort; no spantrace code, the collector
off).  Each instance's wall time is also reported scaled by
``REF_NOMINAL_S`` over the mean of the two slices around it: the time it
would have taken at the speed the machine had when the slices' nominal
time was taken.  Set-up time is scaled by the first slice.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

CHUNK_S = 0.3  # seconds of timed instances between two reference slices
REF_ITERATIONS = 8000
REF_NOMINAL_S = 0.0175  # median slice on a 2-vCPU x86_64 VM, Python 3.11.7


def reference_slice(iterations: int = REF_ITERATIONS) -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not
    touch the program, with the cyclic collector off so that the size of
    the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(1)
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(iterations):
            k = (rng.randrange(5000), rng.randrange(50))
            d[k] = d.get(k, ()) + (i,)
        sorted(d.items(), key=lambda kv: (len(kv[1]), kv[0]))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def measure(w, insts):
    """Run every instance in turn, timing each; an exception raised while
    verifying becomes that instance's outcome instead of ending the run.
    Returns the wall times, the outcomes, the reference slices and, per
    instance, the index of the slice that opens its chunk."""
    times, outs, chunk_of = [], [], []
    refs = [reference_slice()]
    since_ref = 0.0
    for inst in insts:
        t0 = time.perf_counter()
        try:
            out = w.run(inst)
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            out = e
        t = time.perf_counter() - t0
        times.append(t)
        outs.append(out)
        chunk_of.append(len(refs) - 1)
        since_ref += t
        if since_ref >= CHUNK_S:
            refs.append(reference_slice())
            since_ref = 0.0
    if len(refs) == chunk_of[-1] + 1:
        refs.append(reference_slice())
    return times, outs, refs, chunk_of


def scaled(times, refs, chunk_of):
    """Each wall time at the reference speed: scaled by the nominal slice
    time over the mean of the two slices around its chunk."""
    return [t * 2 * REF_NOMINAL_S / (refs[c] + refs[c + 1]) for t, c in zip(times, chunk_of)]


def main(argv: list[str]) -> int:
    name, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    import layers
    import workloads
    from spantrace import chainalg

    w = workloads.WORKLOADS[name]
    insts = w.build(seed)
    tracer = contextlib.nullcontext()
    if trace:
        from tracer import Tracer

        tracer = Tracer(layers.targets(), "spantrace", ("workloads", "__main__"))
    setup_s = time.monotonic() - spawned
    reference_slice(REF_ITERATIONS // 20)  # warm the slice's code up
    with tracer:
        times, outs, refs, chunk_of = measure(w, insts)
    verdicts = w.verify(insts, outs)

    raw = tracer.summary() if trace else {}
    for fn in layers.CACHED:
        info = getattr(chainalg, fn).cache_info()
        raw[f"chainalg.cache.{fn}.hits"] = info.hits
        raw[f"chainalg.cache.{fn}.misses"] = info.misses
    print(json.dumps({
        "seed": seed,
        "setup_s": setup_s,
        "setup_scaled_s": setup_s * REF_NOMINAL_S / refs[0],
        "timed_s": sum(times),
        "instances": [[inst.label, t, s] for inst, t, s in
                      zip(insts, times, scaled(times, refs, chunk_of))],
        "ref_s": refs,
        "attempted": verdicts.attempted,
        "failures": verdicts.failures,
        "digest": verdicts.digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw": raw,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
