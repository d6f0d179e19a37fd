"""The spantrace benchmark: one command that runs a seeded workload, checks
every verdict, and prints every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for why each was chosen): ``fuzz_all``,
``dual_wide`` and ``pair_deep``.  Each is closed-loop with one client: one
process, one thread, instances run one after another.  A run starts
several fresh worker interpreters in turn, because a command-line user
pays cold caches and imports on every call; the number of workers grows
with ``--seconds`` and each does a fixed amount of work, so a seed and a
``--seconds`` value fix every input and every counter.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  Times are wall times scaled to a reference speed of the
machine (see ``worker.py``: a shared machine's speed can drift by a third
within minutes, and a reference slice timed between the instances takes
that out); the unscaled figures go to standard error, and to the traced
run's ``wall.*`` metrics.

* ``instances_per_s``: instances verified per second of timed time, over
  all the workers;
* ``instance_p50_ms``, ``instance_p95_ms``: per-instance time over all
  the workers (one suite on one instance seed for ``fuzz_all``, one ladder
  rung otherwise);
* ``setup_s``: median over the workers of the time from spawning the
  interpreter to its first timed instance (imports plus input building);
* ``peak_rss_mb``: median over the workers of their ``ru_maxrss``.

With ``--trace 1`` it holds the per-layer metrics of ``layers.py``: the
same seed's first workers run once untraced and once under the
outside-in tracer, whose wall time over the untraced one is
``trace.overhead_ratio``.

Failed checks count in ``failed``; an exception while verifying is a
failed check naming the instance's seed and size.  ``fuzz_all`` also
hashes its reports without ``elapsed_seconds`` and compares the hash with
the one recorded in ``fuzz_all_hashes.json`` for that worker seed, when
one is recorded.  A run whose verdicts are wrong prints ``"correct":
false``; a run that cannot run (no ``src/spantrace``, a worker that
crashes or overruns) exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import compileall
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0  # the whole run, set-up included, must end within 180 s
TRACE_SHARE = 4  # a traced run measures 1/TRACE_SHARE of the workers, twice
END_TO_END = [
    ("instances_per_s", "1/s"),
    ("instance_p50_ms", "ms"),
    ("instance_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def worker_count(w, seconds: int) -> int:
    return max(3, round(seconds / w.worker_seconds))


def worker_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(n)]


def spawn(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(trace))]
    cmd.append(repr(time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {workload} seed {seed} overran the time budget") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def latency(results: list[dict], col: int) -> dict[str, float]:
    """Rate, per-instance quantiles, set-up time; ``col`` 1 reads the wall
    times, 2 the times scaled to the reference speed (see ``worker.py``)."""
    times = [inst[col] for r in results for inst in r["instances"]]
    q = statistics.quantiles(times, n=20, method="inclusive")
    setup = "setup_s" if col == 1 else "setup_scaled_s"
    return {
        "instances_per_s": len(times) / sum(times),
        "instance_p50_ms": 1e3 * statistics.median(times),
        "instance_p95_ms": 1e3 * q[18],
        "setup_s": statistics.median(r[setup] for r in results),
    }


def end_to_end(results: list[dict]) -> dict[str, float]:
    out = latency(results, 2)
    out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    wall = latency(results, 1)
    print("wall, unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()), file=sys.stderr)
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    import layers

    raw: dict[str, float] = {}
    for r in traced:
        for k, v in r["raw"].items():
            raw[k] = raw.get(k, 0) + v
    suites: dict[str, list] = {}
    for r in plain:
        for label, _, t in r["instances"]:
            acc = suites.setdefault(label, [0, 0.0])
            acc[0] += 1
            acc[1] += t
    overhead = sum(r["timed_s"] for r in traced) / sum(r["timed_s"] for r in plain)
    wall = latency(plain, 1)
    wall["ref_slice_ms"] = 1e3 * statistics.median(t for r in plain for t in r["ref_s"])
    return layers.derive(raw, suites, overhead, wall)


def check_digests(workload: str, results: list[dict]) -> list[str]:
    """Report hashes must match the recorded ones, and a traced worker must
    produce the same reports as the untraced worker of its seed."""
    if workload != "fuzz_all":
        return []
    recorded = json.loads((HERE / "fuzz_all_hashes.json").read_text())["digests"]
    errors, seen = [], {}
    for r in results:
        s, d = str(r["seed"]), r["digest"]
        if s in recorded and recorded[s] != d:
            errors.append(f"worker seed {s}: report hash {d} != recorded {recorded[s]}")
        if seen.setdefault(s, d) != d:
            errors.append(f"worker seed {s}: traced and untraced reports differ")
    checked = sum(str(r["seed"]) in recorded for r in results)
    print(f"fuzz_all: {checked}/{len(results)} worker report hashes checked against the record",
          file=sys.stderr)
    return errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "spantrace" / "__init__.py").is_file():
        print(f"error: no spantrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile first, so that no worker's set-up time includes compiling
    if not compileall.compile_dir(ROOT / "src", quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        print("error: the sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    seeds = worker_seeds(args.seed, worker_count(w, args.seconds))

    try:
        if args.trace:
            seeds = seeds[: max(1, len(seeds) // TRACE_SHARE)]
            plain = [spawn(w.name, s, False, deadline) for s in seeds]
            traced = [spawn(w.name, s, True, deadline) for s in seeds]
            results = plain + traced
            metrics = per_layer(plain, traced)
            units = dict(layers.catalog())
        else:
            results = [spawn(w.name, s, False, deadline) for s in seeds]
            metrics = end_to_end(results)
            units = dict(END_TO_END)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    failures = [f for r in results for f in r["failures"]]
    errors = check_digests(w.name, results)
    for line in failures + errors:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results)
    print(f"{w.name}: {len(results)} workers, {sum(len(r['instances']) for r in results)} "
          f"instances, {attempted} checks, fail_ratio {len(failures) / attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
