"""Record the fuzz_all report hashes that runs are checked against.

    python3 perfbench/record_hashes.py FIRST LAST SECONDS

For every run seed FIRST..LAST, derives the worker seeds as ``run.py``
does for ``--seconds SECONDS`` and hashes each worker's reports.  The
reports come from ``run_suite("all", s, 1)``, the path of ``spantrace fuzz
--suite all``, not from the per-suite calls the benchmark times, so a
match shows that the timed path produced the command's reports.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spantrace import suites  # noqa: E402

HASHES = HERE / "fuzz_all_hashes.json"


def digest(worker_seed: int) -> str:
    w = workloads.WORKLOADS["fuzz_all"]
    h = hashlib.sha256()
    for inst in w.build(worker_seed)[:: len(w.suite_names)]:
        report = suites.run_suite("all", inst.seed, 1, inst.data)
        h.update(workloads.canonical_report(suites.report_doc(report)).encode())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    first, last, seconds = (int(a) for a in argv)
    w = workloads.WORKLOADS["fuzz_all"]
    doc = json.loads(HASHES.read_text())
    if doc["instance_seeds"] != w.instance_seeds:
        raise SystemExit("the record is for another number of instance seeds per worker")
    for seed in range(first, last + 1):
        for s in run.worker_seeds(seed, run.worker_count(w, seconds)):
            if str(s) not in doc["digests"]:
                doc["digests"][str(s)] = digest(s)
        HASHES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"run seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
