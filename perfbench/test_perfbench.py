"""The benchmark's own tests; they are not part of the package's test suite.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spantrace import chainalg, dualtrace, suites  # noqa: E402
from tracer import Tracer  # noqa: E402

TIMES = (".self_s", ".incl_s")


def test_benchmark_json_lists_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.catalog()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counters_repeat_exactly(name):
    """Two traced runs of one seed, each in a fresh interpreter, count the
    same work; only times may differ."""
    deadline = time.monotonic() + 170
    a, b = (run.spawn(name, 7, True, deadline) for _ in range(2))
    counts = {k: v for k, v in a["raw"].items() if not k.endswith(TIMES)}
    assert counts == {k: v for k, v in b["raw"].items() if not k.endswith(TIMES)}
    assert counts[f"{layers.TRACED[0][0]}.{layers.TRACED[0][1]}.calls"] > 0
    assert a["digest"] == b["digest"] and not a["failures"]


def test_fuzz_all_reports_equal_the_command():
    """The six timed one-suite calls on an instance seed give exactly the
    report of ``spantrace fuzz --suite all --count 1`` for that seed."""
    w = workloads.WORKLOADS["fuzz_all"]
    insts = [i for i in w.build(3) if i.seed == w.build(3)[0].seed]
    got = w.verify(insts, [w.run(i) for i in insts])
    proc = subprocess.run(
        [sys.executable, "-m", "spantrace", "fuzz", "--suite", "all", "--seed", str(insts[0].seed),
         "--count", "1"],
        capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")}, check=True)
    doc = json.loads(proc.stdout)
    assert got.digest == hashlib.sha256(workloads.canonical_report(doc).encode()).hexdigest()
    assert got.attempted == len(doc["checks"]) and not got.failures


def _sites(fn):
    return [(m.__name__, k) for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("spantrace")
            for k, v in vars(m).items() if v is fn]


def test_tracer_rebinds_every_alias_and_restores_them():
    mat_mul, stalk = chainalg.mat_mul, workloads.sheafops.Sheaf.stalk
    before = _sites(mat_mul)
    assert len(before) > 1  # defined in chainalg, imported elsewhere
    obj = workloads.WORKLOADS["dual_wide"].build(1)[0].data[0]
    with Tracer(layers.targets(), "spantrace") as tr:
        assert _sites(mat_mul) == []
        assert workloads.sheafops.Sheaf.stalk is not stalk
        dualtrace.make_dual(obj)
    assert _sites(mat_mul) == before and workloads.sheafops.Sheaf.stalk is stalk
    out = tr.summary()
    assert out["dualtrace.make_dual.calls"] == 1 and out["dualtrace.make_dual.n12.incl_s"] > 0
    assert out["corrcat.cc_compose.calls"] > 0
    # self times partition the outermost span's duration
    total = sum(out[f"{m}.{q}.self_s"] for m, q, _ in layers.TRACED)
    assert total == pytest.approx(out["dualtrace.make_dual.incl_s"], rel=1e-9)


def test_tracer_refuses_an_alias_it_cannot_rebind(monkeypatch):
    monkeypatch.setattr(suites, "_hidden", {"f": chainalg.mat_mul}, raising=False)
    before = _sites(chainalg.mat_mul)
    with pytest.raises(RuntimeError, match="cannot rebind"):
        with Tracer(layers.targets(), "spantrace"):
            pass
    assert _sites(chainalg.mat_mul) == before


def test_a_fault_is_a_failed_check_naming_seed_and_size(monkeypatch):
    w = workloads.WORKLOADS["dual_wide"]
    insts = w.build(5)[:1]

    def boom(obj):
        raise ValueError("injected")

    monkeypatch.setattr(dualtrace, "make_dual", boom)
    _, outs, _, _ = worker.measure(w, insts)
    verdicts = w.verify(insts, outs)
    assert len(verdicts.failures) == 1
    assert "seed=5" in verdicts.failures[0] and '"points": 12' in verdicts.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fuzz_all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_chunk_is_bracketed_by_reference_slices():
    """Each instance is scaled by the mean of the slices before and after
    its chunk; at the nominal speed scaling changes nothing."""
    w = workloads.WORKLOADS["pair_deep"]
    insts = w.build(2)[:2]
    times, _, refs, chunk_of = worker.measure(w, insts)
    assert len(refs) == chunk_of[-1] + 2 and chunk_of == sorted(chunk_of)
    nominal = [worker.REF_NOMINAL_S] * len(refs)
    assert worker.scaled(times, nominal, chunk_of) == pytest.approx(times)
    slow = [2 * worker.REF_NOMINAL_S] * len(refs)
    assert worker.scaled(times, slow, chunk_of) == pytest.approx([t / 2 for t in times])
