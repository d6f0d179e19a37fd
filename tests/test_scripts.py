"""The example scripts run end to end against the package in src/."""

import ast
import importlib.util
import json
import os
import subprocess
import sys

from spantrace import chainalg
from spantrace.chainalg import ZZ
from spantrace.dualtrace import make_dual
from statements import deep_object

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_fixed_point_demo():
    proc = _run("fixed_point_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "equal: True" in proc.stdout


def test_sweep_make_dual_small(tmp_path):
    out = tmp_path / "BENCH_make_dual.json"
    proc = _run("sweep_make_dual.py", "--sizes", "4", "--rounds", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["case"] == "dualtrace.make_dual"
    assert doc["python"] and doc["cpu_count"] >= 1
    (rec,) = doc["records"]
    assert rec["n"] == 4 and rec["rounds"] == 2 and rec["memo_hits"] == 0
    assert 0 < rec["min_s"] <= rec["median_s"]
    assert 0 < rec["scaled_min_s"] <= rec["scaled_median_s"] and doc["ref_nominal_s"] > 0
    assert 0 < rec["peak_rss_mb"] < 1024  # the size's own interpreter, in MB
    assert rec["relabeling_checks"] == 6 * 4  # n per unitor and per reassociation
    # every chainalg cache is emptied between deep rounds, not a listed few
    path = os.path.join(ROOT, "scripts", "sweep_make_dual.py")
    spec = importlib.util.spec_from_file_location("sweep_make_dual", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    make_dual(deep_object(ZZ, 3))
    cached = [fn for fn in vars(chainalg).values() if hasattr(fn, "cache_clear")]
    assert len(cached) >= 7 and any(fn.cache_info().currsize for fn in cached)
    sweep.clear_kernel_caches()
    assert [fn.cache_info().currsize for fn in cached] == [0] * len(cached)


def test_sweep_make_dual_deep(tmp_path):
    out = tmp_path / "BENCH_make_dual_deep.json"
    proc = _run("sweep_make_dual.py", "--family", "deep", "--sizes", "4", "--rounds", "2",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["case"] == "dualtrace.make_dual"
    assert doc["family"].startswith("statements.deep_object")
    (rec,) = doc["records"]
    assert rec["n"] == 4 and rec["rounds"] == 2 and rec["memo_hits"] == 0
    assert 0 < rec["min_s"] <= rec["median_s"]
    assert 0 < rec["scaled_min_s"] <= rec["scaled_median_s"] and doc["ref_nominal_s"] > 0
    assert 0 < rec["peak_rss_mb"] < 1024  # the size's own interpreter, in MB
    assert "relabeling_checks" not in rec


def _mutant_table():
    """MUTANTS and the selection names of scripts/mutants.py, read without running it."""
    tree = ast.parse(open(os.path.join(ROOT, "scripts", "mutants.py"), encoding="utf-8").read())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node.value
    return ast.literal_eval(found["MUTANTS"]), {k.value for k in found["SELECTIONS"].keys}


def test_mutant_anchors_occur_once():
    mutants, selections = _mutant_table()
    assert len(mutants) >= 15
    assert len({m[0] for m in mutants}) == len(mutants)
    for name, file, anchor, replacement, selection in mutants:
        text = open(os.path.join(ROOT, "src", "spantrace", file), encoding="utf-8").read()
        assert text.count(anchor) == 1, (name, anchor)
        assert replacement != anchor and selection in selections, name
