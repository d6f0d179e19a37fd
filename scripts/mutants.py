"""Mutant table: which tests kill each recorded fault of the package.

Each mutant is a name, a file under src/spantrace, an exact anchor string
that occurs once in that file, its replacement and the name of a test
selection.  The script first runs every selection on an unmodified copy
of src/ and tests/ (all must pass), then, one mutant at a time, applies the
mutant to a fresh temporary copy of src/, runs its selection there and
records the tests that fail.  A mutant that no test of its selection kills
is kept in the table as a survivor.  The copy's tests run as tier-1 runs
them: every randomised test draws from a fixed seed list, and
tests/conftest.py empties every package cache before each test, so no
verdict depends on the tests that ran before it, and a killed_by list
changes only when the code or the tests do.

    python scripts/mutants.py            # writes MUTANTS.json at the repo root

The full table takes a few minutes on two cores and is not part of tier-1;
tests/test_scripts.py checks that every anchor occurs exactly once.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_LV_NONZERO = "tests/test_cli.py::test_cli_lv_nonzero"
_CRITERION = "tests/test_acceptance.py::test_criterion_"
_PINNED = "tests/test_cli.py::test_fuzz_all_report_bytes_are_pinned"
_COMMON = [_LV_NONZERO, _CRITERION + "1_pushforward_trace_identity_500", _PINNED]

# Test selections by name; every one starts with the nonzero LV fixture,
# criterion 1 and the pinned report hash, so the table compares them.
SELECTIONS = {
    "lv": _COMMON + [
        "tests/test_cli.py::test_cli_rejects_a_non_commuting_lv_diagram",
        _CRITERION + "2_global_fixed_point_200",
        _CRITERION + "6_characteristic_class_200",
        _CRITERION + "9_pushforward_unique_lift",
        _CRITERION + "11_every_small_diagram",
        "tests/test_sheafops.py",
        "tests/test_corrcat.py",
    ],
    "kernels": _COMMON + [
        "tests/test_chainalg.py",
        _CRITERION + "3_local_term_oracle_500",
        _CRITERION + "4_duality_certificates_100",
    ],
    "cells": _COMMON + [
        "tests/test_finspan.py",
        "tests/test_corrcat.py",
        "tests/test_dualtrace.py",
        _CRITERION + "4_duality_certificates_100",
        _CRITERION + "9_pushforward_unique_lift",
    ],
    "pairing": _COMMON + [
        "tests/test_dualtrace.py",
        _CRITERION + "3_local_term_oracle_500",
        _CRITERION + "5_pairing_symmetry_200",
        _CRITERION + "11_every_small_diagram",
    ],
    "suites": _COMMON + [
        "tests/test_cli.py",
        _CRITERION + "10_determinism_and_round_trip",
    ],
    "cycles": _COMMON + [
        "tests/test_layout.py::test_the_computation_makes_no_reference_cycles",
    ],
}

# (name, file, anchor, replacement, selection)
MUTANTS = [
    ("shriek_push keeps the last block", "corrcat.py",
     "blocks[(yi, xi)] = map_add(blocks[(yi, xi)], piece)", "blocks[(yi, xi)] = piece", "lv"),
    ("shriek_push reverses source positions", "corrcat.py",
     "xpos = {x: i for i, x in enumerate(xs)}", "xpos = {x: len(xs) - 1 - i for i, x in enumerate(xs)}",
     "lv"),
    ("shriek_push hands a component the pushed stalk at the wrong foot", "corrcat.py",
     "src.stalk(lower.left(gp)), tgt.stalk(lower.right(gp))",
     "src.stalk(lower.left(lower.apex.elements[0])), tgt.stalk(lower.right(gp))", "lv"),
    ("omega_push reads only the first fibre element", "sheafops.py",
     "sum(a.value(x) for x in q.fiber(y))", "sum(a.value(x) for x in q.fiber(y)[:1])", "lv"),
    ("pairing returns zeros", "dualtrace.py",
     "found[g] = comp.nonzero[0].get(0, 0)", "found[g] = 0", "pairing"),
    ("alt_trace drops the sign of odd degrees", "chainalg.py",
     "total += t if n % 2 == 0 else -t", "total += t", "pairing"),
    ("map_compose swaps its factors", "chainalg.py",
     "(n, mat_mul(g.component(n), f.component(n)))", "(n, mat_mul(f.component(n), g.component(n)))",
     "kernels"),
    ("ChainMap skips its degree check", "chainalg.py",
     "if degrees != [n for n in src if n in tgt]:", "if False:", "kernels"),
    ("make_complex keeps a stray differential", "chainalg.py",
     "if degrees != list(at):", "if False:", "kernels"),
    ("swap_map drops the Koszul sign", "chainalg.py",
     "units = signed[-1 if (p * q) % 2 else 1]", "units = signed[1]", "kernels"),
    ("ev_map drops the pairing sign", "chainalg.py",
     "r + 1), pair_sign(d))", "r + 1), 1 if ev else pair_sign(d))", "kernels"),
    ("coev_map drops the pairing sign", "chainalg.py",
     "r + 1), pair_sign(d))", "r + 1), pair_sign(d) if ev else 1)", "kernels"),
    ("the swap permutation cache key drops the ring", "chainalg.py",
     "@lru_cache(maxsize=4096)\ndef _swap_perms(",
     "@(lambda fn, memo={}: setattr(w := lambda ring, *k: memo.setdefault(k, fn(ring, *k)), 'cache_clear',"
     " memo.clear) or setattr(w, '__wrapped__', fn) or w)\ndef _swap_perms(", "kernels"),
    ("the map_tensor cache key drops the second map's target ranks", "chainalg.py",
     "@lru_cache(maxsize=256)\ndef _tensor_components(",
     "@(lambda fn, memo={}: setattr(w := lambda *k: memo.setdefault(k[:5] + k[6:], fn(*k)), 'cache_clear',"
     " memo.clear) or setattr(w, '__wrapped__', fn) or w)\ndef _tensor_components(",
     "kernels"),
    ("a sum or product that cancels keeps its zero", "chainalg.py",
     "{j: r for j, x in row.items() if (r := x % modulus)}", "{j: x % modulus for j, x in row.items()}",
     "kernels"),
    ("a transpose drops the signs", "chainalg.py",
     "rows[j][i] = x", "rows[j][i] = abs(x)", "kernels"),
    ("a Kronecker product strides its columns by the rows of b", "chainalg.py",
     "row = {c0 + j * bc + l: x * z", "row = {c0 + j * b.rows + l: x * z", "kernels"),
    ("placed rows overwrite instead of merging", "chainalg.py",
     "{**out[t], **row} if out[t] else row", "row", "kernels"),
    ("a product skips the last nonzero of a row", "chainalg.py",
     "for k, x in arow.items():\n            for j, y in brows[k].items():",
     "for k, x in list(arow.items())[:-1]:\n            for j, y in brows[k].items():", "kernels"),
    ("tensor differential drops the sign of 1 (x) d_b", "chainalg.py",
     "mat_scale(-1 if p % 2 else 1, b.d(q))", "mat_scale(1, b.d(q))", "kernels"),
    ("a lazy tensor differential is built from the swapped factors (b, a)", "chainalg.py",
     "def build(i: int) -> tuple[int, Matrix]:\n        n = stored[i]",
     "def build(i: int, a=b, b=a) -> tuple[int, Matrix]:\n        n = stored[i]", "kernels"),
    ("a lazy tensor component skips its block check", "chainalg.py",
     'return n, _checked_block(ring, _placed(ring, rows, cols, blocks), rows, cols, "component", n)',
     "return n, _placed(ring, rows, cols, blocks)", "kernels"),
    ("the chain-map memos key by the first map alone", "chainalg.py",
     "_kept((fn, id(a), id(b)))",
     "_kept((fn, id(a), 0 if fn in (_tensor_map, map_compose) else id(b)))", "kernels"),
    ("the one-pass reassociation writes its i-blocks at stride rbc", "chainalg.py",
     "row, col = to + i * block, so + i * rbc", "row, col = to + i * rbc, so + i * rbc", "kernels"),
    ("the tensor layout orders each degree's summands by p", "chainalg.py",
     "for q, rq in b_ranks:  # q ascending, so each degree's summands are too\n        for p, rp in a_ranks:",
     "for p, rp in a_ranks:\n        for q, rq in b_ranks:", "kernels"),
    ("a one-summand direct sum loses its differential", "chainalg.py",
     "if len(parts) == 1:\n        return parts[0]",
     "if len(parts) == 1:\n        return make_complex(ring, dict(parts[0].ranks))", "kernels"),
    ("tensor complexes with equal ranks are equal", "chainalg.py",
     "return self is other or self[:] == other[:]", "return True", "kernels"),
    ("push rectangles skip their squares", "dualtrace.py",
     "if lhs != rhs:", "if False:", "lv"),
    ("triangle cell skips the bijectivity check", "dualtrace.py",
     "if not comp.span.left.is_bijective():", "if False:", "cells"),
    ("cell_check skips the right leg", "finspan.py",
     "if target.right(graph(x)) != source.right(x):", "if False:", "cells"),
    ("span_compose takes its right leg through d.left", "finspan.py",
     "om_compose(d.right, pr2)", "om_compose(d.left, pr2)", "cells"),
    ("CCObject skips its space check", "corrcat.py",
     "if sheaf.space != space:", "if False:", "cells"),
    ("make_cc_morphism skips its target-stalk check", "corrcat.py",
     "if u.target != target.stalk(span.right(g)):", "if False:", "cells"),
    ("push skips its space check", "sheafops.py",
     "if l.space != f.source:", "if False:", "lv"),
    ("an on-demand component is computed from the wrong apex element", "chainalg.py",
     "self._compute(range(len(self._done))[i])", "self._compute(range(len(self._done))[i - 1])",
     "cells"),
    ("cc_tensor pairs (g, h) as (h, g)", "corrcat.py",
     "map_tensor(a.map_at(pairs[i][0]), b.map_at(pairs[i][1]))",
     "map_tensor(b.map_at(pairs[i][1]), a.map_at(pairs[i][0]))", "cells"),
    ("a tensor's key drops its right factor", "chainalg.py",
     "t._key = (a.key, b.key)", "t._key = a.key", "kernels"),
    ("a relabeling on the right skips its eager check", "corrcat.py",
     "right = _carry(right, last)",
     "right = OverMap(right.source, last.target.space, tuple(map(last.forward, right.graph)))", "cells"),
    ("a relabeling on the left skips its eager check", "corrcat.py",
     "left = _carry(left, cc_invert(first))",
     "left = OverMap(left.source, first.source.space, tuple(map(first.backward, left.graph)))", "cells"),
    ("the left end carries across forward instead of backward", "corrcat.py",
     "left = _carry(left, cc_invert(first))", "left = _carry(left, first)", "cells"),
    ("a relabeling between two morphisms skips its check where they meet", "corrcat.py",
     "            r.check(x, y)", "            pass", "cells"),
    ("a relabeling between two morphisms composes its stalk map on the wrong side", "corrcat.py",
     "map_compose_shared(m2.map_at(h), k(xs[i]))", "map_compose_shared(k(xs[i]), m2.map_at(h))", "cells"),
    ("a relabeling between two morphisms joins the uncarried right leg", "corrcat.py",
     "tuple(map(r.forward, c.right.graph))", "c.right.graph", "cells"),
    ("a right relabeling keeps the old right leg", "corrcat.py",
     "right = _carry(right, last)", "_carry(right, last)", "cells"),
    ("product membership ignores the inner anchor match", "finspan.py",
     "s if s is not None and s == second(e[1]) else None",
     "s if s is not None and second(e[1]) is not None else None", "cells"),
    ("a map's fibers keep one preimage per image", "finspan.py",
     "if len(fibers) < len(self.graph):", "if False:", "cells"),
    ("a tensor's right leg takes the left leg's images", "finspan.py",
     "map(rights.get, c.apex.anchor, repeat(()))", "map(lefts.get, c.apex.anchor, repeat(()))", "cells"),
    ("make_dual's key is the space alone", "dualtrace.py",
     "@lru_cache(maxsize=DUALS_KEPT)\ndef make_dual(",
     "@(lambda fn, memo={}: setattr(w := lambda a: memo[a.space] if a.space in memo"
     " else memo.setdefault(a.space, fn(a)), 'cache_clear', memo.clear)"
     " or setattr(w, 'cache_info', lambda: (0, 0, None, len(memo))) or setattr(w, '__wrapped__', fn) or w)"
     "\ndef make_dual(", "pairing"),
    ("an on-demand sequence keeps itself, a reference cycle", "chainalg.py",
     "        self._missing = n\n", "        self._missing = n\n        self._self = self\n", "cycles"),
    ("all lists its checks child-major", "suites.py",
     "checks[suite].append(check)", "checks[names[0]].append(check)", "suites"),
    ("the oracle body compares the pairing with itself", "suites.py",
     "cat == loc, (cat, loc)", "cat == cat, (cat, loc)", "suites"),
    ("the global body compares the total with itself", "suites.py",
     "local_total == total, (local_total, total)", "total == total, (local_total, total)", "suites"),
    ("the symmetry body passes without comparing", "suites.py",
     "all(lhs.value(e) == rhs.value(swap(e)) for e in lhs.carrier.elements)", "True", "suites"),
    ("the basechange body passes the duals unchecked", "suites.py",
     "rep.dual_strict, None", "True, None", "suites"),
    ("the triangle body passes the certificates unchecked", "suites.py",
     "d.triangle_obj.graph.is_bijective() and d.triangle_dual.graph.is_bijective()", "True", "suites"),
    ("the triangle body passes the double dual unchecked", "suites.py",
     "verdier(verdier(obj)) == obj, None", "True, None", "suites"),
]


def mutate(src: Path, file: str, anchor: str, replacement: str) -> None:
    path = src / "spantrace" / file
    text = path.read_text(encoding="utf-8")
    if text.count(anchor) != 1:
        raise SystemExit(f"anchor occurs {text.count(anchor)} times in {file}: {anchor!r}")
    path.write_text(text.replace(anchor, replacement), encoding="utf-8")


def run_selection(work: Path, tests: list[str]) -> list[str]:
    """The node ids of the selected tests that fail or error in work."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=work, env=env, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode and not failed:
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return sorted(set(failed))


def main() -> int:
    start = time.perf_counter()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "tests", work / "tests")
        shutil.copy(ROOT / "pyproject.toml", work)
        shutil.copytree(ROOT / "src", work / "src")
        clean = run_selection(work, sorted({t for tests in SELECTIONS.values() for t in tests}))
        if clean:
            raise SystemExit(f"the unmodified package fails {clean}")
        for name, file, anchor, replacement, selection in MUTANTS:
            shutil.rmtree(work / "src")
            shutil.copytree(ROOT / "src", work / "src")
            mutate(work / "src", file, anchor, replacement)
            t0 = time.perf_counter()
            killed_by = run_selection(work, SELECTIONS[selection])
            wall = time.perf_counter() - t0
            rows.append({"name": name, "file": f"src/spantrace/{file}", "selection": selection,
                         "killed_by": killed_by, "survived": not killed_by, "wall_s": round(wall, 2)})
            print(f"{'SURVIVED' if not killed_by else 'killed':>8}  {wall:6.1f}s  {name}", flush=True)
    doc = {
        "command": "python scripts/mutants.py",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "selections": SELECTIONS,
        "mutants": rows,
        "survivors": [r["name"] for r in rows if r["survived"]],
        "total_wall_s": round(time.perf_counter() - start, 1),
    }
    (ROOT / "MUTANTS.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
