"""Tests of the benchmark itself: seeded inputs, the oracle, and traced counts.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
The end-to-end tests copy ``src`` and ``perfbench`` into a temporary
directory and run the benchmark there, so the repository is never modified.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import specgen  # noqa: E402
import workloads  # noqa: E402

SIZE_KEYS = ("dim", "nnz_comult", "nnz_delta_one", "degree_bound")


def _sizes(setup, seed, tmp_path):
    workdir = tmp_path / f"{setup.__name__}-{seed}"
    workdir.mkdir(exist_ok=True)
    plan = setup(None, seed, str(workdir))   # the ops are built, not run
    return [(s["name"].split("~")[0].split("!")[0], s["nnz_mult"], [s[k] for k in SIZE_KEYS])
            for s in workloads.describe(plan)]


@pytest.mark.parametrize("setup", [workloads.setup_check_qq, workloads.setup_check_gfp])
def test_seed_varies_values_not_sizes(setup, tmp_path):
    base = _sizes(setup, 1, tmp_path)
    for seed in (2, 3, 4):
        other = _sizes(setup, seed, tmp_path)
        assert [(n, s) for n, _, s in other] == [(n, s) for n, _, s in base]
        # A perturbation may add one mult row; a basis change never cancels one.
        assert all(abs(a[1] - b[1]) <= 1 for a, b in zip(base, other))
    assert _sizes(setup, 1, tmp_path) == base


def test_basis_change_round_trip():
    inst = specgen.groupoid_algebra(specgen.cyclic(2), 2)
    c = specgen.GENERIC_RATIONALS[0]
    there = specgen.basis_change(inst, 5, 0, c)
    back = specgen.basis_change(there, 5, 0, -c)
    assert back.to_doc() | {"name": ""} == inst.to_doc() | {"name": ""}


def test_group_invariants():
    assert specgen.dihedral(6).conjugacy_classes() == 6
    assert specgen.dihedral(7).conjugacy_classes() == 5
    assert specgen.symmetric3().conjugacy_classes() == 3


def _copy_checkout(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return tmp_path


def _bench(cwd, workload, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_planted_wrong_verdict_is_reported(tmp_path):
    checkout = _copy_checkout(tmp_path)
    report = checkout / "src" / "weakhopf" / "report.py"
    text = report.read_text()
    planted = text.replace('out.append(f"AXIOM {name} FAIL{suffix}")',
                           'out.append(f"AXIOM {name} PASS")')
    assert planted != text
    report.write_text(planted)
    rc, result = _bench(checkout, "check-qq", 0)
    assert rc == 1 and not result["correct"]
    assert result["failed"] == 2   # the two negative controls
    saved = json.loads((checkout / ".perfbench-work" / "check-qq-s3-t0" / "result.json")
                       .read_text())
    assert saved["error_rate"] > 0


def test_traced_counts_repeat(tmp_path):
    checkout = _copy_checkout(tmp_path)
    runs = [_bench(checkout, "check-qq", 1) for _ in range(2)]
    assert all(rc == 0 and result["correct"] for rc, result in runs)
    counts = [{k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
              for _, result in runs]
    assert counts[0] == counts[1] and counts[0]["fields.fraction_ops"] > 0


def test_missing_sources_exit_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert not os.path.exists(tmp_path / ".perfbench-work")
