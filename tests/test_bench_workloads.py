"""Every perfbench workload, built at seed 1 and run once on the imported package.

The benchmark in ``perfbench/`` (outside ``testpaths``) times four workloads
whose set-ups call into the package: ``parse_spec(...).wb``, ``SpecBundle``,
``R.unit``, ``twisted_derivation_data``, ``GroupPresentation(table, name=...)``.
Each seed-1 plan is built here in a temporary directory and every op is run
once and judged against its known answer, so an API change that breaks a
set-up or an answer fails in the suite.  The sha256 of each op's judged
output text, the ``sha256`` field ``perfbench/run.py`` records, is compared
with ``tests/golden/bench-op-digests-seed1.txt`` (one ``<sha256>  <workload>:
<op name>`` line per op), so a change of any op's output bytes fails too.
Nothing is written in the repository.  Regenerate the golden only for an
intended change of output::

    PYTHONPATH=src:tests python tests/test_bench_workloads.py --write
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

import weakhopf
import weakhopf.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "bench-op-digests-seed1.txt"


def judged_digests(name, workdir):
    """(op name, sha256 of its judged output text, answer right) for every op of
    workload ``name`` at seed 1, each run once; the plan is described too."""
    plan = workloads.WORKLOADS[name](weakhopf, 1, str(workdir))
    assert plan.ops
    out = []
    for op in plan.ops:
        text, ok = op.judge(op.run())
        out.append((op.name, hashlib.sha256(text.encode()).hexdigest(), ok))
    assert workloads.describe(plan)
    return out


def golden_digests():
    """{workload: [(op name, sha256), ...]} read from the golden, in file order."""
    out = {}
    for line in GOLDEN.read_text().splitlines():
        digest, _, rest = line.partition("  ")
        workload, _, op = rest.partition(": ")
        out.setdefault(workload, []).append((op, digest))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_answers_right_at_seed_1(name, tmp_path):
    ops = judged_digests(name, tmp_path)
    assert [op for op, _, ok in ops if not ok] == []
    assert [(op, digest) for op, digest, _ in ops] == golden_digests()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_bench_workloads.py --write")
    lines = []
    for name in sorted(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            lines += [f"{digest}  {name}: {op}\n" for op, digest, _ in judged_digests(name, tmp)]
    GOLDEN.write_text("".join(lines))
    print(f"WROTE {GOLDEN}")
