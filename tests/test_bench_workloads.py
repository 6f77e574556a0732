"""Every perfbench workload, built at seed 1 and run once on the imported package.

The benchmark in ``perfbench/`` (outside ``testpaths``) times four workloads
whose set-ups call into the package: ``parse_spec(...).wb``, ``SpecBundle``,
``R.unit``, ``twisted_derivation_data``, ``GroupPresentation(table, name=...)``.
Each seed-1 plan is built here in a temporary directory and every op is run
once and judged against its known answer, so an API change that breaks a
set-up or an answer fails in the suite.  Nothing is written in the repository.
"""

import sys
from pathlib import Path

import pytest

import weakhopf
import weakhopf.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_answers_right_at_seed_1(name, tmp_path):
    plan = workloads.WORKLOADS[name](weakhopf, 1, str(tmp_path))
    assert plan.ops
    wrong = [op.name for op in plan.ops if not op.judge(op.run())[1]]
    assert wrong == []
    assert workloads.describe(plan)
