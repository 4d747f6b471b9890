"""Every operation of the three benchmark workloads, run once.

The benchmark's own tests (``perfbench/test_perfbench.py``) check its
arithmetic but never call a workload operation, so a call site that no
longer matches the library, or a declared exception that turns into a
wrong value, would otherwise show only in a benchmark run.  Each operation
here is called once, in pass order, and its check applied; a call may
raise only the exceptions its ``raises`` declares.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_operation_passes_its_check(name, tmp_path):
    ops = workloads.WORKLOADS[name](0, tmp_path)
    assert ops
    for op in ops:
        try:
            out = op.call()
        except op.raises:
            continue
        op.check(out)
