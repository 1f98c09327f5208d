"""One smoke-size iteration of every benchmark workload fails no op.

The benchmark counts an op that raises or gives a wrong verdict as
failed; this runs each workload of ``bench/workloads.py`` in-process at
its smoke size, so a change that breaks an op shows up in the tests.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads")


def test_smoke_iteration_of_every_workload(workloads, tmp_path):
    assert workloads.WORKLOADS
    for name, build in workloads.WORKLOADS.items():
        workload = build(1, True, tmp_path / name)
        runner = workloads.Runner()
        try:
            runner.iterate(workload)
        finally:
            workload.close()
        assert runner.attempted > 0, name
        assert runner.failed == 0, runner.problems
