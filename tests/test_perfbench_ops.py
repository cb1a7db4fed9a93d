"""What the benchmark reads of the package must keep working.

``perfbench/workloads.py`` calls quivergrass with keywords and attributes
that no other test may reach in the same way (``classify``'s budgets,
``groebner_basis``'s ``max_degree``, ``PrincipalConfig.max_prime``,
``brute_force_count``, the basis elements' ``lead``).  This test loads the
runner and the workloads by path, sets each workload up, and checks the
first two ops of its seed-1 order against the golden records and the
workload's own checks, as a benchmark run does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def bench():
    # run.py imports its sibling spans.py by module name
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "spans", _load("spans"))
        return _load("run"), _load("workloads")


@pytest.mark.parametrize("name", ["count-d4", "hilbert-d4", "research-small"])
def test_first_ops_of_each_workload_match_the_golden_records(bench, name):
    run, workloads = bench
    w = workloads.WORKLOADS[name]()
    w.setup()
    golden = run.load_golden(name)
    done = []
    for key in w.order(1, golden)[:2]:
        out = w.run_op(key)
        assert run.verify(w, golden, key, out) is None
        done.append((key, out))
    assert w.run_checks(done) == []
