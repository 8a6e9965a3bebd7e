"""The benchmark's own output checks (perfbench/workloads.py), run on the
smoke config of each workload. They read the program through the API they
call: `TimedConfiguration()`, `Trajectory(...)`, `Event(x=list)`,
`initial_clocks`, `snapshot` and `Configuration.items()` yielding
`(pid, coords)`. perfbench is imported, never edited.
"""

import importlib.util
import json
import os
import sys

import pytest

from sbdsim import cli

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                            "perfbench", "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_benchmark_workload_passes_its_own_check(name, tmp_path):
    # call 0 of a run with seed 1, as the benchmark makes it
    wl = workloads.WORKLOADS[name]
    cfg_path = tmp_path / "input.json"
    cfg = wl.config(workloads.call_seed(name, 1, 0), True)
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    out = tmp_path / "out"
    argv = [wl.command, "--config", str(cfg_path), "--out", str(out), "--threads", "1"]
    assert cli.main(argv) == 0
    outcome = wl.check(str(cfg_path), str(out), True)
    assert outcome.attempted == wl.ops_per_call(cfg) > 0
    assert outcome.failed == 0, outcome.notes
