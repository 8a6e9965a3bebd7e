#!/usr/bin/env python3
"""Time the two routes to the stationary law of the three-cell model.

The model is that of configs/cells_demo.json: three cells of mass 0.5, base
rate 1, unit death rate and the banded interaction matrix THETA. For each cap
c in CAPS the occupancy chain is truncated at (c, c, c), and the script times

  oracle_stationary  the sparse linear solve of the balance equations;
  gibbs_table        the closed-form energy-weighted product weights,

each as the median over REPEATS calls, after one untimed call. For every cap
it also records the state count, the balance residual of the solved law
(sup norm of pi Q) and the total variation distance between the two routes,
which must both stay at rounding level whatever the solver does.

The result is written as BENCH_oracle_scaling_<date>_<commit>.json, with the
machine facts (CPU count and model, Python, numpy and scipy versions, commit).
The commit is `git describe --always --dirty`: a run on uncommitted changes
says so.

Usage:
    PYTHONPATH=src python3 scripts/oracle_scaling.py [--out DIR]
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from sbdsim.analysis import OracleModel, gibbs_table, oracle_stationary, tv_distance

MASSES = (0.5, 0.5, 0.5)
THETA = ((0.6, 0.3, 0.0), (0.3, 0.6, 0.3), (0.0, 0.3, 0.6))
CAPS = (8, 12, 16, 20)
REPEATS = 7


def commit() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=here,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "nogit"
    return out.stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def median_ms(fn) -> tuple:
    """The median wall time of REPEATS calls after one untimed call, and the
    last result."""
    result = fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3, result


def measure(cap: int) -> dict:
    oracle = OracleModel(masses=MASSES, caps=(cap,) * len(MASSES), theta=np.array(THETA))
    solve_ms, solved = median_ms(lambda: oracle_stationary(oracle))
    gibbs_ms, closed = median_ms(lambda: gibbs_table(oracle))
    return {"cap": cap, "states": oracle.n_states,
            "oracle_stationary_ms": solve_ms, "gibbs_table_ms": gibbs_ms,
            "balance_residual": solved.residual,
            "tv_oracle_vs_gibbs": tv_distance(solved, closed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=".", help="directory for the JSON file")
    args = parser.parse_args(argv)

    rows = []
    for cap in CAPS:
        row = measure(cap)
        rows.append(row)
        print(f"caps {cap:2d} ({row['states']:5d} states)  "
              f"oracle_stationary {row['oracle_stationary_ms']:9.2f} ms  "
              f"gibbs_table {row['gibbs_table_ms']:7.2f} ms  "
              f"residual {row['balance_residual']:.2e}  TV {row['tv_oracle_vs_gibbs']:.2e}")

    rev = commit()
    record = {
        "benchmark": "oracle_scaling",
        "model": {"masses": MASSES, "theta": THETA, "base_rate": 1.0, "death_rate": 1.0},
        "repeats": REPEATS,
        "machine": {"cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__, "platform": platform.platform(),
                    "commit": rev},
        "caps": rows,
    }
    date = datetime.date.today().strftime("%Y%m%d")
    path = os.path.join(args.out, f"BENCH_oracle_scaling_{date}_{rev}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
