#!/usr/bin/env python3
"""Time one birth-rate query per model as the configuration grows.

Each model is queried against n uniform points on a 2-D torus whose side
grows with n, so the density stays at DENSITY points per unit area and the
number of points within a model's interaction range stays fixed. A rate
query that scans every point grows linearly in n; one that visits only the
neighbours of the query point stays flat. Points and query locations come
from a fixed seed and are the same for every model. A query point is a tuple
of floats built before the clock starts, as the event loop passes a
proposal's coordinates. Before any model of a size is timed, every model is
queried once at every timed location on an untimed copy of the points, so
the neighbour-block cache that the grid models share is warm for each of
them alike, whatever their order.

For every (model, n) the script reports:
  first_query_us  one query on a fresh configuration (it pays for any index
                  the model builds on first use);
  us_per_call     the median over REPEATS batches of the mean time per query
                  of QUERIES queries at fresh locations, after that first one,
                  with the batches' first and third quartiles beside it
                  (us_per_call_q1, us_per_call_q3);
  rate_checksum   the sum of the rates of one batch, which must not depend on
                  how the rate is computed;
  upkeep_us       one add plus one remove of a point at a fresh location, on
                  the configuration whose index the queries built, the point
                  given as the event loop gives it (a tuple of floats, made
                  before the clock starts): the median over REPEATS batches of
                  the mean of QUERIES pairs, with upkeep_us_q1 and upkeep_us_q3.

The script pins itself to one CPU (the lowest of those it may run on), so the
scheduler does not move it between cores in the middle of a batch.

The result is written as BENCH_rate_scaling_<date>_<commit>.json, with the
machine facts (CPU count, Python and numpy versions, commit). The commit is
`git describe --always --dirty` of the checkout that the imported sbdsim comes
from: a run on uncommitted changes says so, and a run with PYTHONPATH at
another checkout names that one.

Usage:
    PYTHONPATH=src python3 scripts/rate_scaling.py [--out DIR]
"""

import argparse
import datetime
import json
import math
import os
import platform
import subprocess
import sys
import time

import numpy as np

import sbdsim
from sbdsim.geometry import Configuration, SpaceSpec
from sbdsim.models import AreaInteractionRate, CellOccupancyRate, NearestNeighborRate, PairwiseRate

SEED = 20060516
DENSITY = 1000.0  # points per unit area
SIZES = (10, 100, 1000, 10000)
QUERIES = 200
REPEATS = 5

MODELS = {
    "pairwise": PairwiseRate(theta=0.5, interaction_range=0.02),
    "area_interaction": AreaInteractionRate(rho=1.0, gamma=1.5, grain_radius=0.01),
    "nearest_neighbor": NearestNeighborRate(breakpoints=(0.01, 0.02), values=(0.2, 0.6),
                                            value_at_infinity=1.0),
    "cell_occupancy": CellOccupancyRate(cell_counts=(3, 3), theta=0.1 * np.eye(9) + 0.02),
}


def commit() -> str:
    here = os.path.dirname(os.path.abspath(sbdsim.__file__))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=here,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "nogit"
    return out.stdout.strip()


def quartiles(seconds: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartiles of per-call times, in microseconds."""
    q1, q2, q3 = np.percentile(seconds, [25, 50, 75]) * 1e6
    return float(q2), float(q1), float(q3)


def workload(n: int):
    """The space, the n points, the timed query batches and the upkeep
    batches of size n, the same for every model."""
    rng = np.random.default_rng([SEED, n])
    side = math.sqrt(n / DENSITY)
    space = SpaceSpec(dimension=2, lengths=(side, side), intensity=DENSITY)
    points = rng.uniform(0.0, side, size=(n, 2))
    queries = [list(map(tuple, batch)) for batch in
               rng.uniform(0.0, side, size=(REPEATS, QUERIES, 2)).tolist()]
    upkeep = [[(f"u{r}.{i}", tuple(x)) for i, x in enumerate(batch)] for r, batch in
              enumerate(rng.uniform(0.0, side, size=(REPEATS, QUERIES, 2)).tolist())]
    return space, points, queries, upkeep


def warm(space, points, queries) -> None:
    """Query every model at every timed location on its own copy of the
    points, which is then dropped: this fills the shared block cache only."""
    for model in MODELS.values():
        eta = Configuration.from_points(points)
        for batch in queries:
            for x in batch:
                model.birth_rate(space, x, eta)


def measure(model, space, points, queries, upkeep) -> dict:
    eta = Configuration.from_points(points)
    t0 = time.perf_counter()
    model.birth_rate(space, queries[0][0], eta)
    first = time.perf_counter() - t0

    per_call = []
    checksum = 0.0
    for batch in queries:
        t0 = time.perf_counter()
        total = 0.0
        for x in batch:
            total += model.birth_rate(space, x, eta)
        per_call.append((time.perf_counter() - t0) / QUERIES)
        checksum = total

    per_pair = []
    for rows in upkeep:
        t0 = time.perf_counter()
        for pid, x in rows:
            eta.add(pid, x)
            eta.remove(pid)
        per_pair.append((time.perf_counter() - t0) / QUERIES)
    call, call_q1, call_q3 = quartiles(per_call)
    pair, pair_q1, pair_q3 = quartiles(per_pair)
    return {"n": len(points), "side": space.lengths[0], "first_query_us": first * 1e6,
            "us_per_call": call, "us_per_call_q1": call_q1, "us_per_call_q3": call_q3,
            "rate_checksum": checksum,
            "upkeep_us": pair, "upkeep_us_q1": pair_q1, "upkeep_us_q3": pair_q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=".", help="directory for the JSON file")
    args = parser.parse_args(argv)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    results = {name: [] for name in MODELS}
    for n in SIZES:
        work = workload(n)
        warm(*work[:3])
        for name, model in MODELS.items():
            results[name].append(row := measure(model, *work))
            print(f"{name:18s} n={row['n']:6d}  {row['us_per_call']:9.2f} us/call "
                  f"[{row['us_per_call_q1']:.2f}, {row['us_per_call_q3']:.2f}]  "
                  f"first {row['first_query_us']:9.1f} us  upkeep {row['upkeep_us']:6.2f} us "
                  f"[{row['upkeep_us_q1']:.2f}, {row['upkeep_us_q3']:.2f}]")

    rev = commit()
    record = {
        "benchmark": "rate_scaling",
        "seed": SEED,
        "density": DENSITY,
        "queries": QUERIES,
        "repeats": REPEATS,
        "machine": {"cpu_count": os.cpu_count(), "pinned_cpu": cpu,
                    "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform(),
                    "commit": rev},
        "models": results,
    }
    date = datetime.date.today().strftime("%Y%m%d")
    path = os.path.join(args.out, f"BENCH_rate_scaling_{date}_{rev}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
