#!/usr/bin/env python3
"""Paired A/B timing of two sbdsim source trees, layer by layer, in one process.

The src/sbdsim of each tree is imported as a package of its own (sbdsim_a and
sbdsim_b), so the two sides share the process, the core and the moment. For
every layer the script makes PAIRS inputs; input i runs on both sides, A
first for even i and B first for odd i, each side's copy built outside the
clock right before that side runs (so neither finds its input fresher in
the caches), and the two results must be equal (an AssertionError stops the
script otherwise: a speed figure of code that computes something else counts
for nothing). The layers:

  slab-small    32 slabs of a fresh stream, 1.5 atoms each (1-D)
  slab-large    one slab of a fresh stream, 1000 atoms (2-D)
  present       D(0) of 16 fresh streams, 1.5 points each
  window        dominating_window of [-8, 0], its slabs already drawn
  cell-rate     64 cell-model birth rates on a state of 20 points
  sandwich      one sandwich pass of the cell model on [-2, 0], fresh stream
  draw-cells    8 perfect_sample draws of the cftp-cells model
  draw-pairwise 1 perfect_sample draw of the cftp-pairwise model
  simulate      engine.simulate, pairwise, 2-D, 700 points, horizon 1.0 (the
                forward-dense window: ~1000 proposals, so the event loop, not
                the set-up over 700 points, dominates)

Per layer it prints the median of the paired ratios B/A, the number of pairs
in which B was faster out of PAIRS, each side's median time, and ten block
ratios: the sum of B's times over the sum of A's over each tenth of the
pairs, in input order, so a drift of the machine shows as a trend. A run of
a tree against itself (A/A) shows the resolution: how far from 1 the ratios
of identical code read. The script pins its own process to one core (the
last it may run on) and changes no other process or setting.

Usage:
  python scripts/ab.py --a PARENT_TREE --b CHANGE_TREE [--pairs 200] [--out ab.csv]
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import importlib.util
import os
import platform
import statistics
import sys
import time

import numpy as np

CELLS_THETA = [[0.6, 0.3, 0.0], [0.3, 0.6, 0.3], [0.0, 0.3, 0.6]]


def load_tree(tree: str, name: str):
    """Import tree/src/sbdsim as the package `name`, with its submodules."""
    root = os.path.join(os.path.abspath(tree), "src", "sbdsim")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("geometry", "models", "noise", "engine", "cftp"):
        setattr(pkg, sub, importlib.import_module(f"{name}.{sub}"))
    return pkg


def rows(cfg) -> list:
    return list(cfg.rows())


def cells(pkg):
    space = pkg.geometry.SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.5)
    model = pkg.models.CellOccupancyRate(cell_counts=(3,), theta=np.array(CELLS_THETA))
    return space, model


# Each probe builds input i on one side, outside the clock, and returns the
# thunk to time; the thunk returns what both sides must agree on.

def probe_slab_small(pkg, i):
    space = pkg.geometry.SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.5)
    stream = pkg.noise.NoiseStream(i, space, 1.5)
    return lambda: [stream.slab_points(k) for k in range(-32, 0)]


def probe_slab_large(pkg, i):
    space = pkg.geometry.SpaceSpec(dimension=2, lengths=(1.0, 1.0), intensity=1000.0)
    stream = pkg.noise.NoiseStream(i, space, 1000.0)
    return lambda: stream.slab_points(0)


def probe_present(pkg, i):
    space = pkg.geometry.SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.5)
    streams = [pkg.noise.NoiseStream(16 * i + j, space, 1.5) for j in range(16)]
    return lambda: [s.present_points(1.0) for s in streams]


def probe_window(pkg, i):
    space = pkg.geometry.SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.5)
    stream = pkg.noise.NoiseStream(i, space, 1.5)
    pkg.cftp.dominating_window(stream, -8.0, 1.0)

    def run():
        state, proposals = pkg.cftp.dominating_window(stream, -8.0, 1.0)
        return rows(state), proposals
    return run


def probe_cell_rate(pkg, i):
    space, model = cells(pkg)
    rng = np.random.default_rng(i)
    eta = pkg.geometry.Configuration()
    for j, p in enumerate(rng.random((20, 1)).tolist()):
        eta.add(f"p{j}", tuple(p), 1.0)
    xs = [tuple(p) for p in rng.random((64, 1)).tolist()]
    model.birth_rate(space, xs[0], eta)  # builds the occupancy index
    return lambda: [model.birth_rate(space, x, eta) for x in xs]


def probe_sandwich(pkg, i):
    space, model = cells(pkg)
    stream = pkg.noise.NoiseStream.for_model(model, space, i)

    def run():
        state = pkg.cftp.sandwich_run(model, space, 2.0, stream)
        return rows(state.lower), rows(state.upper), state.coalesced, state.proposals
    return run


def draw_result(res) -> tuple:
    return (res.status, res.lookback_used, res.passes, res.proposals, res.merged,
            None if res.configuration is None else rows(res.configuration))


def probe_draw_cells(pkg, i):
    space, model = cells(pkg)
    seeds = [pkg.noise.replicate_seed(i, j) for j in range(8)]
    return lambda: [draw_result(pkg.cftp.perfect_sample(model, space, seed, 1.0, 1024.0))
                    for seed in seeds]


def probe_draw_pairwise(pkg, i):
    space = pkg.geometry.SpaceSpec(dimension=1, lengths=(1.0,), intensity=10.0)
    model = pkg.models.PairwiseRate(theta=0.5, interaction_range=0.05)
    seed = pkg.noise.replicate_seed(i, 0)
    return lambda: draw_result(pkg.cftp.perfect_sample(model, space, seed, 1.0, 1024.0))


def probe_simulate(pkg, i):
    space = pkg.geometry.SpaceSpec(dimension=2, lengths=(1.0, 1.0), intensity=1000.0)
    model = pkg.models.PairwiseRate(theta=0.5, interaction_range=0.02)
    eta0 = pkg.noise.initial_clocks(pkg.noise.poisson_configuration(space, 700.0, i), i)
    stream = pkg.noise.NoiseStream.for_model(model, space, i)

    def run():
        traj = pkg.engine.simulate(model, space, eta0, 1.0, stream)
        return [tuple(ev) for ev in traj.events], rows(traj.final)
    return run


LAYERS = {
    "slab-small": probe_slab_small,
    "slab-large": probe_slab_large,
    "present": probe_present,
    "window": probe_window,
    "cell-rate": probe_cell_rate,
    "sandwich": probe_sandwich,
    "draw-cells": probe_draw_cells,
    "draw-pairwise": probe_draw_pairwise,
    "simulate": probe_simulate,
}


def timed(thunk):
    gc.collect()
    t0 = time.perf_counter_ns()
    out = thunk()
    return time.perf_counter_ns() - t0, out


def compare(probe, a, b, pairs: int) -> dict:
    """Time `pairs` inputs on both sides, alternating which runs first."""
    for pkg in (a, b):  # warm-up on an input of its own
        probe(pkg, 1 << 40)()
    pkgs, times = {"a": a, "b": b}, {"a": [], "b": []}
    for i in range(pairs):
        got = {}
        for side in ("ab" if i % 2 == 0 else "ba"):
            t, got[side] = timed(probe(pkgs[side], i))
            times[side].append(t)
        if repr(got["a"]) != repr(got["b"]):
            raise AssertionError(f"{probe.__name__}: input {i} differs between the trees")
    ta, tb = times["a"], times["b"]
    ratios = [y / x for x, y in zip(ta, tb)]
    blocks = min(10, pairs)
    edges = [round(j * pairs / blocks) for j in range(blocks + 1)]
    return {"pairs": pairs,
            "median_ratio": statistics.median(ratios),
            "wins": sum(y < x for x, y in zip(ta, tb)),
            "a_median_us": statistics.median(ta) / 1e3,
            "b_median_us": statistics.median(tb) / 1e3,
            "block_ratios": [sum(tb[lo:hi]) / sum(ta[lo:hi])
                             for lo, hi in zip(edges, edges[1:])]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="source tree of side A (the parent)")
    ap.add_argument("--b", required=True, help="source tree of side B (the change)")
    ap.add_argument("--pairs", type=int, default=200, help="inputs per layer")
    ap.add_argument("--out", default=None, help="CSV file for the per-layer results")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    a, b = load_tree(args.a, "sbdsim_a"), load_tree(args.b, "sbdsim_b")
    print(f"# cpu {cpu_model()}, pinned to core {cpu}; Python {platform.python_version()}, "
          f"numpy {np.__version__}")
    print(f"# A = {os.path.abspath(args.a)}\n# B = {os.path.abspath(args.b)}")
    print(f"{'layer':14s} {'pairs':>5s} {'B/A':>6s} {'B wins':>7s} {'A us':>9s} {'B us':>9s}"
          "  block ratios")
    results = []
    for name, probe in LAYERS.items():
        res = {"layer": name, **compare(probe, a, b, args.pairs)}
        results.append(res)
        print(f"{name:14s} {res['pairs']:5d} {res['median_ratio']:6.3f} "
              f"{res['wins']:4d}/{res['pairs']:<3d}{res['a_median_us']:9.1f} "
              f"{res['b_median_us']:9.1f}  "
              + " ".join(f"{r:.3f}" for r in res["block_ratios"]), flush=True)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(results[0]))
            writer.writeheader()
            for res in results:
                writer.writerow({**res, "block_ratios": " ".join(
                    f"{r:.4f}" for r in res["block_ratios"])})
    return 0


if __name__ == "__main__":
    sys.exit(main())
