"""The benchmark's workloads: configs made from the seed, work counted from
the outputs, and correctness checks run outside the timed window.

Each workload is one closed-loop `sbdsim.cli.main([...])` call after another
in one process, always with --threads 1. Call `i` of a run with workload seed
`s` gets the config `config(call_seed(name, s, i), smoke)`, so the same seed
gives the same inputs and the program sees only the JSON config it is given.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

# The three-cell model of configs/cells_demo.json, copied here so that an
# edit of the example config does not change the benchmark.
CELLS_SPACE = {"dimension": 1, "lengths": [1.0], "boundary": "periodic", "intensity": 1.5}
CELLS_MODEL = {"type": "cell_occupancy", "cell_counts": [3],
               "theta": [[0.6, 0.3, 0.0], [0.3, 0.6, 0.3], [0.0, 0.3, 0.6]],
               "base_rate": 1.0}

# Lookbacks of the perfect-sample workloads, and the replicates of the first
# call that are drawn again with four times the initial lookback.
INITIAL_LOOKBACK = 1.0
MAX_LOOKBACK = 1024.0
INVARIANCE_REPLICATES = 3
ORACLE_TOLERANCE = 1e-10


def call_seed(workload: str, seed: int, call: int) -> int:
    """Master seed of call `call` in a run of `workload` with seed `seed`."""
    digest = hashlib.sha256(f"{workload}/{seed}/{call}".encode()).hexdigest()
    return int(digest[:15], 16)


@dataclass
class Outcome:
    """What one CLI call did: operations attempted and failed, units of work
    completed (events, coalesced draws or oracle states), and failure notes."""

    attempted: int
    failed: int
    work: int
    notes: list


def output_digest(out_dir: str) -> str:
    """SHA-256 over every output file: relative path and contents, in order."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def output_size(out_dir: str) -> tuple[int, int]:
    """Number of files and total bytes under out_dir."""
    files = size = 0
    for root, _, names in os.walk(out_dir):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return files, size


# ---------------------------------------------------------------------------
# forward-dense: `simulate`, pairwise model on the 2-D torus at intensity 1000
# ---------------------------------------------------------------------------

def forward_dense_config(seed: int, smoke: bool) -> dict:
    horizon = 0.5 if smoke else 1.0
    scale = 0.1 if smoke else 1.0
    return {"space": {"dimension": 2, "lengths": [1.0, 1.0], "boundary": "periodic",
                      "intensity": 1000.0 * scale},
            "model": {"type": "pairwise", "theta": 0.5, "range": 0.02},
            "death": {"type": "unit"},
            "seed": seed,
            "run": {"horizon": horizon, "snapshot_times": [0.0, horizon / 2, horizon],
                    "initial": {"type": "poisson", "intensity": 700.0 * scale}}}


def check_forward(cfg_path: str, out_dir: str, first: bool) -> Outcome:
    """Replay events.csv from the initial state through engine.snapshot; it
    must reproduce final_state.json and every snapshot file byte for byte."""
    from sbdsim import cli, engine, noise
    from sbdsim.geometry import TimedConfiguration, snapshot_to_json

    cfg = cli.load_config(cfg_path)
    notes = []
    events = []
    with open(os.path.join(out_dir, "events.csv"), newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            events.append(engine.Event(time=float(row[0]), kind=row[1], point_id=row[2],
                                       x=[float(v) for v in row[3:]]))
    horizon = float(cfg.run["horizon"])
    eta0 = noise.poisson_configuration(cfg.space, float(cfg.run["initial"]["intensity"]),
                                       cfg.seed)
    traj = engine.Trajectory(initial=noise.initial_clocks(eta0, cfg.seed), events=events,
                             start_time=0.0, horizon=horizon, final=TimedConfiguration(),
                             death_rate=cfg.model.death.rate)
    expected = [(f"snapshot_{i:03d}.json", float(t))
                for i, t in enumerate(cfg.run["snapshot_times"])]
    expected.append(("final_state.json", horizon))
    for name, t in expected:
        with open(os.path.join(out_dir, name)) as fh:
            written = fh.read()
        if written != snapshot_to_json(t, engine.snapshot(traj, t)) + "\n":
            notes.append(f"{name}: replay of events.csv disagrees")
    return Outcome(attempted=1, failed=1 if notes else 0, work=len(events), notes=notes)


# ---------------------------------------------------------------------------
# perfect-sample workloads
# ---------------------------------------------------------------------------

def cftp_pairwise_config(seed: int, smoke: bool) -> dict:
    return {"space": {"dimension": 1, "lengths": [1.0], "boundary": "periodic",
                      "intensity": 5.0 if smoke else 10.0},
            "model": {"type": "pairwise", "theta": 0.5, "range": 0.05},
            "death": {"type": "unit"},
            "seed": seed,
            "run": {"replicates": 4 if smoke else 40, "initial_lookback": INITIAL_LOOKBACK,
                    "max_lookback": MAX_LOOKBACK}}


def cftp_cells_config(seed: int, smoke: bool) -> dict:
    return {"space": dict(CELLS_SPACE), "model": dict(CELLS_MODEL),
            "death": {"type": "unit"},
            "seed": seed,
            "run": {"replicates": 20 if smoke else 200, "initial_lookback": INITIAL_LOOKBACK,
                    "max_lookback": MAX_LOOKBACK}}


def check_perfect(cfg_path: str, out_dir: str, first: bool) -> Outcome:
    """Every draw must be Coalesced. On the first call of a run, the first few
    replicates are drawn again with 4x the initial lookback and must give the
    identical configuration (lookback invariance)."""
    from sbdsim import cftp, cli

    cfg = cli.load_config(cfg_path)
    replicates = int(cfg.run["replicates"])
    notes = []
    failed_reps = set()
    with open(os.path.join(out_dir, "coalescence.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != replicates:
        notes.append(f"coalescence.csv has {len(rows)} rows for {replicates} replicates")
        failed_reps.update(range(len(rows), replicates))
    coalesced = 0
    for row in rows:
        if row["status"] == "Coalesced":
            coalesced += 1
        else:
            failed_reps.add(int(row["replicate"]))
            notes.append(f"replicate {row['replicate']}: {row['status']}")
    if first:
        for i in range(min(INVARIANCE_REPLICATES, replicates)):
            with open(os.path.join(out_dir, "samples", f"sample_{i:05d}.json")) as fh:
                record = json.load(fh)
            again = cftp.perfect_sample(cfg.model, cfg.space, record["seed"],
                                        4 * INITIAL_LOOKBACK, MAX_LOOKBACK, cfg.slab_length)
            points = None if again.configuration is None else sorted(
                [float(v) for v in x] for _, x in again.configuration.items())
            if points != record["points"]:
                failed_reps.add(i)
                notes.append(f"replicate {i}: redraw with 4x lookback differs")
    return Outcome(attempted=replicates, failed=len(failed_reps), work=coalesced, notes=notes)


# ---------------------------------------------------------------------------
# oracle-cells: `oracle` on the three-cell model
# ---------------------------------------------------------------------------

def oracle_cells_config(seed: int, smoke: bool) -> dict:
    cap = 4 if smoke else 12
    return {"space": dict(CELLS_SPACE), "model": dict(CELLS_MODEL),
            "death": {"type": "unit"},
            "seed": seed,
            "run": {"oracle": {"caps": [cap, cap, cap]}}}


def check_oracle(cfg_path: str, out_dir: str, first: bool) -> Outcome:
    """The linear solve and the closed form must agree, and the solved law
    must balance, both to 1e-10."""
    with open(cfg_path) as fh:
        caps = json.load(fh)["run"]["oracle"]["caps"]
    with open(os.path.join(out_dir, "oracle_report.json")) as fh:
        report = json.load(fh)
    notes = []
    for key in ("tv_oracle_vs_gibbs", "balance_residual"):
        if not (abs(report[key]) < ORACLE_TOLERANCE):
            notes.append(f"{key} = {report[key]!r} is not below {ORACLE_TOLERANCE}")
    return Outcome(attempted=1, failed=1 if notes else 0,
                   work=math.prod(c + 1 for c in caps), notes=notes)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: object  # (seed, smoke) -> dict
    check: object  # (config path, out dir, first call) -> Outcome
    op: tuple  # (module, function) the CLI calls once per operation
    ops_per_call: object  # config dict -> planned operations
    probe: str  # the speedprobe.PROBES kind its times are measured against


WORKLOADS = {w.name: w for w in (
    Workload("forward-dense", "simulate", forward_dense_config, check_forward,
             ("sbdsim.engine", "simulate"), lambda cfg: 1, "interp"),
    Workload("cftp-pairwise", "perfect-sample", cftp_pairwise_config, check_perfect,
             ("sbdsim.cftp", "perfect_sample"), lambda cfg: cfg["run"]["replicates"], "interp"),
    Workload("cftp-cells", "perfect-sample", cftp_cells_config, check_perfect,
             ("sbdsim.cftp", "perfect_sample"), lambda cfg: cfg["run"]["replicates"], "interp"),
    Workload("oracle-cells", "oracle", oracle_cells_config, check_oracle,
             ("sbdsim.analysis", "oracle_stationary"), lambda cfg: 1, "lu"),
)}
