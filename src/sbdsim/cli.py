"""Command line front end: config ingestion, run orchestration, file output.

One JSON config file describes the space, the rate model, the death model,
the master seed, and per-command run parameters; command line flags override
the corresponding config fields. Every command writes its outputs into the
--out directory together with the exact effective config (canonical JSON), so
a run can be reproduced from its output directory alone. All randomness is
derived from the single master seed by keyed splitting; repeated invocations
with the same config and seed produce byte-identical files.

Exit codes: 0 success, 2 config or usage error, 3 validation failure. A
perfect-sample run that fails to coalesce within the lookback bound is a
recorded outcome, not an error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, analysis, cftp, engine
from .geometry import (
    Configuration,
    SimulationConfigError,
    SpaceSpec,
    config_count,
    config_number,
    snapshot_to_json,
)
from .models import (
    AreaInteractionRate,
    CellOccupancyRate,
    ConstantRate,
    PairwiseRate,
    UnsupportedModelError,
    contraction_constant,
    detailed_balance_residual,
    envelope_total,
    model_from_config,
)
from .noise import NoiseStream, initial_clocks, poisson_configuration, replicate_seed


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def space_from_config(block: dict) -> SpaceSpec:
    if not isinstance(block, dict):
        raise SimulationConfigError("config field 'space' must be an object")
    known = {"dimension", "lengths", "boundary", "intensity", "quadrature_resolution"}
    unknown = set(block) - known
    if unknown:
        raise SimulationConfigError(f"unknown space fields: {sorted(unknown)}")
    lengths = block.get("lengths", [1.0])
    if not isinstance(lengths, list):
        raise SimulationConfigError(f"space.lengths must be a list, got {lengths!r}")
    return SpaceSpec(
        dimension=config_count(block.get("dimension", len(lengths)), "space.dimension", 1),
        lengths=tuple(config_number(v, "space.lengths entry") for v in lengths),
        boundary=block.get("boundary", "periodic"),
        intensity=config_number(block.get("intensity", 1.0), "space.intensity"),
        quadrature_resolution=config_count(block.get("quadrature_resolution", 256),
                                           "space.quadrature_resolution", 2),
    )


@dataclass
class RunConfig:
    """Validated run description: the effective config dict plus built objects."""

    raw: dict
    space: SpaceSpec
    model: object
    seed: int
    slab_length: float
    run: dict

    def provenance(self) -> dict:
        """Pre-run report: envelope mass and the contraction estimate."""
        report = {"version": __version__,
                  "envelope_total": envelope_total(self.model, self.space)}
        try:
            est = contraction_constant(self.model, self.space)
            report["contraction"] = {"value": est.value, "error": est.error,
                                     "certifies_uniqueness": est.certifies_uniqueness}
        except UnsupportedModelError as exc:
            report["contraction"] = {"unavailable": str(exc)}
        return report


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SimulationConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SimulationConfigError(
            f"config parse error in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise SimulationConfigError("config root must be a JSON object")
    raw = dict(raw)
    raw.setdefault("run", {})
    if not isinstance(raw["run"], dict):
        raise SimulationConfigError("config field 'run' must be an object")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key in ("seed", "slab_length"):
            raw[key] = value
        else:
            raw["run"] = {**raw["run"], key: value}

    if "space" not in raw:
        raise SimulationConfigError("config is missing the 'space' block")
    space = space_from_config(raw["space"])
    model = model_from_config(raw)
    seed = config_count(raw.get("seed", 0), "seed")
    if seed >= 2 ** 64:
        raise SimulationConfigError("seed must fit in an unsigned 64-bit integer")
    slab_length = config_number(raw.get("slab_length", 1.0), "slab_length")
    if not (slab_length > 0 and math.isfinite(slab_length)):
        raise SimulationConfigError("slab_length must be positive and finite")
    if not math.isfinite(envelope_total(model, space)):
        raise SimulationConfigError("model envelope is not integrable on this space")
    return RunConfig(raw=raw, space=space, model=model, seed=seed,
                     slab_length=slab_length, run=raw["run"])


def _write_outputs(out_dir: str, cfg: RunConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(cfg.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "provenance.json"), "w") as fh:
        json.dump(cfg.provenance(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _block(cfg: RunConfig, name: str) -> dict:
    """The run.<name> block of a command, which must be an object."""
    block = cfg.run.get(name, {})
    if not isinstance(block, dict):
        raise SimulationConfigError(f"run.{name} must be an object, got {block!r}")
    return block


def _replicates(cfg: RunConfig, default: int) -> int:
    return config_count(cfg.run.get("replicates", default), "replicates", 1)


def _finite(value, name: str) -> float:
    """A config value that must be a finite number."""
    number = config_number(value, name)
    if not math.isfinite(number):
        raise SimulationConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _horizon(cfg: RunConfig, default: float) -> float:
    horizon = _finite(cfg.run.get("horizon", default), "horizon")
    if horizon < 0:
        raise SimulationConfigError("horizon must be nonnegative")
    return horizon


def _snapshot_times(cfg: RunConfig, horizon: float) -> list[float]:
    times = cfg.run.get("snapshot_times", [])
    if not isinstance(times, list):
        raise SimulationConfigError(f"snapshot_times must be a list of times, got {times!r}")
    times = [_finite(t, "snapshot times entry") for t in times]
    if not all(0 <= t <= horizon for t in times):
        raise SimulationConfigError("snapshot times must lie in [0, horizon]")
    return times


def _initial_intensity(cfg: RunConfig) -> float | None:
    """The checked run.initial block: None for an empty initial state, else
    the intensity of a Poisson one."""
    block = cfg.run.get("initial", {"type": "empty"})
    if not isinstance(block, dict):
        raise SimulationConfigError(f"run.initial must be an object, got {block!r}")
    kind = block.get("type", "empty")
    if kind == "empty":
        return None
    if kind != "poisson":
        raise SimulationConfigError(f"unknown initial state type {kind!r}")
    intensity = _finite(block.get("intensity", 1.0), "run.initial.intensity")
    # numpy's Poisson sampler refuses a mean above about 9.2e18
    if not 0 <= intensity * cfg.space.volume <= 9e18:
        raise SimulationConfigError(
            f"run.initial.intensity must be >= 0 and give a mean count of at most 9e18 "
            f"on the window, got {intensity!r}")
    return intensity


def _initial_state(cfg: RunConfig, intensity: float | None, seed: int):
    """The initial state of _initial_intensity(cfg), drawn from seed."""
    eta0 = Configuration() if intensity is None else \
        poisson_configuration(cfg.space, intensity, seed)
    return initial_clocks(eta0, seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    horizon = _horizon(cfg, 10.0)
    snapshot_times = _snapshot_times(cfg, horizon)
    intensity = _initial_intensity(cfg)
    _write_outputs(out_dir, cfg)

    stream = NoiseStream.for_model(cfg.model, cfg.space, cfg.seed, cfg.slab_length)
    initial = _initial_state(cfg, intensity, cfg.seed)
    traj = engine.simulate(cfg.model, cfg.space, initial, horizon, stream)
    traj.to_csv(os.path.join(out_dir, "events.csv"))
    final = None
    for i, (t, state) in enumerate(zip(snapshot_times, engine.snapshots(traj, snapshot_times))):
        text = snapshot_to_json(t, state) + "\n"
        with open(os.path.join(out_dir, f"snapshot_{i:03d}.json"), "w") as fh:
            fh.write(text)
        # the state replayed at the horizon is traj.final (its deaths are
        # applied and no proposal lies at it); times are compared by repr,
        # because json writes -0.0 and 0.0, which are equal, differently
        if repr(t) == repr(horizon):
            final = text
    with open(os.path.join(out_dir, "final_state.json"), "w") as fh:
        fh.write(final or snapshot_to_json(horizon, traj.final) + "\n")
    summary = {"events": traj.event_count(), "final_count": len(traj.final),
               "horizon": horizon, "seed": cfg.seed}
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"simulate: {summary['events']} events, final count {summary['final_count']}")
    return 0


def cmd_perfect_sample(cfg: RunConfig, out_dir: str) -> int:
    replicates = _replicates(cfg, 100)
    t0 = _finite(cfg.run.get("initial_lookback", 1.0), "initial_lookback")
    t_max = _finite(cfg.run.get("max_lookback", 1024.0), "max_lookback")
    if not (t0 > 0 and t_max > 0):
        raise SimulationConfigError(
            f"initial_lookback and max_lookback must be > 0, got {t0!r} and {t_max!r}")
    if max(t0, cfg.slab_length) > t_max * (1 + 1e-12):  # cftp.perfect_sample would try none
        raise SimulationConfigError(
            f"max_lookback {t_max!r} is below the first lookback, the larger of "
            f"initial_lookback {t0!r} and slab_length {cfg.slab_length!r}")
    _write_outputs(out_dir, cfg)
    samples_dir = os.path.join(out_dir, "samples")
    os.makedirs(samples_dir, exist_ok=True)

    # every draw before the first sample file: a draw of the three-cell model
    # takes a fraction of a millisecond, and between file writes it ran about
    # 20 % slower
    seeds = [replicate_seed(cfg.seed, i) for i in range(replicates)]
    draws = [cftp.perfect_sample(cfg.model, cfg.space, seed_i, t0, t_max, cfg.slab_length)
             for seed_i in seeds]
    n_coalesced = 0
    with open(os.path.join(out_dir, "coalescence.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "seed", "status", "lookback", "count"])
        for i, (seed_i, res) in enumerate(zip(seeds, draws)):
            count = res.count
            writer.writerow([i, seed_i, res.status, repr(res.lookback_used),
                             "" if count is None else count])
            record = {"replicate": i, "seed": seed_i, "status": res.status,
                      "lookback": res.lookback_used, "count": count,
                      "points": None if res.configuration is None else
                      sorted(p for _, (p, _, _) in res.configuration.rows())}
            with open(os.path.join(samples_dir, f"sample_{i:05d}.json"), "w") as sf:
                sf.write(json.dumps(record, sort_keys=True) + "\n")
            n_coalesced += res.status == "Coalesced"
    print(f"perfect-sample: {n_coalesced}/{replicates} coalesced")
    return 0


def cmd_oracle(cfg: RunConfig, out_dir: str) -> int:
    if not isinstance(cfg.model, CellOccupancyRate):
        raise SimulationConfigError("the oracle command needs a cell_occupancy model")
    block = _block(cfg, "oracle")
    n_cells = cfg.model.n_cells
    caps = block.get("caps", [12] * n_cells)
    if not isinstance(caps, list) or len(caps) != n_cells:
        raise SimulationConfigError(
            f"run.oracle.caps must list one bound per cell ({n_cells} cells), got {caps!r}")
    caps = [config_count(c, "run.oracle.caps entry") for c in caps]
    extension = config_count(block.get("extension", 4), "run.oracle.extension")
    analysis.check_state_budget(caps, extension)
    oracle = analysis.OracleModel.from_model(cfg.model, cfg.space, caps)
    _write_outputs(out_dir, cfg)

    stationary = analysis.oracle_stationary(oracle)
    closed_form = analysis.gibbs_table(oracle, extension)
    stationary.to_csv(os.path.join(out_dir, "oracle_stationary.csv"))
    closed_form.to_csv(os.path.join(out_dir, "gibbs_table.csv"))
    tv = analysis.tv_distance(stationary, closed_form)
    report = {"tv_oracle_vs_gibbs": tv,
              "balance_residual": stationary.residual,
              "truncation_defect_oracle": stationary.defect,
              "truncation_defect_gibbs": closed_form.defect,
              "caps": list(int(c) for c in caps)}
    with open(os.path.join(out_dir, "oracle_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"oracle: TV(stationary, closed form) = {tv:.3e}, "
          f"balance residual {stationary.residual:.3e}")
    return 0


def cmd_contraction(cfg: RunConfig, out_dir: str | None) -> int:
    resolution = _block(cfg, "contraction").get("resolution")
    if resolution is not None:
        config_count(resolution, "run.contraction.resolution", 2)
    elif cfg.space.dimension == 1:
        resolution = 2_000_001
    est = contraction_constant(cfg.model, cfg.space, resolution)
    verdict = "certifies a unique stationary law" if est.certifies_uniqueness \
        else "does not certify uniqueness"
    print(f"M = {est.value:.9f} (quadrature error {est.error:.3e}); {verdict}")
    if out_dir:
        _write_outputs(out_dir, cfg)
        with open(os.path.join(out_dir, "contraction.json"), "w") as fh:
            json.dump({"M": est.value, "error": est.error,
                       "resolution": est.resolution,
                       "certifies_uniqueness": est.certifies_uniqueness},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_stats(cfg: RunConfig, out_dir: str) -> int:
    replicates = _replicates(cfg, 200)
    horizon = _horizon(cfg, 20.0)
    intensity = _initial_intensity(cfg)
    _write_outputs(out_dir, cfg)

    samples, trajectories = [], []  # the lifetime test reads the first 50 runs
    for i in range(replicates):
        seed_i = replicate_seed(cfg.seed, i)
        stream = NoiseStream.for_model(cfg.model, cfg.space, seed_i, cfg.slab_length)
        traj = engine.simulate(cfg.model, cfg.space, _initial_state(cfg, intensity, seed_i),
                               horizon, stream)
        samples.append(traj.final)
        if i < 50:
            trajectories.append(traj)

    table = analysis.empirical_count_table(samples)
    table.to_csv(os.path.join(out_dir, "count_table.csv"))

    min_len = float(np.min(cfg.space.lengths_array()))
    radii = np.linspace(min_len / 40, min_len / 4, 10)
    rip = analysis.ripley_k(samples, cfg.space, radii)
    with open(os.path.join(out_dir, "ripley_k.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "k_hat"])
        if rip.status == "ok":
            for r, k in zip(rip.radii, rip.k_hat):
                writer.writerow([repr(float(r)), repr(float(k))])

    blocks = analysis.block_average_diagnostic(samples, cfg.space, [1, 2, 4, 8])
    with open(os.path.join(out_dir, "block_variance.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["blocks_per_axis", "intensity_variance"])
        for m, v in blocks:
            writer.writerow([m, repr(v)])

    ks = analysis.lifetime_ks_test(trajectories)
    summary = {"replicates": replicates, "horizon": horizon,
               "mean_count": float(np.mean([len(s) for s in samples])),
               "ripley_status": rip.status,
               "lifetime_ks": {"n": ks.n, "statistic": None if math.isnan(ks.statistic)
                               else ks.statistic,
                               "pvalue": None if math.isnan(ks.pvalue) else ks.pvalue,
                               "status": ks.status}}
    with open(os.path.join(out_dir, "stats.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"stats: mean count {summary['mean_count']:.3f} over {replicates} replicates")
    return 0


# ---------------------------------------------------------------------------
# validate battery
# ---------------------------------------------------------------------------

def _check(name, passed, **details):
    row = {"name": name, "passed": bool(passed)}
    row.update(details)
    return row


def run_validation_battery(seed: int = 20260816, fast: bool = False) -> dict:
    """Fixed-seed invariant suite; returns a machine-readable report.

    The sizes are chosen to finish in about a minute while keeping every
    statistical check at its stated significance. The acceptance test suite
    runs the larger, slower versions of the same checks.
    """
    checks = []
    scale = 0.25 if fast else 1.0

    # 1. Poisson stationarity of the perfect sampler
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=5.0)
    model = ConstantRate(rate=1.0)
    n = max(200, int(1500 * scale))
    counts = []
    for i in range(n):
        res = cftp.perfect_sample(model, space, replicate_seed(seed, i))
        counts.append(res.count if res.count is not None else -1)
    pmf = {k: float(math.exp(-5.0) * 5.0 ** k / math.factorial(k)) for k in range(30)}
    gof = analysis.chi_square_gof(counts, pmf)
    checks.append(_check("poisson_counts_cftp", gof.pvalue > 0.01,
                         pvalue=gof.pvalue, samples=n))

    # 2. oracle vs closed form on a 3-cell repulsive model
    cell_model = CellOccupancyRate(cell_counts=(3,), theta=np.array(
        [[0.6, 0.3, 0.0], [0.3, 0.6, 0.3], [0.0, 0.3, 0.6]]), base_rate=1.0)
    cell_space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.5)
    oracle = analysis.OracleModel.from_model(cell_model, cell_space, caps=(12, 12, 12))
    stationary = analysis.oracle_stationary(oracle)
    closed = analysis.gibbs_table(oracle)
    tv_tables = analysis.tv_distance(stationary, closed)
    checks.append(_check("oracle_vs_gibbs", tv_tables < 1e-10, tv=tv_tables,
                         balance_residual=stationary.residual,
                         defect=stationary.defect))
    gen_res = analysis.discrete_generator_residual(oracle, stationary)
    checks.append(_check("oracle_generator_residual", gen_res < 1e-10,
                         residual=gen_res))

    # 3. simulated law vs oracle
    n_fwd = max(300, int(2000 * scale))
    sim_samples = []
    for i in range(n_fwd):
        stream = NoiseStream.for_model(cell_model, cell_space, replicate_seed(seed + 1, i))
        traj = engine.simulate(cell_model, cell_space,
                               initial_clocks(Configuration(), replicate_seed(seed + 1, i)),
                               15.0, stream)
        sim_samples.append(traj.final)
    emp = analysis.empirical_count_table(sim_samples, cell_model, cell_space)
    tv_emp = analysis.tv_distance(emp, stationary)
    tol_emp = 0.05 / math.sqrt(scale)
    checks.append(_check("forward_law_vs_oracle", tv_emp < tol_emp,
                         tv=tv_emp, tolerance=tol_emp, samples=n_fwd))

    # 4. detailed balance of the continuous models
    pair_space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.0)
    pair_model = PairwiseRate(theta=0.5, interaction_range=0.2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        eta = poisson_configuration(pair_space, 3.0, int(rng.integers(2 ** 62)))
        x = rng.uniform(0.0, 1.0, size=1)
        res = detailed_balance_residual(pair_model, pair_space, x, eta)
        worst = max(worst, abs(res.residual))
    checks.append(_check("detailed_balance_pairwise", worst < 1e-12, worst=worst))

    area_model = AreaInteractionRate(rho=2.0, gamma=1.6, grain_radius=0.08)
    ok_area = True
    worst_area = 0.0
    for _ in range(100):
        eta = poisson_configuration(pair_space, 3.0, int(rng.integers(2 ** 62)))
        x = rng.uniform(0.0, 1.0, size=1)
        res = detailed_balance_residual(area_model, pair_space, x, eta)
        ok_area = ok_area and res.ok
        worst_area = max(worst_area, abs(res.residual))
    checks.append(_check("detailed_balance_area", ok_area, worst=worst_area))

    # 5. transport identity
    for selector in analysis.MECKE_SELECTORS:
        mk = analysis.mecke_test(space, 5.0, selector, max(1000, int(4000 * scale)),
                                 seed + 2)
        checks.append(_check(f"mecke_{selector}", mk.z <= 3.0, lhs=mk.lhs,
                             rhs=mk.rhs, z=mk.z))

    # 6. lifetimes
    stream = NoiseStream.for_model(model, space, seed + 3)
    traj = engine.simulate(model, space, initial_clocks(Configuration(), seed + 3),
                           max(300.0, 1200.0 * scale), stream)
    ks = analysis.lifetime_ks_test(traj)
    checks.append(_check("lifetime_ks", ks.status == "ok" and ks.pvalue > 0.01,
                         n=ks.n, pvalue=ks.pvalue))

    # 7. coupling decay of the constant model
    eta_up = poisson_configuration(space, 4.0, seed + 4, prefix="up")
    decay = cftp.coupling_decay_curve(model, space, eta_up,
                                      horizon=4.0, replicates=max(120, int(400 * scale)),
                                      master_seed=seed + 4,
                                      times=np.linspace(0.0, 4.0, 9))
    checks.append(_check("coupling_decay_constant",
                         abs(decay.fitted_rate + 1.0) < 0.15,
                         fitted_rate=decay.fitted_rate))

    # 8. contraction constant of the pairwise model
    est = contraction_constant(pair_model, pair_space, 2_000_001)
    target = 2 * 0.2 * (1 - math.exp(-0.5))
    checks.append(_check("contraction_pairwise", abs(est.value - target) < 1e-6,
                         value=est.value, target=target, error=est.error))

    # 9. noise reuse across lookback doublings
    stream = NoiseStream.for_model(model, space, seed + 5)
    h1 = [stream.slab_hash(k) for k in range(-4, 0)]
    cftp.sandwich_run(model, space, 4.0, stream)
    h2 = [stream.slab_hash(k) for k in range(-4, 0)]
    cftp.sandwich_run(model, space, 8.0, stream)
    h3 = [stream.slab_hash(k) for k in range(-4, 0)]
    funnel = cftp.funnel_violations(model, space, 4.0, stream, n_intermediate=3, seed=seed)
    checks.append(_check("noise_reuse_and_funnel", h1 == h2 == h3 and funnel == 0,
                         hashes_stable=h1 == h2 == h3, funnel_violations=funnel))

    # 10. stationarity functional on perfect samples
    cftp_states = []
    for i in range(max(200, int(800 * scale))):
        res = cftp.perfect_sample(model, space, replicate_seed(seed + 6, i))
        if res.configuration is not None:
            cftp_states.append(res.configuration)
    sres = analysis.stationarity_residual(model, space, cftp_states)
    checks.append(_check("stationarity_residual", sres.z <= 3.0,
                         estimate=sres.estimate, stderr=sres.stderr, z=sres.z))

    return {"all_passed": all(c["passed"] for c in checks), "checks": checks,
            "seed": seed}


def cmd_validate(cfg: RunConfig, out_dir: str) -> int:
    block = _block(cfg, "validate")
    seed = config_count(block.get("seed", cfg.seed or 20260816), "run.validate.seed")
    fast = block.get("fast", False)
    if not isinstance(fast, bool):
        raise SimulationConfigError(f"run.validate.fast must be true or false, got {fast!r}")
    _write_outputs(out_dir, cfg)
    report = run_validation_battery(seed=seed, fast=fast)
    with open(os.path.join(out_dir, "validation_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for c in report["checks"]:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
    if not report["all_passed"]:
        print("validate: FAILURES present")
        return 3
    print("validate: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "perfect-sample": cmd_perfect_sample,
    "oracle": cmd_oracle,
    "validate": cmd_validate,
    "stats": cmd_stats,
    "contraction": cmd_contraction,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and reused: parsing
    keeps no state in it, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="sbdsim",
        description="Exact simulation and perfect sampling of spatial birth-death processes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored: replicates run "
                            "one after another (must be at least 1)")
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--snapshot-times", default=None,
                       help="comma-separated times, e.g. 0,2.5,10")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {"seed": args.seed, "replicates": args.replicates,
                     "horizon": args.horizon}
        if args.snapshot_times is not None:
            try:
                overrides["snapshot_times"] = [float(v) for v in
                                               args.snapshot_times.split(",") if v]
            except ValueError as exc:
                raise SimulationConfigError(f"bad --snapshot-times: {exc}") from exc
        cfg = load_config(args.config, overrides)
        out_dir = args.out or f"out-{args.command}"
        if args.command == "contraction" and args.out is None:
            out_dir = None
        if args.threads < 1:
            raise SimulationConfigError("--threads must be at least 1")
        return _COMMANDS[args.command](cfg, out_dir)
    except (SimulationConfigError, UnsupportedModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except analysis.OracleSolveError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
