"""Perfect sampling by coupling from the past with a dominating process.

The stationary dynamics are bracketed on a lookback window [-T, 0] between a
lower process started empty and an upper process started from the stationary
law of the envelope-driven (dominating) process. Both run forward in time on
the same noise in one pass: at each proposal the lower process accepts below
the infimum of the rate over all configurations between the current pair, the
upper below the supremum. Each decision depends only on the pair just before
the proposal, so a single time-ordered pass settles every decision; if the
pair agrees at time 0 the common value is an exact draw from the stationary
law, because every stationary path driven by the same noise is trapped
between the pair. The pair stays nested, so it agrees as soon as its sizes
do, and from then on both processes take the same decisions (Garcia & Kurtz:
one proposal stream drives every path): the rest of the pass runs them as one
path at the plain birth rate. Only keep_detail keeps the event logs.

The dominating process must be one consistent trajectory across lookbacks,
not redrawn per restart: its state at -T is realized as the survivors of the
noise's own slabs older than -T (their count is Poisson with the envelope's
stationary mean, their residual clocks exponential). Extending the lookback
then only prepends noise, which is what makes the doubling schedule exact.
The survivor scan stops at the first slab whose survivors, together with
those of all older slabs, have expected number at most ANCIENT_TAIL_MASS =
1e-16, far under double-precision decision granularity; this truncation is
the sampler's only approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Configuration,
    SimulationConfigError,
    SpaceSpec,
    TimedConfiguration,
    TimedPoint,
    configuration_contains,
    symmetric_difference,
)
from .models import RateModel, UnsupportedModelError, _sandwich_rates, envelope_total
from .noise import NoisePoint, NoiseStream, initial_clocks, poisson_configuration, replicate_seed
from . import engine

ANCIENT_TAIL_MASS = 1e-16


# ---------------------------------------------------------------------------
# dominating-process state at the lookback boundary
# ---------------------------------------------------------------------------

def ancient_survivors(stream: NoiseStream, boundary_time: float,
                      death_rate: float = 1.0) -> TimedConfiguration:
    """State of the envelope-driven process at boundary_time contributed by
    proposals older than the boundary, with residual clocks.

    Scans slabs backwards from the one holding the boundary and stops before
    the first slab k whose upper edge (k + 1) L lies so far back that the
    expected number of survivors of slab k and everything older,
    (rate / delta) exp(-delta (B - (k + 1) L)), is at most ANCIENT_TAIL_MASS:
    every proposal left out belongs to that tail. A scanned slab is skipped
    without looking at its atoms when rmax <= delta (B - smax), its largest
    death mark against the shortest time to the boundary: rounding is
    monotone, so no atom of such a slab has a positive residual. The same
    noise always yields the same survivors, so lookback extensions see one
    consistent dominating trajectory. A point whose death time rounds to the
    boundary itself is dead there, by the engine's rule that a death at t is
    applied at t.
    """
    out = TimedConfiguration()
    rate = stream.envelope_total
    if rate <= 0:
        return out
    L = stream.slab_length
    k = math.ceil(boundary_time / L) - 1
    guard = 0
    while (rate / death_rate) * math.exp(-death_rate * (boundary_time - (k + 1) * L)) \
            > ANCIENT_TAIL_MASS:
        slab = stream.slab_points(k)
        if slab.rmax > death_rate * (boundary_time - slab.smax):  # -inf if empty
            residuals = slab.r - death_rate * (boundary_time - slab.s)
            for i in np.flatnonzero((slab.s < boundary_time) & (residuals > 0)):
                residual = float(residuals[i])
                if engine._death_time(boundary_time, residual, death_rate) > boundary_time:
                    out.add(slab.atom_id(i), TimedPoint(coords=slab.x[i].copy(), clock=residual,
                                                        birth_time=boundary_time))
        k -= 1
        guard += 1
        if guard > 10_000_000:
            raise RuntimeError("ancient survivor scan did not terminate")
    return out


# ---------------------------------------------------------------------------
# sandwich pass on a fixed lookback
# ---------------------------------------------------------------------------

@dataclass
class SandwichDetail:
    """Internals of a sandwich run, for audits and funnel checks."""

    atoms: list[NoisePoint]
    ancient: TimedConfiguration
    start_time: float
    lower_path: engine.Trajectory
    upper_path: engine.Trajectory


@dataclass
class SandwichState:
    """Bracketing pair at time 0 after the sandwich pass: the pass's own live
    states, the same object once the pair has merged. proposals counts the
    proposals of the pass, merged those it ran as one path."""

    lower: Configuration
    upper: Configuration
    lookback: float
    coalesced: bool
    proposals: int
    merged: int
    detail: SandwichDetail | None = None


def _bracket_rates(model: RateModel, space: SpaceSpec):
    """Rate rule of run_paths for a bracket before it merges: paths 0 and 1
    are the lower and upper process, any further path runs at the plain birth
    rate. The pair is not checked for nesting here; run_paths(nested=True)
    checks it at O(1) per proposal."""
    def rates(x, states):
        lam_low, lam_up = _sandwich_rates(model, space, x, states[0], states[1])
        return [lam_low, lam_up] + [model.birth_rate(space, x, s) for s in states[2:]]
    return rates


def sandwich_run(model: RateModel, space: SpaceSpec, lookback: float,
                 stream: NoiseStream, keep_detail: bool = False) -> SandwichState:
    """Run the coupled bracketing pair on [-T, 0] in one time-ordered pass.

    T is the requested lookback rounded up to whole slabs. The lower process
    starts empty, the upper from the dominating state at -T
    (ancient_survivors); after every proposal the pass raises RuntimeError if
    the lower process accepted a birth that the upper one rejected, the only
    way the pair could stop being nested. Once the pair has equal sizes it is
    equal, and the rest of the pass runs it as one path at the plain birth
    rate (engine.run_paths, nested=True). Only keep_detail keeps event logs.
    """
    if not (lookback > 0):
        raise SimulationConfigError(f"lookback must be > 0, got {lookback}")
    if not math.isfinite(model.envelope_sup(space)):
        raise SimulationConfigError("model envelope must be finite for sandwich runs")
    start = -max(1, math.ceil(lookback / stream.slab_length - 1e-12)) * stream.slab_length
    ancient = ancient_survivors(stream, start, model.death.rate)
    run = engine.run_paths(model, space, [TimedConfiguration(), ancient], -start, stream,
                           start, rates=_bracket_rates(model, space), log=keep_detail,
                           nested=True)
    lower0, upper0 = run.finals
    detail = None
    if keep_detail:
        low, up = run.trajectories()
        detail = SandwichDetail(atoms=list(stream.atoms_between(start, 0.0)), ancient=ancient,
                                start_time=start, lower_path=low, upper_path=up)
    # nested, so equal sizes are equal states
    return SandwichState(lower=lower0, upper=upper0, lookback=-start,
                         coalesced=len(lower0) == len(upper0), proposals=run.proposals,
                         merged=run.merged, detail=detail)


def funnel_violations(model: RateModel, space: SpaceSpec, state: SandwichState,
                      stream: NoiseStream, n_intermediate: int = 5, seed: int = 0) -> int:
    """Run forward paths from random initial states between empty and the
    dominating state at -T on the same noise, alongside the bracket; count
    containment violations lower <= path <= upper after every proposal and
    at 0."""
    if state.detail is None:
        raise SimulationConfigError("funnel check needs a sandwich run with keep_detail=True")
    det = state.detail
    rng = np.random.default_rng(seed)
    ids = sorted(det.ancient.ids())
    mids = [det.ancient.restrict([pid for pid in ids if rng.random() < 0.5])
            for _ in range(n_intermediate)]

    def count(states) -> int:
        low, up = states[0], states[1]
        return sum(not (configuration_contains(mid, low) and configuration_contains(up, mid))
                   for mid in states[2:])

    violations = 0

    def observe(atom, lams, accepted, states) -> None:
        nonlocal violations
        violations += count(states)

    run = engine.run_paths(model, space, [TimedConfiguration(), det.ancient] + mids,
                           -det.start_time, stream, det.start_time,
                           rates=_bracket_rates(model, space), observe=observe, log=False,
                           nested=True)
    return violations + count(run.finals)


# ---------------------------------------------------------------------------
# doubling sampler
# ---------------------------------------------------------------------------

@dataclass
class PerfectSample:
    """Result of a coupling-from-the-past draw. proposals and merged are the
    totals of SandwichState.proposals and .merged over the lookbacks tried."""

    configuration: Configuration | None
    lookback_used: float
    status: str  # "Coalesced" | "NotCoalesced"
    lookbacks_tried: int
    proposals: int
    merged: int

    @property
    def count(self) -> int | None:
        return None if self.configuration is None else len(self.configuration)


def perfect_sample(model: RateModel, space: SpaceSpec, master_seed: int,
                   initial_lookback: float = 1.0, max_lookback: float = 1024.0,
                   slab_length: float = 1.0) -> PerfectSample:
    """Draw one exact stationary sample by doubling the lookback on fixed noise.

    The slabs in [-T, 0) are identical across doublings, only older noise is
    added, so the first coalesced bracket reads off the stationary state at 0.
    Returns status NotCoalesced (with configuration None) once the lookback
    would exceed max_lookback.

    The draw is exact up to one named truncation: the dominating state at -T
    ignores proposals so old that the expected number of their survivors is
    at most ANCIENT_TAIL_MASS = 1e-16.
    """
    stream = NoiseStream.for_model(model, space, master_seed, slab_length)
    lookback = max(initial_lookback, slab_length)
    tried = proposals = merged = 0
    while lookback <= max_lookback * (1 + 1e-12):
        state = sandwich_run(model, space, lookback, stream)
        tried += 1
        proposals += state.proposals
        merged += state.merged
        if state.coalesced:
            # a fresh copy with its rows in the order the live ids were born,
            # so that sums over points_array() do not depend on the pass
            draw = Configuration(dict(state.lower.items()))
            return PerfectSample(configuration=draw, lookback_used=state.lookback,
                                 status="Coalesced", lookbacks_tried=tried,
                                 proposals=proposals, merged=merged)
        lookback = state.lookback * 2
    return PerfectSample(configuration=None, lookback_used=lookback / 2 if tried else 0.0,
                         status="NotCoalesced", lookbacks_tried=tried,
                         proposals=proposals, merged=merged)


# ---------------------------------------------------------------------------
# extremal stationary approximations (attractive models)
# ---------------------------------------------------------------------------

def _require_attractive(model: RateModel, what: str) -> None:
    if model.monotone not in ("nondecreasing", "constant"):
        raise UnsupportedModelError(
            f"{what} needs an attractive (nondecreasing) rate model; "
            f"this model is {model.monotone}")


def minimal_stationary_sample(model: RateModel, space: SpaceSpec, seed: int,
                              horizon: float, slab_length: float = 1.0) -> Configuration:
    """Forward run from the empty state; approaches the least stationary law
    from below for attractive models."""
    _require_attractive(model, "minimal_stationary_sample")
    stream = NoiseStream.for_model(model, space, seed, slab_length)
    traj = engine.simulate(model, space, TimedConfiguration(), horizon, stream)
    return traj.final.projection()


def maximal_stationary_sample(model: RateModel, space: SpaceSpec, seed: int,
                              horizon: float, slab_length: float = 1.0) -> Configuration:
    """Forward run from the stationary dominating state; approaches the
    greatest stationary law from above for attractive models."""
    _require_attractive(model, "maximal_stationary_sample")
    stream = NoiseStream.for_model(model, space, seed, slab_length)
    delta0 = model.death.rate
    density = envelope_total(model, space) / space.volume / delta0
    eta0 = poisson_configuration(space, density, seed)
    initial = initial_clocks(eta0, seed)
    traj = engine.simulate(model, space, initial, horizon, stream)
    return traj.final.projection()


def extremal_lookback_counts(model: RateModel, space: SpaceSpec, horizons,
                             replicates: int, master_seed: int,
                             slab_length: float = 1.0):
    """Counts at time 0 of runs started at -h empty (minimal) and from the
    dominating state at -h (maximal), using common noise across horizons.

    Within one replicate the minimal counts are pathwise nondecreasing in h
    and the maximal counts pathwise nonincreasing, because extending the
    lookback of an attractive model on fixed noise only adds (respectively
    removes) points. Returns (horizons_used, min_counts, max_counts) with
    count arrays of shape (replicates, len(horizons)).
    """
    _require_attractive(model, "extremal_lookback_counts")
    hs = [max(1, math.ceil(h / slab_length - 1e-12)) * slab_length for h in horizons]
    min_counts = np.zeros((replicates, len(hs)), dtype=int)
    max_counts = np.zeros((replicates, len(hs)), dtype=int)
    for rep in range(replicates):
        stream = NoiseStream.for_model(model, space, replicate_seed(master_seed, rep),
                                       slab_length)
        for j, h in enumerate(hs):
            # for an attractive model the bracket's rates are the plain rates
            # of its two paths, so the sandwich pass on [-h, 0] is that pair
            state = sandwich_run(model, space, h, stream)
            min_counts[rep, j] = len(state.lower)
            max_counts[rep, j] = len(state.upper)
    return np.asarray(hs), min_counts, max_counts


# ---------------------------------------------------------------------------
# coupling decay
# ---------------------------------------------------------------------------

@dataclass
class CouplingDecay:
    """Mean coupling distance over time and its fitted exponential rate."""

    times: np.ndarray
    mean_mass: np.ndarray
    fitted_rate: float
    kernel_weighted: bool
    replicates: int


def coupling_decay_curve(model: RateModel, space: SpaceSpec,
                         eta0_low: Configuration, eta0_up: Configuration,
                         horizon: float, replicates: int, master_seed: int,
                         times=None, slab_length: float = 1.0) -> CouplingDecay:
    """Decay of the distance between coupled runs started from nested states.

    The distance at time t is sup_x of the sum over the symmetric difference
    of a(x, y), estimated on an anchor grid; for models whose increment
    kernel vanishes identically the raw symmetric-difference count is used.
    The fitted rate is a least-squares slope of log mean distance, weighted
    toward the better-resolved early part of the curve.
    """
    if not configuration_contains(eta0_up, eta0_low):
        raise SimulationConfigError("coupling_decay_curve: initial states must be nested")
    if times is None:
        times = np.linspace(0.0, horizon, 11)
    times = np.asarray(times, dtype=float)

    anchor_per_axis = max(4, int(round(128 ** (1.0 / space.dimension))))
    anchors = space.grid(anchor_per_axis)
    probe = model.increment_kernel(space, anchors[len(anchors) // 2], anchors)
    kernel_weighted = bool(np.max(probe) > 0)

    acc = np.zeros((len(times), len(anchors))) if kernel_weighted else np.zeros(len(times))
    for rep in range(replicates):
        seed = replicate_seed(master_seed, rep)
        up_timed = initial_clocks(eta0_up, seed)
        lone = _match_subset_ids(eta0_low, up_timed)
        low_timed = up_timed.restrict(lone)
        stream = NoiseStream.for_model(model, space, seed, slab_length)
        t_low, t_up = engine.coupled_simulate(model, space, low_timed, up_timed,
                                              horizon, stream)
        for i, t in enumerate(times):
            c1 = engine.snapshot(t_low, t)
            c2 = engine.snapshot(t_up, t)
            delta = symmetric_difference(c1, c2, space.dimension)
            if kernel_weighted:
                if len(delta):
                    acc[i] += np.stack([model.increment_kernel(space, x, delta)
                                        for x in anchors]).sum(axis=1)
            else:
                acc[i] += len(delta)

    if kernel_weighted:
        mean_mass = np.max(acc / replicates, axis=1)
    else:
        mean_mass = acc / replicates
    keep = mean_mass > 0
    if np.count_nonzero(keep) >= 2:
        w = np.sqrt(np.maximum(mean_mass[keep], 1e-12) * replicates)
        slope, _ = np.polyfit(times[keep], np.log(mean_mass[keep]), 1, w=w)
        rate = float(slope)
    else:
        rate = float("nan")
    return CouplingDecay(times=times, mean_mass=mean_mass, fitted_rate=rate,
                         kernel_weighted=kernel_weighted, replicates=replicates)


def _match_subset_ids(eta_low: Configuration, timed_up: TimedConfiguration) -> list:
    """Ids in timed_up realizing the multiset eta_low (coordinates must match)."""
    remaining = {pid: timed_up.entry(pid).coords.tobytes() for pid in timed_up.ids()}
    chosen = []
    for _, x in sorted(eta_low.items()):
        key = x.tobytes()
        hit = next((pid for pid, k in sorted(remaining.items()) if k == key), None)
        if hit is None:
            raise SimulationConfigError("lower initial state is not a sub-multiset of the upper")
        chosen.append(hit)
        del remaining[hit]
    return chosen
