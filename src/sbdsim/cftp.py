"""Perfect sampling by coupling from the past with a dominating process.

The stationary dynamics are bracketed on a lookback window [-T, 0] between a
lower process started empty and an upper process started from the state of
the dominating process at -T. Both run forward in time on the same noise in
one pass: at each proposal the lower process accepts below the infimum of
the rate over all configurations between the current pair, the upper below
the supremum. Each decision depends only on the pair just before the
proposal, so a single time-ordered pass settles every decision; if the pair
agrees at time 0 the common value is an exact draw from the stationary law,
because every stationary path driven by the same noise is trapped between
the pair. The pair stays nested, so it agrees as soon as its sizes do, and
from then on both processes take the same decisions (Garcia & Kurtz: one
proposal stream drives every path): the rest of the pass runs them as one
path at the plain birth rate. The pass is one mode of the event loop,
engine.run_paths(bracket=True), and keeps no event log.

The dominating process D (births at the envelope rate, Exp(delta) lives) is
one trajectory across lookbacks, not redrawn per restart. It is built from
time 0 backwards (Kendall & Moller 2000): D(0) is the stream's
present_points, and slab k < 0 holds the D-points that die in [kL, (k+1)L),
read with s as the death time, so a point was born at s - r / delta. A pass
on [-T, 0] reads D(0) and the slabs from -T/L - 1 up to -1 and nothing
older. dominating_window reads their rows as they are and splits the points
in one pass: D(-T), the points born before -T and alive at it, and the
proposals, the points born in [-T, 0), put in birth order by a stable sort.
A doubling only adds older slabs, so the draw does not depend on the
lookback schedule, and nothing is truncated: the sampler is exact.

A point of D(0) born before -T sits in the upper path of the pass on
[-T, 0] from its start to 0 and never in the lower path, so that pass cannot
coalesce. perfect_sample reads D(0)'s birth times and death times (the
engine's) before any pass and decides such lookbacks without running them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .geometry import (
    Configuration,
    SimulationConfigError,
    SpaceSpec,
    configuration_contains,
    symmetric_difference,
)
from .models import RateModel, UnsupportedModelError
from .noise import NoiseStream, Proposals, initial_clocks, replicate_seed
from . import engine


# ---------------------------------------------------------------------------
# the dominating process on a window
# ---------------------------------------------------------------------------

def _window_slabs(stream: NoiseStream, start_time: float) -> range:
    """The slabs a window [start_time, 0] reads: from the one below the slab
    holding start_time up to -1. The extra slab is for rounding: a D-point
    drawn with death time s just below the slab edge dies at a computed time
    a few ulps of |s| + r / delta from s, which can lie across the edge."""
    return range(math.floor(start_time / stream.slab_length) - 1, 0)


def dominating_window(stream: NoiseStream, start_time: float,
                      death_rate: float) -> tuple[Configuration, Proposals]:
    """The dominating process D at start_time < 0, and its births in
    [start_time, 0) as proposals.

    Every D-point, from present_points or from a slab of _window_slabs read by
    death time, has a birth time b and a mark r, and dies at
    engine._death_time(b, r, death_rate). D(start_time) is the configuration
    of the points with b < start_time < death, with death mark r and birth
    time b, in sorted-id order, so the engine computes the same death time
    whether a point starts a pass or is a proposal of a longer one. The
    proposals are the rows (b, r, u, id, x_1, ..., x_d) of the points with
    start_time <= b < 0, in birth order (ties in slab order, then D(0)'s), so
    a window's D and proposals are bit-identical whatever lookback reads
    them. A slab atom keeps its id "n{k}:{i}"; point i of D(0) has id "d{i}".
    The join reads the cached rows with the IEEE operations of Python floats
    and makes no numpy call.
    """
    # a slab atom's s is its death time; D(0)'s rows hold birth times already
    rows = chain(((row[0] - row[1] / death_rate,) + row[1:]
                  for k in _window_slabs(stream, start_time) for row in stream.slab_points(k)),
                 stream.present_points(death_rate))
    alive, born = [], []
    for row in rows:
        b = row[0]
        if b < start_time:
            if engine._death_time(b, row[1], death_rate) > start_time:
                alive.append(row)
        elif b < 0.0:
            born.append(row)
    state = Configuration()
    for row in sorted(alive, key=itemgetter(3)):
        state.add(row[3], row[4:], row[1], row[0])
    born.sort(key=itemgetter(0))
    return state, tuple(born)


# ---------------------------------------------------------------------------
# sandwich pass on a fixed lookback
# ---------------------------------------------------------------------------

@dataclass
class SandwichState:
    """Bracketing pair at time 0 after the sandwich pass: the pass's own live
    states, the same object once the pair has merged. proposals counts the
    proposals of the pass, merged those it ran as one path, slabs the slabs
    its window read."""

    lower: Configuration
    upper: Configuration
    lookback: float
    coalesced: bool
    proposals: int
    merged: int
    slabs: int


def _window_start(lookback: float, slab_length: float) -> float:
    """-T for a requested lookback: T is the lookback rounded up to whole
    slabs, at least one."""
    if not (lookback > 0):
        raise SimulationConfigError(f"lookback must be > 0, got {lookback}")
    return -max(1, math.ceil(lookback / slab_length - 1e-12)) * slab_length


def sandwich_run(model: RateModel, space: SpaceSpec, lookback: float,
                 stream: NoiseStream) -> SandwichState:
    """Run the coupled bracketing pair on [-T, 0] in one time-ordered pass.

    T is the requested lookback rounded up to whole slabs. The lower process
    starts empty, the upper from the dominating state D(-T), and the
    proposals are D's births in [-T, 0) (dominating_window). The pass is
    engine.run_paths(bracket=True): it raises RuntimeError if the lower
    process accepts a birth that the upper one rejects, the only way the
    pair could stop being nested, and once the pair has equal sizes it is
    equal, and the rest of the pass runs it as one path at the plain birth
    rate.
    """
    start = _window_start(lookback, stream.slab_length)
    if not math.isfinite(model.envelope_sup(space)):
        raise SimulationConfigError("model envelope must be finite for sandwich runs")
    ancient, proposals = dominating_window(stream, start, model.death.rate)
    run = engine.run_paths(model, space, [Configuration(), ancient], -start, proposals,
                           start, bracket=True)
    lower0, upper0 = run.finals
    # nested, so equal sizes are equal states
    return SandwichState(lower=lower0, upper=upper0, lookback=-start,
                         coalesced=len(lower0) == len(upper0), proposals=run.proposals,
                         merged=run.merged, slabs=len(_window_slabs(stream, start)))


def funnel_violations(model: RateModel, space: SpaceSpec, lookback: float,
                      stream: NoiseStream, n_intermediate: int = 5, seed: int = 0) -> int:
    """Run forward paths from random initial states between empty and the
    dominating state D(-T) on the proposals of sandwich_run's window,
    alongside the bracket; count containment violations
    lower <= path <= upper after every proposal and at 0."""
    start = _window_start(lookback, stream.slab_length)
    ancient, proposals = dominating_window(stream, start, model.death.rate)
    rng = np.random.default_rng(seed)
    ids = sorted(ancient.ids())
    mids = [ancient.restrict([pid for pid in ids if rng.random() < 0.5])
            for _ in range(n_intermediate)]

    def count(states) -> int:
        low, up = states[0], states[1]
        return sum(not (configuration_contains(mid, low) and configuration_contains(up, mid))
                   for mid in states[2:])

    violations = 0

    def observe(s, pid, lams, accepted, states) -> None:
        nonlocal violations
        violations += count(states)

    run = engine.run_paths(model, space, [Configuration(), ancient] + mids, -start,
                           proposals, start, observe=observe, bracket=True)
    return violations + count(run.finals)


# ---------------------------------------------------------------------------
# doubling sampler
# ---------------------------------------------------------------------------

@dataclass
class PerfectSample:
    """Result of a coupling-from-the-past draw. lookbacks_tried counts the
    lookbacks decided, skipped or run; passes the sandwich passes run.
    proposals and merged are the totals of SandwichState.proposals and
    .merged over the passes run; slabs_read is the number of distinct noise
    slabs the draw read, those of its deepest pass (lookback / slab length +
    1), and 0 for a draw that ran no pass."""

    configuration: Configuration | None
    lookback_used: float
    status: str  # "Coalesced" | "NotCoalesced"
    lookbacks_tried: int
    passes: int
    proposals: int
    merged: int
    slabs_read: int

    @property
    def count(self) -> int | None:
        return None if self.configuration is None else len(self.configuration)


def perfect_sample(model: RateModel, space: SpaceSpec, master_seed: int,
                   initial_lookback: float = 1.0, max_lookback: float = 1024.0,
                   slab_length: float = 1.0) -> PerfectSample:
    """Draw one exact stationary sample by doubling the lookback on fixed noise.

    The noise of [-T, 0] (D(0) and the slabs the window reads) is identical
    across doublings, only older slabs are added, so the first coalesced
    bracket reads off the stationary state at 0. The draw is exact, with no
    truncation. Returns status NotCoalesced (with configuration None) once
    the lookback would exceed max_lookback. A model that is not monotone has
    no bracket and is refused (UnsupportedModelError) before any lookback.

    A lookback with -T after the birth of a point of D(0) that dies after 0
    (by engine._death_time, as in the pass) is decided as not coalesced and
    its pass is not run: the upper path holds that point from -T to 0, and
    the lower path, started empty, never does. So the schedule and the draw
    are those of running every pass.
    """
    if model.monotone not in ("nonincreasing", "nondecreasing", "constant"):
        raise UnsupportedModelError(f"perfect_sample needs a monotone rate model; "
                                    f"{type(model).__name__} is {model.monotone}")
    stream = NoiseStream.for_model(model, space, master_seed, slab_length)
    delta0 = model.death.rate
    present = stream.present_points(delta0)
    oldest = min((row[0] for row in present if engine._death_time(row[0], row[1], delta0) > 0.0),
                 default=math.inf)
    lookback = max(initial_lookback, slab_length)
    tried = passes = proposals = merged = slabs = 0
    while lookback <= max_lookback * (1 + 1e-12):
        tried += 1
        start = _window_start(lookback, stream.slab_length)
        if oldest < start:
            lookback = -start * 2
            continue
        state = sandwich_run(model, space, lookback, stream)
        passes += 1
        proposals += state.proposals
        merged += state.merged
        slabs = state.slabs
        if state.coalesced:
            # a copy without the pass's indexes; its rows, like every
            # state's, are in the order the live ids were born
            draw = state.lower.copy()
            return PerfectSample(configuration=draw, lookback_used=state.lookback,
                                 status="Coalesced", lookbacks_tried=tried, passes=passes,
                                 proposals=proposals, merged=merged, slabs_read=slabs)
        lookback = state.lookback * 2
    return PerfectSample(configuration=None, lookback_used=lookback / 2 if tried else 0.0,
                         status="NotCoalesced", lookbacks_tried=tried, passes=passes,
                         proposals=proposals, merged=merged, slabs_read=slabs)


# ---------------------------------------------------------------------------
# extremal stationary approximations (attractive models)
# ---------------------------------------------------------------------------

def _require_attractive(model: RateModel, what: str) -> None:
    if model.monotone not in ("nondecreasing", "constant"):
        raise UnsupportedModelError(
            f"{what} needs an attractive (nondecreasing) rate model; "
            f"this model is {model.monotone}")


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
    hs = [-_window_start(h, slab_length) for h in horizons]
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


def coupling_decay_curve(model: RateModel, space: SpaceSpec, eta0: Configuration,
                         horizon: float, replicates: int, master_seed: int,
                         times=None, slab_length: float = 1.0) -> CouplingDecay:
    """Decay of the distance between a run started from eta0 and a coupled
    run started empty, both reading the replicate's proposal stream.

    The distance at time t is sup_x of the sum over the symmetric difference
    of a(x, y), estimated on an anchor grid; for models whose increment
    kernel vanishes identically the raw symmetric-difference count is used.
    The fitted rate is a least-squares slope of log mean distance, weighted
    toward the better-resolved early part of the curve.
    """
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
        stream = NoiseStream.for_model(model, space, seed, slab_length)
        t_low, t_up = engine.coupled_simulate(model, space, Configuration(),
                                              initial_clocks(eta0, seed), horizon, stream)
        for i, (c1, c2) in enumerate(zip(engine.snapshots(t_low, times),
                                         engine.snapshots(t_up, times))):
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
