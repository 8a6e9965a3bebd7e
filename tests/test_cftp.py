import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sbdsim import cftp, engine, geometry, noise
from sbdsim.analysis import chi_square_gof
from sbdsim.cftp import (
    _window_slabs,
    coupling_decay_curve,
    dominating_window,
    extremal_lookback_counts,
    funnel_violations,
    perfect_sample,
    sandwich_run,
)
from sbdsim.geometry import (
    Configuration,
    NeighbourGrid,
    SimulationConfigError,
    SpaceSpec,
    TimedConfiguration,
)
from sbdsim.models import (
    AreaInteractionRate,
    CellOccupancyRate,
    ConstantDeath,
    ConstantRate,
    NearestNeighborRate,
    PairwiseRate,
    RateModel,
    UnsupportedModelError,
    sandwich_rates,
)
from sbdsim.noise import NoiseStream, replicate_seed
from test_noise import Columns, columns

SPACE = SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.0)
SPACE2 = SpaceSpec(dimension=2, lengths=(2.0, 0.5), intensity=3.0)
SEED = 31415926


# ---------------------------------------------------------------------------
# the dominating process on a window
# ---------------------------------------------------------------------------

def rows(proposals):
    """(id, x, s, r, u) of every proposal, in order, with x an array."""
    return [(pid, np.array(x, dtype=float), s, r, u) for s, r, u, pid, *x in proposals]


def entries(state):
    """(id, TimedPoint) of every point of state, in insertion order."""
    return [(pid, state.entry(pid)) for pid in state.ids()]


def window_key(state, proposals):
    """Every bit of a window: D at its start and its proposals, in order."""
    return (sorted((pid, e.coords.tobytes(), e.clock, e.birth_time) for pid, e in entries(state)),
            [(pid, x.tobytes(), s, r, u) for pid, x, s, r, u in rows(proposals)])


def reference_dominating_window(stream, start_time, death_rate):
    """dominating_window as one numpy join: the columns of the window's slabs
    and D(0) concatenated, the slab atoms' birth times s - r / delta, two
    masks, D(-T) by an argsort of its ids and the proposals' columns by a
    stable argsort of their birth times."""
    d = stream.space.dimension
    present = columns(stream.present_points(death_rate), d)
    parts = [columns(stream.slab_points(k), d) for k in _window_slabs(stream, start_time)]
    points = Columns(*(np.concatenate(cols) for cols in zip(*parts, present)))
    n = len(points.s) - len(present.s)
    b = points.s.copy()
    b[:n] -= points.r[:n] / death_rate
    x, r, u, ids = points.x, points.r, points.u, points.ids
    dies = engine._death_time(b, r, death_rate)
    alive = np.flatnonzero((b < start_time) & (dies > start_time))
    alive = alive[ids[alive].argsort()]
    born = np.flatnonzero((b >= start_time) & (b < 0.0))
    born = born[b[born].argsort(kind="stable")]
    return (Configuration.from_columns(ids[alive], x[alive], r[alive], b[alive]),
            Columns(b[born], x[born], r[born], u[born], ids[born]))


def window_bits(state, proposals):
    """Every bit of a window in order: D's rows, then each column of the
    proposals (a Columns) with its dtype and shape."""
    return ([(pid, [v.hex() for v in p], mark.hex(), born.hex())
             for pid, (p, mark, born) in state.rows()],
            [(col.dtype.str, col.shape, col.tobytes()) for col in
             (proposals.s, proposals.x, proposals.r, proposals.u)],
            proposals.ids.dtype, proposals.ids.tolist())


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), boundary=st.sampled_from(["periodic", "free"]),
       slab=st.sampled_from([0.5, 1.0, 2.0]), delta0=st.sampled_from([1.0, 0.45, 1.7]),
       envelope=st.sampled_from([0.0, 0.3, 2.0, 9.0]), whole=st.integers(0, 6),
       part=st.sampled_from([0.0, 1e-9, 0.3, 0.999]), seed=st.integers(0, 2**63))
def test_dominating_window_matches_the_numpy_join(dim, boundary, slab, delta0, envelope,
                                                  whole, part, seed):
    # starts on slab edges and inside slabs; an envelope of 0 and a start
    # just below 0 give windows without proposals
    start = -(whole + part) * slab
    if start == 0:
        start = -slab
    space = SpaceSpec(dimension=dim, lengths=(1.0, 0.6, 2.0)[:dim], boundary=boundary)
    state, proposals = dominating_window(NoiseStream(seed, space, envelope, slab), start, delta0)
    want = reference_dominating_window(NoiseStream(seed, space, envelope, slab), start, delta0)
    assert window_bits(state, columns(proposals, dim)) == window_bits(*want)
    assert all(len(row) == 4 + dim for row in proposals)


def test_a_lookback_makes_as_many_numpy_calls_for_few_atoms_as_for_many(monkeypatch):
    # the join reads the rows of each slab as they are, so a lookback whose
    # slabs are already made makes no numpy call, whatever the number of atoms
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(np, name)

    counts = {}
    for envelope in (1.5, 6.0, 60.0):
        stream = NoiseStream(SEED, SPACE2, envelope)
        dominating_window(stream, -8.0, 1.3)
        for module in (cftp, engine, geometry, noise):
            monkeypatch.setattr(module, "np", CountingNumpy())
        del calls[:]
        state, proposals = dominating_window(stream, -8.0, 1.3)
        monkeypatch.undo()
        assert len(proposals) > 0
        counts[len(state) + len(proposals)] = len(calls)
    assert max(counts) > 20 * min(counts)
    assert set(counts.values()) == {0}


def test_dominating_window_deterministic_and_alive():
    # a window is a pure function of the seed; its state holds points born
    # before the start and alive after it, its proposals the births in
    # [start, 0), in birth order
    for delta0 in (1.0, 1.7):
        a = dominating_window(NoiseStream(SEED, SPACE, envelope_total=5.0), -3.0, delta0)
        b = dominating_window(NoiseStream(SEED, SPACE, envelope_total=5.0), -3.0, delta0)
        assert window_key(*a) == window_key(*b)
        state, proposals = a
        assert len(state) > 0 and len(proposals) > 0
        for _, e in entries(state):
            assert e.clock > 0 and e.birth_time < -3.0
            assert engine._death_time(e.birth_time, e.clock, delta0) > -3.0
        births = [row[0] for row in proposals]
        assert births == sorted(births) and -3.0 <= births[0] and births[-1] < 0.0
        assert all(row[1] > 0 for row in proposals)


@pytest.mark.parametrize("T", [1.0, 4.0, 16.0])
def test_dominating_state_count_is_poisson(T):
    # D(-T) is the stationary state of the dominating process: a Poisson
    # count of mean envelope_total / delta, with Exp(delta) residual lives
    rate, delta0 = 5.0, 1.3
    counts, residuals = [], []
    for i in range(600):
        stream = NoiseStream(replicate_seed(SEED, i), SPACE, envelope_total=rate)
        state, _ = dominating_window(stream, -T, delta0)
        counts.append(len(state))
        residuals += [delta0 * (engine._death_time(e.birth_time, e.clock, delta0) + T)
                      for _, e in entries(state)]
    mean = rate / delta0
    probs = {k: float(stats.poisson.pmf(k, mean)) for k in range(40)}
    assert chi_square_gof(counts, probs).pvalue > 0.01
    assert stats.kstest(residuals, "expon").pvalue > 0.01


@pytest.mark.parametrize("slab", [1.0, 0.37])
@pytest.mark.parametrize("space", [SPACE, SPACE2], ids=["1d", "2d"])
def test_dominating_window_bit_identical_across_lookbacks(space, slab):
    # the D-points and proposals on [-T, 0] read from a deeper window equal
    # those of the window on [-T, 0] itself, bit for bit, for lookbacks 1, 2,
    # 4 and 8, whether the slabs come fresh or from a stream's cache
    delta0 = 1.7
    for i in range(10):
        seed = replicate_seed(SEED + 2, i)
        shared = NoiseStream(seed, space, envelope_total=6.0, slab_length=slab)
        windows = {}
        for T in (8.0, 4.0, 2.0, 1.0):
            start = -T * slab
            fresh = dominating_window(NoiseStream(seed, space, envelope_total=6.0,
                                                  slab_length=slab), start, delta0)
            windows[T] = dominating_window(shared, start, delta0)
            assert window_key(*fresh) == window_key(*windows[T])
        for T in (1.0, 2.0, 4.0):
            start = -T * slab
            for deep in (2 * T, 4 * T, 8 * T):
                if deep > 8:
                    continue
                state, proposals = windows[deep]
                # D at the shallower start, from the deeper window alone
                alive = [(pid, e.coords, e.clock, e.birth_time) for pid, e in entries(state)
                         if engine._death_time(e.birth_time, e.clock, delta0) > start]
                alive += [(pid, x, r, s) for pid, x, s, r, _ in rows(proposals) if s < start
                          and engine._death_time(s, r, delta0) > start]
                want_state = sorted((pid, x.tobytes(), r, b) for pid, x, r, b in alive)
                want_props = [(pid, x.tobytes(), s, r, u) for pid, x, s, r, u in rows(proposals)
                              if s >= start]
                assert window_key(*windows[T]) == (want_state, want_props)


def test_dominating_state_is_the_deeper_state_carried_forward():
    # D(-T) must be exactly D(-2T) carried forward plus every proposal of
    # [-2T, -T) that outlives -T: the dominating process is one fixed
    # realization, not resampled per window
    T = 3.0
    delta0 = 1.5
    for i in range(20):
        stream = NoiseStream(replicate_seed(SEED + 7, i), SPACE, envelope_total=6.0)
        deep, deep_props = dominating_window(stream, -2 * T, delta0)
        shallow, _ = dominating_window(stream, -T, delta0)
        expect = {}
        for pid, e in entries(deep):
            if engine._death_time(e.birth_time, e.clock, delta0) > -T:
                expect[pid] = (e.coords.tobytes(), e.clock, e.birth_time)
        for pid, x, s, r, _ in rows(deep_props):
            if s < -T and engine._death_time(s, r, delta0) > -T:
                expect[pid] = (x.tobytes(), r, s)
        assert {pid: (e.coords.tobytes(), e.clock, e.birth_time)
                for pid, e in entries(shallow)} == expect


class _ScanRecorder(NoiseStream):
    """NoiseStream that records which slabs were asked for."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.asked = []

    def slab_points(self, k):
        self.asked.append(k)
        return super().slab_points(k)


@pytest.mark.parametrize("rate,delta0,slab", [
    (5.0, 1.0, 1.0), (5.0, 1.7, 0.37), (40.0, 0.6, 1.0), (0.3, 2.5, 0.37), (12.0, 1.0, 2.5),
])
@pytest.mark.parametrize("boundary", [-3.0, -2.96, -7.4, -0.05])
def test_window_reads_no_slab_older_than_its_start(rate, delta0, slab, boundary):
    # a window reads each slab from the one below the slab holding its start
    # up to -1 once, and nothing older
    stream = _ScanRecorder(SEED, SPACE, envelope_total=rate, slab_length=slab)
    dominating_window(stream, boundary, delta0)
    oldest = math.floor(boundary / slab) - 1
    assert stream.asked == list(range(oldest, 0))


@pytest.mark.parametrize("rate,delta0,slab", [
    (5.0, 1.0, 1.0), (5.0, 1.7, 0.37), (40.0, 0.6, 1.0), (0.3, 2.5, 0.37), (12.0, 1.0, 2.5),
])
@pytest.mark.parametrize("boundary", [-3.0, -2.96, -7.4, -0.05])
def test_ancient_scan_leaves_only_the_tail_mass(rate, delta0, slab, boundary):
    # a scan of the slabs older than the window, back past the depth where
    # the stationary mass alive at the start falls below 1e-16 (and at least
    # 40 slabs), finds no point born after the start or alive at it: the
    # window leaves no tail mass at all
    stream = NoiseStream(SEED, SPACE, envelope_total=rate, slab_length=slab)
    dominating_window(stream, boundary, delta0)
    oldest = math.floor(boundary / slab) - 1
    tail = math.floor((boundary - math.log(1e16) / delta0) / slab) - 1
    for k in range(min(tail, oldest - 40), oldest):
        s = columns(stream.slab_points(k), 1)
        born = s.s - s.r / delta0
        assert np.all(born < boundary)
        assert np.all(engine._death_time(born, s.r, delta0) <= boundary)


# ---------------------------------------------------------------------------
# sandwich pass
# ---------------------------------------------------------------------------

def reference_sweep_bracket(model, space, lookback, stream):
    """Jacobi reference for the sandwich pass: re-decide every proposal in
    [-T, 0) against the pair replayed from the previous sweep's accept sets
    until no decision changes. Returns the fixed-point accept sets and the
    pair at 0."""
    delta0 = model.death.rate
    start = -math.ceil(lookback / stream.slab_length) * stream.slab_length
    ancient, proposals = dominating_window(stream, start, delta0)
    atoms = rows(proposals)

    def state(accept, from_ancient, alive):
        cfg = Configuration()
        if from_ancient:
            for pid in sorted(ancient.ids()):
                e = ancient.entry(pid)
                if alive(start, e.birth_time + e.clock / delta0):
                    cfg.add(pid, e.coords)
        for pid, x, s, r, _ in atoms:
            if pid in accept and alive(s, s + r / delta0):
                cfg.add(pid, x)
        return cfg

    low, up = frozenset(), frozenset(pid for pid, *_ in atoms)
    while True:
        new_low, new_up = set(), set()
        for pid, x, s, _, u in atoms:
            def before(born, dies, t=s):
                return born < t <= dies
            lam_low, lam_up = sandwich_rates(model, space, x, state(low, False, before),
                                             state(up, True, before))
            if u <= lam_low:
                new_low.add(pid)
            if u <= lam_up:
                new_up.add(pid)
        assert low <= new_low and new_up <= up  # the sweeps are monotone
        if new_low == low and new_up == up:
            break
        low, up = frozenset(new_low), frozenset(new_up)

    def at_zero(born, dies):
        return dies > 0.0
    return low, up, state(low, False, at_zero), state(up, True, at_zero)


# One model of each kind with a bracket, in 1-D: repulsive and attractive,
# distance-based and cell-based.
BRACKET_MODELS = [
    (PairwiseRate(theta=0.7, interaction_range=0.2), 5.0),
    (PairwiseRate(theta=0.5, interaction_range=0.05), 10.0),
    (AreaInteractionRate(rho=3.0, gamma=1.5, grain_radius=0.08), 2.0),
    (AreaInteractionRate(rho=3.0, gamma=0.6, grain_radius=0.08), 2.0),
    (CellOccupancyRate(cell_counts=(3,), theta=np.array(
        [[0.6, 0.3, 0.0], [0.3, 0.6, 0.3], [0.0, 0.3, 0.6]]), base_rate=1.0), 1.5),
    (NearestNeighborRate(breakpoints=(0.05, 0.1), values=(0.3, 0.7), value_at_infinity=1.0),
     4.0),
]
BRACKET_IDS = ["pairwise", "pairwise-short", "area-attractive", "area-repulsive", "cells",
               "nearest"]


def bracket_pass(model, space, lookback, stream):
    """sandwich_run's pass, with the births of both bracket paths collected
    by an observer (after the merge it reports path 0's decision twice)."""
    start = -math.ceil(lookback / stream.slab_length) * stream.slab_length
    ancient, proposals = dominating_window(stream, start, model.death.rate)
    births = [set(), set()]

    def observe(s, pid, lams, accepted, states):
        for path_births, acc in zip(births, accepted):
            if acc:
                path_births.add(pid)

    run = engine.run_paths(model, space, [TimedConfiguration(), ancient], -start, proposals,
                           start, observe=observe, bracket=True)
    return births, run


@pytest.mark.parametrize("model,intensity", BRACKET_MODELS, ids=BRACKET_IDS)
def test_sandwich_pass_equals_sweep_fixed_point(model, intensity):
    # one time-ordered pass must reach the fixed point of the Jacobi sweeps:
    # the same births on both bracket paths and the same pair at 0, also
    # after the pair has merged and runs as one path
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=intensity)
    merged = 0
    for i in range(6):
        stream = NoiseStream.for_model(model, space, replicate_seed(SEED, i))
        for lookback in (1.0, 4.0):
            low, up, low0, up0 = reference_sweep_bracket(model, space, lookback, stream)
            births, run = bracket_pass(model, space, lookback, stream)
            assert births == [low, up]
            assert run.finals == [low0, up0]
            state = sandwich_run(model, space, lookback, stream)
            assert state.lower == low0 and state.upper == up0
            assert state.coalesced == (low0 == up0)
            assert (state.proposals, state.merged) == (run.proposals, run.merged)
            merged += state.merged
    assert merged > 0  # the merge happened, so the comparison covers it


def two_path_bracket(model, space, lookback, stream):
    """The bracket run as two logged paths to the end, never merged: the
    reference the merged pass must reproduce."""
    delta0 = model.death.rate
    start = -math.ceil(lookback / stream.slab_length) * stream.slab_length
    ancient, proposals = dominating_window(stream, start, delta0)
    initials = [TimedConfiguration(), ancient]
    paths = [engine._Path(initial.copy(), start, delta0, True) for initial in initials]
    states = [path.live for path in paths]
    for pid, x, s, r, u in rows(proposals):
        for path in paths:
            path.flush_deaths(s, inclusive=False)
        lams = engine._sandwich_rates(model, space, x, *states)
        accepted = [u <= lam for lam in lams]
        engine._contained(s, pid, lams, accepted, states)
        for path, acc in zip(paths, accepted):
            if acc:
                path.birth(pid, x, s, r, delta0)
    for path in paths:
        path.flush_deaths(0.0, inclusive=True)
    return engine.PathRun(initials=initials, start_time=start, horizon=-start,
                          death_rate=delta0, paths=paths, proposals=len(proposals),
                          merged=0).trajectories()


@pytest.mark.parametrize("model,intensity", BRACKET_MODELS, ids=BRACKET_IDS)
def test_merged_pass_keeps_the_two_path_trajectories(model, intensity):
    # running a merged pair as one path must change nothing a caller can read:
    # the births of both paths and the pair at 0, in run_paths and sandwich_run
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=intensity)
    merged = 0
    for i in range(8):
        stream = NoiseStream.for_model(model, space, replicate_seed(SEED + 3, i))
        for lookback in (1.0, 4.0):
            low, up = two_path_bracket(model, space, lookback, stream)
            births, run = bracket_pass(model, space, lookback, stream)
            state = sandwich_run(model, space, lookback, stream)
            assert births == [{ev.point_id for ev in path.events if ev.kind == "birth"}
                              for path in (low, up)]
            assert run.finals == [low.final, up.final]
            assert state.lower == low.final
            assert state.upper == up.final
            assert state.coalesced == (low.final == up.final)
            assert (state.proposals, state.merged) == (run.proposals, run.merged)
            assert state.proposals == len(
                dominating_window(stream, -state.lookback, model.death.rate)[1])
            merged += state.merged
    assert merged > 0  # the merge happened, so the comparison covers it


def test_merged_pass_scans_one_grid_per_proposal(monkeypatch):
    # before the merge every proposal costs one bracket rule, which reads both
    # rates from one scan of the upper state's neighbour grid; after it, one
    # birth-rate call, one scan and no rule
    model = PairwiseRate(theta=0.7, interaction_range=0.2)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=5.0)
    calls = {"rule": 0, "scan": 0}
    rule, scan = engine._sandwich_rates, NeighbourGrid.near

    def counted_rule(*args):
        calls["rule"] += 1
        return rule(*args)

    def counted_scan(self, x):
        calls["scan"] += 1
        return scan(self, x)

    monkeypatch.setattr(engine, "_sandwich_rates", counted_rule)
    monkeypatch.setattr(NeighbourGrid, "near", counted_scan)
    merged = split = 0
    for i in range(10):
        stream = NoiseStream.for_model(model, space, replicate_seed(SEED + 5, i))
        calls.update(rule=0, scan=0)
        state = sandwich_run(model, space, 4.0, stream)
        assert state.proposals == len(dominating_window(stream, -4.0, 1.0)[1])
        assert 0 <= state.merged <= state.proposals
        assert calls["scan"] == state.proposals
        assert calls["rule"] == state.proposals - state.merged
        merged += state.merged
        split += calls["rule"]
    assert merged > 0 and split > 0

    # a draw reports the totals over the passes it ran, its last lookbacks:
    # the ones it skipped come first in the doubling
    res = perfect_sample(model, space, SEED)
    assert 1 <= res.passes <= res.lookbacks_tried
    stream = NoiseStream.for_model(model, space, SEED)
    states = [sandwich_run(model, space, 2.0 ** j, stream)
              for j in range(res.lookbacks_tried - res.passes, res.lookbacks_tried)]
    assert res.proposals == sum(s.proposals for s in states)
    assert res.merged == sum(s.merged for s in states)
    assert res.slabs_read == states[-1].slabs == states[-1].lookback + 1


def test_sandwich_rounds_lookback_to_whole_slabs():
    model = ConstantRate(rate=2.0)
    stream = NoiseStream.for_model(model, SPACE, SEED, slab_length=1.0)
    state = sandwich_run(model, SPACE, 2.3, stream)
    assert state.lookback == 3.0
    with pytest.raises(SimulationConfigError):
        sandwich_run(model, SPACE, 0.0, stream)
    with pytest.raises(SimulationConfigError):
        funnel_violations(model, SPACE, 0.0, stream)


@pytest.mark.parametrize("model", [
    ConstantRate(rate=4.0),
    PairwiseRate(theta=0.7, interaction_range=0.2),
    AreaInteractionRate(rho=3.0, gamma=1.5, grain_radius=0.08),
], ids=lambda m: type(m).__name__)
def test_funnel_every_intermediate_path_stays_bracketed(model):
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=2.0)
    stream = NoiseStream.for_model(model, space, SEED + 11)
    assert funnel_violations(model, space, 5.0, stream, n_intermediate=6) == 0


def test_bracket_rule_with_crossed_rates_raises(monkeypatch):
    # a bracket rule that lets the lower path accept where the upper path
    # rejects must stop the pass, in the sandwich run and in the funnel check
    model = PairwiseRate(theta=0.7, interaction_range=0.2)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=2.0)
    stream = NoiseStream.for_model(model, space, SEED + 11)
    # the pair starts apart, so the pass begins on the bracket rule
    assert len(dominating_window(stream, -5.0, model.death.rate)[0]) > 0

    def crossed(model, space, x, eta_low, eta_up):
        return 1.0, 0.0

    monkeypatch.setattr(engine, "_sandwich_rates", crossed)
    with pytest.raises(RuntimeError, match="containment violated"):
        sandwich_run(model, space, 5.0, stream)
    with pytest.raises(RuntimeError, match="containment violated"):
        funnel_violations(model, space, 5.0, stream)


# ---------------------------------------------------------------------------
# perfect sampler
# ---------------------------------------------------------------------------

def test_perfect_sample_reports_coalescence():
    model = PairwiseRate(theta=0.5, interaction_range=0.2)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=3.0)
    res = perfect_sample(model, space, SEED)
    assert res.status == "Coalesced"
    assert res.lookbacks_tried >= 1
    assert res.count == len(res.configuration)
    redo = perfect_sample(model, space, SEED)
    assert redo.configuration == res.configuration


def test_perfect_sample_gives_up_at_max_lookback():
    model = ConstantRate(rate=80.0)
    res = perfect_sample(model, SPACE, SEED, max_lookback=2.0)
    assert res.status == "NotCoalesced"
    assert res.configuration is None and res.count is None
    assert res.lookbacks_tried == 2


def reference_perfect_sample(model, space, master_seed, max_lookback=1024.0):
    """perfect_sample's doubling loop as it runs the pass of every lookback:
    (draw, lookback used, status, the SandwichState of every lookback)."""
    stream = NoiseStream.for_model(model, space, master_seed)
    lookback, states = 1.0, []
    while lookback <= max_lookback * (1 + 1e-12):
        states.append(sandwich_run(model, space, lookback, stream))
        if states[-1].coalesced:
            return states[-1].lower.copy(), states[-1].lookback, "Coalesced", states
        lookback = states[-1].lookback * 2
    return None, lookback / 2 if states else 0.0, "NotCoalesced", states


def draw_rows(configuration):
    """Every bit of a draw: (id, (coordinates, mark, birth time)) in row order."""
    return None if configuration is None else list(configuration.rows())


REFERENCE_MODELS = [(ConstantRate(rate=5.0), 1.0, SPACE)] + [
    (model, 1.0, SpaceSpec(dimension=1, lengths=(1.0,), intensity=intensity))
    for model, intensity in BRACKET_MODELS] + [
    (PairwiseRate(theta=0.5, interaction_range=0.2), 2.0, SPACE2)]


@pytest.mark.parametrize("model,max_short,space", REFERENCE_MODELS,
                         ids=["constant"] + BRACKET_IDS + ["pairwise-2d"])
def test_perfect_sample_matches_running_every_pass(model, max_short, space):
    # a draw that skips the lookbacks an old point of D(0) rules out is the
    # draw of the loop that runs them all, bit for bit, and every lookback it
    # skipped is one whose pass does not coalesce
    skipped = 0
    for i in range(12):
        seed = replicate_seed(SEED + 19, i)
        for max_lookback in (max_short, 1024.0):
            res = perfect_sample(model, space, seed, max_lookback=max_lookback)
            draw, used, status, states = reference_perfect_sample(model, space, seed,
                                                                  max_lookback)
            assert draw_rows(res.configuration) == draw_rows(draw)
            assert (res.lookback_used, res.status, res.lookbacks_tried) == (
                used, status, len(states))
            cut = len(states) - res.passes
            assert cut >= 0 and not any(state.coalesced for state in states[:cut])
            ran = states[cut:]
            assert res.proposals == sum(state.proposals for state in ran)
            assert res.merged == sum(state.merged for state in ran)
            assert res.slabs_read == (ran[-1].slabs if ran else 0)
            skipped += cut
    assert skipped > 0


def test_perfect_sample_refuses_a_model_without_a_bracket(monkeypatch):
    # a model that is not monotone has no bracket: it is refused before any
    # lookback, also when D(0) alone would rule out every lookback
    class Unordered(RateModel):  # monotone stays "none"
        death = ConstantDeath()

        def birth_rate(self, space, x, eta):
            return 5.0

        def envelope_sup(self, space):
            return 5.0

    seed = next(replicate_seed(SEED, i) for i in range(50)
                if min((row[0] for row in NoiseStream.for_model(
                    Unordered(), SPACE, replicate_seed(SEED, i)).present_points(1.0)),
                       default=0.0) < -2.0)
    ruled_out = perfect_sample(ConstantRate(rate=5.0), SPACE, seed, max_lookback=2.0)
    assert (ruled_out.lookbacks_tried, ruled_out.passes) == (2, 0)
    assert ruled_out.slabs_read == 0

    def no_lookback(*args):
        raise AssertionError("a lookback was decided")

    monkeypatch.setattr(cftp, "_window_start", no_lookback)
    monkeypatch.setattr(cftp, "sandwich_run", no_lookback)
    with pytest.raises(UnsupportedModelError, match="monotone"):
        perfect_sample(Unordered(), SPACE, seed, max_lookback=2.0)


def test_constant_model_lookback_follows_the_exact_law():
    # for the constant model a pass on [-T, 0] coalesces exactly when no point
    # of D(0) was born before -T, and D(0) holds a Poisson number of mean
    # (Lambda / delta) e^{-delta a} of points older than a, so every draw runs
    # one pass and P(lookback > T) = 1 - exp(-(Lambda / delta) e^{-delta T})
    delta, mass = 2.0, 10.0
    model = ConstantRate(rate=mass, death=ConstantDeath(rate=delta))
    draws = [perfect_sample(model, SPACE, replicate_seed(SEED + 16, i)) for i in range(2000)]
    assert all(res.status == "Coalesced" and res.passes == 1 for res in draws)

    def tail(t):
        return -math.expm1(-(mass / delta) * math.exp(-delta * t))

    bins = [2.0 ** k for k in range(8)]
    probs = {1.0: 1.0 - tail(1.0), **{t: tail(t / 2) - tail(t) for t in bins[1:]}}
    assert chi_square_gof([res.lookback_used for res in draws], probs).pvalue > 0.01


def test_perfect_sample_exactly_invariant_to_initial_lookback():
    # with the dominating state realized from the same fixed noise, starting
    # the doubling at a deeper window changes nothing at all: the draw is a
    # function of the seed alone
    model = PairwiseRate(theta=0.6, interaction_range=0.2)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=3.0)
    for i in range(40):
        seed = replicate_seed(SEED, i)
        a = perfect_sample(model, space, seed, initial_lookback=1.0)
        b = perfect_sample(model, space, seed, initial_lookback=4.0)
        assert a.configuration == b.configuration


def test_perfect_sample_constant_model_draws_poisson():
    model = ConstantRate(rate=5.0)
    counts = [perfect_sample(model, SPACE, replicate_seed(SEED, i)).count
              for i in range(600)]
    probs = {k: float(stats.poisson.pmf(k, 5.0)) for k in range(30)}
    res = chi_square_gof(counts, probs)
    assert res.pvalue > 0.01


def test_noise_is_shared_across_doublings():
    # atoms of the shorter window reappear verbatim inside the longer one
    model = PairwiseRate(theta=0.5, interaction_range=0.2)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=4.0)
    stream = NoiseStream.for_model(model, space, SEED)
    short = dominating_window(stream, -2.0, model.death.rate)[1]
    long = dominating_window(stream, -4.0, model.death.rate)[1]
    assert short == tuple(row for row in long if row[0] >= -2.0)
    assert stream.slab_hash(-1) == NoiseStream.for_model(model, space, SEED).slab_hash(-1)


# ---------------------------------------------------------------------------
# extremal approximations (attractive only)
# ---------------------------------------------------------------------------

def test_extremal_samplers_reject_repulsive_models():
    model = PairwiseRate(theta=0.5, interaction_range=0.2)
    with pytest.raises(UnsupportedModelError):
        extremal_lookback_counts(model, SPACE, [1.0], 2, SEED)


@pytest.mark.parametrize("horizons", [[0.0], [2.0, -3.0]])
def test_extremal_counts_reject_a_horizon_at_or_below_zero(horizons):
    # rounded like a sandwich lookback, which must be > 0
    model = ConstantRate(rate=1.0)
    with pytest.raises(SimulationConfigError):
        extremal_lookback_counts(model, SPACE, horizons, 2, SEED)
    hs, _, _ = extremal_lookback_counts(model, SPACE, [0.3, 2.0, 2.5], 1, SEED, slab_length=0.5)
    assert hs.tolist() == [0.5, 2.0, 2.5]


def test_extremal_counts_squeeze_monotonically():
    model = AreaInteractionRate(rho=2.0, gamma=1.6, grain_radius=0.06)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=2.0)
    hs, mins, maxs = extremal_lookback_counts(model, space, [1.0, 2.0, 4.0, 8.0],
                                              replicates=25, master_seed=SEED)
    assert list(hs) == [1.0, 2.0, 4.0, 8.0]
    # pathwise: on fixed noise a deeper start only adds points to the minimal
    # run and only removes points from the maximal one
    assert np.all(np.diff(mins, axis=1) >= 0)
    assert np.all(np.diff(maxs, axis=1) <= 0)
    assert np.all(mins <= maxs)
    gap = maxs[:, -1] - mins[:, -1]
    assert gap.mean() < 1.0  # nearly squeezed at depth 8


# ---------------------------------------------------------------------------
# coupling decay
# ---------------------------------------------------------------------------

def test_coupling_decay_constant_model_rate_is_death_rate():
    model = ConstantRate(rate=4.0)
    extra = Configuration.from_points(np.linspace(0.05, 0.95, 10)[:, None])
    decay = coupling_decay_curve(model, SPACE, extra,
                                 horizon=5.0, replicates=200, master_seed=SEED)
    assert not decay.kernel_weighted  # constant rates have a zero kernel
    assert decay.mean_mass[0] == pytest.approx(10.0)
    assert abs(decay.fitted_rate + 1.0) < 0.15


def test_coupling_decay_kernel_weighted_for_interacting_models():
    model = PairwiseRate(theta=0.5, interaction_range=0.2)
    extra = Configuration.from_points(np.linspace(0.1, 0.9, 5)[:, None])
    decay = coupling_decay_curve(model, SPACE, extra,
                                 horizon=3.0, replicates=50, master_seed=SEED)
    assert decay.kernel_weighted
    assert decay.mean_mass[0] > 0
    assert decay.fitted_rate < 0


def test_coupling_decay_is_the_same_in_every_process():
    # the kernel is summed over the symmetric difference in its rows' order,
    # which must not follow the process's string-hash seed
    code = ("from sbdsim.cftp import coupling_decay_curve\n"
            "from sbdsim.geometry import SpaceSpec\n"
            "from sbdsim.models import AreaInteractionRate\n"
            "from sbdsim.noise import poisson_configuration\n"
            "space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=20.0)\n"
            "model = AreaInteractionRate(rho=1.0, gamma=0.5, grain_radius=0.05)\n"
            "eta0 = poisson_configuration(space, 20.0, 3)\n"
            "decay = coupling_decay_curve(model, space, eta0, 2.0, 4, 11)\n"
            "print(decay.kernel_weighted, decay.mean_mass.tobytes().hex())\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
             for seed in ("1", "2")]
    outs = [proc.communicate(timeout=120)[0].split() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs[0][0] == "True" and outs[0] == outs[1]


# ---------------------------------------------------------------------------
# bracket validity against brute force
# ---------------------------------------------------------------------------

def test_coalesced_state_equals_forward_run_from_deep_past():
    # once coalesced at lookback T, the state at 0 equals a plain forward run
    # on the same proposals started from the dominating state at -T, or from
    # the empty state, at -T or at any deeper start
    model = PairwiseRate(theta=0.6, interaction_range=0.15)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=3.0)
    for i in range(25):
        seed = replicate_seed(SEED + 1, i)
        res = perfect_sample(model, space, seed)
        assert res.status == "Coalesced"
        stream = NoiseStream.for_model(model, space, seed)
        for T in (res.lookback_used, 4 * res.lookback_used):
            anc, proposals = dominating_window(stream, -T, model.death.rate)
            for initial in (anc, TimedConfiguration()):
                run = engine.run_paths(model, space, [initial], T, proposals, -T)
                assert run.finals[0] == res.configuration


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
