import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from sbdsim import models
from sbdsim.geometry import Configuration, SimulationConfigError, SpaceSpec
from sbdsim.models import (
    AreaInteractionRate,
    CellOccupancyRate,
    ConstantDeath,
    ConstantRate,
    GrainOverlap,
    NearestNeighborRate,
    PairwiseRate,
    RateModel,
    UnsupportedModelError,
    contraction_constant,
    death_from_config,
    detailed_balance_residual,
    envelope_total,
    model_from_config,
    sandwich_rates,
)

SPACE = SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.0)
SPACE2 = SpaceSpec(dimension=2, lengths=(1.0, 1.0), intensity=1.0)

# analytic contraction constant for the pairwise model below:
# the increment kernel is (1 - e^{-theta}) on a ball of radius R, so the
# integral against a unit-intensity line measure is 2R(1 - e^{-theta}).
PAIR_THETA = 0.5
PAIR_RANGE = 0.2
PAIR_M = 0.15738773611494664


def cfg(*pts):
    return Configuration.from_points(np.array([[p] for p in pts]))


# ---------------------------------------------------------------------------
# death models
# ---------------------------------------------------------------------------

def test_death_rates():
    assert ConstantDeath().rate == 1.0
    assert death_from_config({"type": "unit"}) == death_from_config(None) == ConstantDeath()
    assert PairwiseRate(theta=0.5, interaction_range=0.2).death == ConstantDeath()
    assert ConstantDeath(2.5).rate == 2.5
    with pytest.raises(SimulationConfigError):
        ConstantDeath(0.0)


# ---------------------------------------------------------------------------
# constant and pairwise rates
# ---------------------------------------------------------------------------

def test_constant_rate():
    m = ConstantRate(rate=3.0)
    assert m.birth_rate(SPACE, np.array([0.1]), Configuration()) == 3.0
    assert m.birth_rate(SPACE, np.array([0.1]), cfg(0.1, 0.2, 0.3)) == 3.0
    assert m.envelope_sup(SPACE) == 3.0
    assert envelope_total(m, SPACE) == 3.0
    assert np.all(m.increment_kernel(SPACE, np.array([0.5]), np.array([[0.1]])) == 0.0)


def test_pairwise_neighbor_counting():
    m = PairwiseRate(theta=PAIR_THETA, interaction_range=PAIR_RANGE)
    # neighbors of 0.5 within 0.2: 0.35 and 0.65 but not 0.9 (torus distance 0.4)
    eta = cfg(0.35, 0.65, 0.9)
    assert m.birth_rate(SPACE, np.array([0.5]), eta) == pytest.approx(math.exp(-1.0))
    assert m.birth_rate(SPACE, np.array([0.5]), Configuration()) == 1.0
    # wraparound neighbor
    assert m.birth_rate(SPACE, np.array([0.05]), cfg(0.9)) == pytest.approx(
        math.exp(-PAIR_THETA))


def test_pairwise_energy_counts_pairs():
    m = PairwiseRate(theta=0.5, interaction_range=0.2)
    # pairs within 0.2: (0.1, 0.25), (0.25, 0.4); (0.1, 0.4) is at exactly 0.3
    assert m.energy(SPACE, cfg(0.1, 0.25, 0.4)) == pytest.approx(1.0)
    assert m.energy(SPACE, Configuration()) == 0.0


def test_pairwise_validation():
    with pytest.raises(SimulationConfigError):
        PairwiseRate(theta=-0.1, interaction_range=0.2)
    with pytest.raises(SimulationConfigError):
        PairwiseRate(theta=0.5, interaction_range=0.0)


# ---------------------------------------------------------------------------
# grain overlap helper
# ---------------------------------------------------------------------------

def test_exact_interval_overlap():
    ov = GrainOverlap(SPACE, radius=0.1)
    assert ov.ball_volume == pytest.approx(0.2)
    assert ov.error_bound() == 0.0
    pts = np.array([[0.3]])
    assert ov.exposed_volume(np.array([0.45]), pts) == pytest.approx(0.15)
    assert ov.overlap_volumes(np.array([0.45]), pts)[0] == pytest.approx(0.05)
    # disjoint grains and identical grains
    assert ov.exposed_volume(np.array([0.8]), pts) == pytest.approx(0.2)
    assert ov.exposed_volume(np.array([0.3]), pts) == pytest.approx(0.0)
    # two-interval union with partial overlap, worked by hand
    assert ov.union_volume(np.array([[0.3], [0.45]])) == pytest.approx(0.35)
    assert ov.union_volume(np.empty((0, 1))) == 0.0


def test_exact_overlap_wraps_torus():
    ov = GrainOverlap(SPACE, radius=0.1)
    # grain at 0.95 covers [0.85, 1.05) which wraps into [0, 0.05)
    assert ov.exposed_volume(np.array([0.02]), np.array([[0.95]])) == \
        pytest.approx(0.2 - 0.13, abs=1e-12)


@pytest.mark.parametrize("dimension", [2, 3])
def test_qmc_exposed_volume_against_the_exact_lens(dimension):
    # one neighbour at distance rho < 2r leaves B - B I_{1 - (rho/2r)^2}((d+1)/2, 1/2)
    # of the grain exposed; the QMC nodes must be within error_bound() of it,
    # also across the periodic boundary
    space = SpaceSpec(dimension=dimension, lengths=(1.0,) * dimension)
    ov = GrainOverlap(space, radius=0.1)
    assert ov.error_bound() > 0
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.uniform(0, 1, size=dimension)
        u = rng.normal(size=dimension)
        rho = rng.uniform(0, 0.2)
        y = (x + rho * u / np.linalg.norm(u)) % 1.0
        lens = ov.ball_volume * betainc((dimension + 1) / 2, 0.5, 1.0 - (rho / 0.2) ** 2)
        assert abs(ov.exposed_volume(x, [y]) - (ov.ball_volume - lens)) <= ov.error_bound()


def broadcast_squared_distances(ov, x, pts):
    """The (nodes, len(pts)) squared node distances by the one broadcast
    over a (nodes, len(pts), d) array that GrainOverlap used to build."""
    diff = np.abs(ov._nodes[:, None, :] - ov._signed_deltas(x, pts)[None, :, :])
    if ov.space.periodic:
        L = ov.space.lengths_array()
        diff = np.minimum(diff, L - diff)
    return np.sum(diff ** 2, axis=2)


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([2, 3]), boundary=st.sampled_from(["periodic", "free"]),
       data=st.data())
def test_column_at_a_time_coverage_equals_the_broadcast_formula(dim, boundary, data):
    # every squared distance bit for bit, so the volumes compare the same
    # floats with r * r as the broadcast did
    lengths = tuple(data.draw(st.sampled_from([1.0, 0.7, 2.5])) for _ in range(dim))
    space = SpaceSpec(dimension=dim, lengths=lengths, boundary=boundary)
    radius = min(lengths) * data.draw(st.sampled_from([0.01, 0.1, 0.3, 0.45]))
    ov = GrainOverlap(space, radius, resolution=data.draw(st.sampled_from([256, 2048])))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    x = np.array([data.draw(unit) * L for L in lengths])
    if not space.periodic:
        x = np.minimum(x, space.lengths_array())
    pts = []
    for _ in range(data.draw(st.integers(1, 12))):
        far = data.draw(st.booleans())
        p = [data.draw(unit) * L if far else v + (2 * data.draw(unit) - 1) * 2 * radius
             for v, L in zip(x, lengths)]
        pts.append([v % L if space.periodic else min(max(v, 0.0), L)
                    for v, L in zip(p, lengths)])
    pts = np.array(pts)

    want = broadcast_squared_distances(ov, x, pts)
    got = np.stack([acc.copy() for acc in ov._squared_distances(x, pts)], axis=1)
    assert np.array_equal(got, want)
    covered = want <= radius * radius
    n = len(ov._nodes)
    assert ov.exposed_volume(x, pts) == ov.ball_volume * float(
        np.count_nonzero(~np.any(covered, axis=1))) / n
    assert np.array_equal(ov.overlap_volumes(x, pts),
                          ov.ball_volume * np.count_nonzero(covered, axis=0) / n)


def test_overlap_rejects_grain_wider_than_period():
    with pytest.raises(SimulationConfigError):
        GrainOverlap(SpaceSpec(dimension=1, lengths=(0.5,)), radius=0.3)
    with pytest.raises(SimulationConfigError):
        GrainOverlap(SpaceSpec(dimension=2, lengths=(1.0, 0.5)), radius=0.3)


def test_every_grain_entry_checks_the_space_once(monkeypatch):
    # a window the grain does not fit is refused at construction and at every
    # model entry; repeated queries on one window build, and so check, one
    # integrator in total
    narrow = SpaceSpec(dimension=1, lengths=(0.5,))
    m = AreaInteractionRate(rho=2.0, gamma=1.5, grain_radius=0.3)
    x, pts, eta = np.array([0.1]), np.array([[0.2]]), cfg(0.2)
    m.birth_rate(SPACE, x, eta)  # the integrator of SPACE exists before the bad window comes
    for call in (lambda: GrainOverlap(narrow, 0.3),
                 lambda: m.birth_rate(narrow, x, eta),
                 lambda: m.envelope_sup(narrow),
                 lambda: m.increment_kernel(narrow, x, pts),
                 lambda: m.energy(narrow, eta)):
        with pytest.raises(SimulationConfigError):
            call()

    built = []
    original = GrainOverlap.__init__
    monkeypatch.setattr(GrainOverlap, "__init__",
                        lambda self, space, *a: built.append(space) or original(self, space, *a))
    fine = AreaInteractionRate(rho=2.0, gamma=1.5, grain_radius=0.1)
    for _ in range(3):
        fine.birth_rate(SPACE, x, cfg(0.2, 0.25, 0.7))
        fine.envelope_sup(SPACE)
        fine.increment_kernel(SPACE, x, pts)
        fine.energy(SPACE, cfg(0.2, 0.25, 0.7))
    assert built == [SPACE]
    fine.birth_rate(SPACE2, np.array([0.1, 0.1]), Configuration())
    fine.birth_rate(SPACE, x, eta)
    assert built == [SPACE, SPACE2]


# ---------------------------------------------------------------------------
# area interaction
# ---------------------------------------------------------------------------

def test_area_rate_and_envelope():
    m = AreaInteractionRate(rho=2.0, gamma=1.5, grain_radius=0.1)
    assert m.monotone == "nondecreasing"
    assert m.envelope_sup(SPACE) == pytest.approx(2.0)
    # exposed length 0.15 at x=0.45 against a grain at 0.3
    expect = 2.0 * 1.5 ** (-0.15)
    assert m.birth_rate(SPACE, np.array([0.45]), cfg(0.3)) == pytest.approx(expect)

    rep = AreaInteractionRate(rho=2.0, gamma=0.5, grain_radius=0.1)
    assert rep.monotone == "nonincreasing"
    assert rep.envelope_sup(SPACE) == pytest.approx(2.0 * 0.5 ** (-0.2))


def test_area_energy_inclusion_exclusion():
    m = AreaInteractionRate(rho=2.0, gamma=1.5, grain_radius=0.1)
    got = m.energy(SPACE, cfg(0.3, 0.45))
    assert got == pytest.approx(-2 * math.log(2.0) + math.log(1.5) * 0.35)


def test_area_increment_kernel_is_tight_attractive():
    # kernel value rho (1 - gamma^{-V}) with V the grain overlap volume; the
    # bound is achieved when the rest of eta already covers everything the new
    # point does not: grains at x=0.5 and y=0.45 overlap on [0.4, 0.55], and a
    # grain at 0.65 covers the remaining sliver [0.55, 0.6] exactly
    m = AreaInteractionRate(rho=2.0, gamma=2.0, grain_radius=0.1)
    x = np.array([0.5])
    y = np.array([[0.45]])
    a = m.increment_kernel(SPACE, x, y)[0]
    assert a == pytest.approx(2.0 * (1 - 2.0 ** -0.15), rel=1e-12)
    jump = abs(m.birth_rate(SPACE, x, cfg(0.45, 0.65)) - m.birth_rate(SPACE, x, cfg(0.65)))
    assert jump == pytest.approx(a, rel=1e-12)
    # on the empty configuration the jump is strictly inside the bound
    loose = abs(m.birth_rate(SPACE, x, cfg(0.45)) - m.birth_rate(SPACE, x, Configuration()))
    assert loose < a
    # far away points have zero increment
    assert m.increment_kernel(SPACE, x, np.array([[0.1]]))[0] == 0.0


def test_area_validation():
    with pytest.raises(SimulationConfigError):
        AreaInteractionRate(rho=0.0, gamma=1.5, grain_radius=0.1)
    with pytest.raises(SimulationConfigError):
        AreaInteractionRate(rho=1.0, gamma=-1.0, grain_radius=0.1)
    with pytest.raises(SimulationConfigError):
        AreaInteractionRate(rho=1.0, gamma=1.5, grain_radius=0.0)


# ---------------------------------------------------------------------------
# nearest neighbor rates
# ---------------------------------------------------------------------------

def test_nearest_neighbor_step_profile():
    m = NearestNeighborRate(breakpoints=(0.1, 0.3), values=(0.5, 1.5),
                            value_at_infinity=2.0)
    assert m.profile(0.05) == 0.5
    assert m.profile(0.1) == 1.5  # pieces are right-open
    assert m.profile(0.2) == 1.5
    assert m.profile(0.3) == 2.0
    assert m.profile(math.inf) == 2.0
    assert m.birth_rate(SPACE, np.array([0.45]), cfg(0.3)) == 1.5
    assert m.birth_rate(SPACE, np.array([0.45]), Configuration()) == 2.0
    # increasing profile means the rate shrinks as points move closer
    assert m.monotone == "nonincreasing"
    assert m.envelope_sup(SPACE) == 2.0
    assert np.allclose(m.increment_kernel(SPACE, np.array([0.0]),
                                          np.array([[0.05], [0.15], [0.5]])),
                       [1.5, 0.5, 0.0])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_nearest_neighbor_scalar_lookup_equals_profile(data):
    # a query looks the nearest distance up with bisect_right over Python
    # floats; profile() with numpy's searchsorted(side="right")
    gaps = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=5), label="gaps")
    breaks = tuple(itertools.accumulate(gaps))
    levels = list(itertools.accumulate(data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=len(breaks) + 1, max_size=len(breaks) + 1),
        label="steps")))
    if data.draw(st.booleans(), label="decreasing"):
        levels.reverse()
    m = NearestNeighborRate(breakpoints=breaks, values=tuple(levels[:-1]),
                            value_at_infinity=levels[-1])
    ts = [0.0, math.inf, *data.draw(st.lists(st.floats(0.0, 10.0), max_size=10), label="t")]
    for b in breaks:
        ts += [b, math.nextafter(b, 0.0), math.nextafter(b, math.inf)]
    for t in ts:
        got = m.rate_of_neighbours(SPACE, (0.0,), [(t, "y", (0.0,))])
        assert type(got) is float and got == m.profile(t), t
    assert m.rate_of_neighbours(SPACE, (0.0,), []) == m.profile(math.inf)


def test_nearest_neighbor_validation():
    with pytest.raises(SimulationConfigError):
        NearestNeighborRate(breakpoints=(0.3, 0.1), values=(1.0, 2.0),
                            value_at_infinity=3.0)
    with pytest.raises(SimulationConfigError):
        NearestNeighborRate(breakpoints=(0.1,), values=(1.0, 2.0),
                            value_at_infinity=3.0)
    with pytest.raises(SimulationConfigError):
        NearestNeighborRate(breakpoints=(0.1, 0.3), values=(1.0, 0.5),
                            value_at_infinity=2.0)  # not monotone


# ---------------------------------------------------------------------------
# cell occupancy
# ---------------------------------------------------------------------------

THETA2 = np.array([[0.5, 0.2], [0.2, 0.5]])


def test_cell_occupancy_rates():
    m = CellOccupancyRate(cell_counts=(2,), theta=THETA2, base_rate=1.0)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=2.0)
    eta = cfg(0.1, 0.6, 0.9)  # occupancy (1, 2)
    assert list(m.occupancy(space, eta)) == [1, 2]
    assert m.birth_rate(space, np.array([0.2]), eta) == pytest.approx(
        math.exp(-(0.5 * 1 + 0.2 * 2)))
    assert m.birth_rate(space, np.array([0.7]), eta) == pytest.approx(
        math.exp(-(0.2 * 1 + 0.5 * 2)))
    assert m.rate_for_occupancy(0, np.array([1, 2])) == pytest.approx(
        math.exp(-0.9))
    assert list(m.cell_masses(space)) == [1.0, 1.0]
    assert envelope_total(m, space) == pytest.approx(2.0)


def test_cell_occupancy_energy_detailed_balance_form():
    m = CellOccupancyRate(cell_counts=(2,), theta=THETA2, base_rate=1.0)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=2.0)
    # H(k) = sum_i theta_ii k_i(k_i-1)/2 + sum_{i<j} theta_ij k_i k_j
    eta = cfg(0.1, 0.2, 0.6)  # k = (2, 1)
    assert m.energy(space, eta) == pytest.approx(0.5 * 1 + 0.2 * 2)


def test_cell_occupancy_validation():
    with pytest.raises(SimulationConfigError):
        CellOccupancyRate(cell_counts=(2,), theta=np.array([[0.5, 0.1], [0.2, 0.5]]))
    with pytest.raises(SimulationConfigError):
        CellOccupancyRate(cell_counts=(2,), theta=-THETA2)


# ---------------------------------------------------------------------------
# shared properties: Lipschitz bound, increments, sandwiches
# ---------------------------------------------------------------------------

def all_models():
    return [
        ConstantRate(rate=2.0),
        PairwiseRate(theta=0.6, interaction_range=0.15),
        AreaInteractionRate(rho=2.0, gamma=1.7, grain_radius=0.08),
        AreaInteractionRate(rho=2.0, gamma=0.6, grain_radius=0.08),
        NearestNeighborRate(breakpoints=(0.1, 0.25), values=(0.4, 1.2),
                            value_at_infinity=1.8),
        CellOccupancyRate(cell_counts=(3,), theta=0.4 * np.eye(3) + 0.1, base_rate=1.5),
    ]


@pytest.mark.parametrize("model", all_models(), ids=lambda m: type(m).__name__)
def test_rate_below_envelope(model):
    rng = np.random.default_rng(7)
    sup = model.envelope_sup(SPACE)
    for _ in range(40):
        eta = Configuration.from_points(rng.uniform(0, 1, size=(rng.integers(0, 7), 1)))
        x = rng.uniform(0, 1, size=1)
        assert model.birth_rate(SPACE, x, eta) <= sup + 1e-12


@pytest.mark.parametrize("model", all_models(), ids=lambda m: type(m).__name__)
def test_single_point_increment_dominated(model):
    rng = np.random.default_rng(8)
    for _ in range(40):
        eta = Configuration.from_points(rng.uniform(0, 1, size=(rng.integers(0, 6), 1)))
        x = rng.uniform(0, 1, size=1)
        y = rng.uniform(0, 1, size=(1, 1))
        eta_plus = eta.copy()
        eta_plus.add("extra", y[0])
        jump = abs(model.birth_rate(SPACE, x, eta_plus) - model.birth_rate(SPACE, x, eta))
        bound = model.increment_kernel(SPACE, x, y)[0]
        assert jump <= bound + 1e-10


@pytest.mark.parametrize("model", all_models(), ids=lambda m: type(m).__name__)
def test_lipschitz_bound_over_symmetric_difference(model):
    rng = np.random.default_rng(9)
    for _ in range(30):
        pts1 = rng.uniform(0, 1, size=(rng.integers(0, 6), 1))
        pts2 = rng.uniform(0, 1, size=(rng.integers(0, 6), 1))
        shared = rng.uniform(0, 1, size=(rng.integers(0, 4), 1))
        eta1 = Configuration.from_points(np.vstack([shared, pts1]))
        eta2 = Configuration.from_points(np.vstack([shared, pts2]))
        x = rng.uniform(0, 1, size=1)
        lhs = abs(model.birth_rate(SPACE, x, eta1) - model.birth_rate(SPACE, x, eta2))
        delta = np.vstack([pts1, pts2]) if len(pts1) + len(pts2) else np.empty((0, 1))
        rhs = np.sum(model.increment_kernel(SPACE, x, delta))
        assert lhs <= rhs + 1e-10


# the models of the symmetry test, per (dimension, boundary): a window of
# one space per key keeps each area-interaction model's grain nodes cached
SYMMETRY_SPACES = {(d, b): SpaceSpec(dimension=d, lengths=(1.0, 0.7)[:d], boundary=b)
                   for d in (1, 2) for b in ("periodic", "free")}
SYMMETRY_MODELS = [
    ConstantRate(rate=2.0),
    PairwiseRate(theta=0.6, interaction_range=0.3),
    NearestNeighborRate(breakpoints=(0.1, 0.25), values=(0.4, 1.2), value_at_infinity=1.8),
    AreaInteractionRate(rho=2.0, gamma=1.5, grain_radius=0.1),
    AreaInteractionRate(rho=2.0, gamma=0.6, grain_radius=0.1),
]


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(SYMMETRY_SPACES)), data=st.data())
def test_increment_kernel_is_symmetric(key, data):
    # a(x, y) == a(y, x) bit for bit, for every model but the 2-D area
    # interaction: its QMC grain nodes are not symmetric under n -> -n, but
    # each side is within error_bound() of the exact lens overlap, and the
    # kernel's slope in the overlap is at most envelope_sup |log gamma|
    space = SYMMETRY_SPACES[key]
    x, y = (np.array([data.draw(st.floats(0.0, L, exclude_max=True)) for L in space.lengths])
            for _ in range(2))
    n = 2 ** space.dimension
    upper = np.triu(np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n * n,
                                                 max_size=n * n))).reshape(n, n))
    theta = upper + np.triu(upper, 1).T  # exactly symmetric
    cells = CellOccupancyRate(cell_counts=(2,) * space.dimension, theta=theta, base_rate=1.5)
    for m in SYMMETRY_MODELS + [cells]:
        a = m.increment_kernel(space, x, y[None, :])
        b = m.increment_kernel(space, y, x[None, :])
        if isinstance(m, AreaInteractionRate) and space.dimension > 1:
            bound = (2 * m.envelope_sup(space) * abs(math.log(m.gamma))
                     * m.overlap(space).error_bound())
            assert abs(a[0] - b[0]) <= bound
        else:
            assert a.tobytes() == b.tobytes(), type(m).__name__


@pytest.mark.parametrize("model", all_models(), ids=lambda m: type(m).__name__)
def test_sandwich_brackets_every_intermediate_state(model):
    rng = np.random.default_rng(10)
    for _ in range(30):
        low_pts = rng.uniform(0, 1, size=(rng.integers(0, 4), 1))
        gap_pts = rng.uniform(0, 1, size=(rng.integers(0, 5), 1))
        eta_low = Configuration.from_points(low_pts)
        eta_up = Configuration.from_points(
            np.vstack([low_pts, gap_pts]) if len(gap_pts) else low_pts)
        x = rng.uniform(0, 1, size=1)
        lo, hi = sandwich_rates(model, SPACE, x, eta_low, eta_up)
        assert lo <= hi + 1e-12
        # every configuration between the ends has its rate inside the bracket
        for _ in range(4):
            take = rng.random(len(gap_pts)) < 0.5 if len(gap_pts) else []
            mid_pts = np.vstack([low_pts, gap_pts[take]]) if len(gap_pts) else low_pts
            mid = Configuration.from_points(mid_pts)
            lam = model.birth_rate(SPACE, x, mid)
            assert lo - 1e-10 <= lam <= hi + 1e-10


def test_sandwich_rejects_non_monotone_model():
    class Unordered(RateModel):  # monotone stays "none"
        def birth_rate(self, space, x, eta):
            return 1.0

    eta = cfg(0.2, 0.6)
    with pytest.raises(UnsupportedModelError):
        sandwich_rates(Unordered(), SPACE, np.array([0.5]), eta, eta)


def test_sandwich_collapses_when_states_equal():
    m = PairwiseRate(theta=0.5, interaction_range=0.2)
    eta = cfg(0.2, 0.6)
    lo, hi = sandwich_rates(m, SPACE, np.array([0.5]), eta, eta)
    lam = m.birth_rate(SPACE, np.array([0.5]), eta)
    assert lo == pytest.approx(lam) and hi == pytest.approx(lam)


# ---------------------------------------------------------------------------
# detailed balance
# ---------------------------------------------------------------------------

def test_detailed_balance_pairwise_machine_precision():
    m = PairwiseRate(theta=0.5, interaction_range=0.2)
    rng = np.random.default_rng(11)
    for _ in range(200):
        eta = Configuration.from_points(rng.uniform(0, 1, size=(rng.integers(0, 8), 1)))
        x = rng.uniform(0, 1, size=1)
        res = detailed_balance_residual(m, SPACE, x, eta)
        assert res.ok and abs(res.residual) < 1e-12


def test_detailed_balance_detects_wrong_energy():
    # with the energy forced to zero the relation fails whenever the rate
    # differs from the death rate at that state
    m = PairwiseRate(theta=1.0, interaction_range=0.2)
    eta = cfg(0.5)
    res = detailed_balance_residual(m, SPACE, np.array([0.45]), eta,
                                    energy_fn=lambda cfg: 0.0)
    assert abs(res.residual) == pytest.approx(abs(math.exp(-1.0) - 1.0))
    assert not res.ok


def test_detailed_balance_area_exact_mode():
    m = AreaInteractionRate(rho=2.0, gamma=1.6, grain_radius=0.08)
    rng = np.random.default_rng(12)
    for _ in range(50):
        eta = Configuration.from_points(rng.uniform(0, 1, size=(rng.integers(0, 6), 1)))
        x = rng.uniform(0, 1, size=1)
        res = detailed_balance_residual(m, SPACE, x, eta)
        assert res.ok


def test_constant_model_unsupported_energy():
    with pytest.raises(UnsupportedModelError):
        ConstantRate(rate=1.0).energy(SPACE, Configuration())


# ---------------------------------------------------------------------------
# contraction constants
# ---------------------------------------------------------------------------

def test_contraction_pairwise_matches_analytic():
    m = PairwiseRate(theta=PAIR_THETA, interaction_range=PAIR_RANGE)
    est = contraction_constant(m, SPACE, 2_000_001)
    assert abs(est.value - PAIR_M) < 1e-6
    assert est.error < 1e-5
    assert est.certifies_uniqueness


def test_contraction_scales_with_intensity():
    m = PairwiseRate(theta=PAIR_THETA, interaction_range=PAIR_RANGE)
    dense = SpaceSpec(dimension=1, lengths=(1.0,), intensity=10.0)
    est = contraction_constant(m, dense, 400_001)
    assert est.value == pytest.approx(10 * PAIR_M, abs=1e-4)
    assert not est.certifies_uniqueness


def test_contraction_cell_model_closed_form():
    m = CellOccupancyRate(cell_counts=(3,), theta=0.4 * np.eye(3) + 0.1, base_rate=1.5)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=2.0)
    est = contraction_constant(m, space)
    # independent hand computation: row sums of base*(1-e^{-theta_ij})*mass_j
    masses = [2.0 / 3] * 3
    theta = 0.4 * np.eye(3) + 0.1
    expect = max(sum(1.5 * (1 - math.exp(-theta[i, j])) * masses[j] for j in range(3))
                 for i in range(3))
    assert est.value == pytest.approx(expect, rel=1e-12)
    assert est.error == 0.0


def test_contraction_constant_model_zero():
    est = contraction_constant(ConstantRate(rate=4.0), SPACE)
    assert est.value == 0.0
    assert est.certifies_uniqueness


def test_contraction_constant_rejects_a_model_it_cannot_integrate():
    # neither a cell-occupancy model nor translation invariant
    class Anchored(RateModel):
        def increment_kernel(self, space, x, Y):
            return np.full(len(Y), float(x[0]))

    with pytest.raises(UnsupportedModelError, match="translation-invariant"):
        contraction_constant(Anchored(), SPACE)


def test_contraction_closed_forms_and_the_wide_range_fallback():
    # a support ball that fits the window (2R < every side) takes the radial
    # integral, in closed form for the pairwise and nearest-neighbour kernels,
    # whatever the resolution asked for
    pair = PairwiseRate(theta=PAIR_THETA, interaction_range=PAIR_RANGE)
    est = contraction_constant(pair, SPACE, 3_000_000)
    assert (est.value, est.error, est.resolution) == (pytest.approx(PAIR_M, rel=1e-12), 0.0, 0)
    cube = SpaceSpec(dimension=3, lengths=(1.0, 1.0, 1.0), intensity=20.0)
    est = contraction_constant(pair, cube)
    ball = 4.0 / 3.0 * math.pi * PAIR_RANGE ** 3
    assert est.value == pytest.approx(20.0 * (1 - math.exp(-PAIR_THETA)) * ball, rel=1e-12)
    # a range that does not fit the window falls back to the window grid,
    # its resolution halved until the fine grid fits the grid budget
    wide = PairwiseRate(theta=PAIR_THETA, interaction_range=0.6)
    est = contraction_constant(wide, SPACE, 3_000_000)
    assert est.value == pytest.approx(1 - math.exp(-PAIR_THETA), rel=1e-3)
    assert est.resolution == 3_000_000 <= models._WINDOW_GRID_BUDGET

    nn = NearestNeighborRate(breakpoints=(0.05, 0.1), values=(0.3, 0.7), value_at_infinity=1.0)
    est = contraction_constant(nn, SPACE, 3_000_000)
    assert est.value == pytest.approx(2 * 0.05 * 0.7 + 2 * 0.05 * 0.3, rel=1e-12)
    plane = SpaceSpec(dimension=2, lengths=(1.0, 2.0), intensity=3.0)
    exact = 3.0 * math.pi * (0.05 ** 2 * 0.7 + (0.1 ** 2 - 0.05 ** 2) * 0.3)
    est = contraction_constant(nn, plane, 4096)
    assert (est.value, est.error, est.resolution) == (pytest.approx(exact, rel=1e-12), 0.0, 0)
    assert contraction_constant(ConstantRate(rate=4.0), cube).value == 0.0


def test_contraction_window_grid_in_chunks_equals_one_kernel_call():
    # an area-interaction kernel tests every QMC grain node at every grid
    # point, so the window grid, kept for a support that does not fit the
    # window (here 2 * 2r = 1.2 > 1), sees the grid _KERNEL_ROWS rows at a
    # time; the chunks give one kernel call on the whole grid bit for bit
    area = AreaInteractionRate(rho=1.0, gamma=1.5, grain_radius=0.3, overlap_resolution=1024)
    plane = SpaceSpec(dimension=2, lengths=(1.0, 1.0), intensity=20.0)
    assert (2 * 24) ** 2 > models._KERNEL_ROWS  # more than one chunk
    x0 = plane.lengths_array() / 2.0

    def whole_grid(res):
        a = area.increment_kernel(plane, x0, plane.grid(res))
        return float(np.sum(a)) * plane.intensity * plane.cell_volume(res)

    est = contraction_constant(area, plane, 24)
    assert (est.value, est.error, est.resolution) == (
        whole_grid(48), abs(whole_grid(48) - whole_grid(24)), 48)


@pytest.mark.parametrize("boundary", ["periodic", "free"])
def test_contraction_support_not_fitting_a_side_takes_the_window_grid(boundary):
    # 2R = 0.4 fits the long side but not the short one (0.3); the window
    # clips (free) or wraps (periodic) the ball, so the grid reads less than
    # the radial closed form
    pair = PairwiseRate(theta=PAIR_THETA, interaction_range=0.2)
    strip = SpaceSpec(dimension=2, lengths=(1.0, 0.3), boundary=boundary, intensity=3.0)
    est = contraction_constant(pair, strip, 64)
    assert est == models._window_contraction(pair, strip, 64)
    assert est.resolution == 128
    fits = SpaceSpec(dimension=2, lengths=(1.0, 0.41), boundary=boundary, intensity=3.0)
    radial = contraction_constant(pair, fits, 64)
    assert radial.resolution == 0
    # the disc of radius 0.2 cut to |dy| <= 0.15, in closed form; the grid
    # holds it within its error (a step bound, wider than the gap to the
    # radial value at this resolution)
    r, w = 0.2, 0.15
    clipped = 3.0 * -math.expm1(-PAIR_THETA) * 2 * (w * math.sqrt(r * r - w * w)
                                                    + r * r * math.asin(w / r))
    assert abs(est.value - clipped) <= est.error
    assert est.value < radial.value and clipped < radial.value


def test_window_grid_error_bounds_a_step_kernel():
    # the grids' |fine - coarse| is no bound for a step kernel: here it reads
    # 5.6e-17 and 3.1e-5 while the grid is 2.4e-3 and 1.3e-4 off the closed
    # form; the error the grid states takes the midpoint rule's step bound
    cube = SpaceSpec(dimension=3, lengths=(1.0, 1.0, 1.0), intensity=20.0)
    pair = PairwiseRate(theta=PAIR_THETA, interaction_range=0.2)
    plane = SpaceSpec(dimension=2, lengths=(1.0, 1.0), intensity=5.0)
    nn = NearestNeighborRate(breakpoints=(0.05, 0.1, 0.2), values=(0.3, 0.5, 0.7),
                             value_at_infinity=1.0)
    for model, space, n in [(pair, cube, 16), (nn, plane, 256)]:
        exact = contraction_constant(model, space)
        grid = models._window_contraction(model, space, n)
        assert (exact.resolution, exact.error, grid.resolution) == (0, 0.0, 2 * n)
        assert abs(grid.value - exact.value) <= grid.error


def test_window_grid_step_bound_skips_an_infinite_radius():
    # a pairwise range or a last breakpoint at infinity cuts no cell: its
    # jump adds nothing to the step bound, and the jumps at finite radii
    # stay in it (an infinite radius made the bound NaN, and max() then
    # fell back to the grids' difference)
    line = SpaceSpec(dimension=1, lengths=(1.0,))
    nn = NearestNeighborRate(breakpoints=(0.1, math.inf), values=(0.2, 0.6),
                             value_at_infinity=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = contraction_constant(nn, line, resolution=64)
        pair = contraction_constant(PairwiseRate(theta=0.5, interaction_range=math.inf), line)
    # the jump of 0.4 at 0.1, over the shell 0.1 -/+ h, h = 1 / 128
    assert est.error == pytest.approx(2 * 0.4 * 2 / 128)
    assert pair.error == 0.0 and pair.value == pytest.approx(1 - math.exp(-0.5))


@pytest.mark.parametrize("d,n,n_area", [(1, 20000, 20000), (2, 256, 16), (3, 32, 6)])
def test_radial_contraction_agrees_with_the_window_grid(d, n, n_area):
    # the window grid integrates the kernel as simulated; the radial value
    # must agree within the grid's stated error (for the pairwise and
    # nearest-neighbour step kernels at least the midpoint rule's step bound)
    # plus the radial error, which carries the QMC bound. Area kernels run
    # on a smaller window, where a coarser grid of QMC node tests still
    # covers their support.
    space = SpaceSpec(dimension=d, lengths=(1.0,) * d, intensity=5.0)
    small = SpaceSpec(dimension=d, lengths=(0.5,) * d, intensity=5.0)
    pair = PairwiseRate(theta=PAIR_THETA, interaction_range=PAIR_RANGE)
    nn = NearestNeighborRate(breakpoints=(0.05, 0.1, 0.2), values=(0.3, 0.5, 0.7),
                             value_at_infinity=1.0)
    for model in (pair, nn):
        radial = contraction_constant(model, space)
        grid = models._window_contraction(model, space, n)
        assert radial.resolution == 0 and grid.resolution == 2 * n
        assert abs(radial.value - grid.value) <= grid.error + radial.error
    for gamma in (1.5, 0.6):
        area = AreaInteractionRate(rho=2.0, gamma=gamma, grain_radius=0.1)
        radial = contraction_constant(area, small)
        grid = models._window_contraction(area, small, n_area)
        assert radial.resolution == 0
        assert abs(radial.value - grid.value) <= grid.error + radial.error
        # the QMC bound beyond 1-D, or quad's error on the exact 1-D integrator
        assert (radial.error > 1e-6 * radial.value) == (d > 1)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_model_from_config_round_trip():
    m = model_from_config({"model": {"type": "pairwise", "theta": 0.5, "range": 0.2},
                           "death": {"type": "constant", "rate": 2.0}})
    assert isinstance(m, PairwiseRate)
    assert m.theta == 0.5 and m.interaction_range == 0.2
    assert m.death.rate == 2.0

    m2 = model_from_config({"model": {"type": "area_interaction", "rho": 2.0,
                                      "gamma": 1.5, "grain_radius": 0.1},
                            "death": {"type": "unit"}})
    assert isinstance(m2, AreaInteractionRate)

    m3 = model_from_config({"model": {"type": "nearest_neighbor",
                                      "breakpoints": [0.1, 0.3],
                                      "values": [0.5, 1.5],
                                      "value_at_infinity": 2.0}})
    assert isinstance(m3, NearestNeighborRate)

    m4 = model_from_config({"model": {"type": "cell_occupancy", "cell_counts": [2],
                                      "theta": [[0.5, 0.2], [0.2, 0.5]]}})
    assert isinstance(m4, CellOccupancyRate)


def test_model_from_config_rejects_unknown():
    with pytest.raises(SimulationConfigError):
        model_from_config({"model": {"type": "bogus"}})
    with pytest.raises(SimulationConfigError):
        model_from_config({"model": {"type": "pairwise", "theta": 0.5, "range": 0.2},
                           "death": {"type": "quadratic"}})
    # a key the block's type does not read is refused, not ignored
    pairwise = {"type": "pairwise", "theta": 0.5, "range": 0.2}
    for config, key in [
            ({"model": pairwise, "death": {"type": "unit", "rate": 2.0}}, "rate"),
            ({"model": pairwise, "death": {"type": "constant", "rnage": 2.0}}, "rnage"),
            ({"model": {**pairwise, "rnage": 0.3}}, "rnage"),
            ({"model": {"type": "constant", "rate": 1.0, "theta": 0.5}}, "theta"),
            ({"model": {"type": "area_interaction", "rho": 1.0, "gamma": 1.5,
                        "grain_radius": 0.05, "overlap_method": "exact"}}, "overlap_method"),
            ({"model": {"type": "cell_occupancy", "cell_counts": [1], "theta": [[0.5]],
                        "base": 1.0}}, "base")]:
        with pytest.raises(SimulationConfigError, match=key):
            model_from_config(config)
    with pytest.raises(SimulationConfigError, match="missing key: 'rate'"):
        model_from_config({"model": pairwise, "death": {"type": "constant"}})


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, 3.0), k=st.integers(0, 10))
def test_pairwise_rate_formula(theta, k):
    m = PairwiseRate(theta=theta, interaction_range=0.4)
    pts = np.full((k, 1), 0.5)
    eta = Configuration.from_points(pts) if k else Configuration()
    got = m.birth_rate(SPACE, np.array([0.5]), eta)
    assert got == pytest.approx(math.exp(-theta * k))
