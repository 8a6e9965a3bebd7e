import hashlib
import math
import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sbdsim import analysis
from sbdsim.analysis import (
    DistributionTable,
    OracleModel,
    OracleSolveError,
    block_average_diagnostic,
    chi_square_gof,
    default_bump,
    discrete_generator_residual,
    empirical_count_table,
    gibbs_table,
    lifetime_ks_test,
    mecke_test,
    observed_lifetimes,
    oracle_stationary,
    ripley_k,
    stationarity_residual,
    tv_distance,
    two_sample_count_test,
)
from sbdsim.cli import load_config
from sbdsim.engine import simulate
from sbdsim.geometry import Configuration, SimulationConfigError, SpaceSpec, TimedConfiguration
from sbdsim.models import CellOccupancyRate, ConstantDeath, ConstantRate
from sbdsim.noise import NoiseStream, poisson_configuration, replicate_seed

SPACE = SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.0)
SEED = 271828
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def truncated_poisson(mean, cap):
    pmf = np.array([stats.poisson.pmf(k, mean) for k in range(cap + 1)])
    pmf = pmf / pmf.sum()
    return {(k,): float(p) for k, p in enumerate(pmf)}


# ---------------------------------------------------------------------------
# finite-state oracle
# ---------------------------------------------------------------------------

def test_oracle_reproduces_immigration_death_law():
    # no interaction: the chain is an immigration-death queue whose
    # stationary law is Poisson, truncated at the cap
    oracle = OracleModel(masses=(1.0,), caps=(40,), theta=np.zeros((1, 1)))
    table = oracle_stationary(oracle)
    assert tv_distance(table, truncated_poisson(1.0, 40)) < 1e-12
    assert table.residual < 1e-12
    assert table.defect < 1e-40
    assert sum(table.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_oracle_independent_cells_factorize():
    oracle = OracleModel(masses=(0.5, 0.5), caps=(25, 25), theta=np.zeros((2, 2)),
                         base_rate=2.0)
    table = oracle_stationary(oracle)
    one = truncated_poisson(1.0, 25)
    product = {(i, j): one[(i,)] * one[(j,)] for i in range(26) for j in range(26)}
    assert tv_distance(table, product) < 1e-10


def test_oracle_and_gibbs_routes_agree():
    theta = np.array([[0.6, 0.3], [0.3, 0.6]])
    oracle = OracleModel(masses=(0.6, 0.4), caps=(15, 15), theta=theta,
                         base_rate=1.8, death_rate=1.3)
    a = oracle_stationary(oracle)
    b = gibbs_table(oracle)
    assert tv_distance(a, b) < 1e-10
    assert b.defect < 1e-6
    assert discrete_generator_residual(oracle, a) < 1e-10
    assert discrete_generator_residual(oracle, b) < 1e-8


def test_gibbs_weights_follow_energy_ratios():
    theta = np.array([[0.5]])
    oracle = OracleModel(masses=(1.0,), caps=(12,), theta=theta, base_rate=1.0)
    table = gibbs_table(oracle)
    # pi(k+1)/pi(k) = c e^{-theta k} / (k+1) with c = base * mass / death
    for k in range(5):
        got = table.probs.get((k + 1,), 0.0) / table.probs.get((k,), 0.0)
        assert got == pytest.approx(math.exp(-0.5 * k) / (k + 1), rel=1e-12)


def test_oracle_hard_core_limits_multiplicity():
    oracle = OracleModel(masses=(1.0,), caps=(6,), theta=np.array([[50.0]]))
    table = oracle_stationary(oracle)
    assert table.probs.get((2,), 0.0) < 1e-20
    assert table.probs.get((1,), 0.0) / table.probs.get((0,), 0.0) == pytest.approx(1.0, rel=1e-9)


def test_oracle_from_cell_model():
    model = CellOccupancyRate(cell_counts=(2,), theta=np.array([[0.5, 0.2], [0.2, 0.5]]),
                              base_rate=1.5, death=ConstantDeath(2.0))
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=2.0)
    oracle = OracleModel.from_model(model, space, caps=(10, 10))
    assert list(oracle.masses) == [1.0, 1.0]
    assert oracle.base_rate == 1.5 and oracle.death_rate == 2.0
    assert oracle.n_states == 121
    # birth rate density matches the continuous model on the same occupancy
    assert oracle.birth_rate(0, (1, 2)) == pytest.approx(
        model.rate_for_occupancy(0, np.array([1, 2])))


def test_oracle_state_budget_enforced():
    oracle = OracleModel(masses=(1.0, 1.0), caps=(1200, 1200), theta=np.zeros((2, 2)))
    with pytest.raises(SimulationConfigError):
        oracle_stationary(oracle)


def dense_stationary(oracle):
    """Independent reference: the null vector of the dense generator Q,
    built state by state from the rates, normalized to sum 1."""
    states = list(np.ndindex(*(c + 1 for c in oracle.caps)))
    index = {s: j for j, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for s in states:
        k = np.array(s, dtype=float)
        for i, cap in enumerate(oracle.caps):
            up, down = list(s), list(s)
            up[i] += 1
            down[i] -= 1
            if s[i] < cap:
                q[index[s], index[tuple(up)]] += (oracle.base_rate * oracle.masses[i]
                                                  * math.exp(-float(oracle.theta[i] @ k)))
            if s[i] > 0:
                q[index[s], index[tuple(down)]] += s[i] * oracle.death_rate
    q[np.diag_indices_from(q)] = -q.sum(axis=1)
    v = scipy.linalg.null_space(q.T)[:, 0]
    return dict(zip(states, v / v.sum()))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
           st.lists(st.integers(0, 4), min_size=n, max_size=n),
           st.lists(st.sampled_from([0.0, 0.3, 1.0, 1.7]), min_size=n, max_size=n),
           st.lists(st.floats(-0.5, 0.5), min_size=n * n, max_size=n * n))),
       st.sampled_from([0.0, 0.4, 1.0, 2.5]),
       st.sampled_from([0.5, 1.0, 3.0]))
def test_oracle_matches_a_dense_null_vector(cells, base_rate, death_rate):
    caps, masses, entries = cells
    n = len(caps)
    a = np.array(entries).reshape(n, n)
    oracle = OracleModel(masses=masses, caps=caps, theta=(a + a.T) / 2,
                         base_rate=base_rate, death_rate=death_rate)
    table = oracle_stationary(oracle)
    assert list(table.probs) == list(np.ndindex(*(c + 1 for c in caps)))
    assert tv_distance(table, dense_stationary(oracle)) <= 1e-12
    assert table.residual <= 1e-12
    assert sum(table.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_oracle_single_state():
    oracle = OracleModel(masses=(1.0, 0.5), caps=(0, 0), theta=np.eye(2))
    table = oracle_stationary(oracle)
    assert table.probs == {(0, 0): 1.0}
    assert table.residual == 0.0


def test_oracle_zero_mass_cell_is_never_occupied():
    oracle = OracleModel(masses=(1.0, 0.0, 0.5), caps=(3, 3, 3),
                         theta=np.full((3, 3), 0.2))
    table = oracle_stationary(oracle)
    assert all(p == 0.0 for s, p in table.probs.items() if s[1] > 0)
    assert tv_distance(table, gibbs_table(oracle)) < 1e-12


@pytest.mark.parametrize("bad_solution", [
    lambda x: np.full_like(x, np.nan),  # a failed factorization
    lambda x: np.append(x[:-1], -1e-8),  # a negative entry, residual still small
    lambda x: 2.0 * x,  # a vector that does not solve the reduced system
])
def test_oracle_rejects_a_bad_solve(monkeypatch, bad_solution):
    real = analysis.spsolve
    monkeypatch.setattr(analysis, "spsolve",
                        lambda a, b, **kw: bad_solution(real(a, b, **kw)))
    oracle = OracleModel(masses=(1.0, 0.5), caps=(6, 6), theta=0.2 * np.eye(2))
    with pytest.raises(OracleSolveError):
        oracle_stationary(oracle)


# sha256 of gibbs_table.csv written by `oracle` for configs/cells_demo.json,
# recorded before the state enumeration and CSV writer were vectorized
CELLS_DEMO_GIBBS_SHA256 = "65852212069018705c7fe1e4b4b3d2bf036cb74facd1e012f2493c7660b607e5"


def test_gibbs_table_csv_is_pinned(tmp_path):
    cfg = load_config(os.path.join(CONFIG_DIR, "cells_demo.json"))
    oracle = OracleModel.from_model(cfg.model, cfg.space, cfg.run["oracle"]["caps"])
    path = tmp_path / "gibbs_table.csv"
    gibbs_table(oracle).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CELLS_DEMO_GIBBS_SHA256


def test_gibbs_table_extension_counts_against_the_state_budget(monkeypatch):
    # caps 4 raised by 100 is a box of 105^3 = 1.16 M states, more than
    # MAX_ORACLE_STATES: it is refused before any box is enumerated
    cfg = load_config(os.path.join(CONFIG_DIR, "cells_demo.json"))
    oracle = OracleModel.from_model(cfg.model, cfg.space, [4, 4, 4])
    assert 105 ** 3 > analysis.MAX_ORACLE_STATES

    def enumerate_box(caps):
        raise AssertionError(f"box {caps} enumerated")

    monkeypatch.setattr(analysis, "_occupancy_grid", enumerate_box)
    with pytest.raises(SimulationConfigError, match="too large"):
        gibbs_table(oracle, extension=100)


def test_oracle_validation():
    with pytest.raises(SimulationConfigError):
        OracleModel(masses=(1.0,), caps=(5, 5), theta=np.zeros((1, 1)))
    with pytest.raises(SimulationConfigError):
        OracleModel(masses=(1.0, 1.0), caps=(5, 5),
                    theta=np.array([[0.0, 0.1], [0.2, 0.0]]))


# ---------------------------------------------------------------------------
# distribution tables
# ---------------------------------------------------------------------------

def test_tv_distance_basic_identities():
    p = {0: 0.5, 1: 0.5}
    q = {0: 0.25, 1: 0.25, 2: 0.5}
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == pytest.approx(0.5)
    assert tv_distance(p, q) == tv_distance(q, p)
    assert tv_distance({0: 1.0}, {1: 1.0}) == 1.0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_tv_distance_triangle_inequality(a, b, c):
    norm = lambda v: {i: x / s for i, x in enumerate(v)} if (s := sum(v)) > 0 else {0: 1.0}
    p, q, r = norm(a), norm(b), norm(c)
    assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
    assert 0.0 <= tv_distance(p, q) <= 1.0 + 1e-12


def test_empirical_count_table_totals_and_occupancy():
    cfgs = [Configuration.from_points(np.array([[0.1]])),
            Configuration.from_points(np.array([[0.2], [0.8]])),
            Configuration.from_points(np.array([[0.3], [0.9]]))]
    table = empirical_count_table(cfgs)
    assert table.probs == {1: pytest.approx(1 / 3), 2: pytest.approx(2 / 3)}
    model = CellOccupancyRate(cell_counts=(2,), theta=np.zeros((2, 2)))
    occ = empirical_count_table(cfgs, model, SPACE)
    assert occ.probs.get((1, 0), 0.0) == pytest.approx(1 / 3)
    assert occ.probs.get((1, 1), 0.0) == pytest.approx(2 / 3)
    with pytest.raises(SimulationConfigError):
        empirical_count_table([])


def test_distribution_table_csv(tmp_path):
    table = DistributionTable({(0, 1): 0.25, (2, 3): 0.75})
    path = tmp_path / "table.csv"
    table.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "state,probability"
    assert lines[1] == "0;1,0.25"
    assert lines[2] == "2;3,0.75"


# ---------------------------------------------------------------------------
# chi-square helpers
# ---------------------------------------------------------------------------

def test_chi_square_accepts_the_true_law():
    rng = np.random.default_rng(5)
    samples = rng.poisson(4.0, size=2000).tolist()
    probs = {k: float(stats.poisson.pmf(k, 4.0)) for k in range(25)}
    res = chi_square_gof(samples, probs)
    assert res.pvalue > 0.01
    assert res.dof == res.bins - 1


def test_chi_square_rejects_a_wrong_law():
    rng = np.random.default_rng(6)
    samples = rng.poisson(8.0, size=2000).tolist()
    probs = {k: float(stats.poisson.pmf(k, 4.0)) for k in range(40)}
    res = chi_square_gof(samples, probs)
    assert res.pvalue < 1e-10


def test_chi_square_pools_sparse_bins():
    # 30 samples against a 30-bin law forces heavy pooling but still runs
    probs = {k: 1.0 / 30 for k in range(30)}
    rng = np.random.default_rng(7)
    samples = rng.integers(0, 30, size=30).tolist()
    res = chi_square_gof(samples, probs)
    assert 2 <= res.bins <= 6
    assert np.isfinite(res.pvalue)


def test_two_sample_count_test():
    rng = np.random.default_rng(8)
    a = rng.poisson(5.0, size=1500).tolist()
    b = rng.poisson(5.0, size=1500).tolist()
    c = rng.poisson(7.0, size=1500).tolist()
    assert two_sample_count_test(a, b).pvalue > 0.01
    assert two_sample_count_test(a, c).pvalue < 1e-8


# ---------------------------------------------------------------------------
# transport identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("selector", ["box_mass", "box_vacancy"])
def test_mecke_identity_on_poisson_draws(selector):
    res = mecke_test(SPACE, 5.0, selector, replicates=3000, seed=SEED)
    assert res.z <= 3.0
    assert res.replicates == 3000


def test_mecke_zero_intensity_trivial():
    res = mecke_test(SPACE, 0.0, "box_mass", replicates=50, seed=SEED)
    assert res.lhs == 0.0 and res.rhs == 0.0 and res.z == 0.0


def test_mecke_rejects_unknown_selector():
    with pytest.raises(SimulationConfigError):
        mecke_test(SPACE, 1.0, "ball_mass", 10, SEED)


# ---------------------------------------------------------------------------
# stationarity residual
# ---------------------------------------------------------------------------

def test_stationarity_residual_zero_bump_is_exact_zero():
    model = ConstantRate(rate=3.0)
    samples = [poisson_configuration(SPACE, 3.0, replicate_seed(SEED, i))
               for i in range(20)]
    res = stationarity_residual(model, SPACE, samples, g=lambda x: np.zeros(len(np.atleast_2d(x))))
    assert res.estimate == 0.0 and res.z == 0.0


def test_stationarity_residual_accepts_true_stationary_law():
    model = ConstantRate(rate=3.0)
    samples = [poisson_configuration(SPACE, 3.0, replicate_seed(SEED, i))
               for i in range(800)]
    res = stationarity_residual(model, SPACE, samples)
    assert res.z <= 3.0


def test_stationarity_residual_flags_wrong_intensity():
    model = ConstantRate(rate=3.0)
    samples = [poisson_configuration(SPACE, 6.0, replicate_seed(SEED, i))
               for i in range(800)]
    res = stationarity_residual(model, SPACE, samples)
    assert res.z > 5.0


def test_default_bump_profile():
    g = default_bump(SPACE)
    vals = g(np.array([[0.0], [0.5], [0.25]]))
    assert vals[0] == pytest.approx(0.75)
    assert vals[1] == pytest.approx(0.0, abs=1e-15)
    assert vals[2] == pytest.approx(0.75 * 0.5)


# ---------------------------------------------------------------------------
# lifetimes
# ---------------------------------------------------------------------------

def make_trajectory(horizon=400.0, death=2.0):
    model = ConstantRate(rate=20.0, death=ConstantDeath(death))
    stream = NoiseStream.for_model(model, SPACE, SEED)
    return simulate(model, SPACE, TimedConfiguration(), horizon, stream)


def test_lifetime_ks_accepts_exponential_law():
    traj = make_trajectory()
    res = lifetime_ks_test(traj)
    assert res.status == "ok"
    assert res.n > 3000
    assert res.pvalue > 0.01


def test_lifetime_ks_detects_wrong_rate():
    traj = make_trajectory()
    lifetimes = observed_lifetimes(traj)
    res = lifetime_ks_test(lifetimes, rate=1.0)
    assert res.status == "ok" and res.pvalue < 1e-10


def test_lifetime_ks_inconclusive_when_starved():
    traj = make_trajectory(horizon=11.0)  # margin 20 / 2 leaves only t <= 1
    res = lifetime_ks_test(traj, min_deaths=1000)
    assert res.status == "inconclusive"
    assert math.isnan(res.pvalue)


def test_raw_lifetimes_need_a_rate():
    with pytest.raises(SimulationConfigError):
        lifetime_ks_test(np.array([1.0, 2.0]))


def test_censoring_guard_excludes_late_births():
    traj = make_trajectory(horizon=400.0, death=2.0)
    cutoff = 400.0 - 20.0 / 2.0
    births = {ev.point_id: ev.time for ev in traj.events if ev.kind == "birth"}
    deaths = {ev.point_id for ev in traj.events if ev.kind == "death"}
    eligible = sum(1 for pid, t in births.items() if t <= cutoff and pid in deaths)
    assert len(observed_lifetimes(traj)) == eligible


# ---------------------------------------------------------------------------
# spatial diagnostics
# ---------------------------------------------------------------------------

def test_block_variance_zero_for_a_regular_grid():
    grid = Configuration.from_points(((np.arange(16) + 0.5) / 16)[:, None])
    rows = block_average_diagnostic([grid], SPACE, [1, 2, 4, 8])
    assert all(v == 0.0 for _, v in rows)


def test_block_variance_scales_for_poisson_samples():
    samples = [poisson_configuration(SPACE, 20.0, replicate_seed(SEED, i))
               for i in range(300)]
    rows = dict(block_average_diagnostic(samples, SPACE, [2, 4]))
    # per-sample variance over m blocks has mean (m-1)/m * intensity / v,
    # i.e. intensity * (m - 1) for unit total volume
    assert rows[2] == pytest.approx(20.0, rel=0.25)
    assert rows[4] == pytest.approx(60.0, rel=0.25)


def test_ripley_coincident_pair():
    pair = Configuration.from_points(np.array([[0.4], [0.4]]))
    res = ripley_k([pair], SPACE, [0.05, 0.2])
    assert res.status == "ok"
    assert np.allclose(res.k_hat, 1.0)


def test_ripley_excludes_tiny_samples():
    single = Configuration.from_points(np.array([[0.4]]))
    res = ripley_k([single], SPACE, [0.1])
    assert res.status == "undefined" and res.k_hat is None
    mixed = ripley_k([single, Configuration.from_points(np.array([[0.1], [0.9]]))],
                     SPACE, [0.1])
    assert mixed.samples_used == 1


def test_ripley_matches_poisson_benchmark():
    samples = [poisson_configuration(SPACE, 25.0, replicate_seed(SEED + 1, i))
               for i in range(200)]
    res = ripley_k(samples, SPACE, [0.05, 0.1])
    # on the unit circle the ball of radius r has measure 2r
    assert res.k_hat[0] == pytest.approx(0.10, rel=0.1)
    assert res.k_hat[1] == pytest.approx(0.20, rel=0.1)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
