"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured quantities, so
a full run doubles as a short report. Seeds are fixed; every statistical
threshold was chosen with a comfortable margin on an independent pilot run.
The whole file takes about two minutes.
"""

import math
from collections import Counter

import numpy as np
from scipy import stats

from sbdsim.analysis import (
    OracleModel,
    chi_square_gof,
    empirical_count_table,
    gibbs_table,
    lifetime_ks_test,
    mecke_test,
    oracle_stationary,
    tv_distance,
    two_sample_count_test,
)
from sbdsim.cftp import (
    coupling_decay_curve,
    extremal_lookback_counts,
    perfect_sample,
    sandwich_run,
)
from sbdsim.engine import coupled_simulate, simulate
from sbdsim.geometry import Configuration, SpaceSpec, TimedConfiguration
from sbdsim.models import (
    AreaInteractionRate,
    CellOccupancyRate,
    ConstantDeath,
    ConstantRate,
    PairwiseRate,
    contraction_constant,
    detailed_balance_residual,
)
from sbdsim.noise import NoiseStream, initial_clocks, poisson_configuration, replicate_seed

UNIT_TORUS_I5 = SpaceSpec(dimension=1, lengths=(1.0,), intensity=5.0)
UNIT_TORUS_I1 = SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.0)
CONSTANT_UNIT = ConstantRate(rate=1.0)

PAIRWISE_M_EXACT = 2 * 0.2 * (1 - math.exp(-0.5))  # 0.15738773611494664


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def poisson_probs(mean, top):
    return {k: float(stats.poisson.pmf(k, mean)) for k in range(top)}


# ---------------------------------------------------------------------------

def test_criterion_01_poisson_stationarity():
    cftp_counts = [perfect_sample(CONSTANT_UNIT, UNIT_TORUS_I5,
                                  replicate_seed(11711, i)).count
                   for i in range(5000)]
    p_cftp = chi_square_gof(cftp_counts, poisson_probs(5.0, 30)).pvalue

    fwd_counts = []
    for i in range(5000):
        stream = NoiseStream.for_model(CONSTANT_UNIT, UNIT_TORUS_I5,
                                       replicate_seed(11712, i))
        fwd_counts.append(len(simulate(CONSTANT_UNIT, UNIT_TORUS_I5,
                                       TimedConfiguration(), 20.0, stream).final))
    p_fwd = chi_square_gof(fwd_counts, poisson_probs(5.0, 30)).pvalue

    report(1, p_cftp > 0.01 and p_fwd > 0.01,
           f"counts vs Poisson(5): perfect-sampler p = {p_cftp:.3f}, "
           f"forward-run p = {p_fwd:.3f} (both need > 0.01)")


def test_criterion_02_occupancy_oracle_equivalence():
    theta = np.array([[0.6, 0.3, 0.0], [0.3, 0.6, 0.3], [0.0, 0.3, 0.6]])
    model = CellOccupancyRate(cell_counts=(3,), theta=theta, base_rate=1.0)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.5)
    oracle = OracleModel.from_model(model, space, caps=(20, 20, 20))
    table = oracle_stationary(oracle)
    tv_routes = tv_distance(table, gibbs_table(oracle))

    fwd = []
    for i in range(10_000):
        stream = NoiseStream.for_model(model, space, replicate_seed(11713, i))
        fwd.append(simulate(model, space, TimedConfiguration(), 20.0,
                            stream).final)
    tv_fwd = tv_distance(empirical_count_table(fwd, model, space), table)

    cftp = [perfect_sample(model, space, replicate_seed(11714, i)).configuration
            for i in range(10_000)]
    tv_cftp = tv_distance(empirical_count_table(cftp, model, space), table)

    report(2, tv_routes < 1e-10 and tv_fwd < 0.03 and tv_cftp < 0.03,
           f"TV(linear solve, closed form) = {tv_routes:.2e} (< 1e-10), "
           f"TV(forward 1e4, oracle) = {tv_fwd:.4f}, "
           f"TV(perfect 1e4, oracle) = {tv_cftp:.4f} (both < 0.03)")


def test_criterion_03_contraction_constant():
    model = PairwiseRate(theta=0.5, interaction_range=0.2)
    est = contraction_constant(model, UNIT_TORUS_I1, 2_000_001)
    diff = abs(est.value - PAIRWISE_M_EXACT)
    report(3, diff < 1e-6,
           f"M = {est.value:.9f} vs closed form {PAIRWISE_M_EXACT:.9f}, "
           f"|diff| = {diff:.2e} (< 1e-6)")


def test_criterion_04_exponential_coupling_decay():
    extra = Configuration.from_points(np.linspace(0.05, 0.95, 10)[:, None])
    dec_const = coupling_decay_curve(ConstantRate(rate=4.0), UNIT_TORUS_I1,
                                     extra, horizon=5.0,
                                     replicates=1000, master_seed=11804)
    pairwise = PairwiseRate(theta=0.5, interaction_range=0.2)
    dec_pair = coupling_decay_curve(pairwise, UNIT_TORUS_I1,
                                    extra, horizon=5.0, replicates=400,
                                    master_seed=11805)
    bound = -(1 - PAIRWISE_M_EXACT) + 0.1
    ok = abs(dec_const.fitted_rate + 1.0) < 0.1 and dec_pair.fitted_rate <= bound
    report(4, ok,
           f"constant-model decay rate = {dec_const.fitted_rate:.3f} (-1.0 +/- 0.1), "
           f"pairwise decay rate = {dec_pair.fitted_rate:.3f} (<= {bound:.3f})")


def test_criterion_05_detailed_balance_residuals():
    rng = np.random.default_rng(11805)
    pairwise = PairwiseRate(theta=0.5, interaction_range=0.2)
    worst = 0.0
    for _ in range(10_000):
        eta = Configuration.from_points(rng.uniform(0, 1, size=(rng.integers(0, 9), 1)))
        x = rng.uniform(0, 1, size=1)
        worst = max(worst, abs(detailed_balance_residual(
            pairwise, UNIT_TORUS_I1, x, eta).residual))

    area = AreaInteractionRate(rho=2.0, gamma=1.5, grain_radius=0.05)
    n_bad = 0
    for _ in range(10_000):
        eta = Configuration.from_points(rng.uniform(0, 1, size=(rng.integers(0, 7), 1)))
        x = rng.uniform(0, 1, size=1)
        if not detailed_balance_residual(area, UNIT_TORUS_I1, x, eta).ok:
            n_bad += 1

    report(5, worst < 1e-12 and n_bad == 0,
           f"pairwise worst residual = {worst:.2e} (< 1e-12) over 1e4 states, "
           f"area-interaction outside reported tolerance: {n_bad} of 1e4")


def test_criterion_06_attractive_containment():
    model = AreaInteractionRate(rho=3.0, gamma=2.0, grain_radius=0.05)
    stream = NoiseStream.for_model(model, UNIT_TORUS_I5, 11806)
    upper0 = initial_clocks(poisson_configuration(UNIT_TORUS_I5, 15.0, 11806), 11807)
    low, up = coupled_simulate(model, UNIT_TORUS_I5, TimedConfiguration(), upper0,
                               2000.0, stream)  # asserts containment per decision
    n_events = len(low.events) + len(up.events)

    # independent replay: walk both logs and recheck multiset containment
    # after every batch of simultaneous events
    state_low: Counter = Counter()
    state_up = Counter(x.tobytes() for _, x in up.initial.items())
    merged = sorted([(ev.time, 0, ev) for ev in low.events]
                    + [(ev.time, 1, ev) for ev in up.events],
                    key=lambda r: r[0])
    violations = 0
    i = 0
    while i < len(merged):
        t = merged[i][0]
        while i < len(merged) and merged[i][0] == t:
            _, side, ev = merged[i]
            state = state_low if side == 0 else state_up
            key = np.array(ev.x, dtype=float).tobytes()
            if ev.kind == "birth":
                state[key] += 1
            else:
                state[key] -= 1
                if state[key] == 0:
                    del state[key]
            i += 1
        if state_low - state_up:
            violations += 1

    report(6, n_events >= 100_000 and violations == 0,
           f"{n_events} events on coupled attractive paths, "
           f"replayed containment violations = {violations} (exact)")


def test_criterion_07_residual_clock_law():
    model = ConstantRate(rate=30.0)
    stream = NoiseStream.for_model(model, UNIT_TORUS_I1, 11715)
    traj = simulate(model, UNIT_TORUS_I1, TimedConfiguration(), 400.0, stream)
    ks = lifetime_ks_test(traj)

    fast = ConstantRate(rate=30.0, death=ConstantDeath(2.0))
    stream2 = NoiseStream.for_model(fast, UNIT_TORUS_I1, 11716)
    traj2 = simulate(fast, UNIT_TORUS_I1, TimedConfiguration(), 200.0, stream2)
    births = {ev.point_id: ev.time for ev in traj2.events if ev.kind == "birth"}
    lifetimes = np.array([ev.time - births[ev.point_id]
                          for ev in traj2.events if ev.kind == "death"])
    dev = abs(lifetimes.mean() - 0.5)
    tol = 3 * lifetimes.std(ddof=1) / math.sqrt(len(lifetimes))

    report(7, ks.n >= 10_000 and ks.pvalue > 0.01 and dev <= tol,
           f"KS of {ks.n} lifetimes vs Exp(1): p = {ks.pvalue:.3f} (> 0.01); "
           f"death-rate-2 mean lifetime off by {dev:.4f} (<= 3 s.e. = {tol:.4f})")


def test_criterion_08_mecke_identity():
    zs = {}
    for selector in ("box_mass", "box_vacancy"):
        res = mecke_test(UNIT_TORUS_I5, 5.0, selector, replicates=10_000, seed=11808)
        zs[selector] = res.z
    report(8, all(z <= 3.0 for z in zs.values()),
           f"paired z-scores at 1e4 replicates: box_mass = {zs['box_mass']:.2f}, "
           f"box_vacancy = {zs['box_vacancy']:.2f} (both <= 3)")


def test_criterion_09_noise_reuse_and_lookback_invariance():
    # the same master seed must expose identical slabs regardless of how deep
    # the doubling went before reading them
    model = PairwiseRate(theta=0.5, interaction_range=0.2)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=3.0)
    stream_a = NoiseStream.for_model(model, space, 11900)
    sandwich_run(model, space, 1.0, stream_a)
    stream_b = NoiseStream.for_model(model, space, 11900)
    sandwich_run(model, space, 4.0, stream_b)
    hashes_match = all(stream_a.slab_hash(k) == stream_b.slab_hash(k)
                       for k in range(-4, 0))

    a = [perfect_sample(CONSTANT_UNIT, UNIT_TORUS_I5, replicate_seed(11901, i),
                        initial_lookback=1.0).count for i in range(3000)]
    b = [perfect_sample(CONSTANT_UNIT, UNIT_TORUS_I5, replicate_seed(11902, i),
                        initial_lookback=4.0).count for i in range(3000)]
    p = two_sample_count_test(a, b).pvalue

    report(9, hashes_match and p > 0.01,
           f"slab hashes identical across doubling depths: {hashes_match}; "
           f"two-sample count test for initial lookback 1 vs 4: p = {p:.3f} (> 0.01)")


def test_criterion_10_extremal_laws_squeeze():
    model = AreaInteractionRate(rho=1.5, gamma=2.0, grain_radius=0.05)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=2.0)
    hs, mins, maxs = extremal_lookback_counts(model, space,
                                              [1.0, 2.0, 4.0, 10.0, 20.0],
                                              replicates=300, master_seed=11810)
    min_monotone = bool(np.all(np.diff(mins, axis=1) >= 0))
    max_monotone = bool(np.all(np.diff(maxs, axis=1) <= 0))
    gap = maxs[:, -1].mean() - mins[:, -1].mean()
    se = math.sqrt(maxs[:, -1].var(ddof=1) / len(maxs)
                   + mins[:, -1].var(ddof=1) / len(mins))
    ok = min_monotone and max_monotone and abs(gap) <= max(3 * se, 1e-12)
    report(10, ok,
           f"pathwise monotone in horizon: from-empty {min_monotone}, "
           f"from-dominating {max_monotone}; horizon-20 mean gap = {gap:.4f} "
           f"(<= 3 combined s.e. = {3 * se:.4f})")
