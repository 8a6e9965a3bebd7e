import math

import numpy as np
import pytest
from scipy import stats

from sbdsim.geometry import SimulationConfigError, SpaceSpec
from sbdsim.models import ConstantRate, PairwiseRate
from sbdsim.noise import (
    NoiseStream,
    initial_clocks,
    keyed_generator,
    mix64,
    poisson_configuration,
    replicate_seed,
)

SPACE = SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.0)
SPACE2 = SpaceSpec(dimension=2, lengths=(2.0, 0.5), intensity=3.0)

SEED = 123456789


def stream(env=4.0, seed=SEED, space=SPACE, slab=1.0, **kw):
    return NoiseStream(seed, space, env, slab_length=slab, **kw)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_slab_regeneration_is_bit_identical():
    a = stream()
    b = stream()
    for k in (-3, -1, 0, 5, 117):
        pa, pb = a.slab_points(k), b.slab_points(k)
        assert len(pa) == len(pb)
        for u, v in zip(pa, pb):
            assert u.s == v.s and u.r == v.r and u.u == v.u
            assert np.array_equal(u.x, v.x)
            assert u.atom_id == v.atom_id


def test_slab_survives_cache_eviction():
    s = stream(cache_slabs=2)
    before = [(p.s, p.r, p.u, tuple(p.x)) for p in s.slab_points(0)]
    for k in range(1, 10):  # push slab 0 out of the cache
        s.slab_points(k)
    after = [(p.s, p.r, p.u, tuple(p.x)) for p in s.slab_points(0)]
    assert before == after


def test_slab_hash_separates_seeds_and_slabs():
    a, b = stream(), stream(seed=SEED + 1)
    assert a.slab_hash(3) == stream().slab_hash(3)
    assert a.slab_hash(3) != b.slab_hash(3)
    assert a.slab_hash(3) != a.slab_hash(4)


def test_atoms_ordered_within_slab_and_inside_bounds():
    s = stream(slab=2.5)
    for k in (-2, 0, 7):
        pts = s.slab_points(k)
        times = [p.s for p in pts]
        assert times == sorted(times)
        assert all(k * 2.5 <= t < (k + 1) * 2.5 for t in times)
        assert all(p.atom_id == f"n{k}:{i}" for i, p in enumerate(pts))


def test_atoms_between_half_open_window():
    s = stream()
    # stitch two adjacent whole-slab queries and compare against one big one
    left = list(s.atoms_between(-2.0, 0.0))
    right = list(s.atoms_between(0.0, 2.0))
    both = list(s.atoms_between(-2.0, 2.0))
    assert [a.atom_id for a in left] + [a.atom_id for a in right] == \
        [a.atom_id for a in both]
    times = [a.s for a in both]
    assert times == sorted(times)
    assert all(-2.0 <= t < 2.0 for t in times)


# ---------------------------------------------------------------------------
# marginal laws
# ---------------------------------------------------------------------------

def test_slab_counts_follow_poisson_mean():
    env, slab = 4.0, 1.5
    s = stream(env=env, slab=slab)
    counts = np.array([len(s.slab_points(k)) for k in range(400)])
    mean = env * slab
    se = math.sqrt(mean / len(counts))
    assert abs(counts.mean() - mean) < 4 * se
    # variance of a Poisson count equals its mean
    assert abs(counts.var() - mean) < 1.2


def test_marks_have_the_right_marginals():
    s = stream(env=6.0)
    rs, us, xs = [], [], []
    for k in range(300):
        for p in s.slab_points(k):
            rs.append(p.r)
            us.append(p.u)
            xs.append(p.x[0])
    assert stats.kstest(rs, "expon").pvalue > 0.01
    assert stats.kstest(np.array(us) / 6.0, "uniform").pvalue > 0.01
    assert stats.kstest(xs, "uniform").pvalue > 0.01
    assert max(us) <= 6.0 and min(us) >= 0.0


def test_envelope_sup_value_constant_case():
    s = NoiseStream(SEED, SPACE2, envelope_total=6.0)
    # total 6 over a window of volume 1.0 at intensity 3 -> beta_total = 3
    assert s.envelope_sup_value() == pytest.approx(2.0)


def test_for_model_matches_manual_stream():
    model = PairwiseRate(theta=0.5, interaction_range=0.2)
    via_model = NoiseStream.for_model(model, SPACE, SEED)
    manual = NoiseStream(SEED, SPACE, 1.0)
    assert via_model.slab_hash(0) == manual.slab_hash(0)
    assert via_model.envelope_total == 1.0


def test_stream_validation():
    with pytest.raises(SimulationConfigError):
        NoiseStream(SEED, SPACE, envelope_total=1.0, slab_length=0.0)
    with pytest.raises(SimulationConfigError):
        NoiseStream(SEED, SPACE, envelope_total=-1.0)


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

def test_mix64_is_a_bijection_sample():
    vals = {mix64(i) for i in range(10_000)}
    assert len(vals) == 10_000
    assert all(0 <= v < 2 ** 64 for v in vals)
    assert mix64(0) != 0


def test_replicate_seeds_distinct_and_stable():
    seeds = [replicate_seed(SEED, i) for i in range(2_000)]
    assert len(set(seeds)) == 2_000
    assert seeds[7] == replicate_seed(SEED, 7)
    assert replicate_seed(SEED, 0) != replicate_seed(SEED + 1, 0)


def test_keyed_generator_independent_tags():
    g1 = keyed_generator(SEED, 0x1111, 5)
    g2 = keyed_generator(SEED, 0x2222, 5)
    g1b = keyed_generator(SEED, 0x1111, 5)
    a, b, c = g1.random(4), g2.random(4), g1b.random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# csv dump
# ---------------------------------------------------------------------------

def test_dump_csv_round_trips(tmp_path):
    s = stream(env=3.0, space=SPACE2)
    path = tmp_path / "atoms.csv"
    s.dump_csv(path, 0, 2)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,s,x1,x2,r,u"
    expect = [p for k in range(3) for p in s.slab_points(k)]
    assert len(lines) - 1 == len(expect)
    row = lines[1].split(",")
    first = expect[0]
    assert int(row[0]) == 0
    assert float(row[1]) == first.s
    assert float(row[2]) == first.x[0] and float(row[3]) == first.x[1]
    assert float(row[4]) == first.r and float(row[5]) == first.u


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def test_poisson_configuration_constant_intensity():
    counts = [len(poisson_configuration(SPACE2, 10.0, replicate_seed(SEED, i)))
              for i in range(300)]
    mean = 10.0 * 1.0  # density 10 on a window of Lebesgue volume 1.0
    se = math.sqrt(mean / len(counts))
    assert abs(np.mean(counts) - mean) < 4 * se
    again = poisson_configuration(SPACE2, 10.0, replicate_seed(SEED, 0))
    assert poisson_configuration(SPACE2, 10.0, replicate_seed(SEED, 0)) == again


def test_poisson_configuration_callable_intensity():
    dens = lambda x: 8.0 if x[0] < 0.5 else 0.0
    eta = poisson_configuration(SPACE, dens, SEED)
    assert len(eta) > 0
    assert all(x[0] < 0.5 for _, x in eta.items())


def test_initial_clocks_exponential():
    eta = poisson_configuration(SPACE, 600.0, SEED)
    timed = initial_clocks(eta, SEED + 1, birth_time=-2.0)
    clocks = [e.clock for _, e in timed.items()]
    assert min(clocks) > 0
    assert stats.kstest(clocks, "expon").pvalue > 0.01
    assert all(e.birth_time == -2.0 for _, e in timed.items())
    # same ids and coordinates as the untimed configuration
    assert set(timed.ids()) == set(eta.ids())
    redo = initial_clocks(eta, SEED + 1, birth_time=-2.0)
    assert [e.clock for _, e in redo.items()] == clocks


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
