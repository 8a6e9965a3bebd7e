import math
from collections import namedtuple

import numpy as np
import pytest
from scipy import stats

from sbdsim.analysis import chi_square_gof
from sbdsim.geometry import Configuration, SimulationConfigError, SpaceSpec
from sbdsim.models import ConstantRate, PairwiseRate
from sbdsim.noise import (
    CACHE_SLABS,
    TAG_CLOCK,
    TAG_POISSON,
    TAG_PRESENT,
    TAG_SLAB,
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


Columns = namedtuple("Columns", "s x r u ids")


def columns(rows, dimension):
    """The arrays s (n,), x (n, d), r, u and ids (object) of proposal rows
    (s, r, u, id, x_1, ..., x_d), for numpy references and bitwise checks."""
    return Columns(np.array([row[0] for row in rows], dtype=float),
                   np.array([row[4:] for row in rows], dtype=float).reshape(len(rows), dimension),
                   np.array([row[1] for row in rows], dtype=float),
                   np.array([row[2] for row in rows], dtype=float),
                   np.array([row[3] for row in rows], dtype=object))


def bits(rows):
    """Every bit of a set of proposal rows: each id with its floats' hex."""
    return [(row[3], [v.hex() for v in row[:3] + row[4:]]) for row in rows]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_slab_regeneration_is_bit_identical():
    a = stream()
    b = stream()
    for k in (-3, -1, 0, 5, 117):
        pa, pb = a.slab_points(k), b.slab_points(k)
        assert len(pa) == len(pb)
        assert bits(pa) == bits(pb)


def test_slab_survives_cache_eviction():
    s = stream()
    before = s.slab_points(0)
    for k in range(1, CACHE_SLABS + 1):  # push slab 0 out of the cache
        s.slab_points(k)
    after = s.slab_points(0)
    assert after is not before and len(after) > 0
    assert bits(before) == bits(after)


def test_slab_hash_separates_seeds_and_slabs():
    a, b = stream(), stream(seed=SEED + 1)
    assert a.slab_hash(3) == stream().slab_hash(3)
    assert a.slab_hash(3) != b.slab_hash(3)
    assert a.slab_hash(3) != a.slab_hash(4)


def test_atoms_ordered_within_slab_and_inside_bounds():
    s = stream(slab=2.5)
    for k in (-2, 0, 7):
        pts = s.slab_points(k)
        times = [row[0] for row in pts]
        assert times == sorted(times)
        assert all(k * 2.5 <= t < (k + 1) * 2.5 for t in times)
        assert [row[3] for row in pts] == [f"n{k}:{i}" for i in range(len(pts))]


def test_atoms_between_half_open_window():
    s = stream()
    # stitch two adjacent whole-slab queries and compare against one big one
    left = s.atoms_between(-2.0, 0.0)
    right = s.atoms_between(0.0, 2.0)
    both = s.atoms_between(-2.0, 2.0)
    assert left + right == both
    times = [row[0] for row in both]
    assert times == sorted(times)
    assert all(-2.0 <= t < 2.0 for t in times)
    # inside one slab too, and an empty window is the empty tuple
    part = s.atoms_between(-1.7, -1.2)
    assert part == tuple(row for row in both if -1.7 <= row[0] < -1.2)
    assert s.atoms_between(0.5, 0.5) == ()


def reference_atoms_between(stream, t0, t1):
    """atoms_between as a searchsorted slice of the columns of every slab of
    the range, concatenated."""
    d = stream.space.dimension
    parts = [columns((), d)]
    for k in range(math.floor(t0 / stream.slab_length), math.ceil(t1 / stream.slab_length)):
        slab = columns(stream.slab_points(k), d)
        lo, hi = np.searchsorted(slab.s, (t0, t1))
        parts.append(Columns(*(col[lo:hi] for col in slab)))
    return Columns(*(np.concatenate(cols) for cols in zip(*parts)))


class EdgeStream(NoiseStream):
    """Slab k holds k L + s_local for s_local = 0, L / 3, L / 2 and the float
    just below L, as _generate_slab computes them: away from slab 0 the last
    rounds onto the next edge (k + 1) L."""

    def _generate_slab(self, k):
        L = self.slab_length
        s = k * L + np.array([0.0, L / 3, L / 2, np.nextafter(L, 0.0)])
        return tuple((t, 1.0, 0.0, f"n{k}:{i}", 0.5) for i, t in enumerate(s.tolist()))


@pytest.mark.parametrize("slab", [0.37, 1.0, 2.5])
def test_atoms_between_matches_a_slice_of_every_slab(slab):
    # range ends on slab edges, inside slabs and on atoms, one of them an atom
    # whose k L + s_local rounded onto the next edge; whole inner slabs and
    # sliced edge slabs give the same bits as slicing every slab
    edge = EdgeStream(SEED, SPACE, 4.0, slab_length=slab)
    assert edge.slab_points(-3)[-1][0] == -2 * slab and edge.slab_points(2)[-1][0] == 3 * slab
    for s in (edge, stream(env=6.0, slab=slab)):
        ends = sorted({k * slab + f * slab for k in range(-3, 4) for f in (0.0, 0.2, 0.5, 0.9)}
                      | {row[0] for k in (-3, -1, 0, 2) for row in s.slab_points(k)})
        for i, t0 in enumerate(ends):
            for t1 in ends[i:]:
                got = columns(s.atoms_between(t0, t1), 1)
                want = reference_atoms_between(s, t0, t1)
                assert got.ids.tolist() == want.ids.tolist()
                for name in ("s", "x", "r", "u"):
                    col, ref = getattr(got, name), getattr(want, name)
                    assert (col.dtype, col.shape, col.tobytes()) == \
                        (ref.dtype, ref.shape, ref.tobytes())


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
        slab = s.slab_points(k)
        rs += [row[1] for row in slab]
        us += [row[2] for row in slab]
        xs += [row[4] for row in slab]
    assert stats.kstest(rs, "expon").pvalue > 0.01
    assert stats.kstest(np.array(us) / 6.0, "uniform").pvalue > 0.01
    assert stats.kstest(xs, "uniform").pvalue > 0.01
    assert max(us) <= 6.0 and min(us) >= 0.0


def test_for_model_matches_manual_stream():
    model = PairwiseRate(theta=0.5, interaction_range=0.2)
    via_model = NoiseStream.for_model(model, SPACE, SEED)
    manual = NoiseStream(SEED, SPACE, 1.0)
    assert via_model.slab_hash(0) == manual.slab_hash(0)
    assert via_model.envelope_total == 1.0


def test_stream_validation():
    for slab_length in (0.0, math.inf, math.nan):
        with pytest.raises(SimulationConfigError, match="slab_length"):
            NoiseStream(SEED, SPACE, envelope_total=1.0, slab_length=slab_length)
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
# pinned draws
# ---------------------------------------------------------------------------

GOLDEN_SPACES = {
    1: SPACE,
    2: SPACE2,
    3: SpaceSpec(dimension=3, lengths=(1.0, 2.0, 0.5), intensity=2.0),
}

# (dimension, envelope_total, slab_length, seed, k, atom count, slab_hash):
# slab hashes recorded from the per-atom generator (a fresh keyed Philox per
# slab). Covers both Poisson samplers (mean below and above 10), negative k,
# slab length 0.37 and empty slabs, including a zero envelope, and rows built
# both ways (from Python floats below noise._NUMPY_ROWS atoms, with numpy
# from there on): the last slab holds 963 atoms.
GOLDEN_SLABS = [
    (1, 4.0, 1.0, 123456789, -45, 6,
     "1bc5e86e99bbd18bd78b36211d0fc4fcf2d387b852f16473f5e2cf5184a856cb"),
    (1, 4.0, 1.0, 123456789, -7, 6,
     "1744814b5aeb00147b3038602e469a72cff6bbe09caf21812ada513902f9cc2c"),
    (1, 4.0, 1.0, 123456789, -1, 6,
     "006b283c0515e06801b8bfdde9d2b4beb44d58ad92224e3bde68c85288c8b9ae"),
    (1, 4.0, 1.0, 123456789, 0, 2,
     "d3f25426b9d3e51431f823858f5fcfeb18ead67c9ba961961602ede07a46c0f6"),
    (1, 4.0, 1.0, 123456789, 5, 4,
     "f99254bbc43d7ee7f7edead60d30fc5de43eef24ba7077c1e3062e1de117d5bb"),
    (1, 12.0, 0.37, 987654321, -30, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 12.0, 0.37, 987654321, -2, 4,
     "924f6174aa47210adad0f833d9fe296c62fa551a0f4ea9dacd01d2cfe99eadb6"),
    (1, 12.0, 0.37, 987654321, 0, 1,
     "97759ac2c1b2bb0909f60bc92787862a2b7cf225fc2627618d117b517a7dde31"),
    (1, 12.0, 0.37, 987654321, 4, 6,
     "37b6994e47ea21c2fb6c7214f7cc227664e9ac42323ce15d6cf38dd1559d8646"),
    (1, 30.0, 1.0, 55555, -3, 27,
     "24119fa2dd984084dda5e20412b9f52f1fd93b1cba5e136643f7031f08f50d7f"),
    (1, 30.0, 1.0, 55555, 0, 29,
     "bba5e005f744784e4a31ff02d30f277b396e08d5514eb336dd37479170e85c08"),
    (2, 3.0, 1.0, 31415926, -20, 3,
     "3ee0ec2bd77e3cdec2a0f08a0566ff28f07ee5aa9549ac894571e448b5295c92"),
    (2, 3.0, 1.0, 31415926, -1, 4,
     "59b9d3da3f521431c86c453cf874f45e433f8f8da13bc983155f909a2e3fb2e7"),
    (2, 3.0, 1.0, 31415926, 0, 4,
     "231545fa90c2f1b277966438debcd2ab2ae95ae5503974326a906bff830435be"),
    (2, 3.0, 1.0, 31415926, 2, 3,
     "4d0ad0757e8996b4e387e8201066d5ee958f604eb0e708f17436e5919fc8016a"),
    (2, 9.0, 0.37, 27182818, -13, 2,
     "5dd8878c6b8acd1b415f9968a7c801ddeed7f9c031467b12fde55499aa5ef801"),
    (2, 9.0, 0.37, 27182818, -1, 2,
     "00b2c0b7c74504750df2bb359aef782dada18feb352c2b24ea56284cb09f3b8a"),
    (2, 9.0, 0.37, 27182818, 0, 5,
     "05529e95008c0fea9afddb9b40350a93390d5843abb132b75616894bca518d02"),
    (2, 9.0, 0.37, 27182818, 3, 2,
     "181c3094c19914925f0c9568d20c1ab923b3ddd89a37148dd753efebab0713c7"),
    (3, 2.5, 1.0, 161803398, -9, 2,
     "f9230c62176bfbbad5fa882ebd2bdf8755a8c2c5437970afd3281be1fac7cdfd"),
    (3, 2.5, 1.0, 161803398, -1, 2,
     "7cfb3718a84359f33846d38c2d6b152a3ea4b5fbe40ad7e2d0748759a851e595"),
    (3, 2.5, 1.0, 161803398, 0, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 2.5, 1.0, 161803398, 1, 2,
     "2b5ba172a25f4bcd43a69302ec111feebd71e7023e02b50f7aa3dd763bfa2863"),
    (3, 10.0, 0.37, 141421356, -40, 2,
     "e88d5a82691fe3ef67c515e3f8715a242a3c2a59f8c8c05f415d425d56322ce9"),
    (3, 10.0, 0.37, 141421356, -3, 2,
     "d772b70a7b4d082454864bce60c1cb49db3a07c5d634d6cd15c05067931e5ac2"),
    (3, 10.0, 0.37, 141421356, 0, 5,
     "780fb821e828c1a97d63479fbfd05235c3405825351398624fc6f8ee9d78fa32"),
    (3, 10.0, 0.37, 141421356, 5, 3,
     "dcedafdd2be17300715c887c32051e8aaef0ff2d19505a1065bb92c2d9450dfb"),
    (1, 0.6, 0.37, 11, -6, 1,
     "574e6c7d21511d8b54f2d17b4d285e1a862c46fa63cdb1c60c7ef377c93a1029"),
    (1, 0.6, 0.37, 11, -5, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 0.6, 0.37, 11, -4, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 0.6, 0.37, 11, -3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 0.6, 0.37, 11, -2, 1,
     "072c5db4d55b98c0d2a70feb06c2ef418e6729f68e5cf81a393bec7f07671ba0"),
    (1, 0.6, 0.37, 11, -1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 0.6, 0.37, 11, 0, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 0.6, 0.37, 11, 1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 0.6, 0.37, 11, 2, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 0.0, 1.0, 11, -1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 0.0, 1.0, 11, 0, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 1000.0, 1.0, 27182818, -1, 963,
     "46188a74691db5489270f8a942ac8c643d30c5b7ad51ce61757986779f83c85e"),
]

@pytest.mark.parametrize("dim,env,slab,seed,k,n,digest", GOLDEN_SLABS)
def test_slab_hashes_and_ids_match_pinned_draws(dim, env, slab, seed, k, n, digest):
    # any change to the draw order, the key derivation or the byte layout
    # of a slab changes these hashes
    s = NoiseStream(seed, GOLDEN_SPACES[dim], env, slab_length=slab)
    assert s.slab_hash(k) == digest
    pts = s.slab_points(k)
    assert len(pts) == n
    assert [row[3] for row in pts] == [f"n{k}:{i}" for i in range(n)]


def test_proposals_are_tuples_that_a_reread_shares():
    # a cached slab is shared by every later reader, and the run loop hands
    # out its rows and their coordinate tuples as they are: a slab, a window,
    # D(0) and a CFTP window are tuples of tuples (s, r, u, id, x_1, x_2) of
    # Python floats and a str, which no reader can change
    from sbdsim.cftp import dominating_window

    s = stream(env=6.0, space=SPACE2)
    slab = s.slab_points(0)
    assert s.slab_points(0) is slab
    sets = (slab, s.atoms_between(-0.5, 1.5), s.present_points(1.3),
            dominating_window(s, -2.0, 1.3)[1])
    for rows in sets:
        assert type(rows) is tuple and len(rows) > 0
        for row in rows:
            assert type(row) is tuple and len(row) == 6
            assert [type(v) for v in row] == [float, float, float, str, float, float]
    assert s.slab_points(0) is slab and s.present_points(1.3) is sets[2]


def test_present_points_follow_the_stationary_law():
    # the dominating process at time 0: a Poisson(envelope / delta) count,
    # uniform locations and thinning levels, unit-exponential ages a = -b delta
    # of the birth times b = s and residuals e = r - a, every point alive at
    # 0; pure in the seed and read-only, like a slab. (At 500 seeds the
    # residual KS read p = 0.0024; at 5000, p = 0.22, and 0.09 and 0.31 on
    # two other seed bases.)
    env, delta0 = 6.0, 1.6
    counts, ages, residuals = [], [], []
    for i in range(5000):
        s = stream(env=env, seed=replicate_seed(SEED, i), space=SPACE2)
        present = s.present_points(delta0)
        b, x, r, u, ids = columns(present, 2)
        if i < 20:
            assert s.present_points(delta0) is present
            assert ids.tolist() == [f"d{j}" for j in range(len(b))]
            again = stream(env=env, seed=replicate_seed(SEED, i), space=SPACE2).present_points(delta0)
            assert bits(again) == bits(present)
        assert x.shape == (len(b), 2) and len(r) == len(u) == len(b)
        assert np.all((x >= 0) & (x < SPACE2.lengths_array()))
        assert np.all((u >= 0) & (u <= s.envelope_total / s.space.beta_total))
        assert np.all(b <= 0) and np.all(b + r / delta0 > 0)
        counts.append(len(b))
        ages.append(-b * delta0)
        residuals.append(r + b * delta0)
    probs = {k: float(stats.poisson.pmf(k, env / delta0)) for k in range(40)}
    assert chi_square_gof(counts, probs).pvalue > 0.01
    assert stats.kstest(np.concatenate(ages), "expon").pvalue > 0.01
    assert stats.kstest(np.concatenate(residuals), "expon").pvalue > 0.01


def reference_present_points(s, death_rate):
    """present_points drawn from a freshly keyed generator, in the documented order."""
    rng = keyed_generator(s.master_seed, TAG_PRESENT)
    mean = s.envelope_total / death_rate
    n = int(rng.poisson(mean)) if mean > 0 else 0
    d = s.space.dimension
    xs = s.space.lengths_array() * rng.random(n * d).reshape(n, d)
    us = s.envelope_total / s.space.beta_total * rng.random(n)
    ages = rng.exponential(1.0, size=n)
    residuals = rng.exponential(1.0, size=n)
    return -ages / death_rate, xs, ages + residuals, us


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_present_points_match_a_freshly_keyed_generator(dimension):
    # the stream re-keys its own Philox for D(0); the bits must be those of
    # keyed_generator(seed, TAG_PRESENT), and the slabs drawn before and
    # after from the same generator must not move. A small and a large
    # envelope: rows from Python floats and rows from numpy.
    space = SpaceSpec(dimension=dimension, lengths=(1.0, 2.0, 0.5)[:dimension],
                      intensity=2.0)
    for env, seeds in ((7.0, 12), (900.0, 3)):
        for i in range(seeds):
            seed = replicate_seed(SEED, i)
            s = stream(env=env, seed=seed, space=space)
            before = [s.slab_hash(k) for k in (-2, -1)]
            for delta0 in (1.0, 1.7):
                got = columns(s.present_points(delta0), dimension)
                want = reference_present_points(s, delta0)
                assert all(np.array_equal(p, q)
                           for p, q in zip((got.s, got.x, got.r, got.u), want))
                assert got.s.dtype == want[0].dtype and got.x.shape == want[1].shape
            after = [s.slab_hash(k) for k in (-2, -1, 0, 3)]
            fresh = stream(env=env, seed=seed, space=space)
            assert after[:2] == before
            assert after == [fresh.slab_hash(k) for k in (-2, -1, 0, 3)]


def reference_slab(s, k):
    """Slab k drawn from a freshly keyed generator, in the documented order."""
    rng = keyed_generator(s.master_seed, TAG_SLAB, k)
    mean = s.envelope_total * s.slab_length
    n = int(rng.poisson(mean)) if mean > 0 else 0
    d = s.space.dimension
    draws = rng.random(n * (1 + d))
    times = s.slab_length * draws[:n]
    xs = s.space.lengths_array() * draws[n:].reshape(n, d)
    rs = rng.exponential(1.0, size=n)
    us = s.envelope_total / s.space.beta_total * rng.random(n)
    order = times.argsort(kind="stable")
    return k * s.slab_length + times[order], xs[order], rs[order], us[order]


def test_streams_sharing_a_generator_draw_as_if_alone():
    # streams of one (space, envelope, slab length) share their generator
    # and its key; reads interleaved across seeds must each give the bits of
    # a freshly keyed generator, and a stream of other parts has a generator
    # of its own. A small and a large envelope: rows from Python floats and
    # rows from numpy.
    for env in (5.0, 900.0):
        a, b = stream(env=env, seed=SEED, space=SPACE2), stream(env=env, seed=SEED + 1,
                                                                space=SPACE2)
        assert a._rng is b._rng and a._key is b._key
        assert stream(env=env + 0.5, space=SPACE2)._rng is not a._rng
        for i, (s, k) in enumerate([(a, 0), (b, 0), (a, -3), (b, 2), (a, 2), (b, -3)]):
            got = columns(s.slab_points(k), 2)
            assert all(np.array_equal(p, q) for p, q in
                       zip((got.s, got.x, got.r, got.u), reference_slab(s, k)))
            other, delta0 = (b if s is a else a), 1.0 + 0.1 * i  # a new D(0) each time
            present = columns(other.present_points(delta0), 2)
            assert all(np.array_equal(p, q) for p, q in
                       zip((present.s, present.x, present.r, present.u),
                           reference_present_points(other, delta0)))


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


def test_initial_clocks_exponential():
    eta = poisson_configuration(SPACE, 600.0, SEED)
    timed = initial_clocks(eta, SEED + 1, birth_time=-2.0)
    clocks = [mark for _, (_, mark, _) in timed.rows()]
    assert min(clocks) > 0
    assert stats.kstest(clocks, "expon").pvalue > 0.01
    assert all(born == -2.0 for _, (_, _, born) in timed.rows())
    # same ids and coordinates as the untimed configuration
    assert set(timed.ids()) == set(eta.ids())
    redo = initial_clocks(eta, SEED + 1, birth_time=-2.0)
    assert [mark for _, (_, mark, _) in redo.rows()] == clocks


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_initial_state_draws_match_the_per_point_loops(dimension):
    # one uniform draw of shape (n, d) and one exponential draw of size n
    # consume the generator as the per-point calls did, bit for bit
    space = SpaceSpec(dimension=dimension, lengths=(1.0, 0.5, 2.0)[:dimension])
    L = space.lengths_array()
    for i in range(50):
        seed = replicate_seed(SEED, i)
        rng = keyed_generator(seed, TAG_POISSON)
        n = int(rng.poisson(40.0 * space.volume))
        expect = Configuration()
        for j in range(n):
            expect.add(f"init{j}", rng.uniform(0.0, L))
        eta = poisson_configuration(space, 40.0, seed)
        assert list(eta.ids()) == list(expect.ids())
        assert eta.points_array().tobytes() == expect.points_array().tobytes()

        rng = keyed_generator(seed + 1, TAG_CLOCK)
        clocks = {pid: float(rng.exponential(1.0)) for pid in sorted(eta.ids())}
        timed = initial_clocks(eta, seed + 1)
        assert list(timed.ids()) == list(clocks)
        assert [mark for _, (_, mark, _) in timed.rows()] == list(clocks.values())
        points = dict(eta.rows())
        assert all(p == points[pid][0] for pid, (p, _, _) in timed.rows())


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
