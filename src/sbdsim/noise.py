"""Slab-indexed driving noise with bit-identical regeneration.

The driving randomness of a run is one marked Poisson ensemble of birth
proposals (x, s, r, u): a location x, uniform under the reference measure; a
time s; a unit-exponential death mark r; and a thinning level u, uniform on
[0, Lambda] for the model's constant envelope Lambda. Proposals with u above
Lambda would be rejected by every configuration, so they are never drawn.
Time is split into slabs [k L, (k+1) L). The atoms of slab k are a pure
function of (master_seed, k): a stream owns one Philox generator and re-keys
it to (mix64(seed ^ TAG_SLAB), mix64(k)) with counter 0 for each slab, the
state keyed_generator(seed, TAG_SLAB, k) starts from, so any slab can be
regenerated and hashes identically every time.

Forward runs read s as the proposal time (atoms_between). Coupling from the
past reads the slabs at negative k by death time: its dominating process
(births at rate envelope_total, a point with mark r lives r / delta) is a
stationary M/M/infinity process, which is time-reversible, so the (death
time, lifetime) pairs of its points have the law of the (s, r / delta) pairs
of the forward stream. A slab atom read that way was born at s - r / delta,
and present_points draws the points alive at time 0 under a tag of their
own. It is the same Poisson random measure indexed by death time: one
proposal stream, in law.

Every set of proposals is a tuple of rows (s, r, u, id, x_1, ..., x_d) of
Python floats and an id string, in time order. A slab, a forward window,
D(0) and a CFTP window (cftp.dominating_window) are all such tuples, which
no reader changes, and engine.run_paths reads their rows as they are.
"""

from __future__ import annotations

import functools
import hashlib
import math
from bisect import bisect_left
from collections import OrderedDict
from itertools import chain
from operator import itemgetter

import numpy as np
from numpy.typing import NDArray

from .geometry import Configuration, SimulationConfigError, SpaceSpec

_MASK64 = (1 << 64) - 1

# Domain-separation tags for the different consumers of the master seed.
TAG_SLAB = 0x5B5B5B5B5B5B5B5B
TAG_CLOCK = 0xC10C_C10C_C10C_C10C
TAG_POISSON = 0x9019_9019_9019_9019
TAG_PRESENT = 0xD0D0_D0D0_D0D0_D0D0

# slabs a stream keeps; a doubling CFTP draw rereads its newest slabs
CACHE_SLABS = 256


def mix64(v: int) -> int:
    """splitmix64 finalizer; decorrelates adjacent integer keys."""
    v = (v + 0x9E3779B97F4A7C15) & _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (v ^ (v >> 31)) & _MASK64


def _philox_key(master_seed: int, tag: int, index: int) -> NDArray[np.uint64]:
    return np.array([mix64((master_seed ^ tag) & _MASK64), mix64(index & _MASK64)],
                    dtype=np.uint64)


def keyed_generator(master_seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Philox generator keyed on (master_seed, tag, index); counter-based, so
    streams for distinct keys are independent and regenerable."""
    return np.random.Generator(np.random.Philox(key=_philox_key(master_seed, tag, index)))


def replicate_seed(master_seed: int, index: int) -> int:
    """Derived master seed for replicate number `index` of a Monte Carlo run."""
    return mix64((master_seed & _MASK64) ^ mix64((index + 0x51AB) & _MASK64))


# A set of proposals: one row (s, r, u, id, x_1, ..., x_d) per atom, in time order.
Proposals = tuple[tuple, ...]
_time = itemgetter(0)

_ZERO4 = np.zeros(4, dtype=np.uint64)


def _fresh_philox_state(key: NDArray[np.uint64]) -> dict:
    """The state a Philox generator keyed on `key` starts from (counter 0)."""
    return {"bit_generator": "Philox", "state": {"counter": _ZERO4, "key": key},
            "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


@functools.lru_cache(maxsize=16)
def _stream_parts(space: SpaceSpec, envelope_total: float, slab_length: float):
    """A stream's slab mean, side lengths, thinning bound and Philox generator
    (every read sets its state in full): none needs the seed."""
    lengths = space.lengths_array()
    lengths.setflags(write=False)
    vol = space.beta_total
    return (envelope_total * slab_length, lengths, envelope_total / vol if vol > 0 else 0.0,
            np.random.Generator(np.random.Philox(key=_ZERO4[:2])))


class NoiseStream:
    """Deterministic slab-indexed proposal stream for one master seed.

    envelope_total is the integral of the envelope against the reference
    measure; the per-slab proposal count is Poisson(envelope_total * slab
    length). The envelope is constant, so locations are uniform under the
    reference measure and thinning levels uniform below envelope_sup_value().
    Streams of one (space, envelope_total, slab length) share one generator,
    which each re-keys for every slab and D(0) it draws, so streams must not
    be used from more than one thread.
    """

    def __init__(self, master_seed: int, space: SpaceSpec, envelope_total: float,
                 slab_length: float = 1.0):
        if not (slab_length > 0):
            raise SimulationConfigError(f"slab length must be > 0, got {slab_length}")
        if not (envelope_total >= 0) or not math.isfinite(envelope_total):
            raise SimulationConfigError(f"envelope_total must be finite and >= 0, got {envelope_total}")
        self.master_seed = int(master_seed)
        self.space = space
        self.envelope_total = float(envelope_total)
        self.slab_length = float(slab_length)
        self._cache: OrderedDict[int, Proposals] = OrderedDict()
        self._mean, self._lengths, self._sup, self._rng = _stream_parts(
            space, self.envelope_total, self.slab_length)
        self._bitgen = self._rng.bit_generator
        self._key = _philox_key(self.master_seed, TAG_SLAB, 0)
        # the state of a freshly keyed Philox; _slab_generator sets _key[1]
        self._fresh_state = _fresh_philox_state(self._key)
        self._present_state = _fresh_philox_state(
            _philox_key(self.master_seed, TAG_PRESENT, 0))
        self._present: dict[float, Proposals] = {}

    @classmethod
    def for_model(cls, model, space: SpaceSpec, master_seed: int,
                  slab_length: float = 1.0) -> "NoiseStream":
        from .models import envelope_total as _env_total
        total = _env_total(model, space)
        if not math.isfinite(total):
            raise SimulationConfigError("model envelope is not integrable over the window")
        return cls(master_seed, space, total, slab_length)

    # -- slab generation ----------------------------------------------------

    def slab_points(self, k: int) -> Proposals:
        """Atoms of slab k, ordered by proposal time; atom i has id "n{k}:{i}".
        Pure in (master_seed, k)."""
        k = int(k)
        cached = self._cache.get(k)
        if cached is not None:
            self._cache.move_to_end(k)
            return cached
        slab = self._generate_slab(k)
        self._cache[k] = slab
        if len(self._cache) > CACHE_SLABS:
            self._cache.popitem(last=False)
        return slab

    def _slab_generator(self, k: int) -> np.random.Generator:
        """The stream's generator in the state keyed_generator(seed, TAG_SLAB, k)
        starts from."""
        self._key[1] = mix64(k & _MASK64)
        self._bitgen.state = self._fresh_state
        return self._rng

    def _generate_slab(self, k: int) -> Proposals:
        # Draw order: count, n time uniforms then n*d location uniforms (one
        # call), exponential marks, thinning levels. uniform(0, h) is
        # 0.0 + h * random(), so scaling random() draws gives the same bits.
        rng = self._slab_generator(k)
        n = int(rng.poisson(self._mean)) if self._mean > 0 else 0
        if n == 0:
            return ()
        d = self.space.dimension
        draws = rng.random(n * (1 + d))
        s_local = self.slab_length * draws[:n]
        xs = self._lengths * draws[n:].reshape(n, d)
        rs = rng.exponential(1.0, size=n)
        us = self._sup * rng.random(n)
        order = s_local.argsort(kind="stable")
        return tuple(zip((k * self.slab_length + s_local[order]).tolist(), rs[order].tolist(),
                         us[order].tolist(), [f"n{k}:{i}" for i in range(n)],
                         *xs[order].T.tolist()))

    def present_points(self, death_rate: float) -> Proposals:
        """The dominating process at time 0 for death rate delta, in draw
        order, with s its birth times; point i has id "d{i}".

        The count is Poisson(envelope_total / delta), the stationary mean.
        Each point has a uniform location, a thinning level uniform below
        envelope_sup_value(), and unit-exponential age a and residual e: it
        was born at s = -a / delta and holds mark r = a + e, so it dies at
        s + r / delta = e / delta, after 0. Pure in (master_seed, delta):
        drawn from keyed_generator(seed, TAG_PRESENT) in the order count,
        n * d location uniforms, n thinning uniforms, n ages, n residuals.
        The stream's own generator is re-keyed to that state, as for a slab.
        """
        cached = self._present.get(death_rate)
        if cached is not None:
            return cached
        self._bitgen.state = self._present_state
        rng = self._rng
        mean = self.envelope_total / death_rate
        n = int(rng.poisson(mean)) if mean > 0 else 0
        d = self.space.dimension
        xs = self._lengths * rng.random(n * d).reshape(n, d)
        us = self._sup * rng.random(n)
        ages = rng.exponential(1.0, size=n)
        residuals = rng.exponential(1.0, size=n)
        present = tuple(zip((-ages / death_rate).tolist(), (ages + residuals).tolist(),
                            us.tolist(), [f"d{i}" for i in range(n)], *xs.T.tolist()))
        self._present[death_rate] = present
        return present

    def envelope_sup_value(self) -> float:
        return self._sup

    # -- derived views ------------------------------------------------------

    def atoms_between(self, t0: float, t1: float) -> Proposals:
        """All atoms with t0 <= s < t1, in time order. A slab wholly inside
        the range is taken whole; only one that reaches past an end of it,
        such as the two edge slabs, is cut."""
        parts = []
        for k in range(math.floor(t0 / self.slab_length), math.ceil(t1 / self.slab_length)):
            slab = self.slab_points(k)
            if slab and not (t0 <= slab[0][0] and slab[-1][0] < t1):
                slab = slab[bisect_left(slab, t0, key=_time):bisect_left(slab, t1, key=_time)]
            parts.append(slab)
        return tuple(chain.from_iterable(parts))

    def slab_hash(self, k: int) -> str:
        """Stable digest of slab k's atoms, the float64 bytes of its rows
        (s, x..., r, u) in time order; equal runs hash equal."""
        rows = np.array([(s, *x, r, u) for s, r, u, _, *x in self.slab_points(k)],
                        dtype=np.float64)
        return hashlib.sha256(rows.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def initial_clocks(eta0: Configuration, seed: int, birth_time: float = 0.0) -> Configuration:
    """eta0's points in sorted-id order with independent unit-exponential death
    marks, drawn in that order, and birth time birth_time."""
    ids = sorted(eta0.ids())
    clocks = keyed_generator(seed, TAG_CLOCK).exponential(1.0, size=len(ids))
    return Configuration.from_columns(ids, eta0.restrict(ids).points_array(), clocks, birth_time)


def poisson_configuration(space: SpaceSpec, intensity: float, seed: int,
                          prefix: str = "init") -> Configuration:
    """Sample a Poisson configuration on the window, at a constant density
    intensity with respect to Lebesgue measure; ids are prefix0, prefix1, ..."""
    rng = keyed_generator(seed, TAG_POISSON)
    L = space.lengths_array()
    lam = float(intensity)
    if lam < 0:
        raise SimulationConfigError("intensity must be nonnegative")
    n = int(rng.poisson(lam * space.volume)) if lam > 0 else 0
    return Configuration.from_points(rng.uniform(0.0, L, size=(n, space.dimension)), prefix)
