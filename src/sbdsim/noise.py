"""Slab-indexed driving noise with bit-identical regeneration.

The driving randomness of a run is a marked Poisson ensemble of birth
proposals: atoms (x, s, r, u) where s is the proposal time, x the location
(uniform under the reference measure), u the thinning level drawn uniformly
on [0, Lambda] for the model's constant envelope Lambda, and r a
unit-exponential death mark. Time is split into slabs [k L, (k+1) L); the atoms of slab k are a
pure function of (master_seed, k), generated by a counter-based Philox stream
keyed on that pair. Any slab can be regenerated on demand and hashes
identically every time. Restricting u to [0, Lambda] at generation time is an exact
reformulation of thinning from a larger envelope: proposals with u above
Lambda would be rejected by every configuration, so they are never
materialized.

Coupling from the past reads the same slabs backwards in time. Its
dominating process (births at rate envelope_total, a point with mark r lives
r / delta) is a stationary M/M/infinity process, which is time-reversible:
the (death time, lifetime) pairs of its points form a Poisson ensemble with
the same law as the (proposal time, r / delta) pairs of the forward stream.
So the slabs at negative k are read with s as a death time (the point was
born at s - r / delta), and present_points draws the points alive at time 0
under a tag of their own. It is the same Poisson random measure, indexed by
death time instead of birth time: one proposal stream, in law.

A slab is stored as arrays (NoiseSlab: s, x, r, u sorted by s), not as one
object per atom. A stream owns a single Philox generator and re-keys it for
each slab, setting key (mix64(seed ^ TAG_SLAB), mix64(k)) with counter 0;
that is the same state a freshly keyed generator starts from, so the bits
are those of keyed_generator(seed, TAG_SLAB, k). NoisePoint objects are made
only for the atoms a caller iterates over, such as those inside an engine
pass window.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geometry import Configuration, SimulationConfigError, SpaceSpec, TimedConfiguration, TimedPoint

_MASK64 = (1 << 64) - 1

# Domain-separation tags for the different consumers of the master seed.
TAG_SLAB = 0x5B5B5B5B5B5B5B5B
TAG_CLOCK = 0xC10C_C10C_C10C_C10C
TAG_POISSON = 0x9019_9019_9019_9019
TAG_GENERIC = 0x7E57_7E57_7E57_7E57
TAG_PRESENT = 0xD0D0_D0D0_D0D0_D0D0


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


@dataclass(frozen=True)
class NoisePoint:
    """One birth proposal: location, proposal time, death mark, thinning level."""

    x: NDArray[np.float64]
    s: float
    r: float
    u: float
    atom_id: str


class NoiseSlab:
    """The atoms of slab k as read-only arrays, sorted by proposal time.

    s has shape (n,), x shape (n, d), r and u shape (n,); len() is n. Atom i
    has id "n{k}:{i}".
    """

    __slots__ = ("k", "s", "x", "r", "u")

    def __init__(self, k: int, s, x, r, u):
        for a in (s, x, r, u):
            a.setflags(write=False)
        self.k, self.s, self.x, self.r, self.u = k, s, x, r, u

    def __len__(self) -> int:
        return len(self.s)

    def atom_id(self, i: int) -> str:
        return f"n{self.k}:{i}"

    def atom(self, i: int) -> NoisePoint:
        """Atom i as a NoisePoint; its x is a read-only view into the slab."""
        return NoisePoint(x=self.x[i], s=float(self.s[i]), r=float(self.r[i]),
                          u=float(self.u[i]), atom_id=self.atom_id(i))

    def __iter__(self):
        return map(self.atom, range(len(self.s)))

    def rows(self) -> NDArray[np.float64]:
        """One row (s, x..., r, u) per atom, in time order."""
        return np.column_stack((self.s, self.x, self.r, self.u))


_ZERO4 = np.zeros(4, dtype=np.uint64)


def _fresh_philox_state(key: NDArray[np.uint64]) -> dict:
    """The state a Philox generator keyed on `key` starts from (counter 0)."""
    return {"bit_generator": "Philox", "state": {"counter": _ZERO4, "key": key},
            "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


class NoiseStream:
    """Deterministic slab-indexed proposal stream for one master seed.

    envelope_total is the integral of the envelope against the reference
    measure; the per-slab proposal count is Poisson(envelope_total * slab
    length). The envelope is constant, so locations are uniform under the
    reference measure and thinning levels uniform below envelope_sup_value().
    A stream re-keys one generator per slab, so it must not be shared
    between threads.
    """

    def __init__(self, master_seed: int, space: SpaceSpec, envelope_total: float,
                 slab_length: float = 1.0, cache_slabs: int = 256):
        if not (slab_length > 0):
            raise SimulationConfigError(f"slab length must be > 0, got {slab_length}")
        if not (envelope_total >= 0) or not math.isfinite(envelope_total):
            raise SimulationConfigError(f"envelope_total must be finite and >= 0, got {envelope_total}")
        self.master_seed = int(master_seed)
        self.space = space
        self.envelope_total = float(envelope_total)
        self.slab_length = float(slab_length)
        self._cache: OrderedDict[int, NoiseSlab] = OrderedDict()
        self._cache_slabs = cache_slabs
        self._mean = self.envelope_total * self.slab_length
        self._lengths = space.lengths_array()
        vol = space.beta_total
        self._sup = self.envelope_total / vol if vol > 0 else 0.0
        self._key = _philox_key(self.master_seed, TAG_SLAB, 0)
        self._bitgen = np.random.Philox(key=self._key)
        self._rng = np.random.Generator(self._bitgen)
        # the state of a freshly keyed Philox; _slab_generator sets _key[1]
        self._fresh_state = _fresh_philox_state(self._key)
        self._present_state = _fresh_philox_state(
            _philox_key(self.master_seed, TAG_PRESENT, 0))
        self._empty = (np.empty(0), np.empty((0, space.dimension)), np.empty(0), np.empty(0))
        self._present: dict[float, tuple] = {}

    @classmethod
    def for_model(cls, model, space: SpaceSpec, master_seed: int,
                  slab_length: float = 1.0) -> "NoiseStream":
        from .models import envelope_total as _env_total
        total = _env_total(model, space)
        if not math.isfinite(total):
            raise SimulationConfigError("model envelope is not integrable over the window")
        return cls(master_seed, space, total, slab_length)

    # -- slab generation ----------------------------------------------------

    def slab_points(self, k: int) -> NoiseSlab:
        """Atoms of slab k, ordered by proposal time. Pure in (master_seed, k)."""
        k = int(k)
        cached = self._cache.get(k)
        if cached is not None:
            self._cache.move_to_end(k)
            return cached
        slab = self._generate_slab(k)
        self._cache[k] = slab
        if len(self._cache) > self._cache_slabs:
            self._cache.popitem(last=False)
        return slab

    def _slab_generator(self, k: int) -> np.random.Generator:
        """The stream's generator in the state keyed_generator(seed, TAG_SLAB, k)
        starts from."""
        self._key[1] = mix64(k & _MASK64)
        self._bitgen.state = self._fresh_state
        return self._rng

    def _generate_slab(self, k: int) -> NoiseSlab:
        # Draw order: count, n time uniforms then n*d location uniforms (one
        # call), exponential marks, thinning levels. uniform(0, h) is
        # 0.0 + h * random(), so scaling random() draws gives the same bits.
        rng = self._slab_generator(k)
        n = int(rng.poisson(self._mean)) if self._mean > 0 else 0
        if n == 0:
            return NoiseSlab(k, *self._empty)
        d = self.space.dimension
        draws = rng.random(n * (1 + d))
        s_local = self.slab_length * draws[:n]
        xs = self._lengths * draws[n:].reshape(n, d)
        rs = rng.exponential(1.0, size=n)
        us = self._sup * rng.random(n)
        order = s_local.argsort(kind="stable")
        return NoiseSlab(k, k * self.slab_length + s_local[order], xs[order], rs[order],
                         us[order])

    def present_points(self, death_rate: float) -> tuple:
        """The dominating process at time 0 for death rate delta, as read-only
        arrays (b, x, r, u): birth times, locations (n, d), death marks and
        thinning levels of its points, in draw order.

        The count is Poisson(envelope_total / delta), the stationary mean.
        Each point has a uniform location, a thinning level uniform below
        envelope_sup_value(), and unit-exponential age a and residual e: it
        was born at b = -a / delta and holds mark r = a + e, so it dies at
        b + r / delta = e / delta, after 0. Pure in (master_seed, delta):
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
        arrays = (-ages / death_rate, xs, ages + residuals, us)
        for a in arrays:
            a.setflags(write=False)
        self._present[death_rate] = arrays
        return arrays

    def envelope_sup_value(self) -> float:
        return self._sup

    # -- derived views ------------------------------------------------------

    def slabs_covering(self, t0: float, t1: float) -> range:
        """Indices of the slabs intersecting [t0, t1)."""
        first = math.floor(t0 / self.slab_length)
        last = math.ceil(t1 / self.slab_length)
        return range(first, last)

    def atoms_between(self, t0: float, t1: float):
        """All atoms with t0 <= s < t1, in time order."""
        for k in self.slabs_covering(t0, t1):
            slab = self.slab_points(k)
            lo, hi = np.searchsorted(slab.s, (t0, t1))
            for i in range(lo, hi):
                yield slab.atom(i)

    def slab_hash(self, k: int) -> str:
        """Stable digest of slab k's atoms; equal runs hash equal."""
        return hashlib.sha256(self.slab_points(k).rows().tobytes()).hexdigest()

    def dump_csv(self, path, k_first: int, k_last: int) -> None:
        """Write atoms of slabs k_first..k_last to CSV: k, s, x..., r, u."""
        cols = ",".join(f"x{i+1}" for i in range(self.space.dimension))
        with open(path, "w") as fh:
            fh.write(f"k,s,{cols},r,u\n")
            for k in range(k_first, k_last + 1):
                for row in self.slab_points(k).rows().tolist():
                    fh.write(f"{k}," + ",".join(map(repr, row)) + "\n")


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def initial_clocks(eta0: Configuration, seed: int, birth_time: float = 0.0) -> TimedConfiguration:
    """Attach independent unit-exponential residual clocks to a configuration."""
    rng = keyed_generator(seed, TAG_CLOCK)
    timed = TimedConfiguration()
    for pid in sorted(eta0.ids()):
        timed.add(pid, TimedPoint(coords=eta0.coords(pid).copy(),
                                  clock=float(rng.exponential(1.0)),
                                  birth_time=birth_time))
    return timed


def poisson_configuration(space: SpaceSpec, intensity, seed: int,
                          prefix: str = "init") -> Configuration:
    """Sample a Poisson configuration on the window.

    intensity is a density with respect to Lebesgue measure: a constant or a
    callable on points. Locations for a callable intensity are drawn by
    rejection below its supremum on the quadrature grid.
    """
    rng = keyed_generator(seed, TAG_POISSON)
    L = space.lengths_array()
    cfg = Configuration()
    if callable(intensity):
        grid = space.grid()
        vals = np.array([float(intensity(x)) for x in grid])
        if np.any(vals < 0):
            raise SimulationConfigError("intensity must be nonnegative")
        total = float(np.mean(vals)) * space.volume
        sup = float(np.max(vals)) * 1.001 + 1e-12
        n = int(rng.poisson(total)) if total > 0 else 0
        for i in range(n):
            for _ in range(100_000):
                x = rng.uniform(0.0, L)
                if rng.uniform(0.0, sup) <= float(intensity(x)):
                    cfg.add(f"{prefix}{i}", x)
                    break
            else:
                raise RuntimeError("intensity rejection sampling failed to accept")
        return cfg
    lam = float(intensity)
    if lam < 0:
        raise SimulationConfigError("intensity must be nonnegative")
    n = int(rng.poisson(lam * space.volume)) if lam > 0 else 0
    for i in range(n):
        cfg.add(f"{prefix}{i}", rng.uniform(0.0, L))
    return cfg
