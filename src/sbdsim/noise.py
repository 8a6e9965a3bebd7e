"""Slab-indexed driving noise with bit-identical regeneration.

The driving randomness of a run is a marked Poisson ensemble of birth
proposals: atoms (x, s, r, u) where s is the proposal time, x the location
(uniform under the reference measure), u the thinning level drawn uniformly
on [0, Lambda] for the model's constant envelope Lambda, and r a
unit-exponential death mark. Time is split into slabs [k L, (k+1) L); the atoms of slab k are a
pure function of (master_seed, k), generated by a counter-based Philox stream
keyed on that pair. Any slab, including slabs at negative indices used by
lookback samplers, can be regenerated on demand and hashes identically every
time. Restricting u to [0, Lambda] at generation time is an exact
reformulation of thinning from a larger envelope: proposals with u above
Lambda would be rejected by every configuration, so they are never
materialized.
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


def mix64(v: int) -> int:
    """splitmix64 finalizer; decorrelates adjacent integer keys."""
    v = (v + 0x9E3779B97F4A7C15) & _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (v ^ (v >> 31)) & _MASK64


def keyed_generator(master_seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Philox generator keyed on (master_seed, tag, index); counter-based, so
    streams for distinct keys are independent and regenerable."""
    key = np.array([mix64((master_seed ^ tag) & _MASK64), mix64(index & _MASK64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


class NoiseStream:
    """Deterministic slab-indexed proposal stream for one master seed.

    envelope_total is the integral of the envelope against the reference
    measure; the per-slab proposal count is Poisson(envelope_total * slab
    length). The envelope is constant, so locations are uniform under the
    reference measure and thinning levels uniform below envelope_sup_value().
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
        self._cache: OrderedDict[int, list[NoisePoint]] = OrderedDict()
        self._cache_slabs = cache_slabs

    @classmethod
    def for_model(cls, model, space: SpaceSpec, master_seed: int,
                  slab_length: float = 1.0) -> "NoiseStream":
        from .models import envelope_total as _env_total
        total = _env_total(model, space)
        if not math.isfinite(total):
            raise SimulationConfigError("model envelope is not integrable over the window")
        return cls(master_seed, space, total, slab_length)

    # -- slab generation ----------------------------------------------------

    def slab_points(self, k: int) -> list[NoisePoint]:
        """Atoms of slab k, ordered by proposal time. Pure in (master_seed, k)."""
        k = int(k)
        cached = self._cache.get(k)
        if cached is not None:
            self._cache.move_to_end(k)
            return cached
        atoms = self._generate_slab(k)
        self._cache[k] = atoms
        if len(self._cache) > self._cache_slabs:
            self._cache.popitem(last=False)
        return atoms

    def _generate_slab(self, k: int) -> list[NoisePoint]:
        rng = keyed_generator(self.master_seed, TAG_SLAB, k)
        mean = self.envelope_total * self.slab_length
        n = int(rng.poisson(mean)) if mean > 0 else 0
        if n == 0:
            return []
        L = self.space.lengths_array()
        t0 = k * self.slab_length
        s_local = rng.uniform(0.0, self.slab_length, size=n)
        order = np.argsort(s_local, kind="stable")
        xs = rng.uniform(0.0, L, size=(n, self.space.dimension))
        rs = rng.exponential(1.0, size=n)
        us = rng.uniform(0.0, self.envelope_sup_value(), size=n)
        atoms = []
        for rank, i in enumerate(order):
            atoms.append(NoisePoint(x=xs[i].copy(), s=t0 + float(s_local[i]),
                                    r=float(rs[i]), u=float(us[i]),
                                    atom_id=f"n{k}:{rank}"))
        return atoms

    def envelope_sup_value(self) -> float:
        vol = self.space.beta_total
        return self.envelope_total / vol if vol > 0 else 0.0

    # -- derived views ------------------------------------------------------

    def slabs_covering(self, t0: float, t1: float) -> range:
        """Indices of the slabs intersecting [t0, t1)."""
        first = math.floor(t0 / self.slab_length)
        last = math.ceil(t1 / self.slab_length)
        return range(first, last)

    def atoms_between(self, t0: float, t1: float):
        """All atoms with t0 <= s < t1, in time order."""
        for k in self.slabs_covering(t0, t1):
            for atom in self.slab_points(k):
                if t0 <= atom.s < t1:
                    yield atom

    def slab_hash(self, k: int) -> str:
        """Stable digest of slab k's atoms; equal runs hash equal."""
        h = hashlib.sha256()
        for atom in self.slab_points(k):
            h.update(np.float64(atom.s).tobytes())
            h.update(atom.x.astype(np.float64).tobytes())
            h.update(np.float64(atom.r).tobytes())
            h.update(np.float64(atom.u).tobytes())
        return h.hexdigest()

    def dump_csv(self, path, k_first: int, k_last: int) -> None:
        """Write atoms of slabs k_first..k_last to CSV: k, s, x..., r, u."""
        cols = ",".join(f"x{i+1}" for i in range(self.space.dimension))
        with open(path, "w") as fh:
            fh.write(f"k,s,{cols},r,u\n")
            for k in range(k_first, k_last + 1):
                for atom in self.slab_points(k):
                    xs = ",".join(repr(float(v)) for v in atom.x)
                    fh.write(f"{k},{atom.s!r},{xs},{atom.r!r},{atom.u!r}\n")


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
