"""Birth-rate models, death rates, and the interaction machinery around them.

A model bundles a birth-rate function lambda(x, eta) with a death-rate spec
and exposes the quantities the solver and the coupling layer need:

* envelope: a constant bound Lambda >= lambda(x, eta) uniform over locations
  and configurations, used to drive the thinning construction;
* increment kernel a(x, y): a bound on how much adding a single point y can
  move the birth rate at x, used for the contraction constant and the
  coupling distance;
* monotonicity flag: whether lambda is nondecreasing or nonincreasing under
  adding points, used to pick exact sandwich rates (only monotone models
  have them);
* energy: for Gibbs models, the potential whose Boltzmann weight the process
  leaves invariant (checked through the detailed-balance residual).

A rate query reads indexes that the configuration keeps up to date across
births and deaths (Configuration.index) in place of scanning every point: the
cell-occupancy model keeps its occupancy counts, so its rate is O(1), and the
pairwise, area-interaction and nearest-neighbour models (NeighbourRate) read a
neighbour grid (geometry.neighbour_grid) with cells as wide as their reach,
so a query costs the points nearby; both give exactly a full scan's rate. A
bracket reads both its rates from one scan of the upper grid (sandwich_rates).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .geometry import (
    Configuration,
    SimulationConfigError,
    SpaceSpec,
    config_count,
    config_number,
    distances_to,
    neighbour_grid,
)


class UnsupportedModelError(TypeError):
    """Raised when an operation is asked of a model that cannot support it."""


# ---------------------------------------------------------------------------
# death rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantDeath:
    """Every point dies at a fixed positive rate; at the default rate 1 a
    death mark is the point's lifetime."""

    rate: float = 1.0

    def __post_init__(self):
        if not (self.rate > 0) or not math.isfinite(self.rate):
            raise SimulationConfigError(f"death rate must be finite and > 0, got {self.rate}")


# ---------------------------------------------------------------------------
# grain overlap volumes (area-interaction support)
# ---------------------------------------------------------------------------

def unit_ball_volume(dimension: int) -> float:
    return math.pi ** (dimension / 2) / math.gamma(dimension / 2 + 1)


def _merge_length(intervals: list[tuple[float, float]]) -> float:
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_a, cur_b = intervals[0]
    for a, b in intervals[1:]:
        if a > cur_b:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    return total + (cur_b - cur_a)


class GrainOverlap:
    """Exposed and overlap volumes for a ball-shaped grain of fixed radius on
    one window.

    The integrator follows the dimension: interval-union arithmetic in 1-D
    (error 0), and otherwise a fixed Halton low-discrepancy node set over the
    grain ball, deterministic given the resolution. The constructor checks
    once that the grain fits the window. All volume queries for one model go
    through the same node set, which keeps monotonicity exact: a
    configuration that covers more of the grain never reports more exposed
    volume.
    """

    def __init__(self, space: SpaceSpec, radius: float, resolution: int = 4096):
        if not (radius > 0) or not math.isfinite(radius):
            raise SimulationConfigError(f"grain radius must be finite and > 0, got {radius}")
        if space.periodic and not (2 * radius < min(space.lengths)):
            raise SimulationConfigError(
                "grain diameter must be smaller than every period of the window")
        self.space = space
        self.dimension = space.dimension
        self.radius = float(radius)
        self.ball_volume = unit_ball_volume(self.dimension) * self.radius ** self.dimension
        self._nodes: NDArray[np.float64] | None = None
        if self.dimension > 1:
            self._nodes = self._build_nodes(int(resolution))
            self._columns = np.ascontiguousarray(self._nodes.T)  # one row per axis

    def _build_nodes(self, n_raw: int) -> NDArray[np.float64]:
        # Halton points in the bounding cube, kept if inside the ball. The
        # sequence is unscrambled, so the node set is a pure function of
        # (dimension, radius, resolution).
        from scipy.stats import qmc

        sampler = qmc.Halton(d=self.dimension, scramble=False)
        cube = sampler.random(n=n_raw)
        offsets = (2.0 * cube - 1.0) * self.radius
        inside = np.sum(offsets ** 2, axis=1) <= self.radius ** 2
        nodes = offsets[inside]
        if len(nodes) < 8:
            raise SimulationConfigError("overlap resolution too low for this dimension")
        return nodes

    def error_bound(self) -> float:
        """Additive error estimate for one exposed-volume query (0 in 1-D)."""
        if self._nodes is None:
            return 0.0
        n = len(self._nodes)
        return self.ball_volume * (max(1.0, math.log2(n)) ** self.dimension) / n

    def _signed_deltas(self, x, pts: NDArray) -> NDArray[np.float64]:
        d = np.atleast_2d(np.asarray(pts, dtype=float)) - np.asarray(x, dtype=float)
        if self.space.periodic:
            L = self.space.lengths_array()
            d = (d + L / 2.0) % L - L / 2.0
        return d

    def _squared_distances(self, x, pts):
        """Yield, for each row p of pts, the squared distances from p to the
        nodes of ball(x, r): a node lies in ball(p, r) when its value is at
        most r * r. The yielded array is a buffer that the next step
        overwrites.

        The value is min(|node - delta|, L - |node - delta|) squared (the wrap
        only on a periodic window) and summed over the axes in order: the
        float operations of the (nodes, len(pts), d) broadcast this replaced,
        done one neighbour and one contiguous node column at a time.
        """
        periodic = self.space.periodic
        n = self._columns.shape[1]
        acc, diff, wrap = np.empty(n), np.empty(n), np.empty(n)
        for delta in self._signed_deltas(x, pts):
            acc.fill(0.0)  # 0 + the first square is that square, bit for bit
            for column, dk, L in zip(self._columns, delta, self.space.lengths):
                np.subtract(column, dk, out=diff)
                np.abs(diff, out=diff)
                if periodic:
                    np.subtract(L, diff, out=wrap)
                    np.minimum(diff, wrap, out=diff)
                np.multiply(diff, diff, out=diff)
                np.add(acc, diff, out=acc)
            yield acc

    def exposed_volume(self, x, pts) -> float:
        """Volume of ball(x, r) not covered by the union of ball(p, r), p in pts."""
        pts = np.asarray(pts, dtype=float)
        if pts.size == 0:
            return self.ball_volume
        if self._nodes is None:
            r = self.radius
            L = self.space.lengths[0]
            shifts = (0.0, -L, L) if self.space.periodic else (0.0,)
            intervals = []
            for dl in self._signed_deltas(x, pts)[:, 0]:
                for sh in shifts:
                    a = max(dl + sh - r, -r)
                    b = min(dl + sh + r, r)
                    if b > a:
                        intervals.append((a, b))
            return 2.0 * r - _merge_length(intervals)
        rr = self.radius * self.radius
        covered = np.zeros(len(self._nodes), dtype=bool)
        for acc in self._squared_distances(x, pts):
            covered |= acc <= rr
        return self.ball_volume * float(np.count_nonzero(~covered)) / len(self._nodes)

    def overlap_volumes(self, x, pts) -> NDArray[np.float64]:
        """Volume of ball(x, r) & ball(p, r) for each p, computed consistently
        with exposed_volume so that increments are dominated node by node."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.size == 0:
            return np.zeros(0)
        if self._nodes is None:
            dists = distances_to(self.space, np.asarray(x, dtype=float), pts)
            return np.maximum(0.0, 2.0 * self.radius - dists)
        rr = self.radius * self.radius
        counts = np.array([np.count_nonzero(acc <= rr) for acc in self._squared_distances(x, pts)],
                          dtype=np.intp)
        return self.ball_volume * counts / len(self._nodes)

    def union_volume(self, pts) -> float:
        """Volume of the union of grain balls, by sequential exposed volumes
        in canonical (lexicographic) point order."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.size == 0:
            return 0.0
        order = sorted(range(len(pts)), key=lambda i: tuple(pts[i]))
        total = 0.0
        for rank, i in enumerate(order):
            prev = pts[[order[j] for j in range(rank)], :] if rank else np.zeros((0, pts.shape[1]))
            total += self.exposed_volume(pts[i], prev)
        return total


# ---------------------------------------------------------------------------
# rate models
# ---------------------------------------------------------------------------

class RateModel:
    """Shared defaults for birth-rate models. Subclasses fill in the rates."""

    monotone: str = "none"  # nondecreasing | nonincreasing | constant | none
    translation_invariant: bool = False

    def birth_rate(self, space: SpaceSpec, x, eta: Configuration) -> float:
        raise NotImplementedError

    def envelope_sup(self, space: SpaceSpec) -> float:
        raise NotImplementedError

    def increment_kernel(self, space: SpaceSpec, x, Y) -> NDArray[np.float64]:
        """Bound on |lambda(x, eta + y) - lambda(x, eta)|, one value per row of Y.
        a(x, y) == a(y, x) bit for bit for every model here (the cell model
        refuses a theta that is not exactly symmetric) but area interaction
        in d >= 2, whose grain nodes are not symmetric: its two sides differ
        by at most 2 envelope_sup |log gamma| error_bound()."""
        raise NotImplementedError

    def support_radius(self) -> float:
        """A distance beyond which increment_kernel is 0 (inf if none is known)."""
        return math.inf

    def energy(self, space: SpaceSpec, eta: Configuration) -> float:
        raise UnsupportedModelError(f"{type(self).__name__} has no energy functional")


class NeighbourRate(RateModel):
    """A rate of the points of eta within support_radius() of x: birth_rate
    scans eta's neighbour grid, which returns exactly the points at distance
    <= support_radius() from x, and rate_of_neighbours reads the rate off
    them."""

    def birth_rate(self, space, x, eta) -> float:
        near = neighbour_grid(space, eta, self.support_radius()).near(x)
        return self.rate_of_neighbours(space, x, near)

    def rate_of_neighbours(self, space: SpaceSpec, x, near) -> float:
        """The rate at x on the points of near, a list of (distance, pid,
        point), one for each point at distance <= support_radius() from x."""
        raise NotImplementedError


@dataclass
class ConstantRate(RateModel):
    """Configuration-independent birth rate; stationary law is Poisson."""

    rate: float = 1.0
    death: ConstantDeath = field(default_factory=ConstantDeath)
    monotone = "constant"
    translation_invariant = True

    def __post_init__(self):
        if not (self.rate >= 0) or not math.isfinite(self.rate):
            raise SimulationConfigError(f"constant rate must be finite and >= 0, got {self.rate}")

    def birth_rate(self, space, x, eta) -> float:
        return self.rate

    def envelope_sup(self, space) -> float:
        return self.rate

    def increment_kernel(self, space, x, Y):
        return np.zeros(len(np.atleast_2d(Y)))

    def support_radius(self) -> float:
        return 0.0


@dataclass
class PairwiseRate(NeighbourRate):
    """Repulsive pair potential: a flat penalty theta per neighbor within range.

    lambda(x, eta) = exp(-theta * #{y in eta : d(x, y) <= interaction_range}).
    """

    theta: float
    interaction_range: float
    death: ConstantDeath = field(default_factory=ConstantDeath)
    monotone = "nonincreasing"
    translation_invariant = True

    def __post_init__(self):
        if self.theta < 0 or not math.isfinite(self.theta):
            raise SimulationConfigError(f"pairwise theta must be >= 0, got {self.theta}")
        if not (self.interaction_range > 0):
            raise SimulationConfigError("interaction range must be > 0")

    def rate_of_neighbours(self, space, x, near) -> float:
        return math.exp(-self.theta * len(near))

    def envelope_sup(self, space) -> float:
        return 1.0

    def increment_kernel(self, space, x, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.size == 0:
            return np.zeros(0)
        close = distances_to(space, np.asarray(x, dtype=float), Y) <= self.interaction_range
        return -np.expm1(-self.theta) * close.astype(float)

    def support_radius(self) -> float:
        return self.interaction_range

    def energy(self, space, eta) -> float:
        """theta times the number of unordered neighbor pairs."""
        pts = eta.points_array()
        n = len(pts)
        if n < 2:
            return 0.0
        pairs = 0
        for i in range(1, n):
            pairs += int(np.count_nonzero(
                distances_to(space, pts[i], pts[:i]) <= self.interaction_range))
        return self.theta * pairs


@dataclass
class AreaInteractionRate(NeighbourRate):
    """Area-interaction rate: each birth is weighted by the grain volume it
    would newly cover.

    lambda(x, eta) = rho * gamma ** (-E(x, eta)) where E is the volume of
    ball(x, r) left exposed by the grains of eta. gamma > 1 is attractive
    (rates rise as more of the grain is already covered), gamma < 1 repulsive.
    """

    rho: float
    gamma: float
    grain_radius: float
    death: ConstantDeath = field(default_factory=ConstantDeath)
    overlap_resolution: int = 4096
    translation_invariant = True

    def __post_init__(self):
        if not (self.rho > 0) or not math.isfinite(self.rho):
            raise SimulationConfigError(f"rho must be finite and > 0, got {self.rho}")
        if not (self.gamma > 0) or not math.isfinite(self.gamma):
            raise SimulationConfigError(f"gamma must be finite and > 0, got {self.gamma}")
        if not (self.grain_radius > 0) or not math.isfinite(self.grain_radius):
            raise SimulationConfigError(
                f"grain radius must be finite and > 0, got {self.grain_radius}")
        self._overlaps: dict[SpaceSpec, GrainOverlap] = {}

    @property
    def monotone(self) -> str:  # type: ignore[override]
        if self.gamma > 1:
            return "nondecreasing"
        if self.gamma < 1:
            return "nonincreasing"
        return "constant"

    def overlap(self, space: SpaceSpec) -> GrainOverlap:
        """The grain integrator of space, built (and checked against it) on
        first use. A window the grain does not fit is refused every time."""
        ov = self._overlaps.get(space)
        if ov is None:
            ov = self._overlaps[space] = GrainOverlap(space, self.grain_radius,
                                                      self.overlap_resolution)
        return ov

    def rate_of_neighbours(self, space, x, near) -> float:
        ov = self.overlap(space)
        reach = self.support_radius()
        exposed = ov.exposed_volume(x, [p for t, _, p in near if t < reach])
        return self.rho * math.exp(-exposed * math.log(self.gamma))

    def envelope_sup(self, space) -> float:
        ov = self.overlap(space)
        return self.rho * max(1.0, self.gamma ** (-ov.ball_volume))

    def increment_kernel(self, space, x, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.size == 0:
            return np.zeros(0)
        ov = self.overlap(space)
        return self._kernel_of_overlap(ov.overlap_volumes(np.asarray(x, dtype=float), Y),
                                       ov.ball_volume)

    def _kernel_of_overlap(self, V, ball_volume: float):
        """Exact supremum of the one-point birth-rate increment where the new
        grain overlaps the query grain by volume V (a float or an array).

        For gamma > 1 the worst case is a grain exposed exactly on the overlap
        with y; for gamma < 1 it is a fully exposed grain; gamma = 1 gives 0.
        """
        lg = math.log(self.gamma)
        if self.gamma < 1:
            return self.rho * self.gamma ** (-ball_volume) * (-np.expm1(V * lg))
        return self.rho * (-np.expm1(-V * lg))

    def support_radius(self) -> float:
        return 2.0 * self.grain_radius  # grains further apart do not overlap

    def energy(self, space, eta) -> float:
        """-n log(rho) + log(gamma) * volume of the union of grains."""
        ov = self.overlap(space)
        union = ov.union_volume(eta.points_array())
        return -len(eta) * math.log(self.rho) + math.log(self.gamma) * union


@dataclass
class NearestNeighborRate(NeighbourRate):
    """Birth rate depending only on the distance to the nearest point.

    The profile h is a nondecreasing or nonincreasing step function given by
    strictly increasing breakpoints, the value on each piece, and the value at
    infinity (used for the empty configuration).
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    value_at_infinity: float
    death: ConstantDeath = field(default_factory=ConstantDeath)
    translation_invariant = True

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if len(b) != len(v) or len(b) == 0:
            raise SimulationConfigError("need one value per breakpoint")
        if not (np.all(np.isfinite(v)) and math.isfinite(self.value_at_infinity)):
            raise SimulationConfigError("nearest-neighbor profile values must be finite")
        if np.any(b <= 0) or np.any(np.diff(b) <= 0):
            raise SimulationConfigError("breakpoints must be positive and strictly increasing")
        if np.any(v < 0) or self.value_at_infinity < 0:
            raise SimulationConfigError("profile values must be >= 0")
        full = np.append(v, self.value_at_infinity)
        if np.all(np.diff(full) >= 0):
            self._direction = "increasing"
        elif np.all(np.diff(full) <= 0):
            self._direction = "decreasing"
        else:
            raise SimulationConfigError("nearest-neighbor profile must be monotone")
        self._breaks = b
        self._table = full
        # profile()'s breakpoints and table as Python floats, for one query
        self._break_floats = tuple(b.tolist())
        self._table_floats = full.tolist()

    @property
    def monotone(self) -> str:  # type: ignore[override]
        # h increasing means more points can only lower the rate.
        return "nonincreasing" if self._direction == "increasing" else "nondecreasing"

    def profile(self, t) -> NDArray[np.float64]:
        return self._table[np.searchsorted(self._breaks, t, side="right")]

    def rate_of_neighbours(self, space, x, near) -> float:
        # A point at support_radius() gives value_at_infinity, like no point
        # at all, so the grid only needs to reach that far. bisect_right is
        # profile()'s searchsorted(side="right"), without numpy per query.
        t = min((t for t, _, _ in near), default=math.inf)
        return self._table_floats[bisect_right(self._break_floats, t)]

    def envelope_sup(self, space) -> float:
        return float(max(max(self.values), self.value_at_infinity))

    def increment_kernel(self, space, x, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.size == 0:
            return np.zeros(0)
        h = self.profile(distances_to(space, np.asarray(x, dtype=float), Y))
        return np.abs(self.value_at_infinity - h)

    def support_radius(self) -> float:
        return self.breakpoints[-1]  # from the last breakpoint on, h is value_at_infinity


@dataclass
class CellOccupancyRate(RateModel):
    """Birth rate that is piecewise constant over a grid of cells and depends
    on the configuration only through per-cell occupancy counts.

    lambda(x, eta) = base_rate * exp(-sum_j theta[cell(x), j] * k_j(eta)). This
    is the discretized counterpart of the pairwise model and the bridge to the
    finite-state oracle: run under a death rate delta0 with base_rate = delta0,
    its occupancy chain is reversible for the discrete Gibbs weights.
    """

    cell_counts: tuple[int, ...]
    theta: NDArray[np.float64]
    base_rate: float = 1.0
    death: ConstantDeath = field(default_factory=ConstantDeath)
    monotone = "nonincreasing"
    translation_invariant = False

    def __post_init__(self):
        self.cell_counts = tuple(self.cell_counts)  # hashable index keys
        if any(c < 1 for c in self.cell_counts):
            raise SimulationConfigError("cell counts must be >= 1 per axis")
        th = np.asarray(self.theta, dtype=float)
        n = self._n_cells = math.prod(self.cell_counts)
        if th.shape != (n, n):
            raise SimulationConfigError(f"theta must be {n}x{n} for {n} cells")
        if not np.all((th >= 0) & (th < math.inf)):
            raise SimulationConfigError("theta entries must be finite and >= 0")
        if not np.array_equal(th, th.T):
            raise SimulationConfigError("theta must be exactly symmetric")
        if not (self.base_rate > 0) or not math.isfinite(self.base_rate):
            raise SimulationConfigError(f"base_rate must be finite and > 0, got {self.base_rate}")
        object.__setattr__(self, "theta", th)
        self._theta_rows = list(th)  # row views, as self.theta[cell] reads them

    @property
    def n_cells(self) -> int:
        return self._n_cells

    def cell_index(self, space: SpaceSpec, x) -> int:
        return _cell_index(self.cell_counts, space.lengths, x)

    def cell_indices(self, space: SpaceSpec, X) -> NDArray[np.int_]:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        counts = np.asarray(self.cell_counts)
        idx = np.floor(X / space.lengths_array() * counts).astype(int)
        idx = np.minimum(idx, counts - 1)
        return np.ravel_multi_index(idx.T, counts)

    def _occupancy(self, space: SpaceSpec, eta: Configuration) -> "_Occupancy":
        """eta's occupancy counts, kept by eta under a maker that space keeps
        per cell counts, so a lookup hashes a tuple of ints and an identity."""
        counts = self.cell_counts
        make = space._index_makers.get(counts)
        if make is None:
            make = space._index_makers[counts] = functools.partial(_Occupancy, counts,
                                                                   space.lengths)
        return eta.index(make, make)

    def occupancy(self, space: SpaceSpec, eta: Configuration) -> NDArray[np.int_]:
        return self._occupancy(space, eta).k.astype(int)

    def rate_for_occupancy(self, cell: int, k: NDArray) -> float:
        k = np.asarray(k, dtype=float)
        return self.base_rate * math.exp(-float(self._theta_rows[cell] @ k))

    def cell_masses(self, space: SpaceSpec) -> NDArray[np.float64]:
        """Reference-measure mass of each cell."""
        return np.full(self.n_cells, space.beta_total / self.n_cells)

    def birth_rate(self, space, x, eta) -> float:
        occupancy = self._occupancy(space, eta)
        return self.rate_for_occupancy(occupancy.cell(x), occupancy.k)

    def envelope_sup(self, space) -> float:
        return self.base_rate

    def increment_kernel(self, space, x, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.size == 0:
            return np.zeros(0)
        ci = self.cell_index(space, np.asarray(x, dtype=float))
        cj = self.cell_indices(space, Y)
        return self.base_rate * (-np.expm1(-self.theta[ci, cj]))

    def energy(self, space, eta) -> float:
        k = self.occupancy(space, eta).astype(float)
        same = float(np.sum(np.diag(self.theta) * k * (k - 1) / 2.0))
        cross = 0.5 * float(k @ self.theta @ k - np.sum(np.diag(self.theta) * k * k))
        return same + cross


def _cell_index(counts: tuple[int, ...], lengths: tuple[float, ...], x) -> int:
    """Flat (C-order) index of the cell holding x, by the float operations of
    cell_indices (x / L * c, floor, then the clamp that puts a point on the
    upper face in the last cell) in scalar arithmetic."""
    if type(x) is not tuple:
        x = np.asarray(x, dtype=float).tolist()
    cell = 0
    for v, L, c in zip(x, lengths, counts):
        i = math.floor(v / L * c)
        if i < 0:
            raise SimulationConfigError(f"point {x} lies below the window")
        cell = cell * c + min(i, c - 1)
    return cell


class _Occupancy:
    """Points per cell of one configuration, as floats (exact integers), kept
    by Configuration.index for CellOccupancyRate. Each id's cell is kept from
    its add, so remove(pid) reads no coordinates. cell(x), the rate query's
    cell lookup, keeps x and its cell, and add reads that cell back when it
    is given the very tuple x (`is`): the event loop adds the proposal's
    tuple just after its rate query, so an admitted point costs one cell
    computation, not two."""

    __slots__ = ("k", "_counts", "_lengths", "_home", "_queried", "_queried_cell")

    def __init__(self, counts: tuple[int, ...], lengths: tuple[float, ...]):
        self.k = np.zeros(math.prod(counts))
        self._counts = counts
        self._lengths = lengths
        self._home: dict[str, int] = {}
        self._queried, self._queried_cell = None, 0

    def cell(self, x) -> int:
        """The cell of x, kept with x for an add of the same tuple."""
        cell = self._queried_cell = _cell_index(self._counts, self._lengths, x)
        self._queried = x
        return cell

    def add(self, pid: str, p: tuple[float, ...]) -> None:
        cell = self._home[pid] = (self._queried_cell if p is self._queried
                                  else _cell_index(self._counts, self._lengths, p))
        self.k[cell] += 1.0

    def remove(self, pid: str) -> None:
        self.k[self._home.pop(pid)] -= 1.0


# ---------------------------------------------------------------------------
# cross-cutting operations
# ---------------------------------------------------------------------------

def envelope_total(model: RateModel, space: SpaceSpec) -> float:
    """Total envelope mass over the window: integral of Lambda d(beta)."""
    return model.envelope_sup(space) * space.beta_total


def sandwich_rates(model: RateModel, space: SpaceSpec, x,
                   eta_low: Configuration, eta_up: Configuration) -> tuple[float, float]:
    """Infimum and supremum of the birth rate at x over all configurations
    sandwiched between eta_low and eta_up, by exact endpoint evaluation.

    Only monotone models have a bracket; any other raises
    UnsupportedModelError. The states must be nested by id: every id of
    eta_low is an id of eta_up, at the same coordinates. That is not checked
    here: the sandwich pass keeps its pair so by construction. A
    NeighbourRate scans eta_up's grid once: the scan returns eta_up's points
    within the model's radius, and eta_low's are those whose ids eta_low
    holds.
    """
    mono = model.monotone
    if mono not in ("nonincreasing", "nondecreasing", "constant"):
        raise UnsupportedModelError(
            f"sandwich rates need a monotone rate model; {type(model).__name__} is {mono}")
    if isinstance(model, NeighbourRate):
        near = neighbour_grid(space, eta_up, model.support_radius()).near(x)
        held = eta_low.ids()
        up = model.rate_of_neighbours(space, x, near)
        low = model.rate_of_neighbours(space, x, [n for n in near if n[1] in held])
    else:
        up, low = model.birth_rate(space, x, eta_up), model.birth_rate(space, x, eta_low)
    return (up, low) if mono == "nonincreasing" else (low, up)


@dataclass(frozen=True)
class BalanceCheck:
    """Detailed-balance residual together with an integrator error budget."""

    residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return abs(self.residual) <= self.tolerance


def detailed_balance_residual(model: RateModel, space: SpaceSpec, x,
                              eta: Configuration, energy_fn=None) -> BalanceCheck:
    """Residual of lambda(x, eta) e^{-H(eta)} = delta e^{-H(eta + x)}.

    Zero (to rounding) exactly when the model's stationary law is the Gibbs
    measure for H. energy_fn overrides the model energy, e.g. to probe a
    deliberately mismatched potential.
    """
    x = np.asarray(x, dtype=float)
    using_model_energy = energy_fn is None
    if energy_fn is None:
        energy_fn = lambda cfg: model.energy(space, cfg)
    eta_plus = eta.copy()
    pid = "balance-probe"
    while pid in eta_plus:
        pid += "'"
    eta_plus.add(pid, x)
    lam = model.birth_rate(space, x, eta)
    h0 = energy_fn(eta)
    h1 = energy_fn(eta_plus)
    delta = model.death.rate
    residual = lam * math.exp(-h0) - delta * math.exp(-h1)
    scale = max(lam * math.exp(-h0), delta * math.exp(-h1), 1e-300)
    tol = 64.0 * np.finfo(float).eps * scale * max(1.0, abs(h0), abs(h1))
    if isinstance(model, AreaInteractionRate) and using_model_energy:
        # Two union-volume evaluations plus the rate's exposed volume, each
        # good to the integrator's error bound (0 in 1-D).
        calls = 2 * (len(eta) + 1) + 1
        tol += scale * abs(math.log(model.gamma)) * calls * model.overlap(space).error_bound()
    return BalanceCheck(residual=residual, tolerance=tol)


@dataclass(frozen=True)
class ContractionEstimate:
    """Contraction constant, its error (a bound, or a grid's |fine - coarse|
    raised to the grid's step bound) and the fine grid's points per axis (0
    without a grid)."""

    value: float
    error: float
    resolution: int

    @property
    def certifies_uniqueness(self) -> bool:
        return self.value + self.error < 1.0


_WINDOW_GRID_BUDGET = 1 << 22
_KERNEL_ROWS = 1024


def contraction_constant(model: RateModel, space: SpaceSpec,
                         resolution: int | None = None) -> ContractionEstimate:
    """sup_x integral of a(x, y) against the reference measure (the paper's
    weight c is 1 for every model here).

    Below 1 this certifies a unique stationary law and exponential decay of
    the coupling distance at rate at least (1 - value). Cell-occupancy models
    are summed exactly. The kernel of every other model here depends on
    |x - y| alone, so while its support ball fits the window (2R < every
    side) the value is intensity |S^{d-1}| int_0^R a(rho) rho^{d-1} d rho
    (_radial_contraction). Any other translation-invariant model takes the
    window grid at resolution points per axis (_window_contraction); any
    other model raises UnsupportedModelError.
    """
    if isinstance(model, CellOccupancyRate):
        masses = model.cell_masses(space)
        rows = model.base_rate * (-np.expm1(-model.theta))
        value = float(np.max(rows @ masses))
        return ContractionEstimate(value=value, error=0.0, resolution=model.n_cells)
    if not model.translation_invariant:
        raise UnsupportedModelError(
            "contraction_constant needs a cell-occupancy or a translation-invariant model")
    fits = 2 * model.support_radius() < min(space.lengths)
    return ((fits and _radial_contraction(model, space))
            or _window_contraction(model, space, int(resolution or space.quadrature_resolution)))


def _radial_contraction(model: RateModel, space: SpaceSpec) -> ContractionEstimate | None:
    """contraction_constant of a model whose support ball fits the window,
    from its kernel's radial profile a(rho); None for a model with none here.
    Pairwise: 1 - e^{-theta} on the closed ball, in closed form. Nearest
    neighbour: |h(inf) - v_j| on the shell [b_{j-1}, b_j). Area interaction:
    a of the exact overlap V(rho) of two grains of volume B, the lens
    B I_{1 - (rho / 2r)^2}((d + 1) / 2, 1 / 2) (2r - rho in 1-D), integrated
    by scipy.integrate.quad over [0, 2r].

    The simulated area-interaction rate takes V from the QMC grain nodes
    (GrainOverlap), not from the exact lens, so with QMC nodes the error
    also bounds the gap between the two integrals. Both overlaps integrate
    over y to B^2 exactly (each node is covered from a ball of y of volume
    B), which cancels the linear part of a(V); |a''| is at most envelope_sup
    log(gamma)^2, and each QMC overlap is within eps = error_bound() of the
    lens, so the gap is at most intensity |B_d| (2r)^d envelope_sup
    log(gamma)^2 B eps.
    """
    d = space.dimension
    ball = unit_ball_volume(d)
    error = 0.0
    if isinstance(model, ConstantRate):
        mass = 0.0
    elif isinstance(model, PairwiseRate):
        mass = -math.expm1(-model.theta) * ball * model.interaction_range ** d
    elif isinstance(model, NearestNeighborRate):
        shells = np.diff(np.concatenate(([0.0], model._breaks)) ** d)
        mass = float(np.abs(model.value_at_infinity - model._table[:-1]) @ shells) * ball
    elif isinstance(model, AreaInteractionRate):
        from scipy.integrate import quad
        from scipy.special import betainc

        ov, reach = model.overlap(space), model.support_radius()

        def shell(rho: float) -> float:
            lens = ov.ball_volume * betainc((d + 1) / 2, 0.5, 1.0 - (rho / reach) ** 2)
            return float(model._kernel_of_overlap(lens, ov.ball_volume)) * rho ** (d - 1)

        integral, error = quad(shell, 0.0, reach, epsabs=0.0, epsrel=1e-10)
        mass, error = d * ball * integral, d * ball * error
        error += (ball * reach ** d * model.envelope_sup(space) * math.log(model.gamma) ** 2
                  * ov.ball_volume * ov.error_bound())  # 0 in 1-D
    else:
        return None
    return ContractionEstimate(value=space.intensity * mass,
                               error=space.intensity * error, resolution=0)


def _window_contraction(model: RateModel, space: SpaceSpec, n: int) -> ContractionEstimate:
    """contraction_constant at the window's centre x0 on midpoint grids of
    the whole window at n and 2n points per axis, n halved until (2n)^d fits
    _WINDOW_GRID_BUDGET. The kernel sees _KERNEL_ROWS grid rows at a time:
    an area-interaction kernel tests each row against every QMC grain node.

    The error is the grids' difference, raised for a radial step kernel
    (pairwise, nearest neighbour) to the fine grid's step bound, which the
    difference can understate by orders of magnitude: with jump j_k at
    radius R_k, a cell errs only if a jump sphere cuts it, by at most the
    jump times its volume, and such a cell lies within one cell diagonal h
    of the sphere, so the error is at most
    intensity |B_d| sum_k j_k ((R_k + h)^d - max(R_k - h, 0)^d).
    """
    while n > 1 and (2 * n) ** space.dimension > _WINDOW_GRID_BUDGET:
        n //= 2
    x0 = space.lengths_array() / 2.0
    radii, jumps = np.zeros(0), np.zeros(0)
    if isinstance(model, PairwiseRate):
        radii, jumps = np.array([model.interaction_range]), -math.expm1(-model.theta)
    elif isinstance(model, NearestNeighborRate):
        kernel = np.abs(model.value_at_infinity - model._table)  # 0 past the last breakpoint
        radii, jumps = model._breaks, np.abs(np.diff(kernel))
    finite = np.isfinite(radii)  # a jump at an infinite radius cuts no cell
    radii, jumps = radii[finite], np.broadcast_to(jumps, finite.shape)[finite]
    h, d = math.hypot(*space.lengths) / (2 * n), space.dimension
    step = space.intensity * unit_ball_volume(d) * float(
        np.sum(jumps * ((radii + h) ** d - np.maximum(radii - h, 0.0) ** d)))

    def integral(res: int) -> float:
        # the kernel is computed per point, so the chunks join to the values
        # of one call on the whole grid, summed as one array
        grid = space.grid(res)
        a = np.concatenate([np.asarray(model.increment_kernel(space, x0, grid[i:i + _KERNEL_ROWS]),
                                       dtype=float) for i in range(0, len(grid), _KERNEL_ROWS)])
        return float(np.sum(a)) * space.intensity * space.cell_volume(res)

    coarse = integral(n)
    fine = integral(2 * n)
    return ContractionEstimate(value=fine, error=max(abs(fine - coarse), step), resolution=2 * n)


# ---------------------------------------------------------------------------
# config-block parsing
# ---------------------------------------------------------------------------

# the keys each block type reads, beside "type"; any other key is refused
_DEATH_KEYS = {"unit": set(), "constant": {"rate"}}
_MODEL_KEYS = {
    "constant": {"rate"},
    "pairwise": {"theta", "range"},
    "area_interaction": {"rho", "gamma", "grain_radius", "overlap_resolution"},
    "nearest_neighbor": {"breakpoints", "values", "value_at_infinity"},
    "cell_occupancy": {"cell_counts", "theta", "base_rate"},
}


def _block_type(block: dict, name: str, keys_by_type: dict) -> str:
    """The block's type, after refusing an unknown type or a key it does not read."""
    kind = block.get("type")
    known = keys_by_type.get(kind) if isinstance(kind, str) else None
    if known is None:
        raise SimulationConfigError(f"unknown {name} type {kind!r}")
    unknown = set(block) - known - {"type"}
    if unknown:
        raise SimulationConfigError(f"unknown {name} fields for type {kind!r}: {sorted(unknown)}")
    return kind


def _entries(block: dict, key: str) -> list:
    """The list that model.<key> must be."""
    entries = block[key]
    if not isinstance(entries, list):
        raise SimulationConfigError(f"model.{key} must be a list, got {entries!r}")
    return entries


def death_from_config(block: dict | None):
    if block is not None and not isinstance(block, dict):
        raise SimulationConfigError(f"config field 'death' must be an object, got {block!r}")
    block = block or {"type": "unit"}
    if _block_type(block, "death", _DEATH_KEYS) == "unit":
        return ConstantDeath()
    if "rate" not in block:
        raise SimulationConfigError("death config block missing key: 'rate'")
    return ConstantDeath(rate=config_number(block["rate"], "death.rate"))


def model_from_config(config: dict) -> RateModel:
    """Build a rate model from the {"model": ..., "death": ...} config block."""
    try:
        block = config["model"]
        if not isinstance(block, dict):
            raise SimulationConfigError(f"config field 'model' must be an object, got {block!r}")
        kind = block["type"]
    except KeyError as exc:
        raise SimulationConfigError(f"model config block missing key: {exc}") from None
    death = death_from_config(config.get("death"))
    _block_type(block, "model", _MODEL_KEYS)

    def finite(value, name):
        # an infinite range or breakpoint is a model (every point is a
        # neighbour), but a config that names one is refused with the rest
        x = config_number(value, name)
        if not math.isfinite(x):
            raise SimulationConfigError(f"{name} must be finite, got {x}")
        return x

    def number(key):
        return finite(block[key], f"model.{key}")

    try:
        if kind == "constant":
            return ConstantRate(rate=number("rate"), death=death)
        if kind == "pairwise":
            return PairwiseRate(theta=number("theta"), interaction_range=number("range"),
                                death=death)
        if kind == "area_interaction":
            return AreaInteractionRate(
                rho=number("rho"), gamma=number("gamma"), grain_radius=number("grain_radius"),
                death=death, overlap_resolution=config_count(
                    block.get("overlap_resolution", 4096), "model.overlap_resolution", 1))
        if kind == "nearest_neighbor":
            return NearestNeighborRate(
                breakpoints=tuple(finite(b, "model.breakpoints entry")
                                  for b in _entries(block, "breakpoints")),
                values=tuple(finite(v, "model.values entry") for v in _entries(block, "values")),
                value_at_infinity=number("value_at_infinity"), death=death)
        try:
            theta = np.asarray(block["theta"], dtype=float)
        except (TypeError, ValueError):
            raise SimulationConfigError(
                f"model.theta must be a matrix of numbers, got {block['theta']!r}") from None
        return CellOccupancyRate(
            cell_counts=tuple(config_count(c, "model.cell_counts entry", 1)
                              for c in _entries(block, "cell_counts")),
            theta=theta,
            base_rate=finite(block.get("base_rate", 1.0), "model.base_rate"), death=death)
    except KeyError as exc:
        raise SimulationConfigError(f"model config block missing key: {exc}") from None
