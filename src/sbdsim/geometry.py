"""Window geometry, point configurations, and multiset operations.

Points live in a bounded rectangular window, either with periodic boundary
(torus metric) or free boundary (Euclidean metric). Configurations are finite
counting measures: multisets of points carrying opaque ids so that births and
deaths can be tracked without imposing an order. A configuration is also a
run's timed state: each point keeps the birth time s and death mark r of its
proposal atom (x, s, r).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray


class SimulationConfigError(ValueError):
    """Raised when a window, model, or run configuration is invalid."""


# ---------------------------------------------------------------------------
# window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceSpec:
    """Bounded rectangular window with a diffuse reference intensity.

    Attributes:
        dimension: spatial dimension d >= 1.
        lengths: side lengths of the window, one per axis.
        boundary: "periodic" (torus metric) or "free" (Euclidean metric).
        intensity: constant density of the reference birth measure with
            respect to Lebesgue measure on the window.
        quadrature_resolution: grid points per axis for numeric integrals.
    """

    dimension: int
    lengths: tuple[float, ...]
    boundary: str = "periodic"
    intensity: float = 1.0
    quadrature_resolution: int = 256

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(self.lengths))  # hashable index keys
        # neighbour_grid's index key per radius; not a field, so never compared
        object.__setattr__(self, "_grid_makers", {})
        if self.dimension < 1:
            raise SimulationConfigError(f"dimension must be >= 1, got {self.dimension}")
        if len(self.lengths) != self.dimension:
            raise SimulationConfigError(
                f"lengths {self.lengths} do not match dimension {self.dimension}")
        if any(not (L > 0) for L in self.lengths):
            raise SimulationConfigError(f"window lengths must be positive, got {self.lengths}")
        if self.boundary not in ("periodic", "free"):
            raise SimulationConfigError(f"boundary must be 'periodic' or 'free', got {self.boundary!r}")
        if not (self.intensity >= 0) or not math.isfinite(self.intensity):
            raise SimulationConfigError(f"intensity must be finite and >= 0, got {self.intensity}")
        if self.quadrature_resolution < 2:
            raise SimulationConfigError("quadrature_resolution must be >= 2")

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"

    @property
    def volume(self) -> float:
        return float(math.prod(self.lengths))  # np.prod's product, without its array set-up

    @property
    def beta_total(self) -> float:
        """Total mass of the reference measure over the window."""
        return self.intensity * self.volume

    def lengths_array(self) -> NDArray[np.float64]:
        return np.asarray(self.lengths, dtype=float)

    def contains(self, x: NDArray[np.float64]) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            return False
        L = self.lengths_array()
        if self.periodic:
            return bool(np.all(x >= 0.0) and np.all(x < L))
        return bool(np.all(x >= 0.0) and np.all(x <= L))

    def require_point(self, x) -> NDArray[np.float64]:
        """Validate and return a point of this window as a float vector."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise SimulationConfigError(
                f"point of shape {x.shape} does not match dimension {self.dimension}")
        if not self.contains(x):
            raise SimulationConfigError(f"point {x} lies outside the window")
        return x

    def grid(self, resolution: int | None = None) -> NDArray[np.float64]:
        """Midpoint quadrature grid, shape (resolution**d, d)."""
        n = int(resolution or self.quadrature_resolution)
        axes = [(np.arange(n) + 0.5) * (L / n) for L in self.lengths]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell_volume(self, resolution: int | None = None) -> float:
        n = int(resolution or self.quadrature_resolution)
        return self.volume / n**self.dimension


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def displacement(space: SpaceSpec, x: NDArray, y: NDArray) -> NDArray[np.float64]:
    """Coordinatewise absolute displacement, wrapped on a periodic window."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    if space.periodic:
        d = np.minimum(d, space.lengths_array() - d)
    return d


def torus_distance(space: SpaceSpec, x, y) -> float:
    """Metric of the window: torus distance if periodic, Euclidean otherwise."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (space.dimension,) or y.shape != (space.dimension,):
        raise SimulationConfigError("torus_distance: point dimension mismatch")
    return float(np.sqrt(np.sum(displacement(space, x, y) ** 2)))


def distances_to(space: SpaceSpec, x: NDArray, pts: NDArray) -> NDArray[np.float64]:
    """Distances from x to each row of pts, shape (len(pts),)."""
    pts = np.asarray(pts, dtype=float)
    if pts.size == 0:
        return np.zeros(0)
    d = np.abs(pts - np.asarray(x, dtype=float))
    if space.periodic:
        d = np.minimum(d, space.lengths_array() - d)
    return np.sqrt(np.sum(d * d, axis=1))


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

_EMPTY = np.zeros((0, 0))
_EMPTY.flags.writeable = False


class TimedPoint(NamedTuple):
    """A point as Configuration.entry gives it. Under a constant death rate
    delta0 it dies at birth_time + clock / delta0; clock is NaN for a point
    added without a death mark."""

    coords: NDArray[np.float64]
    clock: float
    birth_time: float


def _read_only(a: NDArray) -> NDArray:
    a.flags.writeable = False
    return a


class Configuration:
    """Finite multiset of points with opaque ids, each with a death mark and a
    birth time.

    Two configurations are equal when they carry the same multiset of
    coordinates; ids, marks and birth times never enter comparisons.

    The store is one insertion-ordered dict of immutable rows, id ->
    (p, mark, born), with p a tuple of floats and mark NaN for a point added
    without a death mark. ids(), items(), rows() and the rows of
    points_array() and timing() all follow insertion order. An add of a
    tuple keeps that tuple as the row's p (the event loop passes its
    proposals so); any other point is converted to floats and checked. Rows
    are never changed, so copies, restrictions and both paths of a bracket
    share them. points_array() and timing() are read-only arrays built on
    first use after an add or remove and kept until the next one, so an
    array handed out keeps its values; coords(), entry() and items() return
    new arrays, and remove() returns the point's tuple p.

    Derived indexes (a rate model's occupancy counts, a neighbour grid) are
    built from the live points the first time index() is asked for one, and
    every later add and remove updates them: add passes the id and p, remove
    only the id, so each index keeps what it needs of a point (its cell) by
    id. copy(), restrict() and every new configuration start with none.
    """

    __slots__ = ("_rows", "_d", "_xs", "_timing", "_indexes")

    def __init__(self, points: dict[str, NDArray[np.float64]] | None = None):
        self._rows: dict[str, tuple[tuple[float, ...], float, float]] = {}
        self._d = 0  # length of every p while the store is not empty
        self._xs = self._timing = None  # cached columns, None after an add or remove
        self._indexes: dict = {}
        if points:
            for pid, x in points.items():
                self.add(pid, x)

    @classmethod
    def from_columns(cls, ids, xs, mark=None, born=0.0) -> "Configuration":
        """The point ids[i] at xs[i] with death mark mark[i] (NaN for all when
        mark is None) and birth time born (one for all or one per point), rows
        in that order."""
        ids, xs = list(ids), np.asarray(xs, dtype=float)
        if not ids:
            return cls()
        if mark is None:
            mark = np.full(len(ids), math.nan)
        elif not (mark := np.asarray(mark, dtype=float)).min() > 0:
            raise SimulationConfigError(f"residual clock must be > 0, got {mark.min()}")
        if xs.ndim != 2 or len(xs) != len(ids) or mark.shape != (len(ids),):
            raise SimulationConfigError(f"{len(ids)} ids for points of shape {xs.shape}")
        cfg = cls()
        cfg._rows = dict(zip(ids, zip(map(tuple, xs.tolist()), mark.tolist(),
                                      np.broadcast_to(born, len(ids)).tolist())))
        if len(cfg._rows) != len(ids):
            raise SimulationConfigError("duplicate point ids")
        cfg._d = xs.shape[1]
        return cfg

    @classmethod
    def from_points(cls, pts, prefix: str = "p") -> "Configuration":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return cls.from_columns([f"{prefix}{i}" for i in range(len(pts) if pts.size else 0)], pts)

    def add(self, pid: str, x, mark: float | None = None, born: float = 0.0) -> None:
        """Add point pid at x, with death mark mark (NaN when None), born at born."""
        rows = self._rows
        if pid in rows:
            raise SimulationConfigError(f"duplicate point id {pid!r}")
        if mark is None:
            mark = math.nan
        elif not (mark > 0):
            raise SimulationConfigError(f"residual clock must be > 0, got {mark}")
        if type(x) is not tuple:
            a = np.asarray(x, dtype=float)
            if a.ndim != 1:
                raise SimulationConfigError(f"point of shape {a.shape} is not a vector")
            x = tuple(a.tolist())
        if rows and len(x) != self._d:
            raise SimulationConfigError(
                f"point of dimension {len(x)} in a configuration of dimension {self._d}")
        self._d = len(x)
        rows[pid] = (x, mark, born)
        self._xs = self._timing = None
        for index in self._indexes.values():
            index.add(pid, x)

    def remove(self, pid: str) -> tuple[float, ...]:
        """Remove point pid and return its coordinates, the tuple p of its row."""
        try:
            p = self._rows.pop(pid)[0]
        except KeyError:
            raise SimulationConfigError(f"unknown point id {pid!r}") from None
        self._xs = self._timing = None
        for index in self._indexes.values():
            index.remove(pid)
        return p

    def index(self, key, make):
        """The derived index stored under the hashable key. On first use make()
        returns an empty index, which is filled with index.add(pid, p) for
        every live point (p the row's tuple of floats); from then on add
        calls the same index.add(pid, p) and remove calls index.remove(pid),
        which takes no coordinates: an index keeps by id what it needs to
        drop a point."""
        index = self._indexes.get(key)
        if index is None:
            index = make()
            for pid, (p, _, _) in self._rows.items():
                index.add(pid, p)
            self._indexes[key] = index
        return index

    def rows(self):
        """The (pid, (p, mark, born)) pairs of the live points, in ids() order."""
        return self._rows.items()

    def coords(self, pid: str) -> NDArray[np.float64]:
        return np.array(self._rows[pid][0], dtype=float)

    def entry(self, pid: str) -> TimedPoint:
        p, mark, born = self._rows[pid]
        return TimedPoint(np.array(p, dtype=float), float(mark), float(born))

    def ids(self):
        return self._rows.keys()

    def items(self) -> list[tuple[str, NDArray[np.float64]]]:
        return [(pid, np.array(p, dtype=float)) for pid, (p, _, _) in self._rows.items()]

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, pid: str) -> bool:
        return pid in self._rows

    def points_array(self) -> NDArray[np.float64]:
        """The live points in ids() order, shape (n, d); shape (0, 0) when
        empty. Read-only, and never changed once handed out."""
        if self._xs is None:
            rows = self._rows.values()
            self._xs = _read_only(np.array([p for p, _, _ in rows], float)) if rows else _EMPTY
        return self._xs

    def timing(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """The death marks and birth times of the rows of points_array(), as
        read-only arrays never changed once handed out."""
        if self._timing is None:
            rows = self._rows.values()
            self._timing = (_read_only(np.array([m for _, m, _ in rows], dtype=float)),
                            _read_only(np.array([b for _, _, b in rows], dtype=float)))
        return self._timing

    def copy(self) -> "Configuration":
        out = Configuration()
        out._rows, out._d = self._rows.copy(), self._d
        return out

    def restrict(self, ids) -> "Configuration":
        """A new configuration of the points ids, with their marks and birth
        times, rows in the order of ids."""
        ids = list(ids)
        out = Configuration()
        rows = self._rows
        out._rows = {pid: rows[pid] for pid in ids}
        if len(out._rows) != len(ids):
            raise SimulationConfigError("duplicate point ids")
        out._d = self._d
        return out

    def multiset(self) -> Counter:
        # Counted in insertion order, the order of the rows
        return Counter(row.tobytes() for row in self.points_array())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return len(self) == len(other) and self.multiset() == other.multiset()

    def __repr__(self) -> str:
        return f"Configuration(n={len(self)})"


def configuration_contains(big: Configuration, small: Configuration) -> bool:
    """Multiset containment: every point of small occurs in big at least as often."""
    cb, cs = big.multiset(), small.multiset()
    return all(cb.get(k, 0) >= v for k, v in cs.items())


def symmetric_difference(eta1: Configuration, eta2: Configuration, dimension: int | None = None):
    """Multiset symmetric difference as a coordinate array, shape (m, d):
    eta1's surplus, then eta2's, each in row order, the same in any process."""
    c1, c2 = eta1.multiset(), eta2.multiset()
    out = [np.frombuffer(key, dtype=float) for surplus in (c1 - c2, c2 - c1)
           for key in surplus.elements()]
    if not out:
        d = dimension if dimension is not None else 0
        return np.zeros((0, d))
    return np.stack(out)


def nearest_distance(space: SpaceSpec, x, eta: Configuration) -> float:
    """Distance from x to the nearest point of eta; +inf for an empty eta."""
    if len(eta) == 0:
        return math.inf
    return float(np.min(distances_to(space, np.asarray(x, dtype=float), eta.points_array())))


# Cells per axis are capped, so that a cell coordinate x / L * c keeps about
# 30 bits below the binary point, and sized with a relative slack, so that the
# rounding of cell coordinates and of distances can never put a point within
# the radius outside the block of cells next to the query's cell.
_MAX_CELLS_PER_AXIS = 1 << 20
_CELL_SLACK = 1.0 + 1e-6
# Blocks kept by _neighbour_block, keyed by (cell, counts, periodic), at most
# about 0.8 KB each in 2-D and 2.2 KB in 3-D. Once the cache is full it keeps
# what it holds and later blocks are built on every query: on a grid with more
# cells than the bound (49 x 49 at radius 0.02 on the unit torus), evicting
# and rebuilding least recently used blocks made a 2-D simulate about 6 %
# slower than building every block, while keeping the first ones costs
# nothing.
_BLOCK_CACHE = 512
_BLOCKS: dict[tuple, tuple[tuple[int, ...], ...]] = {}


def _neighbour_block(cell: tuple[int, ...], counts: tuple[int, ...],
                     periodic: bool) -> tuple[tuple[int, ...], ...]:
    """The cells around cell on a grid of counts cells per axis, in
    itertools.product order: per axis the cell and its two neighbours
    (wrapped on a periodic window, clipped on a free one), or the whole axis
    when it has three cells or fewer, so no cell is listed twice."""
    key = (cell, counts, periodic)
    block = _BLOCKS.get(key)
    if block is None:
        axes = []
        for i, c in zip(cell, counts):
            if c <= 3:
                axes.append(range(c))
            elif periodic:
                axes.append((i - 1 if i else c - 1, i, i + 1 if i + 1 < c else 0))
            else:
                axes.append(range(max(i - 1, 0), min(i + 2, c)))
        block = tuple(itertools.product(*axes))
        if len(_BLOCKS) < _BLOCK_CACHE:
            _BLOCKS[key] = block
    return block


class NeighbourGrid:
    """Sparse cell list over the points of a configuration (the linked-cell
    method of molecular simulation), for queries within a fixed radius.

    Each axis of the window is cut into c equal cells with side L / c at least
    the radius (one cell when the radius is as long as the axis); a dict maps
    the integer tuple of each occupied cell to its points, so a tiny radius
    costs no memory beyond the points, and a second dict maps each id to its
    cell, so remove(pid) finds the point without its coordinates. A query
    visits the block of 3^d cells around the query's cell (_neighbour_block,
    cached across grids), each cell at most once (an axis with three cells or
    fewer is visited whole), which holds every point within the radius. Its
    distances repeat the float operations of distances_to, so a model that
    compares them with its radius counts exactly the points a full scan
    counts. Points must lie in the window; a point on the upper face of a
    free window falls in the last cell. Built by Configuration.index through
    neighbour_grid.
    """

    __slots__ = ("_lengths", "_counts", "_periodic", "_cells", "_home")

    def __init__(self, space: SpaceSpec, radius: float):
        self._lengths = space.lengths
        self._counts = tuple(max(1, int(min(L / (radius * _CELL_SLACK), _MAX_CELLS_PER_AXIS)))
                             for L in self._lengths)
        self._periodic = space.periodic
        self._cells: dict[tuple[int, ...], dict[str, tuple[float, ...]]] = {}
        self._home: dict[str, tuple[int, ...]] = {}

    def _cell(self, p) -> tuple[int, ...]:
        return tuple([min(math.floor(v / L * c), c - 1)
                      for v, L, c in zip(p, self._lengths, self._counts)])

    def add(self, pid: str, p: tuple[float, ...]) -> None:
        cell = self._home[pid] = self._cell(p)
        members = self._cells.get(cell)
        if members is None:
            members = self._cells[cell] = {}
        members[pid] = p

    def remove(self, pid: str) -> None:
        cell = self._home.pop(pid)
        members = self._cells[cell]
        del members[pid]
        if not members:
            del self._cells[cell]

    def near(self, x) -> list[tuple[float, str, tuple[float, ...]]]:
        """(distance, pid, point) for every point in the cells around x:
        every point within the radius of x, and possibly some farther ones."""
        if type(x) is not tuple:
            x = np.asarray(x, dtype=float).tolist()
        cells, lengths, periodic = self._cells, self._lengths, self._periodic
        out = []
        for key in _neighbour_block(self._cell(x), self._counts, periodic):
            members = cells.get(key)
            if members is None:
                continue
            for pid, p in members.items():
                s = 0.0
                for pv, xv, L in zip(p, x, lengths):
                    d = abs(pv - xv)
                    if periodic and L - d < d:
                        d = L - d
                    s += d * d
                out.append((math.sqrt(s), pid, p))
        return out


def neighbour_grid(space: SpaceSpec, eta: Configuration, radius: float) -> NeighbourGrid:
    """eta's neighbour grid for queries within radius under the metric of
    space, built on first use and kept up to date by eta's add and remove.
    Its key in eta is a maker of the grid kept on space per radius, so a
    lookup hashes one float and one object identity and builds nothing."""
    make = space._grid_makers.get(radius)
    if make is None:
        make = space._grid_makers[radius] = functools.partial(NeighbourGrid, space, radius)
    return eta.index(make, make)


# A state with death marks was once a class of its own; the benchmark's
# workloads (perfbench/workloads.py) and the public sbdsim namespace import
# the name, and a Configuration is that state now.
TimedConfiguration = Configuration


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def snapshot_to_json(time: float, eta: Configuration) -> str:
    """Serialize a configuration snapshot: {"time": t, "points": [[...], ...]},
    the rows' coordinate tuples in sorted order (json writes a tuple as a list)."""
    return json.dumps({"time": time, "points": sorted(p for _, (p, _, _) in eta.rows())})


def snapshot_from_json(text: str) -> tuple[float, Configuration]:
    obj = json.loads(text)
    cfg = Configuration()
    for i, p in enumerate(obj["points"]):
        cfg.add(f"p{i}", np.asarray(p, dtype=float))
    return float(obj["time"]), cfg
