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
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


class SimulationConfigError(ValueError):
    """Raised when a window, model, or run configuration is invalid."""


def config_count(value, name: str, least: int = 0) -> int:
    """A config value that must be an integer >= least (a JSON integer, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise SimulationConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def config_number(value, name: str) -> float:
    """A config value that must be a number (not a bool or a string), as a float."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise SimulationConfigError(f"{name} must be a number, got {value!r}") from None


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
        # index keys of the window, each the maker of its index: neighbour_grid's
        # per radius, the cell model's occupancy per cell counts; not a field,
        # so never compared
        object.__setattr__(self, "_index_makers", {})
        if self.dimension < 1:
            raise SimulationConfigError(f"dimension must be >= 1, got {self.dimension}")
        if len(self.lengths) != self.dimension:
            raise SimulationConfigError(
                f"lengths {self.lengths} do not match dimension {self.dimension}")
        if any(not (0 < L < math.inf) for L in self.lengths):
            raise SimulationConfigError(
                f"window lengths must be finite and positive, got {self.lengths}")
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
    points_array() all follow insertion order. An add of a tuple keeps that
    tuple as the row's p (the event loop passes its proposals so); any other
    point is converted to floats and checked. Rows are never changed, so
    copies, restrictions and both paths of a bracket share them.
    rows() is the one per-point read of a state. points_array() is a
    read-only array built on first use after an add or remove and kept until
    the next one, so an array handed out keeps its values; items() returns
    new arrays, and remove() returns the point's tuple p.

    Derived indexes (a rate model's occupancy counts, a neighbour grid) are
    built from the live points the first time index() is asked for one, and
    every later add and remove updates them: add passes the id and p, remove
    only the id, so each index keeps what it needs of a point (its cell) by
    id. copy(), restrict() and every new configuration start with none.
    """

    __slots__ = ("_rows", "_d", "_xs", "_indexes")

    def __init__(self):
        self._rows: dict[str, tuple[tuple[float, ...], float, float]] = {}
        self._d = 0  # length of every p while the store is not empty
        self._xs = None  # cached points_array(), None after an add or remove
        self._indexes: dict = {}

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
        self._xs = None
        for index in self._indexes.values():
            index.add(pid, x)

    def remove(self, pid: str) -> tuple[float, ...]:
        """Remove point pid and return its coordinates, the tuple p of its row."""
        try:
            p = self._rows.pop(pid)[0]
        except KeyError:
            raise SimulationConfigError(f"unknown point id {pid!r}") from None
        self._xs = None
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


def symmetric_difference(eta1: Configuration, eta2: Configuration):
    """Multiset symmetric difference as a coordinate array, shape (m, d):
    eta1's surplus, then eta2's, each in row order, the same in any process;
    shape (0, 0) when empty, as points_array()."""
    c1, c2 = eta1.multiset(), eta2.multiset()
    out = [np.frombuffer(key, dtype=float) for surplus in (c1 - c2, c2 - c1)
           for key in surplus.elements()]
    return np.stack(out) if out else _EMPTY


# Cells per axis are capped, so that a cell coordinate x / L * c keeps about
# 30 bits below the binary point, and sized with a relative slack, so that the
# rounding of cell coordinates and of distances can never put a point within
# the radius outside the block of cells next to the query's cell.
_MAX_CELLS_PER_AXIS = 1 << 20
_CELL_SLACK = 1.0 + 1e-6
# Flat neighbour blocks kept across grids: one dict per grid shape (cells per
# axis, boundary), keyed by the C-order flat index of a cell, and at most
# _BLOCK_CACHE blocks over all shapes; a shape's dict is made with its first
# block, so there are never more shapes than blocks. A block takes about
# 0.43 KB in 2-D and 1.1 KB in 3-D (tracemalloc, every block of a 49 x 49 and
# a 13^3 grid). Once the bound is reached the cache keeps what it holds, and a
# block not in it is built on each query that needs it. The bound is sized
# from the traffic of a 2-D simulate at pairwise range 0.02 on the unit torus
# (49 x 49 cells, ~700 points): a run of horizon 1 makes about 1000 queries in
# about 830 cells, and twelve runs reach 2385 of the 2401 cells, so every
# block of that grid fits, with room for the smaller grids of other radii.
_BLOCK_CACHE = 4096
_BLOCKS: dict[tuple[tuple[int, ...], bool], dict[int, tuple[int, ...]]] = {}
_blocks_held = 0  # blocks in _BLOCKS over all shapes


def _flat_block(key: int, counts: tuple[int, ...], periodic: bool) -> tuple[int, ...]:
    """The cells around the cell with C-order flat index key, on a grid of
    counts cells per axis, as flat indices in itertools.product order over
    the axes: per axis the cell and its two neighbours (wrapped on a periodic
    window, clipped on a free one), or the whole axis when it has three cells
    or fewer, so no cell is listed twice. The axes are taken last first, each
    one's index read off key by divmod, and each new axis varies slowest."""
    block, stride = [0], 1
    for c in reversed(counts):
        key, i = divmod(key, c)
        if c <= 3:
            axis = range(0, c * stride, stride)
        elif periodic:
            axis = ((i - 1 if i else c - 1) * stride, i * stride,
                    (i + 1 if i + 1 < c else 0) * stride)
        else:
            axis = range(max(i - 1, 0) * stride, min(i + 2, c) * stride, stride)
        block = [j + f for j in axis for f in block]
        stride *= c
    return tuple(block)


class NeighbourGrid:
    """Sparse cell list over the points of a configuration (the linked-cell
    method of molecular simulation), for queries within a fixed radius.

    Each axis of the window is cut into c equal cells with side L / c at least
    the radius (one cell when the radius is as long as the axis), and a cell
    is keyed by its C-order flat index, one integer. A dict maps the key of
    each occupied cell to its points, so a tiny radius costs no memory beyond
    the points, and a second dict maps each id to its key, so remove(pid)
    finds the point without its coordinates. A query visits the block of 3^d
    cells around the query's cell, as flat keys in the order of _flat_block
    (cached across grids of one shape), each cell at most once (an axis with
    three cells or fewer is visited whole), which holds every point within
    the radius, and returns exactly those. Its distances repeat the float
    operations of distances_to, so the points it returns are the points a
    full scan finds at distance <= radius. Points must lie in the window; a
    point on the upper face of a free window falls in the last cell. Built by
    Configuration.index through neighbour_grid.

    _cell and near have one body written out per axis for 1-D and 2-D
    windows, picked by the window's dimension; a window of 3 or more
    dimensions takes the loop over the axes. Each body does the same float
    operations in the same order (a 2-D sum starts at d0 * d0, which equals
    the loop's 0.0 + d0 * d0).
    """

    __slots__ = ("_lengths", "_counts", "_periodic", "_wrap", "_radius", "_dim", "_blocks",
                 "_cells", "_home")

    def __init__(self, space: SpaceSpec, radius: float):
        self._lengths = space.lengths
        self._counts = tuple(max(1, int(min(L / (radius * _CELL_SLACK), _MAX_CELLS_PER_AXIS)))
                             for L in self._lengths)
        self._periodic = space.periodic
        # the length across which an axis wraps; inf on a free window, where
        # the test L - d < d of a wrapped distance never holds
        self._wrap = self._lengths if self._periodic else (math.inf,) * space.dimension
        self._radius = radius
        self._dim = space.dimension
        # the cached blocks of this shape; a dict of the grid's own, left
        # empty, until _block stores the first block of a new shape
        self._blocks = _BLOCKS.get((self._counts, self._periodic), {})
        self._cells: dict[int, dict[str, tuple[float, ...]]] = {}
        self._home: dict[str, int] = {}

    def _cell(self, p) -> int:
        """The flat key of p's cell, from min(floor(v / L * c), c - 1) per axis
        (the min as a comparison, which costs less than a call of min)."""
        dim = self._dim
        if dim == 2:
            (L0, L1), (c0, c1) = self._lengths, self._counts
            i = math.floor(p[0] / L0 * c0)
            j = math.floor(p[1] / L1 * c1)
            return (i if i < c0 else c0 - 1) * c1 + (j if j < c1 else c1 - 1)
        if dim == 1:
            c = self._counts[0]
            i = math.floor(p[0] / self._lengths[0] * c)
            return i if i < c else c - 1
        key = 0
        for v, L, c in zip(p, self._lengths, self._counts):
            i = math.floor(v / L * c)
            key = key * c + (i if i < c else c - 1)
        return key

    def _block(self, key: int) -> tuple[int, ...]:
        """_flat_block of the cell with flat key key, kept in the cache of the
        grid's shape while the bound allows."""
        global _blocks_held
        block = _flat_block(key, self._counts, self._periodic)
        if _blocks_held < _BLOCK_CACHE:
            if not self._blocks:  # the grid's own dict: its shape has no blocks yet
                self._blocks = _BLOCKS.setdefault((self._counts, self._periodic), {})
            self._blocks[key] = block
            _blocks_held += 1
        return block

    def add(self, pid: str, p: tuple[float, ...]) -> None:
        key = self._home[pid] = self._cell(p)
        members = self._cells.get(key)
        if members is None:
            members = self._cells[key] = {}
        members[pid] = p

    def remove(self, pid: str) -> None:
        key = self._home.pop(pid)
        members = self._cells[key]
        del members[pid]
        if not members:
            del self._cells[key]

    def near(self, x) -> list[tuple[float, str, tuple[float, ...]]]:
        """(distance, pid, point) for exactly the points within the radius of
        x (distance <= radius), each once, cell by cell in block order."""
        if type(x) is not tuple:
            x = np.asarray(x, dtype=float).tolist()
        key = self._cell(x)
        block = self._blocks.get(key) or self._block(key)
        cells, r, sqrt = self._cells, self._radius, math.sqrt
        out = []
        push = out.append
        dim = self._dim
        if dim == 2:
            x0, x1 = x
            W0, W1 = self._wrap
            for key in block:
                members = cells.get(key)
                if members is None:
                    continue
                for pid, p in members.items():
                    d0 = abs(p[0] - x0)
                    if W0 - d0 < d0:
                        d0 = W0 - d0
                    d1 = abs(p[1] - x1)
                    if W1 - d1 < d1:
                        d1 = W1 - d1
                    t = sqrt(d0 * d0 + d1 * d1)
                    if t <= r:
                        push((t, pid, p))
        elif dim == 1:
            x0 = x[0]
            W0 = self._wrap[0]
            for key in block:
                members = cells.get(key)
                if members is None:
                    continue
                for pid, p in members.items():
                    d0 = abs(p[0] - x0)
                    if W0 - d0 < d0:
                        d0 = W0 - d0
                    t = sqrt(d0 * d0)  # not d0: d0 * d0 may underflow, as in distances_to
                    if t <= r:
                        push((t, pid, p))
        else:
            wrap = self._wrap
            for key in block:
                members = cells.get(key)
                if members is None:
                    continue
                for pid, p in members.items():
                    s = 0.0
                    for pv, xv, W in zip(p, x, wrap):
                        d = abs(pv - xv)
                        if W - d < d:
                            d = W - d
                        s += d * d
                    t = sqrt(s)
                    if t <= r:
                        push((t, pid, p))
        return out


def neighbour_grid(space: SpaceSpec, eta: Configuration, radius: float) -> NeighbourGrid:
    """eta's neighbour grid for queries within radius under the metric of
    space, built on first use and kept up to date by eta's add and remove.
    Its key in eta is a maker of the grid kept on space per radius, so a
    lookup hashes one float and one object identity and builds nothing."""
    make = space._index_makers.get(radius)
    if make is None:
        make = space._index_makers[radius] = functools.partial(NeighbourGrid, space, radius)
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

