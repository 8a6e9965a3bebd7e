"""Rates read through a configuration's derived indexes (occupancy counts and
the neighbour grid) against full scans of every point.

The references below are the full-scan formulas: every point's distance by
distances_to (its minimum for the nearest point), the occupancy vector by
np.add.at. The indexed rates must equal
them bit for bit, not to rounding, after any sequence of additions, removals
and copies.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbdsim import geometry, models
from sbdsim.cftp import sandwich_run
from sbdsim.geometry import (
    _BLOCK_CACHE,
    Configuration,
    NeighbourGrid,
    SpaceSpec,
    _flat_block,
    distances_to,
    neighbour_grid,
)
from sbdsim.models import (
    AreaInteractionRate,
    CellOccupancyRate,
    NearestNeighborRate,
    PairwiseRate,
    sandwich_rates,
)
from sbdsim.noise import NoiseStream, replicate_seed


# ---------------------------------------------------------------------------
# full-scan references
# ---------------------------------------------------------------------------

def scan(space, x, eta):
    pts = eta.points_array()
    if pts.size == 0:
        return np.zeros(0)
    return distances_to(space, np.asarray(x, dtype=float), pts)


def ref_pairwise(m, space, x, eta):
    close = int(np.count_nonzero(scan(space, x, eta) <= m.interaction_range))
    return math.exp(-m.theta * close)


def ref_area(m, space, x, eta):
    pts = eta.points_array()
    near = pts[scan(space, x, eta) < 2.0 * m.grain_radius] if pts.size else pts
    exposed = m.overlap(space).exposed_volume(x, near)
    return m.rho * math.exp(-exposed * math.log(m.gamma))


def ref_nearest(m, space, x, eta):
    d = scan(space, x, eta)
    t = float(d.min()) if d.size else math.inf
    table = np.append(np.asarray(m.values, dtype=float), m.value_at_infinity)
    return float(table[np.searchsorted(np.asarray(m.breakpoints, dtype=float), t, side="right")])


def ref_cells(m, space, x, eta):
    counts = np.asarray(m.cell_counts)
    k = np.zeros(int(np.prod(counts)), dtype=int)
    pts = eta.points_array()
    if pts.size:
        np.add.at(k, m.cell_indices(space, pts), 1)
    idx = np.minimum(np.floor(np.asarray(x, dtype=float) / space.lengths_array() * counts)
                     .astype(int), counts - 1)
    cell = int(np.ravel_multi_index(idx, counts))
    return m.base_rate * math.exp(-float(m.theta[cell] @ k.astype(float)))


REFERENCE = {PairwiseRate: ref_pairwise, AreaInteractionRate: ref_area,
             NearestNeighborRate: ref_nearest, CellOccupancyRate: ref_cells}


def models_for(space, radius, cell_counts):
    """One model of each indexed kind whose interaction reaches `radius`."""
    models = [
        PairwiseRate(theta=0.4, interaction_range=radius),
        NearestNeighborRate(breakpoints=(radius / 2 if math.isfinite(radius)
                                         else min(space.lengths) / 4, radius),
                            values=(0.3, 0.9), value_at_infinity=1.4),
        CellOccupancyRate(cell_counts=cell_counts,
                          theta=0.2 * np.eye(math.prod(cell_counts)) + 0.05, base_rate=1.3),
    ]
    if math.isfinite(radius) and (not space.periodic or radius < min(space.lengths)):
        models.append(AreaInteractionRate(rho=1.2, gamma=1.8, grain_radius=radius / 2,
                                          overlap_resolution=256))
    return models


def assert_rates_match(models, space, xs, eta):
    for m in models:
        for x in xs:
            got = m.birth_rate(space, x, eta)
            want = REFERENCE[type(m)](m, space, x, eta)
            assert got == want, (type(m).__name__, x, got, want)


# ---------------------------------------------------------------------------
# property: random add / remove / copy sequences
# ---------------------------------------------------------------------------

RADIUS_FRACTIONS = (1e-12, 0.01, 0.1, 0.2, 1 / 3, 0.49, 0.5, 0.75, 1.0, 3.0, math.inf)


@st.composite
def window_point(draw, space, radius, anchors):
    """A point of the window: uniform, on a cell face, on the window's faces,
    or a copy of an earlier point, optionally moved by the radius along one
    axis (so that distances land on the radius)."""
    kind = draw(st.sampled_from(["uniform", "uniform", "face", "anchor", "anchor"]))
    out = []
    for L in space.lengths:
        top = L if not space.periodic else math.nextafter(L, 0.0)
        if kind == "face":
            v = draw(st.sampled_from([0.0, L / 3, L / 2, 2 * L / 3, top]))
        else:
            v = draw(st.floats(0.0, top, allow_nan=False))
        out.append(v)
    if kind == "anchor" and anchors:
        out = list(draw(st.sampled_from(anchors)))
        if math.isfinite(radius) and draw(st.booleans()):
            axis = draw(st.integers(0, space.dimension - 1))
            L = space.lengths[axis]
            v = out[axis] + draw(st.sampled_from([radius, -radius]))
            if space.periodic:
                v %= L
                if v >= L:
                    v = 0.0
            out[axis] = min(max(v, 0.0), L)
    return np.array(out)


@settings(max_examples=120, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), boundary=st.sampled_from(["periodic", "free"]),
       data=st.data())
def test_indexed_rates_equal_full_scan(dim, boundary, data):
    lengths = tuple(data.draw(st.sampled_from([1.0, 0.7, 2.5])) for _ in range(dim))
    space = SpaceSpec(dimension=dim, lengths=lengths, boundary=boundary)
    radius = min(lengths) * data.draw(st.sampled_from(RADIUS_FRACTIONS))
    cell_counts = tuple(data.draw(st.sampled_from([1, 2, 3, 5])) for _ in range(dim))
    models = models_for(space, radius, cell_counts)

    eta = Configuration()
    anchors: list[tuple] = []
    kept = []  # (configuration left behind by a copy, its points then)
    next_id = 0
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["add", "add", "remove", "copy"]))
        if op == "add":
            for _ in range(data.draw(st.integers(1, 10))):
                x = data.draw(window_point(space, radius, anchors))
                eta.add(f"q{next_id}", x)
                anchors.append(tuple(x))
                next_id += 1
        elif op == "remove" and len(eta):
            for _ in range(data.draw(st.integers(1, len(eta)))):
                eta.remove(data.draw(st.sampled_from(sorted(eta.ids()))))
        elif op == "copy":
            kept.append((eta, sorted(map(tuple, eta.points_array().tolist()))))
            eta = eta.copy()
        xs = [data.draw(window_point(space, radius, anchors)) for _ in range(3)]
        assert_rates_match(models, space, xs, eta)
    for old, pts in kept:
        assert sorted(map(tuple, old.points_array().tolist())) == pts
        assert_rates_match(models, space, [np.array(p) for p in pts[:2]], old)


# ---------------------------------------------------------------------------
# property: both bracket rates of an id-nested pair from one scan
# ---------------------------------------------------------------------------

def bracket_models(radius):
    """The grid models with a bracket: pairwise, nearest neighbour with an
    increasing and a decreasing profile, area interaction repulsive and
    attractive."""
    return [
        PairwiseRate(theta=0.4, interaction_range=radius),
        NearestNeighborRate(breakpoints=(radius / 2, radius), values=(0.3, 0.9),
                            value_at_infinity=1.4),
        NearestNeighborRate(breakpoints=(radius / 2, radius), values=(1.4, 0.9),
                            value_at_infinity=0.3),
        AreaInteractionRate(rho=1.2, gamma=0.6, grain_radius=radius / 2,
                            overlap_resolution=256),
        AreaInteractionRate(rho=1.2, gamma=1.8, grain_radius=radius / 2,
                            overlap_resolution=256),
    ]


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), boundary=st.sampled_from(["periodic", "free"]),
       data=st.data())
def test_bracket_rates_from_one_scan_equal_the_two_birth_rates(dim, boundary, data):
    # sandwich_rates reads the lower state's neighbours off the upper
    # state's grid by id; the ordered pair of the two states' own birth
    # rates (each from its own grid) is the reference, bit for bit
    lengths = tuple(data.draw(st.sampled_from([1.0, 0.7, 2.5])) for _ in range(dim))
    space = SpaceSpec(dimension=dim, lengths=lengths, boundary=boundary)
    radius = min(lengths) * data.draw(st.sampled_from((0.01, 0.1, 0.2, 1 / 3, 0.49)))
    models = bracket_models(radius)
    assert {m.monotone for m in models} == {"nonincreasing", "nondecreasing"}
    low, up = Configuration(), Configuration()
    anchors: list[tuple] = []
    next_id = 0
    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(["both", "both", "upper", "remove", "remove_lower"]))
        if op in ("both", "upper"):
            for _ in range(data.draw(st.integers(1, 6))):
                x = data.draw(window_point(space, radius, anchors))
                up.add(f"q{next_id}", x)
                if op == "both":
                    low.add(f"q{next_id}", x)
                anchors.append(tuple(x))
                next_id += 1
        elif op == "remove" and len(up):
            pid = data.draw(st.sampled_from(sorted(up.ids())))
            up.remove(pid)
            if pid in low:
                low.remove(pid)
        elif op == "remove_lower" and len(low):
            low.remove(data.draw(st.sampled_from(sorted(low.ids()))))
        for x in [data.draw(window_point(space, radius, anchors)) for _ in range(3)]:
            for m in models:
                rate_up, rate_low = m.birth_rate(space, x, up), m.birth_rate(space, x, low)
                want = ((rate_up, rate_low) if m.monotone == "nonincreasing"
                        else (rate_low, rate_up))
                assert sandwich_rates(m, space, x, low, up) == want, (type(m).__name__, x)


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

FREE_1D = SpaceSpec(dimension=1, lengths=(1.0,), boundary="free")
TORUS_1D = SpaceSpec(dimension=1, lengths=(1.0,))


def test_free_window_point_on_the_upper_face():
    space = SpaceSpec(dimension=2, lengths=(1.0, 2.0), boundary="free")
    eta = Configuration.from_points(np.array([[1.0, 2.0], [0.95, 1.9], [0.0, 0.0]]))
    models = models_for(space, 0.15, (3, 2))
    xs = [np.array([1.0, 2.0]), np.array([0.9, 2.0]), np.array([1.0, 0.1])]
    assert_rates_match(models, space, xs, eta)
    eta.remove("p0")
    assert_rates_match(models, space, xs, eta)
    # the face point sits in the last cell, not one past it
    cells = CellOccupancyRate(cell_counts=(3, 2), theta=np.eye(6))
    assert cells.cell_index(space, np.array([1.0, 2.0])) == 5


@pytest.mark.parametrize("space", [TORUS_1D, FREE_1D], ids=["periodic", "free"])
@pytest.mark.parametrize("radius", [0.45, 0.7], ids=["two_cells", "one_cell"])
def test_grids_with_one_or_two_cells_per_axis(space, radius):
    eta = Configuration.from_points(np.array([[0.1], [0.6], [0.95]]))
    models = models_for(space, radius, (2,))
    xs = [np.array([v]) for v in (0.0, 0.3, 0.5, 0.9, 0.999)]
    assert_rates_match(models, space, xs, eta)
    pairwise = models[0]
    # on the torus the cell across the wrap is the other cell, counted once
    want = 3 if space.periodic else 2
    assert pairwise.birth_rate(space, np.array([0.9]), eta) == math.exp(-0.4 * want)


def test_two_cells_per_axis_in_two_dimensions_count_each_point_once():
    space = SpaceSpec(dimension=2, lengths=(1.0, 1.0))
    eta = Configuration.from_points(np.array([[0.05, 0.05], [0.55, 0.95]]))
    m = PairwiseRate(theta=1.0, interaction_range=0.49)  # two cells per axis
    assert m.birth_rate(space, np.array([0.9, 0.9]), eta) == math.exp(-2.0)
    assert_rates_match([m], space, [np.array([0.9, 0.9]), np.array([0.3, 0.5])], eta)


def test_mutating_a_copy_leaves_the_original_rates():
    eta = Configuration.from_points(np.array([[0.1], [0.2], [0.55]]))
    models = models_for(TORUS_1D, 0.15, (3,))
    xs = [np.array([v]) for v in (0.15, 0.5, 0.95)]
    before = [m.birth_rate(TORUS_1D, x, eta) for m in models for x in xs]
    twin = eta.copy()
    twin.add("extra", np.array([0.5]))
    twin.remove("p0")
    assert_rates_match(models, TORUS_1D, xs, twin)
    assert [m.birth_rate(TORUS_1D, x, eta) for m in models for x in xs] == before
    assert_rates_match(models, TORUS_1D, xs, eta)


def test_two_spaces_or_two_radii_keep_separate_indexes():
    eta = Configuration.from_points(np.array([[0.1], [0.3], [0.8]]))
    wide = SpaceSpec(dimension=1, lengths=(2.0,))
    near = PairwiseRate(theta=0.5, interaction_range=0.1)
    far = PairwiseRate(theta=0.5, interaction_range=0.3)
    cells = CellOccupancyRate(cell_counts=(2,), theta=np.array([[0.5, 0.2], [0.2, 0.5]]))
    xs = [np.array([v]) for v in (0.2, 0.9)]
    for step in range(3):
        for space in (TORUS_1D, wide):
            assert_rates_match([near, far, cells], space, xs, eta)
        eta.add(f"n{step}", np.array([0.25 + 0.3 * step]))
        eta.remove(sorted(eta.ids())[-1])
    # the same point counts under one window's cells and not another's
    assert cells.occupancy(TORUS_1D, eta).tolist() != cells.occupancy(wide, eta).tolist()


# ---------------------------------------------------------------------------
# upkeep keyed by id, and the cached neighbour blocks
# ---------------------------------------------------------------------------

def test_index_upkeep_reads_no_coordinates_on_removal(monkeypatch):
    # a grid computes a point's cell once when the point is added and once
    # per scan, never on a removal; the occupancy counts likewise drop a
    # point by its id alone
    calls = {"cell": 0, "add": 0, "scan": 0, "remove": 0}
    cell, add, near, remove = (NeighbourGrid._cell, NeighbourGrid.add, NeighbourGrid.near,
                               NeighbourGrid.remove)

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    def checked_remove(self, *args):
        before = calls["cell"]
        remove(self, *args)
        assert calls["cell"] == before and len(args) == 1
        calls["remove"] += 1

    for name, method in (("_cell", counted("cell", cell)), ("add", counted("add", add)),
                         ("near", counted("scan", near)), ("remove", checked_remove)):
        monkeypatch.setattr(NeighbourGrid, name, method)
    model = PairwiseRate(theta=0.7, interaction_range=0.05)
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=10.0)
    for i in range(6):
        sandwich_run(model, space, 4.0, NoiseStream.for_model(model, space,
                                                              replicate_seed(20260816, i)))
    assert calls["remove"] > 0 and calls["scan"] > 0
    assert calls["cell"] == calls["add"] + calls["scan"]

    lookups = []
    cell_index, occupancy_remove = models._cell_index, models._Occupancy.remove

    def checked_occupancy_remove(self, *args):
        before = len(lookups)
        occupancy_remove(self, *args)
        assert len(lookups) == before and len(args) == 1
        lookups.append("remove")

    monkeypatch.setattr(models, "_cell_index", lambda *a: lookups.append("cell") or cell_index(*a))
    monkeypatch.setattr(models._Occupancy, "remove", checked_occupancy_remove)
    cells = CellOccupancyRate(cell_counts=(3,), theta=0.3 * np.eye(3) + 0.1)
    for i in range(6):
        sandwich_run(cells, space, 4.0, NoiseStream.for_model(cells, space,
                                                              replicate_seed(20260816, i)))
    assert "remove" in lookups


@pytest.mark.parametrize("model", [PairwiseRate(theta=0.7, interaction_range=0.05),
                                   CellOccupancyRate(cell_counts=(3,),
                                                     theta=0.3 * np.eye(3) + 0.1)],
                         ids=["pairwise", "cells"])
def test_an_event_costs_no_numpy_call_and_builds_no_column(monkeypatch, model):
    # the event loop hands Configuration.add the proposal's tuple, which the
    # store keeps as it is, and remove pops a row: no numpy function runs
    # inside either, and no pass asks the store for its columns
    inside, seen = [], []
    calls = {"add": 0, "remove": 0, "columns": 0}

    class CountingNumpy:
        def __getattr__(self, name):
            if inside:
                seen.append(name)
            return getattr(np, name)

    def watched(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return method(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    def column(method):
        def wrapper(*args):
            calls["columns"] += 1
            return method(*args)
        return wrapper

    monkeypatch.setattr(geometry, "np", CountingNumpy())
    monkeypatch.setattr(Configuration, "add", watched("add", Configuration.add))
    monkeypatch.setattr(Configuration, "remove", watched("remove", Configuration.remove))
    monkeypatch.setattr(Configuration, "points_array", column(Configuration.points_array))
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=10.0)
    for i in range(6):
        sandwich_run(model, space, 4.0, NoiseStream.for_model(model, space,
                                                              replicate_seed(20260816, i)))
    assert calls["add"] > 100 and calls["remove"] > 100
    assert seen == [] and calls["columns"] == 0


def product_rule_block(cell, counts, periodic):
    """The cells a query visited before blocks were cached: per axis the cell
    and its neighbours, or the whole axis of three cells or fewer."""
    axes = []
    for i, c in zip(cell, counts):
        if c <= 3:
            axes.append(range(c))
        elif periodic:
            axes.append((i - 1 if i else c - 1, i, i + 1 if i + 1 < c else 0))
        else:
            axes.append(range(max(i - 1, 0), min(i + 2, c)))
    return tuple(itertools.product(*axes))


def ravelled(cells, counts):
    """The C-order flat index of each cell tuple."""
    out = []
    for cell in cells:
        key = 0
        for i, c in zip(cell, counts):
            key = key * c + i
        out.append(key)
    return tuple(out)


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "free"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cached_blocks_follow_the_product_rule_with_each_cell_once(dim, periodic, monkeypatch):
    # every cell's block as _flat_block builds it and as a grid hands it to
    # near: built on a miss, then from the cache while the bound allows
    monkeypatch.setattr(geometry, "_BLOCKS", {})
    monkeypatch.setattr(geometry, "_blocks_held", 0)
    cached = 0
    for counts in itertools.product((1, 2, 3, 4, 5, 8), repeat=dim):
        space = SpaceSpec(dimension=dim, lengths=tuple(c + 0.5 for c in counts),
                          boundary="periodic" if periodic else "free")
        grid = NeighbourGrid(space, 1.0)
        assert grid._counts == counts
        for cell in itertools.product(*(range(c) for c in counts)):
            block = ravelled(product_rule_block(cell, counts, periodic), counts)
            assert len(set(block)) == len(block), (cell, counts)
            key = ravelled([cell], counts)[0]
            assert _flat_block(key, counts, periodic) == block, (cell, counts)
            assert grid._block(key) == block, (cell, counts)
            if key in grid._blocks:
                assert grid._blocks[key] == block, (cell, counts)
                cached += 1
    assert cached == geometry._blocks_held == min(_BLOCK_CACHE, (1 + 2 + 3 + 4 + 5 + 8) ** dim)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_grid_scan_visits_the_product_rule_cells_and_each_point_once(data):
    # a window of 1 to 8 cells per axis around a random radius, in 1-D and
    # 2-D (the scans written out per axis) and 3-D (the loop over the axes);
    # the scan must return exactly the points of the query cell's
    # product-rule block at distances_to's distance <= radius, each once,
    # cell by cell in that block's order, at that distance bit for bit
    dim = data.draw(st.integers(1, 3), label="dim")
    periodic = data.draw(st.booleans(), label="periodic")
    radius = data.draw(st.floats(0.01, 1.0), label="radius")
    counts = data.draw(st.tuples(*[st.integers(1, 8)] * dim), label="counts")
    fractions = data.draw(st.tuples(*[st.floats(0.05, 0.95)] * dim), label="fractions")
    lengths = tuple(radius * (c + f) for c, f in zip(counts, fractions))
    space = SpaceSpec(dimension=dim, lengths=lengths,
                      boundary="periodic" if periodic else "free")
    coordinates = st.tuples(*[st.floats(0.0, L, exclude_max=True) for L in lengths])
    points = data.draw(st.lists(coordinates, max_size=25), label="points")
    queries = data.draw(st.lists(coordinates, min_size=1, max_size=4), label="queries")

    def inside(v, L):
        if not periodic:
            return min(max(v, 0.0), L)
        v %= L
        return 0.0 if v >= L else v

    # points up to a radius away from the first query along every axis, so
    # that some lie within the radius and some in the block beyond it
    offsets = data.draw(st.lists(st.tuples(*[st.floats(-radius, radius)] * dim), max_size=10),
                        label="offsets")
    points += [tuple(inside(v + o, L) for v, o, L in zip(queries[0], off, lengths))
               for off in offsets]
    if not periodic:  # a point on the upper face falls in the last cell
        axis = data.draw(st.integers(0, dim - 1), label="face")
        face = tuple(L if k == axis else L / 2 for k, L in enumerate(lengths))
        points.append(face)
        queries.append(face)
    eta = Configuration()
    for i, p in enumerate(points):
        eta.add(f"p{i}", p)
    grid = neighbour_grid(space, eta, radius)
    assert grid._counts == counts
    gone = data.draw(st.sets(st.sampled_from(sorted(eta.ids())), max_size=len(points))
                     if points else st.just(set()), label="removed")
    for pid in gone:
        eta.remove(pid)
    live = {pid: p for pid, (p, _, _) in eta.rows()}

    def cell(p):
        return tuple(min(math.floor(v / L * c), c - 1) for v, L, c in zip(p, lengths, counts))

    for x in queries:
        block = {c: k for k, c in enumerate(product_rule_block(cell(x), counts, periodic))}
        dist = {pid: distances_to(space, np.array(x), np.array([p]))[0]
                for pid, p in live.items()}
        within = {pid for pid, t in dist.items() if t <= radius}
        found = grid.near(x)
        pids = [pid for _, pid, _ in found]
        assert len(pids) == len(set(pids))
        # the block points within the radius, which are all points within it
        assert set(pids) == {pid for pid in within if cell(live[pid]) in block} == within
        # cells in product-rule order
        order = [block[cell(p)] for _, _, p in found]
        assert order == sorted(order)
        for d, pid, p in found:
            assert p == live[pid]
            assert d == dist[pid]


def test_block_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(geometry, "_BLOCKS", {})
    monkeypatch.setattr(geometry, "_blocks_held", 0)
    # a grid of 2^20 cells per axis: every query a new cell, past the bound
    space = SpaceSpec(dimension=2, lengths=(1.0, 1.0))
    grid = neighbour_grid(space, Configuration.from_points(np.array([[0.5, 0.5]])), 1e-9)
    assert grid._counts == (1 << 20, 1 << 20)
    xs = np.random.default_rng(3).uniform(0.0, 1.0, size=(_BLOCK_CACHE + 500, 2))
    keys = [grid._cell(x) for x in xs.tolist()]
    assert len(set(keys)) == len(xs)
    for x in xs:
        grid.near(x)
        assert sum(map(len, geometry._BLOCKS.values())) <= _BLOCK_CACHE
    assert sum(map(len, geometry._BLOCKS.values())) == _BLOCK_CACHE  # filled up to the bound
    # a block built past the bound is still the product-rule block of its cell
    cell = divmod(keys[-1], 1 << 20)
    assert keys[-1] not in grid._blocks
    assert grid._block(keys[-1]) == ravelled(product_rule_block(cell, grid._counts, True),
                                             grid._counts)
    # and a grid of a new shape, past the bound, adds no dict to the cache
    free = SpaceSpec(dimension=2, lengths=(1.0, 1.0), boundary="free")
    neighbour_grid(free, Configuration.from_points(np.array([[0.5, 0.5]])), 0.1).near((0.5, 0.5))
    assert list(geometry._BLOCKS) == [(grid._counts, True)]
