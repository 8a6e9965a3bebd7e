import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbdsim.geometry import (
    Configuration,
    SimulationConfigError,
    SpaceSpec,
    TimedConfiguration,
    configuration_contains,
    distances_to,
    snapshot_to_json,
    symmetric_difference,
)

TORUS_1D = SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.0)
TORUS_2D = SpaceSpec(dimension=2, lengths=(1.0, 2.0))
FREE_1D = SpaceSpec(dimension=1, lengths=(1.0,), boundary="free")


# ---------------------------------------------------------------------------
# space
# ---------------------------------------------------------------------------

def test_space_validation():
    with pytest.raises(SimulationConfigError):
        SpaceSpec(dimension=0, lengths=())
    with pytest.raises(SimulationConfigError):
        SpaceSpec(dimension=1, lengths=(-1.0,))
    with pytest.raises(SimulationConfigError):
        SpaceSpec(dimension=2, lengths=(1.0,))
    with pytest.raises(SimulationConfigError):
        SpaceSpec(dimension=1, lengths=(1.0,), boundary="reflecting")
    with pytest.raises(SimulationConfigError):
        SpaceSpec(dimension=1, lengths=(1.0,), intensity=-2.0)


def test_volume_and_beta_total():
    assert TORUS_2D.volume == 2.0
    s = SpaceSpec(dimension=1, lengths=(3.0,), intensity=5.0)
    assert s.beta_total == 15.0


def test_grid_midpoints_cover_volume():
    g = TORUS_2D.grid(4)
    assert g.shape == (16, 2)
    assert np.all(g >= 0) and np.all(g < TORUS_2D.lengths_array())
    assert TORUS_2D.cell_volume(4) * len(g) == pytest.approx(TORUS_2D.volume)


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def torus_distance(space, x, y):
    """Scalar reference metric: per axis |x - y|, wrapped to the shorter way
    round on a periodic window, then the Euclidean norm."""
    d = [abs(a - b) for a, b in zip(x, y)]
    if space.periodic:
        d = [min(v, L - v) for v, L in zip(d, space.lengths)]
    return math.sqrt(sum(v * v for v in d))


def dist(space, x, y):
    """The metric as every rate query computes it: distances_to for one point."""
    return float(distances_to(space, np.array(x), np.array([y]))[0])


def test_torus_wraparound():
    assert dist(TORUS_1D, [0.05], [0.95]) == pytest.approx(0.1)
    # free boundary does not wrap
    assert dist(FREE_1D, [0.05], [0.95]) == pytest.approx(0.9)


def test_torus_distance_anisotropic_box():
    d = dist(TORUS_2D, [0.05, 0.1], [0.95, 1.9])
    assert d == pytest.approx(np.hypot(0.1, 0.2))


coords = st.floats(min_value=0.0, max_value=0.999, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(a=coords, b=coords, c=coords)
def test_torus_metric_triangle_inequality(a, b, c):
    dab = dist(TORUS_1D, [a], [b])
    dbc = dist(TORUS_1D, [b], [c])
    dac = dist(TORUS_1D, [a], [c])
    assert dac <= dab + dbc + 1e-12
    assert dab == dist(TORUS_1D, [b], [a])
    assert dab <= 0.5 + 1e-12  # half the period is the diameter


def test_distances_to_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, [1.0, 2.0], size=(20, 2))
    x = np.array([0.4, 1.1])
    vec = distances_to(TORUS_2D, x, pts)
    scal = [torus_distance(TORUS_2D, x, p) for p in pts]
    assert np.allclose(vec, scal)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

def test_configuration_add_remove():
    cfg = Configuration()
    cfg.add("a", np.array([0.5]))
    assert "a" in cfg and len(cfg) == 1
    with pytest.raises(SimulationConfigError):
        cfg.add("a", np.array([0.6]))
    x = cfg.remove("a")
    assert x[0] == 0.5 and len(cfg) == 0
    with pytest.raises(SimulationConfigError):
        cfg.remove("a")
    cfg.add("b", np.array([0.1]))
    with pytest.raises(SimulationConfigError):
        cfg.add("c", np.array([0.1, 0.2]))  # every point has the same dimension


def test_configuration_is_a_multiset_not_a_labeling():
    c1 = Configuration()
    c1.add("p1", np.array([0.2]))
    c1.add("p2", np.array([0.7]))
    c2 = Configuration()
    c2.add("other", np.array([0.7]))
    c2.add("names", np.array([0.2]))
    assert c1 == c2
    c2.add("third", np.array([0.2]))  # duplicated location counts twice
    assert c1 != c2


def test_points_array_empty_shape():
    assert Configuration().points_array().shape == (0, 0)
    cfg = Configuration.from_points(np.array([[0.1], [0.2]]))
    assert cfg.points_array().shape == (2, 1)
    assert len(Configuration.from_points(np.empty((0, 1)))) == 0


# a few shared values repeat locations, so the store is checked as a multiset
store_coord = st.sampled_from([0.0, 0.25, 0.5]) | coords


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), data=st.data())
def test_configuration_store_matches_dict_reference(dim, data):
    # random add/remove/copy sequences, growing past several capacity
    # doublings, against an id -> coordinates dict kept in insertion order
    cfg, ref = Configuration(), {}
    held = []  # (array handed out by the store, its value then)
    copied = []  # (store that was copied, its reference at that moment)
    next_id = 0

    def check(store, expect):
        pts = store.points_array()
        assert not pts.flags.writeable
        assert pts.shape == ((len(expect), dim) if expect else (0, 0))
        assert sorted(map(tuple, pts.tolist())) == sorted(expect.values())
        assert list(map(tuple, pts.tolist())) == list(expect.values())  # rows in ids() order
        assert list(store.ids()) == list(expect)
        items = store.items()
        assert [(pid, tuple(x)) for pid, x in items] == list(expect.items())
        held.extend((x, tuple(x)) for _, x in items)

    for _ in range(data.draw(st.integers(0, 20))):
        op = data.draw(st.sampled_from(["add", "add", "remove", "copy"]))
        if op == "add":
            for x in data.draw(st.lists(st.tuples(*[store_coord] * dim), min_size=1,
                                        max_size=24)):
                pid = f"q{next_id}"
                next_id += 1
                cfg.add(pid, np.array(x))
                ref[pid] = x
        elif op == "remove" and ref:
            pid = data.draw(st.sampled_from(list(ref)))
            x = cfg.remove(pid)
            assert tuple(x) == ref.pop(pid)
            held.append((x, tuple(x)))
        elif op == "copy":
            copied.append((cfg, dict(ref)))
            cfg = cfg.copy()
        if ref:
            pid = data.draw(st.sampled_from(list(ref)))
            held.append((cfg.coords(pid), ref[pid]))

        check(cfg, ref)
        for old, old_ref in copied:
            check(old, old_ref)
        for x, value in held:
            assert tuple(x) == value

        # equality and containment read the multiset, not ids or row order
        same = Configuration({f"r{i}": np.array(x) for i, x in enumerate(reversed(ref.values()))})
        assert cfg == same
        half = dict(list(ref.items())[::2])
        sub = Configuration({pid: np.array(x) for pid, x in half.items()})
        assert configuration_contains(cfg, sub)
        assert (sub == cfg) == (len(half) == len(ref))
        covered = not (Counter(ref.values()) - Counter(half.values()))
        assert configuration_contains(sub, cfg) == covered


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), data=st.data())
def test_columns_follow_ids_and_keep_their_values(dim, data):
    # points_array() lists the rows in ids() order after any
    # adds and removes, and an array handed out is never changed afterwards
    cfg, ref = Configuration(), {}
    handed = []  # (array handed out, its values then)
    for step in range(data.draw(st.integers(1, 30))):
        if ref and data.draw(st.booleans()):
            pid = data.draw(st.sampled_from(list(ref)))
            assert cfg.remove(pid) == ref.pop(pid)[0]
        else:
            x = data.draw(st.tuples(*[store_coord] * dim))
            mark = data.draw(st.floats(0.01, 5.0))
            pid = f"q{step}"
            cfg.add(pid, np.array(x), mark, -float(step))
            ref[pid] = (x, mark, -float(step))
        pts = cfg.points_array()
        assert list(cfg.ids()) == list(ref)
        assert [tuple(p) for p in pts.tolist()] == [p for p, _, _ in ref.values()]
        assert list(cfg.rows()) == list(ref.items())
        assert pts is cfg.points_array()  # cached until a change
        assert not pts.flags.writeable
        handed.append((pts, pts.tolist()))
        for a, values in handed:
            assert a.tolist() == values


def test_a_point_as_tuple_list_or_array_gives_equal_stores():
    pts = [(0.1, 0.7), (0.25, 0.0), (0.9, 0.5)]
    stores = []
    for kind in (tuple, list, np.array):
        cfg = Configuration()
        for i, p in enumerate(pts):
            cfg.add(f"p{i}", kind(p), mark=1.0 + i, born=-0.5 * i)
        stores.append(cfg)
    for cfg in stores:
        assert cfg == stores[0]
        assert cfg.points_array().tobytes() == stores[0].points_array().tobytes()
        assert list(cfg.rows()) == list(stores[0].rows())
        assert all(type(p) is tuple and all(type(v) is float for v in p)
                   for _, (p, _, _) in cfg.rows())


@pytest.mark.parametrize("point", [(0.1, 0.2, 0.3), [0.1], np.array([0.1, 0.2, 0.3]),
                                   np.array([[0.1, 0.2]]), np.array(0.1), [[0.1, 0.2]]],
                         ids=["tuple-3", "list-1", "array-3", "array-1x2", "scalar",
                              "nested-list"])
def test_a_point_of_the_wrong_shape_is_refused(point):
    cfg = Configuration.from_points(np.array([[0.1, 0.2], [0.3, 0.4]]))
    with pytest.raises(SimulationConfigError):
        cfg.add("bad", point)
    assert len(cfg) == 2 and "bad" not in cfg
    with pytest.raises(SimulationConfigError):
        Configuration().add("bad", np.zeros((2, 2)))  # the first point fixes no 2-D shape


def test_containment_and_symmetric_difference():
    big = Configuration.from_points(np.array([[0.1], [0.5], [0.9]]))
    small = Configuration.from_points(np.array([[0.5], [0.1]]))
    assert configuration_contains(big, small)
    assert not configuration_contains(small, big)
    delta = symmetric_difference(big, small, dimension=1)
    assert delta.shape == (1, 1)
    assert delta[0, 0] == 0.9


def test_symmetric_difference_counts_multiplicity():
    a = Configuration.from_points(np.array([[0.3], [0.3]]))
    b = Configuration.from_points(np.array([[0.3]]))
    assert symmetric_difference(a, b, dimension=1).shape == (1, 1)


def test_symmetric_difference_lists_each_surplus_in_row_order():
    # eta1's surplus first, then eta2's, each in its rows' order and with its
    # multiplicity; not in the order of a set of byte strings, which follows
    # the process's string-hash seed
    a = Configuration.from_points(np.array([[0.7], [0.2], [0.2], [0.5], [0.9], [0.3]]))
    b = Configuration.from_points(np.array([[0.9], [0.4], [0.2], [0.1], [0.6], [0.8]]))
    delta = symmetric_difference(a, b, dimension=1)
    assert delta[:, 0].tolist() == [0.7, 0.2, 0.5, 0.3, 0.4, 0.1, 0.6, 0.8]
    assert symmetric_difference(b, a, dimension=1)[:, 0].tolist() == [0.4, 0.1, 0.6, 0.8,
                                                                        0.7, 0.2, 0.5, 0.3]


def test_nearest_distance():
    cfg = Configuration.from_points(np.array([[0.1], [0.9]]))
    assert distances_to(TORUS_1D, [0.02], cfg.points_array()).min() == pytest.approx(0.08)
    assert distances_to(TORUS_1D, [0.5], Configuration().points_array()).size == 0


# ---------------------------------------------------------------------------
# timed configurations
# ---------------------------------------------------------------------------

def test_timed_configuration_clock_positive():
    tc = TimedConfiguration()
    tc.add("a", np.array([0.3]), mark=0.5, born=-1.0)
    with pytest.raises(SimulationConfigError):
        tc.add("b", np.array([0.3]), mark=0.0)


def test_timed_projection_and_restrict():
    tc = TimedConfiguration()
    tc.add("a", np.array([0.3]), mark=1.0)
    tc.add("b", np.array([0.6]), mark=2.0)
    proj = tc  # marks are columns of the state, which is its own projection
    assert len(proj) == 2 and proj.coords("a")[0] == 0.3
    sub = tc.restrict(["b"])
    assert list(sub.ids()) == ["b"]
    assert sub.entry("b").clock == 2.0


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_json_round_trip():
    cfg = Configuration.from_points(np.array([[0.9, 0.2], [0.1, 0.5]]))
    text = snapshot_to_json(3.5, cfg)
    obj = json.loads(text)
    assert obj["time"] == 3.5
    assert obj["points"] == sorted(obj["points"])  # canonical ordering
    assert Configuration.from_points(obj["points"]) == cfg


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coords, coords), max_size=8))
def test_snapshot_round_trip_property(pts):
    cfg = Configuration.from_points(np.array([list(p) for p in pts])
                                    if pts else np.empty((0, 2)))
    obj = json.loads(snapshot_to_json(0.0, cfg))
    assert obj["time"] == 0.0
    assert Configuration.from_points(obj["points"]) == cfg


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_snapshot_text_matches_the_sorted_tuple_form(dimension):
    # sorting the rows as lists of floats gives the text that sorting
    # tuples of per-row copies gave
    rng = np.random.default_rng(dimension)
    for n in [0, 1, 2, 50]:
        for _ in range(10):
            cfg = Configuration.from_points(rng.uniform(0.0, 1.0, size=(n, dimension)))
            cfg.add("tie", cfg.coords("p0") if n else np.zeros(dimension))
            pts = sorted(tuple(x) for _, x in cfg.items())
            expect = json.dumps({"time": 0.5, "points": [list(p) for p in pts]})
            assert snapshot_to_json(0.5, cfg) == expect
    assert snapshot_to_json(1.0, Configuration()) == '{"time": 1.0, "points": []}'
