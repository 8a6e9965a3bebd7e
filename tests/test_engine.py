import json
import math

import numpy as np
import pytest

from sbdsim import engine, geometry
from sbdsim.engine import (
    Event,
    Trajectory,
    coupled_simulate,
    run_paths,
    simulate,
    snapshot,
    snapshots,
)
from sbdsim.geometry import (
    Configuration,
    SimulationConfigError,
    SpaceSpec,
    TimedConfiguration,
)
from sbdsim.models import (
    AreaInteractionRate,
    ConstantDeath,
    ConstantRate,
    PairwiseRate,
)
from sbdsim.noise import NoiseStream, initial_clocks, poisson_configuration

SPACE = SpaceSpec(dimension=1, lengths=(1.0,), intensity=1.0)
SEED = 424242


def make_stream(model, seed=SEED, slab=1.0):
    return NoiseStream.for_model(model, SPACE, seed, slab_length=slab)


def timed_from(pairs, birth_time=0.0):
    out = TimedConfiguration()
    for pid, x, clock in pairs:
        out.add(pid, np.array([x]), clock, birth_time)
    return out


def canonical_json(traj):
    """Full-precision serialization of a trajectory, for replay comparisons."""
    return json.dumps({
        "start": traj.start_time,
        "horizon": traj.horizon,
        "initial": sorted((pid, list(p), mark) for pid, (p, mark, _) in traj.initial.rows()),
        "events": [(ev.time, ev.kind, ev.point_id, list(map(float, ev.x)), ev.mark)
                   for ev in traj.events],
    })


# ---------------------------------------------------------------------------
# exactness of the thinning loop
# ---------------------------------------------------------------------------

def test_every_thinning_decision_matches_replayed_state():
    # replay the event log independently and recompute each candidate's rate
    # on the state just before its proposal time; the decisions a run_paths
    # observer sees must agree bit for bit, including the acceptance
    # indicator, and the run must be the one simulate gives
    model = PairwiseRate(theta=0.8, interaction_range=0.2,
                         death=ConstantDeath(1.5))
    space = SpaceSpec(dimension=1, lengths=(1.0,), intensity=4.0)
    stream = NoiseStream.for_model(model, space, SEED)
    decisions = []

    def record(s, pid, lams, accepted, states):
        decisions.append((s, pid, lams[0], accepted[0]))

    proposals = stream.atoms_between(0.0, 30.0)
    traj = run_paths(model, space, [TimedConfiguration()], 30.0, proposals,
                     observe=record).trajectories()[0]
    assert canonical_json(traj) == canonical_json(
        simulate(model, space, TimedConfiguration(), 30.0, stream))
    assert len(decisions) == len(proposals) > 50
    assert [(s, pid) for s, pid, _, _ in decisions] == [(row[0], row[3]) for row in proposals]
    for (s, _, lam, accepted), (_, _, u, _, *x) in zip(decisions, proposals):
        cfg = Configuration()
        for ev in traj.events:
            if ev.time >= s:
                break
            if ev.kind == "birth":
                cfg.add(ev.point_id, ev.x)
            else:
                cfg.remove(ev.point_id)
        rate = model.birth_rate(space, x, cfg)
        assert rate == lam
        assert accepted == (u <= rate)


def test_death_times_are_marks_over_rate():
    model = ConstantRate(rate=8.0, death=ConstantDeath(2.0))
    stream = make_stream(model)
    traj = simulate(model, SPACE, TimedConfiguration(), 50.0, stream)
    births = {ev.point_id: ev for ev in traj.events if ev.kind == "birth"}
    deaths = {ev.point_id: ev for ev in traj.events if ev.kind == "death"}
    assert len(deaths) > 100
    for pid, dv in deaths.items():
        bv = births[pid]
        assert dv.time == bv.time + bv.mark / 2.0
        assert np.array_equal(dv.x, bv.x)


def test_initial_points_die_on_schedule():
    init = timed_from([("a", 0.2, 0.5), ("b", 0.7, 2.5)])
    model = ConstantRate(rate=0.0, death=ConstantDeath(1.0))
    traj = simulate(model, SPACE, init, 10.0, make_stream(model))
    assert [(ev.point_id, ev.time) for ev in traj.events] == [("a", 0.5), ("b", 2.5)]
    assert len(traj.final) == 0


def test_death_at_exact_horizon_is_logged_and_excluded():
    init = timed_from([("edge", 0.5, 2.0)])
    model = ConstantRate(rate=0.0)
    traj = simulate(model, SPACE, init, 2.0, make_stream(model))
    assert [ev.kind for ev in traj.events] == ["death"]
    assert traj.events[0].time == 2.0
    assert len(traj.final) == 0


def test_zero_horizon_is_identity():
    init = timed_from([("a", 0.2, 1.0), ("b", 0.6, 3.0)])
    model = ConstantRate(rate=5.0)
    traj = simulate(model, SPACE, init, 0.0, make_stream(model))
    assert traj.events == []
    assert snapshot(traj, 0.0) == init
    assert {pid: traj.final.entry(pid).clock for pid in traj.final.ids()} == {"a": 1.0, "b": 3.0}


def test_negative_horizon_rejected():
    model = ConstantRate(rate=1.0)
    with pytest.raises(SimulationConfigError):
        simulate(model, SPACE, TimedConfiguration(), -1.0, make_stream(model))


# ---------------------------------------------------------------------------
# determinism and replay
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_trajectory_bit_for_bit():
    model = PairwiseRate(theta=0.5, interaction_range=0.15)
    first = simulate(model, SPACE, TimedConfiguration(), 40.0, make_stream(model))
    second = simulate(model, SPACE, TimedConfiguration(), 40.0, make_stream(model))
    assert canonical_json(first) == canonical_json(second)
    other = simulate(model, SPACE, TimedConfiguration(), 40.0,
                     make_stream(model, seed=SEED + 1))
    assert canonical_json(first) != canonical_json(other)


def test_snapshot_at_end_matches_final_state():
    model = ConstantRate(rate=6.0)
    eta0 = poisson_configuration(SPACE, 4.0, 99)
    init = initial_clocks(eta0, 100)
    traj = simulate(model, SPACE, init, 25.0, make_stream(model))
    assert snapshot(traj, traj.end_time) == traj.final
    timed = snapshot(traj, traj.end_time)
    assert {pid: timed.entry(pid).clock for pid in timed.ids()} == \
        {pid: traj.final.entry(pid).clock for pid in traj.final.ids()}


def test_snapshot_interpolates_event_log():
    model = ConstantRate(rate=6.0)
    traj = simulate(model, SPACE, TimedConfiguration(), 20.0, make_stream(model))
    for t in (0.0, 3.7, 11.2, 20.0):
        cfg = snapshot(traj, t)
        alive = sum(1 for ev in traj.events if ev.kind == "birth" and ev.time <= t) \
            - sum(1 for ev in traj.events if ev.kind == "death" and ev.time <= t)
        assert len(cfg) == alive
    with pytest.raises(SimulationConfigError):
        snapshot(traj, 20.5)
    with pytest.raises(SimulationConfigError):
        snapshot(traj, -0.1)


def test_snapshots_in_one_replay_match_a_replay_per_time():
    # unsorted and repeated times, and times equal to a birth's and a death's
    # time, give each the rows of a fresh replay: ids, coordinates, marks and
    # birth times, in the same order
    model = PairwiseRate(theta=0.6, interaction_range=0.2)
    init = initial_clocks(poisson_configuration(SPACE, 4.0, 99), 100)
    traj = simulate(model, SPACE, init, 20.0, make_stream(model))
    birth = next(ev.time for ev in traj.events if ev.kind == "birth")
    death = next(ev.time for ev in traj.events if ev.kind == "death")
    times = [11.2, 0.0, death, 20.0, birth, 3.7, 11.2, traj.events[-1].time, death, 0.0]
    states = snapshots(traj, times)
    assert len(states) == len(times) and states[0] is not states[6]
    for t, state in zip(times, states):
        assert list(state.rows()) == list(snapshot(traj, t).rows())
    assert list(snapshots(traj, np.array(times))[2].rows()) == list(states[2].rows())
    assert snapshots(traj, []) == []
    with pytest.raises(SimulationConfigError):
        snapshots(traj, [3.0, 20.5])


def test_snapshot_replays_a_log_without_death_marks():
    # a log read back from events.csv has plain coordinate lists and no
    # marks; snapshot needs neither, and both snapshots check the range alike
    model = ConstantRate(rate=6.0)
    traj = simulate(model, SPACE, TimedConfiguration(), 20.0, make_stream(model))
    bare = [Event(time=ev.time, kind=ev.kind, point_id=ev.point_id,
                  x=[float(v) for v in ev.x]) for ev in traj.events]
    read = Trajectory(initial=traj.initial, events=bare, start_time=0.0, horizon=20.0,
                      final=TimedConfiguration(), death_rate=1.0)
    for t in (0.0, 3.7, 20.0):
        assert snapshot(read, t) == snapshot(traj, t)
    with pytest.raises(SimulationConfigError, match=r"20.5 outside \[0.0, 20.0\]"):
        snapshot(read, 20.5)


def test_timed_snapshot_advances_clocks_by_hazard():
    # a snapshot keeps each point's death mark together with the time it is
    # held at; the mark left at time t is clock - delta0 * (t - birth_time)
    model = ConstantRate(rate=0.0, death=ConstantDeath(2.0))
    init = timed_from([("a", 0.2, 3.0)])
    traj = simulate(model, SPACE, init, 1.0, make_stream(model))
    mid = snapshot(traj, 0.75)
    e = mid.entry("a")
    assert (e.clock, e.birth_time) == (3.0, 0.0)
    assert (traj.final.entry("a").clock, traj.final.entry("a").birth_time) == (3.0, 0.0)


@pytest.mark.parametrize("delta0", [1.0, 1.7])
def test_restart_from_timed_snapshot_continues_exactly(delta0):
    # run 0..30 in one go, and restart at 12.3 from the timed state; the
    # restart must reproduce the tail of the one-shot event log bit for bit,
    # for every seed and also when the death rate is not 1
    model = PairwiseRate(theta=0.6, interaction_range=0.2, death=ConstantDeath(delta0))
    t_restart = 12.3
    broken = []
    for seed in range(200):
        stream = make_stream(model, seed=seed)
        whole = simulate(model, SPACE, TimedConfiguration(), 30.0, stream)
        head = simulate(model, SPACE, TimedConfiguration(), t_restart, stream)
        mid = snapshot(whole, t_restart)
        assert snapshot(head, t_restart) == mid
        tail = simulate(model, SPACE, mid, 30.0 - t_restart, stream, start_time=t_restart)
        whole_tail = [(ev.time, ev.kind, ev.point_id, tuple(map(float, ev.x)))
                      for ev in whole.events if t_restart < ev.time <= tail.end_time]
        restart = [(ev.time, ev.kind, ev.point_id, tuple(map(float, ev.x)))
                   for ev in tail.events]
        if restart != whole_tail or snapshot(tail, 30.0) != snapshot(whole, 30.0):
            broken.append(seed)
    assert broken == []


def test_unmarked_initial_state_rejected():
    # a point added without a death mark holds NaN, which compares false
    # with every time, so it would never die: the run refuses it
    model = ConstantRate(rate=1.0)
    bare = Configuration.from_points(np.array([[0.2], [0.7]]))
    with pytest.raises(SimulationConfigError, match="death mark nan"):
        simulate(model, SPACE, bare, 1.0, make_stream(model))
    marked = initial_clocks(bare, 5)
    assert len(simulate(model, SPACE, marked, 1.0, make_stream(model)).initial) == 2
    marked.add("late", np.array([0.5]))
    with pytest.raises(SimulationConfigError, match="'late' with death mark nan"):
        simulate(model, SPACE, marked, 1.0, make_stream(model))


def test_initial_point_dead_at_start_rejected():
    model = ConstantRate(rate=0.0, death=ConstantDeath(2.0))
    dead = timed_from([("a", 0.2, 1.0)], birth_time=-0.5)  # dies at exactly 0
    with pytest.raises(SimulationConfigError):
        simulate(model, SPACE, dead, 1.0, make_stream(model))
    alive = timed_from([("a", 0.2, 1.0)], birth_time=-0.25)  # dies at 0.25
    traj = simulate(model, SPACE, alive, 1.0, make_stream(model))
    assert [(ev.kind, ev.time) for ev in traj.events] == [("death", 0.25)]


# ---------------------------------------------------------------------------
# lifetime laws
# ---------------------------------------------------------------------------

def test_a_run_copies_its_initial_states_and_a_bracket_run_takes_them():
    # a run's paths start from sorted-id copies, so the caller's states keep
    # their rows and the same state can start two paths; a bracket run's
    # paths start from the states themselves
    model = PairwiseRate(theta=0.5, interaction_range=0.2)
    proposals = make_stream(model).atoms_between(0.0, 3.0)
    initial = timed_from([("b", 0.7, 3.0), ("a", 0.2, 0.1)])
    rows = list(initial.rows())
    run = run_paths(model, SPACE, [initial, initial], 3.0, proposals)
    assert list(initial.rows()) == rows
    assert run.finals[0] == run.finals[1] and run.finals[0] is not run.finals[1]
    lower, upper = TimedConfiguration(), timed_from([("a", 0.2, 5.0), ("b", 0.7, 3.0)])
    run = run_paths(model, SPACE, [lower, upper], 3.0, proposals, bracket=True)
    assert run.finals[0] is lower and len(proposals) > 0


def test_mean_lifetime_is_inverse_death_rate():
    model = ConstantRate(rate=30.0, death=ConstantDeath(2.0))
    traj = simulate(model, SPACE, TimedConfiguration(), 300.0, make_stream(model))
    births = {ev.point_id: ev.time for ev in traj.events if ev.kind == "birth"}
    lifetimes = np.array([ev.time - births[ev.point_id]
                          for ev in traj.events if ev.kind == "death"])
    assert len(lifetimes) > 5000
    se = 0.5 / math.sqrt(len(lifetimes))
    assert abs(lifetimes.mean() - 0.5) < 3 * se


# ---------------------------------------------------------------------------
# coupled runs
# ---------------------------------------------------------------------------

def test_coupled_rejects_non_nested_initials():
    model = ConstantRate(rate=1.0)
    low = timed_from([("a", 0.2, 1.0)])
    up = timed_from([("b", 0.5, 1.0)])
    with pytest.raises(SimulationConfigError):
        coupled_simulate(model, SPACE, low, up, 1.0, make_stream(model))
    up2 = timed_from([("a", 0.2, 2.0)])  # same id, different clock
    with pytest.raises(SimulationConfigError):
        coupled_simulate(model, SPACE, low, up2, 1.0, make_stream(model))
    # same id and clock, born earlier: it would die at 0.5 on the upper path
    # and at 1.0 on the lower one, which is not nested on (0.5, 1.0)
    up3 = timed_from([("a", 0.2, 1.0)], birth_time=-0.5)
    with pytest.raises(SimulationConfigError):
        coupled_simulate(ConstantRate(rate=0.0), SPACE, low, up3, 1.0, make_stream(model))


def test_coupled_attractive_paths_stay_nested():
    model = AreaInteractionRate(rho=3.0, gamma=1.8, grain_radius=0.08)
    stream = make_stream(model)
    up0 = initial_clocks(poisson_configuration(SPACE, 3.0, 7), 8)
    low, up = coupled_simulate(model, SPACE, TimedConfiguration(), up0, 40.0,
                               stream)  # containment asserted internally
    for t in np.linspace(0.0, 40.0, 9):
        c_low, c_up = snapshot(low, t), snapshot(up, t)
        assert not (c_low.multiset() - c_up.multiset())


def test_coupled_side_equals_single_run_on_same_noise():
    model = ConstantRate(rate=5.0)
    stream = make_stream(model)
    solo = simulate(model, SPACE, TimedConfiguration(), 20.0, stream)
    low, up = coupled_simulate(model, SPACE, TimedConfiguration(),
                               TimedConfiguration(), 20.0, stream)
    assert canonical_json(low) == canonical_json(solo)
    assert canonical_json(up) == canonical_json(solo)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_a_logged_event_costs_no_numpy_call(monkeypatch):
    # a logged birth or death holds the tuple of its row: no numpy function
    # runs inside _Path.birth or _Path.flush_deaths, Configuration's add and
    # remove included
    inside, seen = [], []
    calls = {"birth": 0, "flush_deaths": 0}

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

    monkeypatch.setattr(engine, "np", CountingNumpy())
    monkeypatch.setattr(geometry, "np", CountingNumpy())
    for name in calls:
        monkeypatch.setattr(engine._Path, name, watched(name, getattr(engine._Path, name)))
    plane = SpaceSpec(dimension=2, lengths=(1.0, 1.0), intensity=60.0)
    runs = [(PairwiseRate(theta=0.5, interaction_range=0.1), plane),
            (ConstantRate(rate=8.0), SPACE)]
    logs = [simulate(model, space, initial_clocks(poisson_configuration(space, 20.0, 3), 4), 5.0,
                     NoiseStream.for_model(model, space, SEED)).events for model, space in runs]
    assert calls["birth"] > 100 and calls["flush_deaths"] > 100
    assert seen == []
    for events, (_, space) in zip(logs, runs):
        assert len(events) > 100
        assert all(type(ev.x) is tuple and len(ev.x) == space.dimension for ev in events)


def reference_to_csv(traj, path):
    """The event log as the numpy formatter wrote it: every x packed into one
    (n, d) float array, each row written from its tolist()."""
    coords = np.array([ev.x for ev in traj.events], dtype=float)  # shape (n, d); (0,) if none
    cols = "".join(f",x{i+1}" for i in range(coords.shape[1] if coords.ndim == 2 else 0))
    with open(path, "w") as fh:
        fh.write(f"time,kind,point_id{cols}\n")
        for ev, x in zip(traj.events, coords.tolist()):
            fh.write(f"{ev.time!r},{ev.kind},{ev.point_id},{','.join(map(repr, x))}\n")


def forward_log(d):
    model = PairwiseRate(theta=0.5, interaction_range=0.2)
    space = SpaceSpec(dimension=d, lengths=(1.0,) * d, intensity=8.0)
    traj = simulate(model, space, TimedConfiguration(), 6.0,
                    NoiseStream.for_model(model, space, SEED))
    assert len(traj.events) > 20
    return traj


def hand_built(xs):
    return Trajectory(initial=TimedConfiguration(),
                      events=[Event(time=0.5 * i, kind="birth", point_id=f"h{i}", x=x)
                              for i, x in enumerate(xs)],
                      start_time=0.0, horizon=10.0, final=TimedConfiguration(), death_rate=1.0)


@pytest.mark.parametrize("make", [
    lambda: forward_log(1),
    lambda: forward_log(2),
    lambda: forward_log(3),
    lambda: hand_built([]),
    lambda: hand_built([[0, 1], [1, 0], [2, 3]]),
    lambda: hand_built([(np.float64(0.1), np.float64(1 / 3)),
                        (np.float64(2.5e-17), np.float64(7))]),
    lambda: hand_built([np.array([0.1, 0.7, 1e-300]), np.array([1 / 7, 2.0, 3.5])]),
], ids=["simulate-1d", "simulate-2d", "simulate-3d", "empty", "int-lists",
        "float64-tuples", "arrays"])
def test_event_csv_matches_the_numpy_formatter(tmp_path, make):
    traj = make()
    traj.to_csv(tmp_path / "events.csv")
    reference_to_csv(traj, tmp_path / "reference.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_event_csv_format(tmp_path):
    model = ConstantRate(rate=5.0)
    traj = simulate(model, SPACE, TimedConfiguration(), 5.0, make_stream(model))
    path = tmp_path / "events.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "time,kind,point_id,x1"
    assert len(lines) - 1 == len(traj.events)
    t0, kind, pid, x = lines[1].split(",")
    assert float(t0) == traj.events[0].time
    assert kind == traj.events[0].kind
    assert float(x) == traj.events[0].x[0]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
