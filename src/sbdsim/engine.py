"""Event-driven exact simulation of spatial birth-and-death dynamics.

A proposal (x, s, r, u) becomes a birth exactly when u lies below the birth
rate at x on the configuration just before s (all earlier births applied,
all deaths strictly before s applied). An accepted point carries its death
mark r and, at the constant death rate delta0, dies at s + r / delta0. No
time discretization enters anywhere.

One loop, run_paths, solves these equations forward in time for any number
of paths on the same proposals, rows (s, r, u, id, x_1, ..., x_d) that it
reads in time order, the coordinates as the tuple row[4:]: the plain
forward run (stream.atoms_between), the coupled pair, and the lower/upper
bracket of coupling from the past (cftp.dominating_window) differ only in
the rule that turns the states before s into one rate per path. A path's
own birth rate is the rule unless run_paths(bracket=True) makes paths 0 and
1 the bracket, whose rates are the infimum and supremum over the states
between them (for a neighbour-grid model, both from one scan of the upper
state's grid). Since every path reads the same proposals, two
paths that are equal stay equal: a bracket runs as one path from the first
proposal at which its two sizes agree. A bracket run keeps no event log;
every other run logs every event.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

from .geometry import Configuration, SimulationConfigError, SpaceSpec
from .models import RateModel, sandwich_rates
from .noise import NoiseStream, Proposals


class Event(NamedTuple):
    """One birth or death, in wall-clock simulation time. A run logs as x
    the coordinate tuple of the point's Configuration row, not a copy; a log
    built by hand (say, read back from events.csv) may hold any sequence of
    numbers."""

    time: float
    kind: str  # "birth" | "death"
    point_id: str
    x: tuple[float, ...]
    mark: float | None = None  # death mark at birth, births only


@dataclass
class Trajectory:
    """A realized path: initial state, ordered events, final state."""

    initial: Configuration
    events: list[Event]
    start_time: float
    horizon: float
    final: Configuration
    death_rate: float

    @property
    def end_time(self) -> float:
        return self.start_time + self.horizon

    def event_count(self) -> int:
        return len(self.events)

    def to_csv(self, path) -> None:
        """Event log: time, kind, point_id, coordinates, each written as repr(float(v))."""
        d = len(self.events[0].x) if self.events else 0
        lines = [f"time,kind,point_id{''.join(f',x{i+1}' for i in range(d))}\n"]
        lines += [f"{t!r},{kind},{pid},{','.join([repr(float(v)) for v in x])}\n"
                  for t, kind, pid, x, _ in self.events]
        with open(path, "w") as fh:
            fh.writelines(lines)


def snapshots(trajectory: Trajectory, times) -> list[Configuration]:
    """The states at times, in the given order, from one replay of the event
    log: each event is applied once, over the sorted times, and the running
    state is copied at each time, so a state's rows are in the order a replay
    from the start gives. Each point keeps its death mark and birth time, so
    a restart from a state computes the same death times as the uninterrupted
    run (a birth logged without a mark stays unmarked)."""
    times = list(times)
    for t in times:
        if not (trajectory.start_time <= t <= trajectory.end_time):
            raise SimulationConfigError(
                f"snapshot time {t} outside [{trajectory.start_time}, {trajectory.end_time}]")
    state = trajectory.initial.copy()
    events, i = trajectory.events, 0
    out: list = [None] * len(times)
    for j in sorted(range(len(times)), key=times.__getitem__):
        while i < len(events) and events[i].time <= times[j]:
            ev = events[i]
            if ev.kind == "birth":
                state.add(ev.point_id, ev.x, ev.mark, ev.time)
            else:
                state.remove(ev.point_id)
            i += 1
        out[j] = state.copy()
    return out


def snapshot(trajectory: Trajectory, t: float) -> Configuration:
    """State at time t, replayed from the event log (snapshots at one time)."""
    return snapshots(trajectory, [t])[0]


def _death_time(birth_time: float, clock: float, delta0: float) -> float:
    """Death time of a point holding death mark `clock` at `birth_time`. Every
    death time, initial points included, is computed here."""
    return birth_time + clock / delta0


class _Path:
    """One path of run_paths: live state, death-time heap and, when logged, the
    event log (else None). The path starts from the state it is given, and
    changes it. The heap is keyed by (death time, id), so deaths at one time
    are applied in id order, whatever the order of the rows: a restart from
    a snapshot applies tied deaths as the uninterrupted run does."""

    __slots__ = ("live", "deaths", "events")

    def __init__(self, live: Configuration, start_time: float, delta0: float, log: bool):
        self.live = live
        self.deaths: list[tuple[float, str]] = []
        for pid, (_, mark, born) in live.rows():
            dies = _death_time(born, mark, delta0)
            if not dies > start_time:  # NaN for a point without a death mark
                raise SimulationConfigError(
                    f"initial point {pid!r} with death mark {mark} dies at {dies}, "
                    f"not after the start time {start_time}")
            self.deaths.append((dies, pid))
        heapq.heapify(self.deaths)
        self.events: list[Event] | None = [] if log else None

    def birth(self, pid: str, x, s: float, r: float, delta0: float) -> None:
        self.live.add(pid, x, r, s)
        heapq.heappush(self.deaths, (_death_time(s, r, delta0), pid))
        if self.events is not None:
            self.events.append(Event(s, "birth", pid, x, r))

    def flush_deaths(self, up_to: float, inclusive: bool) -> None:
        """Apply the deaths before up_to (at up_to too when inclusive)."""
        deaths, live, events = self.deaths, self.live, self.events
        while deaths and (deaths[0][0] < up_to or (inclusive and deaths[0][0] == up_to)):
            dt, pid = heapq.heappop(deaths)
            x = live.remove(pid)
            if events is not None:
                events.append(Event(dt, "death", pid, x))


@dataclass
class PathRun:
    """What run_paths leaves behind: the paths at the end of
    [start_time, start_time + horizon], the number of proposals in that window
    and how many of them a merged bracket ran as one path."""

    initials: list[Configuration]
    start_time: float
    horizon: float
    death_rate: float
    paths: list[_Path]
    proposals: int
    merged: int

    @property
    def finals(self) -> list[Configuration]:
        """Each path's live state at the end (not a copy; path 1 of a merged
        pair is path 0's)."""
        return [path.live for path in self.paths]

    def trajectories(self) -> list[Trajectory]:
        """One Trajectory per path, from a run without bracket; final rows in id order of adding."""
        return [Trajectory(initial=initial.copy(), events=path.events,
                           start_time=self.start_time, horizon=self.horizon,
                           final=path.live.copy(), death_rate=self.death_rate)
                for initial, path in zip(self.initials, self.paths)]


def _contained(s, pid, lams, accepted, states) -> None:
    """Containment check for a nested pair: path 0 must stay inside path 1.

    For a pair started nested, shared points die at the same _death_time on
    both paths, so the pair stays nested exactly when path 0 never accepts a
    proposal that path 1 rejects; a violation is an internal bug, not a
    statistics failure. It has run_paths' observer signature.
    """
    if accepted[0] and not accepted[1]:
        raise RuntimeError(
            f"containment violated at s={s!r}: path 0 accepted {pid} at rate "
            f"{lams[0]!r}, path 1 rejected it at rate {lams[1]!r} (internal bug)")


def run_paths(model: RateModel, space: SpaceSpec, initials: list[Configuration],
              horizon: float, proposals: Proposals, start_time: float = 0.0,
              observe=None, bracket: bool = False) -> PathRun:
    """Drive one path per initial state through the same proposals on
    [start_time, start_time + horizon]. Every initial point must hold a death
    mark > 0 and die after start_time (SimulationConfigError otherwise).

    proposals are the window's proposals in time order: the forward runs
    pass stream.atoms_between(start_time, start_time + horizon), coupling
    from the past the births of its dominating process in the window
    (cftp.dominating_window).

    Before a proposal (x, s, r, u) every path applies its deaths strictly
    before s; then every path's birth rate at x is computed from those
    states, all before any path accepts, and path i accepts when u <= rate i.
    Path i's rate is model.birth_rate on its own state. observe(s, pid,
    rates, accepted, states), when given, runs after every proposal with its
    time and id; it is where callers assert or count invariants between
    paths. Deaths at exactly the end of the horizon are logged and excluded
    from the final states.

    bracket=True runs paths 0 and 1 as the bracket of coupling from the past:
    path 0 (lower) inside path 1 (upper), with the infimum and supremum of
    the rate over the states between them (models.sandwich_rates; a grid
    model scans path 1's grid alone, and path 0 builds none before the
    merge); further paths keep their own rate. _contained checks every
    decision of the pair. Shared points die at the same time on both paths,
    so path 0's ids stay a subset of path 1's, and equal sizes mean equal
    states, after which the two take the same decisions to the end.
    So once len(path 0) == len(path 1) before a proposal, the pair runs as
    one path at model.birth_rate, and at the end path 1 takes path 0's live
    state; from the merge on, observe sees path 0's state, rate and decision
    in place of path 1's. A bracket run keeps no event log: its callers read
    the final states. Its paths start from the initial states themselves,
    which it changes; any other run starts from copies and leaves its
    initial states as they were.
    """
    if horizon < 0:
        raise SimulationConfigError(f"horizon must be >= 0, got {horizon}")
    delta0 = model.death.rate
    t_end = start_time + horizon
    birth_rate = model.birth_rate
    paths = [_Path(initial if bracket else initial.copy(), start_time, delta0, not bracket)
             for initial in initials]
    active, states = paths, [path.live for path in paths]
    split = bracket  # a bracket pair not merged yet
    merged_at = None  # proposals before the merge
    for i, row in enumerate(proposals):
        s, r, u, pid, x = row[0], row[1], row[2], row[3], row[4:]
        for path in active:
            if path.deaths and path.deaths[0][0] < s:
                path.flush_deaths(s, inclusive=False)
        if split and len(states[0]) == len(states[1]):
            split, merged_at = False, i
            active = paths[:1] + paths[2:]
            states = [path.live for path in active]
        if split:
            lams = [*sandwich_rates(model, space, x, states[0], states[1]),
                    *[birth_rate(space, x, live) for live in states[2:]]]
            if u <= lams[0] and not u <= lams[1]:
                _contained(s, pid, lams, [u <= lam for lam in lams], states)
        else:
            lams = [birth_rate(space, x, live) for live in states]
        for path, lam in zip(active, lams):
            if u <= lam:
                path.birth(pid, x, s, r, delta0)
        if observe is not None:
            accepted = [u <= lam for lam in lams]
            if active is paths:
                observe(s, pid, lams, accepted, states)
            else:
                observe(s, pid, lams[:1] + lams, accepted[:1] + accepted, states[:1] + states)
    for path in active:
        path.flush_deaths(t_end, inclusive=True)

    n = len(proposals)
    merged = 0
    if merged_at is not None:
        merged = n - merged_at
        paths[1].live = paths[0].live
    return PathRun(initials=list(initials), start_time=start_time, horizon=horizon,
                   death_rate=delta0, paths=paths, proposals=n, merged=merged)


def simulate(model: RateModel, space: SpaceSpec, initial: Configuration,
             horizon: float, stream: NoiseStream, start_time: float = 0.0) -> Trajectory:
    """Run the thinning dynamics on [start_time, start_time + horizon].

    The rate for a proposal at time s is evaluated on the configuration with
    every event strictly before s applied. Deaths occurring at exactly the end
    of the horizon are recorded as events and excluded from the final state.
    """
    proposals = stream.atoms_between(start_time, start_time + horizon)
    return run_paths(model, space, [initial], horizon, proposals, start_time).trajectories()[0]


def coupled_simulate(model: RateModel, space: SpaceSpec,
                     initial_low: Configuration, initial_up: Configuration,
                     horizon: float, stream: NoiseStream,
                     start_time: float = 0.0) -> tuple[Trajectory, Trajectory]:
    """Run two coupled copies on identical noise.

    The initial states must be nested as timed configurations: every id of
    initial_low appears in initial_up with the same coordinates, death mark
    and birth time.
    For models flagged attractive (nondecreasing rates) the lower path stays
    inside the upper path for all time; that containment is asserted at every
    decision, and a violation is reported as a bug, not a statistics failure.
    """
    up = dict(initial_up.rows())
    for pid, row in initial_low.rows():
        if pid not in up:
            raise SimulationConfigError("coupled_simulate: initial states are not nested")
        if row != up[pid]:  # (p, mark, born)
            raise SimulationConfigError(
                "coupled_simulate: shared initial points must share clocks and birth times")

    attractive = model.monotone in ("nondecreasing", "constant")
    low, up = run_paths(model, space, [initial_low, initial_up], horizon,
                        stream.atoms_between(start_time, start_time + horizon), start_time,
                        observe=_contained if attractive else None).trajectories()
    return low, up
