"""Span tracing of sbdsim's public functions, patched in at run time.

Nothing under src/ knows about this module. `Tracer.install` replaces the
target functions and methods with wrappers that open a span on entry and
close it on exit, and `Tracer.uninstall` puts the originals back. Spans are
(name, start, end, parent, trace id) records kept in memory; `write` dumps
them when the benchmark ends. A layer's self time is the time its spans
cover minus the time covered by their direct child spans. The benchmark runs
with --threads 1, so spans of one run nest strictly and never overlap.

A target that no longer exists (a later change may delete it) is recorded in
`Tracer.absent` and skipped; its metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("geometry", "models", "noise", "engine", "cftp", "analysis", "cli")

# (span name, module, qualified name). "*.birth_rate" means the birth_rate
# method of every class of the module that defines its own.
TARGETS = (
    ("geometry.points_array", "sbdsim.geometry", "Configuration.points_array"),
    ("geometry.configuration_contains", "sbdsim.geometry", "configuration_contains"),
    ("models.birth_rate", "sbdsim.models", "*.birth_rate"),
    ("models.sandwich_rates", "sbdsim.models", "sandwich_rates"),
    ("noise.slab_points", "sbdsim.noise", "NoiseStream.slab_points"),
    ("noise.generate_slab", "sbdsim.noise", "NoiseStream._generate_slab"),
    ("noise.keyed_generator", "sbdsim.noise", "keyed_generator"),
    ("engine.simulate", "sbdsim.engine", "simulate"),
    ("cftp.perfect_sample", "sbdsim.cftp", "perfect_sample"),
    ("cftp.sandwich_run", "sbdsim.cftp", "sandwich_run"),
    ("cftp.ancient_survivors", "sbdsim.cftp", "ancient_survivors"),
    ("analysis.oracle_stationary", "sbdsim.analysis", "oracle_stationary"),
    ("analysis.gibbs_table", "sbdsim.analysis", "gibbs_table"),
    ("cli.main", "sbdsim.cli", "main"),
)

# Targets whose calls and self time are per-layer metrics. generate_slab and
# cli.main are traced for attribution but reported through other metrics.
REPORTED = tuple(name for name, _, _ in TARGETS
                 if name not in ("noise.generate_slab", "cli.main"))

RATE_BUCKETS = (("n0-15", 0, 15), ("n16-255", 16, 255), ("n256-plus", 256, None))


def _bucket(n: int) -> str:
    for label, lo, hi in RATE_BUCKETS:
        if n >= lo and (hi is None or n <= hi):
            return label
    raise ValueError(n)


class Tracer:
    """Holds the spans and counters of the traced runs in one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trace id]
        self.counters: dict[str, float] = {}
        self.rate_us: dict[str, list[float]] = {label: [] for label, _, _ in RATE_BUCKETS}
        self.absent: list[str] = []
        self.trace_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.trace_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    def open_name(self) -> str | None:
        """Name of the innermost open span (a hook runs after its own span
        closed, so this is the caller's span)."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._close(idx)
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "sbdsim" or n.startswith("sbdsim."))]
        for name, module_name, qualname in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._mark_absent(name)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name == "*":
                owners = [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                          if cls.__module__ == module.__name__ and attr in cls.__dict__]
                if not owners:
                    self._mark_absent(name)
                for cls in owners:
                    self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
            elif owner_name:
                cls = getattr(module, owner_name, None)
                if cls is None or attr not in getattr(cls, "__dict__", {}):
                    self._mark_absent(name)
                    continue
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    self._mark_absent(name)
                    continue
                wrapper = self._wrap(name, original)
                # `from .x import f` leaves a binding in every importing module
                for mod in loaded:
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapper)

    def _mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters at the layer boundaries -----------------------------------

    def _on_models_birth_rate(self, args, kwargs, result, elapsed):
        eta = args[3] if len(args) > 3 else kwargs.get("eta")
        self.rate_us[_bucket(len(eta))].append(elapsed * 1e6)
        if self.open_name() == "engine.simulate":
            self.count("engine.proposals")

    def _on_noise_generate_slab(self, args, kwargs, result, elapsed):
        self.count("noise.slabs_generated")
        self.count("noise.atoms", len(result))

    def _on_engine_simulate(self, args, kwargs, result, elapsed):
        for ev in getattr(result, "events", ()):
            self.count("engine.births" if ev.kind == "birth" else "engine.deaths")

    def _on_cftp_perfect_sample(self, args, kwargs, result, elapsed):
        self.count("cftp.draws")
        self.count("cftp.coalesced", getattr(result, "status", None) == "Coalesced")
        self.count("cftp.lookbacks", getattr(result, "lookbacks_tried", 0))
        self.count("cftp.sweeps", getattr(result, "sweeps_total", 0))

    def _on_analysis_oracle_stationary(self, args, kwargs, result, elapsed):
        oracle = args[0] if args else kwargs.get("oracle")
        self.count("analysis.oracle_states", oracle.n_states)

    # -- traced call --------------------------------------------------------

    def run(self, trace_id: str, fn, *args):
        """Call fn(*args) with the targets wrapped. Returns fn's result, the
        index range of the spans it produced, and its counters."""
        self.trace_id = trace_id
        self.counters = {}
        self.rate_us = {label: [] for label, _, _ in RATE_BUCKETS}
        first = len(self.spans)
        self.install()
        try:
            result = fn(*args)
        finally:
            self.uninstall()
        return result, (first, len(self.spans)), dict(self.counters), self.rate_us

    def write(self, path: str, lo: int, hi: int) -> None:
        """Dump spans[lo:hi] as one JSON object per line."""
        with open(path, "w") as fh:
            for i in range(lo, hi):
                name, start, end, parent, tid = self.spans[i]
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "trace": tid}) + "\n")


def self_times(spans, lo: int, hi: int) -> dict[str, tuple[int, float, float]]:
    """Per span name over spans[lo:hi]: (calls, self seconds, inclusive seconds).

    Self time is a span's duration minus the durations of its direct
    children; a name nested in itself (recursion) counts inclusive time once.
    """
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        if parent >= lo:
            child[parent - lo] += end - start
    out: dict[str, list] = {}
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) - child[i - lo]
        ancestor = parent
        while ancestor >= lo and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < lo:
            row[2] += end - start
    return {k: (v[0], v[1], v[2]) for k, v in out.items()}
