"""sbdsim benchmark: closed-loop CLI workloads, end to end and traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload forward-dense --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

One process, pinned to one core, runs `sbdsim.cli.main([...])` calls one
after another, each with --threads 1 and fresh inputs, until the calls have
taken --seconds in total; times are reported in units of a reference probe
timed on the same core meanwhile (speedprobe.py). Outputs are checked
between calls, outside the timed window. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced runs of the
run's first call and reports the per-layer metrics of the traced run with the
median wall time. The last line of standard output is the result as JSON.
See perfbench/README.md for the metrics and the reasons behind each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "seed_digests.json"

# The seed whose call-0 outputs are digested and compared with DIGESTS.
REFERENCE_SEED = 1
SETUP_REPEATS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import sbdsim.cli; "
              "sbdsim.cli.load_config(sys.argv[2])")


def median_low(values):
    return statistics.median_low(values) if values else 0.0


# ---------------------------------------------------------------------------
# one CLI call
# ---------------------------------------------------------------------------

class OpClock:
    """The only instrumentation of an untraced call: one clock pair around
    each call the CLI makes to the workload's operation. Each latency is
    kept with its start and end, less the probe time within it."""

    def __init__(self, op, probe):
        self.module = importlib.import_module(op[0])
        self.attr = op[1]
        self.original = self.module.__dict__.get(self.attr)
        self.probe = probe
        self.ops: list[tuple[float, float, float]] = []

    def __enter__(self):
        if self.original is not None:
            original, ops, probe = self.original, self.ops, self.probe

            def timed(*args, **kwargs):
                o0 = probe.overhead()
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    ops.append((t0, t1, t1 - t0 - (probe.overhead() - o0)))

            setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        if self.original is not None:
            setattr(self.module, self.attr, self.original)


class Call:
    """One timed `cli.main` call and its checked outcome.

    Untraced, `wall` and `latencies` are seconds less the probe's own time,
    and `wall_ref` and `latencies_ref` the same in units of the probe's time
    at those moments (speedprobe.py). Traced, only `wall` is kept."""

    def __init__(self, wl, cfg: dict, call_dir: Path, first: bool = False,
                 tracer=None, trace_id: str = ""):
        from sbdsim import cli
        from speedprobe import SpeedProbe
        from workloads import Outcome

        call_dir.mkdir(parents=True)
        cfg_path = call_dir / "input.json"
        cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        self.out_dir = call_dir / "out"
        argv = [wl.command, "--config", str(cfg_path), "--out", str(self.out_dir),
                "--threads", "1"]
        self.latencies: list[float] = []
        self.latencies_ref: list[float] = []
        self.wall_ref = None
        self.traced = None
        rc = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                if tracer is None:
                    with SpeedProbe(wl.probe) as probe, OpClock(wl.op, probe) as clock:
                        o0 = probe.overhead()
                        t0 = time.perf_counter()
                        rc = cli.main(argv)
                        self.wall = time.perf_counter() - t0 - (probe.overhead() - o0)
                    self.ref_s = probe.ref()
                    self.wall_ref = self.wall / self.ref_s
                    # a call that never reached the operation counts as one
                    ops = clock.ops or [(t0, t0 + self.wall, self.wall)]
                    self.latencies = [t for _, _, t in ops]
                    self.latencies_ref = [t / probe.ref(a, b) for a, b, t in ops]
                else:
                    t0 = time.perf_counter()
                    # cli.main is looked up after the tracer patched it
                    rc, *self.traced = tracer.run(trace_id, lambda a: cli.main(a), argv)
                    self.wall = time.perf_counter() - t0
            except Exception:
                self.wall = time.perf_counter() - t0
                traceback.print_exc()
        planned = wl.ops_per_call(cfg)
        if rc != 0:
            self.outcome = Outcome(planned, planned, 0, [f"cli.main returned {rc}"])
            return
        try:
            self.outcome = wl.check(str(cfg_path), str(self.out_dir), first)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.outcome = Outcome(planned, planned, 0, [f"output check failed: {exc!r}"])


# ---------------------------------------------------------------------------
# facts and set-up
# ---------------------------------------------------------------------------

def machine_facts(seed: int, nproc: int, core: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {"nproc": nproc, "pinned_core": core, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit, "seed": seed}


def setup_seconds(cfg: dict, run_dir: Path, repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports sbdsim.cli and
    loads the workload's config: what every CLI call pays before it works."""
    path = run_dir / "setup_input.json"
    path.write_text(json.dumps(cfg))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(path)],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(wl, args, run_dir: Path):
    """Untraced closed loop over fresh inputs until the calls took --seconds,
    after one warm-up call. Times are reported in probe units (ref)."""
    from workloads import call_seed

    setup_s = setup_seconds(wl.config(call_seed(wl.name, args.seed, 0), args.smoke),
                            run_dir, 1 if args.smoke else SETUP_REPEATS)
    warmup = Call(wl, wl.config(call_seed(wl.name, args.seed, -1), args.smoke),
                  run_dir / "warmup")
    shutil.rmtree(warmup.out_dir.parent)
    calls = []
    while not calls or sum(c.wall for c in calls) < args.seconds:
        i = len(calls)
        call = Call(wl, wl.config(call_seed(wl.name, args.seed, i), args.smoke),
                    run_dir / f"call{i}", first=i == 0)
        shutil.rmtree(call.out_dir.parent)
        calls.append(call)
    timed = [c for c in calls if c.wall_ref is not None]  # a call that raised has none
    walls_ref = [c.wall_ref for c in timed] or [0.0]
    ops_ref = [t for c in timed for t in c.latencies_ref] or [0.0]
    ops = [t for c in timed for t in c.latencies] or [0.0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(walls_ref), "ref"),
        "work_per_kref": (1000 * sum(c.outcome.work for c in timed) / sum(walls_ref), "1/kref"),
        "op_ref.p50": (statistics.median(ops_ref), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    deciles = statistics.quantiles(ops_ref, n=10) if len(ops_ref) >= 2 else ops_ref * 9
    extras = {"calls": len(calls), "ops": len(ops_ref), "op_ref.p90": deciles[-1],
              "op_ref.p90_samples_beyond": sum(t > deciles[-1] for t in ops_ref),
              "wall_s": statistics.median(c.wall for c in calls),
              "op_s.p50": statistics.median(ops),
              "ref_s": statistics.median(c.ref_s for c in timed) if timed else 0.0}
    return [warmup] + calls, metrics, extras


def reference_digest(wl, args, run_dir: Path):
    """Digest of the outputs of call 0 for REFERENCE_SEED, and whether it
    equals the digest recorded in seed_digests.json (None if none is)."""
    from workloads import call_seed, output_digest

    call = Call(wl, wl.config(call_seed(wl.name, REFERENCE_SEED, 0), args.smoke),
                run_dir / "reference")
    digest = output_digest(str(call.out_dir))
    shutil.rmtree(call.out_dir.parent)
    recorded = None
    if DIGESTS.is_file() and not args.smoke:
        recorded = json.loads(DIGESTS.read_text())["digests"].get(wl.name)
    return call, digest, None if recorded is None else digest == recorded


def target_share(name: str, m: dict, inclusive: dict) -> float:
    """Share of the time spent in the layer the workload is meant to stress."""
    wall = m["trace.wall_s"]
    if name == "forward-dense":
        sim = inclusive.get("engine.simulate", 0.0)
        return (m["geometry.self_s"] + m["models.self_s"]) / sim if sim else 0.0
    if name == "cftp-pairwise":
        return (m["cftp.self_s"] + m["models.self_s"] + m["geometry.self_s"]) / wall
    if name == "cftp-cells":
        return (m["noise.self_s"] + m["cftp.ancient_survivors.self_s"]) / wall
    return m["analysis.self_s"] / wall


def per_layer(wl, args, run_dir: Path):
    """Alternate untraced and traced runs of call 0 until both took --seconds;
    report the traced run with the median wall time."""
    import tracing
    from workloads import call_seed, output_size

    tracer = tracing.Tracer()
    reference, _, match = reference_digest(wl, args, run_dir)
    cfg = wl.config(call_seed(wl.name, args.seed, 0), args.smoke)
    calls, plain, traced = [reference], [], []
    while not traced or sum(c.wall for c in plain + traced) < args.seconds:
        k = len(traced)
        plain.append(Call(wl, cfg, run_dir / f"plain{k}", first=k == 0))
        shutil.rmtree(plain[-1].out_dir.parent)
        traced.append(Call(wl, cfg, run_dir / f"traced{k}", tracer=tracer,
                           trace_id=f"{wl.name}-{args.seed}-{k}"))
        traced[-1].files = output_size(str(traced[-1].out_dir))
        shutil.rmtree(traced[-1].out_dir.parent)
    calls += plain + traced
    # a failed traced call has no spans; the median is taken over the rest
    good = sorted((c for c in traced if c.traced), key=lambda c: c.wall)
    m = {}
    if good:
        chosen = good[(len(good) - 1) // 2]
        (lo, hi), counters, rate_us = chosen.traced
        times = tracing.self_times(tracer.spans, lo, hi)
    else:
        chosen, lo, hi, counters, times = traced[0], 0, 0, {}, {}
        rate_us = {label: [] for label, _, _ in tracing.RATE_BUCKETS}
    for name in tracing.REPORTED:
        n, self_s, _ = times.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = n
        m[f"{name}.self_s"] = self_s
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = sum(v[1] for k, v in times.items() if k.split(".")[0] == layer)
    for label, values in rate_us.items():
        m[f"models.birth_rate.us_per_call.{label}"] = statistics.fmean(values) if values else 0.0
    inclusive = {k: v[2] for k, v in times.items()}

    def c(key):
        return counters.get(key, 0)

    births, deaths = c("engine.births"), c("engine.deaths")
    draws = c("cftp.draws")
    slab_calls = m["noise.slab_points.calls"]
    sim_s = inclusive.get("engine.simulate", 0.0)
    m.update({
        "engine.births": births,
        "engine.deaths": deaths,
        "engine.acceptance_ratio": births / c("engine.proposals") if c("engine.proposals") else 0.0,
        "engine.events_per_busy_s": (births + deaths) / sim_s if sim_s else 0.0,
        "noise.atoms": c("noise.atoms"),
        "noise.slabs_generated": c("noise.slabs_generated"),
        "noise.slab_cache_hit_ratio":
            1 - c("noise.slabs_generated") / slab_calls if slab_calls else 0.0,
        "cftp.lookbacks_per_draw": c("cftp.lookbacks") / draws if draws else 0.0,
        "cftp.sweeps_per_draw": c("cftp.sweeps") / draws if draws else 0.0,
        "cftp.coalesced_ratio": c("cftp.coalesced") / draws if draws else 0.0,
        "analysis.oracle_states": c("analysis.oracle_states"),
        "cli.files_written": chosen.files[0],
        "cli.bytes_written": chosen.files[1],
        "cli.outputs_match_seed": 1 if match else 0,
        "trace.wall_s": chosen.wall,
        "trace.overhead_s": median_low([t.wall for t in traced])
                            - median_low([p.wall for p in plain]),
        "trace.spans": hi - lo,
        "trace.absent_targets": len(tracer.absent),
    })
    m["trace.target_layer_share"] = target_share(wl.name, m, inclusive)
    units = {"self_s": "s", "wall_s": "s", "overhead_s": "s", "events_per_busy_s": "1/s",
             "bytes_written": "B",
             "n0-15": "us", "n16-255": "us", "n256-plus": "us"}
    metrics = {k: (v, units.get(k.rsplit(".", 1)[-1], "count")) for k, v in m.items()}
    for key in ("engine.acceptance_ratio", "noise.slab_cache_hit_ratio",
                "cftp.lookbacks_per_draw", "cftp.sweeps_per_draw", "cftp.coalesced_ratio",
                "cli.outputs_match_seed", "trace.target_layer_share"):
        metrics[key] = (m[key], "1")
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_file = WORK / "traces" / f"{wl.name}.jsonl"
    tracer.write(str(trace_file), lo, hi)
    extras = {"absent": tracer.absent, "outputs_match_seed": match,
              "trace_file": str(trace_file.relative_to(ROOT)), "traced_runs": len(traced)}
    return calls, metrics, extras


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_workload(args) -> dict:
    """Run one workload and return its result object."""
    import speedprobe
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    core = speedprobe.pin_to_one_core()
    run_dir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            calls, metrics, extras = per_layer(wl, args, run_dir)
        else:
            calls, metrics, extras = end_to_end(wl, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(c.outcome.attempted for c in calls)
    failed = sum(c.outcome.failed for c in calls)
    notes = [n for c in calls for n in c.outcome.notes]
    extras["failed_fraction"] = failed / attempted if attempted else 1.0
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    facts = machine_facts(args.seed, nproc, core)
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": wl.name, "machine": facts, "extras": extras,
                               "notes": notes, **result}, indent=2) + "\n")
    print("# machine " + json.dumps(facts, sort_keys=True))
    for note in notes[:20]:
        print(f"# FAILED {note}")
    for k, (v, u) in metrics.items():
        print(f"# {wl.name} {k} = {v!r} {u}")
    print("# extras " + json.dumps(extras, sort_keys=True))
    return result


def run_all(args) -> int:
    """Run every workload in its own process and print each metric by name."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:<44} {metric['value']:>16.6g} {metric['unit']}")
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def record_digests(args) -> int:
    """Write seed_digests.json from the outputs of this checkout's program."""
    import workloads

    digests = {}
    for name, wl in workloads.WORKLOADS.items():
        run_dir = WORK / f"digest-{os.getpid()}"
        run_dir.mkdir(parents=True)
        try:
            call, digest, _ = reference_digest(wl, args, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if call.outcome.failed:
            print(f"{name}: outputs failed their check: {call.outcome.notes}", file=sys.stderr)
            return 1
        digests[name] = digest
    DIGESTS.write_text(json.dumps({"reference_seed": REFERENCE_SEED, "digests": digests},
                                  indent=2, sort_keys=True) + "\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, help="workload seed")
    parser.add_argument("--seconds", type=float, help="timed seconds of CLI calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for the self-test")
    parser.add_argument("--record-digests", action="store_true",
                        help="write seed_digests.json from this checkout's outputs")
    args = parser.parse_args(argv)
    if not args.record_digests and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sbdsim" / "cli.py").is_file():
        print(f"benchmark: no sbdsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.record_digests:
        return record_digests(args)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    import sbdsim.cli  # noqa: F401  imported before any timing starts

    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
