"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Runs every workload with tiny inputs, untraced and traced, and checks that
the result lines keep the benchmark's contract: metric names and units are
well formed, each run emits exactly the metrics BENCHMARK.json lists for its
mode, end-to-end values are positive, traced self times are non-negative and
sum to no more than the traced wall time. It checks that the reference probe
samples throughout a busy stretch and that its own time is counted, then
removes a traced function from the program and checks that the traced run
reports it as absent instead of failing. Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import speedprobe  # noqa: E402
from tracing import LAYERS  # noqa: E402

SMOKE_SECONDS = 0.5
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    expect(set(spec) == keys, "BENCHMARK.json has exactly the contract's keys")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    expect(len(names) == len(set(names)), "metric and workload names are used once")
    expect(all(NAME.fullmatch(n) for n in names), "every name matches [A-Za-z0-9_.-]+")
    expect(all(UNIT.fullmatch(m["unit"]) for group in ("end_to_end", "per_layer")
               for m in spec[group]), "every unit is well formed")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
           "every end-to-end bound is in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is present, in seconds, lower is better, with the largest bound")


def check_result(spec: dict, workload: str, trace: int, result: dict) -> None:
    tag = f"{workload} --trace {trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result has exactly correct, attempted, failed, metrics")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: outputs correct, {result['attempted']} operations attempted")
    metrics = result["metrics"]
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    expect(set(metrics) == wanted, f"{tag}: emits every listed metric and no other "
           f"(missing {sorted(wanted - set(metrics))}, extra {sorted(set(metrics) - wanted)})")
    expect(all(NAME.fullmatch(k) and UNIT.fullmatch(m["unit"])
               and isinstance(m["value"], (int, float)) for k, m in metrics.items()),
           f"{tag}: names, units and values are well formed")
    if not trace:
        expect(all(m["value"] > 0 for m in metrics.values()),
               f"{tag}: every end-to-end metric is positive")
        return
    self_times = {k: m["value"] for k, m in metrics.items() if k.endswith(".self_s")}
    expect(all(v >= 0 for v in self_times.values()), f"{tag}: self times are non-negative")
    total = sum(self_times[f"{layer}.self_s"] for layer in LAYERS)
    wall = metrics["trace.wall_s"]["value"]
    expect(total <= wall, f"{tag}: layer self times sum to {total:.4f} s <= "
           f"traced wall_s {wall:.4f} s")


def check_probe() -> None:
    """A SpeedProbe around 0.3 s of interpreter work samples about every
    INTERVAL_S, and its counted time stays a small share of the stretch."""
    import time

    with speedprobe.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        wall = time.perf_counter() - t0
    ticks = len(probe.samples) - 2 * probe.edge
    expect(ticks >= 0.3 / speedprobe.INTERVAL_S / 2,
           f"the probe sampled {ticks} times during 0.3 s of work")
    expect(0 < probe.overhead() < 0.5 * wall and probe.ref() > 0,
           f"probe time {probe.overhead():.4f} s is counted and below half of {wall:.4f} s")


def check_absent_target() -> None:
    """Delete cftp.sandwich_run (as the single-pass sandwich would) for an
    oracle run, which never calls it: the traced run must report it absent."""
    import run
    import sbdsim
    import sbdsim.cftp

    saved = sbdsim.cftp.sandwich_run
    del sbdsim.cftp.sandwich_run, sbdsim.sandwich_run
    try:
        args = run.parse_args(["--workload", "oracle-cells", "--seed", "3",
                               "--seconds", "0.2", "--trace", "1", "--smoke"])
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.run_workload(args)
        expect(True, "traced run with a deleted target completes")
    except Exception as exc:  # the failure this test exists to catch
        expect(False, f"traced run with a deleted target raised {exc!r}")
        return
    finally:
        sbdsim.cftp.sandwich_run = sbdsim.sandwich_run = saved
    metrics = result["metrics"]
    expect(metrics["trace.absent_targets"]["value"] == 1
           and metrics["cftp.sandwich_run.calls"]["value"] == 0,
           "the deleted target is counted absent and its calls read 0")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                   "--seed", "2", "--seconds", str(SMOKE_SECONDS), "--trace", str(trace),
                   "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and bool(lines),
                   f"{wl['name']} --trace {trace}: exit {proc.returncode}")
            if proc.returncode == 0 and lines:
                check_result(spec, wl["name"], trace, json.loads(lines[-1]))
            else:
                sys.stderr.write(proc.stderr)
    check_probe()
    check_absent_target()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
