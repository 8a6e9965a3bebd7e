import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from sbdsim import cli, engine
from sbdsim.analysis import OracleModel
from sbdsim.cli import load_config, main, run_validation_battery
from sbdsim.geometry import SimulationConfigError, snapshot_to_json
from sbdsim.models import CellOccupancyRate, UnsupportedModelError
from sbdsim.noise import NoiseStream

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
CONSTANT = os.path.join(CONFIG_DIR, "constant_demo.json")
PAIRWISE = os.path.join(CONFIG_DIR, "pairwise_demo.json")
CELLS = os.path.join(CONFIG_DIR, "cells_demo.json")


def write_config(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body) if isinstance(body, dict) else body)
    return str(path)


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_the_documented_files(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["simulate", "--config", CONSTANT, "--out", out,
                 "--snapshot-times", "0,5,10"])
    assert code == 0
    for name in ("events.csv", "final_state.json", "summary.json",
                 "config.json", "provenance.json",
                 "snapshot_000.json", "snapshot_001.json", "snapshot_002.json"):
        assert os.path.exists(os.path.join(out, name)), name
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["horizon"] == 10.0 and summary["seed"] == 7
    events = open(os.path.join(out, "events.csv")).read().strip().split("\n")
    assert events[0] == "time,kind,point_id,x1"
    assert summary["events"] == len(events) - 1
    snap = json.loads(open(os.path.join(out, "snapshot_000.json")).read())
    assert snap["time"] == 0.0 and snap["points"] == []
    assert "events" in capsys.readouterr().out


def test_simulate_reruns_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", CONSTANT, "--out", a]) == 0
    assert main(["simulate", "--config", CONSTANT, "--out", b]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_final_state_reuses_the_horizon_snapshot_and_is_the_final_state(tmp_path):
    # final_state.json is the text of the snapshot at the horizon, which must
    # be the encoding of the run's final state
    path = write_config(tmp_path, {
        "space": {"dimension": 2, "lengths": [1.0, 1.0], "intensity": 200.0},
        "model": {"type": "pairwise", "theta": 0.5, "range": 0.05},
        "death": {"type": "unit"}, "seed": 5,
        "run": {"horizon": 3.0, "snapshot_times": [1.5, 3.0],
                "initial": {"type": "poisson", "intensity": 150.0}}})
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", path, "--out", out]) == 0
    cfg = load_config(path)
    traj = engine.simulate(cfg.model, cfg.space,
                           cli._initial_state(cfg, cli._initial_intensity(cfg), cfg.seed), 3.0,
                           NoiseStream.for_model(cfg.model, cfg.space, cfg.seed, cfg.slab_length))
    assert traj.event_count() > 100 and len(traj.final) > 50
    final = open(os.path.join(out, "final_state.json"), "rb").read()
    assert final == (snapshot_to_json(3.0, traj.final) + "\n").encode()
    assert final == open(os.path.join(out, "snapshot_001.json"), "rb").read()


def test_seed_override_changes_the_run(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", CONSTANT, "--out", a, "--seed", "99"]) == 0
    assert main(["simulate", "--config", CONSTANT, "--out", b]) == 0
    assert open(os.path.join(a, "events.csv")).read() != \
        open(os.path.join(b, "events.csv")).read()
    assert json.load(open(os.path.join(a, "config.json")))["seed"] == 99


def test_simulate_rejects_snapshots_outside_horizon(tmp_path, capsys):
    out = str(tmp_path / "x")
    code = main(["simulate", "--config", CONSTANT, "--out", out,
                 "--snapshot-times", "0,11"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config loading and errors
# ---------------------------------------------------------------------------

def test_malformed_json_reports_position(tmp_path, capsys):
    bad = write_config(tmp_path, '{"space": {,}')
    code = main(["simulate", "--config", bad, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_model_type_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "space": {"dimension": 1, "lengths": [1.0], "intensity": 1.0},
        "model": {"type": "galactic"}, "seed": 1, "run": {}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "galactic" in capsys.readouterr().err


def test_unknown_space_field_rejected(tmp_path):
    cfg = write_config(tmp_path, {
        "space": {"dimension": 1, "lengths": [1.0], "wrap": True},
        "model": {"type": "constant", "rate": 1.0}, "seed": 1, "run": {}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("model,death,key", [
    ({"type": "area_interaction", "rho": 1.0, "gamma": 1.5, "grain_radius": 0.05,
      "overlap_method": "exact"}, {"type": "unit"}, "overlap_method"),
    ({"type": "constant", "rate": 1.0}, {"type": "unit", "rate": 2.0}, "rate"),
    ({"type": "pairwise", "theta": 0.5, "rnage": 0.2, "range": 0.2}, None, "rnage"),
], ids=["overlap_method", "unit_death_rate", "misspelt_model_key"])
def test_unknown_model_or_death_field_rejected_before_writing(tmp_path, capsys,
                                                               model, death, key):
    body = {"space": {"dimension": 1, "lengths": [1.0], "intensity": 1.0},
            "model": model, "seed": 1, "run": {}}
    if death is not None:
        body["death"] = death
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", write_config(tmp_path, body), "--out", out]) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(out)


def test_bad_snapshot_times_flag(tmp_path, capsys):
    code = main(["simulate", "--config", CONSTANT, "--out", str(tmp_path / "o"),
                 "--snapshot-times", "1,abc"])
    assert code == 2
    assert "snapshot-times" in capsys.readouterr().err


def test_thread_count_validated(tmp_path):
    assert main(["simulate", "--config", CONSTANT, "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 2


def test_one_parser_serves_calls_that_parse_independently(tmp_path):
    # the parser is built once per process; a second call with another
    # command and other flags keeps none of the first call's values
    assert cli.build_parser() is cli.build_parser()
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    assert main(["simulate", "--config", CONSTANT, "--out", first, "--seed", "5",
                 "--horizon", "2.5", "--snapshot-times", "1"]) == 0
    assert main(["stats", "--config", CONSTANT, "--out", second, "--replicates", "3"]) == 0
    first_cfg = json.load(open(os.path.join(first, "config.json")))
    second_cfg = json.load(open(os.path.join(second, "config.json")))
    default = json.load(open(CONSTANT))
    assert first_cfg["seed"] == 5 and first_cfg["run"]["horizon"] == 2.5
    assert first_cfg["run"]["snapshot_times"] == [1.0]
    assert second_cfg["seed"] == default["seed"]
    assert second_cfg["run"] == {**default.get("run", {}), "replicates": 3}
    assert main(["simulate", "--config", CONSTANT, "--out", str(tmp_path / "third"),
                 "--threads", "0"]) == 2
    assert not os.path.exists(tmp_path / "third")


def test_load_config_applies_overrides(tmp_path):
    cfg = load_config(CONSTANT, {"seed": 123, "horizon": 3.0, "replicates": None})
    assert cfg.seed == 123
    assert cfg.run["horizon"] == 3.0
    assert cfg.run["replicates"] == 50  # untouched by a None override


# ---------------------------------------------------------------------------
# perfect-sample
# ---------------------------------------------------------------------------

def test_perfect_sample_outputs(tmp_path):
    out = str(tmp_path / "ps")
    code = main(["perfect-sample", "--config", PAIRWISE, "--out", out,
                 "--replicates", "6", "--threads", "2"])
    assert code == 0
    rows = open(os.path.join(out, "coalescence.csv")).read().strip().split("\n")
    assert rows[0] == "replicate,seed,status,lookback,count"
    assert len(rows) == 7
    for i in range(6):
        body = json.load(open(os.path.join(out, "samples", f"sample_{i:05d}.json")))
        assert body["status"] == "Coalesced"
        assert len(body["points"]) == body["count"]
        assert body["points"] == sorted(body["points"])
        row = rows[1 + i].split(",")
        assert int(row[0]) == i and row[2] == "Coalesced"
        assert int(row[4]) == body["count"]


def test_perfect_sample_threaded_matches_serial(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["perfect-sample", "--config", PAIRWISE, "--out", a,
                 "--replicates", "4", "--threads", "1"]) == 0
    assert main(["perfect-sample", "--config", PAIRWISE, "--out", b,
                 "--replicates", "4", "--threads", "3"]) == 0
    assert tree_bytes(a) == tree_bytes(b)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_outputs_and_agreement(tmp_path, capsys):
    out = str(tmp_path / "oracle")
    assert main(["oracle", "--config", CELLS, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "oracle_report.json")))
    assert report["tv_oracle_vs_gibbs"] < 1e-10
    assert report["balance_residual"] < 1e-10
    assert os.path.exists(os.path.join(out, "oracle_stationary.csv"))
    assert os.path.exists(os.path.join(out, "gibbs_table.csv"))
    assert "TV" in capsys.readouterr().out
    head = open(os.path.join(out, "oracle_stationary.csv")).readline().strip()
    assert head == "state,probability"


def test_oracle_requires_a_cell_model(tmp_path, capsys):
    assert main(["oracle", "--config", CONSTANT, "--out", str(tmp_path / "o")]) == 2
    assert "cell" in capsys.readouterr().err.lower()


def cells_oracle_config(tmp_path, oracle_block):
    body = json.load(open(CELLS))
    body["run"]["oracle"] = oracle_block
    return write_config(tmp_path, body)


@pytest.mark.parametrize("extension", [-10, -1, 2.5, "4", True, None])
def test_oracle_rejects_a_bad_extension_before_writing(tmp_path, capsys, extension):
    path = cells_oracle_config(tmp_path, {"caps": [4, 4, 4], "extension": extension})
    out = str(tmp_path / "o")
    assert main(["oracle", "--config", path, "--out", out]) == 2
    assert "extension" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("caps", [[4, -1, 4], [4, 4], [4, 4, 4, 4], [4, 2.5, 4],
                                  [4, "4", 4], [4, False, 4], 4, None])
def test_oracle_rejects_bad_caps_before_writing(tmp_path, capsys, caps):
    path = cells_oracle_config(tmp_path, {"caps": caps})
    out = str(tmp_path / "o")
    assert main(["oracle", "--config", path, "--out", out]) == 2
    assert "caps" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_oracle_rejects_a_block_that_is_not_an_object(tmp_path, capsys):
    path = cells_oracle_config(tmp_path, [4, 4, 4])
    out = str(tmp_path / "o")
    assert main(["oracle", "--config", path, "--out", out]) == 2
    assert "run.oracle" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("block", [{"caps": [100, 100, 100]},
                                   {"caps": [4, 4, 4], "extension": 100}],
                         ids=["caps", "extension"])
def test_oracle_refuses_a_box_over_the_state_budget_before_writing(tmp_path, capsys, block):
    # 101^3 states to solve, or 105^3 for the extended closed-form box
    path = cells_oracle_config(tmp_path, block)
    out = str(tmp_path / "o")
    assert main(["oracle", "--config", path, "--out", out]) == 2
    assert "too large" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_oracle_accepts_zero_caps_and_extension(tmp_path):
    path = cells_oracle_config(tmp_path, {"caps": [0, 2, 0], "extension": 0})
    out = str(tmp_path / "o")
    assert main(["oracle", "--config", path, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "oracle_report.json")))
    assert report["caps"] == [0, 2, 0]
    assert report["truncation_defect_gibbs"] == 0.0
    assert open(os.path.join(out, "oracle_stationary.csv")).read().count("\n") == 4


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contraction_prints_constant_and_verdict(tmp_path, capsys):
    assert main(["contraction", "--config", PAIRWISE]) == 0
    text = capsys.readouterr().out
    assert "M = 0.157387" in text
    assert "unique" in text
    out = str(tmp_path / "c")
    assert main(["contraction", "--config", PAIRWISE, "--out", out]) == 0
    body = json.load(open(os.path.join(out, "contraction.json")))
    assert abs(body["M"] - 0.15738773611494664) < 1e-6
    assert body["certifies_uniqueness"] is True


def test_provenance_records_an_unsupported_model_as_unavailable(monkeypatch):
    def unsupported(model, space):
        raise UnsupportedModelError("no contraction constant for this model")

    monkeypatch.setattr(cli, "contraction_constant", unsupported)
    report = load_config(PAIRWISE).provenance()
    assert report["contraction"] == {"unavailable": "no contraction constant for this model"}


def test_provenance_lets_any_other_error_through(monkeypatch):
    # a broken install (scipy is imported on first use) must fail the run,
    # not end up as a line of provenance.json
    def broken(model, space):
        raise ImportError("cannot import name 'quad'")

    monkeypatch.setattr(cli, "contraction_constant", broken)
    with pytest.raises(ImportError, match="quad"):
        load_config(PAIRWISE).provenance()


def test_three_dimensional_simulate_runs_in_bounded_memory(tmp_path):
    # provenance.json's contraction constant must not need a grid of the
    # whole 3-D window ((2 * 256)^3 points, about 3 GB): under a 1 GB
    # address-space cap the run completes and reports the closed form
    theta, reach, intensity = 0.5, 0.1, 20.0
    cfg = write_config(tmp_path, {
        "space": {"dimension": 3, "lengths": [1.0, 1.0, 1.0], "intensity": intensity},
        "model": {"type": "pairwise", "theta": theta, "range": reach},
        "seed": 5, "run": {"horizon": 1.0}})
    out = str(tmp_path / "run3d")
    code = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from sbdsim.cli import main
        sys.exit(main(sys.argv[1:]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC_DIR] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code, "simulate", "--config", cfg,
                           "--out", out], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    contraction = json.load(open(os.path.join(out, "provenance.json")))["contraction"]
    expected = intensity * (1 - math.exp(-theta)) * 4.0 / 3.0 * math.pi * reach ** 3
    assert abs(contraction["value"] - expected) <= contraction["error"] + 1e-12 * expected


def test_two_dimensional_area_interaction_simulate_runs_in_bounded_memory(tmp_path):
    # the area-interaction kernel tests ~3200 QMC grain nodes per grid point,
    # so the default 2-D window grid would need a (3215, 65536, 2) float array
    # (3.14 GiB) and its fine grid four times that; the grain's support fits
    # the window, so the kernel's radial profile is integrated instead, and
    # under a 1 GB address-space cap provenance.json carries a value, not an
    # error
    rho, gamma, radius, intensity = 1.0, 1.5, 0.02, 20.0
    cfg = write_config(tmp_path, {
        "space": {"dimension": 2, "lengths": [1.0, 1.0], "intensity": intensity},
        "model": {"type": "area_interaction", "rho": rho, "gamma": gamma,
                  "grain_radius": radius},
        "seed": 3, "run": {"horizon": 1.0}})
    out = str(tmp_path / "run2d")
    code = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from sbdsim.cli import main
        sys.exit(main(sys.argv[1:]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC_DIR] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code, "simulate", "--config", cfg,
                           "--out", out], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    contraction = json.load(open(os.path.join(out, "provenance.json")))["contraction"]
    # the kernel is rho (1 - gamma^-V) ~ rho log(gamma) V for the small grain
    # overlap V, and V integrates over y to the squared grain area
    expected = intensity * rho * math.log(gamma) * (math.pi * radius ** 2) ** 2
    assert contraction["value"] == pytest.approx(expected, rel=1e-2)


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

SCIPY_PROBE = textwrap.dedent("""
    import json, sys
    from sbdsim.cli import load_config, main
    for path in json.loads(sys.argv[1]):
        load_config(path)
    for argv in json.loads(sys.argv[2]):
        if main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""")


@pytest.mark.parametrize("commands, banned", [
    ([["simulate", "--config", PAIRWISE, "--out", "sim"],
      ["perfect-sample", "--config", CELLS, "--out", "cftp"]], ("scipy",)),
    ([["oracle", "--config", CELLS, "--out", "oracle"]], ("scipy.stats", "scipy.integrate")),
])
def test_commands_import_only_the_scipy_modules_they_use(tmp_path, commands, banned):
    # scipy.stats and scipy.integrate take about 1.3 s to import, and only
    # area-interaction models and the statistical tests use them; a fresh
    # process that loads the demo configs and runs these commands imports
    # none of the modules in `banned`
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC_DIR] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE,
                           json.dumps([CONSTANT, PAIRWISE, CELLS]), json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert [m for m in loaded if any(m == b or m.startswith(b + ".") for b in banned)] == []


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_outputs(tmp_path):
    out = str(tmp_path / "stats")
    code = main(["stats", "--config", CONSTANT, "--out", out,
                 "--replicates", "30", "--horizon", "8"])
    assert code == 0
    for name in ("count_table.csv", "ripley_k.csv", "block_variance.csv",
                 "stats.json"):
        assert os.path.exists(os.path.join(out, name)), name
    body = json.load(open(os.path.join(out, "stats.json")))
    assert body["replicates"] == 30
    assert body["horizon"] == 8.0
    table = open(os.path.join(out, "count_table.csv")).read().strip().split("\n")
    probs = [float(r.split(",")[1]) for r in table[1:]]
    assert sum(probs) == pytest.approx(1.0)


@pytest.mark.parametrize("flag,value,message", [("--replicates", "0", "replicates"),
                                                ("--horizon", "-1", "horizon")],
                         ids=["replicates", "horizon"])
def test_stats_rejects_a_bad_run_before_writing(tmp_path, capsys, flag, value, message):
    out = str(tmp_path / "s")
    assert main(["stats", "--config", CONSTANT, "--out", out, flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command,patch,flags,message", [
    ("simulate", {}, ["--horizon", "nan"], "horizon"),
    ("simulate", {}, ["--horizon", "inf"], "horizon"),
    ("simulate", {"run.horizon": "ten"}, [], "horizon"),
    ("simulate", {}, ["--snapshot-times", "0,nan"], "snapshot times"),
    ("simulate", {"run.snapshot_times": 5}, [], "snapshot_times must be a list"),
    ("simulate", {"run.snapshot_times": "0,1"}, [], "snapshot_times must be a list"),
    ("simulate", {"run.snapshot_times": [0, None]}, [], "snapshot times entry"),
    ("simulate", {"run.initial": "poisson"}, [], "run.initial must be an object"),
    ("simulate", {"run.initial": {"type": "poisson", "intensity": "x"}}, [],
     "run.initial.intensity"),
    ("simulate", {"run.initial": {"type": "poisson", "intensity": 1e300}}, [],
     "run.initial.intensity"),
    ("simulate", {"run.initial": {"type": "poisson", "intensity": NAN}}, [],
     "run.initial.intensity"),
    ("simulate", {"run.initial": {"type": "poisson", "intensity": -1}}, [],
     "run.initial.intensity"),
    ("simulate", {"run.initial": {"type": "lattice"}}, [], "unknown initial state type"),
    ("stats", {}, ["--horizon", "nan"], "horizon"),
    ("stats", {"run.horizon": INF}, [], "horizon"),
    ("stats", {"run.replicates": 2.7}, [], "replicates"),
    ("stats", {"run.initial": "poisson"}, [], "run.initial must be an object"),
    ("stats", {"run.initial": {"type": "poisson", "intensity": 1e300}}, [],
     "run.initial.intensity"),
    ("stats", {"run.initial": {"type": "poisson", "intensity": NAN}}, [],
     "run.initial.intensity"),
    ("stats", {"run.initial": {"type": "poisson", "intensity": -1}}, [],
     "run.initial.intensity"),
    ("perfect-sample", {"run.replicates": 2.7}, [], "replicates"),
    ("perfect-sample", {"run.replicates": True}, [], "replicates"),
    ("perfect-sample", {"run.initial_lookback": NAN}, [], "initial_lookback"),
    ("perfect-sample", {"run.initial_lookback": 0.0}, [], "initial_lookback"),
    ("perfect-sample", {"run.max_lookback": INF}, [], "max_lookback"),
    ("perfect-sample", {"run.max_lookback": -1.0}, [], "max_lookback"),
    ("perfect-sample", {"run.initial_lookback": 8.0, "run.max_lookback": 2.0}, [],
     "max_lookback 2.0 is below the first lookback, the larger of initial_lookback 8.0"),
    ("perfect-sample", {"run.max_lookback": 0.5}, [], "slab_length 1.0"),
    ("contraction", {"run.contraction": 5}, [], "run.contraction must be an object"),
    ("contraction", {"run.contraction": {"resolution": "x"}}, [], "run.contraction.resolution"),
    ("contraction", {"run.contraction": {"resolution": 1}}, [], "run.contraction.resolution"),
    ("validate", {"run.validate": 3}, [], "run.validate must be an object"),
    ("validate", {"run.validate": {"seed": "a"}}, [], "run.validate.seed"),
    ("validate", {"run.validate": {"fast": "yes"}}, [], "run.validate.fast"),
    ("simulate", {"seed": 1.5}, [], "seed must be an integer"),
    ("simulate", {"seed": True}, [], "seed must be an integer"),
    ("simulate", {"seed": "abc"}, [], "seed must be an integer"),
    ("simulate", {"seed": None}, [], "seed must be an integer"),
    ("simulate", {"space.dimension": 1.5}, [], "space.dimension"),
    ("simulate", {"slab_length": "x"}, [], "slab_length"),
    ("simulate", {"slab_length": None}, [], "slab_length"),
    ("simulate", {"model.rate": "x"}, [], "model.rate"),
    ("simulate", {"model.rate": None}, [], "model.rate"),
    ("simulate", {"death": {"type": "constant", "rate": "x"}}, [], "death.rate"),
    ("simulate", {"model": {"type": "cell_occupancy", "cell_counts": [3.7],
                            "theta": [[0.6, 0.3, 0.0], [0.3, 0.6, 0.3], [0.0, 0.3, 0.6]]}},
     [], "model.cell_counts"),
    ("simulate", {"model": [1]}, [], "config field 'model' must be an object"),
    ("simulate", {"death": "unit"}, [], "config field 'death' must be an object"),
    ("simulate", {"model": {"type": "cell_occupancy", "cell_counts": 3, "theta": [[0.5]]}},
     [], "model.cell_counts must be a list"),
    ("simulate", {"model": {"type": "nearest_neighbor", "breakpoints": 0.1, "values": [0.5],
                            "value_at_infinity": 1.0}}, [], "model.breakpoints must be a list"),
    ("simulate", {"model": {"type": "nearest_neighbor", "breakpoints": [0.1], "values": 0.1,
                            "value_at_infinity": 1.0}}, [], "model.values must be a list"),
    ("simulate", {"space.lengths": [INF]}, [], "window lengths must be finite"),
    ("simulate", {"model": {"type": "pairwise", "theta": 0.5, "range": INF}}, [],
     "model.range must be finite"),
    ("simulate", {"model": {"type": "nearest_neighbor", "breakpoints": [0.1, INF],
                            "values": [0.5, 0.7], "value_at_infinity": 1.0}}, [],
     "model.breakpoints entry must be finite"),
    ("simulate", {"model": {"type": "nearest_neighbor", "breakpoints": [0.1], "values": [INF],
                            "value_at_infinity": 1.0}}, [], "model.values entry must be finite"),
    ("simulate", {"model": {"type": "nearest_neighbor", "breakpoints": [0.1], "values": [0.5],
                            "value_at_infinity": INF}}, [],
     "model.value_at_infinity must be finite"),
    ("simulate", {"model": {"type": "cell_occupancy", "cell_counts": [1], "theta": [[0.5]],
                            "base_rate": INF}}, [], "model.base_rate must be finite"),
    ("simulate", {"model": {"type": "cell_occupancy", "cell_counts": [1], "theta": [[INF]]}},
     [], "theta entries must be finite"),
], ids=["simulate-horizon-nan", "simulate-horizon-inf", "simulate-horizon-text",
        "simulate-snapshot-time-nan", "simulate-snapshot-times-number",
        "simulate-snapshot-times-text", "simulate-snapshot-time-null",
        "simulate-initial-text", "simulate-initial-intensity-text",
        "simulate-initial-intensity-huge", "simulate-initial-intensity-nan",
        "simulate-initial-intensity-negative", "simulate-initial-type-unknown",
        "stats-horizon-nan", "stats-horizon-inf", "stats-replicates-fraction",
        "stats-initial-text", "stats-initial-intensity-huge", "stats-initial-intensity-nan",
        "stats-initial-intensity-negative",
        "perfect-sample-replicates-fraction", "perfect-sample-replicates-bool",
        "perfect-sample-initial-lookback-nan", "perfect-sample-initial-lookback-zero",
        "perfect-sample-max-lookback-inf", "perfect-sample-max-lookback-negative",
        "perfect-sample-lookback-range-empty", "perfect-sample-max-lookback-below-slab",
        "contraction-block-number", "contraction-resolution-text",
        "contraction-resolution-one", "validate-block-number", "validate-seed-text",
        "validate-fast-text", "seed-fraction", "seed-bool", "seed-text", "seed-null",
        "space-dimension-fraction", "slab-length-text", "slab-length-null",
        "model-rate-text", "model-rate-null", "death-rate-text", "cell-counts-fraction",
        "model-block-list", "death-block-text", "cell-counts-number", "breakpoints-number",
        "values-number", "space-lengths-inf", "range-inf", "breakpoints-inf", "values-inf",
        "value-at-infinity-inf", "base-rate-inf", "cell-theta-inf"])
def test_bad_run_parameters_are_refused_before_writing(tmp_path, capsys, command, patch, flags,
                                                       message):
    # patch sets the config fields at its dotted paths; json writes NaN and
    # Infinity as the literals that json.load reads back
    body = json.load(open(CONSTANT))
    for path, value in patch.items():
        *parents, key = path.split(".")
        block = body
        for name in parents:
            block = block[name]
        block[key] = value
    out = str(tmp_path / "o")
    assert main([command, "--config", write_config(tmp_path, body), "--out", out, *flags]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_theta_off_symmetry_in_one_entry_is_refused(tmp_path, capsys):
    # the per-point kernel sums of the coupling distance need a(x, y) == a(y, x)
    # bit for bit, so theta must equal its transpose exactly, not to rounding
    theta = [[0.6, 0.3, 0.0], [0.3, 0.6, 0.3], [0.0, 0.3, 0.6]]
    theta[0][1] += 1e-12
    assert theta[0][1] != theta[1][0]
    with pytest.raises(SimulationConfigError, match="symmetric"):
        CellOccupancyRate(cell_counts=(3,), theta=np.array(theta))
    with pytest.raises(SimulationConfigError, match="symmetric"):
        OracleModel(masses=np.ones(3), caps=(2, 2, 2), theta=np.array(theta))
    body = json.load(open(CONSTANT))
    body["model"] = {"type": "cell_occupancy", "cell_counts": [3], "theta": theta}
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", write_config(tmp_path, body), "--out", out]) == 2
    assert "symmetric" in capsys.readouterr().err
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# validation battery
# ---------------------------------------------------------------------------

def test_fast_validation_battery_passes():
    report = run_validation_battery(seed=20260816, fast=True)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["all_passed"], f"failed checks: {failed}"
    assert len(report["checks"]) >= 10


def test_validate_command_writes_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "space": {"dimension": 1, "lengths": [1.0], "intensity": 1.0},
        "model": {"type": "constant", "rate": 1.0},
        "seed": 20260816,
        "run": {"validate": {"fast": True}}})
    out = str(tmp_path / "v")
    assert main(["validate", "--config", cfg, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "validation_report.json")))
    assert report["all_passed"] is True
    text = capsys.readouterr().out
    assert "[PASS]" in text and "[FAIL]" not in text


# ---------------------------------------------------------------------------
# pinned outputs: refactors that keep the algorithm keep every byte
# ---------------------------------------------------------------------------

# sha256 over the sorted "relative path, sha256 of the file" lines of the
# output directory of each command on each demo config, plus a fast validate,
# a 2-D pairwise simulate and perfect-sample, and area-interaction runs whose
# rates read the grain integrator (QMC nodes in 2-D, interval union in 1-D)
PINNED_TREE_DIGESTS = {
    ("simulate", "constant_demo"): "6bce35c79599675ae3977ed28d69a1aa6b5ff40954aaaaff920b11984bd60785",
    ("stats", "constant_demo"): "bb520f13b1b51d152ed18fdf59eeb75294368c7ec7d4748e67f6a7917b1432cd",
    ("perfect-sample", "constant_demo"): "ad7569cfb348a60c8d70b6955aae9c615b2fe460ee297582691d6662c3b0364b",
    ("simulate", "pairwise_demo"): "1f817e2ed29e5b5150d2c9fe4269f197e327ff682bfd6135ed31bc16b6ecb25c",
    ("stats", "pairwise_demo"): "8beb072d95007defe9d8ac4e9ca69fe8a2c52b78efde2c7a7b96608fee66a7ed",
    ("perfect-sample", "pairwise_demo"): "5fa659bf95f6c3db1fa6293cdcfb521a167cbaa39f7400f74d7bcd0e992d42c9",
    ("simulate", "cells_demo"): "218e59e825133e0d91735c6466be9345fd4e6422ffbd14ba8ef96394d203191c",
    ("stats", "cells_demo"): "87e6b27f696b09ab91905f61705e25e0ab5a9fee6e2ded60f3a959df46e41309",
    ("perfect-sample", "cells_demo"): "7349e7efa00d919429da5059729bd22fdbf9659ea4d97d36397d288697825b5b",
    ("oracle", "cells_demo"): "2e3072e0f37fba158fc38c1eb25fa70acc529ddf06735566f4d5ca02afccec03",
    ("validate", "fast"): "c2dfee57386f17ce3259207e0e1381d5b4b860b1d47417195f147cdacadcbea9",
    ("simulate", "pairwise_2d"):
        "a9a06cf02d041492e5c19ccf580e16e22a45e3db2baa536a519de7c4dda026c0",
    ("perfect-sample", "pairwise_2d"):
        "d580565997286630d9bdc8acdf96a280b8d45d3fb8e30c7a0412035ed01e7943",
    ("simulate", "area_2d"):
        "c4bfe7413db6e29c100c6d7d14fac9a24bb107b4d7cdae5406fc33baf6878186",
    ("perfect-sample", "area_2d"):
        "26ca04e8625df63cc5cd0c1d9caa45c3f36c09f5ae1f91db7e229f3b1081cd38",
    ("perfect-sample", "area_1d"):
        "05aa0a332303576d6f4a2b78966f988f0b0f5e9f6729032d562646a40ac83ce4",
}

# configs the digest test writes itself: a fast validate, a 2-D pairwise
# model whose noise and states carry (n, 2) location arrays, and attractive
# area-interaction models in 2-D and 1-D
WRITTEN_CONFIGS = {
    "fast": {
        "space": {"dimension": 1, "lengths": [1.0], "intensity": 1.0},
        "model": {"type": "constant", "rate": 1.0},
        "seed": 20260816,
        "run": {"validate": {"fast": True}}},
    "pairwise_2d": {
        "space": {"dimension": 2, "lengths": [1.0, 1.0], "boundary": "periodic",
                  "intensity": 30.0},
        "model": {"type": "pairwise", "theta": 0.5, "range": 0.08},
        "death": {"type": "unit"},
        "seed": 23,
        "run": {"horizon": 3.0, "replicates": 20}},
    "area_2d": {
        "space": {"dimension": 2, "lengths": [1.0, 1.0], "boundary": "periodic",
                  "intensity": 20.0},
        "model": {"type": "area_interaction", "rho": 1.0, "gamma": 1.5, "grain_radius": 0.05},
        "death": {"type": "unit"},
        "seed": 29,
        "run": {"horizon": 3.0, "replicates": 20}},
    "area_1d": {
        "space": {"dimension": 1, "lengths": [1.0], "boundary": "periodic", "intensity": 2.0},
        "model": {"type": "area_interaction", "rho": 1.5, "gamma": 2.0, "grain_radius": 0.05},
        "death": {"type": "unit"},
        "seed": 31},
}


def tree_digest(root):
    lines = "".join(f"{name} {hashlib.sha256(body).hexdigest()}\n"
                    for name, body in sorted(tree_bytes(root).items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def test_cli_outputs_match_pinned_digests(tmp_path, capsys):
    written = {name: write_config(tmp_path, body, f"{name}.json")
               for name, body in WRITTEN_CONFIGS.items()}
    changed = []
    for (command, name), digest in PINNED_TREE_DIGESTS.items():
        config = written.get(name) or os.path.join(CONFIG_DIR, f"{name}.json")
        out = str(tmp_path / f"{command}-{name}")
        assert main([command, "--config", config, "--out", out]) == 0
        if tree_digest(out) != digest:
            changed.append(f"{command} {name}")
    assert changed == []


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
