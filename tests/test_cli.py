"""Command-line front end: exit codes, artifacts, determinism."""
import concurrent.futures
import dataclasses
import functools
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fhartree
from fhartree import cli
from fhartree.cli import (
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    K1_NO_SCATTERING,
    PREDICTIONS,
    SWEEP_COLUMNS,
    main,
    run_sweep,
)
from fhartree.config import ConfigError, load_config
from fhartree.ground_state import CollapseToZeroError
from fhartree.snapshots import read_snapshot, write_snapshot
from fhartree.spectral import CONVENTION_TAG, field_from_values, make_grid

# Warnings that are expected at the canonical desk-scale resolution: the
# soliton tail is truncated at 1.8e-4 of peak on the L=32 box, and |x|u is
# meaningless near the box edge.  Both are in-band caveats, not failures.
pytestmark = [
    pytest.mark.filterwarnings("ignore:ground-state tail"),
    pytest.mark.filterwarnings("ignore:weighted_virial"),
]

_RUN_CSV_HEADER = (
    "time,mass,energy,hs,hsc,v,lpc,me_ratio,grad_ratio,membership,"
    "tail_fraction,strichartz_accum,soliton_deviation,dt_eff"
)


# ----------------------------------------------------------- ground-state


def test_ground_state_command(tmp_path):
    rc = main(["ground-state", "--out", str(tmp_path)])
    assert rc == EXIT_OK

    report = json.loads((tmp_path / "ground_state.json").read_text())
    assert report["converged"] is True
    assert report["config"]["convention"] == CONVENTION_TAG
    assert report["config"]["grid"] == {"n": 128, "L": 32.0}
    assert report["summary"]["l2"] > 0
    assert report["thresholds"]["me_discrepancy"] < 1e-2
    history = report["solver_history"]
    assert len(history["delta"]) == len(history["gamma"]) == report["summary"]["iterations"]
    assert history["delta"][-1] < 1e-12  # the default solver.tol

    q, p, side = read_snapshot(tmp_path / "q.bin")
    assert q.grid.n == 128
    assert (p.s, p.gamma) == (0.7, 1.6)
    assert side["kind"] == "ground-state"
    assert side["iterations"] == report["summary"]["iterations"]


def test_ground_state_tail_advisory_is_a_note(tmp_path, capsys):
    # the library warns API callers; the CLI prints one note: line instead
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["ground-state", "grid.n=64", "grid.L=8", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert not [w for w in caught if issubclass(w.category, UserWarning)]
    notes = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("note: ground-state tail")]
    assert len(notes) == 1


def test_ground_state_nonconvergence_exit_code(tmp_path):
    rc = main(["ground-state", "--out", str(tmp_path), "solver.max_iter=2"])
    assert rc == EXIT_NONCONVERGENCE
    report = json.loads((tmp_path / "ground_state.json").read_text())
    assert report["converged"] is False
    assert report["summary"]["iterations"] == 2
    assert len(report["solver_history"]["delta"]) == 2
    assert not (tmp_path / "q.bin").exists()  # no snapshot for a bad profile


def test_ground_state_collapse_exit_code(tmp_path, monkeypatch, capsys):
    def collapse(*args, **kwargs):
        raise CollapseToZeroError("iterate norm 1.000e-11 below 1e-10")

    monkeypatch.setattr(cli, "solve_ground_state", collapse)
    rc = main(["ground-state", "--out", str(tmp_path)])
    assert rc == EXIT_NONCONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "below 1e-10" in err


def test_ground_state_3d_certificate_on_default_kernel(tmp_path):
    # the exact kernel serves N=3; a grid-sampled kernel read 1.84e-2 and
    # 8.8e-3 here
    rc = main(["ground-state", "--out", str(tmp_path), "physics.N=3", "physics.gamma=2.0",
               "grid.n=64", "grid.L=16"])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "ground_state.json").read_text())
    assert report["config"]["grid"] == {"n": 64, "L": 16.0}
    assert report["summary"]["cgn_discrepancy"] <= 2e-3
    assert abs(report["summary"]["pohozaev_r2"]) <= 1e-3


def _seed_snapshot(path, params, values):
    grid = make_grid(N=2, n=128, L=32.0)
    return write_snapshot(path, field_from_values(grid, values(grid)), params)


def test_ground_state_off_centre_seed_snapshot(tmp_path, params):
    # a seed away from the box center is centred and made mirror-even
    def gaussian(g):
        return np.exp(-((g.x_mesh[0] - 5.0) ** 2 + (g.x_mesh[1] + 3.0) ** 2))

    snap = _seed_snapshot(tmp_path / "seed.bin", params, gaussian)
    out = tmp_path / "gs"
    assert main(["ground-state", "--out", str(out), "--seed-snapshot", str(snap)]) == EXIT_OK
    report = json.loads((out / "ground_state.json").read_text())
    assert report["converged"] is True
    assert report["summary"]["iterations"] <= 30


@pytest.mark.parametrize("command", [["ground-state", "--seed-snapshot"], ["verify", "--q"]])
def test_non_finite_seed_snapshot_exits_1(tmp_path, params, capsys, command):
    def nan_at_one_point(g):
        values = np.exp(-g.r_mesh**2)
        values[3, 5] = np.nan
        return values

    snap = _seed_snapshot(tmp_path / "seed.bin", params, nan_at_one_point)
    rc = main([command[0], "--out", str(tmp_path / "out"), command[1], str(snap)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be finite" in err


# --------------------------------------------------------------- classify


def test_classify_subcritical_amplitude(tmp_path):
    rc = main(["classify", "--out", str(tmp_path), "--c", "0.9"])
    assert rc == EXIT_OK
    data = json.loads((tmp_path / "classify.json").read_text())
    assert data["membership"] == "K1"
    assert data["prediction"] == PREDICTIONS["K1"]
    assert data["me_ratio"] < 1.0 and data["grad_ratio"] < 1.0
    assert data["u0"] == {"source": "scaled-ground-state", "c": 0.9}
    assert data["u0_scalars"]["mass"] > 0


def test_classify_supercritical_amplitude(tmp_path):
    rc = main(["classify", "--out", str(tmp_path), "--c", "1.1"])
    assert rc == EXIT_OK
    data = json.loads((tmp_path / "classify.json").read_text())
    assert data["membership"] == "K2"
    assert data["prediction"] == PREDICTIONS["K2"]
    assert data["grad_ratio"] > 1.0


def test_classify_gaussian_carrier_snaps_to_grid(tmp_path):
    rc = main(["classify", "--out", str(tmp_path), "--gaussian", "0.6,1.0,3.9"])
    assert rc == EXIT_OK
    data = json.loads((tmp_path / "classify.json").read_text())
    assert data["u0"]["source"] == "gaussian"
    carrier = data["u0"]["carrier"]
    dk = 2.0 * np.pi / 32.0
    assert carrier != 3.9  # snapped to the nearest box frequency
    assert abs(carrier / dk - round(carrier / dk)) < 1e-12
    assert data["membership"] in PREDICTIONS


@pytest.mark.parametrize(
    "spec", ["0.4", "a,b", "0.4,1.0,2.0,3.0", "0.4,-1.0", "0.4,0.0"]
)
def test_gaussian_parse_errors(tmp_path, spec):
    rc = main(["classify", "--out", str(tmp_path), "--gaussian", spec])
    assert rc == EXIT_VALIDATION


def test_nonpositive_amplitude_rejected(tmp_path):
    rc = main(["classify", "--out", str(tmp_path), "--c", "-1.0"])
    assert rc == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ["classify", "--c", "nan"],
    ["evolve", "--c", "inf"],
    ["classify", "--gaussian", "nan,1.0"],
    ["classify", "--gaussian", "1.0,nan"],
    ["classify", "--gaussian", "1.0,1.0,inf"],
    ["sweep", "--c-lo", "nan", "--count", "2"],
    ["sweep", "--c-hi", "inf"],
    ["sweep", "--c", "0.9", "nan"],
], ids=["c-nan", "evolve-c-inf", "gaussian-amp-nan", "gaussian-width-nan",
        "gaussian-carrier-inf", "sweep-c-lo-nan", "sweep-c-hi-inf", "sweep-c-list-nan"])
def test_non_finite_input_exits_1(tmp_path, argv, capsys):
    # a NaN amplitude used to classify as K2 with a blow-up prediction, and
    # an infinite carrier to end in an OverflowError traceback
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    assert "finite" in captured.err
    assert "prediction" not in captured.out
    assert not any(tmp_path.iterdir())


def test_unknown_override_rejected(tmp_path, capsys):
    # grid.kernel_mode chose between two kernels; only the exact one is
    # left, and a leftover setting is an unknown key in an override or a file
    ini = tmp_path / "run.ini"
    for key, value in [("grid.resolution", "64"), ("grid.kernel_mode", "exact"),
                       ("grid.kernel_mode", "sampled")]:
        section, name = key.split(".")
        ini.write_text(f"[{section}]\n{name} = {value}\n")
        unknown = f"unknown configuration key {key}"
        for path, overrides in [(None, [f"{key}={value}"]), (ini, [])]:
            with pytest.raises(ConfigError, match=unknown):
                load_config(path, overrides)
            args = overrides if path is None else ["--config", str(path)]
            assert main(["classify", "--out", str(tmp_path / "out"), *args]) == EXIT_VALIDATION
            assert f"error: {unknown}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ground-state", "--bogus"],
    ["classify", "--c", "abc"],
    ["ground-state", "--profile", "canonical"],  # a removed option
])
def test_usage_errors_exit_1(tmp_path, argv, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_missing_config_file_rejected(tmp_path):
    rc = main(["classify", "--out", str(tmp_path), "--config",
               str(tmp_path / "nope.ini")])
    assert rc == EXIT_VALIDATION


# ----------------------------------------------------------------- evolve


def test_evolve_soliton_artifacts(tmp_path):
    rc = main([
        "evolve", "--out", str(tmp_path),
        "stepper.t_end=0.05", "stepper.adaptive=no", "stepper.record_every=5",
        "io.snapshot_every=5",  # every 5th sample = every 25th step
    ])
    assert rc == EXIT_OK

    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == _RUN_CSV_HEADER
    assert len(lines) == 1 + 11  # header + steps 0,5,...,50

    run = json.loads((tmp_path / "run.json").read_text())
    assert run["membership"] == "Boundary"
    assert run["run"]["verdict"] == "Soliton"
    assert run["agreement"] == "yes"
    assert run["invariance"]["applicable"] is False  # Boundary data, no K_i to preserve

    snaps = sorted(tmp_path.glob("snap_*.bin"))
    assert [s.name for s in snaps] == ["snap_0000.bin", "snap_0001.bin", "snap_0002.bin"]
    u, _, side = read_snapshot(snaps[0])
    assert u.grid.n == 128 and side["time"] == 0.0
    _, _, side_last = read_snapshot(snaps[-1])
    assert abs(side_last["time"] - 0.05) < 1e-12  # final state is the last kept sample


def test_evolve_is_deterministic(tmp_path):
    argv = ["evolve", "stepper.t_end=0.05", "stepper.adaptive=no"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(argv + ["--out", str(tmp_path / "b")]) == EXIT_OK
    a = (tmp_path / "a" / "run.csv").read_bytes()
    b = (tmp_path / "b" / "run.csv").read_bytes()
    assert a == b  # byte-identical reruns


def test_evolve_from_snapshot(tmp_path):
    gs_dir, run_dir = tmp_path / "gs", tmp_path / "run"
    assert main(["ground-state", "--out", str(gs_dir)]) == EXIT_OK
    rc = main([
        "evolve", "--out", str(run_dir), "--u0", str(gs_dir / "q.bin"),
        "stepper.t_end=0.02", "stepper.adaptive=no",
    ])
    assert rc == EXIT_OK
    run = json.loads((run_dir / "run.json").read_text())
    assert run["u0"]["source"] == "snapshot"
    assert run["run"]["verdict"] == "Soliton"


def test_evolve_snapshot_grid_mismatch(tmp_path, params):
    grid = make_grid(N=2, n=16, L=8.0)
    u = field_from_values(grid, np.exp(-grid.r_mesh**2).astype(np.complex128))
    snap = write_snapshot(tmp_path / "u0.bin", u, params)
    rc = main(["evolve", "--out", str(tmp_path), "--u0", str(snap)])
    assert rc == EXIT_VALIDATION


def test_evolve_snapshot_physics_mismatch(tmp_path):
    gs_dir = tmp_path / "gs"
    assert main(["ground-state", "--out", str(gs_dir)]) == EXIT_OK
    rc = main([
        "evolve", "--out", str(tmp_path), "--u0", str(gs_dir / "q.bin"),
        "physics.s=0.6", "physics.gamma=1.4",
    ])
    assert rc == EXIT_VALIDATION


def test_evolve_corrupted_snapshot(tmp_path, params):
    grid = make_grid(N=2, n=16, L=8.0)
    u = field_from_values(grid, np.exp(-grid.r_mesh**2).astype(np.complex128))
    snap = write_snapshot(tmp_path / "u0.bin", u, params)
    raw = bytearray(snap.read_bytes())
    raw[:8] = b"XXXXXXXX"
    snap.write_bytes(bytes(raw))
    rc = main(["evolve", "--out", str(tmp_path), "--u0", str(snap)])
    assert rc == EXIT_VALIDATION


# ------------------------------------------------------------------ sweep


def test_sweep_artifacts(tmp_path):
    rc = main([
        "sweep", "--out", str(tmp_path),
        "--c-lo", "0.9", "--c-hi", "1.1", "--count", "2",
        "stepper.t_end=0.05", "stepper.adaptive=no",
    ])
    assert rc == EXIT_OK

    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3  # header + two amplitudes
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.9 and float(first[2]) == 0.7
    assert first[6] == "K1"
    second = lines[2].split(",")
    assert float(second[1]) == 1.1 and second[6] == "K2"

    data = json.loads((tmp_path / "sweep.json").read_text())
    assert len(data["rows"]) == 2
    for row in data["rows"]:
        assert row["prediction"] == PREDICTIONS[row["membership"]]
        assert row["agreement"] in ("yes", "no", "n/a")


def test_run_sweep_rejects_bad_amplitudes():
    cfg = load_config(overrides=["stepper.t_end=0.02"])
    with pytest.raises(ConfigError, match="empty"):
        run_sweep(cfg, ())
    with pytest.raises(ConfigError, match="positive"):
        run_sweep(cfg, (0.9, -1.1))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            run_sweep(cfg, (0.9, bad))


@pytest.mark.parametrize("override", ["stepper.dealias=yes", "stepper.nonlinear=no"])
def test_sweep_point_gets_every_stepper_field(monkeypatch, override):
    seen = []

    def fake_evolve(u0, p, mult, config, gs=None, keep_rows=True):
        seen.append((config, keep_rows))
        return SimpleNamespace(verdict="Inconclusive", t_star=None)

    monkeypatch.setattr(cli, "evolve", fake_evolve)
    cfg = load_config(overrides=["grid.n=32", "grid.L=8", override])
    run_sweep(cfg, (0.9, 1.1), max_workers=1)
    assert len(seen) == 2
    for config, keep_rows in seen:
        assert keep_rows is False  # a sweep point reads only the verdict and t_star
        for f in dataclasses.fields(cfg.stepper):
            assert getattr(config, f.name) == getattr(cfg.stepper, f.name), f.name


_SMALL_SWEEP = ["grid.n=32", "grid.L=8", "stepper.t_end=0.05", "stepper.adaptive=no"]
_TWO_PAIRS = ((0.6, 1.4), (0.7, 1.6))


def test_sweep_builds_multipliers_once_per_pair(monkeypatch):
    calls = []
    build = cli.make_multipliers

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "make_multipliers", counted)
    rows = run_sweep(load_config(overrides=_SMALL_SWEEP), (0.9, 1.1),
                     sg_pairs=_TWO_PAIRS, max_workers=1)
    assert len(rows) == 4
    assert len(calls) == 2


def test_sweep_rows_do_not_depend_on_worker_count():
    cfg = load_config(overrides=_SMALL_SWEEP)
    serial = run_sweep(cfg, (0.9, 1.1), sg_pairs=_TWO_PAIRS, max_workers=1)
    assert [r["index"] for r in serial] == [0, 1, 2, 3]
    for workers in (1, 2, 3):
        assert run_sweep(cfg, (0.9, 1.1), sg_pairs=_TWO_PAIRS, max_workers=workers) == serial
        assert multiprocessing.active_children() == []


def _log_line(path: Path, text: str) -> None:
    with open(path, "a", encoding="utf-8") as f:
        f.write(text + "\n")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_parent_is_one_of_the_workers(monkeypatch, tmp_path, workers):
    # workers - 1 forked processes (none for one worker), and the parent
    # runs points too
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    log = tmp_path / "pids"
    point = cli._sweep_point

    @functools.wraps(point)  # pickled by its name, fhartree.cli._sweep_point
    def logged(task):
        _log_line(log, str(os.getpid()))
        return point(task)

    monkeypatch.setattr(cli, "_sweep_point", logged)
    rows = run_sweep(load_config(overrides=_SMALL_SWEEP), (0.9, 1.1),
                     sg_pairs=_TWO_PAIRS, max_workers=workers)
    pids = log.read_text(encoding="utf-8").split()
    assert [r["index"] for r in rows] == [0, 1, 2, 3]
    assert sizes == ([workers - 1] if workers > 1 else [])
    assert len(pids) == 4 and len(set(pids)) <= workers
    assert str(os.getpid()) in pids
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failing", ["parent", "pool"])
def test_sweep_error_empties_the_queue(monkeypatch, tmp_path, failing):
    # the pool process takes index 0 and the parent index 1; the point with
    # c > 1 raises at once, the other runs until 0.5 s after that, and the
    # four points still queued must never run
    log = tmp_path / "evolved"

    def fake_evolve(u0, p, mult, config, gs=None, keep_rows=True):
        c = float(np.linalg.norm(u0.values) / np.linalg.norm(gs.q.values))
        _log_line(log, f"{c:.3f}")
        if c > 1.0:
            raise RuntimeError("evolve failed for c > 1")
        deadline = time.monotonic() + 30.0
        while "1.200" not in log.read_text(encoding="utf-8") and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)  # for the failure to reach the queue
        return SimpleNamespace(verdict="Inconclusive", t_star=None)

    monkeypatch.setattr(cli, "evolve", fake_evolve)  # before the pool forks
    first = (0.9, 1.2) if failing == "parent" else (1.2, 0.9)
    cfg = load_config(overrides=_SMALL_SWEEP)
    with pytest.raises(RuntimeError, match="c > 1"):
        run_sweep(cfg, first + (0.8,) * 4, max_workers=2)
    assert sorted(log.read_text(encoding="utf-8").split()) == ["0.900", "1.200"]
    assert multiprocessing.active_children() == []


def test_sweep_explicit_amplitude_list(tmp_path):
    rc = main(["sweep", "--out", str(tmp_path), *_SMALL_SWEEP, "--c", "0.9", "1.0", "1.1"])
    assert rc == EXIT_OK
    rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [0.9, 1.0, 1.1]


@pytest.mark.parametrize("flag", [["--c-lo", "0.9"], ["--c-hi", "1.1"], ["--count", "3"]])
def test_sweep_amplitude_list_excludes_grid_flags(tmp_path, capsys, flag):
    rc = main(["sweep", "--out", str(tmp_path), *flag, "--c", "0.9", "1.1"])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "sweep.csv").exists()


def test_k1_prediction_needs_scattering_hypothesis(tmp_path):
    # s=0.6 < N/(2N-1) = 2/3 at N=2: K1 rows get no prediction; s=0.7 keeps it
    small = ["grid.n=32", "grid.L=8", "stepper.t_end=0.05", "stepper.adaptive=no"]
    rc = main(["sweep", "--out", str(tmp_path), "--c-lo", "0.9", "--c-hi", "1.1",
               "--count", "2", "--sg", "0.6,1.4", "--sg", "0.7,1.6", *small])
    assert rc == EXIT_OK
    rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    by_key = {(float(r[2]), r[6]): (r[7], r[9]) for r in rows}
    assert by_key[(0.6, "K1")] == (K1_NO_SCATTERING, "n/a")
    assert by_key[(0.6, "K2")][0] == PREDICTIONS["K2"]
    assert by_key[(0.6, "K2")][1] != "n/a"
    assert by_key[(0.7, "K1")][0] == PREDICTIONS["K1"]
    assert by_key[(0.7, "K1")][1] != "n/a"

    below = ["physics.s=0.6", "physics.gamma=1.4", *small]
    assert main(["classify", "--out", str(tmp_path), "--c", "0.9", *below]) == EXIT_OK
    data = json.loads((tmp_path / "classify.json").read_text())
    assert (data["membership"], data["prediction"]) == ("K1", K1_NO_SCATTERING)
    assert main(["evolve", "--out", str(tmp_path), "--c", "0.9", *below]) == EXIT_OK
    data = json.loads((tmp_path / "run.json").read_text())
    assert (data["membership"], data["prediction"]) == ("K1", K1_NO_SCATTERING)
    assert data["agreement"] == "n/a"


def test_sweep_bad_sg_pair(tmp_path):
    rc = main(["sweep", "--out", str(tmp_path), "--sg", "0.6"])
    assert rc == EXIT_VALIDATION


# ----------------------------------------------------------------- verify


def test_verify_passes_at_canonical(tmp_path):
    rc = main(["verify", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {
        "euler_lagrange_residual", "pohozaev_r2", "cgn_two_route",
        "gn_ratio_ground_state", "threshold_me_two_route",
        "balakrishnan_gaussian", "mass_drift", "energy_drift",
        "comparability_margins", "virial_surrogate", "weighted_virial_gaussian",
    } <= names
    assert all(c["passed"] for c in report["checks"])


def test_verify_warm_start_from_certified_profile(tmp_path):
    gs_dir, v_dir = tmp_path / "gs", tmp_path / "v"
    assert main(["ground-state", "--out", str(gs_dir)]) == EXIT_OK
    rc = main(["verify", "--out", str(v_dir), "--q", str(gs_dir / "q.bin")])
    assert rc == EXIT_OK
    report = json.loads((v_dir / "verify.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["warm_start_iterations"]["measured"] <= 3


def test_verify_coarse_dt_fails(tmp_path):
    rc = main(["verify", "--out", str(tmp_path), "stepper.dt=0.05"])
    assert rc == EXIT_VERIFY
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "energy_drift" in failed


def test_verify_frees_each_check_groups_arrays(tmp_path, monkeypatch):
    # each check group's arrays die when it returns: after any group the
    # traced memory exceeds what it was before the first by less than 1.5
    # complex fields.  What stays is |xi|^2 and |xi|^{2s}, which the
    # whole-grid random-field checks cache on the grid and the multiplier
    # set, one complex field's bytes in all.  The rows keep their order.
    marks = []

    def traced(group):
        def run(*args):
            rows = group(*args)
            marks.append(tracemalloc.get_traced_memory()[0])
            return rows
        return run

    first, *rest = cli._VERIFY_GROUPS

    def start(*args):
        marks.append(tracemalloc.get_traced_memory()[0])
        return first(*args)

    monkeypatch.setattr(cli, "_VERIFY_GROUPS", tuple(map(traced, (start, *rest))))
    tracemalloc.start()
    try:
        rc = main(["verify", "grid.n=64", "--out", str(tmp_path)])
    finally:
        tracemalloc.stop()
    assert rc in (EXIT_OK, EXIT_VERIFY)
    assert len(marks) == 1 + len(rest) + 1
    field_bytes = 16 * 64**2
    assert max(marks) - marks[0] < 1.5 * field_bytes
    names = [c["name"] for c in json.loads((tmp_path / "verify.json").read_text())["checks"]]
    assert names == [
        "euler_lagrange_residual", "pohozaev_r1", "pohozaev_r2", "cgn_two_route",
        "gn_ratio_ground_state", "gn_ratio_random_excess", "threshold_me_two_route",
        "threshold_grad_two_route", "threshold_ratio_closed_form", "balakrishnan_gaussian",
        "mass_drift", "energy_drift", "flow_invariance_flips", "comparability_margins",
        "coercivity_gap", "virial_surrogate", "weighted_virial_gaussian",
    ]


def test_verify_loads_no_numpy_random(tmp_path):
    # the random fields of gn_ratio_random_excess come from the stdlib
    # random.Random seeded by io.seed, so no command loads numpy.random
    code = "\n".join([
        "import sys",
        "from fhartree.cli import main",
        f"rc = main(['verify', 'grid.n=64', '--out', {str(tmp_path)!r}])",
        "print(rc, 'numpy.random' in sys.modules)",
    ])
    out = _run([sys.executable, "-c", code])
    assert out.returncode == 0, out.stderr
    rc, loaded = out.stdout.splitlines()[-1].split()
    assert int(rc) in (EXIT_OK, EXIT_VERIFY)
    assert (tmp_path / "verify.json").exists()
    assert loaded == "False"


# ------------------------------------------------------------ entry point


def _run(argv, env_vars=None):
    """Run ``argv`` in a child process that imports the same fhartree sources
    as this suite, whatever the working directory.  ``env_vars`` sets
    variables of the child's environment, or removes those mapped to None."""
    env = dict(os.environ)
    for key, value in (env_vars or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    src = str(Path(fhartree.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)


def test_console_script_help():
    # The console script is pyproject's [project.scripts] mapping onto
    # cli.main; check the mapping, then run main the way the script does.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["fhartree"] == "fhartree.cli:main"

    commands = [[sys.executable, "-m", "fhartree", "--help"]]
    installed = shutil.which("fhartree")
    if installed is not None:
        commands.append([installed, "--help"])
    for argv in commands:
        out = _run(argv)
        assert out.returncode == 0, (argv, out.stderr)
        for sub in ("ground-state", "classify", "evolve", "sweep", "verify"):
            assert sub in out.stdout


def test_module_entry_point_propagates_exit_code(tmp_path):
    out = _run([sys.executable, "-m", "fhartree", "classify", "bogus.key=1",
                "--out", str(tmp_path)])
    assert out.returncode == EXIT_VALIDATION
    assert any(line.startswith("error:") for line in out.stderr.splitlines())


# importing fhartree (here, this suite) sets the variable in this process too,
# so the unset case removes it from the child's environment
@pytest.mark.parametrize("given, want", [(None, "1"), ("3", "3")])
def test_import_runs_blas_single_threaded_unless_set(given, want):
    code = "import fhartree, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = _run([sys.executable, "-c", code], {"OPENBLAS_NUM_THREADS": given})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == want


def test_orthant_evolve_loads_no_scipy():
    # numpy is the one runtime dependency (scipy is a test extra): the CLI,
    # a ground-state solve and an evolution on the orthant of a mirror-even
    # state import none of scipy
    code = "\n".join([
        "import sys",
        "import warnings",
        "import numpy as np",
        "import fhartree.cli",
        "from fhartree import ground_state, spectral",
        "from fhartree.evolution import StepperConfig, evolve",
        "from fhartree.params import PhysParams",
        "p = PhysParams(N=2, s=0.7, gamma=1.6)",
        "g = spectral.make_grid(2, 32, 8.0)",
        "u0 = spectral.field_from_values(g, np.exp(-g.r_mesh**2))",
        "assert type(spectral.step_transform(g, u0.values)) is spectral.Orthant",
        "tr = spectral.Orthant(g)",
        "seed = tr.expand(ground_state._seed_array(tr, None, ground_state.SolverOptions()))",
        "assert type(spectral.step_transform(g, seed)) is spectral.Orthant",
        "mult = spectral.make_multipliers(g, p)",
        "warnings.simplefilter('ignore')  # the box-tail advisory at L=8",
        "gs = ground_state.solve_ground_state(p, g, mult=mult)",
        "assert gs.converged",
        "rec = evolve(u0, p, mult, StepperConfig(t_end=0.01, record_every=3))",
        "assert rec.n_steps == 10",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    out = _run([sys.executable, "-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
