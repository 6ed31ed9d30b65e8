"""Configuration resolution (defaults / file / overrides) and snapshot I/O."""
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fhartree.config import ConfigError, RunConfig, SweepSpec, load_config
from fhartree.params import PhysParams
from fhartree.snapshots import (
    _HEADER_SIZE,
    MAGIC,
    SnapshotFormatError,
    SnapshotMismatchError,
    read_snapshot,
    sidecar_path,
    write_snapshot,
)
from fhartree.spectral import CONVENTION_TAG, field_from_values, make_grid, to_fourier


# ---------------------------------------------------------------- config


def test_defaults_are_the_canonical_profile():
    cfg = load_config()
    assert isinstance(cfg, RunConfig)
    assert (cfg.physics.N, cfg.physics.s, cfg.physics.gamma) == (2, 0.7, 1.6)
    assert (cfg.grid.n, cfg.grid.L) == (128, 32.0)
    assert cfg.kernel_mode == "exact"
    assert cfg.stepper.dt == 1e-3
    assert cfg.stepper.adaptive is True
    assert cfg.solver.tol == 1e-12
    assert cfg.io.out_dir == "runs"
    assert cfg.io.snapshot_every == 0


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError, match="profile"):
        load_config(profile="fine")


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[physics]\ns = 0.6\ngamma = 1.4\n"
        "[grid]\nn = 64\n"
        "[stepper]\nt_end = 0.25\nadaptive = no\n"
    )
    cfg = load_config(path)
    assert cfg.physics.s == 0.6
    assert cfg.physics.gamma == 1.4
    assert cfg.grid.n == 64
    assert cfg.grid.L == 32.0  # untouched keys keep their defaults
    assert cfg.stepper.t_end == 0.25
    assert cfg.stepper.adaptive is False


def test_dotted_overrides_beat_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[stepper]\ndt = 2e-3\n")
    cfg = load_config(path, overrides=["stepper.dt=5e-4", "grid.kernel_mode=sampled"])
    assert cfg.stepper.dt == 5e-4
    assert cfg.kernel_mode == "sampled"


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[grid]\nresolution = 64\n")
    with pytest.raises(ConfigError, match="unknown configuration key grid.resolution"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[output]\ndir = here\n")
    with pytest.raises(ConfigError, match=r"unknown configuration section \[output\]"):
        load_config(path)


@pytest.mark.parametrize(
    "item",
    ["stepper.dt", "dt=1e-3", "stepper.dt:1e-3", "misc.dt=1e-3", "stepper.step=1e-3"],
)
def test_malformed_overrides_rejected(item):
    with pytest.raises(ConfigError):
        load_config(overrides=[item])


@pytest.mark.parametrize(
    "override, match",
    [
        ("grid.n=tiny", "integer"),
        ("physics.s=fast", "number"),
        ("stepper.adaptive=maybe", "boolean"),
    ],
)
def test_unparseable_values_rejected(override, match):
    with pytest.raises(ConfigError, match=match):
        load_config(overrides=[override])


@pytest.mark.parametrize(
    "override",
    [
        "physics.s=0.3",       # outside (1/2, 1)
        "physics.gamma=2.9",   # >= min(N, 4s)
        "physics.N=4",
        "grid.n=100",          # not a power of two
        "grid.L=-8",
        "grid.L=nan",
        "grid.L=inf",
        "stepper.dt=0",
        "stepper.phase_cap=-0.1",
        "solver.max_iter=0",
    ],
)
def test_broken_invariants_surface_as_config_errors(override):
    with pytest.raises(ConfigError):
        load_config(overrides=[override])


def test_exact_kernel_restricted_to_planar_case():
    with pytest.raises(ConfigError, match="sampled"):
        load_config(overrides=["physics.N=3", "physics.gamma=2.0", "grid.n=16"])
    cfg = load_config(
        overrides=["physics.N=3", "physics.gamma=2.0", "grid.n=16", "grid.kernel_mode=sampled"]
    )
    assert cfg.physics.N == 3
    assert cfg.kernel_mode == "sampled"


def test_resolved_view_is_json_ready_and_tagged():
    cfg = load_config(overrides=["stepper.record_every=5"])
    view = cfg.resolved()
    assert view["convention"] == CONVENTION_TAG
    assert view["physics"] == {"N": 2, "s": 0.7, "gamma": 1.6}
    assert view["grid"] == {"n": 128, "L": 32.0, "kernel_mode": "exact"}
    assert view["stepper"]["record_every"] == 5
    assert view["io"]["seed"] == 0
    round_tripped = json.loads(json.dumps(view))
    assert round_tripped == view


def test_resolved_view_replays_to_the_same_config():
    cfg = load_config(overrides=[
        "physics.s=0.6", "physics.gamma=1.4", "grid.n=64", "grid.L=16",
        "solver.tol=1e-10", "stepper.dealias=yes", "stepper.dt=5e-4",
        "io.snapshot_every=5", "io.seed=3",
    ])
    view = cfg.resolved()
    replay = [f"{section}.{key}={value}"
              for section, settings in view.items() if isinstance(settings, dict)
              for key, value in settings.items()]
    assert load_config(overrides=replay) == cfg


def test_sweep_spec_amplitude_grid():
    spec = SweepSpec(c_lo=0.8, c_hi=1.2, k=5)
    amps = spec.amplitudes
    assert len(amps) == 5
    assert amps[0] == 0.8 and amps[-1] == 1.2
    assert np.allclose(np.diff(amps), 0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c_lo": 0.0, "c_hi": 1.0, "k": 3},
        {"c_lo": -0.5, "c_hi": 1.0, "k": 3},
        {"c_lo": 1.2, "c_hi": 0.8, "k": 3},
        {"c_lo": 0.8, "c_hi": 1.2, "k": 1},
    ],
)
def test_sweep_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        SweepSpec(**kwargs)


# ------------------------------------------------------------- snapshots


@pytest.fixture()
def small_field(params):
    grid = make_grid(N=2, n=16, L=8.0)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return field_from_values(grid, vals)


def test_snapshot_round_trip_is_exact(tmp_path, params, small_field):
    path = tmp_path / "field.bin"
    out = write_snapshot(path, small_field, params, sidecar={"note": "test", "value": 1.25})
    assert out == path
    u, p, side = read_snapshot(path, expect=params)
    assert u.is_physical
    assert u.grid.n == 16 and u.grid.L == 8.0
    assert np.array_equal(u.values, small_field.values)  # byte-exact, no tolerance
    assert (p.N, p.s, p.gamma) == (params.N, params.s, params.gamma)
    assert side["note"] == "test" and side["value"] == 1.25
    assert side["convention"] == CONVENTION_TAG


def test_snapshot_sidecar_optional(tmp_path, params, small_field):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    sidecar_path(path).unlink()
    _, _, side = read_snapshot(path)
    assert side == {}


def test_snapshot_rejects_fourier_input(tmp_path, params, small_field):
    with pytest.raises(ValueError, match="physical"):
        write_snapshot(tmp_path / "f.bin", to_fourier(small_field), params)


def test_snapshot_bad_magic(tmp_path, params, small_field):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTASNAP"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="magic"):
        read_snapshot(path)


def test_snapshot_truncated_header(tmp_path, params, small_field):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        read_snapshot(path)


def test_snapshot_truncated_payload(tmp_path, params, small_field):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])  # drop the last complex double
    with pytest.raises(SnapshotFormatError, match="payload size"):
        read_snapshot(path)


def test_snapshot_convention_tag_checked(tmp_path, params, small_field):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    raw = bytearray(path.read_bytes())
    tag_off = len(raw) - 16 * small_field.grid.npoints - 64
    raw[tag_off : tag_off + 4] = b"old:"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="convention tag"):
        read_snapshot(path)


def test_snapshot_header_parameters_validated(tmp_path, params, small_field):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    good = path.read_bytes()
    raw = bytearray(good)
    raw[8:12] = (9).to_bytes(4, "little")  # N = 9 is not a supported dimension
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="invalid header"):
        read_snapshot(path)
    for L in (float("nan"), float("inf")):  # the box length sits at bytes 16:24
        raw = bytearray(good)
        raw[16:24] = struct.pack("<d", L)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="invalid header"):
            read_snapshot(path)


_SNAPSHOT_FUZZ = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SNAPSHOT_FUZZ
@given(data=st.data())
def test_truncated_snapshot_is_a_format_error(tmp_path, params, small_field, data):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    raw = path.read_bytes()
    length = data.draw(st.integers(0, len(raw) - 1), label="length")
    path.write_bytes(raw[:length])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


@_SNAPSHOT_FUZZ
@given(bit=st.integers(0, 8 * _HEADER_SIZE - 1))
def test_header_bit_flip_is_caught_or_harmless(tmp_path, params, small_field, bit):
    # a flipped header bit either stops the read with one of the snapshot
    # errors or leaves a header that describes a valid grid and physics
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    raw = bytearray(path.read_bytes())
    raw[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(raw))
    try:
        u, p, _ = read_snapshot(path, expect=params)
    except (SnapshotFormatError, SnapshotMismatchError):
        return
    g = u.grid
    assert all(math.isfinite(x) for x in (g.L, p.s, p.gamma))
    assert make_grid(N=g.N, n=g.n, L=g.L) == g
    assert PhysParams(N=p.N, s=p.s, gamma=p.gamma) == p
    assert u.values.shape == g.shape


def test_snapshot_params_mismatch(tmp_path, params, small_field):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    other = PhysParams(N=2, s=0.6, gamma=1.4)
    with pytest.raises(SnapshotMismatchError, match="expected"):
        read_snapshot(path, expect=other)
    # without expect, the same file loads fine
    _, p, _ = read_snapshot(path)
    assert p.s == params.s
