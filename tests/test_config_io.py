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
from fhartree.spectral import CONVENTION_TAG, MAX_GRID_POINTS, field_from_values, make_grid


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


@pytest.mark.parametrize(
    "override",
    [
        "stepper.t_end=nan",   # evolve would take no step and return a verdict
        "stepper.t_end=inf",
        "stepper.dt=inf",
        "stepper.phase_cap=nan",
        "stepper.blowup_grad_factor=inf",
        "solver.tol=nan",
        "solver.seed_width=nan",
        "solver.seed_width=inf",
        "io.seed=-1",          # np.random.default_rng would reject it mid-run
    ],
)
def test_non_finite_settings_are_config_errors(override):
    with pytest.raises(ConfigError):
        load_config(overrides=[override])


@pytest.mark.parametrize(
    "overrides",
    [
        ["grid.n=1048576"],  # 2^40 points: 16 TiB per complex field
        ["grid.n=8192"],
        ["physics.N=3", "physics.gamma=2.0", "grid.n=512", "grid.kernel_mode=sampled"],
    ],
)
def test_oversized_grid_is_a_config_error(overrides):
    with pytest.raises(ConfigError, match="grid points"):
        load_config(overrides=overrides)


def test_largest_grids_are_accepted():
    assert load_config(overrides=["grid.n=4096"]).grid.npoints == MAX_GRID_POINTS
    cfg = load_config(
        overrides=["physics.N=3", "physics.gamma=2.0", "grid.n=256", "grid.kernel_mode=sampled"]
    )
    assert cfg.grid.npoints == MAX_GRID_POINTS


def test_exact_kernel_is_the_default_in_3d():
    cfg = load_config(overrides=["physics.N=3", "physics.gamma=2.0", "grid.n=16"])
    assert cfg.physics.N == 3
    assert cfg.kernel_mode == "exact"
    cfg = load_config(
        overrides=["physics.N=3", "physics.gamma=2.0", "grid.n=16", "grid.kernel_mode=sampled"]
    )
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


def _text(x: float) -> str:
    return repr(float(x))


_BOOL_TEXT = st.sampled_from(["yes", "no", "true", "false", "on", "off", "1", "0"])


@st.composite
def _valid_overrides(draw) -> list[tuple[str, str, object]]:
    """A valid override list as (dotted key, text, parsed value) triples:
    every key at most once, N=2 and grid.n a small power of two."""
    s = draw(st.floats(0.05, 0.95))
    gamma = draw(st.floats(2.0 * s, min(2.0, 4.0 * s), exclude_min=True, exclude_max=True))
    dt = draw(st.floats(1e-5, 1e-2))
    dt_min = dt * draw(st.floats(1e-3, 1.0))
    floats = {
        "physics.s": s, "physics.gamma": gamma,
        "grid.L": draw(st.floats(1.0, 100.0)),
        "solver.tol": draw(st.floats(1e-15, 1e-3)),
        "solver.seed_width": draw(st.floats(0.1, 10.0)),
        "stepper.dt": dt, "stepper.dt_min": dt_min,
        "stepper.t_end": draw(st.floats(1e-3, 10.0)),
        "stepper.blowup_grad_factor": draw(st.floats(1.01, 100.0)),
        "stepper.tail_fraction_max": draw(st.floats(0.01, 0.99)),
        "stepper.phase_cap": draw(st.floats(1e-3, 1.0)),
    }
    ints = {
        "physics.N": 2,
        "grid.n": draw(st.sampled_from([16, 32, 64])),
        "solver.max_iter": draw(st.integers(1, 10_000)),
        "stepper.record_every": draw(st.integers(1, 100)),
        "io.snapshot_every": draw(st.integers(0, 50)),
        "io.seed": draw(st.integers(0, 2**32 - 1)),
    }
    items = {k: (_text(v), v) for k, v in floats.items()}
    items.update({k: (str(v), v) for k, v in ints.items()})
    for key in ("stepper.adaptive", "stepper.nonlinear", "stepper.dealias"):
        text = draw(_BOOL_TEXT)
        items[key] = (text, text in ("yes", "true", "on", "1"))
    mode = draw(st.sampled_from(["exact", "sampled"]))
    items["grid.kernel_mode"] = (mode, mode)
    out_dir = draw(st.text("abcxyz_-/", min_size=1, max_size=12))
    items["io.out_dir"] = (out_dir, out_dir)
    keys = set(draw(st.lists(st.sampled_from(sorted(items)), unique=True)))
    # s and gamma are drawn as a pair, dt_min under the drawn dt
    if keys & {"physics.s", "physics.gamma"}:
        keys |= {"physics.s", "physics.gamma"}
    if "stepper.dt_min" in keys:
        keys.add("stepper.dt")
    return [(key, *items[key]) for key in draw(st.permutations(sorted(keys)))]


_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])
_FLOAT_KEYS = ("physics.s", "physics.gamma", "grid.L", "solver.tol", "solver.seed_width",
               "stepper.dt", "stepper.t_end", "stepper.dt_min", "stepper.blowup_grad_factor",
               "stepper.tail_fraction_max", "stepper.phase_cap")
_OUT_OF_RANGE = (
    "physics.N=1", "physics.N=4", "physics.s=0", "physics.s=1", "physics.s=-0.5",
    "physics.gamma=0", "physics.gamma=2", "grid.n=8", "grid.n=48", "grid.n=0",
    "grid.L=0", "grid.L=-1", "grid.kernel_mode=fast", "solver.max_iter=0",
    "solver.tol=0", "solver.tol=-1e-12", "solver.seed_width=0", "stepper.dt=0",
    "stepper.dt=-1e-3", "stepper.t_end=0", "stepper.record_every=0", "stepper.dt_min=0",
    "stepper.dt_min=1.0", "stepper.blowup_grad_factor=1", "stepper.tail_fraction_max=0",
    "stepper.tail_fraction_max=1", "stepper.phase_cap=0", "io.snapshot_every=-1",
    "io.seed=-1",
)
_UNPARSABLE = (
    "grid.n=64.0", "grid.n=sixty", "physics.s=0.7.1", "physics.N=two", "stepper.dt=",
    "stepper.adaptive=maybe", "stepper.dealias=2", "io.seed=1e3", "solver.max_iter=1_0_",
)


_KEYS = {section: set(settings) for section, settings in load_config().resolved().items()
         if isinstance(settings, dict)}


def _invalid_override():
    word = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10)
    return st.one_of(
        st.tuples(st.sampled_from(_FLOAT_KEYS), _NON_FINITE).map("=".join),
        st.sampled_from(_OUT_OF_RANGE),
        st.sampled_from(_UNPARSABLE),
        word.filter(lambda sec: sec not in _KEYS).map(lambda sec: f"{sec}.dt=1e-3"),
        st.sampled_from(sorted(_KEYS)).flatmap(
            lambda sec: word.filter(lambda key: key not in _KEYS[sec])
            .map(lambda key: f"{sec}.{key}=1")),
        st.sampled_from(["stepper.dt", "dt=1e-3", "stepper.dt:1e-3", "=1", "."]),
    )


@given(items=_valid_overrides())
def test_valid_overrides_are_applied_and_replay(items):
    cfg = load_config(overrides=[f"{key}={text}" for key, text, _ in items])
    view = cfg.resolved()
    for key, _, value in items:
        section, name = key.split(".")
        assert view[section][name] == value, key
    replay = [f"{section}.{key}={value}"
              for section, settings in view.items() if isinstance(settings, dict)
              for key, value in settings.items()]
    assert load_config(overrides=replay) == cfg


@given(items=_valid_overrides(), bad=_invalid_override())
def test_invalid_override_is_a_config_error(items, bad):
    # the bad item comes last, so no valid item can override it
    with pytest.raises(ConfigError):
        load_config(overrides=[f"{key}={text}" for key, text, _ in items] + [bad])


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
    raw = bytearray(good)
    raw[12:16] = (2**20).to_bytes(4, "little")  # n = 2^20 is over the grid-size cap
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="invalid header.*grid points"):
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


@_SNAPSHOT_FUZZ
@given(data=st.data())
def test_payload_bit_flip_is_a_format_error(tmp_path, params, small_field, data):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    raw = bytearray(path.read_bytes())
    bit = data.draw(st.integers(8 * _HEADER_SIZE, 8 * len(raw) - 1), label="bit")
    raw[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="checksum"):
        read_snapshot(path)


def test_previous_format_is_rejected_by_name(tmp_path, params, small_field):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    raw = path.read_bytes()
    assert raw[:8] == MAGIC == b"FHSNAP02"
    # the previous layout: no checksum field between gamma and the tag
    old = b"FHSNAP01" + raw[8:40] + raw[44:]
    path.write_bytes(old)
    with pytest.raises(SnapshotFormatError, match="FHSNAP01"):
        read_snapshot(path)


def test_snapshot_params_mismatch(tmp_path, params, small_field):
    path = write_snapshot(tmp_path / "field.bin", small_field, params)
    other = PhysParams(N=2, s=0.6, gamma=1.4)
    with pytest.raises(SnapshotMismatchError, match="expected"):
        read_snapshot(path, expect=other)
    # without expect, the same file loads fine
    _, p, _ = read_snapshot(path)
    assert p.s == params.s
