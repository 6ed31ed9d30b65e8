"""Run configuration: canonical defaults, INI-style files, dotted overrides.

A run is described by five sections — physics, grid, solver, stepper, io —
stored in a plain key/value file readable by configparser.  Every key can
also be overridden on the command line as section.key=value.  The canonical
parameters (N=2, s=0.7, gamma=1.6, n=128, L=32, dt=1e-3) satisfy every
hypothesis of the dichotomy theorem and run at desk scale, so they are the
default; a config file only needs the keys it changes.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .evolution import StepperConfig
from .ground_state import SolverOptions
from .params import PhysParams
from .spectral import CONVENTION_TAG, GridSpec, make_grid


@dataclass(frozen=True)
class IOOptions:
    out_dir: str = "runs"
    snapshot_every: int = 0
    seed: int = 0


_DEFAULTS: dict[str, dict[str, Any]] = {
    "physics": {"N": 2, "s": 0.7, "gamma": 1.6},
    "grid": {"n": 128, "L": 32.0},
    "solver": {"max_iter": 1000, "tol": 1e-12, "seed_width": 1.0},
    "stepper": {
        "dt": 1e-3,
        "t_end": 1.0,
        "record_every": 10,
        "dt_min": 1e-7,
        "blowup_grad_factor": 10.0,
        "tail_fraction_max": 0.1,
        "phase_cap": 0.1,
        "adaptive": True,
        "nonlinear": True,
        "dealias": False,
    },
    "io": {"out_dir": "runs", "snapshot_every": 0, "seed": 0},
}

class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad value, or broken invariant."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one experiment."""

    physics: PhysParams
    grid: GridSpec
    solver: SolverOptions
    stepper: StepperConfig
    io: IOOptions
    experiment: str = ""

    def resolved(self) -> dict:
        """Flat, JSON-ready view of every setting, for embedding in artifacts.

        Each section holds exactly the keys of ``_DEFAULTS``, so every
        ``section.key=value`` of the view is a valid override that
        reproduces this config.
        """
        out: dict[str, Any] = {"experiment": self.experiment, "convention": CONVENTION_TAG}
        for section, keys in _DEFAULTS.items():
            holder = getattr(self, section)
            out[section] = {key: getattr(holder, key) for key in keys}
        return out


def _coerce(section: str, key: str, raw: Any) -> Any:
    try:
        ref = _DEFAULTS[section][key]
    except KeyError:
        raise ConfigError(f"unknown configuration key {section}.{key}") from None
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    if isinstance(ref, bool):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{section}.{key}: cannot parse boolean from {raw!r}")
    if isinstance(ref, int):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{section}.{key}: cannot parse integer from {raw!r}") from None
    if isinstance(ref, float):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{section}.{key}: cannot parse number from {raw!r}") from None
    return text


def load_config(
    path: str | Path | None = None, overrides: list[str] | None = None
) -> RunConfig:
    """Resolve defaults <- file <- dotted overrides into a RunConfig."""
    values = {sec: dict(d) for sec, d in _DEFAULTS.items()}

    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (N vs n, L)
        read = parser.read(str(path))
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for sec in parser.sections():
            if sec not in values:
                raise ConfigError(f"unknown configuration section [{sec}]")
            for key, raw in parser.items(sec):
                values[sec][key] = _coerce(sec, key, raw)

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        sec, key = dotted.split(".", 1)
        if sec not in values:
            raise ConfigError(f"unknown configuration section {sec!r} in override {item!r}")
        values[sec][key] = _coerce(sec, key, raw)

    try:
        physics = PhysParams(
            N=int(values["physics"]["N"]),
            s=float(values["physics"]["s"]),
            gamma=float(values["physics"]["gamma"]),
        )
        grid = make_grid(N=physics.N, n=int(values["grid"]["n"]), L=float(values["grid"]["L"]))
        stepper = StepperConfig(**values["stepper"])
        solver = SolverOptions(
            max_iter=int(values["solver"]["max_iter"]),
            tol=float(values["solver"]["tol"]),
            seed_width=float(values["solver"]["seed_width"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    io = IOOptions(
        out_dir=str(values["io"]["out_dir"]),
        snapshot_every=int(values["io"]["snapshot_every"]),
        seed=int(values["io"]["seed"]),
    )
    if io.snapshot_every < 0:
        raise ConfigError("io.snapshot_every must be >= 0")
    if io.seed < 0:
        raise ConfigError(f"io.seed must be >= 0, got {io.seed}")
    return RunConfig(physics=physics, grid=grid, solver=solver, stepper=stepper, io=io)


@dataclass(frozen=True)
class SweepSpec:
    """Uniform amplitude grid c in [c_lo, c_hi] with k points, applied to u0 = c Q."""

    c_lo: float
    c_hi: float
    k: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_lo) and math.isfinite(self.c_hi)):
            raise ConfigError(f"sweep bounds must be finite, got [{self.c_lo}, {self.c_hi}]")
        if self.c_lo <= 0.0:
            raise ConfigError(f"c_lo must be positive, got {self.c_lo}")
        if self.c_hi < self.c_lo:
            raise ConfigError(f"need c_lo <= c_hi, got [{self.c_lo}, {self.c_hi}]")
        if self.k < 2:
            raise ConfigError(f"sweep needs at least 2 amplitudes, got k={self.k}")

    @property
    def amplitudes(self) -> tuple[float, ...]:
        step = (self.c_hi - self.c_lo) / (self.k - 1)
        return tuple(self.c_lo + i * step for i in range(self.k))
