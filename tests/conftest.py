"""Shared fixtures: solved ground states and evolution runs.

Everything expensive is session-scoped and immutable; tests must not mutate
fixture arrays in place.  The canonical configuration (N=2, s=0.7,
gamma=1.6, n=128, L=32, exact kernel) is the workhorse; the finer grids
exist for the tight certification tolerances in the acceptance tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

from fhartree import spectral
from fhartree.evolution import StepperConfig, evolve
from fhartree.ground_state import GroundState, SolverOptions, solve_ground_state
from fhartree.params import PhysParams
from fhartree.spectral import (
    GridSpec,
    MultiplierSet,
    field_from_values,
    make_grid,
    make_multipliers,
)

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@dataclass(frozen=True)
class Setup:
    p: PhysParams
    grid: GridSpec
    mult: MultiplierSet
    gs: GroundState


def force_full_grid(monkeypatch) -> None:
    """Make evolve() and the ground-state solver run on the whole grid
    whatever their input: the detector reports no array mirror-even."""
    monkeypatch.setattr(spectral, "is_mirror_even", lambda values: False)


def force_orthant_path(monkeypatch, path: str) -> None:
    """Make every spectral.Orthant built from here on transform by dense
    cosine products (path "dense") or by FFTs of the mirror extension
    (path "fft"), whatever its size."""
    limit = {"dense": spectral.MAX_GRID_POINTS, "fft": 0}[path]
    monkeypatch.setattr(spectral, "DENSE_MAX_POINTS", limit)


def solve_setup(p: PhysParams, n: int, L: float) -> Setup:
    grid = make_grid(N=p.N, n=n, L=L)
    mult = make_multipliers(grid, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # box-truncation advisory at L=32
        gs = solve_ground_state(p, grid, opts=SolverOptions(), mult=mult)
    return Setup(p=p, grid=grid, mult=mult, gs=gs)


@pytest.fixture(scope="session")
def params() -> PhysParams:
    return PhysParams(N=2, s=0.7, gamma=1.6)


@pytest.fixture(scope="session")
def canonical(params) -> Setup:
    return solve_setup(params, 128, 32.0)


@pytest.fixture(scope="session")
def soliton_run(canonical):
    """Q evolved to t=1 at fixed dt=1e-3."""
    s = canonical
    cfg = StepperConfig(dt=1e-3, t_end=1.0, record_every=10, adaptive=False)
    return evolve(s.gs.q, s.p, s.mult, cfg, gs=s.gs)


@pytest.fixture(scope="session")
def dispersal_run(canonical):
    """0.95*Q to t=4: disperses well past the 50% potential-energy mark."""
    s = canonical
    u0 = field_from_values(s.grid, 0.95 * s.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=4.0, record_every=10)
    return evolve(u0, s.p, s.mult, cfg, gs=s.gs)


@pytest.fixture(scope="session")
def blowup_run(canonical):
    """1.05*Q on the canonical grid: collapses near t=1.1 (the grid gives
    up resolving the concentration well before the factor-10 gradient
    trigger, which the showcase grid below is for)."""
    s = canonical
    u0 = field_from_values(s.grid, 1.05 * s.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=2.0, record_every=10)
    return evolve(u0, s.p, s.mult, cfg, gs=s.gs)


@pytest.fixture(scope="session")
def blowup_showcase(params):
    """1.05*Q on n=512, L=8: high Nyquist so the collapse drives the
    gradient norm past ten times its initial value before the tail check
    refuses."""
    s = solve_setup(params, 512, 8.0)
    u0 = field_from_values(s.grid, 1.05 * s.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=2.0, record_every=10)
    return s, evolve(u0, s.p, s.mult, cfg, gs=s.gs)


@pytest.fixture(scope="session")
def fine(params) -> Setup:
    """n=1024, L=128: box-truncation error pushed to the 1e-6 scale."""
    return solve_setup(params, 1024, 128.0)


@pytest.fixture(scope="session")
def xfine(params) -> Setup:
    """n=2048, L=256: certification grid for the two-route threshold
    identities."""
    return solve_setup(params, 2048, 256.0)


@pytest.fixture(scope="session")
def virial_fd(params):
    """(256, 32) ground state plus a short inside-K1 run with every field
    kept, for finite-difference checks of the localized virial identity.
    n=256 because the quartic aliasing bias of the interaction term at
    n=128 (7.6e-4) would mask the quadrature-level agreement."""
    s = solve_setup(params, 256, 32.0)
    u0 = field_from_values(s.grid, 0.9 * s.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=0.04, record_every=1, snapshot_every=1,
                        adaptive=False)
    return s, evolve(u0, s.p, s.mult, cfg, gs=s.gs)
