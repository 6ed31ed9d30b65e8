"""Whole-grid reference operators that tests of the package compare against.

No command and no public function of ``fhartree`` runs these; the tests
use them as the plain, one-formula version of what the package computes
another way: the free flow and the Hartree potential by the complex pair
on the whole grid, one Strang step as a field-in, field-out map, the
localized virial M_R, the Pohozaev residuals through the public
functionals, the default seed on the whole grid, and the critical
rescaling by trigonometric interpolation.  They take their transforms
from the package's seam (``FullGrid``, ``step_transform``) and reuse its
private step and sum helpers, so they are not ``oracles``: that module
shares no code path with the package and uses no FFT.
"""

from __future__ import annotations

import numpy as np

from fhartree.diagnostics import CutoffPhi, _weighted_sum
from fhartree.evolution import _half_step_phase, _StepWork, _strang, _to_boundary
from fhartree.functionals import hartree_energy, mass
from fhartree.ground_state import _pohozaev, _seed_values
from fhartree.params import PhysParams
from fhartree.spectral import (
    FullGrid,
    GridSpec,
    MultiplierSet,
    SpectralField,
    field_from_values,
    sobolev_norm,
    step_transform,
    to_fourier,
)

# ---------------------------------------------------------------------------
# spectral operators on the whole grid


def apply_multiplier(u: SpectralField, table: np.ndarray) -> SpectralField:
    """Apply a diagonal Fourier multiplier, given in FFT order, to a field.

    Exactly equivalent to to_physical(u.grid, table * to_fourier(u)); the
    centering phases cancel for diagonal tables, so the raw FFT pair is used.
    """
    tr = FullGrid(u.grid)
    vals = tr.ifft(table * tr.fft(u.values))
    return SpectralField(grid=u.grid, values=vals)


def fractional_laplacian(u: SpectralField, alpha: float) -> SpectralField:
    """(-Delta)^alpha u through the |xi|^{2 alpha} multiplier, 0 <= alpha <= 2."""
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must lie in [0, 2], got {alpha}")
    if alpha == 0.0:
        return u
    return apply_multiplier(u, u.grid.xi_sq**alpha)


def linear_propagator(u: SpectralField, t: float, s: float) -> SpectralField:
    """Free evolution exp(-i t (-Delta)^s) u; preserves every |u_hat(xi)|."""
    return apply_multiplier(u, np.exp(-1j * t * u.grid.xi_sq**s))


def hartree_potential(u: SpectralField, mult: MultiplierSet) -> np.ndarray:
    """The convolution factor W * |u|^2 on u's grid, a real array (the kernel
    table is real and even)."""
    rho = u.values.real**2 + u.values.imag**2
    tr = FullGrid(u.grid)
    return tr.real_multiply(tr.spectrum_table(mult.hartree_kernel_hat), rho)


def lp_norm(u: SpectralField, p: float) -> float:
    """Discrete (h^N-weighted) Lebesgue norm; p=inf gives the max modulus."""
    mod = np.abs(u.values)
    if np.isinf(p):
        return float(np.max(mod))
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return float((u.grid.h**u.grid.N * np.sum(mod**p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# one step of the integrator


def strang_step(
    u: SpectralField,
    mult: MultiplierSet,
    dt: float,
    nonlinear: bool = True,
    mask: np.ndarray | None = None,
) -> SpectralField:
    """One Strang step: half free flow, full Hartree phase, half free flow.

    A thin wrapper of the step evolve() runs, on the transforms evolve()
    would choose for u: it transforms u once and returns the field at the
    end of the step.  dt may be negative (the reversibility tests step
    back).  With mask given, both linear substeps project onto the
    retained modes (this breaks exact mass conservation).
    """
    tr = step_transform(u.grid, u.values)
    half = _half_step_phase(tr.restrict(mult.frac_lap_s), dt)
    what_s = tr.spectrum_table(mult.hartree_kernel_hat)
    mask = None if mask is None else tr.restrict(mask)
    work = _StepWork(tr)
    hat = tr.fft(tr.reduce(u.values))
    _strang(hat, half, what_s, dt, nonlinear, mask, work)
    return SpectralField(grid=u.grid, values=tr.expand(_to_boundary(hat, half, mask, work)))


# ---------------------------------------------------------------------------
# virial and certificate quantities


def localized_virial(u: SpectralField, phi: CutoffPhi) -> float:
    """M_R = 2 Im int conj(u) grad(phi_R) . grad(u) dx (zero for real u).

    With u = a + i b, Im(conj(u) d_j u) = a d_j b - b d_j a, so the two
    real parts go through the real pair, with the derivative of the
    trigonometric interpolant (grid.deriv_mesh); a mirror-even u runs on
    the orthant, where each derivative and phi.grad are odd along their
    axis and their product is even."""
    if u.grid != phi.grid:
        raise ValueError("field and cutoff live on different grids")
    grid = u.grid
    tr = step_transform(grid, u.values)
    v = tr.reduce(u.values)
    a, b = np.ascontiguousarray(v.real), np.ascontiguousarray(v.imag)
    a_hat, b_hat = tr.rfft(a), tr.rfft(b)
    acc = 0.0
    for axis, (xi, g) in enumerate(zip(grid.deriv_mesh, phi.grad)):
        xi = tr.spectrum_table(xi)
        w = tr.point_weights(g)
        acc += _weighted_sum(w, a, tr.irfft_odd(xi * b_hat, axis))
        acc -= _weighted_sum(w, b, tr.irfft_odd(xi * a_hat, axis))
    return 2.0 * grid.h**grid.N * acc


def pohozaev_residuals(
    q: SpectralField, p: PhysParams, mult: MultiplierSet
) -> tuple[float, float]:
    """Residuals of the two integral identities any profile solution satisfies.

    r1 normalizes  G + M - V  and r2 normalizes
    ((N-2s)/2) G + (N/2) M - ((2N-gamma)/4) V  by G = ||q||_{Hs-dot}^2,
    each taken by the public functionals.
    """
    return _pohozaev(sobolev_norm(q, p.s) ** 2, mass(q), hartree_energy(q, mult), p)


def default_seed(grid: GridSpec, width: float = 1.0) -> SpectralField:
    """The solver's default seed exp(-|x|^2 / width^2) on the whole grid."""
    return field_from_values(grid, _seed_values(grid.r_mesh, width))


# ---------------------------------------------------------------------------
# scaling map


def scale_solution(u: SpectralField, lam: float, p: PhysParams) -> SpectralField:
    """Critical rescaling lam^{(N-gamma+2s)/2} u(lam x) by trigonometric interpolation.

    Evaluates the Fourier interpolant of u at the points lam*x_j, one
    separable synthesis matrix per axis, then applies the amplitude
    prefactor.  Leaves the L^{p_c} and H^{s_c}-dot norms invariant up to
    interpolation error for well-resolved, box-contained fields.
    """
    if not 0.25 <= lam <= 4.0:
        raise ValueError(f"lambda must lie in [1/4, 4], got {lam}")
    grid = u.grid
    hat = to_fourier(u)
    # synthesis matrix E[j, k] = exp(i lam x_j xi_k), one axis at a time.
    # The interpolant is L-periodic, so for lam > 1 the points lam*x_j that
    # leave [-L/2, L/2) would wrap onto ghost copies of the compressed
    # profile; zero those rows instead (the true field is ~0 out there).
    E = np.exp(1j * lam * np.outer(grid.x_axis, grid.xi_axis))
    inside = (lam * grid.x_axis >= -0.5 * grid.L) & (lam * grid.x_axis < 0.5 * grid.L)
    E[~inside, :] = 0.0
    out = hat
    for axis in range(grid.N):
        out = np.moveaxis(np.tensordot(E, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    out = out * (grid.L ** (-grid.N) * lam ** (0.5 * (grid.N - p.gamma + 2.0 * p.s)))
    return SpectralField(grid=grid, values=out)
