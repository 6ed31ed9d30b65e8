"""Conserved quantities, scale-invariant thresholds, and the sharp-inequality functional.

Mass M[u] = ||u||_2^2 and energy E[u] = 1/2 ||u||_{Hs-dot}^2 - 1/4 V(u) with
V(u) = int (W * |u|^2) |u|^2 dx are the two conserved quantities of the flow.
The scale-invariant products M^{(s-s_c)/s_c} E and M^{(s-s_c)/s_c} ||u||^2
decide membership in the two invariant regions K1 (global/dispersing) and
K2 (blow-up) relative to their ground-state values.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .params import PhysParams
from .spectral import (
    FullGrid,
    MultiplierSet,
    SpectralField,
    lp_norm,
    sobolev_norm,
    to_fourier,
)


@dataclass(frozen=True)
class InvariantPair:
    """Scale-invariant mass-energy and mass-gradient products."""

    me: float
    grad: float


@dataclass(frozen=True)
class SetMembership:
    verdict: str  # K1 | K2 | Boundary | Neither
    me_ratio: float
    grad_ratio: float


class ThresholdSource(Protocol):
    """Anything exposing the ground-state threshold invariants."""

    me_Q: float
    grad_Q: float


@dataclass(frozen=True)
class ComparabilityReport:
    """Two-sided energy/gradient comparison plus the coercivity gap.

    lower/upper margins are E - ((gamma-2s)/(2 gamma))*G and (1/2)*G - E with
    G = ||u||_{Hs-dot}^2; the gap is G - (gamma/4s) V(u).  All three are
    nonnegative for fields inside K1.
    """

    hs_sq: float
    energy: float
    lower_margin: float
    upper_margin: float
    coercivity_gap: float
    coercivity_ratio: float

    @property
    def ok(self) -> bool:
        return self.lower_margin >= 0.0 and self.upper_margin >= 0.0 and self.coercivity_gap > 0.0


def mass(u: SpectralField) -> float:
    return float(u.grid.h**u.grid.N * np.sum(u.values.real**2 + u.values.imag**2))


def hartree_energy(u: SpectralField, mult: MultiplierSet) -> float:
    """V(u) = int (W * |u|^2)|u|^2 dx; nonnegative since W_hat >= 0.

    Summed by Parseval on the half spectrum of |u|^2, the code by which
    evolve's samples take V."""
    rho = u.values.real**2 + u.values.imag**2
    tr = FullGrid(u.grid)
    return tr.quadratic_form(tr.pairing_weights(mult.hartree_kernel_hat), rho)


def energy(u: SpectralField, mult: MultiplierSet) -> float:
    return 0.5 * sobolev_norm(u, mult.s) ** 2 - 0.25 * hartree_energy(u, mult)


def invariant_pair(u: SpectralField, p: PhysParams, mult: MultiplierSet) -> InvariantPair:
    m = mass(u)
    if m <= 0.0:
        raise ValueError("invariant_pair undefined for the zero field")
    factor = m**p.mass_power
    return InvariantPair(
        me=factor * energy(u, mult),
        grad=factor * sobolev_norm(u, p.s) ** 2,
    )


def classify_from_ratios(
    me_ratio: float, grad_ratio: float, boundary_tol: float = 1e-3
) -> SetMembership:
    """Membership verdict from the two precomputed threshold ratios.

    The boundary band takes precedence: the ground-state orbit itself has
    both ratios equal to 1 and must report Boundary, not Neither.
    """
    if abs(grad_ratio - 1.0) < boundary_tol:
        verdict = "Boundary"
    elif me_ratio >= 1.0:
        verdict = "Neither"
    elif grad_ratio < 1.0:
        verdict = "K1"
    else:
        verdict = "K2"
    return SetMembership(verdict=verdict, me_ratio=me_ratio, grad_ratio=grad_ratio)


def classify_membership(
    pair: InvariantPair, gs: ThresholdSource, boundary_tol: float = 1e-3
) -> SetMembership:
    return classify_from_ratios(pair.me / gs.me_Q, pair.grad / gs.grad_Q, boundary_tol)


def gn_ratio(v: SpectralField, cgn: float, p: PhysParams, mult: MultiplierSet) -> float:
    """V(v) over its sharp upper bound; <= 1 for admissible fields, = 1 at Q."""
    m2 = mass(v)
    if m2 <= 0.0:
        raise ValueError("gn_ratio undefined for the zero field")
    l2 = np.sqrt(m2)
    hs = sobolev_norm(v, p.s)
    bound = cgn * l2 ** ((4.0 * p.s - p.gamma) / p.s) * hs ** (p.gamma / p.s)
    return hartree_energy(v, mult) / bound


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
    scaled = SpectralField(grid=grid, values=out)
    _warn_if_support_wraps(scaled)
    return scaled


def _warn_if_support_wraps(u: SpectralField, level: float = 1e-8, frac: float = 0.8) -> None:
    mod = np.abs(u.values)
    peak = mod.max()
    if peak == 0.0:
        return
    supported = mod > level * peak
    if supported.any():
        r_support = float(u.grid.r_mesh[supported].max())
        if r_support > frac * 0.5 * u.grid.L:
            warnings.warn(
                f"field support radius {r_support:.2f} exceeds {frac:.0%} of the box radius; "
                "periodic wrap-around may contaminate scaled/weighted quantities",
                stacklevel=3,
            )


def comparability_check(u: SpectralField, p: PhysParams, mult: MultiplierSet) -> ComparabilityReport:
    """Two-sided comparison of E[u] with ||u||_{Hs-dot}^2 plus the coercivity gap.

    Caller is responsible for u being inside K1; outside it the lower bound
    and the gap may legitimately fail, and the report simply says so.
    """
    g = sobolev_norm(u, p.s) ** 2
    v = hartree_energy(u, mult)
    e = 0.5 * g - 0.25 * v
    lower = e - (p.gamma - 2.0 * p.s) / (2.0 * p.gamma) * g
    upper = 0.5 * g - e
    gap = g - p.gamma / (4.0 * p.s) * v
    return ComparabilityReport(
        hs_sq=g,
        energy=e,
        lower_margin=lower,
        upper_margin=upper,
        coercivity_gap=gap,
        coercivity_ratio=gap / g if g > 0 else 0.0,
    )


def critical_norms(u: SpectralField, p: PhysParams) -> tuple[float, float]:
    """(||u||_{H^{s_c}-dot}, ||u||_{L^{p_c}}), the two scale-invariant norms."""
    return sobolev_norm(u, p.s_c), lp_norm(u, p.p_c)
