"""Conserved quantities, scale-invariant thresholds, and the sharp-inequality functional.

Mass M[u] = ||u||_2^2 and energy E[u] = 1/2 ||u||_{Hs-dot}^2 - 1/4 V(u) with
V(u) = int (W * |u|^2) |u|^2 dx are the two conserved quantities of the flow.
The scale-invariant products M^{(s-s_c)/s_c} E and M^{(s-s_c)/s_c} ||u||^2
decide membership in the two invariant regions K1 (global/dispersing) and
K2 (blow-up) relative to their ground-state values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .params import PhysParams
from .spectral import (
    MultiplierSet,
    SpectralField,
    seam_sobolev_norm,
    step_transform,
)

#: Half-width of the band |grad_ratio - 1| < BOUNDARY_TOL that is the
#: threshold orbit's own (Boundary) and not K1 or K2.
BOUNDARY_TOL = 1e-3


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
    evolve's samples take V, on the orthant for a mirror-even u."""
    return _hartree_energy(step_transform(u.grid, u.values), u, mult)


def _hartree_energy(tr, u: SpectralField, mult: MultiplierSet) -> float:
    v = tr.reduce(u.values)
    rho = v.real**2 + v.imag**2
    weights = tr.pairing_weights(tr.even_spectrum(mult.hartree_kernel_orthant))
    return tr.quadratic_form(weights, rho)


def _hs_and_v(u: SpectralField, s: float, mult: MultiplierSet) -> tuple[float, float]:
    """(||u||_{Hs-dot}, V(u)) on the one seam step_transform picks for u;
    the symbol |xi|^{2s} is tr.frac_lap(mult) when mult is built for s."""
    tr = step_transform(u.grid, u.values)
    symbol = tr.frac_lap(mult) if s == mult.s else tr.xi_sq**s
    return seam_sobolev_norm(tr, u, symbol), _hartree_energy(tr, u, mult)


def energy(u: SpectralField, mult: MultiplierSet) -> float:
    hs, v = _hs_and_v(u, mult.s, mult)
    return 0.5 * hs**2 - 0.25 * v


def invariant_pair(u: SpectralField, p: PhysParams, mult: MultiplierSet) -> InvariantPair:
    m = mass(u)
    if m <= 0.0:
        raise ValueError("invariant_pair undefined for the zero field")
    factor = m**p.mass_power
    hs, v = _hs_and_v(u, p.s, mult)
    return InvariantPair(
        me=factor * (0.5 * hs**2 - 0.25 * v),
        grad=factor * hs**2,
    )


def classify_from_ratios(me_ratio: float, grad_ratio: float) -> SetMembership:
    """Membership verdict from the two precomputed threshold ratios.

    A ratio that is NaN places the state in neither set.  Otherwise the
    boundary band takes precedence: the ground-state orbit itself has
    both ratios equal to 1 and must report Boundary, not Neither.
    """
    if math.isnan(me_ratio) or math.isnan(grad_ratio):
        verdict = "Neither"
    elif abs(grad_ratio - 1.0) < BOUNDARY_TOL:
        verdict = "Boundary"
    elif me_ratio >= 1.0:
        verdict = "Neither"
    elif grad_ratio < 1.0:
        verdict = "K1"
    else:
        verdict = "K2"
    return SetMembership(verdict=verdict, me_ratio=me_ratio, grad_ratio=grad_ratio)


def classify_membership(pair: InvariantPair, gs: ThresholdSource) -> SetMembership:
    return classify_from_ratios(pair.me / gs.me_Q, pair.grad / gs.grad_Q)


def gn_ratio(v: SpectralField, cgn: float, p: PhysParams, mult: MultiplierSet) -> float:
    """V(v) over its sharp upper bound; <= 1 for admissible fields, = 1 at Q."""
    m2 = mass(v)
    if m2 <= 0.0:
        raise ValueError("gn_ratio undefined for the zero field")
    l2 = np.sqrt(m2)
    hs, hartree = _hs_and_v(v, p.s, mult)
    bound = cgn * l2 ** ((4.0 * p.s - p.gamma) / p.s) * hs ** (p.gamma / p.s)
    return hartree / bound


def comparability_check(u: SpectralField, p: PhysParams, mult: MultiplierSet) -> ComparabilityReport:
    """Two-sided comparison of E[u] with ||u||_{Hs-dot}^2 plus the coercivity gap.

    Caller is responsible for u being inside K1; outside it the lower bound
    and the gap may legitimately fail, and the report simply says so.
    """
    hs, v = _hs_and_v(u, p.s, mult)
    g = hs**2
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
