"""Independent reference computations for the test suite.

Everything here is deliberately low-tech so it shares no code path with the
package: explicit index loops and np.roll for the periodic double sums,
scipy quadrature of radial integrals for the continuum quantities, closed
forms where they exist.  No FFTs anywhere, except the one explicit fftn
that turns the loop-built sampled kernel into a multiplier table.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.integrate import quad
from scipy.special import j0

from fhartree.params import PhysParams
from fhartree.spectral import GridSpec, MultiplierSet, make_multipliers


# ---------------------------------------------------------------------------
# periodic Riesz kernel, rebuilt from its definition


def riesz_origin_average(gamma: float, h: float) -> float:
    """Average of |x|^{-gamma} over the square cell [-h/2, h/2]^2.

    Polar reduction: the cell splits into 8 congruent triangles, each with
    analytic radial integral, leaving one smooth 1-D quadrature in theta.
    """
    inner, _ = quad(lambda th: np.cos(th) ** (gamma - 2.0), 0.0, np.pi / 4.0)
    return 8.0 * (h / 2.0) ** (2.0 - gamma) / (h**2 * (2.0 - gamma)) * inner


def sampled_kernel(n: int, L: float, gamma: float) -> np.ndarray:
    """Centered-order kernel samples |x|^{-gamma}, origin replaced by the
    cell average, built with plain loops."""
    h = L / n
    axis = [(-n // 2 + i) * h for i in range(n)]
    K = np.empty((n, n))
    for i, xi in enumerate(axis):
        for j, xj in enumerate(axis):
            r = np.hypot(xi, xj)
            K[i, j] = riesz_origin_average(gamma, h) if r == 0.0 else r ** (-gamma)
    return K


def sampled_multipliers(grid: GridSpec, p: PhysParams) -> MultiplierSet:
    """The tables of (grid, p) in 2-D with the Hartree kernel replaced by the
    forward transform (h^2 weight) of sampled_kernel, made exactly even
    axis by axis: the grid-sampled discretization, whose convolution the
    double sums below rebuild literally."""
    K = sampled_kernel(grid.n, grid.L, p.gamma)
    table = (grid.h**2 * np.fft.fftn(np.fft.ifftshift(K))).real
    for axis in range(2):
        table = 0.5 * (table + np.roll(np.flip(table, axis), 1, axis))
    return dataclasses.replace(make_multipliers(grid, p), hartree_kernel_hat=table)


def direct_potential(rho: np.ndarray, kernel_centered: np.ndarray, h: float) -> np.ndarray:
    """Periodic convolution h^2 sum_j K(x_i - x_j) rho_j as a literal double
    sum (one np.roll per source point; O(n^4) work)."""
    n = rho.shape[0]
    # shift the centered kernel so index d holds K at displacement d*h
    K0 = np.roll(kernel_centered, (-(n // 2), -(n // 2)), axis=(0, 1))
    out = np.zeros_like(rho, dtype=float)
    for j1 in range(n):
        for j2 in range(n):
            out += rho[j1, j2] * np.roll(K0, (j1, j2), axis=(0, 1))
    return h**2 * out


def direct_quartic(rho: np.ndarray, kernel_centered: np.ndarray, h: float) -> float:
    """h^4 sum_ij K(x_i - x_j) rho_i rho_j."""
    return float(h**2 * np.sum(direct_potential(rho, kernel_centered, h) * rho))


def exact_kernel_coefficient(L: float, gamma: float, k1: float, k2: float) -> float:
    """Fourier coefficient int_box |x|^{-gamma} e^{-i k.x} dx of the
    minimum-image kernel, by polar quadrature over one quadrant (the odd
    parts cancel, so the integrand is cos*cos and the quadrant integral is a
    quarter of the whole).  The radial factor r^{1-gamma} goes in as a
    QUADPACK algebraic weight so the corner singularity costs no accuracy."""

    def inner(th: float) -> float:
        radius = (L / 2.0) / max(np.cos(th), np.sin(th))
        val, _ = quad(
            lambda r: np.cos(k1 * r * np.cos(th)) * np.cos(k2 * r * np.sin(th)),
            0.0,
            radius,
            weight="alg",
            wvar=(1.0 - gamma, 0.0),
            limit=200,
        )
        return val

    val, _ = quad(inner, 0.0, np.pi / 2.0, limit=200, epsabs=1e-13, epsrel=1e-13)
    return 4.0 * val


def exact_kernel_coefficient_3d(L: float, gamma: float, k: tuple[float, float, float]) -> float:
    """Fourier coefficient int_box |x|^{-gamma} e^{-i k.x} dx of the 3-D
    minimum-image kernel, by spherical quadrature over one octant (an eighth
    of the whole, the odd parts cancelling).  The radial factor r^{2-gamma}
    goes in as a QUADPACK algebraic weight; the polar and azimuthal
    integrals are split where the cube's radius a/max(sin th cos ph,
    sin th sin ph, cos th) has its kinks, at ph = pi/4 and at
    tan th = 1/max(cos ph, sin ph)."""
    a = L / 2.0
    k1, k2, k3 = k

    def radial(th: float, ph: float) -> float:
        d1, d2, d3 = np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)
        val, _ = quad(
            lambda r: np.cos(k1 * r * d1) * np.cos(k2 * r * d2) * np.cos(k3 * r * d3),
            0.0,
            a / max(d1, d2, d3),
            weight="alg",
            wvar=(2.0 - gamma, 0.0),
            limit=200,
        )
        return val * np.sin(th)

    def polar(ph: float) -> float:
        kink = np.arctan(1.0 / max(np.cos(ph), np.sin(ph)))
        tol = dict(limit=200, epsabs=1e-13, epsrel=1e-13)
        return (quad(radial, 0.0, kink, args=(ph,), **tol)[0]
                + quad(radial, kink, np.pi / 2.0, args=(ph,), **tol)[0])

    tol = dict(limit=200, epsabs=1e-12, epsrel=1e-12)
    val = quad(polar, 0.0, np.pi / 4.0, **tol)[0] + quad(polar, np.pi / 4.0, np.pi / 2.0, **tol)[0]
    return 8.0 * val


# ---------------------------------------------------------------------------
# continuum references on Gaussians (2-D, radial quadrature)


def gaussian_mass(amp: float, w: float) -> float:
    """int |amp exp(-r^2/w^2)|^2 dx."""
    return amp**2 * np.pi * w**2 / 2.0


def gaussian_hs_sq(alpha: float, w: float) -> float:
    """Squared homogeneous Sobolev norm of exp(-r^2/w^2): with
    uhat(k) = pi w^2 exp(-k^2 w^2/4), the norm is
    (2pi)^{-2} int |k|^{2 alpha} |uhat|^2 dk reduced to a radial integral."""
    val, _ = quad(
        lambda k: k ** (2.0 * alpha + 1.0)
        * (np.pi * w**2 * np.exp(-(k**2) * w**2 / 4.0)) ** 2,
        0.0,
        np.inf,
        limit=200,
    )
    return val / (2.0 * np.pi)


def gaussian_fraclap(s: float, w: float, r: float, k_max: float = 80.0) -> float:
    """(-Laplace)^s exp(-r^2/w^2) at radius r via the radial (Hankel) form
    (2pi)^{-1} int_0^inf k^{2s+1} uhat(k) J0(k r) dk."""
    val, _ = quad(
        lambda k: k ** (2.0 * s + 1.0)
        * np.pi
        * w**2
        * np.exp(-(k**2) * w**2 / 4.0)
        * j0(k * r),
        0.0,
        k_max,
        limit=400,
    )
    return val / (2.0 * np.pi)


def balakrishnan_scalar(q: float, s: float) -> float:
    """Closed form of int_0^inf m^s q/(q+m)^2 dm for 0<s<1."""
    return q**s * np.pi * s / np.sin(np.pi * s)


def gaussian_weighted_virial(s: float, w: float) -> float:
    """Continuum sum_j ||x_j u||_{H^{1-s}-dot}^2 for u = exp(-r^2/w^2) in 2-D.

    F[x_j u] = -i pi w^4 xi_j / 2 * exp(-|xi|^2 w^2 / 4); summing j gives the
    radial integral (pi w^8 / 8) int_0^inf k^{5-2s} e^{-k^2 w^2 / 2} dk.
    """
    val, _ = quad(lambda k: k ** (5.0 - 2.0 * s) * np.exp(-(k**2) * w**2 / 2.0),
                  0.0, np.inf, limit=200)
    return np.pi * w**8 / 8.0 * val
