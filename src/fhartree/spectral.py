"""Periodic-box pseudospectral backbone: grids, transforms, multipliers, norms.

Transform convention (single source of truth for the whole package):

    forward   u_hat(xi_k) = h^N * sum_j exp(-i x_j . xi_k) u(x_j)
    inverse   u(x_j)      = L^{-N} * sum_k exp(+i x_j . xi_k) u_hat(xi_k)

which discretizes  u_hat(xi) = int exp(-i x.xi) u dx  and
u(x) = (2pi)^{-N} int exp(+i x.xi) u_hat dxi  on the box [-L/2, L/2)^N with
wavenumbers xi_k = 2 pi k / L, k in {-n/2, ..., n/2-1}.  Under this pairing
Parseval reads  ||u||_2^2 = h^N sum_j |u_j|^2 = w * sum_k |u_hat_k|^2  with
w = parseval_weight(grid) = L^{-N}; every norm in the package goes through
that one function.

Applying a diagonal Fourier multiplier through this convention is exactly
equivalent to ``ifftn(T * fftn(u))`` on the centered-coordinate arrays (the
centering phases cancel), which is what the hot paths use.  A real even
table applied to a real array (the Hartree kernel on a density, the
solver's symbols on its real iterate) goes through the real pair instead:
``_real_multiply(_half(T), f)``; a quadratic form <f, T f> of a real array
is summed on its half spectrum with the weights of ``_half_pairing``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .params import PhysParams

#: Identifies the transform/weight convention in snapshots and JSON artifacts.
CONVENTION_TAG = "fwd:h^N inv:L^-N centered v1"

#: Most grid points a grid may have, n**N: 4096^2 or 256^3.  A complex field
#: on the largest grid takes 256 MiB.
MAX_GRID_POINTS = 2**24


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic centered grid: coordinates x_j in [-L/2, L/2)."""

    N: int
    n: int
    L: float

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.N

    @property
    def npoints(self) -> int:
        return self.n**self.N

    @functools.cached_property
    def x_axis(self) -> np.ndarray:
        """Coordinates along one axis, ascending: -L/2 + j*h."""
        return -0.5 * self.L + self.h * np.arange(self.n)

    @functools.cached_property
    def xi_axis(self) -> np.ndarray:
        """Wavenumbers along one axis in FFT (numpy standard) order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    @functools.cached_property
    def x_mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*([self.x_axis] * self.N), indexing="ij"))

    @functools.cached_property
    def r_mesh(self) -> np.ndarray:
        """Distance to the box center (the minimum-image distance to x=0)."""
        return np.sqrt(sum(x**2 for x in self.x_mesh))

    @functools.cached_property
    def xi_mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*([self.xi_axis] * self.N), indexing="ij"))

    @functools.cached_property
    def xi_sq(self) -> np.ndarray:
        return sum(x**2 for x in self.xi_mesh)

    @property
    def xi_nyquist(self) -> float:
        return np.pi * self.n / self.L


def make_grid(N: int, n: int, L: float) -> GridSpec:
    """Build a GridSpec, rejecting dimensions/sizes outside the supported range."""
    if N not in (2, 3):
        raise ValueError(f"N must be 2 or 3, got {N}")
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 16, got {n}")
    if n**N > MAX_GRID_POINTS:
        raise ValueError(f"n^N = {n}^{N} exceeds the {MAX_GRID_POINTS} grid points supported")
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L}")
    return GridSpec(N=N, n=int(n), L=float(L))


def parseval_weight(grid: GridSpec) -> float:
    """Per-mode weight w with ||u||_2^2 = w * sum_k |u_hat_k|^2 (see module docstring)."""
    return grid.L ** (-grid.N)


@dataclass(frozen=True)
class SpectralField:
    """Complex state on a grid: its physical values u(x_j), in centered order.

    A spectrum is not a field: to_fourier returns it as a plain array, and
    to_physical turns it back into a field.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )


def field_from_values(grid: GridSpec, values: np.ndarray) -> SpectralField:
    return SpectralField(grid=grid, values=np.asarray(values, dtype=np.complex128))


def random_smooth_field(grid: GridSpec, rng: np.random.Generator, n_bumps: int = 3,
                        span: float = 4.0, widths=(0.8, 2.5)) -> np.ndarray:
    """Superposition of a few random complex Gaussians well inside the box."""
    vals = np.zeros(grid.shape, dtype=np.complex128)
    for _ in range(n_bumps):
        x0 = rng.uniform(-span, span, size=grid.N)
        w = rng.uniform(*widths)
        amp = rng.normal() + 1j * rng.normal()
        r_sq = sum((grid.x_mesh[j] - x0[j]) ** 2 for j in range(grid.N))
        vals += amp * np.exp(-r_sq / w**2)
    return vals


def to_fourier(u: SpectralField) -> np.ndarray:
    """The spectrum u_hat(xi_k) of the forward convention, taken on the
    centered coordinates, as a plain array in FFT (numpy standard) order,
    the order of grid.xi_mesh."""
    return u.grid.h**u.grid.N * np.fft.fftn(np.fft.ifftshift(u.values))


def to_physical(grid: GridSpec, hat: np.ndarray) -> SpectralField:
    """The field on grid whose spectrum is hat: the inverse of to_fourier."""
    vals = np.fft.fftshift(np.fft.ifftn(hat)) * (grid.n / grid.L) ** grid.N
    return SpectralField(grid=grid, values=vals)


def apply_multiplier(u: SpectralField, table: np.ndarray) -> SpectralField:
    """Apply a diagonal Fourier multiplier, given in FFT order, to a field.

    Exactly equivalent to to_physical(u.grid, table * to_fourier(u)); the
    centering phases cancel for diagonal tables, so the raw FFT pair is used.
    """
    vals = np.fft.ifftn(table * np.fft.fftn(u.values))
    return SpectralField(grid=u.grid, values=vals)


def _half(table: np.ndarray) -> np.ndarray:
    """Columns [..., :n//2+1] of a real even Fourier table: the half
    spectrum that the real transform pair works on."""
    return table[..., : table.shape[-1] // 2 + 1]


def _rfftn(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Raw real forward transform over every axis of f (no h^N weight),
    into out when given."""
    return np.fft.rfftn(f, axes=tuple(range(f.ndim)), out=out)


def _irfftn(hat: np.ndarray, shape: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of _rfftn back to a real array of the given shape, into out
    when given; hat is left unchanged."""
    return np.fft.irfftn(hat, s=shape, axes=tuple(range(len(shape))), out=out)


def _real_multiply(
    table_half: np.ndarray,
    f: np.ndarray,
    out: np.ndarray | None = None,
    hat: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a real even multiplier, given on the half spectrum, to a real
    array: irfftn(table_half * rfftn(f)) over every axis of f.  The result
    goes into out and the half spectrum into hat when they are given (the
    step loop reuses both)."""
    hat = _rfftn(f, out=hat)
    hat *= table_half
    return _irfftn(hat, f.shape, out=out)


def _half_pairing(grid: GridSpec, table_half: np.ndarray) -> np.ndarray:
    """Weights P on the half spectrum with

        <f, T f> = h^N sum_j f_j (T f)_j = sum P |rfftn(f)|^2

    for a real array f and a real even table T given on the half spectrum.
    P is T times the column weights (1, 2, ..., 2, 1), which count twice the
    columns that stand for their mirror image too, times the Parseval factor
    w h^{2N} of the raw transform (w = parseval_weight(grid))."""
    cols = np.full(grid.n // 2 + 1, 2.0 * parseval_weight(grid) * grid.h ** (2 * grid.N))
    cols[0] *= 0.5
    cols[-1] *= 0.5
    return table_half * cols


# ---------------------------------------------------------------------------
# Hartree kernel construction


class NonRealKernelError(RuntimeError):
    """A kernel table that must be real came out with a significant imaginary part."""


def _riesz_cell_integral(gamma: float, h: float, N: int) -> float:
    """int over the cell [-h/2, h/2]^N of |x|^{-gamma} dx, gamma < N.

    The radial integral is taken exactly, reducing to a smooth surface
    integral over one face of the cell:

        int_cell |x|^{-gamma} dx
            = (2N/(N-gamma)) * a * int_{[-a,a]^{N-1}} (a^2+|y|^2)^{-gamma/2} dy

    with a = h/2, evaluated by fixed-order Gauss-Legendre.
    """
    a = 0.5 * h
    nodes, weights = leggauss(48)
    y = a * nodes  # map [-1,1] -> [-a,a]
    w = a * weights
    if N == 2:
        inner = np.sum(w * (a**2 + y**2) ** (-0.5 * gamma))
    else:
        yy, zz = np.meshgrid(y, y, indexing="ij")
        ww = np.outer(w, w)
        inner = np.sum(ww * (a**2 + yy**2 + zz**2) ** (-0.5 * gamma))
    return (2.0 * N / (N - gamma)) * a * inner


def riesz_cell_average(gamma: float, h: float, N: int) -> float:
    """Cell-averaged value of |x|^{-gamma} over the origin cell."""
    return _riesz_cell_integral(gamma, h, N) / h**N


def sample_riesz_kernel(grid: GridSpec, gamma: float) -> np.ndarray:
    """Grid-sampled kernel K(x) = d(x)^{-gamma} (centered order) with the
    origin value replaced by the cell average."""
    if gamma >= grid.N:
        raise ValueError(f"gamma={gamma} not locally integrable in dimension {grid.N}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    r = grid.r_mesh.copy()
    origin = (grid.n // 2,) * grid.N
    r[origin] = 1.0  # placeholder, overwritten below
    K = r ** (-gamma)
    K[origin] = riesz_cell_average(gamma, grid.h, grid.N)
    return K


def _origin_cell_oscillatory_series(grid: GridSpec, gamma: float, m_max: int) -> np.ndarray:
    """F0(xi) = int over the origin cell of |d|^{-gamma} e^{-i xi.d} dd.

    Expanded as an even power series in xi (odd moments vanish by symmetry);
    each moment reduces to an analytic radial integral over the eight
    triangles of the cell, leaving a smooth angular quadrature.  With
    |xi.d| <= pi on the grid, truncation at m_max=26 is below 1e-13.

    The series is separable: with P[a, b] = (xi_a h/2)^{2b} along one axis
    and C[b1, b2] the moment of order (2 b1, 2 b2) over its factorials (zero
    beyond total order m_max), F0 = P @ C @ P.T.
    """
    half = grid.h / 2.0
    t, w = np.polynomial.legendre.leggauss(48)
    th = (t + 1.0) * (np.pi / 8.0)
    wth = w * (np.pi / 8.0)
    cos_th, sin_th = np.cos(th), np.sin(th)
    orders = np.arange(0, m_max + 1, 2)
    C = np.zeros((orders.size, orders.size))
    for i, b1 in enumerate(orders):
        for j, b2 in enumerate(orders[: orders.size - i]):  # b1 + b2 <= m_max
            q = b1 + b2 + 2 - gamma
            radial = (half / cos_th) ** q / q
            mu = 4.0 * np.sum(
                wth * (cos_th**b1 * sin_th**b2 + cos_th**b2 * sin_th**b1) * radial
            ) / half ** (b1 + b2)
            sign = (-1.0) ** ((b1 + b2) // 2)  # (-i)^m for even m
            C[i, j] = sign * mu / (math.factorial(b1) * math.factorial(b2))
    P = (grid.xi_axis[:, None] * half) ** orders[None, :]
    return P @ C @ P.T


def _hermitian_full(half: np.ndarray) -> np.ndarray:
    """The n x n transform of a real 2-D array from its n x (n/2+1) half
    spectrum, through the Hermitian mirror hat[a, n-j] = conj(hat[-a, j])."""
    n = half.shape[0]
    return np.concatenate([half, np.conj(half[-np.arange(n), n // 2 - 1 : 0 : -1])], axis=1)


def _exact_kernel_hat(grid: GridSpec, gamma: float, nodes: int = 20) -> np.ndarray:
    """Exact Fourier coefficients of the minimum-image kernel function.

    Integrates W_hat(xi) = int_box d(y)^{-gamma} e^{-i xi.y} dy cell by cell:
    per-cell Gauss-Legendre with the oscillatory phase carried exactly
    (at most one oscillation per cell, so the quadrature is spectrally
    accurate), plus the analytic series for the singular origin cell.

    The tensor rule over the cells factors by axis.  For each axis-1 node i
    the axis-2 nodes k are summed after a real FFT along axis 2, each
    weighted by its axis-2 phase; one complex FFT along axis 1 per node i
    then finishes the transform.  Because the kernel samples are real, only
    the n x (n/2+1) half spectrum is accumulated, and the full table is
    rebuilt from the Hermitian mirror hat[a, n-j] = conj(hat[-a, j]).
    Memory stays at a few n^N arrays.

    The Gauss-Legendre nodes come in mirror pairs t_{nodes-1-k} = -t_k
    with equal weights, and the -t table of squared distances is the t
    table with its index reversed, S_{-t}(p) = S_t(-p mod n).  Along axis 2
    the real FFT of the -t_k samples and the -t_k phase are therefore the
    conjugates of the t_k ones, and the pair adds up to w_k Re(P_k F_k);
    along axis 1 the -t_i term is again the conjugate of the t_i term.  So
    the main pass runs over mirror pairs with real accumulators, pair
    weight w per axis, and w/2 for the self-paired middle node (t = 0) of
    an odd rule.

    The grid is square, so the mirror pair (k, i) samples the transpose of
    the (i, k) table, K_ki(p, q) = K_ik(q, p); weights and phases factor
    by axis, so its contribution is the transpose of C_ik.  The main pass
    therefore runs only over the P(P+1)/2 pairs i <= k of the P =
    ceil(nodes/2) mirror pairs (55 at nodes = 20, 36 at 16) and accumulates
    S = sum_{i<k} C_ik + 1/2 sum_i C_ii on the half spectrum; the
    Hermitian mirror expands S to the full grid and the main part is
    S + S^T, formed before the side passes and the origin series are
    added (those carry their own axis pairing).  The pass writes into work
    arrays allocated once per build: the n x n power table, its rfft, the
    real accumulator and the complex axis-1 fft of the accumulator.

    The cells centered on the cut locus |y_j| = L/2 need care: the
    minimum-image distance has a derivative kink at the cell center there,
    which would degrade the Gauss rule to algebraic accuracy.  On those
    cells the per-axis distance is L/2 - |v|, even in the offset v, so the
    integral folds onto the smooth half-cell [0, h/2] with a cosine phase;
    the main pass skips the cut strips and three side passes add them back
    (column strip, row strip, corner cell).
    """
    if grid.N != 2:
        raise NotImplementedError("exact kernel transform is implemented for N=2 only")
    n, L, h = grid.n, grid.L, grid.h
    ax = grid.x_axis
    half = h / 2.0
    c = n // 2  # FFT-order index of the cut cell; the origin cell is index 0
    m = c + 1  # columns of the half spectrum
    t, w = np.polynomial.legendre.leggauss(nodes)
    xi_ax = grid.xi_axis
    # per-node squared distances along one axis, in FFT order
    shifted_sq = [
        np.fft.ifftshift(((ax + half * ti + L / 2.0) % L - L / 2.0) ** 2) for ti in t
    ]
    phases = [np.exp(-1j * xi_ax * (half * ti)) for ti in t]
    # main pass over the unordered pairs i <= k of mirror pairs, see above
    pairs = (nodes + 1) // 2
    pair_w = w[:pairs].copy()
    if nodes % 2:
        pair_w[-1] *= 0.5
    row_w = [pair_w[k] * phases[k][:m] for k in range(pairs)]
    K = np.empty((n, n))  # power table of one node pair
    f = np.empty((n, m), dtype=np.complex128)  # its rfft along axis 2
    acc = np.empty((n, m))  # sum over k of the real parts
    g = np.empty((n, m), dtype=np.complex128)  # fft of acc along axis 1
    hat = np.zeros((n, m))
    for i in range(pairs):
        acc.fill(0.0)
        for k in range(i, pairs):
            np.add.outer(shifted_sq[i], shifted_sq[k], out=K)
            with np.errstate(divide="ignore"):  # 0^-gamma/2 when t_i = t_k = 0
                np.power(K, -0.5 * gamma, out=K)
            K[0, 0] = 0.0  # origin cell: analytic series below
            K[c, :] = 0.0  # cut strips: folded side passes below
            K[:, c] = 0.0
            np.fft.rfft(K, axis=1, out=f)
            f *= row_w[k] if k > i else 0.5 * row_w[k]
            acc += f.real
        np.fft.fft(acc, axis=0, out=g)
        g *= (pair_w[i] * phases[i])[:, None]
        hat += g.real
    del K, f, acc, g
    hat *= h * h
    # the pairs k > i are the transposes of the pairs i < k: hat becomes the
    # half spectrum of S + S^T
    hat += _hermitian_full(hat)[:m].T

    # folded Gauss rule on [0, h/2] against the cosine phase; the leading
    # factor 2 comes from folding the even integrand
    u = half * (t + 1.0) / 2.0
    wu = w * (half / 2.0)
    cos1 = 2.0 * np.cos(np.outer(xi_ax, u)) * wu  # (xi, node)
    # the cut-cell center sits at -L/2, contributing the exact sign (-1)^m
    sgn = np.where(np.rint(xi_ax * L / (2.0 * np.pi)).astype(int) % 2 == 0, 1.0, -1.0)
    a_fold = sgn[:, None] * cos1  # (xi, node): phase x folded weights
    d_cut_sq = (L / 2.0 - u) ** 2

    # column strip (cut cell in axis 1, regular cells in axis 2)
    strip = np.zeros((nodes, n), dtype=np.complex128)
    for k in range(nodes):
        Ks = (d_cut_sq[:, None] + shifted_sq[k][None, :]) ** (-0.5 * gamma)
        Ks[:, c] = 0.0  # corner cell handled separately
        strip += (w[k] * half) * phases[k][None, :] * np.fft.fft(Ks, axis=1)
    hat = hat + a_fold @ strip[:, :m]
    # row strip: the integrand is symmetric under axis swap
    hat += (a_fold[:m] @ strip).T

    # corner cell (cut in both axes), folded in both coordinates
    Kc = (d_cut_sq[:, None] + d_cut_sq[None, :]) ** (-0.5 * gamma)
    hat += a_fold @ Kc @ a_fold[:m].T

    hat += _origin_cell_oscillatory_series(grid, gamma, m_max=26)[:, :m]
    hat = _hermitian_full(hat)
    scale = np.max(np.abs(hat))
    if np.max(np.abs(hat.imag)) > 1e-10 * scale:
        raise NonRealKernelError("Hartree kernel transform is unexpectedly non-real")
    return np.ascontiguousarray(hat.real)


KERNEL_MODES = ("sampled", "exact")


def build_hartree_kernel(
    grid: GridSpec, gamma: float, mode: str = "sampled", nodes: int = 20
) -> np.ndarray:
    """Fourier table W_hat(xi) of the periodic Riesz-type kernel.

    mode="sampled": forward transform (h^N weight) of the grid-sampled
    minimum-image kernel with cell-averaged origin.  Cheap, positive at the
    canonical parameters, but the point sampling of the singularity leaves
    an O(h^{N-gamma}) deficit in quartic functionals (measured -2.5% at
    h=1/4, gamma=1.6).

    mode="exact": exact transform of the same minimum-image kernel function
    (oscillatory cell quadrature + analytic origin cell).  Removes the
    sampling bias entirely; used where integral identities are certified at
    tight tolerance.  N=2 only.  `nodes` sets the per-cell quadrature order
    (build cost grows with nodes^2; 16 and 20 agree to 4.7e-16 relative at
    n=2048, L=256).

    Both tables are real because the kernel is even on the torus.
    """
    if mode == "exact":
        if gamma >= grid.N or gamma <= 0:
            raise ValueError(f"gamma must lie in (0, N), got {gamma}")
        return _exact_kernel_hat(grid, gamma, nodes=nodes)
    if mode != "sampled":
        raise ValueError(f"unknown kernel mode {mode!r}; expected one of {KERNEL_MODES}")
    K = sample_riesz_kernel(grid, gamma)
    hat = grid.h**grid.N * np.fft.fftn(np.fft.ifftshift(K))
    scale = np.max(np.abs(hat))
    if np.max(np.abs(hat.imag)) > 1e-12 * scale:
        raise NonRealKernelError("Hartree kernel transform is unexpectedly non-real")
    return hat.real


@dataclass(frozen=True)
class MultiplierSet:
    """Precomputed Fourier tables for one (grid, s, gamma) combination."""

    grid: GridSpec
    s: float
    gamma: float
    frac_lap_s: np.ndarray
    hartree_kernel_hat: np.ndarray

    @functools.cached_property
    def grad_kernel_hat(self) -> tuple[np.ndarray, ...]:
        """Tables i xi_a W_hat(xi), one per axis; built on first use (only the
        virial diagnostics read them)."""
        return tuple(1j * xi * self.hartree_kernel_hat for xi in self.grid.xi_mesh)

    @property
    def kernel_zero_mode(self) -> float:
        """W_hat(0) = integral of the kernel over the box; sets the phase
        scale of the Hartree potential for order-one densities."""
        return float(self.hartree_kernel_hat[(0,) * self.grid.N])


def make_multipliers(
    grid: GridSpec, p: PhysParams, kernel_mode: str = "sampled", nodes: int = 20
) -> MultiplierSet:
    what = build_hartree_kernel(grid, p.gamma, mode=kernel_mode, nodes=nodes)
    return MultiplierSet(
        grid=grid,
        s=p.s,
        gamma=p.gamma,
        frac_lap_s=grid.xi_sq**p.s,
        hartree_kernel_hat=what,
    )


# ---------------------------------------------------------------------------
# Operators


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
    return _real_multiply(_half(mult.hartree_kernel_hat), rho)


def sobolev_norm(u: SpectralField, alpha: float) -> float:
    """Homogeneous Sobolev seminorm ||u||_{H^alpha-dot}; alpha=0 gives ||u||_2."""
    hat = to_fourier(u)
    w = parseval_weight(u.grid)
    if alpha == 0.0:
        return float(np.sqrt(w * np.sum(hat.real**2 + hat.imag**2)))
    dens = u.grid.xi_sq**alpha * (hat.real**2 + hat.imag**2)
    return float(np.sqrt(w * np.sum(dens)))


def lp_norm(u: SpectralField, p: float) -> float:
    """Discrete (h^N-weighted) Lebesgue norm; p=inf gives the max modulus."""
    mod = np.abs(u.values)
    if np.isinf(p):
        return float(np.max(mod))
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return float((u.grid.h**u.grid.N * np.sum(mod**p)) ** (1.0 / p))


def dealias_mask(grid: GridSpec, fraction: float = 2.0 / 3.0) -> np.ndarray:
    """Boolean mask keeping modes with |xi_a| < fraction * xi_nyquist on every axis."""
    cut = fraction * grid.xi_nyquist
    keep = np.ones(grid.shape, dtype=bool)
    for xi in grid.xi_mesh:
        keep &= np.abs(xi) < cut
    return keep
