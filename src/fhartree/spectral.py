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

Every transform of the package goes through one seam with two
implementations, ``FullGrid`` and ``Orthant``.  Both offer the complex
pair (``fft``/``ifft``), the real pair (``rfft``/``irfft``), the Hartree
kernel or a solver symbol on a real array (``real_multiply`` with a
``spectrum_table``), and quadratic forms <f, T f> summed on the spectrum
with Parseval weights (``spectrum_weights``, ``pairing_weights``,
``quadratic_form``).  ``FullGrid`` works on the whole grid: numpy's
n-dimensional pair, and for a real array the real pair on the half
spectrum, columns [..., :n//2+1].  A diagonal multiplier applied through
the convention above is exactly ``ifft(T * fft(u))`` on the
centered-coordinate arrays (the centering phases cancel).  ``Orthant``
runs a state that is mirror-even in every axis on the (n/2+1)^N points
x >= 0, origin first, with weighted sums.  A small orthant transforms by
one dense cosine product per axis (a BLAS matrix product), a large one by
1-D FFTs of the mirror extension along each axis.  The step loop of
``evolution`` and the ground-state solver take their seam from
``step_transform``, the orthant when their states allow it; every other
layer builds ``FullGrid(grid)``.
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
    """Superposition of a few random complex Gaussians well inside the box.

    Each bump exp(-|x - x0|^2 / w^2) is the outer product of one 1-D
    Gaussian per axis, so the exponential is taken on n points per axis,
    not on the whole mesh."""
    vals = np.zeros(grid.shape, dtype=np.complex128)
    for _ in range(n_bumps):
        x0 = rng.uniform(-span, span, size=grid.N)
        w = rng.uniform(*widths)
        amp = rng.normal() + 1j * rng.normal()
        bump = amp * np.exp(-((grid.x_axis - x0[0]) ** 2) / w**2)
        for j in range(1, grid.N):
            bump = np.multiply.outer(bump, np.exp(-((grid.x_axis - x0[j]) ** 2) / w**2))
        vals += bump
    return vals


def to_fourier(u: SpectralField) -> np.ndarray:
    """The spectrum u_hat(xi_k) of the forward convention, taken on the
    centered coordinates, as a plain array in FFT (numpy standard) order,
    the order of grid.xi_mesh."""
    return u.grid.h**u.grid.N * FullGrid(u.grid).fft(np.fft.ifftshift(u.values))


def to_physical(grid: GridSpec, hat: np.ndarray) -> SpectralField:
    """The field on grid whose spectrum is hat: the inverse of to_fourier."""
    vals = np.fft.fftshift(FullGrid(grid).ifft(hat)) * (grid.n / grid.L) ** grid.N
    return SpectralField(grid=grid, values=vals)


def apply_multiplier(u: SpectralField, table: np.ndarray) -> SpectralField:
    """Apply a diagonal Fourier multiplier, given in FFT order, to a field.

    Exactly equivalent to to_physical(u.grid, table * to_fourier(u)); the
    centering phases cancel for diagonal tables, so the raw FFT pair is used.
    """
    tr = FullGrid(u.grid)
    vals = tr.ifft(table * tr.fft(u.values))
    return SpectralField(grid=u.grid, values=vals)


# ---------------------------------------------------------------------------
# The transform seam

#: A state is mirror-even when it differs from its mirror image in each axis
#: by at most this many ulp of its peak modulus.
MIRROR_EVEN_ULPS = 64


def is_mirror_even(values: np.ndarray) -> bool:
    """Whether a centered array equals its mirror image x -> -x in every
    axis to within MIRROR_EVEN_ULPS ulp of max|values|.  Along an axis,
    index 0 (x = -L/2, which is also L/2 on the torus) is its own image
    and indices 1..n-1 mirror onto themselves reversed.  False when a value
    is not finite."""
    tol = MIRROR_EVEN_ULPS * np.finfo(np.float64).eps * np.max(np.abs(values))
    for axis in range(values.ndim):
        inner = values[(slice(None),) * axis + (slice(1, None),)]
        if not np.max(np.abs(inner - np.flip(inner, axis))) <= tol:
            return False
    return True


class FullGrid:
    """Every layer's transforms on the whole grid, in centered order:
    numpy's n-dimensional complex pair, the real pair on the half spectrum,
    and plain sums."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.shape = grid.shape

    def reduce(self, values: np.ndarray) -> np.ndarray:
        """The working array of a centered array: the array itself."""
        return values

    def expand(self, a: np.ndarray) -> np.ndarray:
        """A centered copy of a working array."""
        return a.copy()

    def restrict(self, table: np.ndarray) -> np.ndarray:
        """A table in FFT order, as the working spectrum is indexed."""
        return table

    def spectrum_table(self, table: np.ndarray) -> np.ndarray:
        """A table in FFT order as it multiplies an rfft spectrum: columns
        [..., :n//2+1], the half spectrum that the real pair works on."""
        return table[..., : self.grid.n // 2 + 1]

    def real_spectrum(self) -> np.ndarray:
        """An empty array for the spectrum of the real transform."""
        return np.empty(self.shape[:-1] + (self.grid.n // 2 + 1,), dtype=np.complex128)

    def rfft(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The raw real forward transform rfftn over every axis of f (no h^N
        weight), into out when given."""
        return np.fft.rfftn(f, axes=tuple(range(f.ndim)), out=out)

    def irfft(self, hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The real array whose rfft is hat: irfftn; hat is left unchanged."""
        return np.fft.irfftn(hat, s=self.shape, axes=tuple(range(len(self.shape))), out=out)

    def fft(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.fftn(a, out=out)

    def ifft(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.ifftn(a, out=out)

    def real_multiply(self, table_s: np.ndarray, f: np.ndarray, out: np.ndarray | None = None,
                      hat: np.ndarray | None = None) -> np.ndarray:
        """The real even multiplier spectrum_table(T) applied to a real
        array: irfft(table_s * rfft(f)).  The result goes into out and the
        spectrum into hat when they are given (the step loop reuses both)."""
        hat = self.rfft(f, out=hat)
        hat *= table_s
        return self.irfft(hat, out=out)

    def spectrum_weights(self, table_s: np.ndarray) -> np.ndarray:
        """Weights P on the half spectrum with

            <f, T f> = h^N sum_j f_j (T f)_j = sum P |rfft(f)|^2

        for a real array f and a real even table T given as
        spectrum_table(T).  P is T times the column weights (1, 2, ..., 2,
        1), which count twice the columns that stand for their mirror image
        too, times the Parseval factor w h^{2N} of the raw transform
        (w = parseval_weight(grid))."""
        grid = self.grid
        cols = np.full(grid.n // 2 + 1, 2.0 * parseval_weight(grid) * grid.h ** (2 * grid.N))
        cols[0] *= 0.5
        cols[-1] *= 0.5
        return table_s * cols

    def pairing_weights(self, table: np.ndarray) -> np.ndarray:
        """The weights of quadratic_form for a real even table T: those of
        spectrum_weights, each repeated for the real and the imaginary part
        of its mode."""
        return np.repeat(self.spectrum_weights(self.spectrum_table(table)), 2, axis=-1)

    def quadratic_form(self, weights: np.ndarray, f: np.ndarray,
                       hat: np.ndarray | None = None) -> float:
        """<f, T f> = sum P |rfft(f)|^2 of a real array, for weights =
        pairing_weights(T); the spectrum goes into hat when given.  One
        forward transform and one einsum pass over the float view of the
        spectrum: no inverse transform and no product temporary.  The float
        view needs a C-ordered spectrum, which a strided f (a rescaled
        field) does not give."""
        flat = np.ascontiguousarray(self.rfft(f, out=hat)).view(np.float64)
        return float(np.einsum("i,i,i->", weights.ravel(), flat.ravel(), flat.ravel()))

    def total(self, x: np.ndarray) -> float:
        """The sum of a real array over the grid."""
        return float(np.sum(x))

    def pairwise_total(self, x: np.ndarray) -> float:
        """total, summed pairwise (np.sum) on either path: the certificate's
        scalars need its O(log n) rounding, not einsum's running sum."""
        return float(np.sum(x))

    def sum_weights(self, table: np.ndarray) -> np.ndarray:
        """Flat weights w with w . x.ravel() = sum of table * x over the grid."""
        return table.astype(np.float64).ravel()

    def norm_sq(self, z: np.ndarray) -> float:
        """The sum of |z|^2 over the grid of a real or complex array, in
        one einsum pass over its float view, with no temporary."""
        flat = z.view(np.float64).ravel()
        return float(np.einsum("i,i->", flat, flat))


#: Orthants of at most this many points per axis, m = n/2+1, transform by
#: dense cosine products (Orthant._dense), larger ones by FFTs of the
#: mirror extension.  Both make N passes over m^(N-1) lines, so the bound
#: is on m alone.  One transform, FFT -> dense, DCT-I and complex (best of
#: 15; 2-core VM, numpy 2.4 pocketfft, single-threaded OpenBLAS):
#:   N=2, m=65:  53 -> 23 us and 74 -> 40 us;
#:   N=2, m=129: 177 -> 163 us and 288 -> 292 us;
#:   N=2, m=257: 963 -> 1115 us and 1467 -> 2216 us;
#:   N=3, m=33:  683 -> 194 us and 885 -> 378 us;
#:   N=3, m=129: 104 -> 39 ms and 109 -> 70 ms.
DENSE_MAX_POINTS = 129


def _cosine_matrix(n: int) -> np.ndarray:
    """C[k, j] = w_j cos(pi (jk mod n) / (n/2)) on j, k = 0..n/2, with the
    multiplicities w = (1, 2, ..., 2, 1): C @ a is the 1-D DFT of the
    mirror extension (a_0, ..., a_{n/2}, a_{n/2-1}, ..., a_1) at k = 0..n/2.
    The reduction mod n keeps the cosine's argument in [0, 2 pi)."""
    m = n // 2 + 1
    j = np.arange(m)
    c = np.cos(np.pi / (n // 2) * (np.outer(j, j) % n))
    c[:, 1:-1] *= 2.0
    return c


class Orthant:
    """The seam's transforms for mirror-even states (is_mirror_even):
    the orthant of m = n/2+1 points x_k = k h, k = 0..n/2, on each axis,
    origin first, stands for the whole grid.

    Along an axis, the mirror extension (a_0, ..., a_{n/2}, a_{n/2-1}, ...,
    a_1) of orthant values is even, and so is its transform, so the first
    n/2+1 outputs of a 1-D transform of the extension are the orthant of
    the n-dimensional transform.  For its real part that is the DCT-I.  An
    orthant of at most DENSE_MAX_POINTS points per axis applies the m x m
    matrix _cosine_matrix(n) along each axis, one BLAS product per axis
    (_dense); a larger one takes np.fft.fft/ifft of the extension for the
    complex pair and the real part of its rfft for the real transform.
    The inverse of an even sequence's transform is the transform divided
    by n, so ifft is the same product with the matrix divided by n.  The
    real transform (rfft), applied twice, is n^N times the identity on the
    orthant, so its spectrum is a real (n/2+1)^N array, and irfft is rfft
    times n^{-N}, a power of two.  real_multiply runs rfft, the product
    and irfft, as FullGrid's does.  A sum over the grid weighs each orthant point by the
    number of grid points it stands for: the product over axes of 1 at
    k = 0 and k = n/2 and 2 between.  Only the work arrays of the path
    taken are allocated, and reused from call to call.
    """

    def __init__(self, grid: GridSpec):
        n, N = grid.n, grid.N
        m = n // 2 + 1
        self.grid = grid
        self.shape = (m,) * N
        self._scale = float(n) ** -N
        # orthant index of each centered index, and centered index of each
        # orthant index
        self._to_full = np.abs(np.arange(n) - n // 2)
        self._to_orthant = (np.arange(m) + n // 2) % n
        count = np.full(m, 2.0)
        count[0] = count[-1] = 1.0
        mult = count
        for _ in range(N - 1):
            mult = np.multiply.outer(mult, count)
        self._mult = mult
        self._mult_2 = np.repeat(mult.ravel(), 2)  # for the float view of a complex array
        self.dense = m <= DENSE_MAX_POINTS
        if self.dense:
            self._cos = _cosine_matrix(n)
            self._inverse = self._cos / n  # exact: n is a power of two
            self._turn = tuple(range(1, N)) + (0,)
            # the product and its turned copy, with room for a complex array
            self._work = (np.empty(2 * m**N), np.empty(2 * m**N))
            return
        self._axes = []
        for axis in range(N):
            ext = (m,) * axis + (n,) + (m,) * (N - 1 - axis)
            lead = (slice(None),) * axis
            self._axes.append((
                np.empty(ext, dtype=np.complex128),
                np.empty(ext),
                np.empty(self.shape, dtype=np.complex128),
                lead + (slice(0, m),),
                lead + (slice(m, None),),
                lead + (slice(m - 2, 0, -1),),
            ))

    def reduce(self, values: np.ndarray) -> np.ndarray:
        """The orthant of a centered mirror-even array, origin first."""
        return values[np.ix_(*([self._to_orthant] * self.grid.N))]

    def expand(self, a: np.ndarray) -> np.ndarray:
        """The centered array whose orthant is a."""
        return a[np.ix_(*([self._to_full] * self.grid.N))]

    def restrict(self, table: np.ndarray) -> np.ndarray:
        """The orthant k = 0..n/2 of an even table in FFT order."""
        return np.ascontiguousarray(table[(slice(0, self.shape[0]),) * self.grid.N])

    def spectrum_table(self, table: np.ndarray) -> np.ndarray:
        return self.restrict(table)

    def real_spectrum(self) -> np.ndarray:
        return np.empty(self.shape)

    def rfft(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.dense:
            return self._dense(self._cos, np.float64, f, out)
        return self._extended_dct(f, out)

    def irfft(self, hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.dense:
            return self._dense(self._inverse, np.float64, hat, out)
        out = self._extended_dct(hat, out)
        out *= self._scale
        return out

    def fft(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.dense:
            return self._dense(self._cos, np.complex128, a, out)
        return self._extended(np.fft.fft, a, out)

    def ifft(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.dense:
            return self._dense(self._inverse, np.complex128, a, out)
        return self._extended(np.fft.ifft, a, out)

    def _dense(self, cos: np.ndarray, dtype, a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """cos applied along every axis of an orthant array of dtype (float64
        or complex128), one BLAS product per axis, each of which turns its
        axis last, so after N products the axes are back in order.  A real
        array x gives the product as (rest x m) = x^T cos^T, already turned;
        a complex one goes through its float view, cos @ (m x 2 rest), and a
        copy turns it."""
        a = np.ascontiguousarray(a, dtype=dtype)
        m, N = self.shape[0], self.grid.N
        prod, turned = (w[: a.size * a.itemsize // 8] for w in self._work)
        if out is None:
            out = np.empty(self.shape, dtype=dtype)
        x = a
        for axis in range(N):
            dest = out if axis == N - 1 else turned.view(dtype).reshape(self.shape)
            if dtype is np.float64:
                np.matmul(x.reshape(m, -1).T, cos.T, out=dest.reshape(-1, m, copy=False))
                prod, turned = turned, prod
            else:
                np.matmul(cos, x.view(np.float64).reshape(m, -1), out=prod.reshape(m, -1))
                np.copyto(dest, prod.view(dtype).reshape(self.shape).transpose(self._turn))
            x = dest
        return out

    def _extended(self, transform, a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """transform (np.fft.fft or ifft) of a complex orthant array along
        every axis, by its mirror extension."""
        x = a
        for axis, (ext, _, _, head, tail, mirror) in enumerate(self._axes):
            ext[head] = x
            ext[tail] = x[mirror]
            x = transform(ext, axis=axis, out=ext)[head]
        return _copy_into(out, x)

    def _extended_dct(self, f: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """The DCT-I of a real orthant array over every axis, by the rfft of
        its mirror extension."""
        x = f
        for axis, (_, ext, spec, head, tail, mirror) in enumerate(self._axes):
            ext[head] = x
            ext[tail] = x[mirror]
            x = np.fft.rfft(ext, axis=axis, out=spec).real
        return _copy_into(out, x)

    def real_multiply(self, table_s: np.ndarray, f: np.ndarray, out: np.ndarray | None = None,
                      hat: np.ndarray | None = None) -> np.ndarray:
        hat = self.rfft(f, out=hat)
        hat *= table_s
        return self.irfft(hat, out=out)

    def spectrum_weights(self, table_s: np.ndarray) -> np.ndarray:
        plancherel = parseval_weight(self.grid) * self.grid.h ** (2 * self.grid.N)
        return table_s * self._mult * plancherel

    def pairing_weights(self, table: np.ndarray) -> np.ndarray:
        return self.spectrum_weights(self.restrict(table)).ravel()

    def quadratic_form(self, weights: np.ndarray, f: np.ndarray,
                       hat: np.ndarray | None = None) -> float:
        r = self.rfft(f, hat).ravel()
        return float(np.einsum("i,i,i->", weights, r, r))

    def total(self, x: np.ndarray) -> float:
        return float(np.einsum("i,i->", self._mult.ravel(), x.ravel()))

    def pairwise_total(self, x: np.ndarray) -> float:
        return float(np.sum(self._mult * x))

    def sum_weights(self, table: np.ndarray) -> np.ndarray:
        return (self.restrict(table) * self._mult).ravel()

    def norm_sq(self, z: np.ndarray) -> float:
        flat = z.view(np.float64).ravel()
        weights = self._mult_2 if np.iscomplexobj(z) else self._mult.ravel()
        return float(np.einsum("i,i,i->", weights, flat, flat))


def _copy_into(out: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """x copied into out, or into a new array when out is None."""
    if out is None:
        return x.copy()
    np.copyto(out, x)
    return out


def step_transform(grid: GridSpec, *states: np.ndarray) -> FullGrid | Orthant:
    """The transforms of a step loop over centered states on grid: the
    orthant when every state is mirror-even, else the whole grid."""
    if all(is_mirror_even(v) for v in states):
        return Orthant(grid)
    return FullGrid(grid)


# ---------------------------------------------------------------------------
# Hartree kernel construction


def gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the Jacobi recurrence; the weights are the Christoffel
    numbers of the same recurrence at those nodes (equal to mu_0 times the
    squared first eigenvector components, mu_0 = int (1-x)^alpha (1+x)^beta
    dx).  Same convention as scipy.special.roots_jacobi; alpha, beta > -1.
    """
    if n < 1 or not (alpha > -1.0 and beta > -1.0):
        raise ValueError(f"need n >= 1 and alpha, beta > -1, got {n}, {alpha}, {beta}")
    ab = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    off = np.empty(n - 1)
    if n > 1:
        k = np.arange(1, n, dtype=float)
        t = 2.0 * k + ab
        diag[1:] = (beta**2 - alpha**2) / (t * (t + 2.0))
        # k = 1 with the factor (1 + alpha + beta) cancelled, so that
        # alpha + beta = -1 does not divide zero by zero
        off[0] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + ab) ** 2 * (3.0 + ab))
        k, t = k[1:], t[1:]
        off[1:] = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (t**2 * (t + 1.0) * (t - 1.0))
        np.sqrt(off, out=off)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) * math.gamma(beta + 1.0) / math.gamma(ab + 2.0)
    # Christoffel numbers 1/sum_k p_k(x)^2 of the orthonormal polynomials, a
    # sum of positive terms: the small weights keep their relative accuracy,
    # which the squared eigenvector components lose
    p_prev, p = np.zeros(n), np.full(n, 1.0 / math.sqrt(mu0))
    total = p**2
    for j in range(n - 1):
        p_prev, p = p, ((x - diag[j]) * p - (off[j - 1] * p_prev if j else 0.0)) / off[j]
        total += p**2
    return x, 1.0 / total


#: The t-integral of the exact kernel splits at t_c = _T_SPLIT / L^2, where
#: the box cuts the per-axis Gaussian e^{-t y^2} at e^{-t_c L^2/4} = e^{-40}.
_T_SPLIT = 160.0
#: The t-rule below t_c, edges in fractions of t_c: Gauss-Jacobi in the weight
#: t^{gamma/2-1} on the first piece, Gauss-Legendre on the others, _T_NODES
#: each; the y-integral takes _CELL_NODES Gauss-Legendre nodes per grid cell.
_T_EDGES = (0.0, 1.0 / 16.0, 0.25, 1.0)
_T_NODES = 16
_CELL_NODES = 8


def _lower_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Lower incomplete gamma function int_0^x u^{a-1} e^{-u} du, a > 0, of
    each x > 0: the power series x^a e^{-x} sum_k x^k / (a (a+1)...(a+k))
    below x = a + 1, and above it Gamma(a) minus the continued fraction of
    the upper function, by the modified Lentz method."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    low = x < a + 1.0
    xs = x[low]
    term = np.full_like(xs, 1.0 / a)
    total = term.copy()
    for k in range(1, 100):
        term *= xs / (a + k)
        total += term
        if np.all(term <= 1e-17 * total):
            break
    out[low] = total * np.exp(a * np.log(xs) - xs)
    xs = x[~low]
    b = xs + 1.0 - a
    c = np.full_like(xs, 1e300)
    d = 1.0 / b
    frac = d.copy()
    for k in range(1, 300):
        b += 2.0
        d = 1.0 / (b - k * (k - a) * d)
        c = b - k * (k - a) / c
        frac *= c * d
        if np.all(np.abs(c * d - 1.0) <= 4e-16):
            break
    out[~low] = math.gamma(a) - np.exp(a * np.log(xs) - xs) * frac
    return out


def _t_rule(gamma: float, t_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights in t on [0, t_c] for the weight t^{gamma/2-1}."""
    beta = 0.5 * gamma - 1.0
    x, lam = gauss_jacobi(_T_NODES, 0.0, beta)
    half = 0.5 * _T_EDGES[1] * t_c
    t, w = [half * (x + 1.0)], [lam * half ** (beta + 1.0)]
    u, wu = leggauss(_T_NODES)
    for lo, hi in zip(_T_EDGES[1:-1], _T_EDGES[2:]):
        half = 0.5 * (hi - lo) * t_c
        panel = lo * t_c + half * (u + 1.0)
        t.append(panel)
        w.append(half * wu * panel**beta)
    return np.concatenate(t), np.concatenate(w)


def _exact_kernel_hat(grid: GridSpec, gamma: float) -> np.ndarray:
    """Exact Fourier coefficients W_hat(xi) = int_box |y|^{-gamma} e^{-i xi.y} dy
    of the minimum-image kernel function, in N = 2 or 3.

    Subordination writes |y|^{-gamma} as a Gaussian sum,
    Gamma(gamma/2)^{-1} int_0^inf t^{gamma/2-1} e^{-t|y|^2} dt, and the
    Gaussian factors by axis over the box [-L/2, L/2]^N:

        W_hat(xi) = Gamma(gamma/2)^{-1} int_0^inf t^{gamma/2-1} prod_a g(t, xi_a) dt,
        g(t, xi) = 2 int_0^{L/2} e^{-t y^2} cos(xi y) dy.

    Above t_c = 160/L^2 the box no longer cuts the Gaussian, g is
    sqrt(pi/t) e^{-xi^2/4t} to rounding, and the t-integral is closed:
    pi^{N/2} (4/|xi|^2)^alpha gamma(alpha, |xi|^2/4t_c), alpha = (N-gamma)/2,
    and pi^{N/2} t_c^{-alpha}/alpha at xi = 0; gamma(alpha, x) = Gamma(alpha)
    to rounding from x = 60 + alpha on.  Below t_c the three-piece _t_rule
    takes the integral, and g is summed by Gauss-Legendre over the grid
    cells of [0, L/2], each at most half an oscillation of the cosine, one
    cell node at a time: no (n/2+1) x 4n cosine table is held.  The table is
    sum_j w_j g_j x g_j (x g_j) on the orthant k >= 0, expanded to the whole
    grid by its symmetry in each |k_a|, so it is real and even by
    construction.  Gaussian sums of this kind for nonlocal potentials: Exl,
    Mauser & Zhang, J. Comput. Phys. 327 (2016); Beylkin & Monzon, Appl.
    Comput. Harmon. Anal. 28 (2010).
    """
    N, n, h = grid.N, grid.n, grid.h
    m = n // 2 + 1
    t_c = _T_SPLIT / grid.L**2
    t, w = _t_rule(gamma, t_c)
    xi = 2.0 * np.pi / grid.L * np.arange(m)
    g = np.zeros((t.size, m))
    for u, wu in zip(*leggauss(_CELL_NODES)):
        y = h * (np.arange(n // 2) + 0.5 * (u + 1.0))
        g += (wu * h) * (np.exp(-np.outer(t, y * y)) @ np.cos(np.outer(y, xi)))
    head = w[:, None] * g
    for _ in range(N - 2):
        head = (head[:, :, None] * g[:, None, :]).reshape(t.size, -1)
    table = (head.T @ g).reshape((m,) * N)

    alpha = 0.5 * (N - gamma)
    origin = (0,) * N
    q = sum(np.meshgrid(*([xi**2] * N), indexing="ij", sparse=True))
    q[origin] = 1.0  # placeholder, overwritten below
    x = q / (4.0 * t_c)
    lower = np.full(table.shape, math.gamma(alpha))
    near = x < 60.0 + alpha
    lower[near] = _lower_gamma(alpha, x[near])
    upper = np.pi ** (0.5 * N) * (4.0 / q) ** alpha * lower
    upper[origin] = np.pi ** (0.5 * N) * t_c ** (-alpha) / alpha
    table += upper
    table /= math.gamma(0.5 * gamma)
    k = np.abs(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    return table[np.ix_(*([k] * N))]


def build_hartree_kernel(grid: GridSpec, gamma: float) -> np.ndarray:
    """Fourier table W_hat(xi) of the periodic Riesz-type kernel: the exact
    transform of the minimum-image kernel d(x)^{-gamma} (a Gaussian sum, see
    _exact_kernel_hat), in N=2 and N=3.  It has no sampling bias at the
    singularity, so integral identities certify at tight tolerance.

    The table is real and even in every axis because the kernel is even on
    the torus; an orthant run reads it only at k >= 0.
    """
    if gamma >= grid.N or gamma <= 0:
        raise ValueError(f"gamma must lie in (0, N), got {gamma}")
    return _exact_kernel_hat(grid, gamma)


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


def make_multipliers(grid: GridSpec, p: PhysParams) -> MultiplierSet:
    """The tables of (grid, p), with the exact Hartree kernel
    (build_hartree_kernel)."""
    what = build_hartree_kernel(grid, p.gamma)
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
    tr = FullGrid(u.grid)
    return tr.real_multiply(tr.spectrum_table(mult.hartree_kernel_hat), rho)


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
