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
1-D FFTs of the mirror extension along each axis; along an axis where an
array is odd (a derivative, x_a u), by the sine series of its odd
extension (``irfft_odd``, ``odd_power``).  The ground-state solver
runs on the orthant alone, from a seed it makes mirror-even, with the
orthant's own |xi|^2 and |x| (``Orthant.xi_sq``, ``Orthant.r_mesh``)
built from one axis: no whole-grid mesh of ``GridSpec``.  The Hartree
kernel is held on its orthant too (``MultiplierSet``), and a seam reads
it through ``even_spectrum``; the virial cutoff's tables likewise
(``diagnostics.CutoffPhi``, read through ``even_points``).  The step loop of ``evolution`` and every
public functional and diagnostic (``sobolev_norm``, ``functionals``, the
resolvent and virial diagnostics) take their seam from
``step_transform`` once per call, the orthant when their states allow
it.  ``to_fourier`` and ``to_physical``,
which return a spectrum or a field on the whole grid, build
``FullGrid(grid)``.
"""
from __future__ import annotations

import functools
import math
import random
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
        """Distance to the box center (the minimum-image distance to x=0),
        from one axis of coordinates: no x_mesh is built."""
        return np.sqrt(_sum_of_squares(self.x_axis, self.N))

    @functools.cached_property
    def xi_mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*([self.xi_axis] * self.N), indexing="ij"))

    @functools.cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 in FFT order, from one axis of wavenumbers: no xi_mesh is
        built."""
        return _sum_of_squares(self.xi_axis, self.N)

    @functools.cached_property
    def deriv_mesh(self) -> tuple[np.ndarray, ...]:
        """xi_mesh with the Nyquist mode xi = -pi n/L set to zero on every
        axis: the symbol of d/dx_a, divided by i, that differentiates the
        trigonometric interpolant, so d_a of a mirror-even field is odd
        along a and even along the other axes."""
        xi = np.where(np.arange(self.n) == self.n // 2, 0.0, self.xi_axis)
        return tuple(np.meshgrid(*([xi] * self.N), indexing="ij"))

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


def random_smooth_field(grid: GridSpec, rng: random.Random, n_bumps: int = 3,
                        span: float = 4.0, widths=(0.8, 2.5)) -> np.ndarray:
    """Superposition of a few random complex Gaussians well inside the box.

    rng is a stdlib random.Random (verify seeds it with io.seed); each bump
    takes N + 3 draws from it, in order: the centre x0, uniform in
    [-span, span] per axis, the width w, uniform in widths, and the real
    and imaginary parts of its amplitude, standard normal.  The package
    does not load numpy.random.  Each bump exp(-|x - x0|^2 / w^2) is the
    outer product of one 1-D Gaussian per axis, so the exponential is
    taken on n points per axis, not on the whole mesh."""
    vals = np.zeros(grid.shape, dtype=np.complex128)
    for _ in range(n_bumps):
        x0 = [rng.uniform(-span, span) for _ in range(grid.N)]
        w = rng.uniform(*widths)
        amp = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
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


# ---------------------------------------------------------------------------
# The transform seam

#: A state is mirror-even when it differs from its mirror image in each axis
#: by at most this many ulp of its peak modulus.
MIRROR_EVEN_ULPS = 64


def is_mirror_even(values: np.ndarray) -> bool:
    """Whether a centered array equals its mirror image x -> -x in every
    axis to within MIRROR_EVEN_ULPS ulp of max|values|, as squared moduli.
    Along an axis, index j mirrors onto n - j; 0 (x = -L/2, also L/2 on the
    torus) and n/2 (x = 0) mirror onto themselves.  The line through the
    box center along each axis goes first: it rejects most arrays that are
    not even.  False when a value is not finite."""
    eps = MIRROR_EVEN_ULPS * np.finfo(np.float64).eps
    tol_sq = eps**2 * _max_modulus_sq(values)
    mid = (values.shape[0] // 2,) * values.ndim
    lines = [values[mid[:a] + (slice(None),) + mid[a + 1:]] for a in range(values.ndim)]
    return (bool(np.isfinite(tol_sq))
            and all(_mirror_gap_within(line, 0, tol_sq) for line in lines)
            and all(_mirror_gap_within(values, a, tol_sq) for a in range(values.ndim)))


def _mirror_gap_within(values: np.ndarray, axis: int, tol_sq: float) -> bool:
    """Whether |u_j - u_{n-j}|^2 <= tol_sq along axis for j = 1..n/2-1 (the
    pair (n-j, j) has the same gap, negated): at once when the gaps' sum
    of squares is, else by the largest gap."""
    n = values.shape[axis]
    head = (slice(None),) * axis
    gap = values[head + (slice(1, n // 2),)] - np.flip(values[head + (slice(n // 2 + 1, None),)], axis)
    flat = gap.ravel().view(np.float64)
    return bool(np.einsum("i,i->", flat, flat) <= tol_sq or np.max(_modulus_sq(gap)) <= tol_sq)


#: Points per block of _max_modulus_sq: a 256 KiB float temporary.
_MAX_BLOCK_POINTS = 2**15


def _max_modulus_sq(values: np.ndarray) -> float:
    """max |values|^2, taken block by block over rows of the leading axis,
    so no whole-array |values|^2 is formed.  A max is exact, so this is
    bit for bit np.max(_modulus_sq(values)); a NaN propagates."""
    rows = max(1, _MAX_BLOCK_POINTS // values[0].size)
    return float(np.max([np.max(_modulus_sq(values[i:i + rows]))
                         for i in range(0, values.shape[0], rows)]))


def _modulus_sq(x: np.ndarray) -> np.ndarray:
    """|x|^2 of a real or complex array, without the square root of np.abs."""
    return x.real * x.real + x.imag * x.imag if np.iscomplexobj(x) else x * x


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

    def origin_first(self, values: np.ndarray) -> np.ndarray:
        """A centered array origin first, as to_fourier transforms it:
        np.fft.ifftshift(values)."""
        return np.fft.ifftshift(values)

    def restrict(self, table: np.ndarray) -> np.ndarray:
        """A table in FFT order, as the working spectrum is indexed."""
        return table

    def spectrum_table(self, table: np.ndarray) -> np.ndarray:
        """A table in FFT order as it multiplies an rfft spectrum: columns
        [..., :n//2+1], the half spectrum that the real pair works on."""
        return table[..., : self.grid.n // 2 + 1]

    def even_spectrum(self, table_o: np.ndarray) -> np.ndarray:
        """spectrum_table of the table even in every axis whose orthant
        k = 0..n/2 is table_o (MultiplierSet.hartree_kernel_orthant),
        expanded to the whole grid on each call."""
        return self.spectrum_table(even_table(table_o, self.grid.n))

    def even_points(self, table_o: np.ndarray) -> np.ndarray:
        """The centered table even in every axis whose orthant x >= 0 is
        table_o (a CutoffPhi table), as the working arrays are indexed:
        expanded to the whole grid on each call."""
        return even_points(table_o, self.grid.n)

    def coordinate(self, axis: int) -> np.ndarray:
        """The coordinate x_a as the working arrays are indexed: grid.x_axis
        along axis, shaped to broadcast along the others."""
        return _along(self.grid.x_axis, axis, self.grid.N)

    @property
    def r_mesh(self) -> np.ndarray:
        """|x| as the working arrays are indexed: grid.r_mesh."""
        return self.grid.r_mesh

    @property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 as the working spectrum is indexed: grid.xi_sq."""
        return self.grid.xi_sq

    @property
    def deriv_mesh(self) -> tuple[np.ndarray, ...]:
        """The symbols of d/dx_a (divided by i) as the working spectrum is
        indexed: grid.deriv_mesh."""
        return self.grid.deriv_mesh

    def grad_kernel(self, mult: MultiplierSet) -> tuple[np.ndarray, ...]:
        """xi_a W_hat, one per axis, as the working spectrum is indexed: the
        imaginary parts of mult.grad_kernel_hat, kept from one whole-grid
        run to the next."""
        return tuple(gk.imag for gk in mult.grad_kernel_hat)

    def frac_lap(self, mult: MultiplierSet) -> np.ndarray:
        """The symbol |xi|^{2s} of mult as the working spectrum is indexed:
        mult.frac_lap_s, kept from one whole-grid run to the next."""
        return mult.frac_lap_s

    def dealias_mask(self) -> np.ndarray:
        """dealias_mask(grid) as the working spectrum is indexed."""
        return dealias_mask(self.grid)

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

    def irfft_odd(self, hat: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
        """The real array whose rfft is i hat, for a hat odd along axis
        (such as grid.deriv_mesh[axis] times an rfft): irfft(1j * hat)."""
        return self.irfft(1j * hat, out=out)

    def odd_power(self, f: np.ndarray, axis: int) -> np.ndarray:
        """|fft(f)|^2 of an array f that is odd along axis, but for its face
        x_a = -L/2, and even along the others (x_a u for a mirror-even u)."""
        hat = self.fft(f)
        return hat.real**2 + hat.imag**2

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

    def pairing_weights(self, table_s: np.ndarray) -> np.ndarray:
        """The weights of quadratic_form for a real even table T given as
        spectrum_table(T): those of spectrum_weights, each repeated for the
        real and the imaginary part of its mode."""
        return np.repeat(self.spectrum_weights(table_s), 2, axis=-1)

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

    def sum_weights(self, table: np.ndarray) -> np.ndarray:
        """Flat weights w with w . x.ravel() = sum of table * x over the
        grid, for a table indexed as the working spectrum (restrict) or as
        the working arrays (reduce, even_points) are."""
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


@functools.cache
def _dense_matrices(n: int, N: int) -> tuple:
    """The matrices of Orthant._dense for the orthant of an n^N grid, one
    per axis: forward and inverse (divided by n, exact for a power of two)
    for even arrays, and for arrays odd along each axis in turn.  Built
    once per (n, N) and read-only."""
    cos, sin = _cosine_matrix(n), _sine_matrix(n)
    cos_n, sin_n = cos / n, sin / n
    for mat in (cos, sin, cos_n, sin_n):
        mat.flags.writeable = False
    return ((cos,) * N, (cos_n,) * N,
            [tuple(sin if b == a else cos for b in range(N)) for a in range(N)],
            [tuple(sin_n if b == a else cos_n for b in range(N)) for a in range(N)])


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


def _sine_matrix(n: int) -> np.ndarray:
    """S[k, j] = -w_j sin(pi (jk mod n) / (n/2)) on j, k = 0..n/2: the 1-D
    DFT of the odd extension (0, a_1, ..., a_{n/2-1}, 0, -a_{n/2-1}, ...,
    -a_1) at k = 0..n/2 is i S @ a.  The sine is set to exactly zero where
    jk is a multiple of n/2, so S ignores a_0 and a_{n/2}, the points that
    are their own mirror image, and its Nyquist row k = n/2 is zero."""
    m = n // 2 + 1
    j = np.arange(m)
    jk = np.outer(j, j) % n
    s = -np.sin(np.pi / (n // 2) * jk)
    s[jk % (n // 2) == 0] = 0.0
    s[:, 1:-1] *= 2.0
    return s


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
    and irfft, as FullGrid's does.

    An array odd along one axis a (d_a of a mirror-even field, x_a u, the
    cutoff's gradient component) transforms along a by its odd extension:
    the matrix _sine_matrix(n) on the dense path, the imaginary part of the
    rfft of the extension on the FFT path.  Its transform is i times a
    real array, which irfft_odd takes back.  The products the diagnostics
    form of odd arrays are even again.  A sum over the grid weighs each
    orthant point by the number of grid points it stands for: the product
    over axes of 1 at k = 0 and k = n/2 and 2 between.  Only the work
    arrays of the path taken are allocated, and reused from call to call.
    The FFT path passes over the axes one after another, so its work
    arrays serve every axis: one real extension and one spectrum for the
    real transform, and for the complex one two extensions, one of them
    laid over those two, that the axes take in turn, so that an axis
    reads the last one's output from the other.  At 2048^2 they take 64
    MiB in all, as much as each axis had of its own before.  xi_sq, r_mesh,
    coordinate and dealias_mask, built from one axis, stand in for
    GridSpec's meshes.
    """

    def __init__(self, grid: GridSpec):
        n, N = grid.n, grid.N
        m = n // 2 + 1
        self.grid = grid
        self.shape = (m,) * N
        self._scale = float(n) ** -N
        # centered index of each orthant index
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
            self._even, self._even_inverse, self._odd, self._odd_inverse = _dense_matrices(n, N)
            # the views _dense writes through, on two work arrays with room
            # for a complex array: a real product comes out turned, axis
            # first in the next product's input; a complex one goes to prod
            # and a copy turns it
            work = (np.empty(2 * m**N), np.empty(2 * m**N))
            real = (work[1][: m**N], work[0][: m**N])[: N - 1]
            self._real_dest = tuple(w.reshape(-1, m) for w in real)
            self._real_src = tuple(w.reshape(m, -1) for w in real)
            self._prod = work[0].reshape(m, -1)
            turn = tuple(range(1, N)) + (0,)
            self._prod_turned = work[0].view(np.complex128).reshape(self.shape).transpose(turn)
            self._turned = work[1].view(np.complex128).reshape(self.shape)
            self._turned_src = work[1].reshape(m, -1)
            self._work = work
            return
        # work arrays shared by the axes (see the class docstring)
        size = n * m ** (N - 1)  # points of an extension along any axis
        own = np.empty(size, dtype=np.complex128)
        pool = np.empty(size // 2 + m**N, dtype=np.complex128)
        real_ext = pool[: size // 2].view(np.float64)
        spec = pool[size // 2:].reshape(self.shape)
        self._axes = []
        for axis in range(N):
            ext = (m,) * axis + (n,) + (m,) * (N - 1 - axis)
            lead = (slice(None),) * axis
            self._axes.append((
                (pool[:size] if axis % 2 else own).reshape(ext),
                real_ext.reshape(ext),
                spec,
                lead + (slice(0, m),),
                lead + (slice(m, None),),
                lead + (slice(m - 2, 0, -1),),
                lead + ([0, m - 1],),
            ))

    @functools.cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 on the orthant k = 0..n/2, bit for bit
        restrict(grid.xi_sq), from one axis of wavenumbers."""
        return _sum_of_squares(self.grid.xi_axis[: self.shape[0]], self.grid.N)

    @property
    def deriv_mesh(self) -> tuple[np.ndarray, ...]:
        """restrict(grid.deriv_mesh[a]) for each axis a, bit for bit, from
        one axis of wavenumbers with its Nyquist mode (the last) set to
        zero: the table of axis a varies along a and broadcasts along the
        others."""
        xi = self.grid.xi_axis[: self.shape[0]].copy()
        xi[-1] = 0.0
        return tuple(_along(xi, a, self.grid.N) for a in range(self.grid.N))

    def grad_kernel(self, mult: MultiplierSet) -> tuple[np.ndarray, ...]:
        """xi_a W_hat on the orthant, deriv_mesh[a] times
        mult.hartree_kernel_orthant: bit for bit the restricted imaginary
        parts of mult.grad_kernel_hat."""
        return tuple(xi * mult.hartree_kernel_orthant for xi in self.deriv_mesh)

    @property
    def r_mesh(self) -> np.ndarray:
        """Distance to the box center on the orthant, bit for bit
        reduce(grid.r_mesh), from one axis of coordinates."""
        return np.sqrt(_sum_of_squares(self.grid.x_axis[self._to_orthant], self.grid.N))

    def coordinate(self, axis: int) -> np.ndarray:
        """The coordinate x_a on the orthant, reduce(grid.x_mesh[a]) bit
        for bit, from one axis: it varies along axis and broadcasts along
        the others.  Its last point is the face x_a = -L/2."""
        return _along(self.grid.x_axis[self._to_orthant], axis, self.grid.N)

    def reduce(self, values: np.ndarray) -> np.ndarray:
        """The orthant of a centered mirror-even array, origin first."""
        return values[np.ix_(*([self._to_orthant] * self.grid.N))]

    def expand(self, a: np.ndarray) -> np.ndarray:
        """The centered array whose orthant is a."""
        return even_points(a, self.grid.n)

    def origin_first(self, values: np.ndarray) -> np.ndarray:
        """reduce(values): bit for bit restrict(np.fft.ifftshift(values)),
        gathered without a whole-grid copy."""
        return self.reduce(values)

    def restrict(self, table: np.ndarray) -> np.ndarray:
        """The orthant k = 0..n/2 of an even table in FFT order."""
        return np.ascontiguousarray(table[(slice(0, self.shape[0]),) * self.grid.N])

    def spectrum_table(self, table: np.ndarray) -> np.ndarray:
        return self.restrict(table)

    def even_spectrum(self, table_o: np.ndarray) -> np.ndarray:
        """The orthant table table_o itself: no copy, so callers must not
        write into it."""
        return table_o

    #: even_points: the orthant table itself, read in place like even_spectrum.
    even_points = even_spectrum

    def frac_lap(self, mult: MultiplierSet) -> np.ndarray:
        """|xi|^{2s} on the orthant, xi_sq ** mult.s: bit for bit
        restrict(mult.frac_lap_s)."""
        return self.xi_sq**mult.s

    def dealias_mask(self) -> np.ndarray:
        """The orthant of dealias_mask(grid), bit for bit, from one axis."""
        keep = np.abs(self.grid.xi_axis[: self.shape[0]]) < 2.0 / 3.0 * self.grid.xi_nyquist
        return functools.reduce(np.logical_and.outer, [keep] * self.grid.N)

    def real_spectrum(self) -> np.ndarray:
        return np.empty(self.shape)

    def rfft(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.dense:
            return self._dense(self._even, np.float64, f, out)
        return self._extended_dct(f, out)

    def irfft(self, hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.dense:
            return self._dense(self._even_inverse, np.float64, hat, out)
        out = self._extended_dct(hat, out)
        out *= self._scale
        return out

    def irfft_odd(self, hat: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
        """The real array, odd along axis, whose transform is i hat."""
        if self.dense:
            return self._dense(self._odd_inverse[axis], np.float64, hat, out)
        out = self._extended_dct(hat, out, odd=axis)
        out *= self._scale
        return out

    def odd_power(self, f: np.ndarray, axis: int) -> np.ndarray:
        """The power of the transform of the odd part of f along axis, plus
        that of its face x_a = -L/2 (index n/2), which is its own mirror
        image and is not odd: the cross terms of the two parts cancel in
        any sum over +-k with an even weight."""
        if self.dense:
            odd = self._dense(self._odd[axis], np.complex128, f, None)
        else:
            odd = self._extended(np.fft.fft, f, None, odd=axis)
        face = np.zeros(self.shape, dtype=np.complex128)
        at_face = (slice(None),) * axis + (-1,)
        face[at_face] = f[at_face]
        even = self.fft(face)
        return odd.real**2 + odd.imag**2 + even.real**2 + even.imag**2

    def fft(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.dense:
            return self._dense(self._even, np.complex128, a, out)
        return self._extended(np.fft.fft, a, out)

    def ifft(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.dense:
            return self._dense(self._even_inverse, np.complex128, a, out)
        return self._extended(np.fft.ifft, a, out)

    def _dense(self, mats, dtype, a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """mats[axis] applied along every axis of an orthant array of dtype
        (float64 or complex128), one BLAS product per axis, each of which
        turns its axis last, so after N products the axes are back in
        order.  A real array x gives the product as (rest x m) = x^T mat^T,
        already turned; a complex one goes through its float view, mat @
        (m x 2 rest), and a copy turns it."""
        a = np.ascontiguousarray(a, dtype=dtype)
        if out is None:
            out = np.empty(self.shape, dtype=dtype)
        m = self.shape[0]
        if dtype is np.float64:
            srcs = (a.reshape(m, -1),) + self._real_src
            dests = self._real_dest + (out.reshape(-1, m, copy=False),)
            for mat, src, dest in zip(mats, srcs, dests):
                np.matmul(src.T, mat.T, out=dest)
            return out
        srcs = (a.view(np.float64).reshape(m, -1),) + (self._turned_src,) * (len(mats) - 1)
        dests = (self._turned,) * (len(mats) - 1) + (out,)
        for mat, src, dest in zip(mats, srcs, dests):
            np.matmul(mat, src, out=self._prod)
            np.copyto(dest, self._prod_turned)
        return out

    def _extended(self, transform, a: np.ndarray, out: np.ndarray | None,
                  odd: int | None = None) -> np.ndarray:
        """transform (np.fft.fft or ifft) of a complex orthant array along
        every axis, by its mirror extension, odd along axis odd (zero at the
        points that are their own mirror image)."""
        x = a
        for axis, (ext, _, _, head, tail, mirror, ends) in enumerate(self._axes):
            ext[head] = x
            if axis == odd:
                np.negative(x[mirror], out=ext[tail])
                ext[ends] = 0.0
            else:
                ext[tail] = x[mirror]
            x = transform(ext, axis=axis, out=ext)[head]
        return _copy_into(out, x)

    def _extended_dct(self, f: np.ndarray, out: np.ndarray | None,
                      odd: int | None = None) -> np.ndarray:
        """The DCT-I of a real orthant array over every axis, by the rfft of
        its mirror extension; along axis odd, the rfft of its odd extension
        divided by i, the imaginary part."""
        x = f
        for axis, (_, ext, spec, head, tail, mirror, ends) in enumerate(self._axes):
            ext[head] = x
            if axis == odd:
                np.negative(x[mirror], out=ext[tail])
                ext[ends] = 0.0
                x = np.fft.rfft(ext, axis=axis, out=spec).imag
            else:
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

    def pairing_weights(self, table_s: np.ndarray) -> np.ndarray:
        return self.spectrum_weights(table_s).ravel()

    def quadratic_form(self, weights: np.ndarray, f: np.ndarray,
                       hat: np.ndarray | None = None) -> float:
        r = self.rfft(f, hat).ravel()
        return float(np.einsum("i,i,i->", weights, r, r))

    def total(self, x: np.ndarray) -> float:
        return float(np.einsum("i,i->", self._mult.ravel(), x.ravel()))

    def pairwise_total(self, x: np.ndarray, out: np.ndarray | None = None) -> float:
        """total, summed pairwise (np.sum): the solver's certificate needs
        its O(log n) rounding, not einsum's running sum.  The weighted
        values go into out when given (x itself, when it is not needed
        after)."""
        return float(np.sum(np.multiply(x, self._mult, out=out)))

    def sum_weights(self, table: np.ndarray) -> np.ndarray:
        return (table * self._mult).ravel()

    def norm_sq(self, z: np.ndarray) -> float:
        flat = z.view(np.float64).ravel()
        weights = self._mult_2 if np.iscomplexobj(z) else self._mult.ravel()
        return float(np.einsum("i,i,i->", weights, flat, flat))


def _sum_of_squares(axis: np.ndarray, N: int) -> np.ndarray:
    """The N-dimensional array of sum_a axis[j_a]^2, added axis by axis:
    GridSpec's |xi|^2 and |x| from its whole axes, Orthant's from the
    orthant's points of them, so each orthant table is bit for bit the
    restricted whole-grid one.  These are the additions, in the same order,
    of a sum over the N meshes of GridSpec.xi_mesh or x_mesh."""
    sq = axis**2
    return functools.reduce(np.add.outer, [sq] * N)


def _along(v: np.ndarray, axis: int, N: int) -> np.ndarray:
    """A 1-D array v shaped to vary along axis of an N-dimensional array
    and broadcast along the others."""
    return v.reshape((1,) * axis + (-1,) + (1,) * (N - 1 - axis))


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
    sum_j w_j g_j x g_j (x g_j) on the orthant k = 0..n/2 of every axis,
    origin first: it depends on each |k_a| only, so it is real and even by
    construction and its orthant holds all of it (even_table expands it).
    Gaussian sums of this kind for nonlocal potentials: Exl, Mauser &
    Zhang, J. Comput. Phys. 327 (2016); Beylkin & Monzon, Appl. Comput.
    Harmon. Anal. 28 (2010).
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
    return table


def build_hartree_kernel(grid: GridSpec, gamma: float) -> np.ndarray:
    """Fourier table W_hat(xi) of the periodic Riesz-type kernel: the exact
    transform of the minimum-image kernel d(x)^{-gamma} (a Gaussian sum, see
    _exact_kernel_hat), in N=2 and N=3.  It has no sampling bias at the
    singularity, so integral identities certify at tight tolerance.

    The table is real and even in every axis because the kernel is even on
    the torus, so it is returned on its orthant alone: the (n/2+1)^N modes
    k = 0..n/2 of every axis, origin first.  even_table expands it to the
    whole grid in FFT order.
    """
    if gamma >= grid.N or gamma <= 0:
        raise ValueError(f"gamma must lie in (0, N), got {gamma}")
    return _exact_kernel_hat(grid, gamma)


def even_points(table_o: np.ndarray, n: int) -> np.ndarray:
    """The centered array on the whole grid, even in every axis, whose
    orthant x >= 0 (Orthant.reduce, origin first) is table_o: the point j
    of an axis reads the orthant at |j - n/2|."""
    k = np.abs(np.arange(n) - n // 2)
    return table_o[np.ix_(*([k] * table_o.ndim))]


def even_table(table: np.ndarray, n: int) -> np.ndarray:
    """The table in FFT order on the whole grid whose orthant k = 0..n/2
    of every axis is table, a table even in every axis: the mode k reads
    the orthant at |k|."""
    k = np.abs(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    return table[np.ix_(*([k] * table.ndim))]


@dataclass(frozen=True)
class MultiplierSet:
    """Fourier tables for one (grid, s, gamma) combination: the Hartree
    kernel, built with the set and held on its orthant, and the whole-grid
    tables, built when a whole-grid run or a diagnostic reads them (the
    ground-state solver and an orthant evolve or sweep read none of them,
    so none of them builds a whole-grid table).

    hartree_kernel_orthant is W_hat on the (n/2+1)^N modes k = 0..n/2 of
    every axis, origin first (build_hartree_kernel): all of the table,
    since it is even in every axis.  The seams read it through
    even_spectrum, the orthant as it is and the whole grid expanded;
    hartree_kernel_hat is the whole-grid table, expanded on each read and
    not kept."""

    grid: GridSpec
    s: float
    gamma: float
    hartree_kernel_orthant: np.ndarray

    @property
    def hartree_kernel_hat(self) -> np.ndarray:
        """W_hat(xi) on the whole grid in FFT order, expanded from the
        orthant table on each read."""
        return even_table(self.hartree_kernel_orthant, self.grid.n)

    @functools.cached_property
    def frac_lap_s(self) -> np.ndarray:
        """The symbol |xi|^{2s} of (-Delta)^s on the whole grid, kept for
        the whole-grid runs that read it (FullGrid.frac_lap)."""
        return self.grid.xi_sq**self.s

    @functools.cached_property
    def grad_kernel_hat(self) -> tuple[np.ndarray, ...]:
        """Tables i xi_a W_hat(xi), one per axis, with xi_a from
        grid.deriv_mesh (zero at the Nyquist mode); built on first use (only
        a whole-grid virial_rhs reads them, through FullGrid.grad_kernel)."""
        what = self.hartree_kernel_hat
        return tuple(1j * xi * what for xi in self.grid.deriv_mesh)

    @property
    def kernel_zero_mode(self) -> float:
        """W_hat(0) = integral of the kernel over the box; sets the phase
        scale of the Hartree potential for order-one densities."""
        return float(self.hartree_kernel_orthant[(0,) * self.grid.N])


def make_multipliers(grid: GridSpec, p: PhysParams) -> MultiplierSet:
    """The tables of (grid, p): the exact Hartree kernel
    (build_hartree_kernel) on its orthant now, read-only since the orthant
    seams read it in place, and whole-grid tables on first read."""
    what = build_hartree_kernel(grid, p.gamma)
    what.flags.writeable = False
    return MultiplierSet(grid=grid, s=p.s, gamma=p.gamma, hartree_kernel_orthant=what)


# ---------------------------------------------------------------------------
# Norms and masks


def sobolev_norm(u: SpectralField, alpha: float) -> float:
    """Homogeneous Sobolev seminorm ||u||_{H^alpha-dot}; alpha=0 gives ||u||_2.

    Summed by Parseval over to_fourier's spectrum, on the orthant for a
    mirror-even u (step_transform)."""
    tr = step_transform(u.grid, u.values)
    symbol = None if alpha == 0.0 else tr.xi_sq**alpha
    return seam_sobolev_norm(tr, u, symbol)


def seam_sobolev_norm(tr: FullGrid | Orthant, u: SpectralField, symbol: np.ndarray | None) -> float:
    """sobolev_norm on the seam tr, which a caller that needs several
    quantities of u chooses once, with the symbol |xi|^{2 alpha} as
    tr's working spectrum is indexed (None for alpha = 0).  tr.origin_first
    gives the values to_fourier transforms, on tr's spectrum."""
    hat = u.grid.h**u.grid.N * tr.fft(tr.origin_first(u.values))
    dens = hat.real**2 + hat.imag**2
    if symbol is not None:
        dens = symbol * dens
    return math.sqrt(parseval_weight(u.grid) * tr.total(dens))


def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Boolean mask of the 2/3 rule on the whole grid: keeps the modes with
    |xi_a| < (2/3) xi_nyquist on every axis."""
    cut = 2.0 / 3.0 * grid.xi_nyquist
    keep = np.ones(grid.shape, dtype=bool)
    for xi in grid.xi_mesh:
        keep &= np.abs(xi) < cut
    return keep
