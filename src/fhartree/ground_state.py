"""Ground-state profile Q and the identity suite that certifies it.

Q solves  (-Delta)^s Q + Q - (W * |Q|^2) Q = 0.  With L = 1 + (-Delta)^s
and N(Q) = (W * |Q|^2) Q it is the fixed point of the renormalized
(Petviashvili-type) map

    G(q) = gamma(q)^{3/2} * L^{-1} N(q),
    gamma(q) = <q, L q> / <q, N(q)>,

where the exponent 3/2 is the stabilizing choice for a degree-3 homogeneous
nonlinearity.  At the fixed point gamma -> 1 and q solves the profile
equation.  The plain iteration q_{k+1} = G(q_k) contracts only linearly
(about 0.73 per step for the canonical profile), so the solver puts
Anderson mixing of depth ANDERSON_DEPTH on G: the next iterate is the
combination of the last few map outputs whose residuals G(q_j) - q_j
combine to the least L^2 norm.  A mixed step that raises the residual
drops the history, and the next step is the plain one.  Either way the
iteration stops on the residual of the map itself, ||G(q_k) - q_k|| /
||q_k|| < tol, and returns G(q_k).

The converged Q is certified by its Euler-Lagrange residual, two
Pohozaev-type integral identities, the equality of the two closed forms of
the sharp interpolation constant, and the threshold invariants used by the
dichotomy classification.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .params import PhysParams
from .spectral import (
    GridSpec,
    MultiplierSet,
    Orthant,
    SpectralField,
    field_from_values,
    is_mirror_even,
    make_multipliers,
)


#: Number of past residuals Anderson mixing combines with the newest one; 0
#: is the plain iteration.  Each unit of depth keeps two more half spectra
#: alive through the loop (4 MiB at 512^2).
ANDERSON_DEPTH = 3


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the partial state for reporting."""

    def __init__(self, message: str, partial: "GroundState"):
        super().__init__(message)
        self.partial = partial


class CollapseToZeroError(RuntimeError):
    """Iterates decayed to the zero solution."""


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 1000
    tol: float = 1e-12
    seed_width: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not (math.isfinite(self.seed_width) and self.seed_width > 0.0):
            raise ValueError(f"seed_width must be positive and finite, got {self.seed_width}")


@dataclass(frozen=True)
class ThresholdReport:
    me_direct: float
    grad_direct: float
    me_closed: float
    grad_closed: float

    @property
    def me_discrepancy(self) -> float:
        return abs(self.me_direct - self.me_closed) / abs(self.me_closed)

    @property
    def grad_discrepancy(self) -> float:
        return abs(self.grad_direct - self.grad_closed) / abs(self.grad_closed)


@dataclass(frozen=True)
class GroundState:
    """Converged profile plus every validation scalar derived from it.

    max_imag_frac is the largest imaginary part the iteration produced,
    relative to the peak of Q.  The iteration runs on the DCT-I of the
    orthant, whose outputs are real arrays, so it is 0 by construction;
    the field stays so reports keep their shape.

    delta_history and gamma_history hold, for every iteration k, the
    relative residual delta_k = ||G(q_k) - q_k|| / ||q_k|| and the
    renormalization factor gamma_k = <q_k, L q_k> / <q_k, N(q_k)>.

    q is on the whole centered grid, expanded from the orthant the solve
    runs on (see solve_ground_state), so it is exactly mirror-even, and
    its radial_asymmetry measures only the axis swap: the reflections are
    exact by construction.
    """

    q: SpectralField
    params: PhysParams
    l2: float
    hs: float
    v_q: float
    e_q: float
    el_residual: float
    pohozaev: tuple[float, float]
    cgn_a: float
    cgn_b: float
    me_Q: float
    grad_Q: float
    iterations: int
    converged: bool
    final_alpha_dev: float
    tail_ratio: float
    radial_asymmetry: float
    max_imag_frac: float
    threshold_report: ThresholdReport = field(repr=False, default=None)  # type: ignore[assignment]
    delta_history: tuple[float, ...] = field(repr=False, default=())
    gamma_history: tuple[float, ...] = field(repr=False, default=())

    def solver_history(self) -> dict:
        return {"delta": list(self.delta_history), "gamma": list(self.gamma_history)}

    def summary(self) -> dict:
        return {
            "l2": self.l2,
            "hs": self.hs,
            "v_q": self.v_q,
            "e_q": self.e_q,
            "el_residual": self.el_residual,
            "pohozaev_r1": self.pohozaev[0],
            "pohozaev_r2": self.pohozaev[1],
            "cgn_a": self.cgn_a,
            "cgn_b": self.cgn_b,
            "cgn_discrepancy": abs(self.cgn_a - self.cgn_b) / self.cgn_a,
            "me_Q": self.me_Q,
            "grad_Q": self.grad_Q,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_alpha_dev": self.final_alpha_dev,
            "tail_ratio": self.tail_ratio,
            "radial_asymmetry": self.radial_asymmetry,
            "max_imag_frac": self.max_imag_frac,
        }


def _seed_values(r: np.ndarray, width: float) -> np.ndarray:
    """The radial positive Gaussian seed exp(-|x|^2 / width^2) at the
    distances r to the box center: grid.r_mesh on the whole grid,
    Orthant.r_mesh on the orthant, the same arithmetic at each point."""
    return np.exp(-(r**2) / width**2)


def _seed_array(tr: Orthant, seed: SpectralField | None, opts: SolverOptions) -> np.ndarray:
    """A fresh real array of the solver's seed on the orthant tr: the
    default seed of width opts.seed_width, built on the orthant alone and
    bit for bit tr.reduce of its whole-grid values, or the real part q of
    seed, which arrives on the whole centered grid.  A q that is not
    mirror-even is rolled by whole grid points so that the circular centre
    of mass of q^2 (the phase of the first Fourier mode of each marginal)
    sits at x = 0, averaged with its mirror image axis by axis, and its
    orthant averaged over every permutation of the axes, so it has every
    symmetry of the centred profile.  Raises ValueError for a seed that
    is not finite."""
    if seed is None:
        return _seed_values(tr.r_mesh, opts.seed_width)
    if not np.all(np.isfinite(seed.values)):
        raise ValueError("seed must be finite")
    grid = tr.grid
    q = seed.values.real.astype(np.float64)
    if is_mirror_even(q):
        return tr.reduce(q)
    rho = q * q
    axes = tuple(range(grid.N))
    mode = np.exp(2j * np.pi / grid.L * grid.x_axis)
    shifts = [-round(np.angle(mode @ rho.sum(axis=axes[:a] + axes[a + 1:])) * grid.n / (2 * np.pi))
              for a in axes]
    q = np.roll(q, shifts, axes)
    for a in axes:  # the mirror image maps index j to (n - j) mod n
        q = 0.5 * (q + np.roll(np.flip(q, a), 1, a))
    q = tr.reduce(q)
    perms = list(itertools.permutations(axes))
    return sum(np.transpose(q, perm) for perm in perms) / len(perms)


def _pohozaev(g: float, m: float, v: float, p: PhysParams) -> tuple[float, float]:
    """Residuals (r1, r2) of the two integral identities any profile
    solution satisfies, from G = ||q||_{Hs-dot}^2, M and V: r1 normalizes
    G + M - V and r2 normalizes ((N-2s)/2) G + (N/2) M - ((2N-gamma)/4) V
    by G."""
    r1 = (g + m - v) / g
    r2 = ((p.N - 2.0 * p.s) / 2.0 * g + p.N / 2.0 * m - (2.0 * p.N - p.gamma) / 4.0 * v) / g
    return float(r1), float(r2)


def _peak(values: np.ndarray) -> float:
    """max |values| of a real array, without the np.abs copy."""
    return float(max(values.max(), -values.min()))


def _radial_asymmetry(values: np.ndarray) -> float:
    """Max relative deviation of orthant values under the swap of the
    first two axes, the one grid symmetry fixing |x| that the orthant does
    not impose.  The whole grid expanded from them has the same values,
    and the same swapped differences, so the same maxima."""
    peak = _peak(values)
    if peak == 0.0:
        return 0.0
    return _peak(values - np.swapaxes(values, 0, 1)) / peak


def _tail_ratio(values: np.ndarray) -> float:
    """Profile magnitude at the on-axis box boundary x_a = -L/2 (orthant
    index n/2) relative to the peak, from orthant values."""
    peak = _peak(values)
    edges = []
    for axis in range(values.ndim):
        sel = [0] * values.ndim
        sel[axis] = -1
        edges.append(abs(values[tuple(sel)]))
    return float(max(edges) / peak)


class _Anderson:
    """Anderson mixing of depth m on the real orthant spectra of tr
    (Anderson, J. ACM 12, 1965; Walker & Ni, SIAM J. Numer. Anal. 49,
    2011).

    The map outputs g_j = G(q_j) and residuals f_j = g_j - q_j of the last
    m+1 iterations live in two preallocated rings of m+1 slots, written in
    place; the Gram matrix <f_i, f_j> is kept by slot and gains one row per
    iteration.  The next iterate is sum_j a_j g_j with the weights
    (sum_j a_j = 1) that minimize ||sum_j a_j f_j||, found from one m x m
    solve in the differences f_j - f_newest: Anderson's constrained form,
    which spans the same space as the consecutive differences.

    Inner products are Parseval sums with the weight of each orthant
    point, tr.spectrum_weights of a table of ones.
    """

    def __init__(self, tr: Orthant, depth: int):
        self.weights = tr.spectrum_weights(np.ones(tr.shape)).ravel()
        self.g = np.zeros((depth + 1,) + tr.shape)
        self.f = np.zeros_like(self.g)
        self.gram = np.zeros((depth + 1, depth + 1))
        self.history: list[int] = []  # ring slots in use, oldest first
        self.mixed = False  # whether the last step combined more than one output

    def output_slot(self) -> np.ndarray:
        """The ring slot the next map output goes to: a free one, or the
        oldest in the history once the history is full."""
        if len(self.history) == len(self.g):
            self.history.pop(0)
        slot = min(set(range(len(self.g))) - set(self.history))
        self.history.append(slot)
        return self.g[slot]

    def _pairing(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.einsum("j,j->", (a * b).ravel(), self.weights))

    def residual(self, qhat: np.ndarray) -> float:
        """Store f = g - qhat for the newest output g; return ||f||."""
        new = self.history[-1]
        f = np.subtract(self.g[new], qhat, out=self.f[new])
        for j in self.history:
            self.gram[new, j] = self.gram[j, new] = self._pairing(f, self.f[j])
        return float(np.sqrt(self.gram[new, new]))

    def step(self, out: np.ndarray | None = None) -> np.ndarray:
        """Spectrum of the next iterate, into out when given: the mixed one,
        or the newest output itself when the history holds only that
        output."""
        h = self.gram
        new = self.history[-1]
        if self.mixed and h[new, new] > h[self.history[-2], self.history[-2]]:
            self.history = [new]  # the mixed step raised the residual
        coef = np.zeros(len(self.g))
        coef[new] = 1.0
        old = self.history[:-1]
        if old:
            a = h[np.ix_(old, old)] - h[old, new][:, None] - h[new, old][None, :] + h[new, new]
            try:
                x = np.linalg.solve(a, h[new, new] - h[old, new])
            except np.linalg.LinAlgError:  # exactly dependent residuals
                x = None
            if x is None or not np.all(np.isfinite(x)):
                self.history = [new]
            else:
                coef[old] = x
                coef[new] = 1.0 - x.sum()
        self.mixed = len(self.history) > 1
        return np.einsum("k,k...->...", coef, self.g, out=out)


def solve_ground_state(
    p: PhysParams,
    grid: GridSpec,
    seed: SpectralField | None = None,
    opts: SolverOptions = SolverOptions(),
    mult: MultiplierSet | None = None,
) -> GroundState:
    """Find the fixed point Q of the renormalized map G (module docstring)
    by the Anderson-mixed iteration and certify it.

    The solve runs on the orthant of n/2+1 points per axis
    (spectral.Orthant), from the real seed (the real part of seed, or the
    default Gaussian) made mirror-even by _seed_array, since the Q it
    converges to is centred and mirror-even.  The default seed and the
    symbol |xi|^2 (Orthant.xi_sq) are built on the orthant from one axis,
    and mult holds the Hartree kernel on its orthant, so no whole-grid
    array exists until Q is expanded for GroundState.q.  The iteration
    carries the spectrum q_hat, the DCT-I of the orthant values, as loop
    state.  One iteration forms N(q) = (W * q^2) q (a real pair) and its
    spectrum (one forward transform); the map output is gamma_k^{3/2}
    L_hat^{-1} times that spectrum, and the next iterate is the inverse
    transform (one) of the mixed spectrum: 4 real transforms per
    iteration, each N passes over (n/2+1)^(N-1) lines (dense products or
    FFTs, see spectral.Orthant), with every pointwise pass over
    (n/2+1)^N points.  The pairing <q, Lq>
    and the residual norm ||G(q) - q|| are Parseval sums over the spectra,
    so neither Lq nor G(q) is formed in physical space.

    Mixing runs at depth ANDERSON_DEPTH (0: the plain iteration
    q_{k+1} = G(q_k)) and costs a few passes over the spectrum per
    iteration.  A mixed step that raises ||G(q) - q|| drops the history and
    the next step is the plain one.  The iteration stops when
    delta_k = ||G(q_k) - q_k|| / ||q_k|| < opts.tol and returns G(q_k).

    Raises ValueError for a seed that is zero or not finite,
    CollapseToZeroError if iterates vanish and NonConvergenceError
    (carrying a partial report of the last map output) if the budget is
    exhausted.
    """
    if mult is None:
        mult = make_multipliers(grid, p)
    tr = Orthant(grid)
    q = _seed_array(tr, seed, opts)
    ghat, converged, deltas, gammas = _iterate(p, tr, mult, q, opts)
    gs = _certify(ghat, p, tr, mult, converged, deltas, gammas)
    if not converged:
        raise NonConvergenceError(
            f"no convergence in {opts.max_iter} iterations (last delta {deltas[-1]:.3e})", gs
        )
    if gs.tail_ratio > 1e-8:
        warnings.warn(
            f"ground-state tail {gs.tail_ratio:.2e} of peak at the box edge exceeds 1e-8; "
            "increase L to reduce truncation bias",
            stacklevel=2,
        )
    return gs


def _iterate(
    p: PhysParams,
    tr: Orthant,
    mult: MultiplierSet,
    q: np.ndarray,
    opts: SolverOptions,
) -> tuple[np.ndarray, bool, list[float], list[float]]:
    """The loop of solve_ground_state on the transforms tr from the seed q,
    a real working array of tr that the loop overwrites: (spectrum of the
    last map output, converged, delta_k, gamma_k).

    Each transform and N(q) write into arrays allocated once: the iterate q
    (inverse transform output), N(q) (q^2 first, then the convolution and
    the product in place), the spectrum of the real pair (of q^2 and of
    N(q)), which also takes the products of the two pairings in between,
    and the spectrum of the mixed iterate.  The arrays, the mixing rings
    among them, are freed on return."""
    grid = tr.grid
    hN = grid.h**grid.N
    lhat = 1.0 + tr.xi_sq**p.s  # symbol of L = 1 + (-Delta)^s
    lpair = tr.spectrum_weights(lhat)  # <q, Lq> = sum lpair |q_hat|^2
    lhat_inv = np.reciprocal(lhat, out=lhat)  # L^{-1}, in place of L
    what = tr.even_spectrum(mult.hartree_kernel_orthant)
    mixer = _Anderson(tr, ANDERSON_DEPTH)

    norm = math.sqrt(hN * tr.norm_sq(q))
    if norm <= 0:
        raise ValueError("seed must be nonzero")
    qhat = tr.rfft(q)
    nq = np.empty_like(q)
    hat = np.empty_like(qhat)

    deltas: list[float] = []
    gammas: list[float] = []
    for _ in range(opts.max_iter):
        np.multiply(q, q, out=nq)
        tr.real_multiply(what, nq, out=nq, hat=hat)
        nq *= q
        # both pairings form their products in hat, free until rfft(nq)
        num = np.sum(np.multiply(np.multiply(qhat, qhat, out=hat), lpair, out=hat))
        den = hN * tr.pairwise_total(np.multiply(q, nq, out=hat), out=hat)
        if den <= 0:
            raise CollapseToZeroError("nonlinear pairing lost positivity; iterate collapsing")
        gamma_k = num / den
        # the map output G(q), written straight into its ring slot
        ghat = np.multiply(tr.rfft(nq, out=hat), gamma_k**1.5 * lhat_inv, out=mixer.output_slot())
        delta = mixer.residual(qhat) / norm
        deltas.append(float(delta))
        gammas.append(float(gamma_k))
        if delta < opts.tol:
            return ghat.copy(), True, deltas, gammas
        mixer.step(out=qhat)
        tr.irfft(qhat, out=q)
        norm = math.sqrt(hN * tr.norm_sq(q))
        if norm < 1e-10:
            raise CollapseToZeroError(f"iterate norm {norm:.3e} below 1e-10")
    return ghat.copy(), False, deltas, gammas


def _certify(
    qhat: np.ndarray,
    p: PhysParams,
    tr: Orthant,
    mult: MultiplierSet,
    converged: bool,
    deltas: list[float],
    gammas: list[float],
) -> GroundState:
    """Every certificate scalar of the real profile Q whose spectrum on the
    transforms tr is qhat, from Q = tr.irfft(qhat) and one convolution
    W * Q^2 (4 real transforms in all), each sum pairwise; deltas and
    gammas are the solver history.  tail_ratio and radial_asymmetry are
    read off the orthant values, whose maxima are the whole grid's, and Q
    is expanded once, straight into the complex array of GroundState.q."""
    grid = tr.grid
    hN = grid.h**grid.N
    xi2s = tr.xi_sq**p.s
    # each transient is dropped once used, so the certificate stays below
    # the memory peak of the solver loop
    q_vals = tr.irfft(qhat)
    rho = q_vals * q_vals
    conv = tr.real_multiply(tr.even_spectrum(mult.hartree_kernel_orthant), rho)
    m = hN * tr.pairwise_total(rho)
    g = np.sum(tr.spectrum_weights(xi2s) * (qhat * qhat))  # ||Q||_{Hs-dot}^2
    rho *= conv
    v_q = hN * tr.pairwise_total(rho, out=rho)
    del rho
    l2 = np.sqrt(m)
    hs = np.sqrt(g)
    e_q = 0.5 * g - 0.25 * v_q

    # Euler-Lagrange residual of the profile equation, formed in place
    lhs = tr.irfft(xi2s * qhat)
    lhs += q_vals
    conv *= q_vals
    lhs -= conv
    del conv
    lhs *= lhs
    el = np.sqrt(hN * tr.pairwise_total(lhs, out=lhs)) / l2
    del lhs

    r1, r2 = _pohozaev(g, m, v_q, p)

    cgn_a, cgn_b = _cgn_values(l2, hs, p)

    factor = (l2**2) ** p.mass_power
    me_q = factor * e_q
    grad_q = factor * hs**2
    closed_scale = l2 ** (2.0 * p.s / p.s_c)
    thr = ThresholdReport(
        me_direct=me_q,
        grad_direct=grad_q,
        me_closed=(p.gamma - 2.0 * p.s) / (2.0 * (4.0 * p.s - p.gamma)) * closed_scale,
        grad_closed=p.gamma / (4.0 * p.s - p.gamma) * closed_scale,
    )

    return GroundState(
        q=field_from_values(grid, tr.expand(q_vals.astype(np.complex128))),
        params=p,
        l2=float(l2),
        hs=float(hs),
        v_q=float(v_q),
        e_q=float(e_q),
        el_residual=float(el),
        pohozaev=(r1, r2),
        cgn_a=cgn_a,
        cgn_b=cgn_b,
        me_Q=float(me_q),
        grad_Q=float(grad_q),
        iterations=len(deltas),
        converged=converged,
        final_alpha_dev=abs(gammas[-1] ** 1.5 - 1.0),
        tail_ratio=_tail_ratio(q_vals),
        radial_asymmetry=_radial_asymmetry(q_vals),
        max_imag_frac=0.0,
        threshold_report=thr,
        delta_history=tuple(deltas),
        gamma_history=tuple(gammas),
    )


def _cgn_values(l2: float, hs: float, p: PhysParams) -> tuple[float, float]:
    s, gamma = p.s, p.gamma
    cgn_a = (4.0 * s / gamma) / (l2 ** ((4.0 * s - gamma) / s) * hs ** ((gamma - 2.0 * s) / s))
    cgn_b = ((4.0 * s - gamma) / gamma) ** (gamma / (2.0 * s)) * 4.0 * s / ((4.0 * s - gamma) * l2**2)
    return float(cgn_a), float(cgn_b)
