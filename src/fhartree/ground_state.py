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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .functionals import hartree_energy, mass
from .params import PhysParams
from .spectral import (
    GridSpec,
    MultiplierSet,
    SpectralField,
    _half,
    _half_pairing,
    _irfftn,
    _pairing_weights,
    _real_multiply,
    _rfftn,
    field_from_values,
    make_multipliers,
    sobolev_norm,
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
    relative to the peak of Q.  The iteration runs on real transforms
    (rfftn/irfftn), whose outputs are real arrays, so it is 0 by
    construction; the field stays so reports keep their shape.

    delta_history and gamma_history hold, for every iteration k, the
    relative residual delta_k = ||G(q_k) - q_k|| / ||q_k|| and the
    renormalization factor gamma_k = <q_k, L q_k> / <q_k, N(q_k)>.
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


def default_seed(grid: GridSpec, width: float = 1.0) -> SpectralField:
    """Radial positive Gaussian seed exp(-|x|^2 / width^2)."""
    return field_from_values(grid, _seed_values(grid, width))


def _seed_values(grid: GridSpec, width: float) -> np.ndarray:
    """The real values of default_seed, without the complex copy."""
    return np.exp(-(grid.r_mesh**2) / width**2)


def pohozaev_residuals(
    q: SpectralField, p: PhysParams, mult: MultiplierSet
) -> tuple[float, float]:
    """Residuals of the two integral identities any profile solution satisfies.

    r1 normalizes  G + M - V  and r2 normalizes
    ((N-2s)/2) G + (N/2) M - ((2N-gamma)/4) V  by G = ||q||_{Hs-dot}^2.
    """
    return _pohozaev(sobolev_norm(q, p.s) ** 2, mass(q), hartree_energy(q, mult), p)


def _pohozaev(g: float, m: float, v: float, p: PhysParams) -> tuple[float, float]:
    """(r1, r2) of pohozaev_residuals from G = ||q||_{Hs-dot}^2, M and V."""
    r1 = (g + m - v) / g
    r2 = ((p.N - 2.0 * p.s) / 2.0 * g + p.N / 2.0 * m - (2.0 * p.N - p.gamma) / 4.0 * v) / g
    return float(r1), float(r2)


def _peak(values: np.ndarray) -> float:
    """max |values| of a real array, without the np.abs copy."""
    return float(max(values.max(), -values.min()))


def _radial_asymmetry(values: np.ndarray) -> float:
    """Max relative deviation under the grid symmetries fixing |x| (axis
    reflections about the box center and axis permutations)."""
    peak = _peak(values)
    if peak == 0.0:
        return 0.0
    diff = np.empty_like(values)
    dev = 0.0
    for axis in range(values.ndim):
        # the reflection maps index j to (n - j) mod n: index 0 to itself
        # and values[1:] to values[:0:-1] along the axis
        head = (slice(None),) * axis
        rest, mirror = head + (slice(1, None),), head + (slice(None, 0, -1),)
        np.subtract(values[rest], values[mirror], out=diff[rest])
        dev = max(dev, _peak(diff[rest]))
    np.subtract(values, np.swapaxes(values, 0, 1), out=diff)
    dev = max(dev, _peak(diff))
    return dev / peak


def _tail_ratio(values: np.ndarray, grid: GridSpec) -> float:
    """Profile magnitude at the on-axis box boundary relative to the peak."""
    peak = _peak(values)
    idx_mid = grid.n // 2
    edges = []
    for axis in range(grid.N):
        sel = [idx_mid] * grid.N
        sel[axis] = 0  # x_axis[0] = -L/2
        edges.append(abs(values[tuple(sel)]))
    return float(max(edges) / peak)


def _l2_norm(values: np.ndarray, hN: float) -> float:
    """sqrt(h^N sum values^2) of a contiguous real array, through einsum:
    no temporary, and no BLAS threads (see _Anderson)."""
    flat = values.ravel()
    return float(np.sqrt(hN * np.einsum("i,i->", flat, flat)))


class _Anderson:
    """Anderson mixing of depth m on half spectra (Anderson, J. ACM 12,
    1965; Walker & Ni, SIAM J. Numer. Anal. 49, 2011).

    The map outputs g_j = G(q_j) and residuals f_j = g_j - q_j of the last
    m+1 iterations live in two preallocated rings of m+1 slots, written in
    place; the Gram matrix <f_i, f_j> is kept by slot and gains one row per
    iteration.  The next iterate is sum_j a_j g_j with the weights
    (sum_j a_j = 1) that minimize ||sum_j a_j f_j||, found from one m x m
    solve in the differences f_j - f_newest: Anderson's constrained form,
    which spans the same space as the consecutive differences.

    Inner products are Parseval sums with the column weights of
    _pairing_weights over the float view of the half spectra, through einsum:
    BLAS would start its own threads in every worker of the sweep pool.
    """

    def __init__(self, grid: GridSpec, depth: int):
        half = grid.shape[:-1] + (grid.n // 2 + 1,)
        # the weight of each column, once for its real and once for its imaginary part
        self.weights = _pairing_weights(grid, np.ones(grid.n // 2 + 1))
        self.g = np.zeros((depth + 1,) + half, dtype=np.complex128)
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
        rows = (-1, self.weights.size)
        a, b = a.view(np.float64).reshape(rows), b.view(np.float64).reshape(rows)
        return float(np.einsum("j,j->", np.einsum("ij,ij->j", a, b), self.weights))

    def residual(self, qhat: np.ndarray) -> float:
        """Store f = g - qhat for the newest output g; return ||f||."""
        new = self.history[-1]
        f = np.subtract(self.g[new], qhat, out=self.f[new])
        for j in self.history:
            self.gram[new, j] = self.gram[j, new] = self._pairing(f, self.f[j])
        return float(np.sqrt(self.gram[new, new]))

    def step(self, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of the next iterate, into out when given: the mixed
        one, or the newest output itself when the history holds only that
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
        view = None if out is None else out.view(np.float64)
        return np.einsum("k,k...->...", coef, self.g.view(np.float64), out=view).view(np.complex128)


def solve_ground_state(
    p: PhysParams,
    grid: GridSpec,
    seed: SpectralField | None = None,
    opts: SolverOptions = SolverOptions(),
    mult: MultiplierSet | None = None,
) -> GroundState:
    """Find the fixed point Q of the renormalized map G (module docstring)
    by the Anderson-mixed iteration and certify it.

    The iteration carries the half spectrum q_hat = rfftn(q) as loop state.
    One iteration forms N(q) = (W * q^2) q (two real transforms) and its
    spectrum rfftn(N(q)) (one); the map output is gamma_k^{3/2} L_hat^{-1}
    rfftn(N(q)), and the next iterate is the irfftn (one) of the mixed
    spectrum: 4 real transforms per iteration, for N=2 and N=3.  The
    pairing <q, Lq> and the residual norm ||G(q) - q|| are Parseval sums
    over half spectra, so neither Lq nor G(q) is formed in physical space.

    Mixing runs at depth ANDERSON_DEPTH (0: the plain iteration
    q_{k+1} = G(q_k)) and costs a few passes over the half spectrum per
    iteration.  A mixed step that raises ||G(q) - q|| drops the history and
    the next step is the plain one.  The iteration stops when
    delta_k = ||G(q_k) - q_k|| / ||q_k|| < opts.tol and returns G(q_k).

    Raises CollapseToZeroError if iterates vanish and NonConvergenceError
    (carrying a partial report of the last map output) if the budget is
    exhausted.
    """
    if mult is None:
        mult = make_multipliers(grid, p)
    ghat, converged, deltas, gammas = _iterate(p, grid, mult, seed, opts)
    gs = _certify(ghat, p, grid, mult, converged, deltas, gammas)
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
    grid: GridSpec,
    mult: MultiplierSet,
    seed: SpectralField | None,
    opts: SolverOptions,
) -> tuple[np.ndarray, bool, list[float], list[float]]:
    """The loop of solve_ground_state: (half spectrum of the last map
    output, converged, delta_k, gamma_k).

    Each transform and N(q) write into arrays allocated once: the iterate q
    (irfftn output), N(q) (q^2 first, then the convolution and the product
    in place), the half spectrum of the real pair (rfftn of q^2 and of
    N(q)) and the half spectrum of the mixed iterate.  q starts as a copy,
    so a caller's seed is never written.  The arrays, the mixing rings
    among them, are freed on return."""
    hN = grid.h**grid.N
    lhat = 1.0 + _half(grid.xi_sq) ** p.s  # symbol of L = 1 + (-Delta)^s
    lpair = _half_pairing(grid, lhat)  # <q, Lq> = sum lpair |q_hat|^2
    lhat_inv = np.reciprocal(lhat, out=lhat)  # L^{-1}, in place of L
    what = _half(mult.hartree_kernel_hat)
    mixer = _Anderson(grid, ANDERSON_DEPTH)

    if seed is None:
        q = _seed_values(grid, opts.seed_width)
    else:
        q = seed.values.real.astype(np.float64)
    norm = _l2_norm(q, hN)
    if norm <= 0:
        raise ValueError("seed must be nonzero")
    qhat = _rfftn(q)
    nq = np.empty_like(q)
    hat = np.empty_like(qhat)

    deltas: list[float] = []
    gammas: list[float] = []
    for _ in range(opts.max_iter):
        np.multiply(q, q, out=nq)
        _real_multiply(what, nq, out=nq, hat=hat)
        nq *= q
        num = np.sum(lpair * (qhat.real**2 + qhat.imag**2))
        den = hN * np.sum(q * nq)
        if den <= 0:
            raise CollapseToZeroError("nonlinear pairing lost positivity; iterate collapsing")
        gamma_k = num / den
        # the map output G(q), written straight into its ring slot
        ghat = np.multiply(_rfftn(nq, out=hat), gamma_k**1.5 * lhat_inv, out=mixer.output_slot())
        delta = mixer.residual(qhat) / norm
        deltas.append(float(delta))
        gammas.append(float(gamma_k))
        if delta < opts.tol:
            return ghat.copy(), True, deltas, gammas
        mixer.step(out=qhat)
        _irfftn(qhat, q.shape, out=q)
        norm = _l2_norm(q, hN)
        if norm < 1e-10:
            raise CollapseToZeroError(f"iterate norm {norm:.3e} below 1e-10")
    return ghat.copy(), False, deltas, gammas


def _certify(
    qhat: np.ndarray,
    p: PhysParams,
    grid: GridSpec,
    mult: MultiplierSet,
    converged: bool,
    deltas: list[float],
    gammas: list[float],
) -> GroundState:
    """Every certificate scalar of the real profile Q with half spectrum
    qhat = rfftn(Q), from Q = irfftn(qhat) and one convolution W * Q^2
    (4 real transforms in all); deltas and gammas are the solver history."""
    hN = grid.h**grid.N
    xi2s = _half(grid.xi_sq) ** p.s
    # each full-grid transient is dropped once used, so the certificate
    # stays below the memory peak of the solver loop
    q_vals = _irfftn(qhat, grid.shape)
    rho = q_vals * q_vals
    conv = _real_multiply(_half(mult.hartree_kernel_hat), rho)
    m = hN * np.sum(rho)
    g = np.sum(_half_pairing(grid, xi2s) * (qhat.real**2 + qhat.imag**2))  # ||Q||_{Hs-dot}^2
    rho *= conv
    v_q = hN * np.sum(rho)
    del rho
    l2 = np.sqrt(m)
    hs = np.sqrt(g)
    e_q = 0.5 * g - 0.25 * v_q

    # Euler-Lagrange residual of the profile equation, formed in place
    lhs = _irfftn(xi2s * qhat, q_vals.shape)
    lhs += q_vals
    conv *= q_vals
    lhs -= conv
    del conv
    lhs *= lhs
    el = np.sqrt(hN * np.sum(lhs)) / l2
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
        q=field_from_values(grid, q_vals),
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
        tail_ratio=_tail_ratio(q_vals, grid),
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


def soliton_orbit_check(
    gs: GroundState,
    mult: MultiplierSet,
    T: float,
    dt: float,
    record_every: int = 10,
) -> float:
    """Evolve Q over [0, T] and return max_t ||u(t) - e^{it} Q||_2 / ||Q||_2.

    Q solves the discrete profile equation exactly, so e^{it} Q is an exact
    orbit of the semi-discrete system and the deviation isolates the
    time-integration error (second order in dt).
    """
    from .evolution import StepperConfig, evolve

    if T == 0.0:
        return 0.0
    cfg = StepperConfig(dt=dt, t_end=T, record_every=record_every, adaptive=False)
    rec = evolve(gs.q, gs.params, mult, cfg, gs=gs)
    return float(np.max(rec.series["soliton_deviation"]))
