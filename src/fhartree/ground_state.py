"""Ground-state profile Q and the identity suite that certifies it.

Q solves  (-Delta)^s Q + Q - (W * |Q|^2) Q = 0  and is computed by spectral
renormalization: with L = 1 + (-Delta)^s and N(Q) = (W * |Q|^2) Q, iterate

    Q_{k+1} = gamma_k^{3/2} * L^{-1} N(Q_k),
    gamma_k = <Q_k, L Q_k> / <Q_k, N(Q_k)>,

where the exponent 3/2 is the stabilizing choice for a degree-3 homogeneous
nonlinearity.  At the fixed point gamma_k -> 1 and the iterate solves the
profile equation.  The converged Q is certified by its Euler-Lagrange
residual, two Pohozaev-type integral identities, the equality of the two
closed forms of the sharp interpolation constant, and the threshold
invariants used by the dichotomy classification.
"""
from __future__ import annotations

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
    _real_multiply,
    _rfftn,
    field_from_values,
    make_multipliers,
    sobolev_norm,
)


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
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.seed_width <= 0.0:
            raise ValueError(f"seed_width must be positive, got {self.seed_width}")


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
    return field_from_values(grid, np.exp(-(grid.r_mesh**2) / width**2))


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


def _radial_asymmetry(values: np.ndarray) -> float:
    """Max relative deviation under the grid symmetries fixing |x| (axis
    reflections about the box center and axis permutations)."""
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return 0.0
    dev = 0.0
    for axis in range(values.ndim):
        refl = np.roll(np.flip(values, axis=axis), 1, axis=axis)
        dev = max(dev, float(np.max(np.abs(values - refl))))
    perm = np.swapaxes(values, 0, 1)
    dev = max(dev, float(np.max(np.abs(values - perm))))
    return dev / peak


def _tail_ratio(values: np.ndarray, grid: GridSpec) -> float:
    """Profile magnitude at the on-axis box boundary relative to the peak."""
    peak = np.max(np.abs(values))
    idx_mid = grid.n // 2
    edges = []
    for axis in range(grid.N):
        sel = [idx_mid] * grid.N
        sel[axis] = 0  # x_axis[0] = -L/2
        edges.append(abs(values[tuple(sel)]))
    return float(max(edges) / peak)


def solve_ground_state(
    p: PhysParams,
    grid: GridSpec,
    seed: SpectralField | None = None,
    opts: SolverOptions = SolverOptions(),
    mult: MultiplierSet | None = None,
) -> GroundState:
    """Run the renormalized fixed-point iteration and certify the result.

    The iteration carries the half spectrum q_hat = rfftn(q) as loop state.
    One iteration forms N(q) = (W * q^2) q (two real transforms) and its
    spectrum rfftn(N(q)) (one); the next spectrum is
    gamma_k^{3/2} L_hat^{-1} rfftn(N(q)) and the next iterate its irfftn
    (one): 4 real transforms per iteration, for N=2 and N=3.  The pairing
    <q, Lq> is a Parseval sum over the carried half spectrum, so Lq is
    never formed in physical space.

    Stops when the successive relative L^2 change drops below opts.tol.
    Raises CollapseToZeroError if iterates vanish and NonConvergenceError
    (carrying a partial report) if the budget is exhausted.
    """
    if mult is None:
        mult = make_multipliers(grid, p)
    if seed is None:
        seed = default_seed(grid, opts.seed_width)

    hN = grid.h**grid.N
    lhat = 1.0 + _half(grid.xi_sq) ** p.s  # symbol of L = 1 + (-Delta)^s
    lhat_inv = 1.0 / lhat
    lpair = _half_pairing(grid, lhat)  # <q, Lq> = sum lpair |q_hat|^2
    what = _half(mult.hartree_kernel_hat)

    q = seed.values.real.astype(np.float64)
    norm = np.sqrt(hN * np.sum(q**2))
    if norm <= 0:
        raise ValueError("seed must be nonzero")
    qhat = _rfftn(q)

    alpha_dev = np.inf
    delta = np.inf
    it = 0
    converged = False
    for it in range(1, opts.max_iter + 1):
        nq = _real_multiply(what, q * q) * q
        nqhat = _rfftn(nq)
        num = np.sum(lpair * (qhat.real**2 + qhat.imag**2))
        den = hN * np.sum(q * nq)
        if den <= 0:
            raise CollapseToZeroError("nonlinear pairing lost positivity; iterate collapsing")
        gamma_k = num / den
        nqhat *= gamma_k**1.5 * lhat_inv  # the spectrum of the next iterate
        q_next = _irfftn(nqhat, q.shape)

        norm_next = np.sqrt(hN * np.sum(q_next**2))
        if norm_next < 1e-10:
            raise CollapseToZeroError(f"iterate norm {norm_next:.3e} below 1e-10")
        delta = np.sqrt(hN * np.sum((q_next - q) ** 2)) / norm
        norm = norm_next
        alpha_dev = abs(gamma_k**1.5 - 1.0)
        q, qhat = q_next, nqhat
        if delta < opts.tol:
            converged = True
            break

    gs = _certify(q, p, grid, mult, it, converged, alpha_dev)
    if not converged:
        raise NonConvergenceError(
            f"no convergence in {opts.max_iter} iterations (last delta {delta:.3e})", gs
        )
    if gs.tail_ratio > 1e-8:
        warnings.warn(
            f"ground-state tail {gs.tail_ratio:.2e} of peak at the box edge exceeds 1e-8; "
            "increase L to reduce truncation bias",
            stacklevel=2,
        )
    return gs


def _certify(
    q_vals: np.ndarray,
    p: PhysParams,
    grid: GridSpec,
    mult: MultiplierSet,
    iterations: int,
    converged: bool,
    alpha_dev: float,
) -> GroundState:
    """Every certificate scalar of the real profile q_vals from one
    rfftn(Q) and one convolution W * Q^2 (4 real transforms in all)."""
    hN = grid.h**grid.N
    xi2s = _half(grid.xi_sq) ** p.s
    qhat = _rfftn(q_vals)
    rho = q_vals * q_vals
    conv = _real_multiply(_half(mult.hartree_kernel_hat), rho)
    m = hN * np.sum(rho)
    g = np.sum(_half_pairing(grid, xi2s) * (qhat.real**2 + qhat.imag**2))  # ||Q||_{Hs-dot}^2
    v_q = hN * np.sum(conv * rho)
    l2 = np.sqrt(m)
    hs = np.sqrt(g)
    e_q = 0.5 * g - 0.25 * v_q

    # Euler-Lagrange residual of the profile equation
    lhs = _irfftn(xi2s * qhat, q_vals.shape) + q_vals - conv * q_vals
    el = np.sqrt(hN * np.sum(lhs**2)) / l2

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
        iterations=iterations,
        converged=converged,
        final_alpha_dev=float(alpha_dev),
        tail_ratio=_tail_ratio(q_vals, grid),
        radial_asymmetry=_radial_asymmetry(q_vals),
        max_imag_frac=0.0,
        threshold_report=thr,
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
    return float(np.max(rec.soliton_deviation))
