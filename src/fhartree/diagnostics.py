"""Resolvent-based norm identities, localized virial quantities, and
dispersal proxies.

The fractional Laplacian admits a resolvent representation through the
auxiliary field u_m = c_s (-Delta + m)^{-1} u with c_s = sqrt(sin(pi s)/pi):
integrating m^s ||grad u_m||_2^2 over m in (0, inf) returns s ||u||_{Hs-dot}^2
exactly.  That identity turns localized virial computations into spatially
masked integrals of |grad u_m|^2 and |u_m|^2, quadratured over m by a
three-piece rule (build_quadrature): Gauss-Jacobi with weight m^{s-1} on
[0, a], Gauss-Legendre panels on ln m over [a, b], and Gauss-Jacobi with
weight t^{-s} in t = 1/m on [0, 1/b].  Nothing is truncated.  The
integrands are sums over the grid's modes with poles at m = -|xi|^2, all on
[-max |xi|^2, 0], so the rule is valid while max |xi|^2 stays well below b
and the smallest nonzero |xi|^2 stays above a; the diagnostics refuse a
grid with max |xi|^2 > b/10 or (2 pi/L)^2 < a.  The bilaplacian
table is the grid's own spectral Delta^2 of the cutoff, which sums to zero
as in the continuum, so the m-integral has no 1/m^2 pole at m = 0 and
converges.  The cutoff is radial: psi(r) = r^2 inside the unit ball, 0 outside
radius 2, bridged on [1, 2] by the unique degree-9 polynomial that matches
psi through its fourth derivative at r=1 and vanishes through the fourth
derivative at r=2, so the scaled cutoff phi_R(x) = R^2 psi(|x|/R) is C^4 and
equals |x|^2 exactly on |x| <= R.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import PhysParams
from .spectral import (
    FullGrid,
    GridSpec,
    MultiplierSet,
    SpectralField,
    gauss_jacobi,
    parseval_weight,
    to_fourier,
    to_physical,
)

#: Seams of the default m-rule: Gauss-Jacobi on [0, a], log-axis panels on
#: [a, b], Gauss-Jacobi in t = 1/m on [0, 1/b].
_HEAD_SEAM = 1e-4
_TAIL_SEAM = 1e6
#: Widest Gauss-Legendre panel on the ln m axis.
_PANEL_WIDTH = 3.0
#: Head and tail shares of the nodes: 8 and 12 of the default 84.
_HEAD_SHARE = 8.0 / 84.0
_TAIL_SHARE = 12.0 / 84.0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes m_k and weights w_k with sum w_k f(m_k) ~ int_0^inf m^s f(m) dm.

    The weights absorb m^s and every Jacobian, so callers sum w_k * f(m_k)
    for the plain integrand f.  Three pieces, no truncation: Gauss-Jacobi
    with weight m^{s-1} on [0, a], Gauss-Legendre panels on ln m over
    [a, b], and Gauss-Jacobi with weight t^{-s} in t = 1/m on [0, 1/b].  The
    rule is built for integrands sum_q c_q/(q+m)^2 and c_q/((q+m)(q'+m)),
    whose poles lie on [-max q, 0]; it is valid while max q stays well below
    b (the diagnostics require max q <= b/10), the smallest nonzero q stays
    above a (the head piece assumes no pole inside [-a, 0) apart from
    m = 0), and the integrand has no double pole at m = 0.  The default 84
    nodes hold the scalar identity int m^s q/(q+m)^2 dm = q^s pi s/sin(pi s)
    to ~1e-10 for q in [1e-3, 1e5].
    """

    s: float
    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    def require_covers(self, grid: GridSpec) -> None:
        """Raise ValueError unless the grid's largest |xi|^2 is <= b/10 and
        its smallest nonzero |xi|^2 = (2 pi/L)^2 is >= a.

        Below a the scalar identity degrades fast: at s = 0.55 it holds to
        1e-10 down to q = 0.8 a, but only to 1e-8 at 0.5 a and 5e-4 at
        0.1 a.  With the default a = 1e-4 the lower guard binds for
        L > 2 pi/sqrt(a) ~ 628.
        """
        q_max = grid.N * grid.xi_nyquist**2
        if q_max > 0.1 * self.b:
            raise ValueError(
                f"the grid's largest |xi|^2 = {q_max:.3g} exceeds b/10 = {0.1 * self.b:.3g}; "
                f"build the m-rule with b >= {10.0 * q_max:.3g}"
            )
        q_min = (2.0 * math.pi / grid.L) ** 2
        if q_min < self.a:
            raise ValueError(
                f"the grid's smallest nonzero |xi|^2 = {q_min:.3g} is below a = {self.a:.3g}; "
                f"build the m-rule with a <= {q_min:.3g}"
            )


def build_quadrature(
    s: float,
    n_nodes: int = 84,
    a: float = _HEAD_SEAM,
    b: float = _TAIL_SEAM,
) -> QuadratureRule:
    """Three-piece rule for int_0^inf m^s f(m) dm with exact end pieces.

    - head [0, a]: int m^{s-1} (m f(m)) dm by Gauss-Jacobi, exact in the
      singular factor m^{s-1}; m f(m) is smooth there when the poles of f
      stay a distance ~q_min > a away from 0 and f has at most a simple
      pole at m = 0;
    - middle [a, b]: Gauss-Legendre panels at most 3 units wide on ln m,
      where m^{s+1} f(e^y) has its poles pi off the real axis;
    - tail [b, inf): with t = 1/m, int_0^{1/b} t^{-s} (t^{-2} f(1/t)) dt by
      Gauss-Jacobi; t^{-2} f(1/t) is analytic for |t| < 1/max q.

    The default a=1e-4, b=1e6 and 84 nodes (8 + 8 panels of 8 + 12) hold
    for every grid with max |xi|^2 <= 1e5, which virial_rhs and
    balakrishnan_check enforce.  Other node counts keep the shares: about
    2/21 of the nodes in the head, 3/21 in the tail, the rest spread over
    the panels.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if not 0.0 < a < b:
        raise ValueError(f"need seams 0 < a < b, got [{a}, {b}]")
    n_panels = math.ceil(math.log(b / a) / _PANEL_WIDTH)
    n_head = max(1, round(_HEAD_SHARE * n_nodes))
    n_tail = max(1, round(_TAIL_SHARE * n_nodes))
    n_mid = n_nodes - n_head - n_tail
    if n_mid < n_panels:
        raise ValueError(f"need at least {n_panels + 2} nodes, got {n_nodes}")

    # head: m = a (1+x)/2, int_0^a m^s f dm = (a/2)^s int (1+x)^{s-1} m f dx
    x, lam = gauss_jacobi(n_head, 0.0, s - 1.0)
    m_head = 0.5 * a * (1.0 + x)
    w_head = (0.5 * a) ** s * lam * m_head

    # middle: y = ln m, int m^s f dm = int e^{(s+1) y} f(e^y) dy
    counts = np.full(n_panels, n_mid // n_panels)
    counts[: n_mid % n_panels] += 1
    edges = np.linspace(math.log(a), math.log(b), n_panels + 1)
    m_mid, w_mid = [], []
    for lo, hi, k in zip(edges[:-1], edges[1:], counts):
        gl_x, gl_w = np.polynomial.legendre.leggauss(int(k))
        half = 0.5 * (hi - lo)
        m = np.exp(0.5 * (lo + hi) + half * gl_x)
        m_mid.append(m)
        w_mid.append(gl_w * half * m ** (1.0 + s))

    # tail: t = 1/m = (1+x)/(2b), int_b^inf m^s f dm
    #       = (2b)^{s-1} int (1+x)^{-s} t^{-2} f(1/t) dx
    x, lam = gauss_jacobi(n_tail, 0.0, -s)
    m_tail = (2.0 * b / (1.0 + x))[::-1]
    w_tail = ((2.0 * b) ** (s - 1.0) * lam)[::-1] * m_tail**2

    return QuadratureRule(
        s=s,
        nodes=np.concatenate([m_head, *m_mid, m_tail]),
        weights=np.concatenate([w_head, *w_mid, w_tail]),
        a=float(a),
        b=float(b),
    )


def _c_s(s: float) -> float:
    """Normalization sqrt(sin(pi s)/pi) making the m-integral identity exact."""
    return float(np.sqrt(np.sin(np.pi * s) / np.pi))


def auxiliary_field(u: SpectralField, m: float, p: PhysParams) -> SpectralField:
    """Resolvent smoothing u_m = c_s (-Delta + m)^{-1} u."""
    if m <= 0.0:
        raise ValueError(f"resolvent parameter m must be positive, got {m}")
    return to_physical(u.grid, _c_s(p.s) * to_fourier(u) / (u.grid.xi_sq + m))


def balakrishnan_check(
    u: SpectralField, p: PhysParams, quad: QuadratureRule
) -> tuple[float, float, float]:
    """Quadrature the m-integral of ||grad u_m||_2^2 against s ||u||_{Hs-dot}^2.

    Returns (lhs, rhs, rel_err); the identity is exact in the continuum and
    mode-by-mode on the grid, so rel_err is pure quadrature error.  Both
    sides weigh |u_hat|^2 by even tables, so they are summed on the half
    spectrum of the real transform of the real and imaginary parts of u,
    part by part (a real u has one part): the cross term of the two parts
    is odd and cancels.  Raises ValueError when the grid's largest |xi|^2
    exceeds quad.b/10 or its smallest nonzero |xi|^2 falls below quad.a.
    """
    grid = u.grid
    quad.require_covers(grid)
    tr = FullGrid(grid)
    parts = [u.values.real]
    if np.any(u.values.imag):
        parts.append(u.values.imag)
    power = sum(hat.real**2 + hat.imag**2 for hat in map(tr.rfft, parts))
    dens = tr.spectrum_weights(power)  # Parseval density on the half spectrum
    q = tr.spectrum_table(grid.xi_sq)
    grad_dens = q * dens  # |xi|^2 |u_hat|^2, the gradient spectral density
    rhs = float(p.s * np.sum(q**p.s * dens))
    cs2 = np.sin(np.pi * p.s) / np.pi
    lhs = 0.0
    for m_k, w_k in zip(quad.nodes, quad.weights):
        lhs += w_k * float(np.sum(grad_dens / (q + m_k) ** 2))
    lhs *= cs2
    if rhs == 0.0:
        return lhs, rhs, 0.0
    return lhs, rhs, abs(lhs - rhs) / rhs


# ---------------------------------------------------------------------------
# Radial C^4 cutoff


def bridge_coefficients() -> np.ndarray:
    """Coefficients a_5..a_9 of the bridge b(t) = (1+t)^2 + sum a_k t^k,
    t = r - 1: the continuation of r^2 past r=1 corrected to vanish through
    the fourth derivative at r=2.  Matching at r=1 is automatic because the
    correction starts at t^5."""
    rows = np.empty((5, 5))
    ks = np.arange(5, 10)
    for d in range(5):
        rows[d] = [np.prod(np.arange(k - d + 1, k + 1)) for k in ks]
    rhs = -np.array([4.0, 4.0, 2.0, 0.0, 0.0])
    return np.linalg.solve(rows, rhs)


def psi_derivatives(rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """(psi, psi', psi'', psi''', psi'''') of the radial cutoff profile,
    evaluated piecewise: r^2 inside the unit ball, the degree-9 bridge on
    [1, 2], zero beyond."""
    rho = np.asarray(rho, dtype=float)
    coef = np.zeros(10)
    coef[0], coef[1], coef[2] = 1.0, 2.0, 1.0  # (1+t)^2
    coef[5:] = bridge_coefficients()
    out = []
    t = rho - 1.0
    ball = rho <= 1.0
    bridge = (rho > 1.0) & (rho < 2.0)
    dcoef = coef
    for order in range(5):
        vals = np.zeros_like(rho)
        if order == 0:
            vals[ball] = rho[ball] ** 2
        elif order == 1:
            vals[ball] = 2.0 * rho[ball]
        elif order == 2:
            vals[ball] = 2.0
        # orders 3, 4 vanish inside the ball
        vals[bridge] = np.polynomial.polynomial.polyval(t[bridge], dcoef)
        out.append(vals)
        dcoef = np.polynomial.polynomial.polyder(dcoef)
    return tuple(out)


@dataclass(frozen=True)
class CutoffPhi:
    """Grid tables of the scaled cutoff phi_R(x) = R^2 psi(|x|/R).

    grad holds the components of grad phi_R (equal to 2x on |x| <= R);
    psi_pp_annulus is psi''(|x|/R) masked to the bridge annulus R<|x|<2R;
    lap2 is (Delta^2 psi)(x/R) = R^2 Delta^2 phi_R, taken spectrally on the
    grid, so it sums to zero over the grid up to rounding; the ball mask
    selects |x| <= R.
    """

    grid: GridSpec
    R: float
    grad: tuple[np.ndarray, ...]
    psi_pp_annulus: np.ndarray
    lap2: np.ndarray
    ball_mask: np.ndarray

    @property
    def outside_mask(self) -> np.ndarray:
        return ~self.ball_mask


def build_cutoff(grid: GridSpec, R: float | None = None) -> CutoffPhi:
    """Tabulate the cutoff and its derived fields; R defaults to L/4 so the
    annulus R<|x|<2R stays inside the box faces."""
    if R is None:
        R = grid.L / 4.0
    if not 0.0 < 2.0 * R <= grid.L:
        raise ValueError(f"need 0 < 2R <= L, got R={R} on L={grid.L}")
    rho = grid.r_mesh / R
    psi0, psi1, psi2, _, _ = psi_derivatives(rho)
    # grad phi_R = psi'(rho) x / |x| * R = (psi'(rho)/rho) x; the ratio tends
    # to 2 at the origin where psi' = 2 rho.
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = np.where(rho > 0.0, psi1 / rho, 2.0)
    grad = tuple(slope * x for x in grid.x_mesh)
    annulus = (rho > 1.0) & (rho < 2.0)
    psi_pp_annulus = np.where(annulus, psi2, 0.0)
    # Delta^2 of the tabulated phi_R on the grid's own spectrum, so that
    # lap2 sums to zero like its continuum counterpart.  The analytic
    # (Delta^2 psi)(x/R) does not (h^N sum lap2 = -13.0 at 256^2, L=32),
    # and that sum becomes a divergent |u_hat(0)|^2 m^{s-2} term of the
    # m-integral.
    tr = FullGrid(grid)
    lap2 = R**2 * tr.irfft(tr.spectrum_table(grid.xi_sq) ** 2 * tr.rfft(R**2 * psi0))
    return CutoffPhi(
        grid=grid,
        R=float(R),
        grad=grad,
        psi_pp_annulus=psi_pp_annulus,
        lap2=lap2,
        ball_mask=rho <= 1.0,
    )


def localized_virial(u: SpectralField, phi: CutoffPhi) -> float:
    """M_R = 2 Im int conj(u) grad(phi_R) . grad(u) dx (zero for real u)."""
    if u.grid != phi.grid:
        raise ValueError("field and cutoff live on different grids")
    grid = u.grid
    tr = FullGrid(grid)
    hat = tr.fft(u.values)
    acc = 0.0
    for xi, g in zip(grid.xi_mesh, phi.grad):
        du = tr.ifft(1j * xi * hat)
        acc += float(np.sum((np.conj(u.values) * g * du).imag))
    return 2.0 * grid.h**grid.N * acc


@dataclass(frozen=True)
class VirialRHS:
    """The two computable pieces of d/dt M_R and the reported remainder scale.

    main collects the three m-quadrature terms (ball, annulus Hessian,
    bilaplacian); interaction is the convolution term
    2 int grad(phi_R) . (grad(|.|^{-gamma}) * |u|^2) |u|^2 dx; a_r_bound is
    the remainder magnitude (unit constant): the H^s-dot, L^2/R^2 and
    interaction-energy tails outside |x| > R.  It is a reported scale for
    consistency tolerances, never asserted as an inequality.
    """

    main: float
    interaction: float
    a_r_bound: float

    @property
    def total(self) -> float:
        return self.main + self.interaction


def _weighted_sum(w: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    """sum(w * f * g) over equal-shaped arrays in one einsum pass, without
    the product temporaries."""
    return float(np.einsum("i,i,i->", w.ravel(), f.ravel(), g.ravel()))


def virial_rhs(
    u: SpectralField,
    phi: CutoffPhi,
    p: PhysParams,
    mult: MultiplierSet,
    quad: QuadratureRule,
) -> VirialRHS:
    """Evaluate d/dt M_R as main + interaction, plus the remainder scale.

    main = 8 int m^s int_{|x|<=R} |grad u_m|^2
         + 4 int m^s int_{R<|x|<2R} psi''(|x|/R) |grad u_m|^2
         - R^{-2} int m^s int (Delta^2 psi)(x/R) |u_m|^2,
    with u_m = c_s (-Delta+m)^{-1} u quadratured node by node.  The real
    and imaginary parts of u are resolved separately on the real transform
    pair (a real u has one part); each node costs N+1 inverse transforms
    per part.  The node loop writes 1/(q+m), the resolvent spectrum, its
    gradient components and their inverse transforms into arrays allocated
    once per call; the interaction and tail terms reuse two of them.
    Raises ValueError when the grid's largest |xi|^2 exceeds quad.b/10 or
    its smallest nonzero |xi|^2 falls below quad.a.
    """
    if u.grid != phi.grid or u.grid != mult.grid:
        raise ValueError("field, cutoff, and multipliers must share one grid")
    grid = u.grid
    quad.require_covers(grid)
    tr = FullGrid(grid)
    hN = grid.h**grid.N
    q = tr.spectrum_table(grid.xi_sq)
    ixi = [1j * tr.spectrum_table(xi) for xi in grid.xi_mesh]
    parts = [u.values.real]
    if np.any(u.values.imag):
        parts.append(u.values.imag)
    hats = [tr.rfft(f) for f in parts]

    # |grad u_m|^2 weight: 8 on the ball, 4 psi'' on the annulus
    grad_w = 8.0 * phi.ball_mask + 4.0 * phi.psi_pp_annulus
    lap2 = phi.lap2 / phi.R**2
    inv = np.empty(q.shape)
    rhat = tr.real_spectrum()
    dhat = np.empty_like(rhat)
    d = np.empty(grid.shape)  # d_j u_m, then u_m; after the loop each real output
    main = 0.0
    for m_k, w_k in zip(quad.nodes, quad.weights):
        np.divide(1.0, np.add(q, m_k, out=inv), out=inv)
        acc = 0.0
        for hat in hats:
            np.multiply(hat, inv, out=rhat)
            for ix in ixi:
                tr.irfft(np.multiply(ix, rhat, out=dhat), out=d)
                acc += _weighted_sum(grad_w, d, d)
            tr.irfft(rhat, out=d)
            acc -= _weighted_sum(lap2, d, d)
        main += w_k * acc
    main *= np.sin(np.pi * p.s) / np.pi * hN

    rho = sum(f**2 for f in parts)
    rho_hat = tr.rfft(rho)
    interaction = 0.0
    for g, gk in zip(phi.grad, mult.grad_kernel_hat):
        conv = tr.irfft(np.multiply(tr.spectrum_table(gk), rho_hat, out=dhat), out=d)
        interaction += _weighted_sum(g, conv, rho)
    interaction *= 2.0 * hN

    out = phi.outside_mask
    ds_s = q ** (0.5 * p.s)
    ds_tail = 0.0
    for hat in hats:
        ds = tr.irfft(np.multiply(ds_s, hat, out=dhat), out=d)
        ds_tail += hN * float(np.sum(ds[out] ** 2))
    l2_tail = hN * float(np.sum(rho[out])) / phi.R**2
    pot = tr.irfft(np.multiply(tr.spectrum_table(mult.hartree_kernel_hat), rho_hat, out=dhat),
                   out=d)
    v_tail = hN * float(np.sum(pot[out] * rho[out]))
    return VirialRHS(main=main, interaction=interaction, a_r_bound=ds_tail + l2_tail + v_tail)


@dataclass(frozen=True)
class VirialAudit:
    """Positivity audit of d/dt M_R along a run that started inside K1."""

    applicable: bool
    all_positive: bool
    min_total: float
    c_delta: float  # min(main + interaction) / ||u0||_{Hs-dot}^2

    @property
    def ok(self) -> bool:
        return (not self.applicable) or self.all_positive


def virial_lower_bound_audit(rec, totals) -> VirialAudit:
    """Check main + interaction > 0 at every sampled state of a K1 run and
    report the empirical coercivity constant min(totals)/||u0||_{Hs-dot}^2.

    rec is the RunRecord of the evolution; totals are VirialRHS.total values
    evaluated at states sampled from the same run (the record itself does
    not retain fields).
    """
    vals = np.asarray([float(v) for v in totals])
    if vals.size == 0:
        raise ValueError("no virial values supplied")
    applicable = rec.series["membership"][0] == "K1"
    hs0_sq = float(rec.series["hs"][0]) ** 2
    min_total = float(np.min(vals))
    return VirialAudit(
        applicable=applicable,
        all_positive=bool(np.all(vals > 0.0)),
        min_total=min_total,
        c_delta=min_total / hs0_sq if hs0_sq > 0.0 else float("nan"),
    )


def weighted_virial(u: SpectralField, p: PhysParams) -> float:
    """P = sum_j Re <x_j u, (-Delta)^{1-s} (x_j u)>, nonnegative by construction.

    Computed as the spectral sum of |xi|^{2(1-s)} |F[x_j u]|^2, which is
    manifestly >= 0 discretely.  The coordinate weight is box-centered and
    non-periodic, so a warning fires when more than 1e-6 of the mass sits at
    radius |x| > 0.4 L, where the weight's sawtooth jump corrupts the spectrum.
    """
    grid = u.grid
    tr = FullGrid(grid)
    rho = u.values.real**2 + u.values.imag**2
    total = float(np.sum(rho))
    if total > 0.0:
        outside = float(np.sum(rho[grid.r_mesh > 0.4 * grid.L]))
        if outside > 1e-6 * total:
            warnings.warn(
                f"weighted_virial: {outside / total:.2e} of the mass lies beyond "
                f"|x| = 0.4 L; the non-periodic weight x u is unreliable there",
                stacklevel=2,
            )
    del rho
    tab = grid.xi_sq ** (1.0 - p.s)
    w = parseval_weight(grid) * grid.h ** (2 * grid.N)
    # one complex and two real work arrays serve every axis
    hat = np.empty(grid.shape, dtype=np.complex128)
    dens = np.empty(grid.shape)
    imag_sq = np.empty(grid.shape)
    acc = 0.0
    for x in grid.x_mesh:
        np.multiply(x, u.values, out=hat)
        tr.fft(hat, out=hat)
        np.square(hat.real, out=dens)
        np.square(hat.imag, out=imag_sq)
        dens += imag_sq
        dens *= tab
        acc += float(np.sum(dens))
    return w * acc


def weighted_virial_of_gaussian(s: float, N: int) -> float:
    """Continuum value of weighted_virial for u = exp(-|x|^2/2) in N dimensions.

    F[x_j u] = i d_j u_hat with u_hat = (2 pi)^{N/2} exp(-|xi|^2/2), so
    P = int |xi|^{4-2s} exp(-|xi|^2) dxi
      = pi^{N/2} Gamma(2 - s + N/2) / Gamma(N/2)   (pi Gamma(3 - s) for N=2).
    """
    return math.pi ** (0.5 * N) * math.gamma(2.0 - s + 0.5 * N) / math.gamma(0.5 * N)


@dataclass(frozen=True)
class ScatteringReport:
    """Finite-time dispersal proxies extracted from a RunRecord.

    v_ratio and lpc_ratio compare the final sample against t=0; the rate
    fields are average growth rates of the running space-time norm over the
    first and last quarters of the run (a dispersing solution accumulates
    ever more slowly, so rate_final < rate_initial).
    """

    v_ratio: float
    lpc_ratio: float
    strichartz_final: float
    rate_initial: float
    rate_final: float


def scattering_proxies(rec) -> ScatteringReport:
    t = rec.series["time"]
    if t.size < 4:
        raise ValueError("need at least 4 samples for quarter-window rates")
    stri = rec.series["strichartz_accum"]
    t_q1 = t[0] + 0.25 * (t[-1] - t[0])
    t_q3 = t[0] + 0.75 * (t[-1] - t[0])
    i1 = int(np.searchsorted(t, t_q1))
    i3 = int(np.searchsorted(t, t_q3))
    i1 = max(1, min(i1, t.size - 1))
    i3 = max(i1, min(i3, t.size - 2))
    rate_initial = float((stri[i1] - stri[0]) / (t[i1] - t[0]))
    rate_final = float((stri[-1] - stri[i3]) / (t[-1] - t[i3]))
    return ScatteringReport(
        v_ratio=rec.v_ratio_final,
        lpc_ratio=rec.ratio("lpc"),
        strichartz_final=float(stri[-1]),
        rate_initial=rate_initial,
        rate_final=rate_final,
    )
