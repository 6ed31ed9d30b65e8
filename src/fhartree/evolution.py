"""Time evolution of the focusing fractional Hartree flow on the periodic box.

The integrator is Strang splitting between the free fractional flow and the
gauge rotation generated by the Hartree potential.  Both substeps are exact:
the linear half-step multiplies by e^{-i (dt/2) |xi|^{2s}} in Fourier space,
and because |u| is pointwise invariant under u -> u exp(i dt (W*|u|^2)) the
nonlinear step applies the exact phase for frozen modulus.  Each substep is
unitary on the grid, so discrete mass is conserved to rounding for any dt,
the map is time-reversible, and the composition is second order in dt.

The step loop carries the raw spectrum fftn(u) from one step to the next:
a step is ifftn, the nonlinear phase, fftn, ifftn (3 complex transforms),
and the Hartree potential of the real density |u|^2 goes through the real
pair rfftn/irfftn.  Samples read the carried spectrum, so they need no
complex transform.  The half-step phase table is rebuilt only when the
step size changes, and |u|^2 is formed once per step boundary for the
space-time norm, the sample and the adaptive step.  The centering phases
of the transform convention cancel for diagonal multipliers, so the raw
FFT pair is used throughout.

A run produces a RunRecord: sampled conserved quantities, scale-invariant
threshold ratios, set membership, a running space-time norm, and a final
verdict (Soliton / GlobalDispersing / BlowUp / Inconclusive).  Focusing runs
shrink the step so the nonlinear phase per step stays below a fixed cap, and
refuse to continue once a fixed fraction of the gradient norm sits in the
top third of the spectrum (the grid can no longer represent the state; the
refusal is recorded in-band as a caveat, never an exception).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .functionals import classify_from_ratios
from .params import PhysParams
from .spectral import (
    MultiplierSet,
    SpectralField,
    _half,
    _real_multiply,
    dealias_mask,
    field_from_values,
    parseval_weight,
)

SOLITON_DEVIATION_TOL = 1e-3
DISPERSAL_V_FRACTION = 0.5

VERDICT_SOLITON = "Soliton"
VERDICT_DISPERSING = "GlobalDispersing"
VERDICT_BLOWUP = "BlowUp"
VERDICT_INCONCLUSIVE = "Inconclusive"


class GroundStateLike(Protocol):
    """What evolve() needs from a ground-state object (duck-typed to keep
    this module importable without the solver)."""

    q: SpectralField
    l2: float
    me_Q: float
    grad_Q: float


@dataclass(frozen=True)
class StepperConfig:
    """Step size, horizon, sampling cadence, and safety thresholds.

    dt is the nominal step; when adaptive is set the effective step is
    lowered so the nonlinear phase increment max|u|^2 * W_hat(0) * dt stays
    below phase_cap radians, floored at dt_min.  blowup_grad_factor is the
    growth of the H^s-dot norm that ends a run as BlowUp; tail_fraction_max
    is the largest tolerated share of the gradient norm in the top third of
    the spectrum before the run refuses to continue.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    record_every: int = 10
    dt_min: float = 1e-7
    blowup_grad_factor: float = 10.0
    tail_fraction_max: float = 0.1
    phase_cap: float = 0.1
    adaptive: bool = True
    nonlinear: bool = True
    dealias: bool = False
    snapshot_every: int = 0  # keep the field at every k-th sample (0 = never)

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if not 0.0 < self.dt_min <= self.dt:
            raise ValueError(f"dt_min must lie in (0, dt], got {self.dt_min}")
        if self.blowup_grad_factor <= 1.0:
            raise ValueError("blowup_grad_factor must exceed 1")
        if not 0.0 < self.tail_fraction_max < 1.0:
            raise ValueError("tail_fraction_max must lie in (0, 1)")
        if self.phase_cap <= 0.0:
            raise ValueError("phase_cap must be positive")


@dataclass
class RunRecord:
    """Sampled time series and the final verdict of one evolution run.

    All series share the length of `times`.  Ratio and deviation entries are
    NaN when no ground state was supplied (or its grid differs from the run
    grid, for the deviation).  strichartz_accum[k] is the running value of
    (sum over steps so far of dt * ||u||_{q_c}^{q_c})^{1/q_c}.  dt_series[k]
    is dt_eff, the step in effect at sample k (adapted, when adaptive is
    set) before clipping to t_end.
    """

    params: PhysParams
    config: StepperConfig
    times: np.ndarray
    mass_series: np.ndarray
    energy_series: np.ndarray
    hs_series: np.ndarray
    hsc_series: np.ndarray
    v_series: np.ndarray
    lpc_series: np.ndarray
    me_ratio_series: np.ndarray
    grad_ratio_series: np.ndarray
    membership_series: tuple[str, ...]
    tail_fraction_series: np.ndarray
    strichartz_accum: np.ndarray
    soliton_deviation: np.ndarray
    dt_series: np.ndarray
    verdict: str
    t_star: float | None
    n_steps: int
    final_state: SpectralField
    caveats: tuple[str, ...] = field(default=())
    snapshots: tuple[tuple[float, SpectralField], ...] = field(default=(), repr=False)

    @property
    def mass_drift(self) -> float:
        m0 = self.mass_series[0]
        return float(np.max(np.abs(self.mass_series - m0)) / m0)

    @property
    def energy_drift(self) -> float:
        e0 = self.energy_series[0]
        scale = abs(e0) if e0 != 0.0 else 1.0
        return float(np.max(np.abs(self.energy_series - e0)) / scale)

    @property
    def v_ratio_final(self) -> float:
        return float(self.v_series[-1] / self.v_series[0])

    def summary(self) -> dict:
        return {
            "verdict": self.verdict,
            "t_star": self.t_star,
            "t_final": float(self.times[-1]),
            "n_steps": self.n_steps,
            "n_samples": int(self.times.size),
            "mass_drift": self.mass_drift,
            "energy_drift": self.energy_drift,
            "me_ratio_initial": float(self.me_ratio_series[0]),
            "grad_ratio_initial": float(self.grad_ratio_series[0]),
            "grad_ratio_final": float(self.grad_ratio_series[-1]),
            "v_ratio_final": self.v_ratio_final,
            "hs_growth": float(self.hs_series[-1] / self.hs_series[0]),
            "strichartz_accum": float(self.strichartz_accum[-1]),
            "membership_initial": self.membership_series[0],
            "caveats": list(self.caveats),
        }

    def to_csv(self, path) -> None:
        """Write the sampled series as CSV with fixed float formatting, so
        identical runs produce byte-identical files."""
        cols = (
            "time,mass,energy,hs,hsc,v,lpc,me_ratio,grad_ratio,membership,"
            "tail_fraction,strichartz_accum,soliton_deviation,dt_eff"
        )
        fmt = "%.15e"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(cols + "\n")
            for k in range(self.times.size):
                row = [
                    fmt % self.times[k],
                    fmt % self.mass_series[k],
                    fmt % self.energy_series[k],
                    fmt % self.hs_series[k],
                    fmt % self.hsc_series[k],
                    fmt % self.v_series[k],
                    fmt % self.lpc_series[k],
                    fmt % self.me_ratio_series[k],
                    fmt % self.grad_ratio_series[k],
                    self.membership_series[k],
                    fmt % self.tail_fraction_series[k],
                    fmt % self.strichartz_accum[k],
                    fmt % self.soliton_deviation[k],
                    fmt % self.dt_series[k],
                ]
                fh.write(",".join(row) + "\n")


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of checking that a run never crossed the K1/K2 boundary.

    applicable is True when the initial sample had me_ratio < 1 and a
    definite side (K1 or K2).  grad_gap is the worst-case distance of
    grad_ratio from 1 toward the wrong side: for K1 runs the minimum of
    1 - grad_ratio over all samples, for K2 the minimum of grad_ratio - 1.
    The set is preserved exactly when grad_gap stays positive.
    """

    initial_membership: str
    applicable: bool
    flipped: bool
    flip_index: int | None
    grad_gap: float

    @property
    def ok(self) -> bool:
        return (not self.applicable) or ((not self.flipped) and self.grad_gap > 0.0)


def wrap_time(grid, s: float) -> float:
    """Horizon beyond which periodic wrap-around can pollute dispersal
    diagnostics: a quarter box crossing at the fastest group speed
    2 s |xi|^{2s-1} present on the grid."""
    xi_max = np.sqrt(grid.N) * grid.xi_nyquist
    speed = 2.0 * s * xi_max ** (2.0 * s - 1.0)
    return float(grid.L / (4.0 * speed))


def adapt_dt(u: SpectralField, cfg: StepperConfig, mult: MultiplierSet) -> float:
    """Effective step: nominal dt shrunk so the worst-case nonlinear phase
    increment max|u|^2 * W_hat(0) * dt stays below phase_cap, never below
    dt_min."""
    return _adapted_dt(float(np.max(u.values.real**2 + u.values.imag**2)), cfg, mult)


def _adapted_dt(amp: float, cfg: StepperConfig, mult: MultiplierSet) -> float:
    """adapt_dt for a precomputed amplitude amp = max|u|^2."""
    scale = amp * mult.kernel_zero_mode
    if scale <= 0.0:
        return cfg.dt
    return max(cfg.dt_min, min(cfg.dt, cfg.phase_cap / scale))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two flat float arrays through einsum, not BLAS: in the
    sweep's worker processes a threaded BLAS dot contends for the cores."""
    return float(np.einsum("i,i->", a, b))


def _half_step_phase(frac_lap_s: np.ndarray, dt: float) -> np.ndarray:
    """The free half-step multiplier exp(-i (dt/2) |xi|^{2s})."""
    return np.exp(-0.5j * dt * frac_lap_s)


def strang_step(
    u: SpectralField,
    mult: MultiplierSet,
    dt: float,
    nonlinear: bool = True,
    mask: np.ndarray | None = None,
) -> SpectralField:
    """One Strang step: half free flow, full Hartree phase, half free flow.

    A thin wrapper of the step evolve() runs: it transforms u once and
    returns the field at the end of the step.  With mask given, both linear
    substeps project onto the retained modes (this breaks exact mass
    conservation).
    """
    if not u.is_physical:
        raise ValueError("strang_step requires a physical-space field")
    half = _half_step_phase(mult.frac_lap_s, dt)
    what_half = _half(mult.hartree_kernel_hat)
    vals, _ = _strang(np.fft.fftn(u.values), half, what_half, dt, nonlinear, mask)
    return SpectralField(grid=u.grid, values=vals, space=u.space)


def _strang(
    hat: np.ndarray,
    half: np.ndarray,
    what_half: np.ndarray,
    dt: float,
    nonlinear: bool,
    mask: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One Strang step on the raw spectrum hat = fftn(u), which it
    overwrites.  Returns (vals, hat) at the end of the step, where hat is
    the spectrum vals was made from, so the next step needs no forward
    transform.  half is the half-step phase, what_half the half-spectrum
    Hartree multiplier of the real density."""
    hat *= half
    if mask is not None:
        hat *= mask
    vals = np.fft.ifftn(hat)
    if nonlinear:
        phase = dt * _real_multiply(what_half, vals.real**2 + vals.imag**2)
        rot = np.empty_like(vals)  # exp(i phase) from real cos/sin
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        rot *= vals
        vals = rot
    hat = np.fft.fftn(vals)
    hat *= half
    if mask is not None:
        hat *= mask
    return np.fft.ifftn(hat), hat


def evolve(
    u0: SpectralField,
    p: PhysParams,
    mult: MultiplierSet,
    cfg: StepperConfig,
    gs: GroundStateLike | None = None,
) -> RunRecord:
    """Integrate i u_t = (-Delta)^s u - (W*|u|^2) u from u0 to t_end.

    Samples diagnostics every record_every steps (plus t=0 and the end
    point) and classifies the run:

    * BlowUp    -- the H^s-dot norm exceeded blowup_grad_factor times its
                   initial value, or the spectral tail grew past
                   tail_fraction_max while grad_ratio > 1; t_star is the
                   sample time of the trigger.
    * Soliton   -- a ground state was supplied and the gauge-corrected
                   distance ||u e^{-it} - Q||_2 / ||Q||_2 stayed below 1e-3
                   at every sample.
    * GlobalDispersing -- the run finished with grad_ratio < 1 at every
                   sample and V(t_end) < 0.5 V(0).
    * Inconclusive otherwise (including tail refusal without gradient
                   growth, and a sample whose mass or H^s-dot norm is not
                   finite, which stops the run; either stop is recorded as
                   a caveat).
    """
    if not u0.is_physical:
        raise ValueError("evolve requires a physical-space initial state")
    if u0.grid != mult.grid:
        raise ValueError("initial state and multiplier set live on different grids")
    if mult.s != p.s or mult.gamma != p.gamma:
        raise ValueError(
            f"multiplier set built for (s, gamma) = ({mult.s}, {mult.gamma}), "
            f"run requested ({p.s}, {p.gamma})"
        )
    grid = u0.grid
    hN = grid.h**grid.N
    pw = parseval_weight(grid)
    plancherel = pw * hN * hN  # |raw fft|^2 -> physical L^2 mass
    xi2s = mult.frac_lap_s
    xi2sc = grid.xi_sq**p.s_c
    tail_w = (~dealias_mask(grid, 2.0 / 3.0)).astype(np.float64).ravel()  # 0/1 weight
    what_half = _half(mult.hartree_kernel_hat)
    mask = dealias_mask(grid) if cfg.dealias else None
    qc = p.q_c

    track_soliton = gs is not None and gs.q.grid == grid
    if track_soliton:
        q_ref = gs.q.values
        q_l2 = gs.l2

    vals = u0.values.astype(np.complex128, copy=True)
    hat = np.fft.fftn(vals)  # carried from step to step: the spectrum of vals
    rho = vals.real**2 + vals.imag**2  # |u|^2 at the current step boundary
    half = half_dt = None  # half-step phase and the dt it was built for
    t = 0.0
    n_steps = 0
    accum_qc = 0.0  # running sum of dt * ||u||_{q_c}^{q_c}
    caveats: list[str] = []
    verdict: str | None = None
    t_star: float | None = None

    times: list[float] = []
    mass_s: list[float] = []
    energy_s: list[float] = []
    hs_s: list[float] = []
    hsc_s: list[float] = []
    v_s: list[float] = []
    lpc_s: list[float] = []
    me_s: list[float] = []
    gr_s: list[float] = []
    member_s: list[str] = []
    tailf_s: list[float] = []
    stri_s: list[float] = []
    sol_s: list[float] = []
    dt_s: list[float] = []
    snaps: list[tuple[float, SpectralField]] = []

    def sample(dt_eff: float) -> tuple[float, float, float, float]:
        """Record one diagnostic row; returns (mass, hs, grad_ratio, tail_fraction)."""
        m = hN * float(np.sum(rho))
        hat_sq = hat.real**2 + hat.imag**2
        grad_dens = xi2s * hat_sq
        grad_total = float(np.sum(grad_dens))
        hs_sq = plancherel * grad_total
        hs = float(np.sqrt(hs_sq))
        hsc = float(np.sqrt(plancherel * float(np.sum(xi2sc * hat_sq))))
        tail_frac = _dot(tail_w, grad_dens.ravel()) / grad_total if grad_total > 0 else 0.0
        pot = _real_multiply(what_half, rho)
        v = hN * float(np.sum(pot * rho))
        e = 0.5 * hs_sq - 0.25 * v
        lpc = float((hN * float(np.sum(rho ** (0.5 * p.p_c)))) ** (1.0 / p.p_c))
        if gs is not None:
            factor = m**p.mass_power
            me_ratio = factor * e / gs.me_Q
            grad_ratio = factor * hs_sq / gs.grad_Q
            membership = classify_from_ratios(me_ratio, grad_ratio).verdict
        else:
            me_ratio = grad_ratio = float("nan")
            membership = "Unknown"
        if track_soliton:  # ||u e^{-it} - Q|| = ||u - Q e^{it}||
            diff = q_ref * np.exp(1j * t)
            np.subtract(vals, diff, out=diff)
            flat = diff.view(np.float64).ravel()
            sol = math.sqrt(hN * _dot(flat, flat)) / q_l2
        else:
            sol = float("nan")
        times.append(t)
        mass_s.append(m)
        energy_s.append(e)
        hs_s.append(hs)
        hsc_s.append(hsc)
        v_s.append(v)
        lpc_s.append(lpc)
        me_s.append(me_ratio)
        gr_s.append(grad_ratio)
        member_s.append(membership)
        tailf_s.append(tail_frac)
        stri_s.append(accum_qc ** (1.0 / qc))
        sol_s.append(sol)
        dt_s.append(dt_eff)
        if cfg.snapshot_every > 0 and (len(times) - 1) % cfg.snapshot_every == 0:
            snaps.append((t, field_from_values(grid, vals)))
        return m, hs, grad_ratio, tail_frac

    def nonfinite(m: float, hs: float) -> bool:
        """Whether a sample's mass or H^s norm is not finite; records the
        caveat of the stop that follows."""
        if math.isfinite(m) and math.isfinite(hs):
            return False
        caveats.append(f"non-finite state at t={t:.6g}")
        return True

    dt_eff = _adapted_dt(float(np.max(rho)), cfg, mult) if cfg.adaptive else cfg.dt
    m0, hs0, _, tail0 = sample(dt_eff)
    if nonfinite(m0, hs0):
        verdict = VERDICT_INCONCLUSIVE
    elif tail0 > cfg.tail_fraction_max:
        caveats.append(f"initial state already under-resolved (tail fraction {tail0:.3g})")
    floored = False
    hs_limit = cfg.blowup_grad_factor * hs0
    t_stop = cfg.t_end * (1.0 - 1e-12)
    slack = cfg.t_end - t_stop

    while t < t_stop and verdict is None:
        if cfg.adaptive:
            dt_eff = _adapted_dt(float(np.max(rho)), cfg, mult)
            if dt_eff <= cfg.dt_min and not floored:
                floored = True
                caveats.append(f"step floored at dt_min={cfg.dt_min:g} from t={t:.6g}")
        else:
            dt_eff = cfg.dt
        # a remainder short of dt_eff by no more than the stop slack is a
        # rounding hair of the accumulated t, not a shorter step
        rest = cfg.t_end - t
        dt_step = dt_eff if rest >= dt_eff - slack else rest
        accum_qc += dt_step * hN * float(np.sum(rho ** (0.5 * qc)))
        if dt_step != half_dt:
            half, half_dt = _half_step_phase(xi2s, dt_step), dt_step
        vals, hat = _strang(hat, half, what_half, dt_step, cfg.nonlinear, mask)
        rho = vals.real**2 + vals.imag**2
        t += dt_step
        n_steps += 1
        at_end = t >= t_stop
        if n_steps % cfg.record_every == 0 or at_end:
            m_k, hs_k, grad_ratio_k, tail_k = sample(dt_eff)
            if nonfinite(m_k, hs_k):
                verdict = VERDICT_INCONCLUSIVE
            elif hs_k > hs_limit:
                verdict = VERDICT_BLOWUP
                t_star = t
            elif tail_k > cfg.tail_fraction_max:
                caveats.append(
                    f"stopped at t={t:.6g}: tail fraction {tail_k:.3g} exceeds "
                    f"{cfg.tail_fraction_max:g}, grid no longer resolves the state"
                )
                if grad_ratio_k > 1.0 or np.isnan(grad_ratio_k):
                    verdict = VERDICT_BLOWUP
                    t_star = t
                else:
                    verdict = VERDICT_INCONCLUSIVE

    if verdict is None:
        sol_arr = np.asarray(sol_s)
        gr_arr = np.asarray(gr_s)
        if track_soliton and bool(np.all(sol_arr < SOLITON_DEVIATION_TOL)):
            verdict = VERDICT_SOLITON
        elif (
            gs is not None
            and bool(np.all(gr_arr < 1.0))
            and v_s[-1] < DISPERSAL_V_FRACTION * v_s[0]
        ):
            verdict = VERDICT_DISPERSING
        else:
            verdict = VERDICT_INCONCLUSIVE

    return RunRecord(
        params=p,
        config=cfg,
        times=np.asarray(times),
        mass_series=np.asarray(mass_s),
        energy_series=np.asarray(energy_s),
        hs_series=np.asarray(hs_s),
        hsc_series=np.asarray(hsc_s),
        v_series=np.asarray(v_s),
        lpc_series=np.asarray(lpc_s),
        me_ratio_series=np.asarray(me_s),
        grad_ratio_series=np.asarray(gr_s),
        membership_series=tuple(member_s),
        tail_fraction_series=np.asarray(tailf_s),
        strichartz_accum=np.asarray(stri_s),
        soliton_deviation=np.asarray(sol_s),
        dt_series=np.asarray(dt_s),
        verdict=verdict,
        t_star=t_star,
        n_steps=n_steps,
        final_state=field_from_values(grid, vals),
        caveats=tuple(caveats),
        snapshots=tuple(snaps),
    )


def invariance_audit(rec: RunRecord) -> InvarianceReport:
    """Check that a run with me_ratio(0) < 1 never switched between K1 and
    K2, and report the margin by which grad_ratio stayed on its side of 1."""
    initial = rec.membership_series[0]
    applicable = (
        not np.isnan(rec.me_ratio_series[0])
        and rec.me_ratio_series[0] < 1.0
        and initial in ("K1", "K2")
    )
    if not applicable:
        return InvarianceReport(
            initial_membership=initial,
            applicable=False,
            flipped=False,
            flip_index=None,
            grad_gap=float("nan"),
        )
    opposite = "K2" if initial == "K1" else "K1"
    flip_index = None
    for k, label in enumerate(rec.membership_series):
        if label == opposite:
            flip_index = k
            break
    if initial == "K1":
        grad_gap = float(np.min(1.0 - rec.grad_ratio_series))
    else:
        grad_gap = float(np.min(rec.grad_ratio_series - 1.0))
    return InvarianceReport(
        initial_membership=initial,
        applicable=True,
        flipped=flip_index is not None,
        flip_index=flip_index,
        grad_gap=grad_gap,
    )
