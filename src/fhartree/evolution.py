"""Time evolution of the focusing fractional Hartree flow on the periodic box.

The integrator is Strang splitting between the free fractional flow and the
gauge rotation generated by the Hartree potential.  Both substeps are exact:
the linear half-step multiplies by e^{-i (dt/2) |xi|^{2s}} in Fourier space,
and because |u| is pointwise invariant under u -> u exp(i dt (W*|u|^2)) the
nonlinear step applies the exact phase for frozen modulus.  Each substep is
unitary on the grid, so discrete mass is conserved to rounding for any dt,
the map is time-reversible, and the composition is second order in dt.

The loop runs on one of the two transform sets of spectral.step_transform.
On the whole grid they are numpy's fftn/ifftn and the real pair
rfftn/irfftn on the half spectrum.  When u0 (and the ground state a run
tracks) is mirror-even in every axis, as c*Q is to rounding, the loop runs
on the orthant of n/2+1 points per axis (spectral.Orthant): a transform is
one pass per axis over (n/2+1)^(N-1) lines where the whole grid has
n^(N-1), the transform of the mirror-extended axis for the complex pair
and its real part, the DCT-I, for the real one.  Up to
spectral.DENSE_MAX_POINTS points per axis a pass is one dense cosine
product (a BLAS matrix product), above it a 1-D fft/ifft or rfft of the
extension.  Every pointwise pass covers (n/2+1)^N points, and every sum
weighs each point by the number of grid points it stands for.  An
orthant run agrees with the whole-grid run to rounding, not bit for bit;
its snapshots and final state are expanded to the whole centered grid,
exactly mirror-even.  A transform counted below is one n-dimensional
transform on the whole grid and N passes on the orthant.

The step loop carries the raw spectrum fft(u) from one step to the next.
A step is the free half-step on the spectrum, ifft, the nonlinear phase,
fft, and the trailing free half-step; the Hartree potential of the real
density |u|^2 goes through the real pair.  Every step stops after its fft
and leaves the trailing half-step (and the dealias mask) owed: the next
step applies it just before its own leading half-step, and a row of the
record that returns to the step boundary applies it in place, the same
multiplies on the spectrum in the same order.  A step thus makes 2
complex transforms plus a real pair, linear steps one complex pair.  The
adaptive step and the space-time norm read the density a step leaves
behind, its midpoint density, which the Hartree phase forms anyway (|u0|^2
for the first step).  So whatever the rows kept, the spectrum is bit for
bit the same, at a fixed dt and an adaptive one.

Every record_every steps the loop checks its stop conditions on the
carried spectrum: mass, the H^s-dot norm, the tail fraction and grad_ratio
are weighted sums of |u_hat|^2, one matrix-vector product, and the
soliton distance is a sum over the spectrum too.  A check makes no
transform.  A row returns to the boundary with one more complex transform
(ifft) and one real forward transform for V.  The half-step phase table
is rebuilt only when the step size changes.  The centering phases of the
transform convention cancel for diagonal multipliers, so the raw
transforms are used throughout.

A run builds its tables once, in the working shape of its transforms:
the half-step symbol |xi|^{2s}, the dealias mask and the weights of a
check come from the seam's own |xi|^2 and mask (on the orthant built from
one axis, bit for bit the orthant of the whole-grid tables), and the
Hartree kernel is the multiplier set's orthant table, read in place.  So
an orthant run holds no whole-grid array but u0, the ground state it
tracks and the final state and snapshots it returns.

A run allocates its work arrays once (_StepWork) and writes every
transform and elementwise pass of the loop into them with out=: the
carried spectrum hat, the field vals, the rotated field rot, the density
rho, the phase, the spectrum of the real transform, and, in a check,
|u_hat|^2; the products of checks and rows reuse the phase array, and
the soliton distance the rot array.  On the whole 256^2 grid each of these
is 0.5-1 MiB, and a fresh array of that size costs page faults and
zeroing on every call.  The values are those of the allocating loop, bit
for bit.  Snapshots and the final state are copies, never views of a
reused array.

A run produces a RunRecord: one column table (RUN_COLUMNS) of sampled
conserved quantities, scale-invariant threshold ratios, set membership and
a running space-time norm, and a final verdict (Soliton / GlobalDispersing
/ BlowUp / Inconclusive).  Focusing runs shrink the step so the nonlinear
phase per step stays below a fixed cap, and refuse to continue once a fixed
fraction of the gradient norm sits in the top third of the spectrum (the
grid can no longer represent the state; the refusal is recorded in-band as
a caveat, never an exception).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from .functionals import classify_from_ratios
from .params import PhysParams
from .spectral import (
    FullGrid,
    MultiplierSet,
    Orthant,
    SpectralField,
    field_from_values,
    parseval_weight,
    step_transform,
)

SOLITON_DEVIATION_TOL = 1e-3
ENERGY_DRIFT_TOL = 1e-2  # |E(t) - E(0)| / |E(0)| past which a run gets a caveat
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
    the spectrum before the run refuses to continue.  record_every is the
    cadence of the stop checks, and of the rows a run keeps.
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
        for name in ("dt", "t_end", "dt_min", "blowup_grad_factor", "tail_fraction_max",
                     "phase_cap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


#: The columns of a run record, one value per sample each, in run.csv order.
RUN_COLUMNS = (
    "time", "mass", "energy", "hs", "hsc", "v", "lpc", "me_ratio", "grad_ratio",
    "membership", "tail_fraction", "strichartz_accum", "soliton_deviation", "dt_eff",
)


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and one line per row, floats as %.15e and anything
    else as str, so identical runs produce byte-identical files."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.15e}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


@dataclass
class RunRecord:
    """Sampled time series and the final verdict of one evolution run.

    series maps each name of RUN_COLUMNS to its values, one per sample: a
    float array, and a tuple of str for membership.  Ratio and deviation
    entries are NaN when no ground state was supplied (or its grid differs
    from the run grid, for the deviation).  strichartz_accum[k] is the
    running value of (sum over steps so far of dt * ||u||_{q_c}^{q_c})^{1/q_c}.
    dt_eff[k] is the step in effect at sample k (adapted, when adaptive is
    set) before clipping to t_end.  Each step's term of the space-time sum
    and its adapted dt read the midpoint density of the step before it
    (|u0|^2 for the first step; see the module docstring), so no column
    depends on which rows were kept.  A run of evolve(keep_rows=False)
    holds only its first and last samples, and its energy-drift caveat
    compares only those two.
    """

    params: PhysParams
    config: StepperConfig
    series: dict[str, np.ndarray | tuple[str, ...]]
    verdict: str
    t_star: float | None
    n_steps: int
    final_state: SpectralField
    caveats: tuple[str, ...] = field(default=())
    snapshots: tuple[tuple[float, SpectralField], ...] = field(default=(), repr=False)

    @property
    def times(self) -> np.ndarray:
        return self.series["time"]

    def ratio(self, name: str) -> float:
        """Final over initial value of a series."""
        col = self.series[name]
        return float(col[-1] / col[0])

    @property
    def mass_drift(self) -> float:
        mass = self.series["mass"]
        return float(np.max(np.abs(mass - mass[0])) / mass[0])

    @property
    def energy_drift(self) -> float:
        energy = self.series["energy"]
        e0 = energy[0]
        scale = abs(e0) if e0 != 0.0 else 1.0
        return float(np.max(np.abs(energy - e0)) / scale)

    @property
    def v_ratio_final(self) -> float:
        return self.ratio("v")

    def summary(self) -> dict:
        s = self.series
        return {
            "verdict": self.verdict,
            "t_star": self.t_star,
            "t_final": float(s["time"][-1]),
            "n_steps": self.n_steps,
            "n_samples": int(s["time"].size),
            "mass_drift": self.mass_drift,
            "energy_drift": self.energy_drift,
            "me_ratio_initial": float(s["me_ratio"][0]),
            "grad_ratio_initial": float(s["grad_ratio"][0]),
            "grad_ratio_final": float(s["grad_ratio"][-1]),
            "v_ratio_final": self.v_ratio_final,
            "hs_growth": self.ratio("hs"),
            "strichartz_accum": float(s["strichartz_accum"][-1]),
            "membership_initial": s["membership"][0],
            "caveats": list(self.caveats),
        }

    def to_csv(self, path) -> None:
        """Write the series as run.csv, one row per sample."""
        write_csv(path, RUN_COLUMNS, zip(*(self.series[name] for name in RUN_COLUMNS)))


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


def _adapted_dt(amp: float, cfg: StepperConfig, mult: MultiplierSet) -> float:
    """Effective step for the amplitude amp = max|u|^2: the nominal dt
    shrunk so the worst-case nonlinear phase increment amp * W_hat(0) * dt
    stays below phase_cap, never below dt_min."""
    scale = amp * mult.kernel_zero_mode
    if scale <= 0.0:
        return cfg.dt
    return max(cfg.dt_min, min(cfg.dt, cfg.phase_cap / scale))


def _half_step_phase(frac_lap_s: np.ndarray, dt: float) -> np.ndarray:
    """The free half-step multiplier exp(-i (dt/2) |xi|^{2s})."""
    return np.exp(-0.5j * dt * frac_lap_s)


class _StepWork:
    """The transforms tr of the step loop and its work arrays, allocated
    once per run in tr's working shape: the field vals, the rotated field
    rot, the densities rho and phase, and the spectrum rhat of the real
    transform."""

    def __init__(self, tr: FullGrid | Orthant):
        self.tr = tr
        self.vals = np.empty(tr.shape, dtype=np.complex128)
        self.rot = np.empty(tr.shape, dtype=np.complex128)
        self.rho = np.empty(tr.shape)
        self.phase = np.empty(tr.shape)
        self.rhat = tr.real_spectrum()


def _abs_sq(z: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|z|^2 = z.real**2 + z.imag**2 into out, the second square in scratch."""
    np.multiply(z.real, z.real, out=out)
    np.multiply(z.imag, z.imag, out=scratch)
    out += scratch
    return out


def _free_half_step(hat: np.ndarray, half: np.ndarray, mask: np.ndarray | None) -> None:
    """The free half-step on the spectrum hat, in place: the phase table
    half, then the dealias mask when one is given."""
    hat *= half
    if mask is not None:
        hat *= mask


def _strang(
    hat: np.ndarray,
    half: np.ndarray,
    what_s: np.ndarray,
    dt: float,
    nonlinear: bool,
    mask: np.ndarray | None,
    work: _StepWork,
) -> None:
    """One Strang step on the raw spectrum hat = work.tr.fft(u), in place,
    stopped after its forward transform.

    On return hat still owes the trailing _free_half_step(hat, half, mask):
    the next step applies it just before its own leading half-step, or
    _to_boundary applies it to return to the step boundary.  work.rho
    holds the midpoint density, linear steps included.  Every transform
    and elementwise pass writes into hat or work: the midpoint field into
    work.vals, its density into work.rho, the Hartree phase into
    work.phase (through the real spectrum work.rhat), the rotated field
    into work.rot.  half is the half-step phase and mask the dealias mask,
    both in work.tr's working shape; what_s is work.tr.even_spectrum of
    the Hartree kernel.
    """
    tr = work.tr
    _free_half_step(hat, half, mask)
    vals = tr.ifft(hat, out=work.vals)
    rho = _abs_sq(vals, work.rho, work.phase)
    if nonlinear:
        phase = tr.real_multiply(what_s, rho, out=work.phase, hat=work.rhat)
        phase *= dt
        rot = work.rot  # exp(i phase) from real cos/sin
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        rot *= vals
        tr.fft(rot, out=hat)


def _to_boundary(hat: np.ndarray, owed: np.ndarray, mask: np.ndarray | None,
                 work: _StepWork) -> np.ndarray:
    """The trailing half-step owed applied to hat in place, and the field at
    the step boundary, the inverse transform of hat, in work.vals (which the
    next step overwrites, so callers keep copies)."""
    _free_half_step(hat, owed, mask)
    return work.tr.ifft(hat, out=work.vals)


def evolve(
    u0: SpectralField,
    p: PhysParams,
    mult: MultiplierSet,
    cfg: StepperConfig,
    gs: GroundStateLike | None = None,
    keep_rows: bool = True,
) -> RunRecord:
    """Integrate i u_t = (-Delta)^s u - (W*|u|^2) u from u0 to t_end.

    Checks the stop conditions every record_every steps (plus t=0 and the
    end point) and classifies the run:

    * BlowUp    -- the H^s-dot norm exceeded blowup_grad_factor times its
                   initial value, or the spectral tail grew past
                   tail_fraction_max while grad_ratio > 1; t_star is the
                   check time of the trigger.
    * Soliton   -- a ground state was supplied and the gauge-corrected
                   distance ||u e^{-it} - Q||_2 / ||Q||_2 stayed below 1e-3
                   at every check.
    * GlobalDispersing -- the run finished with grad_ratio < 1 at every
                   check and V(t_end) < 0.5 V(0).
    * Inconclusive otherwise (including tail refusal without gradient
                   growth, and a check whose mass or H^s-dot norm is not
                   finite, which stops the run; either stop is recorded as
                   a caveat).

    A check reads |u_hat|^2 of the carried spectrum, whose owed half-step
    is a unimodular phase, with the dealias mask folded into its weights:
    mass, the H^s-dot norm, the tail fraction and grad_ratio are rows of
    one matrix-vector product, and the soliton distance, a sum over the
    spectrum too, is taken while a Soliton verdict is still possible.  It
    makes no transform.  A row of the record returns to the step boundary
    (applying the owed half-step to the carried spectrum, as the next step
    would) and adds the columns that need the field: V, the energy, hsc,
    lpc, the membership and the snapshots.  With keep_rows a row is kept
    at every check; without it only the first and the last, which is all
    a caller that reads only the verdict and t_star needs.  Since no row
    changes the spectrum the next step sees, and every step reads the
    midpoint density of the step before, the trajectory, the final state,
    verdict, t_star and n_steps are bit for bit the same either way.

    The first row whose energy has moved more than ENERGY_DRIFT_TOL of
    |E(0)| adds a caveat; it does not change the verdict.
    """
    if u0.grid != mult.grid:
        raise ValueError("initial state and multiplier set live on different grids")
    if mult.s != p.s or mult.gamma != p.gamma:
        raise ValueError(
            f"multiplier set built for (s, gamma) = ({mult.s}, {mult.gamma}), "
            f"run requested ({p.s}, {p.gamma})"
        )
    grid = u0.grid
    track_soliton = gs is not None and gs.q.grid == grid
    tr = step_transform(grid, u0.values, *((gs.q.values,) if track_soliton else ()))
    hN = grid.h**grid.N
    plancherel = parseval_weight(grid) * hN * hN  # |raw fft|^2 -> physical L^2 mass
    # every table in tr's working shape: on the orthant built from one axis
    xi2s = tr.frac_lap(mult)
    what_s = tr.even_spectrum(mult.hartree_kernel_orthant)
    keep = tr.dealias_mask()
    mask = keep if cfg.dealias else None
    qc = p.q_c

    def check_weights(kept: np.ndarray) -> np.ndarray:
        """Rows of weights on |u_hat|^2 over the modes kept (a 0/1 table):
        mass, H^s-dot and its part in the top third of the spectrum, which
        a check reads, and H^{s_c}-dot, which only a row reads."""
        grad = xi2s * kept
        return np.stack([tr.sum_weights(kept), tr.sum_weights(grad),
                         tr.sum_weights(grad * ~keep),
                         tr.sum_weights(tr.xi_sq**p.s_c * kept)])

    # the spectrum at t=0 is whole; every later one carries the mask
    whole = check_weights(np.ones(tr.shape))
    carried = whole if mask is None else check_weights(keep.astype(np.float64))

    if track_soliton:
        q_hat = tr.fft(tr.reduce(gs.q.values))
        q_l2 = gs.l2

    work = _StepWork(tr)
    vals = work.vals
    np.copyto(vals, tr.reduce(u0.values))
    hat = tr.fft(vals)  # carried from step to step: the spectrum of vals
    # the density the last step left: |u0|^2, then each step's midpoint density
    rho = _abs_sq(vals, work.rho, work.phase)
    scratch = work.phase  # free between steps: the products of checks and rows
    hat_sq = np.empty(tr.shape)  # |u_hat|^2 of a check
    v_weights = tr.pairing_weights(what_s)  # V = <rho, W * rho> by Parseval
    half = half_dt = None  # half-step phase and the dt it was built for
    owed = None  # the half-step phase hat still owes
    t = 0.0
    n_steps = 0
    accum_qc = 0.0  # running sum of dt * ||u||_{q_c}^{q_c}
    caveats: list[str] = []
    drifted = False  # whether the energy-drift caveat has been recorded
    verdict: str | None = None
    t_star: float | None = None
    soliton_ok = track_soliton  # every check so far within SOLITON_DEVIATION_TOL
    grad_below = gs is not None  # grad_ratio < 1 at every check so far

    rows: list[tuple] = []  # in RUN_COLUMNS order
    snaps: list[tuple[float, SpectralField]] = []

    def soliton_deviation() -> float:
        """||u e^{-it} - Q||_2 / ||Q||_2 from the spectrum hat owes owed."""
        diff = work.rot
        if owed is None:
            np.copyto(diff, hat)
        else:
            np.multiply(hat, owed, out=diff)
            if mask is not None:
                diff *= mask
        diff *= np.exp(-1j * t)
        diff -= q_hat
        return math.sqrt(plancherel * tr.norm_sq(diff)) / q_l2

    def check(w: np.ndarray) -> tuple[float, float, float, float, float | None]:
        """(mass, hs^2, tail fraction, grad_ratio, soliton deviation or None)
        of the carried spectrum, for the weights w of check_weights; keeps
        the running verdict flags."""
        nonlocal soliton_ok, grad_below
        mass_total, grad_total, tail_total = (
            float(x) for x in w[:3] @ _abs_sq(hat, hat_sq, scratch).ravel())
        m = plancherel * mass_total
        hs_sq = plancherel * grad_total
        tail_frac = tail_total / grad_total if grad_total > 0 else 0.0
        if gs is not None:
            grad_ratio = m**p.mass_power * hs_sq / gs.grad_Q
            grad_below = grad_below and grad_ratio < 1.0
        else:
            grad_ratio = float("nan")
        sol = None
        if soliton_ok:
            sol = soliton_deviation()
            soliton_ok = sol < SOLITON_DEVIATION_TOL
        return m, hs_sq, tail_frac, grad_ratio, sol

    def row(w: np.ndarray, c: tuple, dt_eff: float) -> None:
        """Keep one row for the check c, made with the weights w."""
        nonlocal owed, drifted
        m, hs_sq, tail_frac, grad_ratio, sol = c
        hsc = math.sqrt(plancherel * float(w[3] @ hat_sq.ravel()))
        if owed is not None:  # into vals
            _to_boundary(hat, owed, mask, work)
            owed = None
        rho_b = _abs_sq(vals, scratch, hat_sq)
        v = tr.quadratic_form(v_weights, rho_b, hat=work.rhat)
        e = 0.5 * hs_sq - 0.25 * v
        if rows and not drifted:  # scaled as in RunRecord.energy_drift
            e0 = rows[0][2]
            drift = abs(e - e0) / (abs(e0) if e0 != 0.0 else 1.0)
            if drift > ENERGY_DRIFT_TOL:
                drifted = True
                caveats.append(f"energy drift {drift:.3g} of |E(0)| exceeds "
                               f"{ENERGY_DRIFT_TOL:g} from t={t:.6g}")
        lpc_sum = tr.total(np.power(rho_b, 0.5 * p.p_c, out=hat_sq))
        lpc = float((hN * lpc_sum) ** (1.0 / p.p_c))
        if gs is not None:
            me_ratio = m**p.mass_power * e / gs.me_Q
            membership = classify_from_ratios(me_ratio, grad_ratio).verdict
        else:
            me_ratio = float("nan")
            membership = "Unknown"
        if sol is None:
            sol = soliton_deviation() if track_soliton else float("nan")
        rows.append((t, m, e, math.sqrt(hs_sq), hsc, v, lpc, me_ratio, grad_ratio, membership,
                     tail_frac, accum_qc ** (1.0 / qc), sol, dt_eff))
        if cfg.snapshot_every > 0 and (len(rows) - 1) % cfg.snapshot_every == 0:
            snaps.append((t, field_from_values(grid, tr.expand(vals))))

    def nonfinite(m: float, hs_sq: float) -> str | None:
        """The caveat of the stop when a check's mass or H^s norm is not
        finite, else None."""
        if math.isfinite(m) and math.isfinite(hs_sq):
            return None
        return f"non-finite state at t={t:.6g}"

    dt_eff = _adapted_dt(float(np.max(rho)), cfg, mult) if cfg.adaptive else cfg.dt
    c0 = check(whole)
    row(whole, c0, dt_eff)
    m0, hs0_sq, tail0 = c0[:3]
    note = nonfinite(m0, hs0_sq)
    if note is not None:
        verdict = VERDICT_INCONCLUSIVE
        caveats.append(note)
    elif tail0 > cfg.tail_fraction_max:
        caveats.append(f"initial state already under-resolved (tail fraction {tail0:.3g})")
    floored = False
    hs_limit = cfg.blowup_grad_factor * math.sqrt(hs0_sq)
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
        accum_qc += dt_step * hN * tr.total(np.power(rho, 0.5 * qc, out=scratch))
        if owed is not None:
            _free_half_step(hat, owed, mask)
        if dt_step != half_dt:
            half, half_dt = _half_step_phase(xi2s, dt_step), dt_step
        t += dt_step
        n_steps += 1
        _strang(hat, half, what_s, dt_step, cfg.nonlinear, mask, work)  # rho: midpoint
        owed = half
        if n_steps % cfg.record_every != 0 and t < t_stop:
            continue
        c = check(carried)
        m_k, hs_sq_k, tail_k, grad_ratio_k, _ = c
        note = nonfinite(m_k, hs_sq_k)
        if note is not None:
            verdict = VERDICT_INCONCLUSIVE
        elif math.sqrt(hs_sq_k) > hs_limit:
            verdict = VERDICT_BLOWUP
            t_star = t
        elif tail_k > cfg.tail_fraction_max:
            note = (f"stopped at t={t:.6g}: tail fraction {tail_k:.3g} exceeds "
                    f"{cfg.tail_fraction_max:g}, grid no longer resolves the state")
            if grad_ratio_k > 1.0 or np.isnan(grad_ratio_k):
                verdict = VERDICT_BLOWUP
                t_star = t
            else:
                verdict = VERDICT_INCONCLUSIVE
        if keep_rows or verdict is not None or t >= t_stop:
            row(carried, c, dt_eff)  # its energy-drift caveat comes first
        if note is not None:
            caveats.append(note)

    series = {name: tuple(col) if name == "membership" else np.array(col)
              for name, col in zip(RUN_COLUMNS, zip(*rows))}
    if verdict is None:
        v_col = series["v"]
        if soliton_ok:
            verdict = VERDICT_SOLITON
        elif grad_below and v_col[-1] < DISPERSAL_V_FRACTION * v_col[0]:
            verdict = VERDICT_DISPERSING
        else:
            verdict = VERDICT_INCONCLUSIVE

    return RunRecord(
        params=p,
        config=cfg,
        series=series,
        verdict=verdict,
        t_star=t_star,
        n_steps=n_steps,
        final_state=field_from_values(grid, tr.expand(vals)),
        caveats=tuple(caveats),
        snapshots=tuple(snaps),
    )


def invariance_audit(rec: RunRecord) -> InvarianceReport:
    """Check that a run with me_ratio(0) < 1 never switched between K1 and
    K2, and report the margin by which grad_ratio stayed on its side of 1."""
    members, grad_ratio = rec.series["membership"], rec.series["grad_ratio"]
    initial = members[0]
    if not (rec.series["me_ratio"][0] < 1.0 and initial in ("K1", "K2")):  # False for NaN
        return InvarianceReport(
            initial_membership=initial,
            applicable=False,
            flipped=False,
            flip_index=None,
            grad_gap=float("nan"),
        )
    opposite = "K2" if initial == "K1" else "K1"
    flip_index = next((k for k, label in enumerate(members) if label == opposite), None)
    gap = 1.0 - grad_ratio if initial == "K1" else grad_ratio - 1.0
    return InvarianceReport(
        initial_membership=initial,
        applicable=True,
        flipped=flip_index is not None,
        flip_index=flip_index,
        grad_gap=float(np.min(gap)),
    )
