"""Splitting integrator: exactness properties, verdicts, record plumbing."""

from __future__ import annotations

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import force_full_grid, force_orthant_path, solve_setup
from hypothesis import given
from hypothesis import strategies as st

from fhartree import evolution, spectral
from fhartree.evolution import (
    StepperConfig,
    _adapted_dt,
    evolve,
    invariance_audit,
    wrap_time,
)
from fhartree.functionals import (
    classify_from_ratios,
    classify_membership,
    energy,
    hartree_energy,
    invariant_pair,
    mass,
)
from fhartree.ground_state import solve_ground_state
from fhartree.params import PhysParams
from fhartree.spectral import (
    dealias_mask,
    field_from_values,
    make_grid,
    make_multipliers,
    parseval_weight,
    random_smooth_field,
    sobolev_norm,
    to_fourier,
)
from whole_grid import linear_propagator, lp_norm, strang_step


def _rng_field(grid, seed):
    rng = random.Random(seed)
    return field_from_values(grid, random_smooth_field(grid, rng))


# --------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "kw",
    [
        {"dt": 0.0},
        {"dt": -1e-3},
        {"t_end": 0.0},
        {"record_every": 0},
        {"dt_min": 0.0},
        {"dt_min": 2e-3, "dt": 1e-3},
        {"blowup_grad_factor": 1.0},
        {"tail_fraction_max": 0.0},
        {"tail_fraction_max": 1.0},
        {"phase_cap": 0.0},
    ],
)
def test_stepper_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        StepperConfig(**kw)


def test_evolve_rejects_mismatched_inputs(canonical, params):
    u0 = _rng_field(canonical.grid, 5)
    other_grid = make_grid(N=2, n=64, L=16.0)
    with pytest.raises(ValueError):
        evolve(u0, params, make_multipliers(other_grid, params),
               StepperConfig(t_end=0.01))
    from fhartree.params import PhysParams

    p2 = PhysParams(N=2, s=0.6, gamma=1.4)
    with pytest.raises(ValueError):
        evolve(u0, p2, canonical.mult, StepperConfig(t_end=0.01))


# --------------------------------------------------------------------------
# single-step algebra


def test_strang_step_is_unitary(canonical):
    u = _rng_field(canonical.grid, 11)
    v = strang_step(u, canonical.mult, dt=2e-3)
    assert np.isclose(mass(v), mass(u), rtol=1e-13)


def test_strang_step_linear_part_matches_propagator(canonical):
    u = _rng_field(canonical.grid, 12)
    v = strang_step(u, canonical.mult, dt=3e-3, nonlinear=False)
    w = linear_propagator(u, 3e-3, canonical.p.s)
    assert np.max(np.abs(v.values - w.values)) < 1e-13 * np.max(np.abs(u.values))


def test_strang_step_is_time_reversible(canonical):
    u = _rng_field(canonical.grid, 13)
    fwd = u
    for _ in range(10):
        fwd = strang_step(fwd, canonical.mult, dt=2e-3)
    back = fwd
    for _ in range(10):
        back = strang_step(back, canonical.mult, dt=-2e-3)
    assert np.max(np.abs(back.values - u.values)) < 1e-11 * np.max(np.abs(u.values))


def test_strang_step_on_the_orthant_matches_full_grid(canonical, monkeypatch):
    # Q is mirror-even: strang_step runs it on the orthant, dealias mask
    # included, and hands back an exactly mirror-even field
    u = canonical.gs.q
    mask = dealias_mask(canonical.grid)
    orth = strang_step(u, canonical.mult, dt=2e-3, mask=mask)
    force_full_grid(monkeypatch)
    full = strang_step(u, canonical.mult, dt=2e-3, mask=mask)
    assert _exactly_mirror_even(orth.values)
    assert np.max(np.abs(orth.values - full.values)) <= 1e-13 * np.max(np.abs(full.values))


@pytest.fixture(scope="module")
def small(params):
    grid = make_grid(N=2, n=32, L=16.0)
    return grid, make_multipliers(grid, params)


# dt drawn from +-[1e-4, 5e-2]
_signed_dt = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(1e-4, 5e-2)).map(
    lambda pair: pair[0] * pair[1]
)


@given(seed=st.integers(0, 2**32 - 1), dt=_signed_dt)
def test_strang_step_keeps_mass_property(small, seed, dt):
    grid, mult = small
    u = _rng_field(grid, seed)
    v = strang_step(u, mult, dt=dt)
    assert abs(mass(v) - mass(u)) <= 1e-13 * mass(u)


@given(seed=st.integers(0, 2**32 - 1), dt=_signed_dt)
def test_strang_step_reverses_property(small, seed, dt):
    grid, mult = small
    u = _rng_field(grid, seed)
    back = strang_step(strang_step(u, mult, dt=dt), mult, dt=-dt)
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_dealias_projection_breaks_mass_by_tail_only(canonical):
    # smooth field: tail is negligible, mass loss at rounding level
    u = _rng_field(canonical.grid, 14)
    mask = dealias_mask(canonical.grid)
    v = strang_step(u, canonical.mult, dt=1e-3, mask=mask)
    assert mass(v) <= mass(u) * (1.0 + 1e-13)
    # field with genuine content at 90% Nyquist: projection removes it
    g = canonical.grid
    k_hi = 0.9 * np.pi * g.n / g.L
    vals = np.exp(-g.r_mesh**2) * (1.0 + 0.5 * np.exp(1j * k_hi * g.x_mesh[0]))
    w = field_from_values(g, vals.astype(complex))
    w2 = strang_step(w, canonical.mult, dt=1e-3, mask=mask)
    assert mass(w2) < 0.95 * mass(w)


# --------------------------------------------------------------------------
# convergence order


def test_energy_drift_is_second_order(canonical):
    drifts = []
    for dt in (4e-3, 2e-3):
        u0 = field_from_values(canonical.grid, 0.9 * canonical.gs.q.values)
        cfg = StepperConfig(dt=dt, t_end=0.5, record_every=25, adaptive=False)
        drifts.append(evolve(u0, canonical.p, canonical.mult, cfg, gs=canonical.gs).energy_drift)
    order = np.log2(drifts[0] / drifts[1])
    assert 1.8 < order < 2.2


def test_soliton_deviation_is_second_order(canonical):
    devs = []
    for dt in (2e-3, 1e-3):
        cfg = StepperConfig(dt=dt, t_end=0.2, record_every=20, adaptive=False)
        rec = evolve(canonical.gs.q, canonical.p, canonical.mult, cfg, gs=canonical.gs)
        devs.append(float(np.max(rec.series["soliton_deviation"])))
    assert 3.5 < devs[0] / devs[1] < 4.5


# --------------------------------------------------------------------------
# conservation


def test_soliton_run_conserves_invariants(soliton_run):
    assert soliton_run.mass_drift < 1e-12
    # Q is a relative equilibrium; its drift superconverges past O(dt^2)
    assert soliton_run.energy_drift < 1e-9


def test_dispersal_run_conserves_invariants(dispersal_run):
    assert dispersal_run.mass_drift < 5e-12
    assert dispersal_run.energy_drift < 1e-5
    assert not any(c.startswith("energy drift") for c in dispersal_run.caveats)


# --------------------------------------------------------------------------
# verdicts


def test_soliton_orbit_verdict(soliton_run):
    assert soliton_run.verdict == "Soliton"
    assert float(np.max(soliton_run.series["soliton_deviation"])) < 1e-4
    assert soliton_run.t_star is None
    assert soliton_run.series["membership"][0] == "Boundary"


def test_dispersal_verdict(dispersal_run):
    rec = dispersal_run
    assert rec.verdict == "GlobalDispersing"
    assert rec.v_ratio_final < 0.5
    assert np.all(rec.series["grad_ratio"] < 1.0)
    assert all(m == "K1" for m in rec.series["membership"])
    assert rec.t_star is None


def test_blowup_verdict_canonical(blowup_run):
    rec = blowup_run
    assert rec.verdict == "BlowUp"
    assert rec.t_star is not None and 0.9 < rec.t_star < 1.3
    # the canonical grid refuses on spectral-tail growth with grad_ratio > 1
    assert any("tail fraction" in c for c in rec.caveats)
    assert all(m == "K2" for m in rec.series["membership"])


def test_blowup_showcase_hits_gradient_trigger(blowup_showcase):
    _, rec = blowup_showcase
    assert rec.verdict == "BlowUp"
    assert rec.t_star is not None and 1.3 < rec.t_star < 1.5
    assert float(rec.series["hs"][-1] / rec.series["hs"][0]) > 10.0
    # genuine trigger: no tail or dt-floor caveat, and one energy-drift caveat
    # (E moves 8% of |E(0)| in the collapse)
    assert len(rec.caveats) == 1 and rec.caveats[0].startswith("energy drift ")
    assert all(m == "K2" for m in rec.series["membership"])


def test_under_resolved_k1_run_is_inconclusive(canonical):
    # small-amplitude packet at 80% Nyquist: grad_ratio stays tiny but the
    # top third of the spectrum holds nearly all of the gradient norm
    g = canonical.grid
    k_hi = 0.8 * np.pi * g.n / g.L
    vals = 1e-3 * np.exp(-g.r_mesh**2) * np.exp(1j * k_hi * g.x_mesh[0])
    u0 = field_from_values(g, vals.astype(complex))
    cfg = StepperConfig(dt=1e-3, t_end=0.1, record_every=10)
    rec = evolve(u0, canonical.p, canonical.mult, cfg, gs=canonical.gs)
    assert rec.verdict == "Inconclusive"
    assert any("already under-resolved" in c for c in rec.caveats)
    assert any("no longer resolves" in c for c in rec.caveats)


def test_blowup_without_ground_state(canonical):
    u0 = field_from_values(canonical.grid, 1.05 * canonical.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=2.0, record_every=10)
    rec = evolve(u0, canonical.p, canonical.mult, cfg)
    assert rec.verdict == "BlowUp"
    assert np.all(np.isnan(rec.series["me_ratio"]))
    assert np.all(np.isnan(rec.series["soliton_deviation"]))
    assert all(m == "Unknown" for m in rec.series["membership"])


# --------------------------------------------------------------------------
# invariance audit


def test_invariance_audit_k1(dispersal_run):
    rep = invariance_audit(dispersal_run)
    assert rep.applicable
    assert rep.initial_membership == "K1"
    assert not rep.flipped
    assert rep.grad_gap > 0.0
    assert rep.ok


def test_invariance_audit_k2(blowup_run):
    rep = invariance_audit(blowup_run)
    assert rep.applicable
    assert rep.initial_membership == "K2"
    assert not rep.flipped
    assert rep.grad_gap > 0.0
    assert rep.ok


def test_invariance_audit_boundary_not_applicable(soliton_run):
    rep = invariance_audit(soliton_run)
    assert not rep.applicable
    assert rep.ok
    assert np.isnan(rep.grad_gap)


# --------------------------------------------------------------------------
# adaptive step


def _max_density(u):
    return float(np.max(u.values.real**2 + u.values.imag**2))


def test_adapt_dt_caps_nonlinear_phase(canonical):
    # the first step of evolve, read off its dt_eff column
    cfg = StepperConfig(dt=1e-2, t_end=1e-3)
    big = field_from_values(canonical.grid, 5.0 * canonical.gs.q.values)
    rec = evolve(big, canonical.p, canonical.mult, cfg)
    dt_eff = rec.series["dt_eff"][0]
    assert dt_eff < cfg.dt
    assert dt_eff == _adapted_dt(_max_density(big), cfg, canonical.mult)
    amp = float(np.max(np.abs(big.values) ** 2))
    assert amp * canonical.mult.kernel_zero_mode * dt_eff <= cfg.phase_cap * (1 + 1e-12)


def test_adapt_dt_leaves_small_fields_alone(canonical):
    cfg = StepperConfig(dt=1e-3, t_end=1.0)
    tiny = field_from_values(canonical.grid, 1e-4 * canonical.gs.q.values)
    assert _adapted_dt(_max_density(tiny), cfg, canonical.mult) == cfg.dt


def test_adapt_dt_respects_floor(canonical):
    cfg = StepperConfig(dt=1e-2, dt_min=5e-3, t_end=1.0)
    huge = field_from_values(canonical.grid, 50.0 * canonical.gs.q.values)
    assert _adapted_dt(_max_density(huge), cfg, canonical.mult) == cfg.dt_min


# --------------------------------------------------------------------------
# sampling, snapshots, serialization


def test_record_cadence(soliton_run):
    rec = soliton_run
    assert rec.n_steps == 1000
    assert rec.times.size == 101
    assert np.allclose(np.diff(rec.times), 0.01, atol=1e-12)
    assert abs(rec.times[-1] - 1.0) < 1e-12


def test_no_snapshots_by_default(soliton_run):
    assert soliton_run.snapshots == ()


def test_snapshot_cadence_and_content(virial_fd):
    _, rec = virial_fd
    assert len(rec.snapshots) == rec.times.size
    for (ts, u), t in zip(rec.snapshots, rec.times):
        assert ts == t
    # the final snapshot is the final state
    assert np.array_equal(rec.snapshots[-1][1].values, rec.final_state.values)


def test_snapshots_and_final_state_are_copies(coarse):
    # the loop reuses its field array; every kept field must own its values
    u0 = field_from_values(coarse.grid, 0.8 * coarse.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=0.006, record_every=1, snapshot_every=1)
    rec = evolve(u0, coarse.p, coarse.mult, cfg, gs=coarse.gs)
    fields = [u.values for _, u in rec.snapshots] + [rec.final_state.values]
    assert len(rec.snapshots) == 7
    for i, a in enumerate(fields):
        assert not np.shares_memory(a, u0.values)
        for b in fields[i + 1:]:
            assert not np.shares_memory(a, b)
    for (_, a), (_, b) in zip(rec.snapshots, rec.snapshots[1:]):
        assert not np.array_equal(a.values, b.values)
    assert np.array_equal(rec.snapshots[-1][1].values, rec.final_state.values)


def test_runs_are_deterministic(canonical, tmp_path):
    u0 = field_from_values(canonical.grid, 0.95 * canonical.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=0.05, record_every=5)
    rec1 = evolve(u0, canonical.p, canonical.mult, cfg, gs=canonical.gs)
    rec2 = evolve(u0, canonical.p, canonical.mult, cfg, gs=canonical.gs)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rec1.to_csv(f1)
    rec2.to_csv(f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_csv_round_trip(soliton_run, tmp_path):
    path = tmp_path / "run.csv"
    soliton_run.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "time" and "membership" in header
    data = np.genfromtxt(path, delimiter=",", skip_header=1,
                         usecols=(0, 1, 2, 3))
    assert np.allclose(data[:, 0], soliton_run.times, atol=1e-14)
    assert np.allclose(data[:, 1], soliton_run.series["mass"], rtol=1e-14)
    assert np.allclose(data[:, 2], soliton_run.series["energy"], rtol=1e-14)
    assert np.allclose(data[:, 3], soliton_run.series["hs"], rtol=1e-14)


# --------------------------------------------------------------------------
# dispersion physics


def test_wave_packet_moves_at_group_velocity(params):
    """Centroid transport under the linear flow.

    The modulus of the spectrum is invariant, so the packet centroid moves
    at exactly the spectrum-averaged group velocity 2 s |xi|^{2s-2} xi_1;
    the closed-form carrier value 2 s k0^{2s-1} is off by the finite
    spectral width of the envelope (about 1% here).
    """
    g = make_grid(N=2, n=256, L=64.0)
    m = make_multipliers(g, params)
    dk = 2.0 * np.pi / g.L
    k0 = round(2.0 / dk) * dk
    vals = 0.01 * np.exp(-g.r_mesh**2 / 9.0) * np.exp(1j * k0 * g.x_mesh[0])
    u0 = field_from_values(g, vals.astype(complex))

    hat2 = np.abs(to_fourier(u0)) ** 2
    xin = np.sqrt(g.xi_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        vg1 = np.where(xin > 0, 2.0 * params.s * xin ** (2.0 * params.s - 2.0) * g.xi_mesh[0], 0.0)
    v_avg = float(np.sum(vg1 * hat2) / np.sum(hat2))

    cfg = StepperConfig(dt=2e-3, t_end=0.5, record_every=250, adaptive=False,
                        nonlinear=False)
    rec = evolve(u0, params, m, cfg)
    rho = np.abs(rec.final_state.values) ** 2
    centroid = float(np.sum(g.x_mesh[0] * rho) / np.sum(rho))

    assert abs(centroid - v_avg * 0.5) / (v_avg * 0.5) < 1e-9
    carrier = 2.0 * params.s * k0 ** (2.0 * params.s - 1.0) * 0.5
    assert abs(centroid - carrier) / carrier < 0.05


def test_wrap_time_scales_with_box(canonical, params):
    t32 = wrap_time(canonical.grid, params.s)
    g_big = make_grid(N=2, n=256, L=128.0)
    assert wrap_time(g_big, params.s) > 2.0 * t32
    assert 0.0 < t32 < canonical.grid.L


# --------------------------------------------------------------------------
# the step loop against the transform-per-step loop it replaced

_SERIES = ("time", "mass", "energy", "hs", "hsc", "v", "lpc", "me_ratio", "grad_ratio",
           "tail_fraction", "strichartz_accum", "soliton_deviation", "dt_eff")


def _reference_evolve(u0, p, mult, cfg, gs):
    """The step loop as it was before the spectrum was carried: fftn at the
    start of every step, the Hartree convolution through the complex pair,
    exp(-0.5i dt |xi|^{2s}) rebuilt every step, and fftn(vals) in every
    sample.  Each step's adapted dt and space-time term read the midpoint
    density of the step before (|u0|^2 for the first step).  Returns the
    series of _SERIES, the membership series, the verdict and the step
    count; snapshots and the non-finite stop are left out."""
    grid = u0.grid
    hN = grid.h**grid.N
    plancherel = parseval_weight(grid) * hN * hN
    xi2s, xi2sc = mult.frac_lap_s, grid.xi_sq**p.s_c
    tail = ~dealias_mask(grid)
    what = mult.hartree_kernel_hat
    mask = dealias_mask(grid) if cfg.dealias else None
    qc = p.q_c

    def kernel(vals, half, dt):
        """(field at the end of the step, midpoint density)"""
        hat = np.fft.fftn(vals) * half
        if mask is not None:
            hat *= mask
        vals = np.fft.ifftn(hat)
        rho = vals.real**2 + vals.imag**2
        if cfg.nonlinear:
            vals = vals * np.exp(1j * dt * np.fft.ifftn(what * np.fft.fftn(rho)).real)
        hat = np.fft.fftn(vals) * half
        if mask is not None:
            hat *= mask
        return np.fft.ifftn(hat), rho

    vals = u0.values.astype(np.complex128, copy=True)
    t, n_steps, accum = 0.0, 0, 0.0
    rows, members = [], []

    def sample(dt_eff):
        rho = vals.real**2 + vals.imag**2
        m = hN * float(np.sum(rho))
        hat_sq = np.abs(np.fft.fftn(vals)) ** 2
        grad_dens = xi2s * hat_sq
        grad_total = float(np.sum(grad_dens))
        hs_sq = plancherel * grad_total
        hsc = float(np.sqrt(plancherel * float(np.sum(xi2sc * hat_sq))))
        tail_frac = float(np.sum(grad_dens[tail])) / grad_total
        v = hN * float(np.sum(np.fft.ifftn(what * np.fft.fftn(rho)).real * rho))
        e = 0.5 * hs_sq - 0.25 * v
        lpc = float((hN * float(np.sum(rho ** (0.5 * p.p_c)))) ** (1.0 / p.p_c))
        factor = m**p.mass_power
        me_ratio, grad_ratio = factor * e / gs.me_Q, factor * hs_sq / gs.grad_Q
        diff = vals * np.exp(-1j * t) - gs.q.values
        sol = float(np.sqrt(hN * float(np.sum(np.abs(diff) ** 2)))) / gs.l2
        rows.append((t, m, e, float(np.sqrt(hs_sq)), hsc, v, lpc, me_ratio, grad_ratio,
                     tail_frac, accum ** (1.0 / qc), sol, dt_eff))
        members.append(classify_from_ratios(me_ratio, grad_ratio).verdict)
        return float(np.sqrt(hs_sq)), grad_ratio, tail_frac

    dens = vals.real**2 + vals.imag**2  # the density the last step left

    def dt_now():
        return evolution._adapted_dt(float(np.max(dens)), cfg, mult) if cfg.adaptive else cfg.dt

    dt_eff = dt_now()
    hs_limit = cfg.blowup_grad_factor * sample(dt_eff)[0]
    t_stop = cfg.t_end * (1.0 - 1e-12)
    verdict = None
    while t < t_stop and verdict is None:
        dt_eff = dt_now()
        dt_step = min(dt_eff, cfg.t_end - t)
        accum += dt_step * hN * float(np.sum(dens ** (0.5 * qc)))
        vals, mid = kernel(vals, np.exp(-0.5j * dt_step * xi2s), dt_step)
        t += dt_step
        n_steps += 1
        sampled = n_steps % cfg.record_every == 0 or t >= t_stop
        dens = mid
        if sampled:
            hs_k, grad_ratio_k, tail_k = sample(dt_eff)
            if hs_k > hs_limit:
                verdict = "BlowUp"
            elif tail_k > cfg.tail_fraction_max:
                verdict = "BlowUp" if grad_ratio_k > 1.0 else "Inconclusive"
    cols = np.array(rows).T
    if verdict is None:
        sol, gr, v = cols[11], cols[8], cols[5]
        if np.all(sol < 1e-3):
            verdict = "Soliton"
        elif np.all(gr < 1.0) and v[-1] < 0.5 * v[0]:
            verdict = "GlobalDispersing"
        else:
            verdict = "Inconclusive"
    return dict(zip(_SERIES, cols)), tuple(members), verdict, n_steps


@pytest.fixture(scope="module")
def coarse(params):
    return solve_setup(params, 64, 16.0)


_LOOP_CASES = {
    "K1-fixed-dt": (0.8, {"adaptive": False, "t_end": 1.0, "record_every": 4}),
    "K1-dealias": (0.8, {"adaptive": False, "t_end": 0.2, "record_every": 1, "dealias": True}),
    # phase_cap below the default so the step shrinks on this coarse grid
    "K2-adaptive": (1.2, {"adaptive": True, "t_end": 2.0, "record_every": 2,
                          "phase_cap": 0.05}),
}


# each case on the whole grid, forced, and on the orthant its c*Q takes
@pytest.mark.parametrize("case", [*_LOOP_CASES, *(f"{k}-orthant" for k in _LOOP_CASES)])
def test_evolve_matches_transform_per_step_loop(coarse, case, monkeypatch):
    s = coarse
    c, kw = _LOOP_CASES[case.removesuffix("-orthant")]
    u0 = field_from_values(s.grid, c * s.gs.q.values)
    if not case.endswith("-orthant"):
        force_full_grid(monkeypatch)
    assert spectral.is_mirror_even(u0.values) == case.endswith("-orthant")
    cfg = StepperConfig(dt=1e-3, **kw)
    rec = evolve(u0, s.p, s.mult, cfg, gs=s.gs)
    series, members, verdict, n_steps = _reference_evolve(u0, s.p, s.mult, cfg, s.gs)
    assert rec.verdict == verdict
    assert rec.n_steps == n_steps
    assert rec.series["membership"] == members
    assert members[0] == ("K1" if c < 1.0 else "K2")
    assert (len(set(rec.series["dt_eff"])) > 1) == cfg.adaptive
    for name in _SERIES:
        new, old = rec.series[name], series[name]
        assert new.shape == old.shape, name
        tol = 1e-10 * np.abs(old)
        if name == "tail_fraction" and cfg.dealias:
            # the carried spectrum is exactly 0 on the masked modes, where
            # fftn(vals) holds rounding noise (~1e-30 of the gradient norm)
            tol = np.maximum(tol, 1e-20)
        assert np.all(np.abs(new - old) <= tol), name


def _reference_strang(hat, half, what_half, dt, nonlinear, mask):
    """The step as it was before the loop reused its arrays: every
    transform and elementwise pass into a fresh array.  Returns (vals, hat)
    at the end of the step."""
    hat = hat * half
    if mask is not None:
        hat *= mask
    vals = np.fft.ifftn(hat)
    if nonlinear:
        rho = vals.real**2 + vals.imag**2
        phase = dt * np.fft.irfftn(what_half * np.fft.rfftn(rho), s=rho.shape,
                                   axes=tuple(range(rho.ndim)))
        rot = np.empty_like(vals)
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        rot *= vals
        hat = np.fft.fftn(rot)
    hat *= half
    if mask is not None:
        hat *= mask
    return np.fft.ifftn(hat), hat


@pytest.fixture(scope="module")
def small_3d():
    p = PhysParams(N=3, s=0.7, gamma=1.6)
    grid = make_grid(N=3, n=16, L=8.0)
    return grid, make_multipliers(grid, p)


@pytest.mark.parametrize("nonlinear", [True, False])
@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("dim", ["2d", "3d"])
def test_strang_with_work_arrays_matches_allocating_step(small, small_3d, dim, nonlinear,
                                                         dealias):
    grid, mult = small if dim == "2d" else small_3d
    mask = dealias_mask(grid) if dealias else None
    tr = spectral.FullGrid(grid)
    what_half = tr.spectrum_table(mult.hartree_kernel_hat)
    work = evolution._StepWork(tr)
    hat = np.fft.fftn(_rng_field(grid, 11).values)
    hat_ref = hat.copy()
    # consecutive steps with a changing dt, a negative one among them
    for dt in (1e-3, 2.5e-3, 7e-4, -1.2e-3, 4e-3, 1e-3):
        half = evolution._half_step_phase(mult.frac_lap_s, dt)
        vals_ref, hat_ref = _reference_strang(hat_ref, half, what_half, dt, nonlinear, mask)
        evolution._strang(hat, half, what_half, dt, nonlinear, mask, work)
        vals = evolution._to_boundary(hat, half, mask, work)
        assert vals is work.vals
        assert np.array_equal(vals, vals_ref)
        assert np.array_equal(hat, hat_ref)


def test_fixed_dt_run_builds_half_step_phase_once(canonical, monkeypatch):
    calls = []
    build = evolution._half_step_phase

    def counting(frac_lap_s, dt):
        calls.append(dt)
        return build(frac_lap_s, dt)

    monkeypatch.setattr(evolution, "_half_step_phase", counting)
    u0 = field_from_values(canonical.grid, 0.9 * canonical.gs.q.values)
    # dt = 2^-10 and t_end = 2^-5: the step count is exact, no short last step
    cfg = StepperConfig(dt=2.0**-10, dt_min=2.0**-10, t_end=2.0**-5, record_every=8,
                        adaptive=False)
    rec = evolve(u0, canonical.p, canonical.mult, cfg, gs=canonical.gs)
    assert rec.n_steps == 32
    assert calls == [cfg.dt]


def _count_half_step_builds(monkeypatch):
    calls = []
    build = evolution._half_step_phase

    def counting(frac_lap_s, dt):
        calls.append(dt)
        return build(frac_lap_s, dt)

    monkeypatch.setattr(evolution, "_half_step_phase", counting)
    return calls


def test_fixed_dt_run_takes_no_hair_short_last_step(coarse, monkeypatch):
    calls = _count_half_step_builds(monkeypatch)
    u0 = field_from_values(coarse.grid, 0.8 * coarse.gs.q.values)
    # 200 steps of 1e-3 accumulate to a rounding hair below t_end
    cfg = StepperConfig(dt=1e-3, t_end=0.2, record_every=50, adaptive=False)
    rec = evolve(u0, coarse.p, coarse.mult, cfg, gs=coarse.gs)
    assert calls == [cfg.dt]
    assert rec.n_steps == 200
    assert abs(rec.times[-1] - cfg.t_end) <= 1e-12 * cfg.t_end


def test_fixed_dt_run_clips_a_short_remainder(coarse, monkeypatch):
    calls = _count_half_step_builds(monkeypatch)
    u0 = field_from_values(coarse.grid, 0.8 * coarse.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=0.0505, record_every=10, adaptive=False)
    rec = evolve(u0, coarse.p, coarse.mult, cfg, gs=coarse.gs)
    assert len(calls) == 2
    assert calls[0] == cfg.dt
    assert abs(calls[1] - 5e-4) <= 1e-12
    assert rec.n_steps == 51
    assert abs(rec.times[-1] - cfg.t_end) <= 1e-12 * cfg.t_end


def test_energy_drift_caveat_names_the_first_sample_past_tol(coarse, monkeypatch):
    # with the tolerance lowered to half the largest drift of a short run,
    # the rerun gets one caveat, at the first sample past it, and the same
    # verdict and series
    u0 = field_from_values(coarse.grid, 0.8 * coarse.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=0.05, record_every=5, adaptive=False)
    rec = evolve(u0, coarse.p, coarse.mult, cfg, gs=coarse.gs)
    assert rec.caveats == ()
    energy = rec.series["energy"]
    drift = np.abs(energy - energy[0]) / abs(energy[0])
    tol = 0.5 * float(drift.max())
    assert tol > 0.0
    monkeypatch.setattr(evolution, "ENERGY_DRIFT_TOL", tol)
    again = evolve(u0, coarse.p, coarse.mult, cfg, gs=coarse.gs)
    k = int(np.argmax(drift > tol))
    assert again.caveats == (
        f"energy drift {drift[k]:.3g} of |E(0)| exceeds {tol:g} from t={rec.times[k]:.6g}",
    )
    assert again.verdict == rec.verdict
    assert np.array_equal(again.series["energy"], energy)


@pytest.mark.parametrize("start", ["random", "ground_state"])
def test_first_sample_matches_public_functionals(coarse, start):
    # evolve's check and row compute each column from the carried spectrum
    # on their own; the first row must agree with the public definitions of
    # the same quantities evaluated on u0, and the last row with them on the
    # final state, which follows a step without a row (11 steps, a row
    # every 3)
    s = coarse
    if start == "random":  # scaled to a mass near that of Q
        u0 = field_from_values(s.grid, 0.1 * _rng_field(s.grid, 17).values)
    else:
        u0 = field_from_values(s.grid, 0.9 * s.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=0.011, record_every=3, adaptive=False)
    rec = evolve(u0, s.p, s.mult, cfg, gs=s.gs)
    assert rec.n_steps == 11 and rec.times.size == 5
    for k, u in ((0, u0), (-1, rec.final_state)):
        row = {name: col[k] for name, col in rec.series.items()}
        pair = invariant_pair(u, s.p, s.mult)
        want = {
            "mass": mass(u),
            "energy": energy(u, s.mult),
            "hs": sobolev_norm(u, s.p.s),
            "hsc": sobolev_norm(u, s.p.s_c),
            "v": hartree_energy(u, s.mult),
            "lpc": lp_norm(u, s.p.p_c),
            "me_ratio": pair.me / s.gs.me_Q,
            "grad_ratio": pair.grad / s.gs.grad_Q,
        }
        for name, value in want.items():
            assert abs(row[name] - value) <= 1e-12 * abs(value), (k, name)
        assert row["membership"] == classify_membership(pair, s.gs).verdict


_CADENCE_CASES = {
    "default": {},
    "dealias": {"dealias": True},
    # phase_cap below the default so the step shrinks from t=0
    "K2-adaptive": {"phase_cap": 0.02},
    "3d": {},
}


def _cadence_start(coarse, small_3d, case, orthant):
    """(u0, p, mult, gs) of a case of the cadence tests: 0.8*Q (1.2*Q for
    K2) on the 64^2 grid, and in 3-D an even Gaussian on the orthant and a
    random field on the whole grid."""
    if case.startswith("3d"):
        grid, mult = small_3d
        vals = 0.3 * (_even_3d(grid) if orthant else _rng_field(grid, 19).values)
        return field_from_values(grid, vals), PhysParams(N=3, s=0.7, gamma=1.6), mult, None
    c = 1.2 if case.startswith("K2") else 0.8
    return field_from_values(coarse.grid, c * coarse.gs.q.values), coarse.p, coarse.mult, coarse.gs


# each case on the whole grid (forced for c*Q) and on the orthant (where
# the 3-D case starts from an even Gaussian)
@pytest.mark.parametrize(
    "case", [*_CADENCE_CASES, *(f"{k}-orthant" for k in _CADENCE_CASES)]
)
def test_sampling_cadence_keeps_the_trajectory(coarse, small_3d, case, monkeypatch):
    # every step stops after its forward transform and a row pays the owed
    # half-step as the next step would: the spectrum, every kept row and
    # the final state are bit for bit those of a run with a row every
    # step, on either path, at a fixed dt and an adaptive one
    orthant = case.endswith("-orthant")
    if not orthant:
        force_full_grid(monkeypatch)
    u0, p, mult, gs = _cadence_start(coarse, small_3d, case, orthant)
    assert spectral.is_mirror_even(u0.values) == orthant
    kw = _CADENCE_CASES[case.removesuffix("-orthant")]
    every, sparse = [evolve(u0, p, mult, StepperConfig(t_end=0.05, record_every=k, **kw), gs=gs)
                     for k in (1, 7)]
    assert every.n_steps == sparse.n_steps
    assert sparse.times.size == 1 + math.ceil(sparse.n_steps / 7)
    dt_eff = every.series["dt_eff"]
    if "phase_cap" in kw:
        assert np.all(dt_eff < 1e-3) and len(set(dt_eff)) > 1
    else:  # the default adaptive step never shrinks here: dt is fixed in effect
        assert every.n_steps == 50 and np.all(dt_eff == 1e-3)
    assert np.array_equal(every.final_state.values, sparse.final_state.values)
    kept = np.isin(every.times, sparse.times)
    assert np.count_nonzero(kept) == sparse.times.size
    for name in evolution.RUN_COLUMNS:
        if name == "membership":
            assert [m for m, k in zip(every.series[name], kept) if k] == list(sparse.series[name])
        else:
            assert np.array_equal(every.series[name][kept], sparse.series[name],
                                  equal_nan=True), name


_ROWS_CASES = {
    "K1-fixed-dt": {"adaptive": False, "t_end": 0.2, "record_every": 1},
    "K2-adaptive": {"t_end": 2.0, "record_every": 2, "phase_cap": 0.05},
    "dealias": {"t_end": 0.1, "record_every": 3, "dealias": True},
    "linear": {"t_end": 0.1, "record_every": 4, "nonlinear": False, "adaptive": False},
    "3d": {"t_end": 0.05, "record_every": 1},
}


@pytest.mark.parametrize("case", [*_ROWS_CASES, *(f"{k}-orthant" for k in _ROWS_CASES)])
def test_rows_leave_the_run_unchanged(coarse, small_3d, case, monkeypatch):
    # a run that keeps only its first and last rows checks the same
    # spectra at the same steps: the same final state, verdict, t_star,
    # n_steps and first and last rows, bit for bit
    orthant = case.endswith("-orthant")
    if not orthant:
        force_full_grid(monkeypatch)
    case = case.removesuffix("-orthant")
    u0, p, mult, gs = _cadence_start(coarse, small_3d, case, orthant)
    assert spectral.is_mirror_even(u0.values) == orthant
    cfg = StepperConfig(dt=1e-3, **_ROWS_CASES[case])
    full, bare = [evolve(u0, p, mult, cfg, gs=gs, keep_rows=keep) for keep in (True, False)]
    if case == "K2-adaptive":
        assert full.verdict == "BlowUp" and len(set(full.series["dt_eff"])) > 1
    assert full.times.size > 2 and bare.times.size == 2
    assert bare.verdict == full.verdict
    assert bare.t_star == full.t_star
    assert bare.n_steps == full.n_steps
    assert np.array_equal(bare.final_state.values, full.final_state.values)
    for name in evolution.RUN_COLUMNS:
        ends = [full.series[name][k] for k in (0, -1)]
        if name == "membership":
            assert list(bare.series[name]) == ends
        else:
            assert np.array_equal(bare.series[name], ends, equal_nan=True), name
    # the energy-drift caveat compares only the rows a run keeps
    assert [c for c in bare.caveats if not c.startswith("energy drift")] == [
        c for c in full.caveats if not c.startswith("energy drift")]


def test_linear_run_matches_free_propagator(coarse):
    # a linear step stops after its forward transform as a nonlinear one
    # does: the space-time sum reads |u0|^2 for the first step and the
    # midpoint density of the step before for every later one
    s = coarse
    u0 = _rng_field(s.grid, 23)
    dt, qc, hN = 1e-3, s.p.q_c, s.grid.h**s.grid.N
    cfg = StepperConfig(dt=dt, t_end=0.05, record_every=5, adaptive=False, nonlinear=False)
    rec = evolve(u0, s.p, s.mult, cfg)
    assert rec.n_steps == 50
    want = linear_propagator(u0, cfg.t_end, s.p.s).values
    assert np.max(np.abs(rec.final_state.values - want)) <= 1e-12 * np.max(np.abs(want))
    sums = [dt * hN * np.sum(np.abs(linear_propagator(u0, t, s.p.s).values) ** qc)
            for t in [0.0, *((j - 0.5) * dt for j in range(1, 50))]]
    accum = np.concatenate(([0.0], np.cumsum(sums)[4::5])) ** (1.0 / qc)
    assert np.allclose(rec.series["strichartz_accum"], accum, rtol=1e-10, atol=0.0)


def _sampled_every_step(s, monkeypatch):
    """A run from 1.2*Q with a row and a snapshot every step, and for each
    step the adapted dt and the running strichartz_accum recomputed from
    the midpoint density the step before left, captured from the step
    itself (|u0|^2 for the first step).  Each captured density is checked
    against the midpoint density formed from the snapshot before it.
    Returns the record and the (dt, strichartz_accum) recomputed after
    each step."""
    mids, step = [], evolution._strang

    def capturing(*args):
        step(*args)
        mids.append(args[-1].tr.expand(args[-1].rho))

    monkeypatch.setattr(evolution, "_strang", capturing)
    u0 = field_from_values(s.grid, 1.2 * s.gs.q.values)
    # max|u0|^2 W_hat(0) = 24.5: phase_cap=0.02 takes dt below 1e-3 from t=0
    cfg = StepperConfig(dt=1e-3, t_end=0.05, record_every=1, phase_cap=0.02,
                        snapshot_every=1)
    rec = evolve(u0, s.p, s.mult, cfg, gs=s.gs)
    dt_eff = rec.series["dt_eff"]
    assert np.all(dt_eff < cfg.dt) and len(set(dt_eff)) > 1
    assert len(mids) == rec.n_steps == len(rec.snapshots) - 1
    hN, qc = s.grid.h**s.grid.N, s.p.q_c
    slack = cfg.t_end - cfg.t_end * (1.0 - 1e-12)
    accum, want = 0.0, []
    rho = u0.values.real**2 + u0.values.imag**2
    for (t, u), mid in zip(rec.snapshots[:-1], mids):
        dt_k = evolution._adapted_dt(float(np.max(rho)), cfg, s.mult)
        rest = cfg.t_end - t
        dt_step = dt_k if rest >= dt_k - slack else rest
        accum += dt_step * hN * float(np.sum(np.power(rho, 0.5 * qc)))
        want.append((dt_k, accum ** (1.0 / qc)))
        half = evolution._half_step_phase(s.mult.frac_lap_s, dt_step)
        formed = np.fft.ifftn(half * np.fft.fftn(u.values))
        formed = formed.real**2 + formed.imag**2
        assert np.max(np.abs(mid - formed)) <= 1e-12 * np.max(formed)
        rho = mid
    return rec, want


def test_run_sampled_every_step_reads_midpoint_density(coarse, monkeypatch):
    # on the whole grid the loop sums as the recomputation does: dt_eff and
    # strichartz_accum bit for bit
    force_full_grid(monkeypatch)
    rec, want = _sampled_every_step(coarse, monkeypatch)
    for k, (dt_k, accum_k) in enumerate(want):
        assert rec.series["dt_eff"][k + 1] == dt_k
        assert rec.series["strichartz_accum"][k + 1] == accum_k


def test_orthant_run_sampled_every_step_reads_midpoint_density(coarse, monkeypatch):
    # on the orthant dt_eff is still bit for bit (a max is exact), and
    # strichartz_accum agrees to rounding (a weighted sum over the orthant)
    assert spectral.is_mirror_even(coarse.gs.q.values)
    rec, want = _sampled_every_step(coarse, monkeypatch)
    for k, (dt_k, accum_k) in enumerate(want):
        assert rec.series["dt_eff"][k + 1] == dt_k
        assert abs(rec.series["strichartz_accum"][k + 1] - accum_k) <= 1e-14 * accum_k


def _even_3d(grid):
    """A mirror-even 3-D state: a radial Gaussian strong enough to turn
    the nonlinear phase."""
    return (2.0 * np.exp(-grid.r_mesh**2 / 2.0)).astype(np.complex128)


def _exactly_mirror_even(values):
    """Whether a centered array equals its mirror image bit for bit."""
    for axis in range(values.ndim):
        inner = values[(slice(None),) * axis + (slice(1, None),)]
        if not np.array_equal(inner, np.flip(inner, axis)):
            return False
    return True


_EVEN_CASES = {
    "K1": {"t_end": 0.5, "record_every": 5},
    "K2-blowup": {"t_end": 2.0, "record_every": 2, "phase_cap": 0.05},
    "dealias": {"t_end": 0.2, "record_every": 3, "dealias": True},
    "linear": {"t_end": 0.2, "record_every": 4, "nonlinear": False, "adaptive": False},
    "3d": {"t_end": 0.1, "record_every": 5},
}


# each case on the orthant by dense cosine products and, "-fft", by FFTs
@pytest.mark.parametrize("case", [*_EVEN_CASES, *(f"{k}-fft" for k in _EVEN_CASES)])
def test_orthant_run_matches_full_grid_run(coarse, small_3d, case, monkeypatch):
    # the same run on the orthant and on the whole grid: the same verdict,
    # steps, membership and caveats, the columns to rounding, and every
    # field the orthant run hands back exactly mirror-even
    force_orthant_path(monkeypatch, "fft" if case.endswith("-fft") else "dense")
    case = case.removesuffix("-fft")
    kw = _EVEN_CASES[case]
    if case == "3d":
        grid, mult = small_3d
        p, gs = PhysParams(N=3, s=0.7, gamma=1.6), None
        u0 = field_from_values(grid, _even_3d(grid))
    else:
        grid, mult, p, gs = coarse.grid, coarse.mult, coarse.p, coarse.gs
        u0 = field_from_values(grid, (1.2 if case == "K2-blowup" else 0.8) * gs.q.values)
    cfg = StepperConfig(dt=1e-3, snapshot_every=10, **kw)
    assert spectral.is_mirror_even(u0.values)
    orth = evolve(u0, p, mult, cfg, gs=gs)
    force_full_grid(monkeypatch)
    full = evolve(u0, p, mult, cfg, gs=gs)

    assert orth.verdict == full.verdict
    if case == "K2-blowup":
        assert orth.verdict == "BlowUp"
    assert orth.n_steps == full.n_steps
    assert orth.series["membership"] == full.series["membership"]
    assert orth.caveats == full.caveats
    if full.t_star is None:
        assert orth.t_star is None
    else:
        assert abs(orth.t_star - full.t_star) <= 1e-13 * full.t_star
    for name in _SERIES:
        new, old = orth.series[name], full.series[name]
        if name == "tail_fraction":
            close = np.abs(new - old) <= 1e-13
        else:
            close = np.abs(new - old) <= 1e-11 * np.abs(old)
        assert np.all(close | (np.isnan(new) & np.isnan(old))), name
    assert len(orth.snapshots) == len(full.snapshots) > 1
    for u in [u for _, u in orth.snapshots] + [orth.final_state]:
        assert _exactly_mirror_even(u.values)


# --------------------------------------------------------------------------
# non-finite states


def test_nan_initial_state_stops_after_first_sample(canonical):
    vals = canonical.gs.q.values.copy()
    vals[3, 5] = np.nan
    u0 = field_from_values(canonical.grid, vals)
    cfg = StepperConfig(dt=1e-3, t_end=0.1, record_every=1)
    rec = evolve(u0, canonical.p, canonical.mult, cfg, gs=canonical.gs)
    assert rec.verdict == "Inconclusive"
    assert rec.n_steps == 0
    assert rec.times.size == 1
    assert rec.caveats == ("non-finite state at t=0",)
    assert rec.t_star is None


def test_state_turning_non_finite_stops_at_next_sample(canonical, monkeypatch):
    step = evolution._strang
    count = []

    def poisoned(hat, *args):
        count.append(1)
        vals = step(hat, *args)  # the loop reads hat in place
        if len(count) == 3:  # no check: the step stopped after its fft
            assert vals is None
            hat[0, 0] = np.nan
        return vals

    monkeypatch.setattr(evolution, "_strang", poisoned)
    u0 = field_from_values(canonical.grid, 0.9 * canonical.gs.q.values)
    cfg = StepperConfig(dt=1e-3, t_end=0.1, record_every=2, adaptive=False)
    rec = evolve(u0, canonical.p, canonical.mult, cfg, gs=canonical.gs)
    assert rec.verdict == "Inconclusive"
    assert rec.n_steps == 4  # the step-3 state is first checked after step 4
    assert rec.times.size == 3
    assert rec.caveats == ("non-finite state at t=0.004",)


def test_orthant_setup_peak_memory_at_256(params, monkeypatch):
    # the set-up of an orthant run builds its step and check tables on the
    # orthant and reads the kernel in place: up to the allocation of the
    # step arrays its traced peak is below three complex arrays of the
    # whole grid (u0 is one, 1 MiB)
    grid = make_grid(N=2, n=256, L=32.0)
    mult = make_multipliers(grid, params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the box-truncation advisory
        gs = solve_ground_state(params, grid, mult=mult)
    u0 = field_from_values(grid, 0.9 * gs.q.values)

    class SetUpDone(Exception):
        pass

    def stop(tr):
        assert type(tr) is spectral.Orthant
        raise SetUpDone

    monkeypatch.setattr(evolution, "_StepWork", stop)
    tracemalloc.start()
    try:
        with pytest.raises(SetUpDone):
            evolve(u0, params, mult, StepperConfig(t_end=0.01), gs=gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * u0.values.nbytes
