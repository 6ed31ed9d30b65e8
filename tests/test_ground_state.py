"""Fixed-point solver convergence and the certification identity suite."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import force_full_grid, force_orthant_path

from fhartree import ground_state, spectral
from fhartree.functionals import energy, hartree_energy, mass
from fhartree.ground_state import (
    NonConvergenceError,
    SolverOptions,
    _cgn_values,
    default_seed,
    pohozaev_residuals,
    soliton_orbit_check,
    solve_ground_state,
)
from fhartree.params import PhysParams
from fhartree.spectral import (
    field_from_values,
    fractional_laplacian,
    hartree_potential,
    make_grid,
    make_multipliers,
    random_smooth_field,
    sobolev_norm,
)


# --------------------------------------------------------------------------
# convergence and certification at the canonical configuration


def test_canonical_certification(canonical):
    gs = canonical.gs
    assert gs.converged
    assert gs.iterations <= 100
    assert gs.el_residual < 1e-10
    r1, r2 = gs.pohozaev
    assert abs(r1) < 1e-12
    assert abs(r2) < 1e-3
    assert gs.radial_asymmetry < 1e-12
    assert gs.max_imag_frac < 1e-12
    assert gs.final_alpha_dev < 1e-12


def test_canonical_profile_shape(canonical):
    q = canonical.gs.q.values.real
    n = canonical.grid.n
    # positive, peaked at the origin, small but nonzero tail at the edge
    assert np.min(q) > 0.0
    assert np.unravel_index(np.argmax(q), q.shape) == (n // 2, n // 2)
    assert canonical.gs.tail_ratio < 1e-3


def test_canonical_frozen_scalars(canonical):
    # determinism pin: same grid, same seed, same arithmetic
    gs = canonical.gs
    assert np.isclose(gs.l2, 0.7175372670378677, rtol=1e-8)
    assert np.isclose(gs.hs, 0.8283461236227913, rtol=1e-8)
    assert np.isclose(gs.v_q, 1.2010170301090777, rtol=1e-8)
    assert np.isclose(gs.e_q, 0.04282439273318289, rtol=1e-7)
    assert np.isclose(gs.cgn_a, 3.2623448925029828, rtol=1e-8)
    assert np.isclose(gs.me_Q, 0.0007976727550884849, rtol=1e-7)
    assert np.isclose(gs.grad_Q, 0.012780776314581207, rtol=1e-8)


def test_pohozaev_combination_ratios(canonical):
    # V = (4s/gamma) G and E = ((4s-gamma)/(4 gamma)) ... = G/16 here
    gs, p = canonical.gs, canonical.p
    g2 = gs.hs**2
    assert abs(gs.v_q / g2 - 4.0 * p.s / p.gamma) < 1e-3
    assert abs(gs.e_q / g2 - 0.0625) < 1e-3
    assert abs(gs.grad_Q / gs.me_Q - 2.0 * p.gamma / (p.gamma - 2.0 * p.s)) < 0.05


def test_sharp_constant_two_routes_agree(canonical):
    gs = canonical.gs
    a, b = gs.cgn_a, gs.cgn_b
    assert a > 0 and b > 0
    assert abs(a - b) / a < 1e-3
    # the Q-norm formula and the mass-only closed form, from the stored norms
    want_a, want_b = _cgn_values(gs.l2, gs.hs, canonical.p)
    assert a == want_a
    assert b == want_b


def test_threshold_two_routes_agree(canonical):
    rep = canonical.gs.threshold_report
    assert rep.me_discrepancy < 1e-2
    assert rep.grad_discrepancy < 1e-2
    # closed forms keep the exact ratio 2 gamma / (gamma - 2s) = 16
    assert np.isclose(rep.grad_closed / rep.me_closed, 16.0, rtol=1e-12)


def test_pohozaev_residuals_detect_non_solution(canonical):
    # a Gaussian is not a profile solution; r1 must be O(1)
    u = default_seed(canonical.grid, width=1.0)
    r1, _ = pohozaev_residuals(u, canonical.p, canonical.mult)
    assert abs(r1) > 0.1


def test_summary_matches_public_functionals(canonical):
    # every scalar of the one-pass certificate, recomputed through the
    # public functionals (complex transforms for the Sobolev norms)
    gs, p, mult, grid = canonical.gs, canonical.p, canonical.mult, canonical.grid
    q = gs.q
    vals = q.values.real
    l2 = np.sqrt(mass(q))
    hs = sobolev_norm(q, p.s)
    e_q = energy(q, mult)
    lhs = (fractional_laplacian(q, p.s).values.real + vals
           - hartree_potential(q, mult) * vals)
    r1, r2 = pohozaev_residuals(q, p, mult)
    cgn_a, cgn_b = _cgn_values(l2, hs, p)
    factor = mass(q) ** p.mass_power
    n = grid.n
    flipped = [np.roll(np.flip(vals, a), 1, a) for a in (0, 1)] + [vals.T]
    want = {
        "l2": l2,
        "hs": hs,
        "v_q": hartree_energy(q, mult),
        "e_q": e_q,
        "cgn_a": cgn_a,
        "cgn_b": cgn_b,
        "me_Q": factor * e_q,
        "grad_Q": factor * hs**2,
        "tail_ratio": max(abs(vals[0, n // 2]), abs(vals[n // 2, 0])) / np.max(np.abs(vals)),
    }
    # cgn_discrepancy is a cancelled two-route difference (~1e-5): held
    # relative to itself it would pin the summation order, while cgn_a and
    # cgn_b above already pin both routes
    residuals = {
        "cgn_discrepancy": abs(cgn_a - cgn_b) / cgn_a,
        "el_residual": np.sqrt(grid.h**2 * np.sum(lhs**2)) / l2,
        "pohozaev_r1": r1,
        "pohozaev_r2": r2,
        "radial_asymmetry": max(np.max(np.abs(vals - f)) for f in flipped) / np.max(np.abs(vals)),
        "max_imag_frac": 0.0,
    }
    got = gs.summary()
    # final_alpha_dev belongs to the last iteration, not to Q alone
    floats = {k for k, v in got.items() if isinstance(v, float)} - {"final_alpha_dev"}
    assert floats == set(want) | set(residuals)
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12 * abs(value), key
    for key, value in residuals.items():
        assert abs(got[key] - value) <= 1e-12, key


def _six_transform_iterate(p, grid, mult, opts=SolverOptions()):
    """The solver's iteration before the spectrum was carried: N(q), Lq and
    L^{-1} N(q) each through an rfftn/irfftn pair, 6 real transforms."""
    hN = grid.h**grid.N
    axes = tuple(range(grid.N))

    def multiply(table, f):
        half = table[..., : grid.n // 2 + 1]
        return np.fft.irfftn(half * np.fft.rfftn(f, axes=axes), s=f.shape, axes=axes)

    lhat = 1.0 + grid.xi_sq**p.s
    q = default_seed(grid, opts.seed_width).values.real.astype(np.float64)
    for it in range(1, opts.max_iter + 1):
        nq = multiply(mult.hartree_kernel_hat, q * q) * q
        lq = multiply(lhat, q)
        gamma_k = (hN * np.sum(q * lq)) / (hN * np.sum(q * nq))
        q_next = gamma_k**1.5 * multiply(1.0 / lhat, nq)
        delta = np.sqrt(hN * np.sum((q_next - q) ** 2)) / np.sqrt(hN * np.sum(q**2))
        q = q_next
        if delta < opts.tol:
            return q, it
    raise AssertionError("reference iteration did not converge")


@pytest.mark.filterwarnings("ignore:ground-state tail")
def test_carried_spectrum_matches_six_transform_iteration(canonical, monkeypatch):
    # depth 0 is the plain iteration the reference runs
    monkeypatch.setattr(ground_state, "ANDERSON_DEPTH", 0)
    want, iterations = _six_transform_iterate(canonical.p, canonical.grid, canonical.mult)
    gs = solve_ground_state(canonical.p, canonical.grid, opts=SolverOptions(), mult=canonical.mult)
    got = gs.q.values.real
    assert gs.iterations == iterations
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    p3 = PhysParams(N=3, s=0.7, gamma=1.6)
    grid = make_grid(N=3, n=16, L=12.0)
    mult = make_multipliers(grid, p3)
    want, iterations = _six_transform_iterate(p3, grid, mult)
    gs = solve_ground_state(p3, grid, opts=SolverOptions(), mult=mult)
    assert gs.iterations == iterations
    got = gs.q.values.real
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.filterwarnings("ignore:ground-state tail")
def test_mixed_iteration_matches_plain_at_tight_tolerance(canonical, monkeypatch):
    # Anderson mixing changes the path, not the fixed point: both runs to
    # tol 1e-14 land on the same certificate scalars
    tight = SolverOptions(tol=1e-14)
    mixed = solve_ground_state(canonical.p, canonical.grid, opts=tight, mult=canonical.mult)
    monkeypatch.setattr(ground_state, "ANDERSON_DEPTH", 0)
    plain = solve_ground_state(canonical.p, canonical.grid, opts=tight, mult=canonical.mult)
    assert mixed.iterations < plain.iterations
    for key in ("l2", "hs", "v_q", "e_q", "me_Q", "grad_Q", "cgn_a", "cgn_b"):
        want = getattr(plain, key)
        assert abs(getattr(mixed, key) - want) <= 5e-13 * abs(want), key


@pytest.mark.filterwarnings("ignore:ground-state tail")
@pytest.mark.parametrize("s, gamma", [(0.7, 1.6), (0.6, 1.5), (0.9, 1.9)])
def test_mixed_iteration_count(canonical, s, gamma):
    # the plain iteration takes 76, 119 and 52 iterations here
    p = PhysParams(N=2, s=s, gamma=gamma)
    mult = make_multipliers(canonical.grid, p)
    gs = solve_ground_state(p, canonical.grid, opts=SolverOptions(), mult=mult)
    assert gs.converged
    assert gs.iterations <= 30


def _reference_iterate(p, tr, mult, q, opts):
    """ground_state._iterate as it was before its arrays were reused: a
    fresh array for every transform, N(q) and mixed iterate, on the
    transforms tr."""
    grid = tr.grid
    hN = grid.h**grid.N
    lhat = 1.0 + tr.spectrum_table(grid.xi_sq) ** p.s
    lpair = tr.spectrum_weights(lhat)
    lhat_inv = np.reciprocal(lhat, out=lhat)
    what = tr.spectrum_table(mult.hartree_kernel_hat)
    mixer = ground_state._Anderson(tr, ground_state.ANDERSON_DEPTH)
    norm = np.sqrt(hN * tr.norm_sq(q))
    qhat = tr.rfft(q)
    deltas, gammas = [], []
    for _ in range(opts.max_iter):
        nq = tr.real_multiply(what, q * q)
        nq *= q
        num = np.sum(lpair * (qhat.real**2 + qhat.imag**2))
        den = hN * tr.pairwise_total(q * nq)
        gamma_k = num / den
        ghat = np.multiply(tr.rfft(nq), gamma_k**1.5 * lhat_inv, out=mixer.output_slot())
        del nq
        delta = mixer.residual(qhat) / norm
        deltas.append(float(delta))
        gammas.append(float(gamma_k))
        if delta < opts.tol:
            return ghat.copy(), True, deltas, gammas
        qhat = mixer.step()
        q = tr.irfft(qhat)
        norm = np.sqrt(hN * tr.norm_sq(q))
    return ghat.copy(), False, deltas, gammas


_BUFFERED_CASES = [pytest.param(2, 64, 16.0, id="2-64-16.0-exact"),
                   pytest.param(3, 16, 12.0, id="3-16-12.0-exact")]


@pytest.mark.parametrize("N, n, L", _BUFFERED_CASES)
@pytest.mark.parametrize("explicit_seed", [False, True])
def test_buffered_iteration_matches_allocating_loop(N, n, L, explicit_seed, monkeypatch):
    # on the whole grid: forced for the default seed, which is mirror-even;
    # the explicit seed is off-centre and takes the whole grid by itself
    p = PhysParams(N=N, s=0.7, gamma=1.6)
    grid = make_grid(N=N, n=n, L=L)
    mult = make_multipliers(grid, p)
    seed = None
    if explicit_seed:
        bump = random_smooth_field(grid, np.random.default_rng(5), n_bumps=2, span=1.0)
        seed = field_from_values(grid, default_seed(grid, 1.3).values + 0.1 * bump)
        seed_before = seed.values.copy()
    else:
        force_full_grid(monkeypatch)
    opts = SolverOptions()
    q = ground_state._seed_array(grid, seed, opts)
    tr = spectral.step_transform(grid, q)
    assert type(tr) is spectral.FullGrid
    want = _reference_iterate(p, tr, mult, q.copy(), opts)
    got = ground_state._iterate(p, tr, mult, q, opts)
    assert got[1] == want[1] is True
    np.testing.assert_array_equal(got[0], want[0])
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
    if explicit_seed:
        # the loop writes its iterates into its own arrays, never the seed's
        np.testing.assert_array_equal(seed.values, seed_before)


@pytest.mark.parametrize("N, n, L", _BUFFERED_CASES)
def test_buffered_orthant_iteration_matches_allocating_loop(N, n, L):
    p = PhysParams(N=N, s=0.7, gamma=1.6)
    grid = make_grid(N=N, n=n, L=L)
    mult = make_multipliers(grid, p)
    opts = SolverOptions()
    q = ground_state._seed_array(grid, None, opts)
    tr = spectral.step_transform(grid, q)
    assert type(tr) is spectral.Orthant
    want = _reference_iterate(p, tr, mult, tr.reduce(q), opts)
    got = ground_state._iterate(p, tr, mult, tr.reduce(q), opts)
    assert got[1] == want[1] is True
    assert got[0].dtype == np.float64 and got[0].shape == (n // 2 + 1,) * N
    np.testing.assert_array_equal(got[0], want[0])
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])


# --------------------------------------------------------------------------
# the orthant and the whole grid

#: Certificate scalars held to 1e-12 relative between the two paths; the
#: residuals and cancelled differences are held to 1e-14 absolute.
_RELATIVE = ("l2", "hs", "v_q", "e_q", "cgn_a", "cgn_b", "me_Q", "grad_Q", "tail_ratio")
_ABSOLUTE = ("el_residual", "pohozaev_r1", "pohozaev_r2", "cgn_discrepancy", "final_alpha_dev",
             "radial_asymmetry")


def _assert_same_certificate(got, want):
    a, b = got.summary(), want.summary()
    assert a["converged"] == b["converged"] and a["iterations"] == b["iterations"]
    for key in _RELATIVE:
        assert abs(a[key] - b[key]) <= 1e-12 * abs(b[key]), key
    for key in _ABSOLUTE:
        assert abs(a[key] - b[key]) <= 1e-14, key
    q, q_full = got.q.values, want.q.values
    assert np.max(np.abs(q - q_full)) <= 1e-13 * np.max(np.abs(q_full))


_SOLVE_CASES = ("128-exact", "16cubed-exact", "tol-1e-14", "warm-start")


@pytest.mark.filterwarnings("ignore:ground-state tail")
@pytest.mark.parametrize("case", [*_SOLVE_CASES, *(f"{c}-fft" for c in _SOLVE_CASES)])
def test_orthant_solve_matches_full_grid_solve(canonical, case, monkeypatch):
    # the same solve on the orthant, by dense cosine products and, "-fft",
    # by FFTs, and forced on the whole grid: the same iterations, Q and its
    # certificate to rounding, and an exactly mirror-even Q from the orthant
    force_orthant_path(monkeypatch, "fft" if case.endswith("-fft") else "dense")
    case = case.removesuffix("-fft")
    p, grid, mult, seed, opts = canonical.p, canonical.grid, canonical.mult, None, SolverOptions()
    if case == "16cubed-exact":
        p = PhysParams(N=3, s=0.7, gamma=1.6)
        grid = make_grid(N=3, n=16, L=12.0)
        mult = make_multipliers(grid, p)
    elif case == "tol-1e-14":
        opts = SolverOptions(tol=1e-14)
    elif case == "warm-start":
        seed = canonical.gs.q
    q0 = ground_state._seed_array(grid, seed, opts)
    assert type(spectral.step_transform(grid, q0)) is spectral.Orthant
    orth = solve_ground_state(p, grid, seed=seed, opts=opts, mult=mult)
    force_full_grid(monkeypatch)
    assert type(spectral.step_transform(grid, q0)) is spectral.FullGrid
    full = solve_ground_state(p, grid, seed=seed, opts=opts, mult=mult)
    _assert_same_certificate(orth, full)
    if case == "warm-start":
        assert orth.iterations <= 3
    q = orth.q.values
    for axis in range(grid.N):
        inner = q[(slice(None),) * axis + (slice(1, None),)]
        assert np.array_equal(inner, np.flip(inner, axis))


def test_orthant_certificate_matches_full_grid_certificate(canonical):
    # _certify of one Q on each path, from the spectrum each path takes of it
    s = canonical
    q = s.gs.q.values.real
    deltas, gammas = list(s.gs.delta_history), list(s.gs.gamma_history)
    certs = []
    for tr in (spectral.Orthant(s.grid), spectral.FullGrid(s.grid)):
        qhat = tr.rfft(tr.reduce(q))
        certs.append(ground_state._certify(qhat, s.p, tr, s.mult, True, deltas, gammas))
    _assert_same_certificate(*certs)


def test_solver_history_covers_every_iteration(canonical):
    gs = canonical.gs
    assert len(gs.delta_history) == len(gs.gamma_history) == gs.iterations
    assert gs.delta_history[-1] < SolverOptions().tol
    assert all(d >= SolverOptions().tol for d in gs.delta_history[:-1])
    assert abs(gs.gamma_history[-1] ** 1.5 - 1.0) == gs.final_alpha_dev
    assert gs.solver_history() == {
        "delta": list(gs.delta_history), "gamma": list(gs.gamma_history),
    }


def test_anderson_safeguard_drops_history_on_residual_rise():
    # on the half spectrum of the whole grid (complex) and on the orthant (real)
    for seam in (spectral.FullGrid, spectral.Orthant):
        mixer = ground_state._Anderson(seam(make_grid(N=2, n=16, L=8.0)), depth=3)
        rng = np.random.default_rng(7)
        shape, dtype = mixer.g.shape[1:], mixer.g.dtype
        assert dtype == (np.complex128 if seam is spectral.FullGrid else np.float64)

        def push(scale):
            # a map output whose residual against a zero iterate has norm ~scale
            g = mixer.output_slot()
            g[...] = scale * rng.standard_normal(shape)
            if dtype == np.complex128:
                g.imag = scale * rng.standard_normal(shape)
            return g.copy(), mixer.residual(np.zeros(shape, dtype=dtype))

        g1, r1 = push(1.0)
        np.testing.assert_array_equal(mixer.step(), g1)  # one output: the plain step
        g2, r2 = push(0.5)
        mixer.step()
        assert mixer.mixed and len(mixer.history) == 2
        g3, r3 = push(10.0)  # the mixed step raised the residual
        assert r3 > r2
        np.testing.assert_array_equal(mixer.step(), g3)
        assert not mixer.mixed and len(mixer.history) == 1


# --------------------------------------------------------------------------
# solver behavior


@pytest.mark.filterwarnings("ignore:ground-state tail")
def test_warm_start_converges_immediately(canonical):
    gs2 = solve_ground_state(
        canonical.p, canonical.grid, seed=canonical.gs.q,
        opts=SolverOptions(), mult=canonical.mult,
    )
    assert gs2.iterations <= 3
    assert np.isclose(gs2.l2, canonical.gs.l2, rtol=1e-12)


def test_budget_exhaustion_raises_with_partial(canonical):
    with pytest.raises(NonConvergenceError) as e:
        solve_ground_state(
            canonical.p, canonical.grid,
            opts=SolverOptions(max_iter=2), mult=canonical.mult,
        )
    partial = e.value.partial
    assert not partial.converged
    assert partial.iterations == 2
    assert len(partial.delta_history) == len(partial.gamma_history) == 2
    assert partial.l2 > 0.0


def test_zero_seed_rejected(canonical):
    z = field_from_values(canonical.grid,
                          np.zeros(canonical.grid.shape, dtype=complex))
    with pytest.raises(ValueError):
        solve_ground_state(canonical.p, canonical.grid, seed=z,
                           opts=SolverOptions(), mult=canonical.mult)


@pytest.mark.filterwarnings("ignore:ground-state tail")
def test_seed_width_does_not_change_fixed_point(canonical):
    gs2 = solve_ground_state(
        canonical.p, canonical.grid,
        opts=SolverOptions(seed_width=1.6), mult=canonical.mult,
    )
    assert np.isclose(gs2.l2, canonical.gs.l2, rtol=1e-10)
    assert np.max(np.abs(gs2.q.values - canonical.gs.q.values)) < 1e-9


@pytest.mark.filterwarnings("ignore:ground-state tail")
def test_second_parameter_set(canonical):
    # s = 0.6, gamma = 1.4 sits inside the admissible window 2s < gamma < 4s
    p2 = PhysParams(N=2, s=0.6, gamma=1.4)
    m2 = make_multipliers(canonical.grid, p2)
    gs2 = solve_ground_state(p2, canonical.grid, opts=SolverOptions(), mult=m2)
    assert gs2.converged
    assert gs2.el_residual < 1e-10
    r1, r2 = gs2.pohozaev
    assert abs(r1) < 1e-12
    assert abs(r2) < 1e-4
    assert abs(gs2.v_q / gs2.hs**2 - 4.0 * p2.s / p2.gamma) < 1e-3


@pytest.mark.filterwarnings("ignore:ground-state tail")
def test_three_dimensional_solve_smoke():
    # N=3 runs the real transform pair over three axes
    p3 = PhysParams(N=3, s=0.7, gamma=1.6)
    grid = make_grid(N=3, n=16, L=12.0)
    mult = make_multipliers(grid, p3)
    gs = solve_ground_state(p3, grid, opts=SolverOptions(), mult=mult)
    assert gs.converged
    assert gs.el_residual < 1e-10
    assert abs(gs.pohozaev[0]) < 1e-12
    q = gs.q.values.real
    assert np.unravel_index(np.argmax(q), q.shape) == (8, 8, 8)
    # the profile equation checked through the complex transforms
    conv = np.fft.ifftn(mult.hartree_kernel_hat * np.fft.fftn(q * q)).real
    lq = np.fft.ifftn(mult.frac_lap_s * np.fft.fftn(q)).real + q
    resid = np.sqrt(np.sum((lq - conv * q) ** 2) / np.sum(q**2))
    assert resid < 1e-10


def test_tail_truncation_warning_fires(canonical):
    with pytest.warns(UserWarning, match="tail"):
        solve_ground_state(canonical.p, canonical.grid, seed=canonical.gs.q,
                           opts=SolverOptions(), mult=canonical.mult)


def test_default_seed_is_radial_positive(canonical):
    seed = default_seed(canonical.grid, width=2.0)
    vals = seed.values.real
    assert np.min(vals) > 0.0
    assert np.isclose(np.max(vals), 1.0, rtol=1e-14)
    assert np.allclose(vals, vals.T, atol=1e-15)


# --------------------------------------------------------------------------
# orbit check


def test_soliton_orbit_check_zero_horizon(canonical):
    assert soliton_orbit_check(canonical.gs, canonical.mult, T=0.0, dt=1e-3) == 0.0


def test_soliton_orbit_check_short_horizon(canonical):
    dev = soliton_orbit_check(canonical.gs, canonical.mult, T=0.1, dt=1e-3,
                              record_every=10)
    assert 0.0 < dev < 1e-5
