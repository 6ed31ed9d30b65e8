"""Fixed-point solver convergence and the certification identity suite."""

from __future__ import annotations

import itertools
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import force_full_grid, force_orthant_path

from fhartree import ground_state, spectral
from fhartree.evolution import StepperConfig, evolve
from fhartree.functionals import energy, hartree_energy, mass
from fhartree.ground_state import (
    NonConvergenceError,
    SolverOptions,
    _cgn_values,
    solve_ground_state,
)
from fhartree.params import PhysParams
from fhartree.spectral import (
    field_from_values,
    make_grid,
    make_multipliers,
    random_smooth_field,
    sobolev_norm,
)
from whole_grid import default_seed, fractional_laplacian, hartree_potential, pohozaev_residuals


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


def _public_certificate(q, p, mult):
    """Every float scalar of GroundState.summary() but final_alpha_dev,
    recomputed from the profile q through the public functionals (complex
    transforms for the Sobolev norms): the values held relative to
    themselves and the residuals held absolute, as two dicts."""
    grid = q.grid
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
    flipped = [np.roll(np.flip(vals, a), 1, a) for a in range(grid.N)] + [np.swapaxes(vals, 0, 1)]
    centre = (n // 2,) * grid.N
    edges = [vals[centre[:a] + (0,) + centre[a + 1:]] for a in range(grid.N)]
    want = {
        "l2": l2,
        "hs": hs,
        "v_q": hartree_energy(q, mult),
        "e_q": e_q,
        "cgn_a": cgn_a,
        "cgn_b": cgn_b,
        "me_Q": factor * e_q,
        "grad_Q": factor * hs**2,
        "tail_ratio": max(abs(e) for e in edges) / np.max(np.abs(vals)),
    }
    # cgn_discrepancy is a cancelled two-route difference (~1e-5): held
    # relative to itself it would pin the summation order, while cgn_a and
    # cgn_b above already pin both routes
    residuals = {
        "cgn_discrepancy": abs(cgn_a - cgn_b) / cgn_a,
        "el_residual": np.sqrt(grid.h**grid.N * np.sum(lhs**2)) / l2,
        "pohozaev_r1": r1,
        "pohozaev_r2": r2,
        "radial_asymmetry": max(np.max(np.abs(vals - f)) for f in flipped) / np.max(np.abs(vals)),
        "max_imag_frac": 0.0,
    }
    return want, residuals


def test_summary_matches_public_functionals(canonical):
    # every scalar of the one-pass certificate, recomputed through the
    # public functionals
    gs = canonical.gs
    want, residuals = _public_certificate(gs.q, canonical.p, canonical.mult)
    got = gs.summary()
    # final_alpha_dev belongs to the last iteration, not to Q alone
    floats = {k for k, v in got.items() if isinstance(v, float)} - {"final_alpha_dev"}
    assert floats == set(want) | set(residuals)
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12 * abs(value), key
    for key, value in residuals.items():
        assert abs(got[key] - value) <= 1e-12, key


def _six_transform_iterate(p, grid, mult, opts=SolverOptions(), seed=None):
    """The solver's iteration before the spectrum was carried, on the whole
    grid from the real part of seed (default: the default seed): N(q), Lq
    and L^{-1} N(q) each through an rfftn/irfftn pair, 6 real transforms.
    Returns the last map output, the iteration count and the last gamma."""
    hN = grid.h**grid.N
    axes = tuple(range(grid.N))

    def multiply(table, f):
        half = table[..., : grid.n // 2 + 1]
        return np.fft.irfftn(half * np.fft.rfftn(f, axes=axes), s=f.shape, axes=axes)

    lhat = 1.0 + grid.xi_sq**p.s
    q = (default_seed(grid, opts.seed_width) if seed is None else seed).values.real.copy()
    for it in range(1, opts.max_iter + 1):
        nq = multiply(mult.hartree_kernel_hat, q * q) * q
        lq = multiply(lhat, q)
        gamma_k = (hN * np.sum(q * lq)) / (hN * np.sum(q * nq))
        q_next = gamma_k**1.5 * multiply(1.0 / lhat, nq)
        delta = np.sqrt(hN * np.sum((q_next - q) ** 2)) / np.sqrt(hN * np.sum(q**2))
        q = q_next
        if delta < opts.tol:
            return q, it, gamma_k
    raise AssertionError("reference iteration did not converge")


@pytest.mark.filterwarnings("ignore:ground-state tail")
def test_carried_spectrum_matches_six_transform_iteration(canonical, monkeypatch):
    # depth 0 is the plain iteration the reference runs
    monkeypatch.setattr(ground_state, "ANDERSON_DEPTH", 0)
    want, iterations, _ = _six_transform_iterate(canonical.p, canonical.grid, canonical.mult)
    gs = solve_ground_state(canonical.p, canonical.grid, opts=SolverOptions(), mult=canonical.mult)
    got = gs.q.values.real
    assert gs.iterations == iterations
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    p3 = PhysParams(N=3, s=0.7, gamma=1.6)
    grid = make_grid(N=3, n=16, L=12.0)
    mult = make_multipliers(grid, p3)
    want, iterations, _ = _six_transform_iterate(p3, grid, mult)
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
    orthant transforms tr."""
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
        num = np.sum(lpair * qhat**2)
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
def test_buffered_iteration_matches_allocating_loop(N, n, L, explicit_seed):
    # from the default seed and from an off-centre seed, which the solver
    # centres and makes mirror-even first
    p = PhysParams(N=N, s=0.7, gamma=1.6)
    grid = make_grid(N=N, n=n, L=L)
    mult = make_multipliers(grid, p)
    seed = None
    if explicit_seed:
        bump = random_smooth_field(grid, random.Random(5), n_bumps=2, span=1.0)
        seed = field_from_values(grid, default_seed(grid, 1.3).values + 0.1 * bump)
        seed_before = seed.values.copy()
        assert not spectral.is_mirror_even(seed.values.real)
    opts = SolverOptions()
    tr = spectral.Orthant(grid)
    q = ground_state._seed_array(tr, seed, opts)
    want = _reference_iterate(p, tr, mult, q.copy(), opts)
    got = ground_state._iterate(p, tr, mult, q, opts)
    assert got[1] == want[1] is True
    assert got[0].dtype == np.float64 and got[0].shape == (n // 2 + 1,) * N
    np.testing.assert_array_equal(got[0], want[0])
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
    if explicit_seed:
        # the loop writes its iterates into its own arrays, never the seed's
        np.testing.assert_array_equal(seed.values, seed_before)


@pytest.mark.parametrize("N, n, L", _BUFFERED_CASES)
def test_buffered_orthant_iteration_matches_allocating_loop(N, n, L, monkeypatch):
    # the cases above transform by dense cosine products; here the orthant
    # transforms by FFTs of the mirror extension
    force_orthant_path(monkeypatch, "fft")
    p = PhysParams(N=N, s=0.7, gamma=1.6)
    grid = make_grid(N=N, n=n, L=L)
    mult = make_multipliers(grid, p)
    opts = SolverOptions()
    tr = spectral.Orthant(grid)
    assert not tr.dense
    q = ground_state._seed_array(tr, None, opts)
    want = _reference_iterate(p, tr, mult, q.copy(), opts)
    got = ground_state._iterate(p, tr, mult, q, opts)
    assert got[1] == want[1] is True
    assert got[0].dtype == np.float64 and got[0].shape == (n // 2 + 1,) * N
    np.testing.assert_array_equal(got[0], want[0])
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])


# --------------------------------------------------------------------------
# the orthant against the whole-grid oracles

#: Certificate scalars held to 1e-12 relative against the oracles; the
#: residuals and cancelled differences are held to 1e-14 absolute.
_ABSOLUTE = ("el_residual", "pohozaev_r1", "pohozaev_r2", "cgn_discrepancy", "radial_asymmetry")


def _assert_matches_whole_grid(gs, q_want, mult, monkeypatch):
    """gs's Q to 1e-13 of its peak against the profile q_want of the whole
    grid, and its certificate to the bounds above against the certificate
    of its Q through the public functionals forced on the whole grid."""
    assert np.max(np.abs(gs.q.values - q_want)) <= 1e-13 * np.max(np.abs(q_want))
    force_full_grid(monkeypatch)
    want, residuals = _public_certificate(gs.q, gs.params, mult)
    got = gs.summary()
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12 * abs(value), key
    for key in _ABSOLUTE:
        assert abs(got[key] - residuals[key]) <= 1e-14, key


_SOLVE_CASES = ("128-exact", "16cubed-exact", "tol-1e-14", "warm-start")


@pytest.mark.filterwarnings("ignore:ground-state tail")
@pytest.mark.parametrize("case", [*_SOLVE_CASES, *(f"{c}-fft" for c in _SOLVE_CASES)])
def test_orthant_solve_matches_full_grid_solve(canonical, case, monkeypatch):
    # the plain iteration on the orthant, by dense cosine products and,
    # "-fft", by FFTs, against the six-transform iteration on the whole
    # grid: the same iterations, Q and its certificate to rounding, and an
    # exactly mirror-even Q
    monkeypatch.setattr(ground_state, "ANDERSON_DEPTH", 0)
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
    orth = solve_ground_state(p, grid, seed=seed, opts=opts, mult=mult)
    q_want, iterations, gamma = _six_transform_iterate(p, grid, mult, opts, seed)
    assert orth.converged and orth.iterations == iterations
    if case == "warm-start":
        assert orth.iterations <= 3
    assert abs(orth.final_alpha_dev - abs(gamma**1.5 - 1.0)) <= 1e-14
    q = orth.q.values
    for axis in range(grid.N):
        inner = q[(slice(None),) * axis + (slice(1, None),)]
        assert np.array_equal(inner, np.flip(inner, axis))
    _assert_matches_whole_grid(orth, q_want, mult, monkeypatch)


def test_orthant_certificate_matches_full_grid_certificate(canonical, monkeypatch):
    # _certify of one Q on the orthant, by dense cosine products and by
    # FFTs, from the spectrum each path takes of it
    s = canonical
    q = s.gs.q.values.real
    deltas, gammas = list(s.gs.delta_history), list(s.gs.gamma_history)
    certs = []
    for path in ("dense", "fft"):
        force_orthant_path(monkeypatch, path)
        tr = spectral.Orthant(s.grid)
        assert tr.dense == (path == "dense")
        qhat = tr.rfft(tr.reduce(q))
        certs.append(ground_state._certify(qhat, s.p, tr, s.mult, True, deltas, gammas))
    for cert in certs:
        assert cert.iterations == s.gs.iterations
        assert cert.final_alpha_dev == s.gs.final_alpha_dev
        _assert_matches_whole_grid(cert, q, s.mult, monkeypatch)


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
    mixer = ground_state._Anderson(spectral.Orthant(make_grid(N=2, n=16, L=8.0)), depth=3)
    rng = np.random.default_rng(7)
    shape = mixer.g.shape[1:]
    assert mixer.g.dtype == np.float64

    def push(scale):
        # a map output whose residual against a zero iterate has norm ~scale
        g = mixer.output_slot()
        g[...] = scale * rng.standard_normal(shape)
        return g.copy(), mixer.residual(np.zeros(shape))

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


def _gaussian_at(grid, centre, width_sq=1.0):
    return np.exp(-sum((x - c) ** 2 for x, c in zip(grid.x_mesh, centre)) / width_sq)


#: Seeds that are not mirror-even, at the canonical grid unless the case
#: says 16^3: (values of the grid, the Orthant path or None).
_OFF_CENTRE_SEEDS = {
    "bump": (lambda g: np.exp(-g.r_mesh**2 / 1.69) + 0.1 * _gaussian_at(g, (0.5, -0.2), 0.8), None),
    "at-0.7,-0.3": (lambda g: _gaussian_at(g, (0.7, -0.3)), None),
    "at-5,-3": (lambda g: _gaussian_at(g, (5.0, -3.0)), None),
    "at-12,12": (lambda g: _gaussian_at(g, (12.0, 12.0)), None),
    "at-0.7,-0.3-fft": (lambda g: _gaussian_at(g, (0.7, -0.3)), "fft"),
    "16cubed-at-0.7,-0.3,0.4": (lambda g: _gaussian_at(g, (0.7, -0.3, 0.4)), None),
}


@pytest.fixture(scope="module")
def cubic():
    p = PhysParams(N=3, s=0.7, gamma=1.6)
    grid = make_grid(N=3, n=16, L=12.0)
    mult = make_multipliers(grid, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # box-truncation advisory at L=12
        gs = solve_ground_state(p, grid, mult=mult)
    return p, grid, mult, gs


def _off_centre_setup(case, canonical, cubic):
    if case.startswith("16cubed"):
        return cubic
    return canonical.p, canonical.grid, canonical.mult, canonical.gs


@pytest.mark.filterwarnings("ignore:ground-state tail")
@pytest.mark.parametrize("case", list(_OFF_CENTRE_SEEDS))
def test_off_centre_seed_converges_to_the_centred_profile(canonical, cubic, case, monkeypatch):
    # the solver centres the seed and averages it with its mirror images,
    # so it converges as fast as from the default seed, to the same Q
    values, path = _OFF_CENTRE_SEEDS[case]
    p, grid, mult, base = _off_centre_setup(case, canonical, cubic)
    if path is not None:
        force_orthant_path(monkeypatch, path)
    seed = field_from_values(grid, values(grid))
    assert not spectral.is_mirror_even(seed.values)
    before = seed.values.copy()
    gs = solve_ground_state(p, grid, seed=seed, opts=SolverOptions(), mult=mult)
    assert gs.converged and gs.iterations <= 30
    q_base = base.q.values
    assert np.max(np.abs(gs.q.values - q_base)) <= 1e-11 * np.max(np.abs(q_base))
    # the seed is averaged over the axis permutations too, so Q is as
    # symmetric as from the default seed (<= 1.2e-15 measured)
    assert gs.radial_asymmetry < 1e-14
    np.testing.assert_array_equal(seed.values, before)


@pytest.mark.parametrize("case", ["bump", "16cubed-at-0.7,-0.3,0.4"])
def test_off_centre_seed_is_averaged_over_axis_permutations(canonical, cubic, case):
    values, _ = _OFF_CENTRE_SEEDS[case]
    _, grid, _, _ = _off_centre_setup(case, canonical, cubic)
    tr = spectral.Orthant(grid)
    q = ground_state._seed_array(tr, field_from_values(grid, values(grid)), SolverOptions())
    assert q.shape == tr.shape
    for perm in itertools.permutations(range(grid.N)):
        assert np.max(np.abs(np.transpose(q, perm) - q)) <= 4e-16 * np.max(q)


@pytest.mark.filterwarnings("ignore:ground-state tail")
def test_solver_builds_no_whole_grid_transforms(canonical, cubic, monkeypatch):
    def refuse(self, grid):
        raise AssertionError("the solver built a FullGrid")

    monkeypatch.setattr(spectral.FullGrid, "__init__", refuse)
    dense_max = spectral.DENSE_MAX_POINTS
    for case, (values, path) in _OFF_CENTRE_SEEDS.items():
        p, grid, mult, _ = _off_centre_setup(case, canonical, cubic)
        monkeypatch.setattr(spectral, "DENSE_MAX_POINTS", {None: dense_max, "fft": 0}[path])
        seed = field_from_values(grid, values(grid))
        assert solve_ground_state(p, grid, seed=seed, opts=SolverOptions(), mult=mult).converged


@pytest.mark.filterwarnings("ignore:ground-state tail")
@pytest.mark.parametrize("N, n, L, path", [(2, 128, 32.0, "dense"), (2, 512, 64.0, "fft"),
                                           (3, 16, 12.0, "dense")])
def test_solver_builds_no_whole_grid_mesh(N, n, L, path, monkeypatch):
    # the default-seed solve, its multipliers included, reads no whole-grid
    # mesh of the grid: every table and the seed are built on the orthant
    def refuse(self):
        raise AssertionError("the solve built a whole-grid mesh")

    for name in ("x_mesh", "r_mesh", "xi_mesh", "xi_sq", "deriv_mesh"):
        monkeypatch.setattr(spectral.GridSpec, name, property(refuse))
    force_orthant_path(monkeypatch, path)
    grid = make_grid(N=N, n=n, L=L)
    gs = solve_ground_state(PhysParams(N=N, s=0.7, gamma=1.6), grid)
    assert gs.converged and gs.q.values.shape == grid.shape


@pytest.mark.parametrize("N, n, L", [(2, 16, 4.0), (2, 128, 32.0), (2, 512, 64.0),
                                     (3, 16, 8.0), (3, 32, 12.0)])
@pytest.mark.parametrize("width", [1.0, 1.3])
def test_orthant_default_seed_matches_the_whole_grid_seed(N, n, L, width):
    g = make_grid(N=N, n=n, L=L)
    tr = spectral.Orthant(g)
    got = ground_state._seed_array(tr, None, SolverOptions(seed_width=width))
    assert np.array_equal(got, tr.reduce(ground_state._seed_values(g.r_mesh, width)))
    assert np.array_equal(got, tr.reduce(default_seed(g, width).values.real))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "imag-nan"])
def test_non_finite_seed_rejected(canonical, bad):
    values = default_seed(canonical.grid).values.copy()
    values[3, 5] += bad
    with pytest.raises(ValueError, match="seed must be finite"):
        solve_ground_state(canonical.p, canonical.grid, seed=field_from_values(canonical.grid, values),
                           opts=SolverOptions(max_iter=2), mult=canonical.mult)


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


def _soliton_deviation(setup, t_end):
    """The soliton_deviation column of Q evolved to t_end at fixed dt=1e-3:
    max_t ||u(t) - e^{it} Q||_2 / ||Q||_2 is its largest entry."""
    cfg = StepperConfig(dt=1e-3, t_end=t_end, record_every=10, adaptive=False)
    rec = evolve(setup.gs.q, setup.p, setup.mult, cfg, gs=setup.gs)
    return rec.series["soliton_deviation"]


def test_soliton_orbit_check_zero_horizon(canonical):
    # at t=0 the run's state is Q itself
    assert _soliton_deviation(canonical, 0.01)[0] == 0.0


def test_soliton_orbit_check_short_horizon(canonical):
    # Q solves the discrete profile equation, so e^{it} Q is an exact orbit
    # of the semi-discrete system and the deviation is the time error
    dev = float(np.max(_soliton_deviation(canonical, 0.1)))
    assert 0.0 < dev < 1e-5


def test_solve_peak_memory_at_512():
    # the kernel stays on its orthant, the FFT path's work arrays serve
    # every axis and the loop's pairings form their products in its work
    # arrays: from the kernel build to the expanded Q, the traced peak is
    # below four complex arrays of the whole grid (Q itself is one, 4 MiB)
    grid = make_grid(N=2, n=512, L=64.0)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the box-truncation advisory
            gs = solve_ground_state(PhysParams(N=2, s=0.7, gamma=1.6), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gs.converged
    assert peak < 4 * gs.q.values.nbytes
