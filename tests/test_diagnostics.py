"""Resolvent quadrature, localized virial machinery, dispersal proxies."""

from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from conftest import force_full_grid
from fhartree import spectral
from fhartree.diagnostics import (
    balakrishnan_check,
    bridge_coefficients,
    build_cutoff,
    build_quadrature,
    psi_derivatives,
    virial_rhs,
    weighted_virial,
    weighted_virial_of_gaussian,
)
from fhartree.spectral import gauss_jacobi
from fhartree.functionals import (
    comparability_check,
    energy,
    gn_ratio,
    hartree_energy,
    invariant_pair,
)
from fhartree.params import PhysParams
from fhartree.spectral import (
    field_from_values,
    make_grid,
    make_multipliers,
    random_smooth_field,
    sobolev_norm,
)
from whole_grid import localized_virial


@pytest.fixture(scope="module")
def quad(params):
    return build_quadrature(params.s)


# --------------------------------------------------------------------------
# resolvent quadrature


def test_quadrature_validation():
    for bad_s in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            build_quadrature(bad_s)
    with pytest.raises(ValueError):
        build_quadrature(0.7, n_nodes=4)
    with pytest.raises(ValueError):
        build_quadrature(0.7, a=1.0, b=0.5)
    with pytest.raises(ValueError):
        build_quadrature(0.7, a=0.0)


def test_quadrature_structure(quad):
    # 8 Gauss-Jacobi nodes below a, 8 panels of 8 on [a, b], 12 above b
    assert np.all(quad.nodes > 0.0)
    assert np.all(np.diff(quad.nodes) > 0.0)
    assert np.all(quad.weights > 0.0)
    assert quad.n_nodes == 84
    assert (quad.a, quad.b) == (1e-4, 1e6)
    assert np.sum(quad.nodes < quad.a) == 8
    assert np.sum(quad.nodes > quad.b) == 12
    assert build_quadrature(0.7, n_nodes=200).n_nodes == 200


@pytest.mark.parametrize("s", [0.55, 0.7, 0.9])
def test_scalar_identity_without_truncation(s):
    # no m-cutoff: the t = 1/m Gauss-Jacobi tail is exact in its t^{-s}
    # factor, so the identity holds uniformly up to q = b/10 as s grows
    rule = build_quadrature(s)
    for q in np.logspace(-3.0, 5.0, 33):
        got = float(np.sum(rule.weights * q / (q + rule.nodes) ** 2))
        want = oracles.balakrishnan_scalar(q, s)
        assert abs(got - want) / want <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
@pytest.mark.parametrize("beta", [-0.45, -0.3, -0.1, -0.55, -0.7, -0.9])
def test_gauss_jacobi_matches_scipy(n, beta):
    # beta = s - 1 (head) and -s (tail) for s in {0.55, 0.7, 0.9}; weights
    # compared against their total, since scipy's own small weights drift
    # by ~1e-13 relative at these sizes (40-digit Newton reference)
    from scipy.special import roots_jacobi

    x, w = gauss_jacobi(n, 0.0, beta)
    x_ref, w_ref = roots_jacobi(n, 0.0, beta)
    assert np.max(np.abs(x - x_ref)) <= 1e-13
    assert np.max(np.abs(w - w_ref)) <= 1e-13 * np.sum(w_ref)


def test_scalar_resolvent_identity(quad, params):
    # int_0^inf m^s q/(q+m)^2 dm = q^s pi s / sin(pi s), mode by mode
    for q in (0.04, 1.0, 40.0, 300.0):
        got = float(np.sum(quad.weights * q / (q + quad.nodes) ** 2))
        want = oracles.balakrishnan_scalar(q, params.s)
        assert abs(got - want) / want < 5e-7


def test_scalar_identity_improves_with_nodes(params):
    def worst(n):
        rule = build_quadrature(params.s, n_nodes=n)
        return max(
            abs(float(np.sum(rule.weights * q / (q + rule.nodes) ** 2))
                - oracles.balakrishnan_scalar(q, params.s))
            / oracles.balakrishnan_scalar(q, params.s)
            for q in (0.04, 1.0, 40.0, 300.0)
        )

    assert worst(200) < worst(100)


def test_norm_identity_on_gaussian(canonical, quad):
    u = field_from_values(canonical.grid,
                          np.exp(-canonical.grid.r_mesh**2).astype(complex))
    lhs, rhs, rel = balakrishnan_check(u, canonical.p, quad)
    assert rhs > 0.0
    assert rel < 1e-6


def test_norm_identity_on_random_field(canonical, quad):
    rng = random.Random(7)
    u = field_from_values(canonical.grid,
                          random_smooth_field(canonical.grid, rng))
    assert balakrishnan_check(u, canonical.p, quad)[2] < 1e-6


def test_norm_identity_stable_under_node_halving(canonical, params):
    u = field_from_values(canonical.grid,
                          np.exp(-canonical.grid.r_mesh**2).astype(complex))
    half = build_quadrature(params.s, n_nodes=100)
    assert balakrishnan_check(u, canonical.p, half)[2] < 1e-6


def test_norm_identity_zero_field(canonical, quad):
    z = field_from_values(canonical.grid,
                          np.zeros(canonical.grid.shape, dtype=complex))
    lhs, rhs, rel = balakrishnan_check(z, canonical.p, quad)
    assert lhs == rhs == rel == 0.0


# --------------------------------------------------------------------------
# cutoff profile


def test_bridge_coefficients_are_the_known_integers():
    assert np.allclose(bridge_coefficients(),
                       [-301.0, 973.0, -1226.0, 705.0, -155.0], atol=1e-9)


def test_psi_matches_r_squared_inside():
    rho = np.array([0.0, 0.3, 0.7, 1.0])
    psi0, psi1, psi2, psi3, psi4 = psi_derivatives(rho)
    assert np.allclose(psi0, rho**2, atol=1e-14)
    assert np.allclose(psi1, 2 * rho, atol=1e-14)
    assert np.allclose(psi2, 2.0, atol=1e-14)
    assert np.allclose(psi3, 0.0, atol=1e-14)
    assert np.allclose(psi4, 0.0, atol=1e-14)


def test_psi_vanishes_outside():
    rho = np.array([2.0, 2.5, 10.0])
    for table in psi_derivatives(rho):
        assert np.allclose(table, 0.0, atol=1e-12)


def test_psi_c4_continuity_at_seams():
    # The bridge's fifth derivative reaches ~4e4, so a one-sided probe at
    # distance eps drifts by eps * |psi^(5)| in the fourth-derivative table.
    # eps = 1e-12 keeps that drift near 4e-8, well inside the tolerance.
    eps = 1e-12
    left = psi_derivatives(np.array([1.0 - eps, 2.0 - eps]))
    right = psi_derivatives(np.array([1.0 + eps, 2.0 + eps]))
    for dl, dr in zip(left, right):
        assert abs(dl[0] - dr[0]) < 1e-6  # seam at rho = 1
        assert abs(dl[1] - dr[1]) < 1e-6  # seam at rho = 2


def test_psi_derivative_tables_consistent_by_finite_difference():
    rho = np.linspace(0.05, 2.5, 401)
    h = 1e-5
    tables = psi_derivatives(rho)
    for order in range(4):
        up = psi_derivatives(rho + h)[order]
        dn = psi_derivatives(rho - h)[order]
        fd = (up - dn) / (2 * h)
        # away from the seams the FD of one table matches the next
        mask = (np.abs(rho - 1.0) > 2 * h) & (np.abs(rho - 2.0) > 2 * h)
        assert np.max(np.abs(fd[mask] - tables[order + 1][mask])) < 1e-4


def test_build_cutoff_geometry(canonical):
    phi = build_cutoff(canonical.grid)
    assert phi.R == canonical.grid.L / 4.0
    g = canonical.grid
    c = g.n // 2
    # the whole-grid tables, centered
    grad0 = phi.gradient(spectral.FullGrid(g), 0)
    lap2 = spectral.even_points(phi.lap2_orthant, g.n)
    ball_mask = spectral.even_points(phi.ball_orthant, g.n)
    # grad phi = 2x on the ball
    i = c + 8  # x = 2 < R = 8
    assert np.isclose(grad0[i, c], 2.0 * g.x_axis[i], rtol=1e-12)
    assert np.isclose(grad0[c, c], 0.0, atol=1e-14)
    # the spectral bilaplacian table sums to zero, as in the continuum
    assert abs(np.sum(lap2)) <= 1e-14 * np.sum(np.abs(lap2))
    assert ball_mask[c, c]
    assert not ball_mask[0, 0]


def _whole_grid_cutoff(g, R):
    """build_cutoff's tables tabulated on the whole grid from grid.r_mesh
    and grid.x_mesh, centered, with lap2 taken on the orthant of psi."""
    rho = g.r_mesh / R
    psi0, psi1, psi2, _, _ = psi_derivatives(rho)
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = np.where(rho > 0.0, psi1 / rho, 2.0)
    tr = spectral.Orthant(g)
    spec = tr.restrict(g.xi_sq) ** 2 * tr.rfft(tr.reduce(R**2 * psi0))
    return {
        "slope": slope,
        "grad": [slope * x for x in g.x_mesh],
        "psi_pp": np.where((rho > 1.0) & (rho < 2.0), psi2, 0.0),
        "lap2": R**2 * tr.expand(tr.irfft(spec)),
        "ball": rho <= 1.0,
    }


@pytest.mark.parametrize("N, n, L", [(2, 64, 16.0), (3, 16, 8.0)])
def test_cutoff_tables_on_the_orthant_are_the_restricted_whole_grid_ones(N, n, L):
    # the orthant tables and the gradients slope * x_a formed from them on
    # either seam are bit for bit the whole-grid tables, signs of zero too
    g = make_grid(N=N, n=n, L=L)
    phi = build_cutoff(g)
    want = _whole_grid_cutoff(g, phi.R)
    tr, full = spectral.Orthant(g), spectral.FullGrid(g)
    for name, table in (("slope", phi.slope_orthant), ("psi_pp", phi.psi_pp_orthant),
                        ("lap2", phi.lap2_orthant), ("ball", phi.ball_orthant)):
        assert table.shape == tr.shape, name
        assert np.array_equal(table, tr.reduce(want[name])), name
        assert np.array_equal(full.even_points(table), want[name]), name
    for axis, whole in enumerate(want["grad"]):
        for seam, table in ((tr, tr.reduce(whole)), (full, whole)):
            got = phi.gradient(seam, axis)
            assert got.shape == table.shape
            assert np.array_equal(got, table) and np.array_equal(np.signbit(got), np.signbit(table))


def test_orthant_diagnostics_build_no_grid_mesh(params, quad):
    # an orthant build_cutoff, weighted_virial, virial_rhs and
    # balakrishnan_check read the orthant's own coordinates and symbols: a
    # fresh grid caches no whole-grid mesh
    g = make_grid(N=2, n=64, L=16.0)
    mult = make_multipliers(g, params)
    tr = spectral.Orthant(g)
    u = field_from_values(g, tr.expand(np.exp(-tr.r_mesh**2 / 2.0)))
    assert type(spectral.step_transform(g, u.values)) is spectral.Orthant
    phi = build_cutoff(g)
    weighted_virial(u, params)
    virial_rhs(u, phi, params, mult, quad)
    balakrishnan_check(u, params, quad)
    assert not {"x_mesh", "r_mesh", "xi_mesh", "xi_sq", "deriv_mesh"} & set(vars(g))


def test_build_cutoff_validation(canonical):
    with pytest.raises(ValueError):
        build_cutoff(canonical.grid, R=0.6 * canonical.grid.L)
    with pytest.raises(ValueError):
        build_cutoff(canonical.grid, R=0.0)


# --------------------------------------------------------------------------
# localized virial


def test_virial_vanishes_for_real_profile(canonical):
    phi = build_cutoff(canonical.grid)
    assert abs(localized_virial(canonical.gs.q, phi)) < 1e-12


def test_virial_of_moving_packet_closed_form(canonical):
    # offset carrier Gaussian inside the ball: M_R = 4 k d ||u||_2^2
    g = canonical.grid
    phi = build_cutoff(g)
    dk = 2 * np.pi / g.L
    k0 = round(1.5 / dk) * dk
    d = 2.0
    vals = 0.7 * np.exp(-(((g.x_mesh[0] - d) ** 2 + g.x_mesh[1] ** 2)))
    vals = vals * np.exp(1j * k0 * g.x_mesh[0])
    u = field_from_values(g, vals.astype(complex))
    want = 4.0 * k0 * d * (0.7**2 * np.pi / 2.0)
    got = localized_virial(u, phi)
    assert abs(got - want) / abs(want) < 1e-12


def test_virial_validation(canonical):
    phi = build_cutoff(canonical.grid)
    u = field_from_values(canonical.grid,
                          np.exp(-canonical.grid.r_mesh**2).astype(complex))
    other = make_grid(N=2, n=64, L=16.0)
    phi_other = build_cutoff(other)
    with pytest.raises(ValueError):
        localized_virial(u, phi_other)


# --------------------------------------------------------------------------
# virial time derivative


def test_virial_rhs_matches_surrogate_identity(canonical, quad):
    """For box-contained states the localized rhs approaches the full-space
    identity 2 gamma ((4s/gamma) G - V); agreement is limited by the
    annulus/bilaplacian localization remainder, not by quadrature."""
    p = canonical.p
    phi = build_cutoff(canonical.grid)
    u = field_from_values(canonical.grid, 0.9 * canonical.gs.q.values)
    r = virial_rhs(u, phi, p, canonical.mult, quad)
    G = sobolev_norm(u, p.s) ** 2
    V = hartree_energy(u, canonical.mult)
    surrogate = 2.0 * p.gamma * ((4.0 * p.s / p.gamma) * G - V)
    assert abs(r.total - surrogate) / (2.0 * p.gamma * G) < 5e-3
    assert r.a_r_bound > 0.0


def test_virial_rhs_time_derivative_consistency(virial_fd, quad):
    """Fourth-order finite difference of M_R(t) along a stored run against
    main + interaction at the center state, with the reported remainder
    scale covering the gap."""
    setup, rec = virial_fd
    phi = build_cutoff(setup.grid)
    ts = np.array([t for t, _ in rec.snapshots])
    mr = np.array([localized_virial(u, phi) for _, u in rec.snapshots])
    k = len(ts) // 2
    dt = ts[1] - ts[0]
    fd4 = (-mr[k + 2] + 8 * mr[k + 1] - 8 * mr[k - 1] + mr[k - 2]) / (12 * dt)
    r = virial_rhs(rec.snapshots[k][1], phi, setup.p, setup.mult, quad)
    assert abs(fd4 - r.total) / abs(fd4) < 2e-5
    assert abs(fd4 - r.total) < r.a_r_bound


def test_virial_rhs_head_seam_insensitive(virial_fd, quad):
    """With the zero-sum bilaplacian the m-integrand has no 1/m^2 pole, so
    moving the head seam from 1e-4 to 1e-6 leaves the total in place."""
    setup, rec = virial_fd
    phi = build_cutoff(setup.grid)
    u = rec.snapshots[len(rec.snapshots) // 2][1]
    base = virial_rhs(u, phi, setup.p, setup.mult, quad).total
    moved = virial_rhs(u, phi, setup.p, setup.mult,
                       build_quadrature(setup.p.s, a=1e-6)).total
    assert abs(moved - base) <= 1e-8 * abs(base)


def test_virial_rhs_default_rule_matches_fine_rule(virial_fd, quad):
    setup, _ = virial_fd
    phi = build_cutoff(setup.grid)
    q = setup.gs.q
    r = virial_rhs(q, phi, setup.p, setup.mult, quad)
    fine = virial_rhs(q, phi, setup.p, setup.mult, build_quadrature(setup.p.s, n_nodes=200))
    assert abs(r.main - fine.main) <= 1e-10 * abs(fine.main)


def test_virial_rhs_phase_invariant(canonical, quad):
    # a real Q takes the one-part path, e^{i theta} Q the two-part path
    p, q = canonical.p, canonical.gs.q
    phi = build_cutoff(canonical.grid)
    assert not np.any(q.values.imag)
    one = virial_rhs(q, phi, p, canonical.mult, quad)
    two = virial_rhs(field_from_values(canonical.grid, np.exp(0.7j) * q.values),
                     phi, p, canonical.mult, quad)
    for a, b in ((one.main, two.main), (one.interaction, two.interaction),
                 (one.a_r_bound, two.a_r_bound)):
        assert abs(a - b) <= 1e-13 * abs(a)


def test_rule_must_cover_the_grid(canonical):
    # max |xi|^2 at 128^2, L=32 is 2 (pi/h)^2 = 316 > b/10 = 100
    short = build_quadrature(canonical.p.s, b=1e3)
    phi = build_cutoff(canonical.grid)
    with pytest.raises(ValueError, match="b/10"):
        virial_rhs(canonical.gs.q, phi, canonical.p, canonical.mult, short)
    with pytest.raises(ValueError, match="b/10"):
        balakrishnan_check(canonical.gs.q, canonical.p, short)


def test_rule_must_reach_the_lowest_mode():
    # (2 pi/L)^2 against a = 1e-4: 8.1e-5 at L=700, 1.1e-4 at L=600
    rule = build_quadrature(0.7)
    with pytest.raises(ValueError, match="below a"):
        rule.require_covers(make_grid(N=2, n=16, L=700.0))
    rule.require_covers(make_grid(N=2, n=16, L=600.0))


def test_virial_rhs_positive_inside_k1(virial_fd, quad):
    # the K1 coercivity: main + interaction > 0 at sampled states of a run
    # that starts in K1
    setup, rec = virial_fd
    assert rec.series["membership"][0] == "K1"
    phi = build_cutoff(setup.grid)
    idx = (0, len(rec.snapshots) // 2, len(rec.snapshots) - 1)
    totals = [virial_rhs(rec.snapshots[i][1], phi, setup.p, setup.mult, quad).total
              for i in idx]
    assert all(v > 0.0 for v in totals)


def test_virial_rhs_validation(canonical, quad):
    phi = build_cutoff(canonical.grid)
    u = field_from_values(canonical.grid,
                          np.exp(-canonical.grid.r_mesh**2).astype(complex))
    other = make_grid(N=2, n=64, L=16.0)
    with pytest.raises(ValueError):
        virial_rhs(u, build_cutoff(other), canonical.p, canonical.mult, quad)


# --------------------------------------------------------------------------
# weighted coordinate virial


def test_weighted_virial_matches_continuum_oracle(canonical, params):
    u = field_from_values(canonical.grid,
                          np.exp(-canonical.grid.r_mesh**2).astype(complex))
    got = weighted_virial(u, params)
    want = oracles.gaussian_weighted_virial(params.s, 1.0)
    assert abs(got - want) / want < 1e-5


@pytest.mark.parametrize("s", [0.55, 0.7, 0.9])
def test_gaussian_weighted_virial_closed_form(s):
    # exp(-r^2/2) is the oracle's Gaussian of width sqrt(2)
    want = oracles.gaussian_weighted_virial(s, np.sqrt(2.0))
    assert abs(weighted_virial_of_gaussian(s, 2) - want) <= 1e-10 * want


@pytest.mark.parametrize("N, n, L, gamma, tol", [(2, 128, 32.0, 1.6, 1e-5),
                                                 (3, 32, 16.0, 1.6, 1e-4)])
def test_gaussian_weighted_virial_matches_grid(N, n, L, gamma, tol):
    p = PhysParams(N=N, s=0.7, gamma=gamma)
    g = make_grid(N=N, n=n, L=L)
    u = field_from_values(g, np.exp(-g.r_mesh**2 / 2.0).astype(complex))
    want = weighted_virial_of_gaussian(p.s, N)
    assert abs(weighted_virial(u, p) - want) <= tol * want


def test_weighted_virial_nonnegative_and_quadratic(canonical, params):
    rng = random.Random(23)
    u = field_from_values(canonical.grid,
                          random_smooth_field(canonical.grid, rng))
    v1 = weighted_virial(u, params)
    assert v1 >= 0.0
    u3 = field_from_values(canonical.grid, 3.0 * u.values)
    assert np.isclose(weighted_virial(u3, params), 9.0 * v1, rtol=1e-12)


def test_weighted_virial_warns_on_boundary_mass(canonical, params):
    wide = field_from_values(canonical.grid,
                             np.exp(-canonical.grid.r_mesh**2 / 12.0**2).astype(complex))
    with pytest.warns(UserWarning, match="0.4 L"):
        weighted_virial(wide, params)


# --------------------------------------------------------------------------
# dispersal proxies


def test_scattering_proxies_on_dispersing_run(dispersal_run):
    # V and the L^{p_c} norm fall, and the running space-time norm grows
    # ever more slowly: its average rate over the last quarter of the run
    # is below that over the first
    rec = dispersal_run
    assert rec.v_ratio_final < 0.5
    assert rec.ratio("lpc") < 1.0
    t, stri = rec.series["time"], rec.series["strichartz_accum"]
    assert stri[-1] > 0.0
    i1 = int(np.searchsorted(t, t[0] + 0.25 * (t[-1] - t[0])))
    i3 = int(np.searchsorted(t, t[0] + 0.75 * (t[-1] - t[0])))
    rate_initial = (stri[i1] - stri[0]) / (t[i1] - t[0])
    rate_final = (stri[-1] - stri[i3]) / (t[-1] - t[i3])
    assert rate_final < rate_initial


# --------------------------------------------------------------------------
# every diagnostic on the transform seam: a mirror-even state runs on the
# orthant, any other on the whole grid


def _seam_values(u, p, mult, quad, phi):
    """Every public value that takes its transforms from step_transform."""
    rhs = virial_rhs(u, phi, p, mult, quad)
    pair = invariant_pair(u, p, mult)
    comp = comparability_check(u, p, mult)
    lhs, rhs_b, _ = balakrishnan_check(u, p, quad)
    return {
        "virial_main": rhs.main, "virial_interaction": rhs.interaction,
        "virial_a_r_bound": rhs.a_r_bound, "localized_virial": localized_virial(u, phi),
        "hartree_energy": hartree_energy(u, mult), "sobolev_norm": sobolev_norm(u, p.s),
        "l2_norm": sobolev_norm(u, 0.0), "gn_ratio": gn_ratio(u, 0.3, p, mult),
        "energy": energy(u, mult), "pair_me": pair.me, "pair_grad": pair.grad,
        "comparability_hs_sq": comp.hs_sq, "comparability_energy": comp.energy,
        "coercivity_gap": comp.coercivity_gap, "balakrishnan_lhs": lhs,
        "balakrishnan_rhs": rhs_b, "weighted_virial": weighted_virial(u, p),
    }


def _even_state(g, kind):
    """A mirror-even state that does not vanish on the box faces, a product
    of per-axis Lorentzians of different widths, times a radial chirp when
    complex; reduced to the orthant and expanded, so exactly even."""
    vals = np.ones(g.shape, dtype=np.complex128)
    for x, w in zip(g.x_mesh, (2.0, 3.0, 2.5)):
        vals /= 1.0 + (x / w) ** 2
    if kind == "complex":
        vals *= np.exp(0.05j * g.r_mesh**2)
    tr = spectral.Orthant(g)
    return field_from_values(g, tr.expand(tr.reduce(vals)))


_SEAM_CASES = {"2d-dense": (2, 128, 32.0, 1.6), "2d-fft": (2, 512, 32.0, 1.6),
               "3d": (3, 32, 16.0, 2.0)}


@pytest.mark.filterwarnings("ignore:weighted_virial")
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("case", list(_SEAM_CASES))
def test_seam_diagnostics_match_the_full_grid(case, kind, monkeypatch):
    # the orthant value of each moved function against the explicit
    # whole-grid value of the expanded state
    N, n, L, gamma = _SEAM_CASES[case]
    g = make_grid(N=N, n=n, L=L)
    p = PhysParams(N=N, s=0.7, gamma=gamma)
    args = (p, make_multipliers(g, p), build_quadrature(p.s), build_cutoff(g))
    u = _even_state(g, kind)
    tr = spectral.step_transform(g, u.values)
    assert type(tr) is spectral.Orthant and tr.dense == (case != "2d-fft")
    got = _seam_values(u, *args)
    force_full_grid(monkeypatch)
    assert type(spectral.step_transform(g, u.values)) is spectral.FullGrid
    want = _seam_values(u, *args)
    for name, value in want.items():
        if kind == "real" and name == "localized_virial":
            assert got[name] == value == 0.0  # M_R of a real state, on both paths
        else:
            assert abs(got[name] - value) <= 1e-13 * abs(value), name


@pytest.mark.filterwarnings("ignore:weighted_virial")
def test_seam_diagnostics_of_a_non_even_state_are_the_full_grid_values(canonical, quad,
                                                                         monkeypatch):
    s = canonical
    u = field_from_values(s.grid, random_smooth_field(s.grid, random.Random(8)))
    assert type(spectral.step_transform(s.grid, u.values)) is spectral.FullGrid
    args = (s.p, s.mult, quad, build_cutoff(s.grid))
    got = _seam_values(u, *args)
    force_full_grid(monkeypatch)
    assert _seam_values(u, *args) == got


@pytest.mark.filterwarnings("ignore:weighted_virial")
def test_each_public_call_chooses_its_seam_once(canonical, quad, monkeypatch):
    s = canonical
    scans = []
    detector = spectral.is_mirror_even
    monkeypatch.setattr(spectral, "is_mirror_even", lambda v: scans.append(1) or detector(v))
    phi = build_cutoff(s.grid)
    calls = (
        lambda u: gn_ratio(u, s.gs.cgn_a, s.p, s.mult),
        lambda u: energy(u, s.mult),
        lambda u: invariant_pair(u, s.p, s.mult),
        lambda u: comparability_check(u, s.p, s.mult),
        lambda u: virial_rhs(u, phi, s.p, s.mult, quad),
        lambda u: localized_virial(u, phi),
        lambda u: balakrishnan_check(u, s.p, quad),
        lambda u: weighted_virial(u, s.p),
    )
    for call in calls:
        scans.clear()
        call(s.gs.q)
        assert len(scans) == 1
