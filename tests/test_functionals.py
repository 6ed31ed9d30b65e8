"""Conserved functionals, sharp-constant ratio, scaling symmetry, membership."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from fhartree.functionals import (
    classify_from_ratios,
    classify_membership,
    comparability_check,
    critical_norms,
    energy,
    gn_ratio,
    hartree_energy,
    invariant_pair,
    mass,
    scale_solution,
)
from fhartree.params import PhysParams
from fhartree.spectral import (
    field_from_values,
    lp_norm,
    make_grid,
    make_multipliers,
    random_smooth_field,
    sobolev_norm,
)


def _gaussian(grid, amp=1.0, w=1.0, carrier=0.0):
    vals = amp * np.exp(-grid.r_mesh**2 / w**2)
    if carrier:
        vals = vals * np.exp(1j * carrier * grid.x_mesh[0])
    return field_from_values(grid, vals.astype(complex))


# --------------------------------------------------------------------------
# mass and energy building blocks


def test_mass_gaussian_closed_form(canonical):
    # ||a exp(-r^2/w^2)||_2^2 = a^2 pi w^2 / 2 in 2-D
    u = _gaussian(canonical.grid, amp=1.3, w=1.7)
    want = 1.3**2 * np.pi * 1.7**2 / 2.0
    assert abs(mass(u) - want) / want < 1e-13


def test_mass_carrier_invariant(canonical):
    # |u| is unchanged by a plane-wave phase, so the mass must be too
    plain = _gaussian(canonical.grid, w=1.2)
    mod = _gaussian(canonical.grid, w=1.2, carrier=6 * np.pi / canonical.grid.L)
    assert np.isclose(mass(plain), mass(mod), rtol=1e-13)


def test_quartic_matches_direct_double_sum(params):
    g = make_grid(N=2, n=32, L=8.0)
    m = make_multipliers(g, params, kernel_mode="sampled")
    vals = np.exp(-g.r_mesh**2) * (1.0 + 0.3 * np.sin(g.x_mesh[0]))
    u = field_from_values(g, vals.astype(complex))
    K = oracles.sampled_kernel(32, 8.0, params.gamma)
    direct = oracles.direct_quartic(np.abs(u.values) ** 2, K, g.h)
    assert abs(hartree_energy(u, m) - direct) / direct < 1e-12


@pytest.mark.parametrize("N, n, L", [(2, 64, 16.0), (3, 16, 8.0)])
def test_parseval_v_matches_physical_sum(N, n, L):
    # V summed on the half spectrum of rho = |u|^2 against h^N sum (W * rho) rho,
    # the convolution through the complex pair; white noise fills every mode
    g = make_grid(N=N, n=n, L=L)
    m = make_multipliers(g, PhysParams(N=N, s=0.7, gamma=1.6), kernel_mode="sampled")
    rng = np.random.default_rng(23)
    for _ in range(3):
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        rho = vals.real**2 + vals.imag**2
        conv = np.fft.ifftn(m.hartree_kernel_hat * np.fft.fftn(rho)).real
        want = g.h**N * np.sum(conv * rho)
        assert abs(hartree_energy(field_from_values(g, vals), m) - want) <= 1e-13 * want


def test_quartic_nonnegative_on_random_fields(canonical):
    # the interaction kernel has nonnegative Fourier coefficients, so
    # V(u) >= 0 for every field
    rng = np.random.default_rng(17)
    for _ in range(10):
        u = field_from_values(canonical.grid,
                              random_smooth_field(canonical.grid, rng))
        assert hartree_energy(u, canonical.mult) >= 0.0


def test_energy_combines_gradient_and_quartic(canonical):
    u = _gaussian(canonical.grid, amp=0.8, w=1.4)
    g2 = sobolev_norm(u, canonical.p.s) ** 2
    v = hartree_energy(u, canonical.mult)
    assert np.isclose(energy(u, canonical.mult), 0.5 * g2 - 0.25 * v, rtol=1e-14)


def test_invariant_pair_rejects_zero_field(canonical):
    z = field_from_values(canonical.grid,
                          np.zeros(canonical.grid.shape, dtype=complex))
    with pytest.raises(ValueError):
        invariant_pair(z, canonical.p, canonical.mult)
    with pytest.raises(ValueError):
        gn_ratio(z, canonical.gs.cgn_a, canonical.p, canonical.mult)


# --------------------------------------------------------------------------
# scaling symmetry


@given(lam=st.floats(min_value=0.5, max_value=2.0))
def test_invariant_pair_is_scale_invariant(canonical, lam):
    """The mass-energy and mass-gradient products absorb the critical rescaling.

    Tolerances reflect the wrapped-image error of the periodic Hs-dot norm
    at L=32, which differs slightly between the original and scaled widths.
    """
    u = _gaussian(canonical.grid, amp=1.3, w=1.0)
    ul = scale_solution(u, lam, canonical.p)
    a = invariant_pair(u, canonical.p, canonical.mult)
    b = invariant_pair(ul, canonical.p, canonical.mult)
    assert abs(b.me - a.me) / abs(a.me) < 2e-3
    assert abs(b.grad - a.grad) / a.grad < 2e-3


@given(lam=st.floats(min_value=0.5, max_value=2.0))
def test_critical_norms_scale_invariant(canonical, lam):
    u = _gaussian(canonical.grid, amp=1.1, w=1.0)
    ul = scale_solution(u, lam, canonical.p)
    sc0, pc0 = critical_norms(u, canonical.p)
    sc1, pc1 = critical_norms(ul, canonical.p)
    # the |xi|^(2 s_c) cusp limits the Hs_c-dot sum to ~1e-2 here; the
    # physical-space L^{p_c} norm is spectrally clean
    assert abs(sc1 - sc0) / sc0 < 2e-2
    assert abs(pc1 - pc0) / pc0 < 1e-6


def test_scale_solution_identity(canonical):
    u = _gaussian(canonical.grid, amp=1.3, w=1.0, carrier=2 * np.pi / canonical.grid.L)
    same = scale_solution(u, 1.0, canonical.p)
    assert np.max(np.abs(same.values - u.values)) < 1e-13 * np.max(np.abs(u.values))


def test_scale_solution_pointwise(canonical):
    # lam^{(N - gamma + 2s)/2} u(lam x) evaluated against the closed form
    p = canonical.p
    u = _gaussian(canonical.grid, amp=1.3, w=1.0)
    pref = 0.5 * (p.N - p.gamma + 2.0 * p.s)
    for lam in (0.5, 2.0):
        ul = scale_solution(u, lam, p)
        c = canonical.grid.n // 2
        x1 = canonical.grid.x_axis[c + 5]
        want = lam**pref * 1.3 * np.exp(-((lam * x1) ** 2))
        assert np.isclose(ul.values[c + 5, c].real, want, rtol=1e-12)


def test_scale_solution_no_ghost_copies(canonical):
    # compressing by lam = 2 must not wrap periodic images of the profile
    # back into the corners of the box
    u = _gaussian(canonical.grid, amp=1.0, w=1.0)
    ul = scale_solution(u, 2.0, canonical.p)
    assert np.max(np.abs(ul.values[:8, :8])) < 1e-12
    assert abs(mass(ul) / mass(u) - 2.0 ** (2 * canonical.p.s - canonical.p.gamma)) < 1e-8


def test_scale_solution_rejects_extreme_lambda(canonical):
    u = _gaussian(canonical.grid)
    for lam in (0.1, 4.5, -1.0):
        with pytest.raises(ValueError):
            scale_solution(u, lam, canonical.p)


def test_scale_solution_warns_when_support_hits_boundary(canonical):
    wide = _gaussian(canonical.grid, w=10.0)
    with pytest.warns(UserWarning, match="support radius"):
        scale_solution(wide, 1.0, canonical.p)


# --------------------------------------------------------------------------
# sharp-inequality ratio


def test_gn_ratio_is_one_at_ground_state(canonical):
    r = gn_ratio(canonical.gs.q, canonical.gs.cgn_a, canonical.p, canonical.mult)
    assert abs(r - 1.0) < 1e-3


def test_gn_ratio_below_one_on_random_fields(canonical):
    rng = np.random.default_rng(1234)
    for _ in range(20):
        u = field_from_values(canonical.grid,
                              random_smooth_field(canonical.grid, rng))
        r = gn_ratio(u, canonical.gs.cgn_a, canonical.p, canonical.mult)
        assert r <= 1.0 + 1e-4


@given(amp=st.floats(min_value=0.2, max_value=3.0))
def test_gn_ratio_amplitude_invariant(canonical, amp):
    # V and its bound share the overall-amplitude degree, so the ratio
    # cannot depend on a constant rescaling of u
    u0 = _gaussian(canonical.grid, amp=1.0, w=1.3)
    ua = _gaussian(canonical.grid, amp=amp, w=1.3)
    r0 = gn_ratio(u0, canonical.gs.cgn_a, canonical.p, canonical.mult)
    ra = gn_ratio(ua, canonical.gs.cgn_a, canonical.p, canonical.mult)
    assert abs(ra - r0) < 1e-10


# --------------------------------------------------------------------------
# membership classification


@pytest.mark.parametrize(
    "me_ratio,grad_ratio,verdict",
    [
        (0.5, 0.5, "K1"),
        (-3.0, 0.98, "K1"),
        (0.5, 1.5, "K2"),
        (-3.0, 2.0, "K2"),
        (1.2, 1.5, "Neither"),
        (1.2, 0.5, "Neither"),  # me >= threshold wins over small gradient
        (0.9, 1.0 + 5e-4, "Boundary"),
        (1.5, 1.0, "Boundary"),  # boundary band takes precedence
    ],
)
def test_classification_table(me_ratio, grad_ratio, verdict):
    assert classify_from_ratios(me_ratio, grad_ratio).verdict == verdict


def test_classification_boundary_tolerance_override():
    assert classify_from_ratios(0.9, 1.002).verdict == "K2"
    assert classify_from_ratios(0.9, 1.002, boundary_tol=1e-2).verdict == "Boundary"
    assert classify_from_ratios(0.9, 1.0 + 5e-4, boundary_tol=1e-6).verdict == "K2"


def test_ground_state_orbit_classifies_boundary(canonical):
    pair = invariant_pair(canonical.gs.q, canonical.p, canonical.mult)
    m = classify_membership(pair, canonical.gs)
    assert m.verdict == "Boundary"
    assert abs(m.me_ratio - 1.0) < 1e-3
    assert abs(m.grad_ratio - 1.0) < 1e-3


@pytest.mark.parametrize("c,verdict", [(0.8, "K1"), (0.95, "K1"),
                                       (1.05, "K2"), (1.3, "K2")])
def test_rescaled_ground_state_membership(canonical, c, verdict):
    u = field_from_values(canonical.grid, c * canonical.gs.q.values)
    pair = invariant_pair(u, canonical.p, canonical.mult)
    m = classify_membership(pair, canonical.gs)
    assert m.verdict == verdict
    # closed forms for the c*Q family: grad ratio c^14, me ratio c^14 (8 - 7 c^2)
    power = 2 * (canonical.p.mass_power + 1)
    assert np.isclose(m.grad_ratio, c**power, rtol=2e-3)
    assert np.isclose(m.me_ratio, c**power * (8.0 - 7.0 * c**2), rtol=2e-2)


def test_modulated_gaussian_reaches_neither(canonical):
    # a fast carrier pumps the gradient without touching mass or V, so the
    # mass-energy product can exceed the ground-state threshold
    k = 80 * np.pi / canonical.grid.L
    u = _gaussian(canonical.grid, amp=0.6, w=1.0, carrier=k)
    pair = invariant_pair(u, canonical.p, canonical.mult)
    m = classify_membership(pair, canonical.gs)
    assert m.verdict == "Neither"
    assert m.me_ratio > 1.0


# --------------------------------------------------------------------------
# comparability and coercivity


def test_comparability_inside_k1(canonical):
    u = field_from_values(canonical.grid, 0.9 * canonical.gs.q.values)
    rep = comparability_check(u, canonical.p, canonical.mult)
    assert rep.ok
    assert rep.lower_margin > 0.0
    assert rep.upper_margin > 0.0
    assert rep.coercivity_gap > 0.0
    # margins are exactly E - ((gamma-2s)/(2 gamma)) G and G/2 - E
    p = canonical.p
    lo = rep.energy - (p.gamma - 2 * p.s) / (2 * p.gamma) * rep.hs_sq
    assert np.isclose(rep.lower_margin, lo, rtol=1e-12)
    assert np.isclose(rep.upper_margin, 0.5 * rep.hs_sq - rep.energy, rtol=1e-12)


def test_comparability_fails_outside_k1(canonical):
    # for c Q with c > 1 the gap is c^2 (1 - c^2) G < 0
    u = field_from_values(canonical.grid, 1.3 * canonical.gs.q.values)
    rep = comparability_check(u, canonical.p, canonical.mult)
    assert not rep.ok
    assert rep.coercivity_gap < 0.0
    assert rep.lower_margin < 0.0
    assert rep.upper_margin > 0.0  # V >= 0 keeps the upper bound always true


def test_critical_norms_values(canonical):
    p = canonical.p
    u = _gaussian(canonical.grid, amp=1.0, w=1.5)
    sc, pc = critical_norms(u, p)
    want_pc = (np.pi * 1.5**2 / p.p_c) ** (1.0 / p.p_c)
    assert abs(pc - want_pc) / want_pc < 1e-12
    want_sc_sq = oracles.gaussian_hs_sq(p.s_c, 1.5)
    # |xi|^{2 s_c} cusp: mode sum converges only algebraically in 1/L
    assert abs(sc**2 - want_sc_sq) / want_sc_sq < 2e-2
    assert np.isclose(pc, lp_norm(u, p.p_c), rtol=1e-14)
