"""Grid construction, transform convention, multipliers, kernel modes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fhartree import spectral
from fhartree.params import PhysParams
from fhartree.spectral import (
    CONVENTION_TAG,
    apply_multiplier,
    build_hartree_kernel,
    dealias_mask,
    field_from_values,
    fractional_laplacian,
    hartree_potential,
    linear_propagator,
    lp_norm,
    make_grid,
    make_multipliers,
    parseval_weight,
    random_smooth_field,
    riesz_cell_average,
    sample_riesz_kernel,
    sobolev_norm,
    to_fourier,
    to_physical,
)


def _rng_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return field_from_values(grid, random_smooth_field(grid, rng))


# --------------------------------------------------------------------------
# grids


def test_grid_geometry():
    g = make_grid(N=2, n=64, L=16.0)
    assert g.h == 0.25
    assert g.x_axis[0] == -8.0
    assert g.x_axis[-1] == 8.0 - 0.25
    assert np.isclose(g.xi_nyquist, np.pi * 64 / 16.0)
    assert g.shape == (64, 64)
    assert g.r_mesh[32, 32] == 0.0


@pytest.mark.parametrize("bad_n", [12, 17, 100, 8])
def test_grid_rejects_bad_n(bad_n):
    with pytest.raises(ValueError):
        make_grid(N=2, n=bad_n, L=16.0)


def test_grid_rejects_bad_dims():
    with pytest.raises(ValueError):
        make_grid(N=4, n=32, L=8.0)
    with pytest.raises(ValueError):
        make_grid(N=2, n=32, L=-1.0)


# --------------------------------------------------------------------------
# transform convention


def test_roundtrip_identity():
    g = make_grid(N=2, n=64, L=16.0)
    u = _rng_field(g, seed=3)
    back = to_physical(g, to_fourier(u))
    assert np.max(np.abs(back.values - u.values)) < 1e-13


def test_centered_delta_has_flat_spectrum():
    """The forward transform must treat index n/2 as x=0: a delta there has
    coefficients h^N exactly, which pins down the ifftshift placement."""
    g = make_grid(N=2, n=32, L=8.0)
    vals = np.zeros(g.shape, dtype=np.complex128)
    vals[16, 16] = 1.0
    hat = to_fourier(field_from_values(g, vals))
    assert np.max(np.abs(hat - g.h**2)) < 1e-15


@given(seed=st.integers(0, 2**31 - 1))
def test_parseval_both_spaces(seed):
    g = make_grid(N=2, n=32, L=8.0)
    u = _rng_field(g, seed=seed)
    m_phys = g.h**2 * np.sum(np.abs(u.values) ** 2)
    hat = to_fourier(u)
    m_four = parseval_weight(g) * np.sum(np.abs(hat) ** 2)
    assert np.isclose(m_phys, m_four, rtol=1e-12, atol=0.0)


def test_plane_wave_is_fraclap_eigenfunction(params):
    g = make_grid(N=2, n=64, L=16.0)
    k = 2.0 * np.pi / 16.0 * 5  # on-grid wavenumber
    u = field_from_values(g, np.exp(1j * k * g.x_mesh[0]))
    out = fractional_laplacian(u, params.s)
    assert np.max(np.abs(out.values - k ** (2 * params.s) * u.values)) < 1e-12


def test_linear_propagator_is_unitary(params):
    g = make_grid(N=2, n=32, L=8.0)
    u = _rng_field(g, seed=9)
    v = linear_propagator(u, 0.37, params.s)
    m0 = g.h**2 * np.sum(np.abs(u.values) ** 2)
    m1 = g.h**2 * np.sum(np.abs(v.values) ** 2)
    assert np.isclose(m0, m1, rtol=1e-13)


# --------------------------------------------------------------------------
# continuum references


# The periodic operator differs from the free-space one by wrapped image
# tails ~ (w/L)^(N+2s), so the oracle comparison needs a box much larger
# than the profile width.  (1024, 256) puts both test widths below 1e-6.
@pytest.fixture(scope="module")
def oracle_grid():
    return make_grid(N=2, n=1024, L=256.0)


def test_fraclap_matches_continuum_on_gaussian(params, oracle_grid):
    g = oracle_grid
    for w in (1.0, 2.0):
        u = field_from_values(g, np.exp(-g.r_mesh**2 / w**2).astype(complex))
        fl = fractional_laplacian(u, params.s)
        j0_idx = g.n // 2  # x = 0 column
        for r in (0.0, 0.75, 1.5):
            i = int(np.argmin(np.abs(g.x_axis - r)))
            want = oracles.gaussian_fraclap(params.s, w, abs(g.x_axis[i]))
            got = fl.values[i, j0_idx].real
            assert abs(got - want) / abs(want) < 1e-6


def test_fraclap_periodization_error_decays_algebraically(params):
    # rel error at the origin should drop by ~2^(N+2s) per box doubling
    errs = []
    for n, L in ((128, 32.0), (256, 64.0)):
        g = make_grid(N=2, n=n, L=L)
        u = field_from_values(g, np.exp(-g.r_mesh**2).astype(complex))
        fl = fractional_laplacian(u, params.s)
        want = oracles.gaussian_fraclap(params.s, 1.0, 0.0)
        errs.append(abs(fl.values[n // 2, n // 2].real - want) / abs(want))
    assert errs[0] < 5e-5
    ratio = errs[0] / errs[1]
    assert 7.0 < ratio < 16.0  # 2^3.4 = 10.6


def test_sobolev_norm_matches_continuum_on_gaussian(oracle_grid):
    g = oracle_grid
    for w in (1.0, 2.0):
        u = field_from_values(g, np.exp(-g.r_mesh**2 / w**2).astype(complex))
        for alpha in (0.7, 1.0):
            got = sobolev_norm(u, alpha) ** 2
            want = oracles.gaussian_hs_sq(alpha, w)
            assert abs(got - want) / want < 1e-6
        # |xi|^2 is smooth, so alpha = 1 is spectrally exact
        got = sobolev_norm(u, 1.0) ** 2
        assert abs(got - oracles.gaussian_hs_sq(1.0, w)) / got < 1e-12


def test_sobolev_norm_small_alpha_limited_by_spectral_cusp():
    # |xi|^(2a) has a cusp at 0; the mode sum converges only like
    # L^-(N+2a), so small alpha stays above 1e-6 even on a big box.
    g = make_grid(N=2, n=256, L=64.0)
    u = field_from_values(g, np.exp(-g.r_mesh**2).astype(complex))
    for alpha in (0.1, 0.35):
        got = sobolev_norm(u, alpha) ** 2
        want = oracles.gaussian_hs_sq(alpha, w=1.0)
        assert abs(got - want) / want < 2e-3


def test_lp_norm_on_gaussian():
    g = make_grid(N=2, n=128, L=32.0)
    # ||exp(-r^2/w^2)||_p^p = pi w^2 / p in 2-D
    u = field_from_values(g, np.exp(-g.r_mesh**2 / 1.5**2).astype(complex))
    p = 2.2222
    want = (np.pi * 1.5**2 / p) ** (1.0 / p)
    assert abs(lp_norm(u, p) - want) / want < 1e-12


# --------------------------------------------------------------------------
# kernel modes


def test_riesz_cell_average_matches_polar_quadrature():
    for h in (0.25, 0.125):
        got = riesz_cell_average(1.6, h, 2)
        want = oracles.riesz_origin_average(1.6, h)
        assert abs(got - want) / want < 1e-12


def test_sampled_kernel_matches_direct_construction():
    g = make_grid(N=2, n=32, L=8.0)
    got = sample_riesz_kernel(g, 1.6)
    want = oracles.sampled_kernel(32, 8.0, 1.6)
    assert np.max(np.abs(got - want)) / np.max(want) < 1e-13


def test_sampled_kernel_validation():
    g = make_grid(N=2, n=32, L=8.0)
    with pytest.raises(ValueError):
        sample_riesz_kernel(g, 2.5)  # not locally integrable in 2-D
    with pytest.raises(ValueError):
        sample_riesz_kernel(g, -0.3)


def test_exact_kernel_matches_quadrature_oracle():
    g = make_grid(N=2, n=16, L=4.0)
    hat = build_hartree_kernel(g, 1.6, mode="exact")
    dk = 2.0 * np.pi / 4.0
    for a, b in [(0, 0), (1, 0), (0, 4), (2, 3), (5, 5), (8, 0), (8, 8)]:
        want = oracles.exact_kernel_coefficient(4.0, 1.6, a * dk, b * dk)
        assert abs(hat[a, b] - want) / abs(want) < 1e-10


def test_exact_kernel_node_insensitive():
    g = make_grid(N=2, n=16, L=4.0)
    h16 = build_hartree_kernel(g, 1.6, mode="exact", nodes=16)
    h20 = build_hartree_kernel(g, 1.6, mode="exact", nodes=20)
    assert np.max(np.abs(h16 - h20)) / np.max(np.abs(h20)) < 1e-12


def test_exact_kernel_only_2d():
    g =  make_grid(N=3, n=16, L=4.0)
    with pytest.raises(NotImplementedError):
        build_hartree_kernel(g, 1.6, mode="exact")


def test_kernel_table_is_real_even_positive():
    g = make_grid(N=2, n=32, L=8.0)
    for mode in ("sampled", "exact"):
        hat = build_hartree_kernel(g, 1.6, mode=mode)
        assert hat.dtype == np.float64
        # evenness: hat(-k) = hat(k)
        flipped = np.roll(hat[::-1, ::-1], (1, 1), axis=(0, 1))
        assert np.max(np.abs(hat - flipped)) < 1e-12 * np.max(np.abs(hat))
        assert hat[0, 0] > 0.0


# Reference forms of the exact-kernel build: one full 2-D FFT per tensor
# node (nodes^2 of them) and the origin-cell series summed term by term.
# The package factors both; these keep the unfactored arithmetic.


def _reference_origin_series(grid, gamma, m_max=26):
    half = grid.h / 2.0
    t, w = np.polynomial.legendre.leggauss(48)
    th = (t + 1.0) * (np.pi / 8.0)
    wth = w * (np.pi / 8.0)
    cos_th, sin_th = np.cos(th), np.sin(th)
    xi1 = grid.xi_mesh[0] * half
    xi2 = grid.xi_mesh[1] * half
    F0 = np.zeros(grid.shape)
    for b1 in range(0, m_max + 1, 2):
        for b2 in range(0, m_max + 1 - b1, 2):
            q = b1 + b2 + 2 - gamma
            radial = (half / cos_th) ** q / q
            mu = 4.0 * np.sum(
                wth * (cos_th**b1 * sin_th**b2 + cos_th**b2 * sin_th**b1) * radial
            ) / half ** (b1 + b2)
            sign = (-1.0) ** ((b1 + b2) // 2)
            F0 += (sign * mu / (math.factorial(b1) * math.factorial(b2))) * xi1**b1 * xi2**b2
    return F0


def _reference_exact_kernel(grid, gamma, nodes=20):
    n, L, h = grid.n, grid.L, grid.h
    ax = grid.x_axis
    half = h / 2.0
    c = n // 2
    t, w = np.polynomial.legendre.leggauss(nodes)
    xi_ax = grid.xi_axis
    hat = np.zeros((n, n), dtype=np.complex128)
    shifted_sq = [((ax + half * ti + L / 2.0) % L - L / 2.0) ** 2 for ti in t]
    phases = [np.exp(-1j * xi_ax * (half * ti)) for ti in t]
    for i in range(nodes):
        for k in range(nodes):
            K = (shifted_sq[i][:, None] + shifted_sq[k][None, :]) ** (-0.5 * gamma)
            K[c, c] = 0.0
            K[0, :] = 0.0
            K[:, 0] = 0.0
            hat += (w[i] * w[k] / 4.0) * (
                phases[i][:, None] * phases[k][None, :]
            ) * np.fft.fftn(np.fft.ifftshift(K))
    hat *= h * h
    u = half * (t + 1.0) / 2.0
    wu = w * (half / 2.0)
    cos1 = 2.0 * np.cos(np.outer(xi_ax, u)) * wu
    sgn = np.where(np.rint(xi_ax * L / (2.0 * np.pi)).astype(int) % 2 == 0, 1.0, -1.0)
    a_fold = sgn[:, None] * cos1
    d_cut_sq = (L / 2.0 - u) ** 2
    strip = np.zeros((nodes, n), dtype=np.complex128)
    for k in range(nodes):
        Ks = (d_cut_sq[:, None] + shifted_sq[k][None, :]) ** (-0.5 * gamma)
        Ks[:, 0] = 0.0
        f = np.fft.fft(np.fft.ifftshift(Ks, axes=1), axis=1)
        strip += (w[k] * half) * phases[k][None, :] * f
    hat += a_fold @ strip
    hat += (a_fold @ strip).T
    Kc = (d_cut_sq[:, None] + d_cut_sq[None, :]) ** (-0.5 * gamma)
    hat += (a_fold @ Kc @ a_fold.T).astype(np.complex128)
    hat += _reference_origin_series(grid, gamma)
    return hat


# The main pass runs over the unordered pairs i <= k of mirror-node pairs,
# the diagonal at weight 1/2: nodes = 1 and 3 have a self-paired middle node
# t = 0, nodes = 2 and 16 do not, and nodes = 1 and 2 leave a single pair.
@pytest.mark.parametrize(
    "n, L, nodes", [(256, 32.0, 20), (32, 8.0, 1), (32, 8.0, 2), (32, 8.0, 3), (32, 8.0, 16)]
)
def test_exact_kernel_matches_per_node_fft_loop(n, L, nodes):
    g = make_grid(N=2, n=n, L=L)
    with np.errstate(divide="ignore"):  # the t = 0 node of an odd rule
        want = _reference_exact_kernel(g, 1.6, nodes=nodes)
    got = build_hartree_kernel(g, 1.6, mode="exact", nodes=nodes)
    assert np.max(np.abs(got - want.real)) / np.max(np.abs(want.real)) <= 1e-12


def test_exact_kernel_matches_per_node_fft_loop_odd_rule():
    # an odd rule has a self-paired middle node t = 0
    g = make_grid(N=2, n=128, L=32.0)
    with np.errstate(divide="ignore"):
        want = _reference_exact_kernel(g, 1.6, nodes=19)
    got = build_hartree_kernel(g, 1.6, mode="exact", nodes=19)
    assert np.max(np.abs(got - want.real)) / np.max(np.abs(want.real)) <= 1e-12


@pytest.mark.parametrize("N", [2, 3])
def test_half_pairing_matches_physical_sum(N):
    # a random field fills every column of the half spectrum, Nyquist too
    g = make_grid(N=N, n=16, L=8.0)
    f = np.random.default_rng(5).standard_normal(g.shape)
    table = 1.0 + g.xi_sq**0.7
    want = g.h**N * np.sum(f * np.fft.ifftn(table * np.fft.fftn(f)).real)
    hat = spectral._rfftn(f)
    got = np.sum(spectral._half_pairing(g, spectral._half(table)) * np.abs(hat) ** 2)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_origin_series_matches_term_by_term():
    g = make_grid(N=2, n=64, L=16.0)
    want = _reference_origin_series(g, 1.6)
    got = spectral._origin_cell_oscillatory_series(g, 1.6, m_max=26)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-13


def test_unknown_kernel_mode_rejected():
    g = make_grid(N=2, n=32, L=8.0)
    with pytest.raises(ValueError):
        build_hartree_kernel(g, 1.6, mode="spectral")


# --------------------------------------------------------------------------
# Hartree potential vs the literal double sum


def test_hartree_potential_equals_double_sum(params):
    g = make_grid(N=2, n=32, L=8.0)
    mult = make_multipliers(g, params, kernel_mode="sampled")
    u = _rng_field(g, seed=21)
    rho = np.abs(u.values) ** 2
    got = hartree_potential(u, mult)
    want = oracles.direct_potential(rho, oracles.sampled_kernel(32, 8.0, params.gamma), g.h)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12


# --------------------------------------------------------------------------
# misc multiplier machinery


def test_dealias_mask_keeps_low_kills_high():
    g = make_grid(N=2, n=64, L=16.0)
    mask = dealias_mask(g, 2.0 / 3.0)
    assert mask[0, 0]            # zero mode survives
    assert not mask[32, 32]      # Nyquist corner dies
    frac = mask.sum() / mask.size
    assert 0.35 < frac < 0.55    # ~ (2/3)^2 with rounding


def test_apply_multiplier_diagonal_action():
    g = make_grid(N=2, n=32, L=8.0)
    u = _rng_field(g, seed=4)
    table = np.cos(g.xi_sq)  # arbitrary real symbol
    v = apply_multiplier(u, table)
    want = to_physical(g, table * to_fourier(u))
    assert np.max(np.abs(v.values - want.values)) < 1e-13


def test_grad_kernel_hat_built_on_first_read(params):
    g = make_grid(N=2, n=32, L=8.0)
    mult = make_multipliers(g, params, kernel_mode="sampled")
    assert "grad_kernel_hat" not in vars(mult)
    grad = mult.grad_kernel_hat
    assert "grad_kernel_hat" in vars(mult)
    assert len(grad) == 2
    for xi, table in zip(g.xi_mesh, grad):
        assert np.array_equal(table, 1j * xi * mult.hartree_kernel_hat)
    assert mult.grad_kernel_hat is grad


def test_multiplier_set_tables(params):
    g = make_grid(N=2, n=32, L=8.0)
    mult = make_multipliers(g, params, kernel_mode="exact")
    assert mult.kernel_zero_mode > 0
    assert mult.frac_lap_s[0, 0] == 0.0
    assert CONVENTION_TAG  # non-empty, embedded in artifacts
