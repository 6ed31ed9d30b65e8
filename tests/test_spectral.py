"""Grid construction, transform convention, multipliers, kernel modes."""

import ast
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, dblquad, quad
from scipy.special import gammainc

import oracles
from conftest import force_orthant_path
from fhartree import cli, spectral
from fhartree.cli import run_sweep
from fhartree.config import load_config
from fhartree.diagnostics import build_cutoff, build_quadrature, virial_rhs
from fhartree.evolution import StepperConfig, evolve
from fhartree.ground_state import solve_ground_state
from fhartree.params import PhysParams
from fhartree.spectral import (
    CONVENTION_TAG,
    build_hartree_kernel,
    dealias_mask,
    field_from_values,
    make_grid,
    make_multipliers,
    parseval_weight,
    random_smooth_field,
    sobolev_norm,
    to_fourier,
    to_physical,
)
from whole_grid import (
    apply_multiplier,
    fractional_laplacian,
    hartree_potential,
    linear_propagator,
    lp_norm,
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


def test_orthant_sobolev_norm_reads_the_orthant_in_place():
    # on the orthant, seam_sobolev_norm gathers the origin-first orthant
    # (restrict(ifftshift(v)), bit for bit) without a whole-grid copy: the
    # traced peak stays below one copy of the field
    g = make_grid(N=2, n=256, L=32.0)
    u = field_from_values(g, np.exp(-g.r_mesh**2) * (1.0 + 0.5j))
    tr = spectral.Orthant(g)
    assert np.array_equal(tr.origin_first(u.values), tr.restrict(np.fft.ifftshift(u.values)))
    symbol = tr.xi_sq**0.7
    want = spectral.seam_sobolev_norm(spectral.FullGrid(g), u, g.xi_sq**0.7)
    tracemalloc.start()
    try:
        got = spectral.seam_sobolev_norm(tr, u, symbol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - want) / want < 1e-12
    assert peak < u.values.nbytes


def test_lp_norm_on_gaussian():
    g = make_grid(N=2, n=128, L=32.0)
    # ||exp(-r^2/w^2)||_p^p = pi w^2 / p in 2-D
    u = field_from_values(g, np.exp(-g.r_mesh**2 / 1.5**2).astype(complex))
    p = 2.2222
    want = (np.pi * 1.5**2 / p) ** (1.0 / p)
    assert abs(lp_norm(u, p) - want) / want < 1e-12


# --------------------------------------------------------------------------
# the exact kernel


def test_exact_kernel_matches_quadrature_oracle():
    g = make_grid(N=2, n=16, L=4.0)
    hat = build_hartree_kernel(g, 1.6)
    dk = 2.0 * np.pi / 4.0
    for a, b in [(0, 0), (1, 0), (0, 4), (2, 3), (5, 5), (8, 0), (8, 8)]:
        want = oracles.exact_kernel_coefficient(4.0, 1.6, a * dk, b * dk)
        assert abs(hat[a, b] - want) / abs(want) < 1e-10


# the default rules (16 t-nodes per piece, 8 nodes per cell) are converged
# against 24 and 12 on the grids the suite and the benchmark certify on; the
# 16^2 grid's gap (2.9e-14) is the cell rule at the Nyquist modes
@pytest.mark.parametrize("n, L", [(16, 4.0), (128, 32.0), (256, 32.0), (512, 64.0)])
def test_exact_kernel_node_insensitive(n, L, monkeypatch):
    g = make_grid(N=2, n=n, L=L)
    default = build_hartree_kernel(g, 1.6)
    monkeypatch.setattr(spectral, "_T_NODES", 24)
    monkeypatch.setattr(spectral, "_CELL_NODES", 12)
    finer = build_hartree_kernel(g, 1.6)
    assert np.max(np.abs(default - finer)) / np.max(np.abs(finer)) < (5e-14 if n == 16 else 2e-15)


@pytest.mark.parametrize("k", [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 2, 1)],
                         ids=lambda k: "-".join(map(str, k)))
def test_exact_kernel_matches_3d_quadrature_oracle(k):
    hat = build_hartree_kernel(make_grid(N=3, n=16, L=4.0), 2.0)
    want = oracles.exact_kernel_coefficient_3d(4.0, 2.0, tuple(2.0 * np.pi / 4.0 * np.array(k)))
    assert abs(hat[k] - want) <= 1e-10 * abs(want)


# W_hat(0) is the integral of |y|^{-gamma} over the box; the radial integral
# is closed, leaving one smooth angular (2-D) or face (3-D) integral
@pytest.mark.parametrize("N, gamma", [(2, 1.4), (2, 1.6), (2, 1.9), (3, 1.6), (3, 2.0), (3, 2.4)])
def test_exact_kernel_zero_mode_matches_closed_form(N, gamma):
    L = 8.0
    a = L / 2.0
    tol = dict(epsabs=1e-16, epsrel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)  # asked beyond rounding
        if N == 2:
            inner = quad(lambda th: np.cos(th) ** (gamma - 2.0), 0.0, np.pi / 4.0, **tol)[0]
            want = 8.0 * a ** (2.0 - gamma) / (2.0 - gamma) * inner
        else:
            face = dblquad(lambda z, y: (a * a + y * y + z * z) ** (-0.5 * gamma),
                           -a, a, -a, a, **tol)[0]
            want = 6.0 / (3.0 - gamma) * a * face
    got = build_hartree_kernel(make_grid(N=N, n=16, L=L), gamma)[(0,) * N]
    assert abs(got - want) <= 2e-15 * want


@pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.9])
def test_lower_gamma_matches_scipy(a):
    # both sides of the switch from series to continued fraction at x = a + 1
    x = np.concatenate([np.geomspace(1e-8, 70.0, 300), a + 1.0 + np.linspace(-1e-3, 1e-3, 9)])
    want = gammainc(a, x) * math.gamma(a)
    assert np.max(np.abs(spectral._lower_gamma(a, x) - want) / want) <= 1e-14


def test_kernel_table_is_real_even_positive():
    g = make_grid(N=2, n=32, L=8.0)
    hat = spectral.even_table(build_hartree_kernel(g, 1.6), g.n)
    assert hat.dtype == np.float64
    # evenness: hat(-k) = hat(k)
    flipped = np.roll(hat[::-1, ::-1], (1, 1), axis=(0, 1))
    assert np.max(np.abs(hat - flipped)) < 1e-12 * np.max(np.abs(hat))
    assert hat[0, 0] > 0.0


# An independent 2-D exact kernel by cell quadrature: per-cell Gauss-Legendre
# with the phase carried exactly, one full 2-D FFT per tensor node (nodes^2
# of them), folded passes for the cells on the cut locus |y_j| = L/2, and the
# origin cell's oscillatory moment series summed term by term.


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


# `nodes` is the reference's per-cell rule: 16 and 20 are both converged
@pytest.mark.parametrize("n, L, nodes", [(256, 32.0, 20), (32, 8.0, 16), (32, 8.0, 20)])
def test_exact_kernel_matches_per_node_fft_loop(n, L, nodes):
    g = make_grid(N=2, n=n, L=L)
    want = _reference_exact_kernel(g, 1.6, nodes=nodes)
    got = spectral.even_table(build_hartree_kernel(g, 1.6), g.n)
    assert np.max(np.abs(got - want.real)) / np.max(np.abs(want.real)) <= 1e-12


@pytest.mark.parametrize("N", [2, 3])
def test_spectrum_weights_match_physical_sum(N):
    # a random field fills every column of the half spectrum, Nyquist too
    g = make_grid(N=N, n=16, L=8.0)
    tr = spectral.FullGrid(g)
    f = np.random.default_rng(5).standard_normal(g.shape)
    table = 1.0 + g.xi_sq**0.7
    want = g.h**N * np.sum(f * np.fft.ifftn(table * np.fft.fftn(f)).real)
    got = np.sum(tr.spectrum_weights(tr.spectrum_table(table)) * np.abs(tr.rfft(f)) ** 2)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("N, n, L", [(2, 64, 16.0), (3, 16, 8.0)])
def test_random_smooth_field_matches_dense_bumps(N, n, L):
    # the same draws, each bump evaluated on the whole mesh
    g = make_grid(N=N, n=n, L=L)
    rng = np.random.default_rng(31)
    want = np.zeros(g.shape, dtype=np.complex128)
    for _ in range(3):
        x0 = rng.uniform(-4.0, 4.0, size=N)
        w = rng.uniform(0.8, 2.5)
        amp = rng.normal() + 1j * rng.normal()
        want += amp * np.exp(-sum((g.x_mesh[j] - x0[j]) ** 2 for j in range(N)) / w**2)
    got = random_smooth_field(g, np.random.default_rng(31))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# --------------------------------------------------------------------------
# Hartree potential vs the literal double sum


def test_hartree_potential_equals_double_sum(params):
    g = make_grid(N=2, n=32, L=8.0)
    mult = oracles.sampled_multipliers(g, params)
    u = _rng_field(g, seed=21)
    rho = np.abs(u.values) ** 2
    got = hartree_potential(u, mult)
    want = oracles.direct_potential(rho, oracles.sampled_kernel(32, 8.0, params.gamma), g.h)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12


# --------------------------------------------------------------------------
# misc multiplier machinery


def test_dealias_mask_keeps_low_kills_high():
    g = make_grid(N=2, n=64, L=16.0)
    mask = dealias_mask(g)
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
    mult = make_multipliers(g, params)
    assert "grad_kernel_hat" not in vars(mult)
    grad = mult.grad_kernel_hat
    assert "grad_kernel_hat" in vars(mult)
    assert len(grad) == 2
    for axis, (xi, table) in enumerate(zip(g.deriv_mesh, grad)):
        assert np.array_equal(table, 1j * xi * mult.hartree_kernel_hat)
        assert not np.any(np.take(table, g.n // 2, axis=axis))  # the Nyquist mode
    assert mult.grad_kernel_hat is grad


@pytest.mark.parametrize("N, n", [(2, 64), (3, 16)])
def test_orthant_virial_tables_are_the_restricted_whole_grid_ones(N, n):
    # virial_rhs on a mirror-even state builds its derivative symbols and
    # kernel gradients on the orthant, bit for bit the restricted
    # whole-grid tables, and builds none of those
    g = make_grid(N=N, n=n, L=8.0)
    p = PhysParams(N=N, s=0.7, gamma=1.6)
    mult = make_multipliers(g, p)
    u = field_from_values(g, np.exp(-g.r_mesh**2).astype(np.complex128))
    virial_rhs(u, build_cutoff(g), p, mult, build_quadrature(p.s))
    assert "grad_kernel_hat" not in vars(mult)
    assert not {"xi_mesh", "xi_sq", "deriv_mesh"} & set(vars(g))
    tr = spectral.Orthant(g)
    for xi, gk, whole_xi, whole_gk in zip(tr.deriv_mesh, tr.grad_kernel(mult),
                                          g.deriv_mesh, mult.grad_kernel_hat):
        assert np.array_equal(np.broadcast_to(xi, tr.shape), tr.restrict(whole_xi))
        assert np.array_equal(gk, tr.restrict(whole_gk.imag))
        assert np.array_equal(np.signbit(gk), np.signbit(tr.restrict(whole_gk.imag)))


def _whole_grid_arrays(obj, grid) -> list[str]:
    """The names of obj's attributes that hold an array of n^N points or
    more, alone or in a tuple."""
    def arrays(v):
        return v if isinstance(v, tuple) else (v,)
    return [name for name, v in vars(obj).items()
            if any(isinstance(a, np.ndarray) and a.size >= grid.npoints for a in arrays(v))]


def _solve_only(g, p, mult):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the box-truncation advisory
        return solve_ground_state(p, g, mult=mult)


def _solve_and_evolve(g, p, mult):
    gs = _solve_only(g, p, mult)
    u0 = field_from_values(g, 0.9 * gs.q.values)
    rec = evolve(u0, p, mult, StepperConfig(t_end=0.01), gs=gs)
    assert rec.n_steps > 0


def _sweep_one_worker(monkeypatch):
    built = []

    def spy(grid, p):
        built.append(make_multipliers(grid, p))
        return built[-1]

    monkeypatch.setattr(cli, "make_multipliers", spy)
    cfg = load_config(overrides=["grid.n=64", "grid.L=16", "stepper.t_end=0.01"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_sweep(cfg, (0.9, 1.1), max_workers=1)
    assert [row["membership"] for row in rows] == ["K1", "K2"]
    (mult,) = built
    return mult


@pytest.mark.parametrize("run", ["solve", "evolve", "sweep"])
def test_orthant_runs_build_no_whole_grid_table(run, params, monkeypatch):
    # the kernel is held on its orthant and expanded only when read; the
    # solver, an orthant evolve and a sweep read it in place and build no
    # whole-grid table in the multiplier set or the grid
    if run == "sweep":
        mult = _sweep_one_worker(monkeypatch)
        g = mult.grid
    else:
        g = make_grid(N=2, n=64, L=16.0)
        mult = make_multipliers(g, params)
        (_solve_only if run == "solve" else _solve_and_evolve)(g, params, mult)
    assert "hartree_kernel_hat" not in vars(mult)
    assert mult.hartree_kernel_orthant.shape == (g.n // 2 + 1,) * g.N
    assert _whole_grid_arrays(mult, g) == [] and _whole_grid_arrays(g, g) == []
    assert mult.hartree_kernel_hat.shape == g.shape  # expanded on read, not kept
    assert "hartree_kernel_hat" not in vars(mult)


@pytest.mark.parametrize("N, n, path", [(2, 512, None), (3, 16, "fft")])
def test_fft_orthant_work_arrays_do_not_alias(N, n, path, monkeypatch):
    # the FFT path's axes share one real extension, one spectrum and two
    # complex extensions: calls interleaved on one orthant give, bit for
    # bit, what each gives on a fresh orthant, leave their inputs as they
    # were, and return nothing a later call overwrites
    if path is not None:
        force_orthant_path(monkeypatch, path)
    g = make_grid(N=N, n=n, L=8.0)
    tr = spectral.Orthant(g)
    assert not tr.dense
    rng = np.random.default_rng(27)
    shape = tr.shape

    def real():
        return rng.standard_normal(shape)

    def cplx():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    calls = [("rfft", real, lambda t, x: t.rfft(x)),
             ("irfft", real, lambda t, x: t.irfft(x)),
             ("fft", cplx, lambda t, x: t.fft(x)),
             ("ifft", cplx, lambda t, x: t.ifft(x))]
    for axis in range(N):
        calls.append((f"irfft_odd{axis}", real, lambda t, x, a=axis: t.irfft_odd(x, a)))
        calls.append((f"odd_power{axis}", cplx, lambda t, x, a=axis: t.odd_power(x, a)))
    order = [calls[i] for _ in range(3) for i in rng.permutation(len(calls))]
    runs = []
    for name, make, call in order:
        x = make()
        runs.append((name, call, x, x.copy(), call(tr, x)))
    for name, call, x, kept, got in runs:
        assert np.array_equal(x, kept), name
        assert np.array_equal(got, call(spectral.Orthant(g), x)), name


#: Grids of the orthant twin tests: the dense and the FFT path in 2-D, and 3-D.
_TWIN_GRIDS = [(2, 16, 4.0), (2, 128, 32.0), (2, 512, 64.0), (3, 16, 8.0), (3, 32, 12.0)]


@pytest.mark.parametrize("N, n, L", _TWIN_GRIDS)
def test_orthant_meshes_match_the_whole_grid_bit_for_bit(N, n, L):
    # the orthant builds |xi|^2 and |x| from one axis, with the whole
    # grid's arithmetic at each point
    g = make_grid(N=N, n=n, L=L)
    tr = spectral.Orthant(g)
    assert tr.xi_sq.shape == tr.r_mesh.shape == tr.shape
    assert np.array_equal(tr.xi_sq, tr.restrict(g.xi_sq))
    assert np.array_equal(tr.r_mesh, tr.reduce(g.r_mesh))
    assert tr.xi_sq is tr.xi_sq


@pytest.mark.parametrize("N, n, L", _TWIN_GRIDS)
def test_frac_lap_s_is_built_on_first_read(N, n, L):
    g = make_grid(N=N, n=n, L=L)
    mult = make_multipliers(g, PhysParams(N=N, s=0.7, gamma=1.6))
    assert "frac_lap_s" not in vars(mult) and "xi_sq" not in vars(g)
    table = mult.frac_lap_s
    assert np.array_equal(table, g.xi_sq**0.7)
    assert mult.frac_lap_s is table


def test_multiplier_set_tables(params):
    g = make_grid(N=2, n=32, L=8.0)
    mult = make_multipliers(g, params)
    assert mult.kernel_zero_mode > 0
    assert mult.frac_lap_s[0, 0] == 0.0
    assert CONVENTION_TAG  # non-empty, embedded in artifacts


def test_build_hartree_kernel_defaults_to_the_multiplier_kernel(params):
    # the two public kernel entry points build the same table
    g = make_grid(N=2, n=16, L=4.0)
    want = make_multipliers(g, params).hartree_kernel_orthant
    assert np.array_equal(build_hartree_kernel(g, params.gamma), want)


# --------------------------------------------------------------------------
# the step loop's transform seam: the orthant of a mirror-even state


# each orthant by dense cosine products and, "-fft", by FFTs of the extension
@pytest.fixture(params=[(2, 32, "dense"), (3, 16, "dense"), (2, 32, "fft"), (3, 16, "fft")],
                ids=["2d", "3d", "2d-fft", "3d-fft"])
def orthant(request, monkeypatch):
    N, n, path = request.param
    force_orthant_path(monkeypatch, path)
    tr = spectral.Orthant(make_grid(N=N, n=n, L=8.0))
    assert tr.dense == (path == "dense")
    return tr


def _orthant_values(tr, seed, real=False):
    """Random values on the orthant: their expansion is exactly mirror-even."""
    rng = np.random.default_rng(seed)
    if real:
        return rng.standard_normal(tr.shape)
    return rng.standard_normal(tr.shape) + 1j * rng.standard_normal(tr.shape)


def _head(tr):
    """The orthant k = 0..n/2 of an array in FFT (origin-first) order."""
    return (slice(0, tr.shape[0]),) * tr.grid.N


def test_orthant_transforms_match_nd_transforms(orthant):
    tr = orthant
    a = _orthant_values(tr, 1)
    whole = np.fft.ifftshift(tr.expand(a))  # origin first
    for transform, nd in ((tr.fft, np.fft.fftn), (tr.ifft, np.fft.ifftn)):
        want = nd(whole)[_head(tr)]
        out = np.empty(tr.shape, dtype=np.complex128)
        assert transform(a, out=out) is out
        assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))
    # the real transform is the DCT-I and irfft carries its n^-N, so the
    # pair returns f under a table of ones, with the DCT-I of f left in hat
    f = _orthant_values(tr, 2, real=True)
    want = np.fft.rfftn(np.fft.ifftshift(tr.expand(f)))[_head(tr)]
    hat, back = tr.real_spectrum(), np.empty(tr.shape)
    ones = tr.spectrum_table(np.ones(tr.grid.shape))
    assert tr.real_multiply(ones, f, out=back, hat=hat) is back
    assert np.max(np.abs(hat - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(back - f)) <= 1e-14 * np.max(np.abs(f))
    # the Hartree kernel on a density, against the whole grid's real pair
    full = spectral.FullGrid(tr.grid)
    kernel = spectral.even_table(build_hartree_kernel(tr.grid, 1.6), tr.grid.n)
    rho = f * f
    got = tr.expand(tr.real_multiply(tr.spectrum_table(kernel), rho))
    want = full.real_multiply(full.spectrum_table(kernel), tr.expand(rho))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _mirror(a, axis):
    """a(-x) along axis for a centered array: index j -> n - j, and index 0
    (x = -L/2, also L/2 on the torus) stays."""
    return np.roll(np.flip(a, axis), 1, axis)


def test_orthant_odd_axis_transforms_match_nd_transforms(orthant):
    # along an odd axis the orthant transforms by the sine series; each
    # result is checked against numpy's n-dimensional transform of the
    # expanded odd array
    tr, g = orthant, orthant.grid
    for axis in range(g.N):
        sign = np.sign(g.x_mesh[axis])  # 0 at x_a = 0, and -1 at the face x_a = -L/2
        at_ends = (slice(None),) * axis + ([0, -1],)
        # irfft_odd: a real array, odd along axis, whose transform is i hat
        hat = _orthant_values(tr, 10 + axis, real=True)
        hat[at_ends] = 0.0  # an odd spectrum vanishes at k = 0 and k = n/2
        f = tr.irfft_odd(hat, axis)
        odd = np.fft.ifftshift(sign * tr.expand(f))
        want = 1j * np.fft.ifftshift(sign * tr.expand(hat))  # the odd spectrum, in FFT order
        got = np.fft.fftn(odd)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), axis
        assert np.max(np.abs(f[at_ends])) <= 1e-14 * np.max(np.abs(f))
        # odd_power of x_a u for a mirror-even u, whose face x_a = -L/2 is
        # not odd: the power of the whole grid's transform, averaged over +-k_a
        v = _orthant_values(tr, 20 + axis)
        xu = np.fft.ifftshift(g.x_mesh[axis] * tr.expand(v))
        power = np.abs(np.fft.fftn(xu)) ** 2
        power = 0.5 * (power + np.roll(np.flip(power, axis), 1, axis))
        got = tr.odd_power(tr.reduce(g.x_mesh[axis]) * v, axis)
        assert np.max(np.abs(got - power[_head(tr)])) <= 1e-14 * np.max(power), axis


def test_whole_grid_derivative_of_an_even_field_is_odd():
    # i xi_a with the Nyquist mode zeroed (grid.deriv_mesh) differentiates
    # the trigonometric interpolant: d_a of a mirror-even field is odd along
    # a and even along the other axes; with the Nyquist row kept it is not
    g = make_grid(N=2, n=16, L=4.0)
    tr, full = spectral.Orthant(g), spectral.FullGrid(g)
    f = tr.expand(_orthant_values(tr, 9, real=True))
    hat = full.rfft(f)
    for axis in range(g.N):
        d = full.irfft_odd(full.spectrum_table(g.deriv_mesh[axis]) * hat, axis)
        scale = np.max(np.abs(d))
        assert np.max(np.abs(d + _mirror(d, axis))) <= 1e-14 * scale
        other = 1 - axis
        assert np.max(np.abs(d - _mirror(d, other))) <= 1e-14 * scale
        # the orthant's sine series gives the same derivative
        want = tr.irfft_odd(tr.spectrum_table(g.deriv_mesh[axis]) * tr.rfft(tr.reduce(f)), axis)
        assert np.max(np.abs(tr.reduce(d) - want)) <= 1e-14 * scale
    kept = full.irfft_odd(full.spectrum_table(g.xi_mesh[0]) * hat, 0)
    assert np.max(np.abs(kept + _mirror(kept, 0))) > 0.1 * np.max(np.abs(kept))


@pytest.mark.parametrize("N, n", [(2, 32), (2, 128), (2, 256), (3, 16), (3, 64)])
def test_dense_and_fft_orthant_transforms_agree(N, n, monkeypatch):
    # the two paths of one orthant differ only by rounding
    grid = make_grid(N=N, n=n, L=8.0)
    force_orthant_path(monkeypatch, "dense")
    dense = spectral.Orthant(grid)
    force_orthant_path(monkeypatch, "fft")
    fft = spectral.Orthant(grid)
    a, f = _orthant_values(dense, 6), _orthant_values(dense, 7, real=True)
    for name, x in (("fft", a), ("ifft", a), ("rfft", f), ("irfft", f)):
        got, want = getattr(dense, name)(x), getattr(fft, name)(x)
        assert got.dtype == want.dtype and got.shape == want.shape == dense.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), name
    for axis in range(N):
        for name, x in (("irfft_odd", f), ("odd_power", a)):
            got, want = getattr(dense, name)(x, axis), getattr(fft, name)(x, axis)
            assert got.dtype == want.dtype == np.float64 and got.shape == dense.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (name, axis)


_FFT_TRANSFORMS = {f"{mod}.fft.{name}" for mod in ("np", "numpy")
                   for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")}


def _transforms_outside_seam(tree):
    """Line numbers of the numpy.fft transform calls in tree that lie
    outside the bodies of FullGrid and Orthant."""
    found = []

    def visit(node, inside):
        inside = inside or (isinstance(node, ast.ClassDef) and node.name in ("FullGrid", "Orthant"))
        if not inside and isinstance(node, ast.Call) and ast.unparse(node.func) in _FFT_TRANSFORMS:
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_every_transform_goes_through_the_seam():
    # FullGrid and Orthant are the only code that calls a numpy.fft
    # transform; fftfreq and the shifts are index arithmetic
    probe = ast.parse("class FullGrid:\n    def f(a):\n        return np.fft.rfftn(a)\n"
                      "def g(a):\n    return np.fft.fftshift(numpy.fft.ifftn(a))\n")
    assert _transforms_outside_seam(probe) == [5]
    sources = sorted(Path(spectral.__file__).parent.glob("*.py"))
    assert sources
    found = {path.name: _transforms_outside_seam(ast.parse(path.read_text(encoding="utf-8")))
             for path in sources}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_orthant_path_follows_points_per_axis():
    # dense products up to m = n/2+1 = DENSE_MAX_POINTS, FFTs above, and
    # only the work arrays of the path taken
    for N, n, dense in ((2, 128, True), (2, 256, True), (3, 64, True), (2, 512, False)):
        tr = spectral.Orthant(make_grid(N=N, n=n, L=8.0))
        assert tr.dense == dense == (n // 2 + 1 <= spectral.DENSE_MAX_POINTS)
        assert hasattr(tr, "_work") == dense and hasattr(tr, "_axes") != dense


def test_orthant_expand_inverts_reduce(orthant):
    tr = orthant
    a = _orthant_values(tr, 3)
    u = tr.expand(a)
    assert u.shape == tr.grid.shape
    assert spectral.is_mirror_even(u)
    assert np.array_equal(tr.reduce(u), a)
    assert np.array_equal(tr.expand(tr.reduce(u)), u)
    gauss = np.exp(-tr.grid.r_mesh**2).astype(np.complex128)
    assert np.array_equal(tr.expand(tr.reduce(gauss)), gauss)


def test_orthant_sums_match_full_grid_sums(orthant, params):
    tr, g = orthant, orthant.grid
    full = spectral.FullGrid(g)
    z, f = _orthant_values(tr, 4), _orthant_values(tr, 5, real=True)
    z_full, f_full = tr.expand(z), tr.expand(f)

    def close(got, want):
        return abs(got - want) <= 1e-14 * abs(want)

    assert close(tr.total(f * f), full.total(f_full * f_full))
    assert close(tr.norm_sq(z), full.norm_sq(z_full))
    # a spectral array on the orthant stands for its expansion in FFT order
    table = g.xi_sq**0.7
    spec, spec_full = f * f, np.fft.ifftshift(tr.expand(f * f))
    assert close(tr.sum_weights(tr.restrict(table)) @ spec.ravel(),
                 full.sum_weights(table) @ spec_full.ravel())
    kernel = make_multipliers(g, PhysParams(N=g.N, s=0.7, gamma=1.6))
    kernel = kernel.hartree_kernel_hat
    got = tr.quadratic_form(tr.pairing_weights(tr.spectrum_table(kernel)), f, hat=tr.real_spectrum())
    want = full.quadratic_form(full.pairing_weights(full.spectrum_table(kernel)), f_full,
                               hat=full.real_spectrum())
    assert close(got, want)


@pytest.mark.parametrize("N, n, L", [(2, 128, 32.0), (2, 16, 4.0), (3, 16, 8.0)])
def test_step_tables_are_exactly_even(N, n, L):
    # the orthant path reads a table only at k >= 0
    g = make_grid(N=N, n=n, L=L)
    mult = make_multipliers(g, PhysParams(N=N, s=0.7, gamma=1.6))
    for table in (mult.hartree_kernel_hat, mult.frac_lap_s, dealias_mask(g)):
        for axis in range(N):  # k -> -k in FFT order along each axis
            assert np.array_equal(table, np.roll(np.flip(table, axis), 1, axis))


def test_detector_sends_non_even_states_to_the_full_grid():
    g = make_grid(N=2, n=64, L=16.0)
    even = np.exp(-g.r_mesh**2 / 4.0).astype(np.complex128)
    assert type(spectral.step_transform(g, even)) is spectral.Orthant
    g3 = make_grid(N=3, n=16, L=8.0)
    assert type(spectral.step_transform(g3, np.exp(-g3.r_mesh**2) + 0j)) is spectral.Orthant

    dk = 2.0 * np.pi / g.L  # a --gaussian 1,2,1.5 state: its carrier on the box
    carrier = round(1.5 / dk) * dk
    nan = even.copy()
    nan[3, 5] = np.nan
    nudged = even.copy()
    nudged[40, 21] += 1e-12 * np.max(np.abs(even))
    for values in (
        _rng_field(g, 7).values,
        np.exp(1j * carrier * g.x_mesh[0] - g.r_mesh**2 / 4.0),
        nan,
        nudged,
    ):
        assert not spectral.is_mirror_even(values)
        assert type(spectral.step_transform(g, values)) is spectral.FullGrid
    # every state of the loop must be even
    assert type(spectral.step_transform(g, even, nudged)) is spectral.FullGrid
