"""End-to-end certification suite: eleven numbered checks, one line each.

`pytest tests/test_acceptance.py -v` gives the pass/fail table (one test per
check); add `-s` to also see the measured residuals behind each verdict.
The expensive fixtures (n=1024 and n=2048 solves, the t=4 dispersal run, the
n=512 collapse showcase) are session-scoped, so this module costs a few
minutes of single-core time on first use.
"""
import json
import random

import numpy as np
import pytest

import oracles

# the canonical-box tail advisory fires inside run_sweep's own solve
pytestmark = pytest.mark.filterwarnings("ignore:ground-state tail")
from fhartree.cli import main, run_sweep
from fhartree.config import load_config
from fhartree.diagnostics import (
    balakrishnan_check,
    build_cutoff,
    build_quadrature,
    virial_rhs,
    weighted_virial,
)
from fhartree.evolution import StepperConfig, evolve, invariance_audit
from fhartree.functionals import gn_ratio, hartree_energy
from fhartree.spectral import (
    field_from_values,
    make_grid,
    make_multipliers,
    random_smooth_field,
    sobolev_norm,
)
from whole_grid import fractional_laplacian, hartree_potential, localized_virial


def _check(idx: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{idx:2d}/11] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_01_ground_state_validity(fine):
    gs, p = fine.gs, fine.p
    g_sq, m_sq = gs.hs**2, gs.l2**2
    r1, r2 = abs(gs.pohozaev[0]), abs(gs.pohozaev[1])
    chain_grad = abs(gs.v_q / ((4.0 * p.s / p.gamma) * g_sq) - 1.0)
    chain_mass = abs(gs.v_q / ((4.0 * p.s / (4.0 * p.s - p.gamma)) * m_sq) - 1.0)
    ok = (
        gs.el_residual < 1e-8
        and r1 < 1e-5 and r2 < 1e-5
        and chain_grad < 1e-5 and chain_mass < 1e-5
    )
    _check(1, "ground-state validity", ok,
           f"el={gs.el_residual:.1e} r1={r1:.1e} r2={r2:.1e} "
           f"chain=({chain_grad:.1e}, {chain_mass:.1e})")


def test_02_sharp_constant_consistency(fine, canonical):
    gs = fine.gs
    two_route = abs(gs.cgn_a - gs.cgn_b) / gs.cgn_a
    dev_q = abs(gn_ratio(gs.q, gs.cgn_a, fine.p, fine.mult) - 1.0)
    rng = random.Random(5)
    worst = max(
        gn_ratio(
            field_from_values(canonical.grid,
                              random_smooth_field(canonical.grid, rng)),
            canonical.gs.cgn_a, canonical.p, canonical.mult,
        )
        for _ in range(100)
    )
    ok = two_route < 1e-4 and dev_q < 1e-5 and worst <= 1.0 + 1e-4
    _check(2, "sharp-constant consistency", ok,
           f"two_route={two_route:.1e} ratio(Q)-1={dev_q:.1e} "
           f"max_random={worst:.6f}")


def test_03_threshold_closed_forms(xfine):
    rep, p = xfine.gs.threshold_report, xfine.p
    ratio_closed = 2.0 * p.gamma / (p.gamma - 2.0 * p.s)
    ratio_dev = abs(xfine.gs.grad_Q / xfine.gs.me_Q / ratio_closed - 1.0)
    ok = (rep.me_discrepancy < 1e-5 and rep.grad_discrepancy < 1e-5
          and ratio_dev < 1e-5)
    _check(3, "threshold closed forms", ok,
           f"me={rep.me_discrepancy:.1e} grad={rep.grad_discrepancy:.1e} "
           f"grad/me vs {ratio_closed:g}: {ratio_dev:.1e}")


def test_04_conservation_and_drift_order(canonical, soliton_run):
    u0 = field_from_values(canonical.grid, 0.9 * canonical.gs.q.values)
    drifts, mass_ok = [], soliton_run.mass_drift < 1e-10
    for dt in (4e-3, 2e-3, 1e-3):
        rec = evolve(u0, canonical.p, canonical.mult,
                     StepperConfig(dt=dt, t_end=1.0, record_every=25,
                                   adaptive=False),
                     gs=canonical.gs)
        drifts.append(rec.energy_drift)
        mass_ok = mass_ok and rec.mass_drift < 1e-10
    orders = [float(np.log2(a / b)) for a, b in zip(drifts, drifts[1:])]
    ok = (
        mass_ok
        and soliton_run.energy_drift < 1e-6 and drifts[-1] < 1e-6
        and all(1.8 <= o <= 2.2 for o in orders)
    )
    _check(4, "conservation + dt^2 drift", ok,
           f"mass={soliton_run.mass_drift:.1e} energy@1e-3={drifts[-1]:.1e} "
           f"orders={orders[0]:.3f},{orders[1]:.3f}")


def test_05_soliton_orbit(canonical, soliton_run):
    dev = float(np.max(soliton_run.series["soliton_deviation"]))
    devs = []
    for dt in (2e-3, 1e-3):
        rec = evolve(canonical.gs.q, canonical.p, canonical.mult,
                     StepperConfig(dt=dt, t_end=0.2, record_every=20,
                                   adaptive=False),
                     gs=canonical.gs)
        devs.append(float(np.max(rec.series["soliton_deviation"])))
    ratio = devs[0] / devs[1]
    ok = dev < 1e-4 and 3.5 <= ratio <= 4.5
    _check(5, "soliton orbit", ok,
           f"max_dev={dev:.1e} dt-halving ratio={ratio:.3f}")


def test_06_dichotomy_end_to_end(dispersal_run, blowup_run, blowup_showcase):
    d_ok = (
        dispersal_run.verdict == "GlobalDispersing"
        and dispersal_run.v_ratio_final < 0.5
        and all(m == "K1" for m in dispersal_run.series["membership"])
    )
    b_ok = (
        blowup_run.verdict == "BlowUp"
        and blowup_run.t_star is not None and 0.0 < blowup_run.t_star < 2.0
        and all(m == "K2" for m in blowup_run.series["membership"])
    )
    _, show = blowup_showcase
    hs_growth = show.ratio("hs")
    # no tail or dt-floor caveat, and one energy-drift caveat
    s_ok = (show.verdict == "BlowUp" and hs_growth > 10.0 and len(show.caveats) == 1
            and show.caveats[0].startswith("energy drift "))

    cfg = load_config(overrides=["stepper.t_end=4.0"])
    rows = run_sweep(cfg, (0.8, 0.9, 0.95, 1.05, 1.1, 1.2))
    agree = all(r["agreement"] == "yes" for r in rows)

    ok = d_ok and b_ok and s_ok and agree
    t_star = "-" if blowup_run.t_star is None else f"{blowup_run.t_star:.4f}"
    _check(6, "dichotomy end-to-end", ok,
           f"0.95Q→{dispersal_run.verdict} (V ratio "
           f"{dispersal_run.v_ratio_final:.3f}), 1.05Q→{blowup_run.verdict} "
           f"(t*={t_star}), showcase hs x{hs_growth:.2f}, "
           f"sweep {sum(r['agreement'] == 'yes' for r in rows)}/{len(rows)}")


def test_07_invariant_sets_and_coercivity(canonical, dispersal_run, blowup_run):
    a_k1 = invariance_audit(dispersal_run)
    a_k2 = invariance_audit(blowup_run)
    no_flip = (a_k1.applicable and not a_k1.flipped
               and a_k2.applicable and not a_k2.flipped)

    p = canonical.p
    g_sq = dispersal_run.series["hs"] ** 2
    e = dispersal_run.series["energy"]
    v = dispersal_run.series["v"]
    lower = e - (p.gamma - 2.0 * p.s) / (2.0 * p.gamma) * g_sq
    upper = 0.5 * g_sq - e
    gap = g_sq - (p.gamma / (4.0 * p.s)) * v

    ok = (no_flip and float(lower.min()) > 0.0 and float(upper.min()) > 0.0
          and float(gap.min()) > 0.0)
    _check(7, "invariant sets + coercivity", ok,
           f"flips=none margins≥({lower.min():.3e}, {upper.min():.3e}) "
           f"gap≥{gap.min():.3e}")


def test_08_resolvent_identity(canonical):
    p, grid = canonical.p, canonical.grid
    gauss = field_from_values(grid, np.exp(-grid.r_mesh**2).astype(complex))
    default = build_quadrature(p.s)
    _, _, rel_gauss = balakrishnan_check(gauss, p, default)

    rng = random.Random(11)
    worst = max(
        balakrishnan_check(
            field_from_values(grid, random_smooth_field(grid, rng)),
            p, default,
        )[2]
        for _ in range(10)
    )

    errs = [balakrishnan_check(gauss, p, build_quadrature(p.s, n_nodes=nn))[2]
            for nn in (25, 50, 100, 200)]
    # each doubling at least halves the error until it is below 5e-8 (the
    # default 84-node rule reads 3.0e-13 on this Gaussian)
    halving = all(e2 < 0.5 * e1 or e2 < 5e-8 for e1, e2 in zip(errs, errs[1:]))

    ok = rel_gauss < 1e-4 and worst < 1e-4 and halving
    _check(8, "resolvent-composition identity", ok,
           f"gaussian={rel_gauss:.1e} worst_random={worst:.1e} "
           f"node_study={'/'.join(f'{e:.0e}' for e in errs)}")


@pytest.mark.filterwarnings("ignore:weighted_virial")
def test_09_virial_identity(virial_fd):
    s, rec = virial_fd
    quad = build_quadrature(s.p.s)
    phi = build_cutoff(s.grid)
    snaps = rec.snapshots

    m_series = np.array([localized_virial(u, phi) for _, u in snaps])
    rhs = [virial_rhs(u, phi, s.p, s.mult, quad) for _, u in snaps]
    totals = np.array([r.main + r.interaction for r in rhs])

    k = len(snaps) // 2
    dt = snaps[1][0] - snaps[0][0]
    fd = (-m_series[k + 2] + 8.0 * m_series[k + 1]
          - 8.0 * m_series[k - 1] + m_series[k - 2]) / (12.0 * dt)
    diff = abs(fd - totals[k])
    fd_ok = diff <= max(1e-3 * abs(fd), rhs[k].a_r_bound)

    pos_ok = bool(np.all(totals > 0.0))

    rng = random.Random(2)
    weights = [weighted_virial(snaps[0][1], s.p)] + [
        weighted_virial(
            field_from_values(s.grid, random_smooth_field(s.grid, rng)),
            s.p,
        )
        for _ in range(5)
    ]
    w_ok = all(w >= 0.0 for w in weights)

    ok = fd_ok and pos_ok and w_ok
    _check(9, "virial identity", ok,
           f"|fd-rhs|={diff:.1e} (cap {max(1e-3 * abs(fd), rhs[k].a_r_bound):.1e}) "
           f"min_total={totals.min():.4f} min_weighted={min(weights):.1e}")


def test_10_oracle_equivalence(params):
    # FFT pipeline vs literal O(n^4) periodic double sums on a 32^2 grid,
    # for both kernel discretizations
    g32 = make_grid(N=2, n=32, L=8.0)
    rng = random.Random(3)
    vals = random_smooth_field(g32, rng, span=1.5, widths=(0.6, 1.2))
    u32 = field_from_values(g32, vals)
    rho = vals.real**2 + vals.imag**2
    sum_rels = {}
    for mode in ("sampled", "exact"):
        if mode == "sampled":  # the test-side grid-sampled kernel
            m32 = oracles.sampled_multipliers(g32, params)
            K = oracles.sampled_kernel(32, 8.0, params.gamma)  # rebuilt by loops
        else:
            m32 = make_multipliers(g32, params)
            from fhartree.spectral import to_physical
            K = to_physical(g32, m32.hartree_kernel_hat.astype(complex)).values.real
        pot_direct = oracles.direct_potential(rho, K, g32.h)
        pot_fft = hartree_potential(u32, m32)
        v_direct = oracles.direct_quartic(rho, K, g32.h)
        v_fft = hartree_energy(u32, m32)
        sum_rels[mode] = max(
            float(np.max(np.abs(pot_fft - pot_direct)) / np.max(np.abs(pot_direct))),
            abs(v_fft - v_direct) / abs(v_direct),
        )
    sums_ok = all(r < 1e-9 for r in sum_rels.values())

    # fractional Laplacian and Sobolev seminorms vs continuum quadrature on
    # Gaussians; L=256 pushes the periodization tails below the 1e-6 target
    og = make_grid(N=2, n=1024, L=256.0)
    gauss = field_from_values(og, np.exp(-og.r_mesh**2).astype(complex))
    fl = fractional_laplacian(gauss, params.s)
    j0 = og.n // 2
    lap_rel = 0.0
    for r in (0.0, 0.75, 1.5):
        i = int(np.argmin(np.abs(og.x_axis - r)))
        want = oracles.gaussian_fraclap(params.s, 1.0, abs(og.x_axis[i]))
        lap_rel = max(lap_rel, abs(fl.values[i, j0].real - want) / abs(want))
    norm_rel = 0.0
    for alpha in (0.7, 1.0):
        want = np.sqrt(oracles.gaussian_hs_sq(alpha, 1.0))
        norm_rel = max(norm_rel, abs(sobolev_norm(gauss, alpha) - want) / want)
    cont_ok = lap_rel < 1e-6 and norm_rel < 1e-6

    ok = sums_ok and cont_ok
    _check(10, "oracle equivalence", ok,
           f"double_sums=({sum_rels['sampled']:.1e}, {sum_rels['exact']:.1e}) "
           f"fraclap={lap_rel:.1e} norms={norm_rel:.1e}")


def test_11_verify_3d(tmp_path):
    # the whole identity suite in three dimensions, on the 33^3 orthant
    rc = main(["verify", "physics.N=3", "physics.gamma=2.0", "grid.n=64", "grid.L=16",
               "--out", str(tmp_path)])
    report = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    ok = rc == 0 and report["passed"] and not failed and len(report["checks"]) == 17
    by_name = {c["name"]: c["measured"] for c in report["checks"]}
    _check(11, "3-D certification", ok,
           f"{len(report['checks']) - len(failed)}/{len(report['checks'])} checks, "
           f"el={by_name['euler_lagrange_residual']:.1e} "
           f"virial_surrogate={by_name['virial_surrogate']:.1e} failed={failed}")
