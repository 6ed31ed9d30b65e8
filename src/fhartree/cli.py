"""Command-line front end.

Five subcommands share one configuration pipeline (INI file + dotted
overrides) and one artifact convention (every JSON embeds the fully
resolved config and the discretization tag, CSV floats are %.15e so reruns
are byte-identical):

    ground-state   solve the soliton profile, write snapshot + validation report
    classify       evaluate the threshold ratios of an initial state
    evolve         run the splitting integrator with full diagnostics
    sweep          classify+evolve amplitudes c*Q (a list or a uniform grid), in parallel
    verify         re-run every identity check at the configured resolution

Exit codes: 0 success, 1 validation error (a usage error included), 2
ground-state numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import threading
import warnings
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ConfigError, RunConfig, SweepSpec, load_config
from .diagnostics import (
    balakrishnan_check,
    build_cutoff,
    build_quadrature,
    virial_rhs,
    weighted_virial,
    weighted_virial_of_gaussian,
)
from .evolution import (
    VERDICT_BLOWUP,
    VERDICT_DISPERSING,
    VERDICT_SOLITON,
    StepperConfig,
    evolve,
    invariance_audit,
    wrap_time,
    write_csv,
)
from .functionals import (
    classify_membership,
    comparability_check,
    energy,
    gn_ratio,
    invariant_pair,
    mass,
)
from .ground_state import CollapseToZeroError, NonConvergenceError, solve_ground_state
from .params import PhysParams
from .snapshots import (
    SnapshotFormatError,
    SnapshotMismatchError,
    read_snapshot,
    write_snapshot,
)
from .spectral import (
    GridSpec,
    SpectralField,
    field_from_values,
    make_multipliers,
    random_smooth_field,
    sobolev_norm,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_VERIFY = 3

#: What the dichotomy theory predicts for each membership label.
PREDICTIONS = {
    "K1": "global + scattering",
    "K2": "finite-time blow-up",
    "Neither": "outside dichotomy hypotheses - no prediction",
    "Boundary": "threshold orbit - no dichotomy prediction",
}

#: The K1 prediction where s < N/(2N-1): the scattering half of the
#: dichotomy needs s >= N/(2N-1) on top of the K1 hypotheses.
K1_NO_SCATTERING = "K1 but s < N/(2N-1) - no scattering prediction"

_EXPECTED_OUTCOME = {
    "K1": VERDICT_DISPERSING,
    "K2": VERDICT_BLOWUP,
    "Boundary": VERDICT_SOLITON,
}

#: The columns of sweep.csv, in order (keys of the sweep.json rows).
SWEEP_COLUMNS = (
    "index", "c", "s", "gamma", "me_ratio", "grad_ratio", "membership", "prediction",
    "outcome", "agreement",
)


def _outside_scattering(membership: str, p: PhysParams) -> bool:
    return membership == "K1" and not p.supports_scattering


def _prediction(membership: str, p: PhysParams) -> str:
    if _outside_scattering(membership, p):
        return K1_NO_SCATTERING
    return PREDICTIONS[membership]


def _agreement(membership: str, outcome: str, p: PhysParams) -> str:
    expected = _EXPECTED_OUTCOME.get(membership)
    if expected is None or _outside_scattering(membership, p):
        return "n/a"
    return "yes" if outcome == expected else "no"


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fhartree",
        description="Fractional Hartree equation: ground states, evolution, "
        "threshold classification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="section.key=value",
            help="dotted config overrides, e.g. physics.s=0.6 stepper.t_end=2.0",
        )

    def u0_source(p: argparse.ArgumentParser) -> None:
        g = p.add_mutually_exclusive_group()
        g.add_argument(
            "--c", type=float, default=None, help="initial state c*Q (default 1.0)"
        )
        g.add_argument("--u0", type=Path, default=None, help="initial-state snapshot")
        g.add_argument(
            "--gaussian",
            default=None,
            metavar="AMP,WIDTH[,K]",
            help="initial state AMP*exp(i*K*x1)*exp(-|x|^2/WIDTH^2); the "
            "optional carrier K (snapped to the grid) raises kinetic energy "
            "without touching the potential term",
        )

    gp = sub.add_parser("ground-state", help="solve and certify the soliton profile")
    common(gp)
    gp.add_argument(
        "--seed-snapshot", type=Path, default=None, help="warm-start iteration seed"
    )

    cp = sub.add_parser("classify", help="threshold ratios + predicted fate of u0")
    common(cp)
    u0_source(cp)

    ep = sub.add_parser("evolve", help="time-evolve u0 and record diagnostics")
    common(ep)
    u0_source(ep)

    sp = sub.add_parser("sweep", help="amplitude sweep u0 = c*Q, a list or a uniform grid")
    common(sp)
    sp.add_argument("--c", type=float, nargs="+", metavar="C",
                    help="amplitude list instead of --c-lo/--c-hi/--count; "
                    "put it after the overrides or before another option")
    sp.add_argument("--c-lo", type=float, default=None, help="lowest amplitude (default 0.8)")
    sp.add_argument("--c-hi", type=float, default=None, help="highest amplitude (default 1.2)")
    sp.add_argument("--count", type=int, default=None, help="number of amplitudes (default 5)")
    sp.add_argument(
        "--sg",
        action="append",
        default=[],
        metavar="S,GAMMA",
        help="additional (s, gamma) pair; repeatable",
    )

    vp = sub.add_parser("verify", help="run the identity/consistency check suite")
    common(vp)
    vp.add_argument(
        "--q", type=Path, default=None, help="certified ground-state snapshot"
    )
    return ap


def _out_dir(cfg: RunConfig, args: argparse.Namespace) -> Path:
    out = Path(args.out) if args.out is not None else Path(cfg.io.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _notes():
    """Print each UserWarning raised inside the block (the solver's box-tail
    advisory, weighted_virial's boundary-mass advisory) as one `note: ...`
    line once the block ends, instead of Python's file-and-source display.
    Other warnings are passed on unchanged."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            yield
    finally:
        for w in caught:
            if issubclass(w.category, UserWarning):
                print(f"note: {w.message}")
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def _solve(cfg: RunConfig, seed: SpectralField | None = None):
    mult = make_multipliers(cfg.grid, cfg.physics)
    with _notes():
        gs = solve_ground_state(cfg.physics, cfg.grid, seed=seed, opts=cfg.solver, mult=mult)
    return gs, mult


def _require_grid_match(loaded: GridSpec, configured: GridSpec, what: str) -> None:
    if (loaded.n, loaded.L) != (configured.n, configured.L):
        raise ConfigError(
            f"{what} grid (n={loaded.n}, L={loaded.L}) does not match the "
            f"configured grid (n={configured.n}, L={configured.L})"
        )


def _initial_state(cfg: RunConfig, args: argparse.Namespace, gs) -> tuple[SpectralField, dict]:
    """Build u0 from --c / --u0 / --gaussian (default: the soliton itself)."""
    grid = cfg.grid
    if args.u0 is not None:
        u0, _, _ = read_snapshot(args.u0, expect=cfg.physics)
        _require_grid_match(u0.grid, grid, "initial-state snapshot")
        return u0, {"source": "snapshot", "path": str(args.u0)}
    if args.gaussian is not None:
        parts = args.gaussian.split(",")
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"--gaussian expects AMP,WIDTH[,K], got {args.gaussian!r}"
            )
        try:
            if len(parts) == 2:
                amp, width, carrier = float(parts[0]), float(parts[1]), 0.0
            else:
                amp, width, carrier = (float(parts[0]), float(parts[1]),
                                       float(parts[2]))
        except ValueError:
            raise ConfigError(
                f"--gaussian expects AMP,WIDTH[,K], got {args.gaussian!r}"
            ) from None
        if not all(map(math.isfinite, (amp, width, carrier))):
            raise ConfigError(f"--gaussian values must be finite, got {args.gaussian!r}")
        if width <= 0.0:
            raise ConfigError("--gaussian width must be positive")
        dk = 2.0 * np.pi / grid.L
        carrier = round(carrier / dk) * dk  # periodic on the box
        vals = amp * np.exp(1j * carrier * grid.x_mesh[0] - (grid.r_mesh**2) / width**2)
        u0 = field_from_values(grid, vals.astype(np.complex128))
        return u0, {"source": "gaussian", "amplitude": amp, "width": width,
                    "carrier": carrier}
    c = 1.0 if args.c is None else args.c
    if not (math.isfinite(c) and c > 0.0):
        raise ConfigError(f"amplitude c must be positive and finite, got {c}")
    u0 = field_from_values(grid, c * gs.q.values)
    return u0, {"source": "scaled-ground-state", "c": c}


# --------------------------------------------------------------------------
# subcommands


def _cmd_ground_state(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    seed = None
    if args.seed_snapshot is not None:
        seed, _, _ = read_snapshot(args.seed_snapshot, expect=cfg.physics)
        _require_grid_match(seed.grid, cfg.grid, "seed snapshot")
    try:
        gs, _ = _solve(cfg, seed=seed)
    except NonConvergenceError as exc:
        gs = exc.partial
        _write_json(
            out / "ground_state.json",
            {"config": cfg.resolved(), "converged": False, "summary": gs.summary(),
             "solver_history": gs.solver_history()},
        )
        print(f"ground-state: no convergence after {gs.iterations} iterations "
              f"(report in {out / 'ground_state.json'})")
        return EXIT_NONCONVERGENCE

    write_snapshot(
        out / "q.bin",
        gs.q,
        cfg.physics,
        sidecar={
            "kind": "ground-state",
            "iterations": gs.iterations,
            "el_residual": gs.el_residual,
            "l2": gs.l2,
        },
    )
    rep = gs.threshold_report
    _write_json(
        out / "ground_state.json",
        {
            "config": cfg.resolved(),
            "converged": True,
            "summary": gs.summary(),
            "solver_history": gs.solver_history(),
            "thresholds": {
                "me_direct": rep.me_direct,
                "me_closed": rep.me_closed,
                "me_discrepancy": rep.me_discrepancy,
                "grad_direct": rep.grad_direct,
                "grad_closed": rep.grad_closed,
                "grad_discrepancy": rep.grad_discrepancy,
            },
        },
    )
    print(f"ground-state: converged in {gs.iterations} iterations")
    print(f"  el_residual={gs.el_residual:.3e}  "
          f"pohozaev=({gs.pohozaev[0]:.3e}, {gs.pohozaev[1]:.3e})  "
          f"cgn_discrepancy={abs(gs.cgn_a - gs.cgn_b) / gs.cgn_a:.3e}")
    print(f"  snapshot: {out / 'q.bin'}")
    return EXIT_OK


def _cmd_classify(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    gs, mult = _solve(cfg)
    u0, desc = _initial_state(cfg, args, gs)
    pair = invariant_pair(u0, cfg.physics, mult)
    memb = classify_membership(pair, gs)
    prediction = _prediction(memb.verdict, cfg.physics)
    print(f"me_ratio={memb.me_ratio:.6f}  grad_ratio={memb.grad_ratio:.6f}")
    print(f"membership={memb.verdict}  prediction: {prediction}")
    _write_json(
        out / "classify.json",
        {
            "config": cfg.resolved(),
            "u0": desc,
            "me_ratio": memb.me_ratio,
            "grad_ratio": memb.grad_ratio,
            "membership": memb.verdict,
            "prediction": prediction,
            "thresholds": {"me_Q": gs.me_Q, "grad_Q": gs.grad_Q},
            "u0_scalars": {
                "mass": mass(u0),
                "energy": energy(u0, mult),
                "hs_sq": sobolev_norm(u0, cfg.physics.s) ** 2,
            },
        },
    )
    return EXIT_OK


def _cmd_evolve(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    gs, mult = _solve(cfg)
    u0, desc = _initial_state(cfg, args, gs)
    pair = invariant_pair(u0, cfg.physics, mult)
    memb = classify_membership(pair, gs)
    prediction = _prediction(memb.verdict, cfg.physics)

    scfg = replace(cfg.stepper, snapshot_every=cfg.io.snapshot_every)
    t_wrap = wrap_time(cfg.grid, cfg.physics.s)
    if scfg.t_end > t_wrap:
        print(f"note: t_end={scfg.t_end:g} exceeds the linear wrap time "
              f"{t_wrap:.3f} of this periodic box; dispersed mass recirculates "
              f"after that time")

    rec = evolve(u0, cfg.physics, mult, scfg, gs=gs)
    rec.to_csv(out / "run.csv")
    for k, (t, snap) in enumerate(rec.snapshots):
        write_snapshot(out / f"snap_{k:04d}.bin", snap, cfg.physics,
                       sidecar={"time": t})
    audit = invariance_audit(rec)
    agreement = _agreement(memb.verdict, rec.verdict, cfg.physics)
    _write_json(
        out / "run.json",
        {
            "config": cfg.resolved(),
            "u0": desc,
            "membership": memb.verdict,
            "prediction": prediction,
            "run": rec.summary(),
            "invariance": {
                "applicable": audit.applicable,
                "flipped": audit.flipped,
                "grad_gap": audit.grad_gap,
            },
            "agreement": agreement,
        },
    )
    t_star = "" if rec.t_star is None else f"  t*={rec.t_star:.6f}"
    print(f"verdict={rec.verdict}{t_star}  steps={rec.n_steps}")
    print(f"prediction={prediction!r}  outcome={rec.verdict}  agreement={agreement}")
    for caveat in rec.caveats:
        print(f"caveat: {caveat}")
    print(f"series: {out / 'run.csv'}")
    return EXIT_OK


# --- sweep ----------------------------------------------------------------


#: What every task of a sweep process reads: the stepper config and one
#: (params, multipliers, ground state) per (s, gamma) pair.
_sweep_state: tuple = ()


def _init_sweep_worker(stepper: StepperConfig, pairs: Sequence[tuple]) -> None:
    """Pool initializer: receive the per-pair state once per process."""
    global _sweep_state
    _sweep_state = (stepper, tuple(pairs))


def _sweep_point(task: tuple[int, float, int]) -> dict:
    """One (c, s, gamma) sweep point; top-level so worker processes can load it."""
    index, c, sg_index = task
    stepper, pairs = _sweep_state
    p, mult, gs = pairs[sg_index]
    u0 = field_from_values(gs.q.grid, c * gs.q.values)
    memb = classify_membership(invariant_pair(u0, p, mult), gs)
    rec = evolve(u0, p, mult, stepper, gs=gs, keep_rows=False)
    return {
        "index": index,
        "c": c,
        "s": p.s,
        "gamma": p.gamma,
        "me_ratio": memb.me_ratio,
        "grad_ratio": memb.grad_ratio,
        "membership": memb.verdict,
        "prediction": _prediction(memb.verdict, p),
        "outcome": rec.verdict,
        "t_star": rec.t_star,
        "agreement": _agreement(memb.verdict, rec.verdict, p),
    }


def run_sweep(
    cfg: RunConfig,
    amplitudes: Sequence[float],
    sg_pairs: Sequence[tuple[float, float]] = (),
    max_workers: int | None = None,
) -> list[dict]:
    """Classify+evolve every c in `amplitudes` for each (s, gamma) pair
    (default: the configured one); rows come back ordered by index.

    The parent builds the multipliers and solves the ground state once per
    pair, then runs points itself as one of `max_workers` busy processes
    (default: one per core; never more than there are points).  The other
    workers - 1 are forked into a pool that receives the per-pair state
    once, through _init_sweep_worker, so a task is only (index, c, pair
    index); the parent calls the same initializer for itself.  The tasks
    wait in one queue in index order.  A pool process is handed the next
    one when it finishes one, and the parent takes the next when it
    finishes one, so no process idles while the queue holds work.  With
    one worker no pool is made and the parent runs every point.  A point
    that raises, in the parent or in the pool, empties the queue: the
    points already running finish, their processes exit, and the error is
    raised.
    """
    cs = tuple(float(c) for c in amplitudes)
    if not cs:
        raise ConfigError("sweep amplitude grid is empty")
    if not all(math.isfinite(c) and c > 0.0 for c in cs):
        raise ConfigError("sweep amplitudes must be positive and finite")

    pairs = []
    for s, gamma in sg_pairs or ((cfg.physics.s, cfg.physics.gamma),):
        p = PhysParams(N=cfg.physics.N, s=float(s), gamma=float(gamma))
        gs, mult = _solve(replace(cfg, physics=p))
        pairs.append((p, mult, gs))
    tasks = [(index, c, sg_index) for index, (sg_index, c)
             in enumerate(itertools.product(range(len(pairs)), cs))]

    workers = min(max_workers or os.cpu_count() or 1, len(tasks))
    queue = deque(tasks)
    # guards the queue: the pool runs done-callbacks in its manager thread,
    # while the parent takes tasks; reentrant, since add_done_callback on a
    # future that is already done runs the callback at once
    lock = threading.RLock()
    futures = []
    rows = []

    def take() -> tuple | None:
        with lock:
            return queue.popleft() if queue else None

    def feed(done=None) -> None:
        """Submit the next task to the pool, in place of `done`."""
        with lock:
            if done is not None and done.exception() is not None:
                queue.clear()
            elif queue:
                futures.append(pool.submit(_sweep_point, queue[0]))
                queue.popleft()  # only once submitted: a refused task stays for the parent
                futures[-1].add_done_callback(feed)

    if workers > 1:
        # imported here: the other commands do not pay for loading the pool
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers - 1, initializer=_init_sweep_worker,
                                   initargs=(cfg.stepper, pairs))
    else:
        pool = contextlib.nullcontext()
    _init_sweep_worker(cfg.stepper, pairs)
    try:
        with pool:
            try:
                for _ in range(workers - 1):
                    feed()
                while (task := take()) is not None:
                    rows.append(_sweep_point(task))
            except BaseException:
                with lock:
                    queue.clear()
                raise
        rows += [f.result() for f in futures]
    finally:
        _init_sweep_worker(cfg.stepper, ())
    return sorted(rows, key=lambda row: row["index"])


def _cmd_sweep(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    sg_pairs = []
    for item in args.sg:
        try:
            s_s, g_s = item.split(",")
            sg_pairs.append((float(s_s), float(g_s)))
        except ValueError:
            raise ConfigError(f"--sg expects S,GAMMA, got {item!r}") from None
    if args.c is not None:
        if (args.c_lo, args.c_hi, args.count) != (None, None, None):
            raise ConfigError("--c cannot be combined with --c-lo, --c-hi or --count")
        amplitudes = args.c
    else:
        amplitudes = SweepSpec(
            c_lo=0.8 if args.c_lo is None else args.c_lo,
            c_hi=1.2 if args.c_hi is None else args.c_hi,
            k=5 if args.count is None else args.count,
        ).amplitudes
    rows = run_sweep(cfg, amplitudes, sg_pairs)

    write_csv(out / "sweep.csv", SWEEP_COLUMNS,
              ([row[name] for name in SWEEP_COLUMNS] for row in rows))
    _write_json(out / "sweep.json", {"config": cfg.resolved(), "rows": rows})

    applicable = [r for r in rows if r["agreement"] != "n/a"]
    agreed = sum(1 for r in applicable if r["agreement"] == "yes")
    print(f"sweep: {len(rows)} points, agreement {agreed}/{len(applicable)} "
          f"(table: {out / 'sweep.csv'})")
    for row in rows:
        print(f"  c={row['c']:.4f} s={row['s']:.3f} gamma={row['gamma']:.3f} "
              f"{row['membership']:>8s} -> {row['outcome']:<16s} "
              f"agreement={row['agreement']}")
    return EXIT_OK


# --- verify ---------------------------------------------------------------

# Tolerances for the self-check suite at the default resolution (n=128,
# L=32, exact kernel).  Each is >= 4x the residual measured there, so the
# suite is a regression tripwire, not a fresh attainment claim; the tight
# certification numbers live in the acceptance tests at finer grids.
VERIFY_TOLERANCES = {
    "euler_lagrange_residual": 1.0e-8,
    "pohozaev_r1": 1.0e-3,
    "pohozaev_r2": 1.0e-3,
    "cgn_two_route": 5.0e-3,
    "gn_ratio_ground_state": 1.0e-3,
    "gn_ratio_random_excess": 1.0e-4,
    "threshold_me_two_route": 1.0e-2,
    "threshold_grad_two_route": 1.0e-2,
    "threshold_ratio_closed_form": 1.0e-2,
    "balakrishnan_gaussian": 1.0e-4,
    "mass_drift": 1.0e-10,
    "energy_drift": 1.0e-6,
    "virial_surrogate": 1.0e-2,
    "weighted_virial_gaussian": 1.0e-4,
}


def _cmd_verify(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    p, grid = cfg.physics, cfg.grid
    mult = make_multipliers(grid, p)

    checks: list[tuple[str, float, float]] = []

    def check(name: str, measured: float, tol: float | None = None) -> None:
        checks.append((name, float(measured), VERIFY_TOLERANCES[name] if tol is None else tol))

    # the solver and weighted_virial advisories print as note: lines
    with _notes():
        seed = None
        if args.q is not None:
            seed, _, _ = read_snapshot(args.q, expect=p)
            _require_grid_match(seed.grid, grid, "ground-state snapshot")
        gs = solve_ground_state(p, grid, seed=seed, opts=cfg.solver, mult=mult)
        if seed is not None:
            # warm start from a certified profile must land almost immediately
            check("warm_start_iterations", gs.iterations, 3.0)

        check("euler_lagrange_residual", gs.el_residual)
        check("pohozaev_r1", abs(gs.pohozaev[0]))
        check("pohozaev_r2", abs(gs.pohozaev[1]))
        check("cgn_two_route", abs(gs.cgn_a - gs.cgn_b) / gs.cgn_a)
        check("gn_ratio_ground_state", abs(gn_ratio(gs.q, gs.cgn_a, p, mult) - 1.0))

        rng = np.random.default_rng(cfg.io.seed)
        excess = max(
            gn_ratio(field_from_values(grid, random_smooth_field(grid, rng, span=grid.L / 8.0)),
                     gs.cgn_a, p, mult) - 1.0
            for _ in range(20)
        )
        check("gn_ratio_random_excess", excess)

        rep = gs.threshold_report
        check("threshold_me_two_route", rep.me_discrepancy)
        check("threshold_grad_two_route", rep.grad_discrepancy)
        ratio_closed = 2.0 * p.gamma / (p.gamma - 2.0 * p.s)
        check(
            "threshold_ratio_closed_form",
            abs(gs.grad_Q / gs.me_Q - ratio_closed) / ratio_closed,
        )

        quad = build_quadrature(p.s)
        gaussian = field_from_values(grid, np.exp(-grid.r_mesh**2).astype(np.complex128))
        _, _, rel = balakrishnan_check(gaussian, p, quad)
        check("balakrishnan_gaussian", rel)

        # short inside-K1 evolution: conservation + flow invariance + comparability
        u0 = field_from_values(grid, 0.9 * gs.q.values)
        rec = evolve(u0, p, mult,
                     StepperConfig(dt=cfg.stepper.dt, t_end=0.2, record_every=10),
                     gs=gs)
        check("mass_drift", rec.mass_drift)
        check("energy_drift", rec.energy_drift)
        audit = invariance_audit(rec)
        check("flow_invariance_flips", 0.0 if (audit.applicable and not audit.flipped) else 1.0, 0.5)
        comp0 = comparability_check(u0, p, mult)
        comp1 = comparability_check(rec.final_state, p, mult)
        check("comparability_margins",
              -min(comp0.lower_margin, comp0.upper_margin,
                   comp1.lower_margin, comp1.upper_margin), 0.0)
        check("coercivity_gap", -min(comp0.coercivity_gap, comp1.coercivity_gap), 0.0)

        # virial machinery: main+I at Q must reproduce 2*gamma*((4s/gamma)*G - V)
        # (both sides vanish at Q up to localization error), normalized by G
        phi = build_cutoff(grid)
        rhs = virial_rhs(gs.q, phi, p, mult, quad)
        g_q = gs.hs**2
        surrogate = 2.0 * p.gamma * ((4.0 * p.s / p.gamma) * g_q - gs.v_q)
        check("virial_surrogate",
              abs(rhs.main + rhs.interaction - surrogate) / (2.0 * p.gamma * g_q))
        # weighted virial of exp(-r^2/2) against its closed form
        bump = field_from_values(
            grid, np.exp(-grid.r_mesh**2 / 2.0).astype(np.complex128)
        )
        p_ref = weighted_virial_of_gaussian(p.s, grid.N)
        check("weighted_virial_gaussian", abs(weighted_virial(bump, p) - p_ref) / p_ref)

    failures = 0
    lines = []
    for name, measured, tol in checks:
        ok = measured <= tol
        failures += 0 if ok else 1
        line = f"{'PASS' if ok else 'FAIL'}  {name:<32s} measured={measured: .6e}  tol={tol:.1e}"
        lines.append(line)
        print(line)
    print(f"verify: {len(checks) - failures}/{len(checks)} checks passed")
    _write_json(
        out / "verify.json",
        {
            "config": cfg.resolved(),
            "checks": [
                {"name": n, "measured": m, "tol": t, "passed": m <= t}
                for n, m, t in checks
            ],
            "passed": failures == 0,
        },
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# --------------------------------------------------------------------------


_HANDLERS = {
    "ground-state": _cmd_ground_state,
    "classify": _cmd_classify,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        cfg = load_config(args.config, overrides=list(args.overrides))
        cfg = replace(cfg, experiment=args.command)
        out = _out_dir(cfg, args)
        return _HANDLERS[args.command](cfg, args, out)
    except (ConfigError, SnapshotFormatError, SnapshotMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonConvergenceError, CollapseToZeroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
