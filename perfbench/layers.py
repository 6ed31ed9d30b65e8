"""Which fhartree functions get spans, and the per-layer metrics built from them.

Every public function of the seven modules below is wrapped.  Two private
functions are wrapped as well, because a metric needs their boundary:
``cli._sweep_point`` is the task one sweep worker runs (its busy time), and
``ground_state._certify`` separates the certificate from the solver
iterations (FFTs per iteration).
"""
from __future__ import annotations

from collections import defaultdict
from pathlib import Path

LAYERS = ("spectral", "ground_state", "evolution", "diagnostics", "functionals", "snapshots", "cli")
PRIVATE = {"cli": ("_sweep_point",), "ground_state": ("_certify",)}


def _snapshot_bytes(args, kwargs, path):
    path = Path(path)
    return path.stat().st_size + path.with_suffix(".json").stat().st_size


ATTRS = {
    "ground_state.solve_ground_state": lambda a, k, r: r.iterations,
    "evolution.evolve": lambda a, k, r: [r.n_steps, int(r.times.size)],
    "diagnostics.virial_rhs": lambda a, k, r: (k["quad"] if "quad" in k else a[4]).n_nodes,
    "snapshots.write_snapshot": _snapshot_bytes,
    "cli.run_sweep": lambda a, k, r: len(r),
}

SOLVE = "ground_state.solve_ground_state"
CERTIFY = "ground_state._certify"
EVOLVE = "evolution.evolve"
SWEEP_POINT = "cli._sweep_point"

#: (metric, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("spectral.make_multipliers_s", "s", "lower"),
    ("spectral.make_multipliers_calls", "count", "lower"),
    ("ground_state.solve_s", "s", "lower"),
    ("ground_state.iterations", "count", "lower"),
    ("ground_state.iter_ms", "ms", "lower"),
    ("evolution.evolve_s", "s", "lower"),
    ("evolution.steps", "count", "lower"),
    ("evolution.samples", "count", "lower"),
    ("evolution.step_ms", "ms", "lower"),
    ("diagnostics.virial_rhs_s", "s", "lower"),
    ("diagnostics.quad_nodes", "count", "lower"),
    ("diagnostics.node_ms", "ms", "lower"),
    ("diagnostics.balakrishnan_s", "s", "lower"),
    ("diagnostics.weighted_virial_s", "s", "lower"),
    ("functionals.gn_ratio_s", "s", "lower"),
    ("functionals.gn_ratio_calls", "count", "lower"),
    ("functionals.invariant_pair_s", "s", "lower"),
    ("functionals.comparability_s", "s", "lower"),
    ("snapshots.write_s", "s", "lower"),
    ("snapshots.write_bytes", "B", "lower"),
    ("cli.run_sweep_s", "s", "lower"),
    ("cli.sweep_points", "count", "higher"),
    ("cli.sweep_worker_busy_s", "s", "lower"),
    ("cli.sweep_parallel_eff", "frac", "higher"),
    ("fft.calls", "count", "lower"),
    ("fft.complex_calls", "count", "lower"),
    ("fft.real_calls", "count", "higher"),
    ("fft.s", "s", "lower"),
    ("fft.share", "frac", "lower"),
    ("fft.bytes_computed", "B", "lower"),
    ("fft.per_solver_iter", "count", "lower"),
    ("fft.per_step", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: list[dict], cpu_s: float) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced command from its per-process span dumps.

    Layer times are inclusive (a span's whole duration, counting only the
    outermost span when a name nests in itself); self times go in the
    detail.  `cpu_s` is the traced command's process-tree CPU time, the base
    of ``fft.share``.  Returns ``trace.overhead_frac`` as 0; the caller owns
    the untraced runs it needs.
    """
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attr: dict[str, list] = defaultdict(list)
    fft = {"calls": 0, "complex": 0, "real": 0, "s": 0.0, "bytes": 0, "in_solve": 0, "in_evolve": 0}
    sweep_pids = set()
    busy = 0.0

    for dump in dumps:
        spans = sorted(dump["spans"], key=lambda sp: sp[0])  # parents open first
        name_of = {sp[0]: sp[2] for sp in spans}
        anc: dict[int, frozenset] = {0: frozenset()}
        child_s: dict[int, float] = defaultdict(float)
        for sid, parent, name, t0, t1, extra in spans:
            child_s[parent] += t1 - t0
        for sid, parent, name, t0, t1, extra in spans:
            dur = t1 - t0
            up = anc[parent] | {name_of[parent]} if parent else anc[0]
            self_s[name] += dur - child_s.get(sid, 0.0)
            calls[name] += 1
            if name.startswith("fft:"):
                kind, nbytes = extra if extra else ("complex", 0)
                fft["calls"] += 1
                fft[kind] += 1
                fft["s"] += dur
                fft["bytes"] += nbytes
                fft["in_solve"] += SOLVE in up and CERTIFY not in up
                fft["in_evolve"] += EVOLVE in up
                continue
            anc[sid] = up
            if name not in up:
                incl[name] += dur
                if extra is not None:
                    attr[name].append(extra)
            if name == SWEEP_POINT:
                sweep_pids.add(dump["pid"])
                busy += dur

    iterations = sum(attr[SOLVE])
    steps = sum(e[0] for e in attr[EVOLVE])
    nodes = sum(attr["diagnostics.virial_rhs"])
    workers = len(sweep_pids)
    m = {
        "spectral.make_multipliers_s": incl["spectral.make_multipliers"],
        "spectral.make_multipliers_calls": calls["spectral.make_multipliers"],
        "ground_state.solve_s": incl[SOLVE],
        "ground_state.iterations": iterations,
        "ground_state.iter_ms": 1e3 * _ratio(incl[SOLVE] - incl[CERTIFY], iterations),
        "evolution.evolve_s": incl[EVOLVE],
        "evolution.steps": steps,
        "evolution.samples": sum(e[1] for e in attr[EVOLVE]),
        "evolution.step_ms": 1e3 * _ratio(incl[EVOLVE], steps),
        "diagnostics.virial_rhs_s": incl["diagnostics.virial_rhs"],
        "diagnostics.quad_nodes": nodes,
        "diagnostics.node_ms": 1e3 * _ratio(incl["diagnostics.virial_rhs"], nodes),
        "diagnostics.balakrishnan_s": incl["diagnostics.balakrishnan_check"],
        "diagnostics.weighted_virial_s": incl["diagnostics.weighted_virial"],
        "functionals.gn_ratio_s": incl["functionals.gn_ratio"],
        "functionals.gn_ratio_calls": calls["functionals.gn_ratio"],
        "functionals.invariant_pair_s": incl["functionals.invariant_pair"],
        "functionals.comparability_s": incl["functionals.comparability_check"],
        "snapshots.write_s": incl["snapshots.write_snapshot"],
        "snapshots.write_bytes": sum(attr["snapshots.write_snapshot"]),
        "cli.run_sweep_s": incl["cli.run_sweep"],
        "cli.sweep_points": sum(attr["cli.run_sweep"]),
        "cli.sweep_worker_busy_s": busy,
        "cli.sweep_parallel_eff": _ratio(busy, workers * incl["cli.run_sweep"]),
        "fft.calls": fft["calls"],
        "fft.complex_calls": fft["complex"],
        "fft.real_calls": fft["real"],
        "fft.s": fft["s"],
        "fft.share": _ratio(fft["s"], cpu_s),
        "fft.bytes_computed": fft["bytes"],
        "fft.per_solver_iter": _ratio(fft["in_solve"], iterations),
        "fft.per_step": _ratio(fft["in_evolve"], steps),
        "trace.overhead_frac": 0.0,
    }
    points = m["cli.sweep_points"]
    detail = {
        "processes": len(dumps),
        "sweep_workers_traced": workers,
        "sweep_points_traced": calls[SWEEP_POINT],
        "sweep_points_unmeasured": max(0, points - calls[SWEEP_POINT]),
        "fft_bytes_note": "computed from array sizes (input + output), not measured",
        "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])[:30]),
        "calls": dict(sorted(calls.items())),
    }
    return m, detail
