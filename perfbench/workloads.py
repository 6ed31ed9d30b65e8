"""The three benchmark workloads: the command each runs, its seeded inputs,
and the checks its outputs must pass.

All use the canonical profile (N=2, s=0.7, gamma=1.6, exact kernel).  Why
each exists is in README.md; in short, each ROADMAP target does most of its
work in one workload and almost none in another.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Output limits of the certification path (the ``verify`` tolerances of
#: fhartree's CLI for the same quantities).
GS_LIMITS = {"el_residual": 1e-8, "pohozaev_r1": 1e-3, "pohozaev_r2": 1e-3, "cgn_discrepancy": 5e-3}
SWEEP_ROWS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list[str]]
    check: Callable[[Path, dict], list[str]]
    #: Grid size and busy processes of the command, for the machine-speed
    #: reference bursts of run.py.
    ref_grid: int
    ref_procs: int
    #: Expectations the check compares against; the harness self-test swaps
    #: in wrong ones to show that a failed check is counted.
    expect: dict = field(default_factory=dict)


def _gs_argv(seed: int) -> list[str]:
    width = random.Random(seed).uniform(0.95, 1.05)
    return ["ground-state", "grid.n=512", "grid.L=64", f"solver.seed_width={width:.6f}"]


def _sweep_argv(seed: int) -> list[str]:
    rng = random.Random(seed)
    c_lo, c_hi = rng.uniform(0.79, 0.81), rng.uniform(1.19, 1.21)
    return ["sweep", "--c-lo", f"{c_lo:.6f}", "--c-hi", f"{c_hi:.6f}", "--count", str(SWEEP_ROWS),
            "stepper.t_end=2.0", "stepper.record_every=1"]


def _verify_argv(seed: int) -> list[str]:
    return ["verify", "grid.n=256", f"io.seed={seed}"]


def _load_json(path: Path, problems: list[str]) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def _check_gs(out: Path, expect: dict) -> list[str]:
    problems: list[str] = []
    doc = _load_json(out / "ground_state.json", problems)
    if doc is None:
        return problems
    if doc.get("converged") is not True:
        problems.append("ground state did not converge")
    summary = doc.get("summary", {})
    for key, limit in expect["limits"].items():
        value = summary.get(key)
        if not isinstance(value, (int, float)) or not abs(value) <= limit:
            problems.append(f"|{key}| = {value} exceeds {limit:g}")
    from fhartree.snapshots import read_snapshot  # needs numpy; only this check does

    try:
        q, _, side = read_snapshot(out / "q.bin")
    except (OSError, RuntimeError, ValueError) as exc:
        problems.append(f"q.bin does not read back: {exc}")
    else:
        if q.grid.n != expect["n"] or side.get("iterations") != summary.get("iterations"):
            problems.append("q.bin header or sidecar disagrees with ground_state.json")
    return problems


def _check_sweep(out: Path, expect: dict) -> list[str]:
    try:
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"sweep.csv unreadable ({exc})"]
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != expect["rows"]:
        problems.append(f"sweep.csv has {len(rows)} rows, expected {expect['rows']}")
    disagree = [r[0] for r in rows if r[-1] != expect["agreement"]]
    if disagree:
        problems.append(f"rows {disagree} do not have agreement={expect['agreement']}")
    return problems


def _check_verify(out: Path, expect: dict) -> list[str]:
    problems: list[str] = []
    doc = _load_json(out / "verify.json", problems)
    if doc is not None and doc.get("passed") is not expect["passed"]:
        failed = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
        problems.append(f"verify.json passed={doc.get('passed')}, failed checks {failed}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gs-512",
            "certification path: exact-kernel build plus renormalized solver at 512^2, one 4 MB snapshot",
            _gs_argv, _check_gs, 512, 1, {"limits": GS_LIMITS, "n": 512},
        ),
        Workload(
            "sweep-128",
            "the dichotomy sweep: 6 evolutions at 128^2 in a 2-worker pool, a sample every step",
            # cli.run_sweep runs min(points, cpu_count) workers at once
            _sweep_argv, _check_sweep, 128, min(SWEEP_ROWS, os.cpu_count() or 1),
            {"rows": SWEEP_ROWS, "agreement": "yes"},
        ),
        Workload(
            "verify-256",
            "the identity suite at 256^2: every layer runs, the only one that exercises diagnostics",
            _verify_argv, _check_verify, 256, 1, {"passed": True},
        ),
    )
}


def _numeric_fields(node, prefix=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _numeric_fields(node[key], f"{prefix}/{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _numeric_fields(item, f"{prefix}/{i}")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield f"{prefix}={node!r}"


def digests(out: Path) -> dict[str, str]:
    """sha256 of sweep.csv, and of the numeric fields of the JSON results."""
    found = {}
    csv = out / "sweep.csv"
    if csv.is_file():
        found["sweep.csv"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    for name in ("ground_state.json", "verify.json"):
        path = out / name
        if path.is_file():
            doc = json.loads(path.read_text(encoding="utf-8"))
            text = "\n".join(_numeric_fields(doc))
            found[f"{name}:numeric"] = hashlib.sha256(text.encode()).hexdigest()
    return found
