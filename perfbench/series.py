"""Run the benchmark over many seeds, workloads interleaved; compare two checkouts.

    python3 perfbench/series.py --seeds 101-110 [--against OTHER_CHECKOUT] [--trace 0|1]

Each seed runs every workload of BENCHMARK.json once per checkout, by the checkout's own
``perfbench/run.py`` with ``BENCHMARK.json``'s run length.  The workload
order rotates from seed to seed and, with ``--against``, the two checkouts
alternate which runs first, so drift of the machine's speed hits every
workload and both sides alike.

One checkout: prints each end-to-end metric's median, quartiles and
(q3 - q1) / median over the seeds, the run-to-run spread the bounds in
BENCHMARK.json are set against.

Two checkouts (this one is the change, ``--against`` the parent): also
prints how many seeds the change won, the change of the median, and a
verdict by the rules of the README's "Comparing two commits".  The
benchmark files of both checkouts must be identical.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _same_benchmark(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a / "perfbench", b / "perfbench", ignore=["__pycache__"])
    _, mismatch, errors = filecmp.cmpfiles(a / "perfbench", b / "perfbench", cmp.common_files, shallow=False)
    return not (mismatch or errors or cmp.left_only or cmp.right_only)


def _run_one(side: Path, workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=side, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()} if result else proc.stderr[-300:]
    print(f"{side.name or side} {workload} seed={seed} {time.monotonic() - t0:.0f}s "
          f"exit={proc.returncode} {shown}", flush=True)
    return result


def _verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Section 8 of the choosing-metrics method: a gain needs 9/10 pair wins and
    a median shift beyond the parent's own quartile spread; a regression is a
    median worse by more than the bound."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (b - c) < 0 for b, c in zip(base, change))
    bq1, bmed, bq3 = _quartiles(base)
    cmed = statistics.median(change)
    worse_by = sign * (cmed - bmed) / bmed
    spread = (bq3 - bq1) / bmed
    if wins >= 0.9 * len(base) and -worse_by * bmed > bq3 - bq1:
        verdict = "better"
    elif worse_by > bound:
        verdict = "worse"
    elif spread > bound and not all(sign * (c - b) < 0 for b in base for c in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"wins": wins, "losses": losses, "pairs": len(base), "median_change": (cmed - bmed) / bmed,
            "parent_spread": spread, "verdict": verdict}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=_seeds, help="e.g. 101-110 or 1,5,9")
    ap.add_argument("--against", type=Path, help="checkout of the parent commit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    sides = [ROOT]
    if args.against is not None:
        other = args.against.resolve()
        if not _same_benchmark(ROOT, other):
            print(f"series.py: perfbench/ differs between {ROOT} and {other}; compare with identical "
                  "benchmark code", file=sys.stderr)
            return 2
        sides = [other, ROOT]  # parent first

    results: dict[str, dict[str, list]] = {str(s): {w: [] for w in workloads} for s in sides}
    for i, seed in enumerate(args.seeds):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for j, workload in enumerate(order):
            for side in sides if (i + j) % 2 == 0 else sides[::-1]:
                res = _run_one(side, workload, seed, bench["run_seconds"], args.trace)
                results[str(side)][workload].append(res)

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    failed_runs = sum(r is None or not r["correct"]
                      for per_side in results.values() for runs in per_side.values() for r in runs)
    for workload in workloads:
        for m in metrics:
            name = m["name"]
            row: dict = {}
            columns = [[r["metrics"][name]["value"] if r else None for r in results[str(side)][workload]]
                       for side in sides]
            if any(v is None for col in columns for v in col):
                print(f"{workload:11s} {name:30s} missing values: some runs did not finish")
                continue
            for side, values in zip(sides, columns):
                q1, med, q3 = _quartiles(values)
                row[str(side)] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                  "spread": (q3 - q1) / med if med else None}
            line = " | ".join(f"median={s['median']:.4g} q1={s['q1']:.4g} q3={s['q3']:.4g} "
                              f"(q3-q1)/median={s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                              for s in row.values())
            if len(sides) == 2 and "bound" in m:
                row["compare"] = _verdict(columns[0], columns[1], m["better"], m["bound"])
                c = row["compare"]
                line += (f" || wins {c['wins']}/{c['pairs']} median {c['median_change']:+.3%} "
                         f"parent spread {c['parent_spread']:.3f} bound {m['bound']} -> {c['verdict']}")
            print(f"{workload:11s} {name:30s} {line}")
    print(f"series: {failed_runs} run(s) failed or reported incorrect output")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
