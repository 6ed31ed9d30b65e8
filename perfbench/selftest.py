"""Harness self-test: a deliberately wrong expectation must count as a failure.

    python3 perfbench/selftest.py

Runs a small ground-state command (the canonical 128^2 grid) through the
same loop as run.py, once with the real expectations and once with an
impossible residual limit, and feeds each workload's output check a result
that breaks its expectation.  Exits 0 when every failure is counted and
every timing is still reported, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import run
from workloads import GS_LIMITS, WORKLOADS


def _run_small_gs(expect: dict, work: Path) -> dict:
    small = replace(WORKLOADS["gs-512"], argv=lambda seed: ["ground-state"], expect=expect)
    work.mkdir()
    _, result = run.run(small, seed=0, seconds=0.1, trace=False, work=work)
    return result


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    tmp = run.ROOT / ".perfbench-tmp" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    failures = []

    def expect_that(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    try:
        good = _run_small_gs({"limits": GS_LIMITS, "n": 128}, tmp / "good")
        expect_that(good["correct"] and good["failed"] == 0, "real expectations: no failure counted")
        wrong = _run_small_gs({"limits": dict(GS_LIMITS, el_residual=0.0), "n": 128}, tmp / "wrong")
        expect_that(not wrong["correct"] and wrong["failed"] == 1, "impossible el_residual limit: one failure counted")
        expect_that(wrong["metrics"]["wall_norm_s"]["value"] > 0, "the failed run's timing is still reported")

        out = tmp / "canned"
        out.mkdir()
        (out / "sweep.csv").write_text("index,agreement\n" + "".join(f"{i},yes\n" for i in range(6)))
        (out / "verify.json").write_text(json.dumps({"passed": True, "checks": []}))
        sweep, verify = WORKLOADS["sweep-128"], WORKLOADS["verify-256"]
        expect_that(not sweep.check(out, sweep.expect), "sweep check accepts 6 agreeing rows")
        expect_that(bool(sweep.check(out, dict(sweep.expect, rows=7))), "sweep check rejects a wrong row count")
        expect_that(not verify.check(out, verify.expect), "verify check accepts passed=true")
        expect_that(bool(verify.check(out, {"passed": False})), "verify check rejects a wrong expectation")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"selftest: {'passed' if not failures else f'{len(failures)} failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
