"""fhartree benchmark: real CLI commands, timed end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/fhartree``.  Each command
is ``fhartree.cli.main(argv)`` in its own process (``child.py``), with
inputs generated from --seed.  Commands repeat until --seconds is used up;
every one is checked (``workloads.py``) and a failed check counts as a
failure.  The last line of standard output is one JSON object:

* --trace 0: the end-to-end metrics wall_norm_s, cpu_norm_s, setup_s and
  peak_rss_mb, each the median over the run's commands (setup_s also over
  set-up-only probes).  peak_rss_mb sums the peak resident sets of the
  command's processes, an upper bound on the peak of the process tree.  The *_norm_s times are the measured ones scaled by
  the machine's speed, timed with reference bursts between the commands;
  the report keeps the raw wall_s and cpu_s;
* --trace 1: the per-layer metrics of ``layers.py``, from commands run with
  span wrappers, alternated with untraced commands for trace.overhead_frac.

The full report (environment, every sample, quartiles, output digests, self
times) is printed before that line and written to perfbench-results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from tracer import load_dumps
from workloads import WORKLOADS, digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RUN_LIMIT_S = 170.0  # every run must exit within 180 s
SETUP_PROBES = 5  # set-up-only launches per untraced run, after one warm-up
TRACE_ORDER = (False, True, True, False)  # untraced/traced, ABBA when four or more commands fit
REF_BURSTS = 4  # reference bursts before each untraced command and after the last
REF_NOMINAL_S = 0.1  # scales *_norm_s to a machine on which one burst takes 0.1 s
END_TO_END = {"wall_norm_s": "s", "cpu_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> dict:
    out = {"median": _median(values), "n": len(values), "min": min(values, default=0.0),
           "max": max(values, default=0.0)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _reap_group(pgid: int, kill: bool) -> None:
    """Kill what is left of a command's process group and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL if kill else 0)
        except ProcessLookupError:
            return
        kill = True
        time.sleep(0.05)


class Reference:
    """Reference bursts (``refburst.py``) timed between commands, to follow
    the machine's speed, which drifts by tens of percent over minutes on a
    shared host.

    Bursts run at the workload's grid size in as many processes as the
    workload keeps busy, started together, so they meet the same cache and
    core contention; a burst's time is the mean over those processes.  Wall
    and CPU time are kept apart: time the host takes the cores away
    stretches wall time, not CPU time.
    """

    def __init__(self, grid: int, procs: int) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.procs = [subprocess.Popen([sys.executable, str(HERE / "refburst.py"), str(grid)],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                      for _ in range(procs)]

    def measure(self) -> None:
        for _ in range(REF_BURSTS):
            for proc in self.procs:
                proc.stdin.write("\n")
                proc.stdin.flush()
            wall, cpu = zip(*(map(float, proc.stdout.readline().split()) for proc in self.procs))
            self.wall.append(statistics.fmean(wall))
            self.cpu.append(statistics.fmean(cpu))

    def close(self) -> None:
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class Runner:
    def __init__(self, workload, seed: int, work: Path, deadline_hard: float):
        self.workload = workload
        self.argv = workload.argv(seed)
        self.work = work
        self.deadline_hard = deadline_hard
        self.count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.env = env

    def spawn(self, kind: str) -> dict:
        """Launch child.py once; kind is 'probe', 'untraced' or 'traced'."""
        self.count += 1
        cdir = self.work / f"{self.count:03d}-{kind}"
        cdir.mkdir()
        args = [sys.executable, str(CHILD), "--mark", str(cdir / "ready"), "--rss-dir", str(cdir / "rss")]
        if kind == "probe":
            args.append("--setup-only")
        if kind == "traced":
            args += ["--trace-dir", str(cdir / "spans")]
        args += ["--", *self.argv, "--out", str(cdir / "out")]
        timeout = max(1.0, self.deadline_hard - _now())
        with open(cdir / "log.txt", "wb") as log:
            t0 = _now()
            proc = subprocess.Popen(args, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(timeout, _reap_group, (proc.pid, True))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = _now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid, kill=False)
        rec = {
            "kind": kind,
            "exit": proc.returncode,
            "wall_s": t1 - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "dir": cdir,
        }
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        try:  # KiB, one file per process of the tree
            peaks = [int(f.read_text()) for f in (cdir / "rss").iterdir()]
            rec["peak_rss_max_proc_mb"] = max(peaks) / 1024.0
            # the sum of the per-process peaks: an upper bound on the tree's peak
            rec["peak_rss_mb"] = sum(peaks) / 1024.0
            rec["processes"] = len(peaks)
        except (OSError, ValueError):
            problems.append("no peak resident set recorded")
        try:
            rec["setup_s"] = float((cdir / "ready").read_text()) - t0
        except (OSError, ValueError):
            problems.append("never reached the subcommand handler")
        if kind != "probe" and not problems:
            problems += self.workload.check(cdir / "out", self.workload.expect)
        if problems:
            tail = (cdir / "log.txt").read_text(errors="replace").splitlines()[-5:]
            problems.append("log tail: " + " | ".join(tail))
        rec["problems"] = problems
        return rec


def environment() -> dict:
    import numpy

    import fhartree

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": None,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "fhartree": fhartree.__version__,
        "git_commit": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            ctype = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            env["caches"][f"L{level}"] = size
        elif ctype != "Instruction":
            env["caches"][f"L{level}d"] = size
    try:
        import scipy
        import scipy.fft

        env["scipy"] = scipy.__version__
    except ImportError:
        pass
    env["fft_backend"] = {
        "numpy.fft": "pocketfft" if "numpy.fft._pocketfft_umath" in sys.modules else None,
        "scipy.fft": "pocketfft" if "scipy.fft._pocketfft" in sys.modules else None,
        "mkl_fft_loaded": "mkl_fft" in sys.modules,
    }
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                               text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def _run_untraced(runner: Runner, deadline: float) -> tuple[list[dict], dict]:
    warm_up = runner.spawn("probe")  # byte-compiles src on a fresh checkout: checked, not timed
    probes = [runner.spawn("probe") for _ in range(SETUP_PROBES)]
    ref = Reference(runner.workload.ref_grid, runner.workload.ref_procs)
    cmds: list[dict] = []
    try:
        while True:
            ref.measure()
            cmds.append(runner.spawn("untraced"))
            if _now() + _median([c["wall_s"] for c in cmds]) > deadline:
                break
        ref.measure()
    finally:
        ref.close()
    wall_scale, cpu_scale = REF_NOMINAL_S / _median(ref.wall), REF_NOMINAL_S / _median(ref.cpu)
    for c in cmds:
        c["wall_norm_s"], c["cpu_norm_s"] = c["wall_s"] * wall_scale, c["cpu_s"] * cpu_scale
    summary = {key: _spread([c[key] for c in cmds if key in c])
               for key in ("wall_norm_s", "cpu_norm_s", "wall_s", "cpu_s", "peak_rss_mb", "peak_rss_max_proc_mb")}
    summary["setup_s"] = _spread([r["setup_s"] for r in probes + cmds if "setup_s" in r])
    summary["reference_wall_s"] = _spread(ref.wall)
    summary["reference_cpu_s"] = _spread(ref.cpu)
    summary["reference_bursts"] = {"wall": ref.wall, "cpu": ref.cpu}
    return [warm_up, *probes, *cmds], summary


def _run_traced(runner: Runner, deadline: float) -> tuple[list[dict], dict, dict]:
    cmds: list[dict] = []
    while True:
        cmds.append(runner.spawn("traced" if TRACE_ORDER[len(cmds) % len(TRACE_ORDER)] else "untraced"))
        walls = {k: _median([c["wall_s"] for c in cmds if c["kind"] == k]) for k in ("traced", "untraced")}
        if min(walls.values()) > 0 and _now() + max(walls.values()) > deadline:
            break
    per_cmd = []
    details = []
    for c in cmds:
        if c["kind"] == "traced" and not c["problems"]:
            m, d = layers.layer_metrics(load_dumps(c["dir"] / "spans"), c["cpu_s"])
            per_cmd.append(m)
            details.append(d)
    metrics = {name: _median([m[name] for m in per_cmd]) for name, _, _ in layers.PER_LAYER}
    untraced = walls["untraced"]
    metrics["trace.overhead_frac"] = (walls["traced"] - untraced) / untraced if untraced else 0.0
    summary = {k: _spread([c["wall_s"] for c in cmds if c["kind"] == k]) for k in ("traced", "untraced")}
    return cmds, summary, {"metrics": metrics, "detail": details[-1] if details else None}


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    start = _now()
    runner = Runner(workload, seed, work, start + RUN_LIMIT_S)
    deadline = start + seconds
    report: dict = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "argv": runner.argv, "environment": environment()}
    if trace:
        done, summary, layer = _run_traced(runner, deadline)
        report["layers"] = layer
    else:
        done, summary = _run_untraced(runner, deadline)
    cmds = [r for r in done if r["kind"] != "probe"]
    digest_sets = []
    for r in cmds:
        if not r["problems"]:
            r["digests"] = digests(r["dir"] / "out")
            digest_sets.append(json.dumps(r["digests"], sort_keys=True))
    failed = sum(1 for r in done if r["problems"])
    report.update(
        summary=summary,
        attempted=len(done),
        failed=failed,
        fail_rate=failed / len(done),
        outputs_identical_across_repeats=(len(set(digest_sets)) == 1) if len(digest_sets) >= 2 else None,
        runs=[{k: v for k, v in r.items() if k != "dir"} for r in done],
        elapsed_s=_now() - start,
    )
    if trace:
        metrics, units = report["layers"]["metrics"], layers.UNITS
    else:
        metrics = {key: summary[key]["median"] for key in END_TO_END}
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fhartree" / "cli.py").is_file():
        print(f"run.py: no fhartree sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the output checks read snapshots with fhartree
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench-tmp"
    tmp.mkdir(exist_ok=True)
    work = tmp / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        report, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = ROOT / "perfbench-results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
