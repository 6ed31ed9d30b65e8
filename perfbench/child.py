"""Run one fhartree command in this process, as the benchmark measures it.

    python3 perfbench/child.py --mark FILE --rss-dir DIR [--trace-dir DIR] [--setup-only] -- ARGV...

Calls ``fhartree.cli.main(ARGV)`` and exits with its return code.  When the
subcommand handler is entered (imports done, config resolved, output
directory made) the CLOCK_MONOTONIC time is written to FILE; the parent
subtracts its spawn time to get the set-up time.  ``--setup-only`` returns
from the handler at that point without computing.  Every process of the
command (this one and its multiprocessing workers) writes its peak resident
set into ``--rss-dir`` when it ends.  ``--trace-dir`` installs the span
wrappers of ``tracer.py`` before fhartree is imported and writes one span
file per process into DIR.
"""
from __future__ import annotations

import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str]) -> tuple[dict, list[str]]:
    if "--" not in argv:
        raise SystemExit("usage: child.py --mark FILE --rss-dir DIR [--trace-dir DIR] [--setup-only] -- ARGV...")
    split = argv.index("--")
    opts: dict = {"mark": None, "rss_dir": None, "trace_dir": None, "setup_only": False}
    it = iter(argv[:split])
    for flag in it:
        if flag == "--mark":
            opts["mark"] = Path(next(it))
        elif flag == "--rss-dir":
            opts["rss_dir"] = Path(next(it))
        elif flag == "--trace-dir":
            opts["trace_dir"] = Path(next(it))
        elif flag == "--setup-only":
            opts["setup_only"] = True
        else:
            raise SystemExit(f"child.py: unknown option {flag}")
    if opts["mark"] is None or opts["rss_dir"] is None:
        raise SystemExit("child.py: --mark and --rss-dir are required")
    return opts, argv[split + 1:]


def _record_peak_rss(rss_dir: Path) -> None:
    """Write this process's peak resident set (VmHWM, KiB) to rss_dir/<pid>.

    VmHWM covers this process image alone.  getrusage's ru_maxrss would also
    count the memory of the benchmark process this one was forked from,
    before its exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            rss_dir.mkdir(parents=True, exist_ok=True)
            (rss_dir / str(os.getpid())).write_text(line.split()[1])
            return


class _ForkHook:
    """Anchor for a multiprocessing after-fork callback (held by weak reference)."""


def main(argv: list[str]) -> int:
    opts, cli_argv = _parse(argv)
    hook = _ForkHook()
    # Runs in each multiprocessing worker after its registry is reset; the
    # worker writes its peak when its pool shuts it down.
    mp_util.register_after_fork(hook, lambda _: mp_util.Finalize(None, _record_peak_rss, (opts["rss_dir"],),
                                                                 exitpriority=100))
    tracer = None
    if opts["trace_dir"] is not None:
        from tracer import Tracer  # sys.path[0] is this directory

        tracer = Tracer(opts["trace_dir"])
        tracer.install_fft("numpy.fft")  # before fhartree binds any FFT name

    import fhartree.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"child.py: imported fhartree from {cli.__file__}, not from {ROOT / 'src'}")
    if tracer is not None:
        import layers

        if "scipy.fft" in sys.modules:  # only when fhartree uses it: importing it costs time
            tracer.install_fft("scipy.fft")
        # also rebinds the FFT names fhartree imported with ``from scipy.fft import``
        tracer.install_package("fhartree", layers.LAYERS, layers.PRIVATE, layers.ATTRS)

    def ready(handler):
        def marked(*args, **kwargs):
            opts["mark"].write_text(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
            return cli.EXIT_OK if opts["setup_only"] else handler(*args, **kwargs)

        return marked

    for name, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[name] = ready(handler)

    try:
        return cli.main(cli_argv)
    finally:
        if tracer is not None:
            tracer.dump()
        _record_peak_rss(opts["rss_dir"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
