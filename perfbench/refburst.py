"""Machine-speed reference bursts for run.py.

    python3 perfbench/refburst.py N

For every line read from standard input, runs one burst on an N x N grid
and answers with one line: its wall and CPU seconds.  Exits at the end of
input.  A burst is a fixed loop shaped like fhartree's hot path (an FFT
pair, a real multiplier, a nonlinear phase), about 0.1 s on the
BASELINE.json machine for every N.  No fhartree code runs here, so a change
to fhartree cannot move these times.
"""
from __future__ import annotations

import sys
import time

import numpy as np


def burst(n: int) -> tuple[float, float]:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = rng.standard_normal((n, n))
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(max(1, round(16 * (256 / n) ** 2))):
        y = np.fft.ifft2(k * np.fft.fft2(x))
        y *= np.exp(1j * (y.real ** 2 + y.imag ** 2))
    return time.perf_counter() - t0, time.process_time() - c0


def main() -> int:
    n = int(sys.argv[1])
    for _ in sys.stdin:
        wall, cpu = burst(n)
        print(f"{wall!r} {cpu!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
