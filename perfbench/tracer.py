"""Spans recorded from outside the program.

A Tracer wraps functions with timing wrappers.  Each call becomes a span
(id, parent id, name, start, end, attributes), kept in memory and written
to one JSON file per process when the process ends.  Nothing inside the
traced package is edited: wrappers are bound over the module attributes and
over every name another module imported with ``from ... import``.

Forked worker processes inherit the wrappers.  The first wrapped call in a
new process drops the spans copied from the parent and registers a
multiprocessing finalizer, so each worker writes only its own spans when
its pool shuts it down.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Iterable

FFT_COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
FFT_REAL = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

Attrs = Callable[[tuple, dict, object], object]


def _fft_attrs(kind: str) -> Attrs:
    def attrs(args: tuple, kwargs: dict, result: object) -> list:
        x = args[0] if args else kwargs.get("x", kwargs.get("a"))
        # bytes computed from array sizes (input read + output written),
        # not measured traffic
        return [kind, getattr(x, "nbytes", 0) + getattr(result, "nbytes", 0)]

    return attrs


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._ids = itertools.count(1)
        self._wrappers: dict[Callable, Callable] = {}

    def _adopt_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        mp_util.Finalize(None, self.dump, exitpriority=100)

    def wrap(self, name: str, fn: Callable, attrs: Attrs | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.pid != os.getpid():
                self._adopt_fork()
            sid = next(self._ids)
            parent = self.stack[-1] if self.stack else 0
            self.stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                extra = attrs(args, kwargs, result) if attrs and result is not None else None
                self.spans.append([sid, parent, name, t0, t1, extra])

        self._wrappers[fn] = traced
        return traced

    def install_fft(self, module: str) -> None:
        """Wrap the transform entry points of ``numpy.fft`` or ``scipy.fft``."""
        mod = importlib.import_module(module)
        lib = module.split(".")[0]
        for kind, names in (("complex", FFT_COMPLEX), ("real", FFT_REAL)):
            for name in names:
                fn = getattr(mod, name, None)
                if callable(fn):
                    setattr(mod, name, self.wrap(f"fft:{lib}.{name}", fn, _fft_attrs(kind)))

    def install_package(
        self,
        package: str,
        layers: Iterable[str],
        private: dict[str, tuple[str, ...]],
        attrs: dict[str, Attrs],
    ) -> None:
        """Wrap the public functions of each ``package.layer`` module, plus the
        private ones named in `private`, then rebind every imported copy."""
        for layer in layers:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if name.startswith("_") and name not in private.get(layer, ()):
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    span = f"{layer}.{name}"
                    wrapper = self.wrap(span, obj, attrs.get(span))
                setattr(mod, name, wrapper)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                try:
                    wrapper = self._wrappers.get(obj)
                except TypeError:  # unhashable module global
                    continue
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def dump(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        payload = {"pid": self.pid, "ppid": os.getppid(), "spans": self.spans}
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")


def load_dumps(out_dir: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(Path(out_dir).glob("spans-*.json"))]
