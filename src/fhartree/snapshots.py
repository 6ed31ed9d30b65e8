"""Binary field snapshots with a validating header and a JSON sidecar.

Layout: an 8-byte magic, a fixed-size header (N, n, L, s, gamma, the
CRC32 of the payload and the zero-padded Fourier-convention tag), then the
field values as raw little-endian complex doubles in row-major order.  A
JSON sidecar written next to the binary carries whatever validation scalars
the producer wants to persist (solver residuals, thresholds, run
summaries).  Readers check the magic, the convention tag, the payload size
and its checksum; loading never guesses.
"""
from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .params import PhysParams
from .spectral import CONVENTION_TAG, SpectralField, field_from_values, make_grid

MAGIC = b"FHSNAP02"
_OLD_MAGIC = b"FHSNAP01"  # the previous format, without the payload checksum
_HEADER_FMT = "<8sii3dI64s"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


class SnapshotFormatError(RuntimeError):
    """The file is not a readable snapshot (bad magic, tag, size, or checksum)."""


class SnapshotMismatchError(RuntimeError):
    """The snapshot is valid but belongs to different physics than expected."""


def sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".json")


def write_snapshot(
    path: str | Path,
    u: SpectralField,
    p: PhysParams,
    sidecar: dict | None = None,
) -> Path:
    """Persist a field and its JSON sidecar; returns the path."""
    path = Path(path)
    grid = u.grid
    payload = np.ascontiguousarray(u.values, dtype="<c16")
    header = struct.pack(
        _HEADER_FMT,
        MAGIC,
        grid.N,
        grid.n,
        grid.L,
        p.s,
        p.gamma,
        zlib.crc32(payload),
        CONVENTION_TAG.encode("utf-8").ljust(64, b"\0"),
    )
    with path.open("wb") as fh:  # the payload goes out from its own buffer, uncopied
        fh.write(header)
        fh.write(payload)
    meta = {
        "N": grid.N,
        "n": grid.n,
        "L": grid.L,
        "s": p.s,
        "gamma": p.gamma,
        "convention": CONVENTION_TAG,
    }
    if sidecar:
        meta.update(sidecar)
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def read_snapshot(
    path: str | Path,
    expect: PhysParams | None = None,
) -> tuple[SpectralField, PhysParams, dict]:
    """Load a snapshot; returns (field, params, sidecar dict).

    The header is read and checked first, and the payload then goes
    straight from the file into the field's array, so a read holds one
    payload-sized buffer.  Raises SnapshotFormatError on structural damage
    and SnapshotMismatchError when `expect` is given and the stored
    (N, s, gamma) differ.
    """
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(_HEADER_SIZE)
        if len(head) < _HEADER_SIZE:
            raise SnapshotFormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, N, n, L, s, gamma, crc, tag = struct.unpack(_HEADER_FMT, head)
        if magic == _OLD_MAGIC:
            raise SnapshotFormatError(
                f"{path}: format {_OLD_MAGIC.decode()} carries no payload checksum and is "
                f"no longer read; write the snapshot again ({MAGIC.decode()})"
            )
        if magic != MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
        tag_str = tag.rstrip(b"\0").decode("utf-8", errors="replace")
        if tag_str != CONVENTION_TAG:
            raise SnapshotFormatError(
                f"{path}: convention tag {tag_str!r} does not match {CONVENTION_TAG!r}"
            )
        try:
            p = PhysParams(N=N, s=s, gamma=gamma)
            grid = make_grid(N=N, n=n, L=L)
        except ValueError as exc:
            raise SnapshotFormatError(f"{path}: invalid header parameters: {exc}") from exc
        payload_bytes = os.fstat(fh.fileno()).st_size - _HEADER_SIZE
        if payload_bytes != 16 * grid.npoints:
            raise SnapshotFormatError(
                f"{path}: payload size {payload_bytes} does not match "
                f"{n}^{N} complex doubles"
            )
        vals = np.empty(grid.shape, dtype="<c16")
        buf = memoryview(vals).cast("B")
        got = fh.readinto(buf)  # a buffered read fills buf unless the file ends
        if got != len(buf):
            raise SnapshotFormatError(f"{path}: payload ends after {got} bytes")
    actual = zlib.crc32(buf)
    if actual != crc:
        raise SnapshotFormatError(
            f"{path}: payload checksum {actual:08x} does not match the header's {crc:08x}"
        )
    if expect is not None and (expect.N != N or expect.s != s or expect.gamma != gamma):
        raise SnapshotMismatchError(
            f"{path}: snapshot holds (N, s, gamma) = ({N}, {s}, {gamma}), "
            f"expected ({expect.N}, {expect.s}, {expect.gamma})"
        )
    side = {}
    sc = sidecar_path(path)
    if sc.exists():
        side = json.loads(sc.read_text())
    return field_from_values(grid, vals), p, side
