"""Serialization helpers: canonical hashing, atomic file output, PGM/CSV
dumps, and the JSONL run ledger.

The writers encode every float: an infinity as the JSON string "infinity"
or "-infinity" and NaN as "nan", to stay parser-portable, so reports hand
them their raw fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np

# spaces per nesting level of a written report
REPORT_INDENT = 2


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "infinity" if v > 0 else "-infinity"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, compact separators."""
    return json.dumps(_canonical(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    """Stable under key reordering; sha256 of the canonical form."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def dumps_report(obj) -> str:
    return json.dumps(_canonical(obj), indent=REPORT_INDENT, sort_keys=True,
                      allow_nan=False)


def write_atomic(path: str, data) -> None:
    """Write bytes or text via temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    write_atomic(path, dumps_report(obj) + "\n")


def append_jsonl(path: str, obj) -> None:
    """Single-write append of one ledger line."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    line = canonical_json(obj) + "\n"
    with open(path, "a") as fh:
        fh.write(line)


def write_pgm(path: str, image: np.ndarray) -> None:
    """8-bit binary PGM (P5); image indexed [row, col]."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        lo, hi = float(img.min()), float(img.max())
        span = hi - lo if hi > lo else 1.0
        img = np.clip((img - lo) / span * 255.0, 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    write_atomic(path, header + img.tobytes())


def field_to_pgm(path: str, mesh, u: np.ndarray) -> None:
    side = mesh.n + 1
    write_pgm(path, u.reshape(side, side))


def field_to_csv(path: str, mesh, u: np.ndarray) -> None:
    rows = ["x,y,u"]
    for (x, y), v in zip(mesh.nodes, u):
        rows.append(f"{x!r},{y!r},{v!r}")
    write_atomic(path, "\n".join(rows) + "\n")


def history_to_csv(path: str, history) -> None:
    rows = ["iteration,residual_max"]
    for k, v in enumerate(history):
        rows.append(f"{k},{v!r}")
    write_atomic(path, "\n".join(rows) + "\n")


def sweep_to_csv(path: str, entries) -> None:
    """entries: list of (s, CapacityReport | None)."""
    rows = ["s,C_A,C_hat"]
    for s, rep in entries:
        if rep is None:
            rows.append(f"{s!r},failed,failed")
        else:
            rows.append(f"{s!r},{rep.c_inner!r},{rep.c_hat!r}")
    write_atomic(path, "\n".join(rows) + "\n")
