"""Optional on-disk cache for bracket grids.

Activated by the TAILFORGE_CACHE_DIR environment variable.  Entries are
JSON files named by the SHA-256 of the canonical request (schema tag,
distribution spec, fold count, range, step, cap) holding a header plus a
base-10 grid payload; no binary formats, so cache files diff and ship
cleanly.  The schema tag names the bracket arithmetic: bumping it when the
computed bits change retires every older entry.  Entries are written to a
temporary file and renamed into place, and an entry that cannot be decoded
is treated as a miss and rewritten.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import uuid
from pathlib import Path

import numpy as np

from .convolve import BracketGrid, convn_tail_grid, trunc_convn_tail_grid
from .distribution import Distribution

__all__ = ["cache_dir", "cached_convn_tail_grid"]

_PAYLOAD_FMT = "{:.17g}"
# /2: one-chain staircases for atom-free laws and truncated products.
# /3: sums by halves (S_4 = S_2 * S_2) and squares formed by symmetry.
# /4: folds of factors with few nonzero cells formed from those cells.
_SCHEMA = "tailforge-bracket/4"


def cache_dir() -> Path | None:
    root = os.environ.get("TAILFORGE_CACHE_DIR")
    return Path(root) if root else None


def _key(spec: dict, n: int, x_max: float, h: float, cap: float) -> str:
    doc = json.dumps(
        {
            "schema": _SCHEMA,
            "spec": spec,
            "n": n,
            "x_max": x_max,
            "h": h,
            "cap": None if math.isinf(cap) else cap,
        },
        sort_keys=True,
    )
    return hashlib.sha256(doc.encode()).hexdigest()


def _load(path: Path) -> BracketGrid | None:
    """The entry at path, or None when it is missing or cannot be decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        header = doc["header"]
        if header["schema"] != _SCHEMA:
            return None
        cols = [
            np.array([float(v) for v in doc[name]])
            for name in ("grid", "log_lower", "log_upper")
        ]
        if not len(cols[0]) == len(cols[1]) == len(cols[2]) > 0:
            return None
        return BracketGrid(
            *cols,
            n=header["n"],
            h=header["h"],
            cap=math.inf if header["cap"] is None else header["cap"],
        )
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        # ValueError covers JSON, UTF-8 and number decoding, and a stored
        # bracket whose lower column exceeds its upper one.
        return None


def _store(path: Path, doc: dict) -> None:
    # A unique sibling, renamed over the entry: readers see the old file or
    # the whole new one, never a partial write.  Unlike mkstemp, open keeps
    # the umask's permissions, so a shared cache stays readable.
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cached_convn_tail_grid(
    d: Distribution, n: int, x_max: float, h: float, cap: float = math.inf
) -> BracketGrid:
    """convn/trunc_convn with a spec-hash cache when TAILFORGE_CACHE_DIR is set."""
    root = cache_dir()
    if root is None or not d.spec:
        return _compute(d, n, x_max, h, cap)
    root.mkdir(parents=True, exist_ok=True)
    key = _key(d.spec, n, x_max, h, cap)
    path = root / f"bracket-{key}.json"
    hit = _load(path)
    if hit is not None:
        return hit
    grid = _compute(d, n, x_max, h, cap)
    doc = {
        "header": {
            "schema": _SCHEMA,
            "spec_hash": key,
            "spec": d.spec,
            "n": n,
            "x_max": x_max,
            "h": h,
            "cap": None if math.isinf(cap) else cap,
        },
        "grid": [_PAYLOAD_FMT.format(v) for v in grid.grid],
        "log_lower": [_PAYLOAD_FMT.format(v) for v in grid.log_lower],
        "log_upper": [_PAYLOAD_FMT.format(v) for v in grid.log_upper],
    }
    _store(path, doc)
    return grid


def _compute(d: Distribution, n: int, x_max: float, h: float, cap: float) -> BracketGrid:
    if math.isinf(cap):
        return convn_tail_grid(d, n, x_max, h)
    return trunc_convn_tail_grid(d, n, cap, x_max, h)
