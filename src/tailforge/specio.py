"""Distribution spec documents: JSON files and inline CLI strings.

File schema (versioned): ``{"schema": "tailforge-dist/1", "kind": ..., ...}``
with parameters flat beside ``kind``.  Two wrapper kinds compose:

* ``{"kind": "tilted", "gamma": g, "base": {...}}``
* ``{"kind": "power", "m": m, "base": {...}}``

Inline strings name a builtin and its parameters:
``pareto:alpha=3``, ``xu_piecewise:alpha=5.5,x1=4096,m=2``, ``dyadic_pareto``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .builtins import builtin
from .distribution import Distribution, power_tail
from .errors import ParameterError
from .export import _write_json
from .transform import gamma_transform

__all__ = ["SCHEMA", "parse_spec", "load_spec", "dump_spec", "parse_inline", "resolve_dist"]

SCHEMA = "tailforge-dist/1"

_INT_PARAMS = {"m", "n_max", "max_segments", "max_pairs", "max_cycles"}


def _integral(value):
    """A float with an integral value as an int; any other value unchanged,
    for the builder's count check to refuse."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def parse_spec(doc: dict) -> Distribution:
    """Build a Distribution from a spec document (dict form)."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParameterError("distribution spec must be an object with a 'kind' field")
    schema = doc.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ParameterError(f"unsupported spec schema {schema!r}; this build reads {SCHEMA!r}")
    kind = doc["kind"]
    if kind == "tilted":
        if "base" not in doc or "gamma" not in doc:
            raise ParameterError("tilted spec needs 'gamma' and 'base'")
        return gamma_transform(parse_spec(doc["base"]), doc["gamma"])
    if kind == "power":
        if "base" not in doc or "m" not in doc:
            raise ParameterError("power spec needs 'm' and 'base'")
        return power_tail(parse_spec(doc["base"]), _integral(doc["m"]))
    params = {
        k: (_integral(v) if k in _INT_PARAMS else v)
        for k, v in doc.items()
        if k not in ("kind", "schema")
    }
    return builtin({"kind": kind, **params})


def load_spec(path: str | os.PathLike) -> Distribution:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(json.load(fh))


def dump_spec(d: Distribution, path: str | os.PathLike) -> None:
    """Write the distribution's spec document; round-trips through load_spec."""
    if not d.spec:
        raise ParameterError(
            f"distribution {d.label!r} carries no declarative spec; cannot serialize"
        )
    _write_json(path, {"schema": SCHEMA, **d.spec})


def parse_inline(text: str) -> Distribution:
    """Parse ``kind:param=value,param=value`` into a Distribution."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    params: dict[str, float | int] = {}
    if rest.strip():
        for chunk in rest.split(","):
            key, eq, val = chunk.partition("=")
            if not eq:
                raise ParameterError(f"bad inline parameter {chunk!r}; expected key=value")
            key = key.strip()
            try:
                num = float(val)
            except ValueError as exc:
                raise ParameterError(f"non-numeric value in {chunk!r}") from exc
            params[key] = _integral(num) if key in _INT_PARAMS else num
    return parse_spec({"kind": kind, **params})


def resolve_dist(text: str) -> Distribution:
    """Interpret a CLI --dist argument: a spec file path or an inline string."""
    p = Path(text)
    if p.suffix == ".json" or p.exists():
        return load_spec(p)
    return parse_inline(text)
