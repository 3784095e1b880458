"""Bit-stable export of result objects to CSV and JSON.

Every table and JSON document tailforge writes goes through ``_write_csv``
or ``_write_json`` here.  Fixed column order per type, floats printed with
17 significant digits, LF line endings: exporting the same result twice
yields byte-identical files, which the determinism acceptance test relies
on.  ``result_from_obj`` inverts ``result_to_obj`` for every result type, so
a saved JSON result exports to the same bytes as the object it came from.

A destination ``dest`` is a path, an open text stream, or None / ``"-"``
for stdout.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from typing import IO, Any, Iterator, Union

import numpy as np

from .convolve import BracketGrid
from .errors import ParameterError
from .functionals import ClassEntry, ClassReport, DiagSeries
from .montecarlo import ComparisonRow, ComparisonTable, McEstimate

__all__ = ["export_grid", "fmt_float", "result_from_obj", "result_to_obj"]

Dest = Union[str, os.PathLike, IO[str], None]


@contextlib.contextmanager
def _dest_stream(dest: Dest) -> Iterator[IO[str]]:
    """A text stream for ``dest``; a path is opened here and closed on exit."""
    if dest is None or dest == "-":
        yield sys.stdout
    elif hasattr(dest, "write"):
        yield dest
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _write_csv(dest: Dest, header: list[str], rows: list[list[str]]) -> None:
    """Write comma-joined cells, header first, one LF-ended line per row."""
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    with _dest_stream(dest) as fh:
        fh.write(text)


def _write_json(dest: Dest, obj: Any) -> None:
    """Write ``obj`` as JSON indented by 2 with a trailing LF.

    A value that is not JSON raises TypeError before ``dest`` is touched.
    """
    text = json.dumps(obj, indent=2) + "\n"
    with _dest_stream(dest) as fh:
        fh.write(text)


def fmt_float(v: float) -> str:
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return f"{v:.17g}"


def _diag_rows(s: DiagSeries):
    header = [s.param_name, "value", "log_value"]
    rows = [
        [fmt_float(float(s.grid[i])), fmt_float(float(s.values[i])), fmt_float(float(s.log_values[i]))]
        for i in range(len(s.grid))
    ]
    return header, rows


def _bracket_rows(b: BracketGrid):
    header = ["x", "log_lower", "log_upper"]
    rows = [
        [fmt_float(float(b.grid[i])), fmt_float(float(b.log_lower[i])), fmt_float(float(b.log_upper[i]))]
        for i in range(len(b.grid))
    ]
    return header, rows


def _mc_rows(m: McEstimate):
    header = ["estimate", "std_error", "accepted", "total", "seed"]
    rows = [[fmt_float(m.estimate), fmt_float(m.std_error), str(m.accepted), str(m.total), str(m.seed)]]
    return header, rows


def _table_rows(t: ComparisonTable):
    header = ["n", "x", "K", "estimate", "std_error", "bracket_lower", "bracket_upper", "z", "flagged", "error"]
    rows = []
    for r in t.rows:
        rows.append(
            [
                str(r.n),
                fmt_float(r.x),
                fmt_float(r.K),
                fmt_float(r.estimate) if r.estimate is not None else "",
                fmt_float(r.std_error) if r.std_error is not None else "",
                fmt_float(r.bracket_lower) if r.bracket_lower is not None else "",
                fmt_float(r.bracket_upper) if r.bracket_upper is not None else "",
                fmt_float(r.z) if r.z is not None else "",
                "1" if r.flagged else "0",
                r.error or "",
            ]
        )
    return header, rows


def _report_rows(rep: ClassReport):
    header = ["class", "verdict", "detail"]
    rows = [[e.cls, e.verdict, e.detail] for e in rep.entries]
    return header, rows


def result_to_obj(result: Any) -> dict:
    """JSON-able representation with a type tag (used by `export`)."""
    if isinstance(result, DiagSeries):
        return {
            "type": "DiagSeries",
            "kind": result.kind,
            "param": result.param_name,
            "grid": [float(v) for v in result.grid],
            "values": [float(v) for v in result.values],
            "log_values": [float(v) for v in result.log_values],
            "trend": result.trend,
            "limit": result.limit,
        }
    if isinstance(result, BracketGrid):
        return {
            "type": "BracketGrid",
            "n": result.n,
            "h": result.h,
            "cap": result.cap if math.isfinite(result.cap) else None,
            "x": [float(v) for v in result.grid],
            "log_lower": [float(v) for v in result.log_lower],
            "log_upper": [float(v) for v in result.log_upper],
        }
    if isinstance(result, McEstimate):
        return {
            "type": "McEstimate",
            "estimate": result.estimate,
            "std_error": result.std_error,
            "accepted": result.accepted,
            "total": result.total,
            "seed": result.seed,
        }
    if isinstance(result, ComparisonTable):
        return {
            "type": "ComparisonTable",
            "z_flag": float(result.z_flag),
            "rows": [
                {
                    "n": r.n,
                    "x": r.x,
                    "K": r.K,
                    "estimate": r.estimate,
                    "std_error": r.std_error,
                    "bracket_lower": r.bracket_lower,
                    "bracket_upper": r.bracket_upper,
                    "z": r.z,
                    "flagged": r.flagged,
                    "error": r.error,
                }
                for r in result.rows
            ],
        }
    if isinstance(result, ClassReport):
        return {
            "type": "ClassReport",
            "label": result.label,
            "disclaimer": result.disclaimer,
            "entries": [
                {
                    "class": e.cls,
                    "verdict": e.verdict,
                    "detail": e.detail,
                    "evidence": [result_to_obj(s) for s in e.evidence],
                }
                for e in result.entries
            ],
        }
    raise ParameterError(f"don't know how to export {type(result).__name__}")


def result_from_obj(obj: dict) -> Any:
    """Rebuild a result from the form ``result_to_obj`` gives it."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    try:
        if kind == "DiagSeries":
            return DiagSeries(
                kind=obj["kind"],
                param_name=obj["param"],
                grid=np.array(obj["grid"], dtype=float),
                log_values=np.array(obj["log_values"], dtype=float),
                trend=obj["trend"],
                limit=obj.get("limit"),
            )
        if kind == "BracketGrid":
            return BracketGrid(
                grid=np.array(obj["x"], dtype=float),
                log_lower=np.array(obj["log_lower"], dtype=float),
                log_upper=np.array(obj["log_upper"], dtype=float),
                n=obj["n"],
                h=obj["h"],
                cap=math.inf if obj.get("cap") is None else obj["cap"],
            )
        if kind == "McEstimate":
            fields = ("estimate", "std_error", "accepted", "total", "seed")
            return McEstimate(**{f: obj[f] for f in fields})
        if kind == "ComparisonTable":
            rows = tuple(ComparisonRow(**row) for row in obj["rows"])
            return ComparisonTable(rows=rows, z_flag=obj["z_flag"])
        if kind == "ClassReport":
            entries = []
            for e in obj["entries"]:
                evidence = tuple(result_from_obj(s) for s in e.get("evidence", ()))
                if not all(isinstance(s, DiagSeries) for s in evidence):
                    raise ParameterError("malformed ClassReport result: evidence must be series")
                entries.append(ClassEntry(e["class"], e["verdict"], e["detail"], evidence))
            return ClassReport(obj["label"], tuple(entries), obj["disclaimer"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed {kind} result: {exc!r}") from exc
    raise ParameterError(f"cannot rebuild result of type {kind!r}")


_CSV_ROWS = {
    DiagSeries: _diag_rows,
    BracketGrid: _bracket_rows,
    McEstimate: _mc_rows,
    ComparisonTable: _table_rows,
    ClassReport: _report_rows,
}


def export_grid(result: Any, fmt: str, dest: Dest) -> None:
    """Write a result object to ``dest`` as csv or json (bit-stable)."""
    if fmt == "json":
        _write_json(dest, result_to_obj(result))
    elif fmt == "csv":
        if type(result) not in _CSV_ROWS:
            raise ParameterError(f"don't know how to export {type(result).__name__}")
        _write_csv(dest, *_CSV_ROWS[type(result)](result))
    else:
        raise ParameterError(f"unknown export format {fmt!r}; use csv or json")
