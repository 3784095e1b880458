"""Bit-stable export of result objects to CSV and JSON.

Every table and JSON document tailforge writes goes through ``_write_csv``
or ``_write_json`` here.  Fixed column order per type, LF line endings:
exporting the same result twice yields byte-identical files, which the
determinism acceptance test relies on.  ``result_from_obj`` inverts
``result_to_obj`` for every result type, so a saved JSON result exports to
the same bytes as the object it came from.

One cell format, owned by ``_cell``: a string as it is, a flag as 1 or 0,
an integer in full, a missing value as an empty cell, and any other number
with 17 significant digits (``inf``, ``-inf``).  A cell that holds a comma,
a quote or a line break is quoted as RFC 4180 asks; no other cell is.

A destination ``dest`` is a path, an open text stream, or None / ``"-"``
for stdout.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import numbers
import os
import sys
from typing import IO, Any, Iterable, Iterator, Union

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


def _cell(v: Any) -> str:
    """The CSV text of one value (the rules are in the module docstring)."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):  # before Integral: a bool is one
        return "1" if v else "0"
    if isinstance(v, numbers.Integral):
        return str(v)
    if v is None:
        return ""
    return fmt_float(float(v))


def _write_csv(dest: Dest, header: list[str], rows: Iterable[Iterable[Any]]) -> None:
    """Write the header, then one LF-ended line of ``_cell`` texts per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_cell, row) for row in rows)
    with _dest_stream(dest) as fh:
        fh.write(buf.getvalue())


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
    return [s.param_name, "value", "log_value"], zip(s.grid, s.values, s.log_values)


def _bracket_rows(b: BracketGrid):
    return ["x", "log_lower", "log_upper"], zip(b.grid, b.log_lower, b.log_upper)


def _field_rows(cls, rows):
    """Header and rows of a dataclass's fields, in declaration order."""
    names = [f.name for f in dataclasses.fields(cls)]
    return names, ([getattr(r, f) for f in names] for r in rows)


def _report_rows(rep: ClassReport):
    return ["class", "verdict", "detail"], ([e.cls, e.verdict, e.detail] for e in rep.entries)


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
        return {"type": "McEstimate", **dataclasses.asdict(result)}
    if isinstance(result, ComparisonTable):
        return {
            "type": "ComparisonTable",
            "z_flag": float(result.z_flag),
            "rows": [dataclasses.asdict(r) for r in result.rows],
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
            return McEstimate(**{f.name: obj[f.name] for f in dataclasses.fields(McEstimate)})
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
    McEstimate: lambda m: _field_rows(McEstimate, [m]),
    ComparisonTable: lambda t: _field_rows(ComparisonRow, t.rows),
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
