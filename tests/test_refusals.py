"""Refusals no other test reaches, in one table.  Each case calls the library
and asserts the ``TailforgeError`` subclass it raises; where a command line
reaches the same branch, the case runs it too, through ``cli.main``: exit 3
and one ``tailforge: <Class>: ...`` line on stderr.  ``{file}`` in a command
line is a JSON file holding the case's document."""

import json
import math

import numpy as np
import pytest

import tailforge as tf
from tailforge.cli import main
from tailforge.convolve import BracketGrid
from tailforge.errors import LowAcceptanceError, ParameterError, TruncationError
from tailforge.export import export_grid, result_from_obj, result_to_obj
from tailforge.montecarlo import McEstimate
from tailforge.tailcurve import (
    AffineSegment,
    ExpAffineSegment,
    ExpPowSegment,
    PowerSegment,
    TailCurve,
    chain_segments,
)

_INF = math.inf
_PARETO = {"kind": "pareto", "alpha": 3}
_MC = {"estimate": 0.5, "std_error": 0.0, "accepted": 1, "total": 2, "seed": 0}
_BAD_GRID = {"x": [0.0, 1.0], "log_lower": [0.0, -1.0], "log_upper": [-1.0, -2.0]}
_SERIES_NOT = {"type": "ClassReport", "label": "x", "disclaimer": "", "entries": [
    {"class": "OL", "verdict": "inconclusive", "detail": "", "evidence": [{"type": "McEstimate", **_MC}]}]}
_EXPORT = "export --infile {file} --out {file}.csv"
_FUNCTIONAL = "functional --dist pareto:alpha=3 --x 4,8 --out f.csv --kind "


def _ratio(kind, **kw):
    return tf.ratio_diagnostic(tf.pareto(3.0), kind, [4.0, 8.0], **kw)


# (id, library call, error, command line or None, the document {file} holds)
CASES = [
    ("spec-not-object", lambda: tf.parse_spec([1]), ParameterError, "dist show --dist {file}", [1]),
    ("tilted-spec-without-gamma", lambda: tf.parse_spec({"kind": "tilted", "base": _PARETO}),
     ParameterError, "dist show --dist {file}", {"kind": "tilted", "base": _PARETO}),
    ("power-spec-without-m", lambda: tf.parse_spec({"kind": "power", "base": _PARETO}),
     ParameterError, "dist show --dist {file}", {"kind": "power", "base": _PARETO}),
    ("dump-without-spec", lambda: tf.dump_spec(tf.Distribution(tf.pareto(3.0).tail), "x.json"),
     ParameterError, None, None),
    ("identity-residual-gamma-0", lambda: tf.g_conv2_identity_residual(tf.pareto(3.0), 0.0, 1.0),
     ParameterError, None, None),
    ("bracket-lower-above-upper",
     lambda: BracketGrid(*(np.array(v) for v in _BAD_GRID.values()), n=2, h=1.0),
     ParameterError, _EXPORT, {"type": "BracketGrid", "n": 2, "h": 1.0, **_BAD_GRID}),
    ("cap-past-truncation", lambda: tf.trunc_convn_tail_grid(tf.fkz_example(), 2, 1e40, 10.0, 1.0),
     TruncationError, "conv --dist fkz_example --n 2 --x 10 --h 1 --cap 1e40", None),
    ("grid-past-truncation", lambda: tf.geometric_grid(tf.fkz_example(), 1e38, 1e40, 8),
     ParameterError, "classify --dist fkz_example --config {file}", {"x_lo": 1e38, "x_hi": 1e40}),
    ("exam300-n-0", lambda: tf.exam300_lower_bound(0), ParameterError, None, None),
    ("ratio-gamma-nan", lambda: _ratio("lgamma", gamma=math.nan), ParameterError,
     _FUNCTIONAL + "lgamma --gamma nan", None),
    ("ratio-gamma-inf", lambda: _ratio("lgamma", gamma=_INF), ParameterError,
     _FUNCTIONAL + "lgamma --gamma inf", None),
    ("ratio-gamma-negative", lambda: _ratio("lgamma", gamma=-1.0), ParameterError,
     _FUNCTIONAL + "lgamma --gamma -1", None),
    ("ratio-shift-negative", lambda: _ratio("ol", t=-1.0), ParameterError,
     _FUNCTIONAL + "ol --t -1", None),
    ("weak-equiv-t-past-x", lambda: tf.weak_equiv_diag(tf.pareto(3.0), [1.0, 8.0], [4.0, 16.0]),
     ParameterError, None, None),
    ("unknown-experiment", lambda: tf.run_experiment("prop-9.9", "out"), ParameterError, None, None),
    ("export-unknown-object", lambda: result_to_obj(object()), ParameterError, None, None),
    ("evidence-not-series", lambda: result_from_obj(_SERIES_NOT), ParameterError, _EXPORT,
     _SERIES_NOT),
    ("csv-of-unknown-object", lambda: export_grid(object(), "csv", None), ParameterError, None, None),
    ("unknown-format", lambda: export_grid(McEstimate(**_MC), "xml", None), ParameterError, None,
     None),
    ("estimate-above-1", lambda: McEstimate(**{**_MC, "estimate": 1.5}), ParameterError, _EXPORT,
     {"type": "McEstimate", **_MC, "estimate": 1.5}),
    ("accepted-above-total", lambda: McEstimate(**{**_MC, "accepted": 3}), ParameterError, _EXPORT,
     {"type": "McEstimate", **_MC, "accepted": 3}),
    # P(S_2 > 9) = 10 e^-9 clears the floor, but the one draw the estimate reads misses
    ("no-accepted-draw", lambda: tf.mc_jump_cond(tf.exponential(1.0), 2, 9.0, 1.0, 1, 0),
     LowAcceptanceError, "simulate --dist exponential:lam=1 --n 2 --x 9 --K 1 --samples 1 --seed 0",
     None),
    ("affine-ends-rising", lambda: AffineSegment.from_endpoints(0.0, 1.0, -1.0, -0.5),
     ParameterError, None, None),
    ("power-shift-at-0", lambda: PowerSegment(lo=0.0, hi=_INF, shift=0.0), ParameterError, None,
     None),
    ("exp-affine-rate-0", lambda: ExpAffineSegment(lo=0.0, hi=_INF, rate=0.0), ParameterError, None,
     None),
    ("exp-pow-coeff-0", lambda: ExpPowSegment(lo=0.0, hi=_INF, coeff=0.0), ParameterError, None,
     None),
    ("exp-pow-below-0", lambda: ExpPowSegment(lo=-1.0, hi=_INF), ParameterError, None, None),
    ("no-segments", lambda: chain_segments([]), ParameterError, None, None),
    ("support-from-1", lambda: TailCurve([ExpAffineSegment(lo=1.0, hi=_INF)]), ParameterError, None,
     None),
    ("panel-below-support", lambda: tf.pareto(3.0).tail._on_panels(np.full((1, 15), -1.0)),
     ParameterError, None, None),
]


@pytest.mark.parametrize("call, error, line, doc", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_refusal(tmp_path, capsys, monkeypatch, call, error, line, doc):
    monkeypatch.chdir(tmp_path)  # for the calls that would write a file
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    if line is None:
        return
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(line.format(file=path).split()) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"tailforge: {error.__name__}: ") and err.count("\n") == 1, err


def test_export_names_a_malformed_report_once(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_SERIES_NOT))
    assert main(_EXPORT.format(file=path).split()) == 3
    err = capsys.readouterr().err
    assert err == "tailforge: ParameterError: malformed ClassReport result: evidence must be series\n"


def test_log_tail_a_hair_above_0_at_0_is_pinned_to_0():
    curve = TailCurve([ExpAffineSegment(lo=0.0, hi=_INF, log_v_lo=1e-13, rate=1.0)])
    assert curve.log_tail(0.0) == 0.0
    assert curve.log_tail(2.0) == -2.0


def test_cli_dist_show_reports_an_unavailable_mean_and_writes_the_spec(tmp_path, capsys):
    # pareto(1) has no mean; dist show says why, and --out keeps its spec
    out = tmp_path / "p1.json"
    assert main(["dist", "show", "--dist", "pareto:alpha=1", "--out", str(out)]) == 0
    mean = json.loads(capsys.readouterr().out)["mean"]
    assert mean.startswith("unavailable: integral of y^0 * tail diverges")
    assert tf.load_spec(out).spec == {"kind": "pareto", "alpha": 1.0}
