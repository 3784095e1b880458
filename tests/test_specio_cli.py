"""Spec documents, export determinism, and the CLI front end."""

import argparse
import csv
import io
import json
import math

import numpy as np
import pytest

import tailforge as tf
from tailforge.cli import build_parser, main
from tailforge.errors import ParameterError
from tailforge.export import _cell, _write_csv, export_grid, result_from_obj, result_to_obj


# -------------------------------------------------------------------- specio


def test_inline_parse():
    d = tf.parse_inline("pareto:alpha=3")
    assert d.log_tail(1.0) == pytest.approx(-3 * math.log(2.0))
    d2 = tf.parse_inline("xu_piecewise:alpha=5.5,x1=4096,m=2")
    assert d2.spec["m"] == 2
    d3 = tf.parse_inline("dyadic_pareto")
    assert d3.label == "dyadic_pareto"


def test_inline_parse_errors():
    with pytest.raises(ParameterError):
        tf.parse_inline("pareto:alpha")
    with pytest.raises(ParameterError):
        tf.parse_inline("pareto:alpha=abc")


@pytest.mark.parametrize(
    "spec",
    [
        "xu_piecewise:alpha=5.5,x1=4096,m=2.5",
        "dyadic_pareto:n_max=10.7",
        {"kind": "xu_piecewise", "alpha": 5.5, "x1": 4096, "m": 2.5},
        {"kind": "dyadic_pareto", "n_max": 10.7},
        {"kind": "power", "m": True, "base": {"kind": "pareto", "alpha": 3}},
        {"kind": "power", "m": 2.5, "base": {"kind": "pareto", "alpha": 3}},
        {"kind": "power", "m": "2", "base": {"kind": "pareto", "alpha": 3}},
        {"kind": "xu_piecewise", "alpha": 5.5, "x1": 4096, "m": "2"},
    ],
    ids=repr,
)
def test_spec_counts_are_not_truncated(spec):
    parse = tf.parse_inline if isinstance(spec, str) else tf.parse_spec
    with pytest.raises(ParameterError, match="must be an integer"):
        parse(spec)


def test_spec_counts_with_integral_float_values():
    assert tf.parse_inline("dyadic_pareto:n_max=10.0").spec["n_max"] == 10
    doc = {"kind": "power", "m": 2.0, "base": {"kind": "pareto", "alpha": 3}}
    assert tf.parse_spec(doc).spec["m"] == 2
    doc = {"kind": "xu_piecewise", "alpha": 5.5, "x1": 4096, "m": 2.0, "max_cycles": None}
    assert tf.parse_spec(doc).spec["m"] == 2


def test_spec_file_roundtrip(tmp_path):
    d = tf.xu_piecewise(6.0, 5000.0, m=2)
    path = tmp_path / "xu.json"
    tf.dump_spec(d, path)
    doc = json.loads(path.read_text())
    assert doc["schema"] == "tailforge-dist/1"
    d2 = tf.load_spec(path)
    xs = np.geomspace(1, 9000, 17)
    assert np.array_equal(
        np.atleast_1d(d.tail.log_tail(xs)), np.atleast_1d(d2.tail.log_tail(xs))
    )


def test_nested_tilt_power_spec(tmp_path):
    g = tf.gamma_transform(tf.power_tail(tf.pareto(3.0), 2), 0.25)
    path = tmp_path / "nested.json"
    tf.dump_spec(g, path)
    g2 = tf.load_spec(path)
    xs = np.geomspace(0.5, 50, 9)
    assert np.allclose(
        np.atleast_1d(g.tail.log_tail(xs)), np.atleast_1d(g2.tail.log_tail(xs)), atol=0
    )


@pytest.mark.parametrize("gamma", ["abc", None, [0.5], True, "0.5"], ids=repr)
def test_tilted_spec_refuses_a_gamma_that_is_not_a_number(tmp_path, capsys, gamma):
    # Only a real number is a rate: no string, null, list or bool, not
    # even one that reads as a number.
    path = tmp_path / "tilt.json"
    spec = {"kind": "tilted", "gamma": gamma, "base": {"kind": "pareto", "alpha": 3}}
    path.write_text(json.dumps(spec))
    with pytest.raises(ParameterError, match="tilt rate must be a number"):
        tf.load_spec(path)
    assert main(["dist", "show", "--dist", str(path)]) == 3
    assert "ParameterError: tilt rate must be a number" in capsys.readouterr().err


_REAL_PARAMS = [
    ("pareto", "alpha", {}),
    ("exponential", "lam", {}),
    ("weibull_heavy", "beta", {}),
    ("plateau_example", "a", {}),
    ("plateau_example", "y0", {"a": 2.0}),
    ("xu_piecewise", "alpha", {"x1": 4096.0}),
    ("xu_piecewise", "x1", {"alpha": 5.5}),
]
# A null y0 is plateau_example's default, so it builds a valid law.
_NOT_NUMBERS = [
    pytest.param(kind, name, others, value, id=f"{kind}-{name}-{value!r}")
    for kind, name, others in _REAL_PARAMS
    for value in (True, "3", None, [3], math.inf, math.nan)
    if not (name == "y0" and value is None)
]


@pytest.mark.parametrize("kind, name, others, value", _NOT_NUMBERS)
def test_builtins_refuse_a_parameter_that_is_not_a_finite_number(tmp_path, capsys, kind, name, others, value):
    # A bool, a string, null, a list or an infinity is no parameter, called
    # directly or read from a spec file.
    message = f"{name} must be a finite positive number"
    with pytest.raises(ParameterError, match=message):
        getattr(tf, kind)(**others, **{name: value})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": kind, **others, name: value}))
    assert main(["dist", "show", "--dist", str(path)]) == 3
    assert f"ParameterError: {message}" in capsys.readouterr().err


def test_unknown_schema_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/9", "kind": "pareto", "alpha": 3}))
    with pytest.raises(ParameterError):
        tf.load_spec(path)


# -------------------------------------------------------------------- export


def test_export_byte_identical(tmp_path, pareto3):
    s = tf.ratio_diagnostic(pareto3, "d", np.geomspace(4, 100, 9))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_grid(s, "csv", p1)
    export_grid(s, "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    export_grid(s, "json", j1)
    export_grid(s, "json", j2)
    assert j1.read_bytes() == j2.read_bytes()


def test_export_schemas(tmp_path, exp1):
    s = tf.ratio_diagnostic(exp1, "ol", np.geomspace(4, 50, 6), t=1.0)
    export_grid(s, "csv", tmp_path / "s.csv")
    header = (tmp_path / "s.csv").read_text().splitlines()[0]
    assert header == "x,value,log_value"
    bg = tf.convn_tail_grid(exp1, 2, 3.0, 0.5)
    export_grid(bg, "csv", tmp_path / "b.csv")
    header = (tmp_path / "b.csv").read_text().splitlines()[0]
    assert header == "x,log_lower,log_upper"
    # LF endings only
    raw = (tmp_path / "b.csv").read_bytes()
    assert b"\r" not in raw


@pytest.mark.parametrize("value, text", [
    ("a b", "a b"),
    (True, "1"),
    (False, "0"),
    (np.bool_(True), "1"),
    (np.bool_(False), "0"),
    (3, "3"),
    (np.int64(-12), "-12"),
    (2**63 - 1, "9223372036854775807"),
    (None, ""),
    (0.1, "0.10000000000000001"),
    (np.float64(2.0), "2"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
], ids=repr)
def test_cell_writes_one_format_per_kind_of_value(value, text):
    assert _cell(value) == text


def test_write_csv_quotes_only_a_cell_that_needs_it():
    from tailforge.montecarlo import ComparisonRow, ComparisonTable

    error = "ToleranceError: quadrature on [1, 2] missed 1e-09"
    row = ComparisonRow(2, 5.0, 1.0, None, None, None, None, None, True, error)
    buf = io.StringIO()
    export_grid(ComparisonTable((row,), 4.0), "csv", buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == f'2,5,1,,,,,,1,"{error}"'
    assert list(csv.reader(lines))[1][-1] == error
    buf = io.StringIO()
    _write_csv(buf, ["a", "b"], [('say "hi"', 1.5)])
    assert buf.getvalue() == 'a,b\n"say ""hi""",1.5\n'


# ----------------------------------------------------------------------- CLI


def test_cli_dist_eval(tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = main(["dist", "eval", "--dist", "exponential:lam=1", "--x", "1,2,10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,log_tail,tail"
    assert lines[3].startswith("10,-10,")


def test_cli_dist_sample_prints_the_pinned_draws(capsys):
    # The workflow's smoke line: 17 significant digits, one draw a line.
    assert main(["dist", "sample", "--dist", "pareto:alpha=3", "--n", "3", "--seed", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "sample", "0.030296865104996851", "0.09426507674621587", "0.71362362857553352"
    ]


def test_cli_dist_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main([
            "dist", "sample", "--dist", "pareto:alpha=3", "--n", "100",
            "--seed", "5", "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_transform_writes_loadable_spec(tmp_path):
    out = tmp_path / "tilt.json"
    code = main(["transform", "--dist", "pareto:alpha=3", "--gamma", "0.5", "--out", str(out)])
    assert code == 0
    g = tf.load_spec(out)
    assert g.log_tail(2.0) == pytest.approx(-3 * math.log(3.0) - 1.0, rel=1e-12)


def test_cli_conv_csv(capsys):
    code = main(["conv", "--dist", "exponential:lam=1", "--n", "3", "--x", "1,2", "--h", "0.001"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "x,lower,upper,method"
    x2 = out[2].split(",")
    truth = math.log(5 * math.exp(-2))
    assert float(x2[1]) <= truth <= float(x2[2])


def test_cli_conv_stdout_reads_the_log_bounds(capsys):
    # The upper bound at 1600 is finite but underflows as a probability.
    argv = ["conv", "--dist", "exponential:lam=1", "--n", "2", "--x", "1550,1600", "--h", "1"]
    assert main(argv) == 0
    x1600 = capsys.readouterr().out.splitlines()[2].split(",")
    assert float(x1600[1]) <= math.log(1601.0) - 1600.0 <= float(x1600[2]) < -700


def test_cli_conv_brackets_the_erlang_tail_on_157_tiles(capsys):
    # The workflow's smoke line: 20 001 cells, the dense kernel's 157
    # tiles below the top cells; log P(S_3 > 20) = log(221) - 20.
    argv = ["conv", "--dist", "exponential:lam=1", "--n", "3", "--x", "20", "--h", "0.001"]
    assert main(argv) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[0] == "20" and float(row[1]) <= -14.601837298482248 <= float(row[2])


def test_cli_jump_low_cap_contains_the_exponential_conditional(capsys):
    # The workflow's smoke line: the cap 1.5 sits in cell J = 768 of
    # M = 2562, so each bracket folds its own chain; 0.9991217091227599 is
    # the inclusion-exclusion value over the summands past the cap.
    argv = ["functional", "--dist", "exponential:lam=1", "--kind", "jump", "--n", "4",
            "--x", "5", "--K", "3.5", "--h", "0.001953125"]
    assert main(argv) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[:3] == ["5", "3.5", "4"]
    assert float(row[3]) <= 0.9991217091227599 <= float(row[4])


def test_cli_conv_capped_upper_bound_is_at_most_one(capsys):
    # The workflow's smoke line: the union bound n F(v / n) ignores the cap,
    # and read 0.643 here; the restricted mass is (1 - e^{-1e-300})^2.
    argv = ["conv", "--dist", "exponential:lam=1", "--n", "2", "--x", "0.1", "--h", "0.1"]
    assert main([*argv, "--cap", "1e-300"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[2]) <= 0.0
    assert float(row[2]) == pytest.approx(2 * math.log(1e-300), rel=1e-12)


_FN = ["functional", "--dist", "pareto:alpha=3", "--x", "8,16"]
_EXP1 = ["--dist", "exponential:lam=1"]
# Commands with one table form: they write csv and refuse json.  dist eval
# has no --format option at all.
_CSV_ONLY = {
    "functional-t_ratio": [*_FN, "--kind", "t_ratio", "--K", "2"],
    "functional-b2": [*_FN, "--kind", "b2", "--K", "2"],
    "functional-jump": [
        "functional", *_EXP1, "--kind", "jump", "--x", "9", "--K", "1", "--h", "0.05",
    ],
    "dist-eval": ["dist", "eval", *_EXP1, "--x", "1,2,10", "--u", "0.5,0.01"],
}


def _stdout_cases():
    commands = {
        **{f"functional-{k}": [*_FN, "--kind", k] for k in ("ol", "d", "lgamma", "os", "osstar")},
        "classify": ["classify", *_EXP1, "--config", "{config}"],
        "simulate": ["simulate", *_EXP1, "--x", "5", "--K", "1", "--samples", "2000", "--seed", "9"],
    }
    cases = [
        pytest.param(argv, fmt, id=f"{name}-{fmt}")
        for name, argv in commands.items()
        for fmt in ("csv", "json")
    ]
    cases += [
        pytest.param(argv, None if name == "dist-eval" else "csv", id=f"{name}-csv")
        for name, argv in _CSV_ONLY.items()
    ]
    sample = ["dist", "sample", "--dist", "pareto:alpha=3", "--n", "20"]
    return [*cases, pytest.param(sample, None, id="dist-sample")]


@pytest.mark.parametrize("argv, fmt", _stdout_cases())
def test_cli_stdout_carries_the_out_file_bytes(tmp_path, capsys, argv, fmt):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"x_hi": 1e4, "n_grid": 14}))
    argv = [str(config) if a == "{config}" else a for a in argv]
    if fmt is not None:
        argv += ["--format", fmt]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert stdout.encode() == out.read_bytes()


@pytest.mark.parametrize("argv", [pytest.param(a, id=f"{n}-json") for n, a in _CSV_ONLY.items()])
def test_cli_json_refused_where_only_csv_exists(capsys, argv):
    # These commands used to accept --format json and print CSV anyway.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    assert exc.value.code == 2
    assert "json" in capsys.readouterr().err


def test_cli_functional_and_export(tmp_path):
    out = tmp_path / "series.json"
    code = main([
        "functional", "--dist", "pareto:alpha=3", "--kind", "d",
        "--x", "geom:4:1000:8", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "DiagSeries"
    csv_out = tmp_path / "series.csv"
    assert main(["export", "--infile", str(out), "--format", "csv", "--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("x,value,log_value")


def test_cli_simulate(tmp_path):
    out = tmp_path / "mc.json"
    code = main([
        "simulate", "--dist", "exponential:lam=1", "--n", "2", "--x", "5",
        "--K", "1", "--samples", "20000", "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "McEstimate"
    assert 0.5 < doc["estimate"] < 0.8


def test_cli_simulate_pareto_line_pinned(capsys):
    # the pareto simulate line of the workflow's smoke step, digit for digit
    argv = ["simulate", "--dist", "pareto:alpha=3", "--n", "2", "--x", "10", "--K", "2",
            "--samples", "200000", "--seed", "11", "--format", "csv"]
    assert main(argv) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row == "0.97435897435897434,0.0084367199451764914,351,200000,11"


def test_cli_classify(tmp_path):
    out = tmp_path / "report.json"
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"x_hi": 1e4, "n_grid": 14}))
    code = main([
        "classify", "--dist", "exponential:lam=1", "--config", str(cfgf),
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    verd = {e["class"]: e["verdict"] for e in doc["entries"]}
    assert verd["J"] == "evidence-against"
    assert doc["disclaimer"] == "numerical evidence, not proof"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--dist", "pareto:alpha=3", "--n", "2", "--x", "10", "--K", "2", "--samples", "100"],
        ["dist", "sample", "--dist", "pareto:alpha=3", "--n", "10"],
    ],
    ids=["simulate", "dist-sample"],
)
def test_cli_refuses_a_negative_seed(capsys, argv):
    assert main([*argv, "--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tailforge: ParameterError: seed must be >= 0")
    assert err.count("\n") == 1


def test_cli_numerical_error_exit_code(tmp_path):
    # moment beyond the representable construction: exit 3
    code = main([
        "functional", "--dist", "fkz_example", "--kind", "t_ratio",
        "--x", "1e40", "--K", "2",
    ])
    assert code == 3


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "prop-9.9", "--out", "/tmp/x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--versio"],
    ["classify", "--dis", "pareto:alpha=3"],
    ["conv", "--dist", "exponential:lam=1", "--x", "2", "--ca", "1"],
], ids=["version", "classify-dist", "conv-cap"])
def test_cli_refuses_an_abbreviated_option(capsys, argv):
    # a prefix of an option is no option: --versio does not print the version
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["--versio"], "tailforge: error: unrecognized arguments: --versio"),
    (["dist", "--versio"], "tailforge: error: unrecognized arguments: --versio"),
    ([], "tailforge: error: the following arguments are required: command"),
    (["dist"], "tailforge dist: error: the following arguments are required: dist_command"),
    # argparse checks a subcommand's required options first: --dis read as
    # a missing --dist
    (["dist", "show", "--dis", "x"],
     "tailforge dist show: error: unrecognized arguments: --dis x"),
    (["classify", "--dis", "pareto:alpha=3"],
     "tailforge classify: error: unrecognized arguments: --dis pareto:alpha=3"),
    (["conv", "--dis", "pareto:alpha=3", "--x", "10"],
     "tailforge conv: error: unrecognized arguments: --dis pareto:alpha=3"),
    (["simulate", "--dis", "pareto:alpha=3", "--x", "10", "--K", "2"],
     "tailforge simulate: error: unrecognized arguments: --dis pareto:alpha=3"),
    (["classify"], "tailforge classify: error: the following arguments are required: --dist"),
], ids=["top-option", "dist-option", "top-command", "dist-command", "dist-show-dis",
        "classify-dis", "conv-dis", "simulate-dis", "classify-no-dist"])
def test_cli_names_an_unrecognised_option_before_a_missing_command(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message


@pytest.mark.parametrize("argv, error", [
    (["dist", "show", "--dist", "xu_piecewise:alpha=5.5,x1=1e300"], "ParameterError"),
    (["classify", "--dist", "exponential:lam=1e300"], "LogDepthError"),
], ids=["xu-x1", "exponential-lam"])
def test_cli_refuses_a_law_past_the_float_range(capsys, argv, error):
    # each raised a bare OverflowError (exit 1): math.expm1 past binary64
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"tailforge: {error}: ")


def test_cli_classify_reads_a_quantile_past_the_float_range_as_inf(capsys):
    # pareto(1e-3)'s K quantiles lie near 10^1000: they read inf, with no
    # overflow warning, and J says it has no usable grid
    assert main(["classify", "--dist", "pareto:alpha=1e-3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    j = json.loads(out)["entries"][-1]
    assert (j["class"], j["verdict"], j["detail"]) == ("J", "inconclusive", "no usable (x, K) grid")


def test_every_parser_refuses_abbreviations():
    parsers = [build_parser()]
    for parser in parsers:
        assert parser.allow_abbrev is False, parser.prog
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert len(parsers) == 12  # tailforge, its 8 subcommands and dist's 3


CLASSIFY = ["classify", "--dist", "exponential:lam=1"]
EXPERIMENT = ["experiment", "prop-1.3"]
# (case, command, config file content or None for a missing file)
CONFIG_ERRORS = [
    ("classify-unknown-key", CLASSIFY, '{"x_hi": 1e4, "n_gird": 9}'),
    ("classify-malformed", CLASSIFY, '{"x_hi": 1e4,'),
    ("classify-not-object", CLASSIFY, "[1, 2]"),
    ("classify-missing", CLASSIFY, None),
    # an experiment is a fixed script: any config file is an unknown option
    ("experiment-takes-no-config", EXPERIMENT, '{"gamma": 0.5}'),
    # settings that were removed are unknown keys
    ("classify-removed-use-jump", CLASSIFY, '{"use_jump": true}'),
    ("classify-removed-jump-h", CLASSIFY, '{"jump_h": 0.05}'),
    ("classify-removed-gamma-grid", CLASSIFY, '{"gamma_grid": [0.5]}'),
    ("classify-removed-j-n-grid", CLASSIFY, '{"j_n_grid": 10}'),
    # verdict thresholds are module constants, not settings
    ("classify-removed-trend", CLASSIFY, '{"trend": {"converge_band": 0.05}}'),
    ("classify-removed-j-x-lo", CLASSIFY, '{"j_x_lo": 0}'),
    ("classify-removed-K-levels", CLASSIFY, '{"K_levels": [0.3, 1.0]}'),
    ("classify-removed-j-band", CLASSIFY, '{"j_lo": 0.9, "j_hi": 0.5}'),
    ("classify-j-hi-above-one", CLASSIFY, '{"j_hi": 1.5}'),
    ("classify-zero-j-lo", CLASSIFY, '{"j_lo": 0}'),
    ("classify-removed-l-tol", CLASSIFY, '{"l_tol": 0.05}'),
    ("classify-removed-s-rel-band", CLASSIFY, '{"s_rel_band": 0.1}'),
    # values of the wrong type or shape
    ("classify-float-for-int", CLASSIFY, '{"n_grid": 8.5}'),
    ("classify-string-in-list", CLASSIFY, '{"t_list": [1.0, "2"]}'),
    ("classify-nan", CLASSIFY, '{"x_hi": NaN}'),
    ("classify-bool-for-number", CLASSIFY, '{"x_lo": true}'),
    # values of the right type but out of range
    ("classify-zero-rel-tol", CLASSIFY, '{"rel_tol": 0}'),
    ("classify-negative-n-grid", CLASSIFY, '{"n_grid": -3}'),
    ("classify-one-point-grid", CLASSIFY, '{"n_grid": 1}'),
    ("classify-zero-x-lo", CLASSIFY, '{"x_lo": 0}'),
    ("classify-window-reversed", CLASSIFY, '{"x_lo": 1e4, "x_hi": 100}'),
    ("classify-negative-t", CLASSIFY, '{"t_list": [1.0, -2.0]}'),
    ("classify-t-beyond-x-lo", CLASSIFY, '{"t_list": [1.0, 8.0]}'),
    ("classify-t-at-x-lo", CLASSIFY, '{"t_list": [1.0, 4.0]}'),
    ("classify-negative-K", CLASSIFY, '{"K_list": [-2.0]}'),
    ("classify-K-list-not-increasing", CLASSIFY, '{"K_list": [4.0, 4.0, 1.0]}'),
]


@pytest.mark.parametrize(
    "argv, content", [c[1:] for c in CONFIG_ERRORS], ids=[c[0] for c in CONFIG_ERRORS]
)
def test_cli_config_errors_are_usage_errors(tmp_path, capsys, argv, content):
    cfgf = tmp_path / "cfg.json"
    if content is not None:
        cfgf.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfgf), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(cfgf) in err.splitlines()[-1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, content", [
    ([*CLASSIFY, "--config", "{file}"], '{"t_list": [1.0, 8.0]}'),
    ([*CLASSIFY, "--config", "{file}"], "[1, 2]"),
    ([*_FN, "--kind", "b2", "--format", "json"], None),
    (["export", "--infile", "{file}", "--out", "{file}.csv"], None),
    (["dist", "eval", "--dist", "pareto:alpha=3"], None),
], ids=[
    "classify-config-value", "classify-config-array", "functional-json", "export-missing",
    "dist-eval-no-grid",
])
def test_cli_usage_errors_found_after_parsing_print_the_subcommand_usage(
    tmp_path, capsys, argv, content
):
    # Refusals made after argparse has parsed the command line report with
    # the subcommand's parser, not with the top-level one.
    f = tmp_path / "in.json"
    if content is not None:
        f.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{file}", str(f)) for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: tailforge {argv[0]} ")


_BUILTIN_SPECS = [
    "pareto:alpha=3", "exponential:lam=1", "weibull_heavy:beta=0.5", "dyadic_pareto",
    "fkz_example", "plateau_example:a=2", "xu_piecewise:alpha=5.5,x1=4096",
]


@pytest.mark.parametrize("spec", _BUILTIN_SPECS)
def test_cli_classify_csv_reads_back_three_fields_a_row(tmp_path, capsys, spec):
    # Part of the workflow's smoke step: an OS detail such as "two-fold
    # ratio trend converging, limit ~ 2" holds a comma, and is quoted.
    saved = tmp_path / "report.json"
    assert main(["classify", "--dist", spec, "--out", str(saved)]) == 0
    assert main(["classify", "--dist", spec, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["class", "verdict", "detail"]
    assert all(len(r) == 3 for r in rows)
    details = {e["class"]: e["detail"] for e in json.loads(saved.read_text())["entries"]}
    assert {r[0]: r[2] for r in rows[1:]} == details


def test_cli_config_values_of_the_right_shape_run(tmp_path):
    cfgf = tmp_path / "cfg.json"
    # ints where floats are expected, a list for a tuple, null for an option
    cfgf.write_text('{"x_hi": 1000, "n_grid": 8, "t_list": [1], "K_list": null}')
    out = tmp_path / "report.json"
    assert main([*CLASSIFY, "--config", str(cfgf), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["label"] == "exponential(1)"


@pytest.mark.parametrize("argv", [
    ["dist", "eval", "--dist", "pareto:alpha=3", "--x", "1,abc"],
    ["dist", "eval", "--dist", "pareto:alpha=3", "--u", "geom:0.1:0.5"],
    ["conv", "--dist", "pareto:alpha=3", "--x", "lin:1:2:x"],
    ["functional", "--dist", "pareto:alpha=3", "--kind", "b2", "--x", "geom:0:10:3"],
    ["functional", "--dist", "pareto:alpha=3", "--kind", "ol", "--x", "geom:4:10:0"],
    ["conv", "--dist", "exponential:lam=1", "--x", "geom:4:10:0"],
    ["dist", "eval", "--dist", "pareto:alpha=3", "--u", "lin:0.1:0.5:0"],
])
def test_cli_bad_grid_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "bad grid" in err.splitlines()[-1]


def _result_objects():
    from tailforge.functionals import ClassEntry, ClassReport
    from tailforge.montecarlo import ComparisonRow, ComparisonTable, McEstimate

    exp1, pareto3 = tf.exponential(1.0), tf.pareto(3.0)
    series = tf.ratio_diagnostic(pareto3, "d", np.geomspace(4.0, 1e3, 6))
    rows = (
        ComparisonRow(2, 5.0, 1.0, 0.625, 0.01, 0.62, 0.63, 0.4, False),
        ComparisonRow(3, 1e3, 2.5, None, None, None, None, None, True, "LowAcceptanceError: none"),
    )
    report = ClassReport(
        "pareto(3)", (ClassEntry("OL", "evidence-for", "shift ratio stays bounded", (series,)),)
    )
    return {
        "DiagSeries": series,
        "BracketGrid": tf.convn_tail_grid(exp1, 2, 3.0, 0.5),
        "BracketGrid-cap": tf.trunc_convn_tail_grid(exp1, 2, 1.5, 3.0, 0.5),
        "McEstimate": McEstimate(0.625, 0.0125, 40, 64, 7),
        "ComparisonTable": ComparisonTable(rows, 3.5),
        "ClassReport": report,
    }


@pytest.mark.parametrize("name", list(_result_objects()))
def test_cli_export_round_trips_every_result_type(tmp_path, name):
    result = _result_objects()[name]
    saved = tmp_path / "saved.json"
    export_grid(result, "json", saved)
    for fmt in ("csv", "json"):
        direct, rebuilt = tmp_path / f"direct.{fmt}", tmp_path / f"rebuilt.{fmt}"
        export_grid(result, fmt, direct)
        assert main(["export", "--infile", str(saved), "--format", fmt, "--out", str(rebuilt)]) == 0
        assert rebuilt.read_bytes() == direct.read_bytes()


def test_class_report_json_carries_its_evidence():
    report = _result_objects()["ClassReport"]
    obj = result_to_obj(report)
    (series,) = result_from_obj(obj).entries[0].evidence
    (original,) = report.entries[0].evidence
    assert np.array_equal(series.log_values, original.log_values) and series.trend == original.trend
    del obj["entries"][0]["evidence"]  # as saved before reports carried their evidence
    assert result_from_obj(obj).entries[0].evidence == ()


def test_cli_export_refuses_unknown_and_malformed_results(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "Nonsense"}')
    assert main(["export", "--infile", str(bad), "--out", str(tmp_path / "o.csv")]) == 3
    bad.write_text('{"type": "McEstimate", "estimate": 0.5}')
    assert main(["export", "--infile", str(bad), "--out", str(tmp_path / "o.csv")]) == 3
    with pytest.raises(SystemExit) as exc:
        main(["export", "--infile", str(tmp_path / "none.json"), "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2


def test_builtin_spec_object():
    d = tf.builtin({"kind": "pareto", "alpha": 3.0})
    assert d.log_tail(1.0) == pytest.approx(-3 * math.log(2.0))


def test_cli_dist_show(capsys):
    assert main(["dist", "show", "--dist", "dyadic_pareto"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["atoms"] > 900
    assert doc["mean"] == pytest.approx(3.0, rel=1e-12)


def test_cli_functional_jump(tmp_path):
    out = tmp_path / "jump.csv"
    code = main([
        "functional", "--dist", "exponential:lam=1", "--kind", "jump",
        "--x", "9", "--K", "1", "--n", "2", "--h", "0.002", "--out", str(out),
    ])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    oracle = 1 - (6 * math.exp(-9) + math.exp(-16)) / (10 * math.exp(-9))
    assert float(row[3]) <= oracle <= float(row[4])


def test_cli_experiment_deterministic(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["experiment", "prop-1.3", "--out", str(d1)]) == 0
    assert main(["experiment", "prop-1.3", "--out", str(d2)]) == 0
    files1 = sorted(p.name for p in d1.iterdir())
    files2 = sorted(p.name for p in d2.iterdir())
    assert files1 == files2 and "summary.json" in files1
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
