"""Spec documents, export determinism, cache, and the CLI front end."""

import hashlib
import json
import math

import numpy as np
import pytest

import tailforge as tf
from tailforge.cli import main
from tailforge.errors import ParameterError
from tailforge.export import export_grid


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


def test_bracket_cache_roundtrip(tmp_path, exp1, monkeypatch):
    monkeypatch.setenv("TAILFORGE_CACHE_DIR", str(tmp_path / "cache"))
    from tailforge.cache import cached_convn_tail_grid

    a = cached_convn_tail_grid(exp1, 2, 3.0, 0.01)
    files = list((tmp_path / "cache").glob("bracket-*.json"))
    assert len(files) == 1
    doc = json.loads(files[0].read_text())
    assert doc["header"]["schema"] == "tailforge-bracket/2"
    b = cached_convn_tail_grid(exp1, 2, 3.0, 0.01)
    assert np.allclose(a.log_lower, b.log_lower, atol=1e-15, rtol=0)
    assert np.allclose(a.log_upper, b.log_upper, atol=1e-15, rtol=0)


def test_bracket_cache_corrupt_entry_is_a_miss(tmp_path, exp1, monkeypatch):
    monkeypatch.setenv("TAILFORGE_CACHE_DIR", str(tmp_path / "cache"))
    from tailforge.cache import cached_convn_tail_grid

    a = cached_convn_tail_grid(exp1, 2, 3.0, 0.01)
    (path,) = (tmp_path / "cache").glob("bracket-*.json")
    text = path.read_text()
    path.write_text(text[: len(text) // 2])  # a write cut short
    b = cached_convn_tail_grid(exp1, 2, 3.0, 0.01)
    assert np.array_equal(a.log_upper, b.log_upper)
    assert json.loads(path.read_text())["header"]["schema"] == "tailforge-bracket/2"
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [path.name]


def test_bracket_cache_ignores_old_schema(tmp_path, exp1, monkeypatch):
    # An entry under the schema-1 key, written by the old arithmetic, is
    # not served: the schema tag is part of the key.
    from tailforge.cache import cached_convn_tail_grid

    root = tmp_path / "cache"
    root.mkdir()
    monkeypatch.setenv("TAILFORGE_CACHE_DIR", str(root))
    req = {"spec": exp1.spec, "n": 2, "x_max": 3.0, "h": 0.5, "cap": None}
    old_key = hashlib.sha256(json.dumps(req, sort_keys=True).encode()).hexdigest()
    stale = {
        "header": {"schema": "tailforge-bracket/1", "n": 2, "h": 0.5, "cap": None},
        "grid": ["0", "0.5", "1", "1.5", "2", "2.5", "3"],
        "log_lower": ["-1"] * 7,
        "log_upper": ["-1"] * 7,
    }
    (root / f"bracket-{old_key}.json").write_text(json.dumps(stale))
    got = cached_convn_tail_grid(exp1, 2, 3.0, 0.5)
    assert np.array_equal(got.log_upper, tf.convn_tail_grid(exp1, 2, 3.0, 0.5).log_upper)
    assert len(list(root.glob("bracket-*.json"))) == 2


# ----------------------------------------------------------------------- CLI


def test_cli_dist_eval(tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = main(["dist", "eval", "--dist", "exponential:lam=1", "--x", "1,2,10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,log_tail,tail"
    assert lines[3].startswith("10,-10,")


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


def test_cli_classify(tmp_path):
    out = tmp_path / "report.json"
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"x_hi": 1e4, "n_grid": 14, "j_n_grid": 6}))
    code = main([
        "classify", "--dist", "exponential:lam=1", "--config", str(cfgf),
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    verd = {e["class"]: e["verdict"] for e in doc["entries"]}
    assert verd["J"] == "evidence-against"
    assert doc["disclaimer"] == "numerical evidence, not proof"


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


CLASSIFY = ["classify", "--dist", "exponential:lam=1"]
EXPERIMENT = ["experiment", "prop-1.3"]
# (case, command, config file content or None for a missing file)
CONFIG_ERRORS = [
    ("classify-unknown-key", CLASSIFY, '{"x_hi": 1e4, "n_gird": 9}'),
    ("classify-malformed", CLASSIFY, '{"x_hi": 1e4,'),
    ("classify-not-object", CLASSIFY, "[1, 2]"),
    ("classify-missing", CLASSIFY, None),
    ("experiment-unknown-key", EXPERIMENT, '{"gama": 0.5}'),
    ("experiment-malformed", EXPERIMENT, "{gamma: 0.5}"),
    ("experiment-missing", EXPERIMENT, None),
    # settings that were removed are unknown keys
    ("classify-removed-use-jump", CLASSIFY, '{"use_jump": true}'),
    ("classify-removed-jump-h", CLASSIFY, '{"jump_h": 0.05}'),
    # values of the wrong type or shape
    ("classify-nested-trend", CLASSIFY, '{"trend": {"converge_band": 0.05}}'),
    ("classify-float-for-int", CLASSIFY, '{"n_grid": 8.5}'),
    ("classify-string-in-list", CLASSIFY, '{"t_list": [1.0, "2"]}'),
    ("classify-nan", CLASSIFY, '{"x_hi": NaN}'),
    ("classify-bool-for-number", CLASSIFY, '{"x_lo": true}'),
    ("experiment-string-gamma", EXPERIMENT, '{"gamma": "0.5"}'),
    ("experiment-scalar-for-list", EXPERIMENT, '{"K_list": 64.0}'),
    ("experiment-empty-list", EXPERIMENT, '{"m_grid": []}'),
    # values of the right type but out of range
    ("classify-zero-rel-tol", CLASSIFY, '{"rel_tol": 0}'),
    ("classify-negative-n-grid", CLASSIFY, '{"n_grid": -3}'),
    ("classify-one-point-j-grid", CLASSIFY, '{"j_n_grid": 1}'),
    ("classify-zero-x-lo", CLASSIFY, '{"x_lo": 0}'),
    ("classify-window-reversed", CLASSIFY, '{"x_lo": 1e4, "x_hi": 100}'),
    ("classify-zero-j-x-lo", CLASSIFY, '{"j_x_lo": 0}'),
    ("classify-negative-t", CLASSIFY, '{"t_list": [1.0, -2.0]}'),
    ("classify-zero-gamma", CLASSIFY, '{"gamma_grid": [0.5, 0]}'),
    ("classify-negative-K", CLASSIFY, '{"K_list": [-2.0]}'),
    ("classify-level-one", CLASSIFY, '{"K_levels": [0.3, 1.0]}'),
    ("classify-j-band-reversed", CLASSIFY, '{"j_lo": 0.9, "j_hi": 0.5}'),
    ("classify-j-hi-above-one", CLASSIFY, '{"j_hi": 1.5}'),
    ("classify-zero-j-lo", CLASSIFY, '{"j_lo": 0}'),
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


def test_cli_config_values_of_the_right_shape_run(tmp_path):
    cfgf = tmp_path / "cfg.json"
    # ints where floats are expected, a list for a tuple, null for an option
    cfgf.write_text('{"x_hi": 1000, "n_grid": 8, "t_list": [1], "K_list": null, "j_n_grid": 4}')
    out = tmp_path / "report.json"
    assert main([*CLASSIFY, "--config", str(cfgf), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["label"] == "exponential(1)"


@pytest.mark.parametrize("argv", [
    ["dist", "eval", "--dist", "pareto:alpha=3", "--x", "1,abc"],
    ["dist", "eval", "--dist", "pareto:alpha=3", "--u", "geom:0.1:0.5"],
    ["conv", "--dist", "pareto:alpha=3", "--x", "lin:1:2:x"],
    ["functional", "--dist", "pareto:alpha=3", "--kind", "b2", "--x", "geom:0:10:3"],
])
def test_cli_bad_grid_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "bad grid" in err.splitlines()[-1]


def _result_objects():
    from tailforge.functionals import ClassEntry, ClassReport, DiagSeries
    from tailforge.montecarlo import ComparisonRow, ComparisonTable, McEstimate

    exp1, pareto3 = tf.exponential(1.0), tf.pareto(3.0)
    series = tf.ratio_diagnostic(pareto3, "d", np.geomspace(4.0, 1e3, 6))
    windowed = DiagSeries.build(
        "ol", "x", [1.0, 2.0, 3.0], [0.1, -math.inf, 0.3], windows=("W1", "W2", "W5")
    )
    rows = (
        ComparisonRow(2, 5.0, 1.0, 0.625, 0.01, 0.62, 0.63, 0.4, False),
        ComparisonRow(3, 1e3, 2.5, None, None, None, None, None, True, "LowAcceptanceError: none"),
    )
    report = ClassReport(
        "pareto(3)", (ClassEntry("OL", "evidence-for", "shift ratio stays bounded", (series,)),)
    )
    return {
        "DiagSeries": series,
        "DiagSeries-windows": windowed,
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
    d = tf.builtin(tf.BuiltinSpec("pareto", {"alpha": 3.0}))
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
