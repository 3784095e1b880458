"""Pinned console outputs, each run in process through ``cli.main``: the
workflow smoke step's value and bit pins, with each value or bound as the
step states it (an awk bound becomes the same bound here, a ``diff`` or
``grep`` pin the same string)."""

import csv
import io
import re

import pytest

from tailforge.cli import main


def _run(capsys, argv) -> str:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def _rows(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))


def _near(v: float, t: float) -> bool:
    return t - 1e-12 * t <= v <= t + 1e-12 * t


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    """The tilted spec files the smoke step writes with ``transform``."""
    root = tmp_path_factory.mktemp("specs")
    made = {}
    for name, dist, gamma in [
        ("t05", "pareto:alpha=3", "0.5"),
        ("dy05", "dyadic_pareto", "0.5"),
        ("xu2g1", "xu_piecewise:alpha=5.5,x1=4096,m=2", "1"),
        ("xu05", "xu_piecewise:alpha=5.5,x1=4096", "0.5"),
    ]:
        made[name] = str(root / f"{name}.json")
        assert main(["transform", "--dist", dist, "--gamma", gamma, "--out", made[name]]) == 0
    return made


@pytest.mark.parametrize("dist, n, x, K, h, lower, upper", [
    ("pareto:alpha=3", "3", "20", "5", "0.0078125", 0.98813714691752197, 0.98833038449050248),
    ("dyadic_pareto", "3", "24", "4", "0.125", 0.7655780898171205, 0.76557808981760533),
], ids=["pareto-n3", "dyadic-n3"])
def test_cli_jump_bracket_ends_pinned(capsys, dist, n, x, K, h, lower, upper):
    argv = ["functional", "--dist", dist, "--kind", "jump", "--n", n, "--x", x, "--K", K, "--h", h]
    row = [float(v) for v in _rows(_run(capsys, argv))[1]]
    assert row[:3] == [float(x), float(K), float(n)]
    assert _near(row[3], lower) and _near(row[4], upper)


@pytest.mark.parametrize("argv, head, value", [
    (["functional", "--dist", "dyadic_pareto", "--kind", "jump", "--n", "4", "--x", "24",
      "--K", "4", "--h", "0.125"], {"x": 24, "K": 4, "n": 4}, 0.5788702024258787),
    (["functional", "--dist", "exponential:lam=1", "--kind", "jump", "--n", "2", "--x", "20",
      "--K", "5", "--h", "0.0078125"], {"x": 20, "K": 5, "n": 2}, 0.5714264095271542),
    # log P(S_3 > 24) = log(0.015247344970703125), enumerated over the atoms
    (["conv", "--dist", "dyadic_pareto", "--n", "3", "--x", "24", "--h", "0.125"],
     {"x": 24}, -4.183349891367692),
], ids=["dyadic-jump-n4", "exponential-jump-n2", "dyadic-conv-n3"])
def test_cli_bracket_holds_the_exact_value(capsys, argv, head, value):
    row = next(csv.DictReader(io.StringIO(_run(capsys, argv))))
    assert {k: float(row[k]) for k in head} == head
    assert float(row["lower"]) <= value <= float(row["upper"])


def test_cli_weibull_os_within_bands(capsys):
    argv = ["functional", "--dist", "weibull_heavy:beta=0.5", "--kind", "os",
            "--x", "250000,1000000"]
    rows = _rows(_run(capsys, argv))
    assert 2.00396 <= float(rows[1][1]) <= 2.00409
    assert 2.00192 <= float(rows[2][1]) <= 2.00210


def test_cli_plateau_os_reads_log_4_at_two_atoms(capsys):
    # at two atoms, where x - y rounds onto the atom: the log ratio is log 4
    # to 1e-8
    argv = ["functional", "--dist", "plateau_example:a=2", "--kind", "os",
            "--x", "466104.3558412708,933547.6725950747"]
    rows = _rows(_run(capsys, argv))[1:]
    assert len(rows) == 2
    assert all(abs(float(r[2]) - 1.3862943611189849) <= 1e-8 for r in rows)


@pytest.mark.parametrize("name, xs, logs", [
    # 1000 flat segments and a rate: the tilted density is read a panel at a time
    ("dy05", "100,1000,100000",
     "log_value\n1.6090472111202807\n1.6087357616870737\n1.6094375969019623\n"),
    ("xu2g1", "5000,20000,1000000",
     "log_value\n95.665333904625598\n8.0089021774056022\n7.9154847242732274\n"),
], ids=["dy05", "xu2g1"])
def test_cli_tilted_os_bits_pinned(capsys, specs, name, xs, logs):
    out = _run(capsys, ["functional", "--dist", specs[name], "--kind", "os", "--x", xs])
    assert "".join(r[2] + "\n" for r in _rows(out)) == logs


@pytest.mark.parametrize("name, us, want", [
    ("t05", "0.5,0.1,1e-6",
     "u,quantile\n0.5,0.21547663059300248\n0.10000000000000001,0.86514319716661703\n"
     "9.9999999999999995e-07,12.165446752507705\n"),
    ("xu_piecewise:alpha=5.5,x1=4096,m=2", "0.5,1e-20,1e-42,1e-45,1e-50,1e-55,1e-60,1e-100",
     "u,quantile\n0.5,1199.6906242599039\n9.9999999999999995e-21,4095.9999995904\n"
     "1e-42,7890.6949843014954\n9.9999999999999998e-46,8183.4405125009525\n"
     "1e-50,36608.438201024648\n9.9999999999999999e-56,37168.376483643886\n"
     "9.9999999999999997e-61,221397.53930815298\n1e-100,425682612.91751325\n"),
    # a tilted law bisected over flats and atoms
    ("dy05", "0.5,0.1,1e-6,1e-30",
     "u,quantile\n0.5,1.3862943611202354\n0.10000000000000001,2\n"
     "9.9999999999999995e-07,16.540666226981557\n1.0000000000000001e-30,121.51957324624527\n"),
], ids=["t05", "xu-m2", "dy05"])
def test_cli_quantiles_pinned(capsys, specs, name, us, want):
    assert _run(capsys, ["dist", "eval", "--dist", specs.get(name, name), "--u", us]) == want


def test_cli_dy05_atoms_and_mean_pinned(capsys, specs):
    # its 998 atoms are its base's, each scaled by e^{-gamma s}
    out = _run(capsys, ["dist", "show", "--dist", specs["dy05"]])
    assert '"atoms": 998,' in out
    assert '"mean": 1.3957051528185604' in out


def test_cli_xu05_mean_pinned(capsys, specs):
    # the mean of a many-segment tilt, 2 - 1/1024, from one quadrature
    out = _run(capsys, ["dist", "show", "--dist", specs["xu05"]])
    assert re.search(r'"mean": 1\.99902', out)
