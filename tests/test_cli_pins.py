"""Every pinned console output.  A row is one command line, run in process
through ``cli.main``, and what it must give, with the value or bound the pin
states: a str is all of stdout; a callable tests stdout; a list holds one
more command line whose output (its ``--out`` file, else stdout) must match
the row's byte for byte; a tuple is the exit code and a pattern of stderr,
and a refused command writes no ``--out``.  The other rows succeed with
nothing on stderr.  A row of several command lines runs them in order and
checks the last; ``{name}`` is a file of ``files``.  ``test_simd_dispatch.py``
runs this table again under numpy's lower SIMD dispatch levels.
"""

import csv
import io
import re
from pathlib import Path

import pytest

from tailforge.cli import main

# Written once per module: spec files by ``transform``, and config files.
TILTS = [("t03", "pareto:alpha=3", "0.3"), ("t0302", "{t03}", "0.2"),
         ("t05", "pareto:alpha=3", "0.5"), ("dy05", "dyadic_pareto", "0.5"),
         ("xu2g1", "xu_piecewise:alpha=5.5,x1=4096,m=2", "1"),
         ("xu05", "xu_piecewise:alpha=5.5,x1=4096", "0.5")]
CONFIGS = {"wide": '{"x_hi": 1e12, "n_grid": 56}', "gamma_grid": '{"gamma_grid": [0.5]}',
           "j_n_grid": '{"j_n_grid": 10}', "l_tol": '{"l_tol": 0.05}',
           "t_beyond": '{"t_list": [1.0, 8.0]}', "exp_config": "{}",
           "alpha_true": '{"kind": "pareto", "alpha": true}'}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    made = {"tmp": str(root)}
    for name, text in CONFIGS.items():
        made[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(text)
    for name, dist, gamma in TILTS:
        made[name] = str(root / f"{name}.json")
        assert main(["transform", "--dist", dist.format(**made), "--gamma", gamma,
                     "--out", made[name]]) == 0
    return made


def _line(out: str, n: int) -> str:
    """Line n, from 1 (``sed -n {n}p``)."""
    return out.splitlines()[n - 1]


def _field(out: str, n: int, f: int) -> float:
    """Field f of line n, both from 1 (awk's ``$f`` where ``NR == n``)."""
    return float(_line(out, n).split(",")[f - 1])


def _cut(out: str, f: int) -> str:
    """Field f of every line (``cut -d, -f{f}``)."""
    return "".join(r.split(",")[f - 1] + "\n" for r in out.splitlines())


def _bracket(head, value=None, ends=None):
    """Line 2 reads head, then lower <= value <= upper, or, given the ends,
    a lower and an upper each within 1e-12 relative of its end."""
    def test(out):
        *row, lower, upper = [float(v) for v in _line(out, 2).split(",")[: len(head) + 2]]
        if ends is not None:  # awk's near(v, t)
            return row == list(head) and all(t - 1e-12 * t <= v <= t + 1e-12 * t
                                             for v, t in zip((lower, upper), ends))
        return row == list(head) and lower <= value <= upper
    return test


_CONFIG = "classify --dist exponential:lam=1 --config"
_SIM = "--samples 200000 --seed 11 --format csv"
_GRIDS = ["--dist dyadic_pareto --n 3 --x 24 --h 0.125",
          "--dist pareto:alpha=3 --n 2 --x 10 --h 0.01 --cap 6"]
_XU = "dist eval --dist xu_piecewise:alpha=5.5,x1=4096,m=2"

PINS = [
    ("versio", "--versio", (2, "unrecognized arguments: --versio")),
    ("d-header", "functional --dist pareto:alpha=3 --kind d --x 4,8",
     lambda o: _line(o, 1) == "x,value,log_value"),
    ("b2-json", "functional --dist pareto:alpha=3 --kind b2 --x 10 --K 2 --format json", (2, "")),
    ("dyadic-u", "dist eval --dist dyadic_pareto --u 0.25,0.1",
     "u,quantile\n0.25,2\n0.10000000000000001,4\n"),
    ("ol-empty-grid", "functional --dist pareto:alpha=3 --kind ol --x geom:4:10:0", (2, "")),
    ("weibull-os", "functional --dist weibull_heavy:beta=0.5 --kind os --x 250000,1000000",
     lambda o: 2.00396 <= _field(o, 2, 2) <= 2.00409 and 2.00192 <= _field(o, 3, 2) <= 2.00210),
    ("prop-1.3", "experiment prop-1.3 --out {tmp}/p13", (0, "")),
    ("thm-1.1", "experiment thm-1.1 --out {tmp}/t11", (0, "")),
    ("plateau-os-28", "functional --dist plateau_example:a=2 --kind os --x geom:4:1e6:28",
     lambda o: len(o.splitlines()) == 29
     and _line(o, 2) == "4,1.7568832655507463,0.56354136735673988"),
    # at two atoms, where x - y rounds onto the atom: the log ratio is log 4 to 1e-8
    ("plateau-os-atoms",
     "functional --dist plateau_example:a=2 --kind os --x 466104.3558412708,933547.6725950747",
     lambda o: [abs(float(v) - 1.3862943611189849) <= 1e-8 for v in _cut(o, 3).split()[1:]]
     == [True] * 2),
    ("pareto-jump-n3",
     "functional --dist pareto:alpha=3 --kind jump --n 3 --x 20 --K 5 --h 0.0078125",
     _bracket((20, 5, 3), ends=(0.98813714691752197, 0.98833038449050248))),
    ("dyadic-jump-n3", "functional --dist dyadic_pareto --kind jump --n 3 --x 24 --K 4 --h 0.125",
     _bracket((24, 4, 3), ends=(0.7655780898171205, 0.76557808981760533))),
    ("dyadic-jump-n4", "functional --dist dyadic_pareto --kind jump --n 4 --x 24 --K 4 --h 0.125",
     _bracket((24, 4, 4), 0.5788702024258787)),
    # log P(S_3 > 24) = log(0.015247344970703125), enumerated over dyadic_pareto's atoms
    ("dyadic-conv-n3", "conv --dist dyadic_pareto --n 3 --x 24 --h 0.125",
     _bracket((24,), -4.183349891367692)),
    # a grid kept as JSON re-exports to the bytes conv writes as CSV
    *[(f"conv-json-reexport-{i}",
       (f"conv {a} --format json --out {{tmp}}/g{i}.json",
        f"export --infile {{tmp}}/g{i}.json --format csv --out {{tmp}}/g{i}.csv"),
       [f"conv {a} --format csv --out {{tmp}}/c{i}.csv"]) for i, a in enumerate(_GRIDS)],
    # 20 001 cells, 157 tiles of the dense kernel: log P(S_3 > 20) = log(221) - 20
    ("erlang-conv-n3", "conv --dist exponential:lam=1 --n 3 --x 20 --h 0.001",
     _bracket((20,), -14.601837298482248)),
    # a capped upper bound is at most (1 - e^{-1e-300})^2, not the union bound's 0.643
    ("capped-conv", "conv --dist exponential:lam=1 --n 2 --x 0.1 --h 0.1 --cap 1e-300",
     lambda o: _field(o, 2, 3) <= 0),
    # a low cap, in cell 768 of 2562: 0.9991217091227599 by inclusion-exclusion past the cap
    ("exp-jump-low-cap",
     "functional --dist exponential:lam=1 --kind jump --n 4 --x 5 --K 3.5 --h 0.001953125",
     _bracket((5, 3.5, 4), 0.9991217091227599)),
    ("exp-jump-n2",
     "functional --dist exponential:lam=1 --kind jump --n 2 --x 20 --K 5 --h 0.0078125",
     _bracket((20, 5, 2), 0.5714264095271542)),
    # quantiles of a tilted law (bisected) and across segments of a power law
    ("t05-u", "dist eval --dist {t05} --u 0.5,0.1,1e-6", "u,quantile\n0.5,0.21547663059300248\n"
     "0.10000000000000001,0.86514319716661703\n9.9999999999999995e-07,12.165446752507705\n"),
    ("xu-m2-u", f"{_XU} --u 0.5,1e-20,1e-42,1e-45,1e-50,1e-55,1e-60,1e-100",
     "u,quantile\n0.5,1199.6906242599039\n9.9999999999999995e-21,4095.9999995904\n"
     "1e-42,7890.6949843014954\n9.9999999999999998e-46,8183.4405125009525\n"
     "1e-50,36608.438201024648\n9.9999999999999999e-56,37168.376483643886\n"
     "9.9999999999999997e-61,221397.53930815298\n1e-100,425682612.91751325\n"),
    # a tilted law bisected over flats and atoms; its 998 atoms are its base's
    ("dy05-u", "dist eval --dist {dy05} --u 0.5,0.1,1e-6,1e-30",
     "u,quantile\n0.5,1.3862943611202354\n0.10000000000000001,2\n"
     "9.9999999999999995e-07,16.540666226981557\n1.0000000000000001e-30,121.51957324624527\n"),
    ("dy05-show", "dist show --dist {dy05}",
     lambda o: '"atoms": 998,' in o and '"mean": 1.3957051528185604' in o),
    # its two-fold ratio, bit for bit: the tilted density is read a panel at a time
    ("dy05-os", "functional --dist {dy05} --kind os --x 100,1000,100000", lambda o: _cut(o, 3)
     == "log_value\n1.6090472111202807\n1.6087357616870737\n1.6094375969019623\n"),
    # log tails of the power law (m = 2) and the two-fold ratio of its unit tilt, bit for bit
    ("xu-m2-x", f"{_XU} --x 5000,20000,1000000,1e15", lambda o: _cut(o, 2)
     == "log_tail\n-91.994015969826492\n-108.28938665825949\n-151.21380552973977\n"
     "-411.48631532432722\n"),
    ("xu2g1-os", "functional --dist {xu2g1} --kind os --x 5000,20000,1000000", lambda o: _cut(o, 3)
     == "log_value\n95.665333904625598\n8.0089021774056022\n7.9154847242732274\n"),
    # the mean of a many-segment tilt, 2 - 1/1024, from one quadrature
    ("xu05-show", "dist show --dist {xu05}", lambda o: re.search(r'"mean": 1\.99902', o)),
    ("tilt-of-tilt", "dist eval --dist {t0302} --x geom:1:1e6:50",
     ["dist eval --dist {t05} --x geom:1:1e6:50"]),
    ("classify-exp-1.5", "classify --dist exponential:lam=1.5 --format csv", lambda o:
     "L(gamma),evidence-for,tilted shift ratio settles at 1 for gamma=1.5" in o.splitlines()),
    # a detail that holds a comma is quoted: every row reads back as 3 fields
    ("classify-csv-fields", "classify --dist pareto:alpha=3 --format csv",
     lambda o: [len(r) for r in csv.reader(io.StringIO(o))] == [3] * 10),
    ("eval-no-grid", "dist eval --dist pareto:alpha=3", (2, "")),
    ("sample", "dist sample --dist pareto:alpha=3 --n 3 --seed 3",
     "sample\n0.030296865104996851\n0.09426507674621587\n0.71362362857553352\n"),
    ("classify-t05-wide", "classify --dist {t05} --config {wide} --format csv",
     lambda o: any(r.startswith("S(gamma),evidence-for,") for r in o.splitlines())),
    ("config-gamma_grid", f"{_CONFIG} {{gamma_grid}}", (2, "")),
    ("config-j_n_grid", f"{_CONFIG} {{j_n_grid}}", (2, "")),
    ("config-l_tol", f"{_CONFIG} {{l_tol}}", (2, "")),
    ("config-t_beyond", f"{_CONFIG} {{t_beyond}}", (2, "^usage: tailforge classify ")),
    # experiment takes no --config
    ("experiment-config", "experiment prop-1.3 --config {exp_config} --out {tmp}/p13b", (2, "")),
    # refusals: an x past the truncation, and builtin parameters that are no finite number
    ("fkz-truncation", "functional --dist fkz_example --kind os --x 10,1e40",
     (3, "^tailforge: TruncationError: ")),
    ("alpha-inf", "dist show --dist pareto:alpha=inf", (3, "^tailforge: ParameterError: ")),
    ("alpha-true", "dist show --dist {alpha_true}", (3, "^tailforge: ParameterError: ")),
    ("simulate-exp", f"simulate --dist exponential:lam=1 --n 2 --x 5 --K 1 {_SIM}",
     lambda o: _line(o, 2) == "0.65292437600894082,0.0053047466639830803,8053,200000,11"),
    ("simulate-pareto", f"simulate --dist pareto:alpha=3 --n 2 --x 10 --K 2 {_SIM}",
     lambda o: _line(o, 2) == "0.97435897435897434,0.0084367199451764914,351,200000,11"),
    ("simulate-dyadic", f"simulate --dist dyadic_pareto --n 3 --x 12 --K 2 {_SIM}",
     lambda o: _line(o, 2) == "0.4724597129384942,0.003593708141107143,19299,200000,11"),
]


def _run(capsys, files, line):
    """(exit code, stdout, stderr, the --out path or None) of one command line."""
    argv = line.format(**files).split()
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, argv[argv.index("--out") + 1] if "--out" in argv else None


def _output(capsys, files, line) -> bytes:
    """What a command line that succeeds writes: its --out file, else stdout."""
    code, out, err, dest = _run(capsys, files, line)
    assert (code, err) == (0, ""), err
    return out.encode() if dest is None else Path(dest).read_bytes()


@pytest.mark.parametrize("line, want", [p[1:] for p in PINS], ids=[p[0] for p in PINS])
def test_pin(capsys, files, line, want):
    *before, line = line if isinstance(line, tuple) else (line,)
    for step in before:
        _output(capsys, files, step)
    if isinstance(want, list):
        assert _output(capsys, files, line) == _output(capsys, files, *want)
        return
    code, out, err, dest = _run(capsys, files, line)
    if isinstance(want, tuple):
        assert code == want[0] and re.search(want[1], err), (code, err)
        assert code == 0 or dest is None or not Path(dest).exists()
        return
    assert (code, err) == (0, ""), err
    assert out == want if isinstance(want, str) else want(out), out
