"""The committed calibration file: for laws whose classes theory settles,
each settled class's expected verdict and its source beside what
``classify`` reads at the default window, so that a rule change shows as a
diff of ``tests/data/calibration.csv`` and its error rate can be counted.

The file has one row per (law, class).  It records the verdicts as they
are, wrong ones included: a row whose verdict is the opposite of the
expected one, or "inconclusive", is a measured error of the rules, not of
the file.  After a deliberate verdict move, rewrite it with

    PYTHONPATH=src python tests/test_calibration.py

and review the diff.
"""

import io
import pathlib

import tailforge as tf
from tailforge.export import _write_csv

CALIBRATION = pathlib.Path(__file__).parent / "data" / "calibration.csv"
HEADER = ["law", "class", "expected", "source", "verdict", "detail"]
FOR, AGAINST = "evidence-for", "evidence-against"
GAMMAS = (0.1, 0.5, 2.0)

_NO_RATE = "heavy tail: F(x - t)/F(x) -> 1, so no rate gamma > 0"
_S_IN_OS = "S lies in OS: F2bar(x)/F(x) -> 2"
# Any tilt G = F e^{-gamma x} has G(x-t)/G(x) >= e^{gamma t} and
# G(x/2)/G(x) >= e^{gamma x/2}.
_TILT = {
    "L": (AGAINST, "a tilt: G(x - t)/G(x) >= e^{gamma t}"),
    "D": (AGAINST, "a tilt: G(x/2)/G(x) >= e^{gamma x/2}"),
    "L(gamma)": (FOR, "a tilt of an L law: G(x - t)/G(x) -> e^{gamma t}"),
}


def settled():
    """(law, {class: (expected verdict, source)}) for each calibration law:
    pareto, heavy Weibull and exponential laws over their parameters, and
    the tilts of pareto and Weibull laws at each of ``GAMMAS``."""
    for a in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0):
        yield tf.pareto(a), {
            "L": (FOR, "regular variation: F(x - t)/F(x) -> 1"),
            "D": (FOR, "regular variation: F(x/2)/F(x) -> 2^alpha"),
            "OS": (FOR, _S_IN_OS),
            "S": (FOR, "regularly varying tails are subexponential"),
            "J": (FOR, "S lies in J (Beck, Blath and Scheutzow 2013)"),
            "L(gamma)": (AGAINST, _NO_RATE),
        }
    for b in (0.1, 0.25, 0.5, 0.75, 0.9):
        yield tf.weibull_heavy(b), {
            "L": (FOR, "F(x - t)/F(x) = exp(x^beta - (x - t)^beta) -> 1"),
            "D": (AGAINST, "F(x/2)/F(x) = exp((1 - 2^-beta) x^beta) -> inf"),
            "OS": (FOR, _S_IN_OS),
            "S": (FOR, "Weibull with beta < 1 is subexponential (Pitman 1980)"),
            "L(gamma)": (AGAINST, _NO_RATE),
        }
    for lam in (0.1, 0.5, 2.0, 10.0):
        yield tf.exponential(lam), {
            "L": (AGAINST, "F(x - t)/F(x) = e^{lam t}"),
            "D": (AGAINST, "F(x/2)/F(x) = e^{lam x/2}"),
            "OS": (AGAINST, "F2bar(x)/F(x) = 1 + lam x"),
            "S": (AGAINST, "F2bar(x)/F(x) = 1 + lam x"),
            "J": (AGAINST, "given S2 = s, X1 is uniform on [0, s], so b2 -> 0"),
            "L(gamma)": (FOR, "F(x - t)/F(x) = e^{lam t}: gamma = lam"),
            "S(gamma)": (AGAINST, "m(lam) = E e^{lam X} is infinite"),
        }
    for a in (0.5, 1.0, 2.0, 3.0, 10.0):
        sg = (
            (FOR, "finite mean and regularly varying: S* (Kluppelberg 1988), tilt in S(gamma)")
            if a > 1
            else (AGAINST, "alpha <= 1: g*g/g ~ x^(1 - alpha) (log x at 1) is unbounded")
        )
        for g in GAMMAS:
            yield tf.gamma_transform(tf.pareto(a), g), {**_TILT, "S(gamma)": sg}
    for b in (0.25, 0.5, 0.75):
        sg = (FOR, "Weibull with beta < 1 is in S* (Kluppelberg 1988), tilt in S(gamma)")
        for g in GAMMAS:
            yield tf.gamma_transform(tf.weibull_heavy(b), g), {**_TILT, "S(gamma)": sg}


def calibration_rows():
    for d, classes in settled():
        report = tf.classify(d)
        for cls, (want, source) in classes.items():
            e = report.entry(cls)
            yield [d.label, cls, want, source, e.verdict, e.detail]


def calibration_text() -> str:
    buf = io.StringIO()
    _write_csv(buf, HEADER, calibration_rows())
    return buf.getvalue()


def test_calibration_matches_the_committed_file():
    got = calibration_text().splitlines()
    want = CALIBRATION.read_text(encoding="utf-8").splitlines()
    moved = [f"{w!r} -> {g!r}" for w, g in zip(want, got) if w != g]
    assert not moved and len(got) == len(want), "\n".join(moved[:20]) or "row count differs"


if __name__ == "__main__":
    CALIBRATION.write_text(calibration_text(), encoding="utf-8", newline="\n")
