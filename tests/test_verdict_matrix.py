"""The committed verdict matrix: every classify verdict of the builtins and
their tilts, at three x windows, so that a moved verdict shows as a diff of
``tests/data/verdicts.csv``.

The file has one row per (law, window, class): the verdict and its detail,
or, where classify raises, one row whose class is ``error`` and whose
verdict is the error's class.  After a deliberate verdict move, rewrite it
with

    PYTHONPATH=src python tests/test_verdict_matrix.py

and review the diff.
"""

import functools
import io
import pathlib

import numpy as np

import tailforge as tf
from tailforge.errors import TailforgeError
from tailforge.export import _write_csv

MATRIX = pathlib.Path(__file__).parent / "data" / "verdicts.csv"
HEADER = ["law", "window", "class", "verdict", "detail"]

BASES = (
    lambda: tf.pareto(3.0),
    lambda: tf.exponential(1.0),
    lambda: tf.weibull_heavy(0.5),
    tf.dyadic_pareto,
    tf.fkz_example,
    lambda: tf.plateau_example(2.0),
    lambda: tf.xu_piecewise(5.5, 4096.0),
)
GAMMAS = (0.3, 0.5, 1.0)
WINDOWS = (
    tf.ClassifyConfig(),
    tf.ClassifyConfig(x_hi=1e4, n_grid=20),
    tf.ClassifyConfig(x_hi=1e12, n_grid=56),
)


@functools.cache
def matrix_reports():
    """(label, window, report) per matrix law and window, laws in ``BASES``
    order, each untilted and then at each of ``GAMMAS``; the report is the
    error where classify raises.  Built once for every test here."""
    out = []
    for build in BASES:
        base = build()
        for d in [base] + [tf.gamma_transform(base, g) for g in GAMMAS]:
            for cfg in WINDOWS:
                window = f"x_hi={cfg.x_hi:g} n_grid={cfg.n_grid}"
                try:
                    out.append((d.label, window, tf.classify(d, cfg)))
                except TailforgeError as exc:
                    out.append((d.label, window, exc))
    return tuple(out)


def matrix_rows():
    for law, window, report in matrix_reports():
        if isinstance(report, TailforgeError):
            yield [law, window, "error", type(report).__name__, str(report)]
            continue
        for e in report.entries:
            yield [law, window, e.cls, e.verdict, e.detail]


def matrix_text() -> str:
    buf = io.StringIO()
    _write_csv(buf, HEADER, matrix_rows())
    return buf.getvalue()


def test_verdict_matrix_matches_the_committed_file():
    got = matrix_text().splitlines()
    want = MATRIX.read_text(encoding="utf-8").splitlines()
    moved = [f"{w!r} -> {g!r}" for w, g in zip(want, got) if w != g]
    assert not moved and len(got) == len(want), "\n".join(moved[:20]) or "row count differs"


def test_j_late_minima_never_fall_with_K():
    # J reads the largest usable K's late-half minimum alone: each larger
    # K's x set is a suffix of a smaller K's and each x's ratios never fall
    # with K, so no smaller K's minimum lies above it.
    pairs, falls = 0, []
    for law, window, report in matrix_reports():
        if isinstance(report, TailforgeError):
            continue
        profiles = report.entry("J").evidence
        late = [float(np.min(p.log_values[len(p.log_values) // 2 :])) for p in profiles]
        pairs += len(late) - 1
        falls += [(law, window, p.kind) for p, a, b in zip(profiles[1:], late, late[1:]) if b < a]
    assert (pairs, falls) == (541, [])


if __name__ == "__main__":
    MATRIX.parent.mkdir(exist_ok=True)
    MATRIX.write_text(matrix_text(), encoding="utf-8", newline="\n")
