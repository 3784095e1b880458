"""tailforge command-line front end.

Exit codes: 0 success, 1 experiment expectation failure, 2 usage error
(argparse), 3 numerical error (tolerance, truncation, divergence, guards).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .convolve import convn_tail_grid, trunc_convn_tail_grid
from .distribution import quantile_from_tail, sample
from .errors import ParameterError, TailforgeError
from .experiments import EXPERIMENT_IDS, run_experiment
from .export import _dest_stream, _write_csv, _write_json, export_grid, result_from_obj
from .functionals import (
    ClassifyConfig,
    b2_cond,
    classify,
    jump_cond,
    ratio_diagnostic,
    t_ratio,
)
from .montecarlo import mc_jump_cond
from .quadrature import QuadConfig
from .specio import dump_spec, resolve_dist
from .transform import gamma_transform

__all__ = ["main"]


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax: comma list '1,2,5' or 'geom:lo:hi:n' or 'lin:lo:hi:n'.

    An argparse ``type``: bad syntax is a usage error (exit 2).
    """
    try:
        if text.startswith("geom:") or text.startswith("lin:"):
            kind, lo, hi, n = text.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
            if n < 1:
                raise ValueError("a grid needs at least one point")
            return np.geomspace(lo, hi, n) if kind == "geom" else np.linspace(lo, hi, n)
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r} ({exc}); use '1,2,5', 'geom:lo:hi:n' or 'lin:lo:hi:n'"
        ) from None


def _load_json(parser: argparse.ArgumentParser, path: str, what: str):
    """Parse a JSON file, or refuse it as a usage error (exit 2)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read {what} {path}: {exc}")


def _load_overrides(parser: argparse.ArgumentParser, path: str, names: set) -> dict:
    """Config overrides from a JSON object whose keys all name settings in
    ``names``; the config class checks their values."""
    overrides = _load_json(parser, path, "config")
    if not isinstance(overrides, dict):
        parser.error(f"config {path} must hold a JSON object")
    unknown = sorted(set(overrides) - names)
    if unknown:
        parser.error(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    return overrides


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that names an unrecognised option before a missing
    required argument.  argparse checks a subcommand's required arguments
    inside that subcommand's parse, before the top parser sees what is left
    over, so ``classify --dis x`` would read as a missing ``--dist``.  On
    that error the subcommand parses its arguments again with nothing
    required, and names what it does not recognise, if anything.  No help
    action ran in the first parse, which would have exited before the
    check."""

    _args = None

    def parse_known_args(self, args=None, namespace=None):
        self._args = args
        return super().parse_known_args(args, namespace)

    def error(self, message):
        if message.startswith("the following arguments are required") and self._args:
            required = [a for a in self._actions if a.required]
            for a in required:
                a.required = False
            extras = super().parse_known_args(self._args)[1]
            for a in required:
                a.required = True
            if extras:
                message = f"unrecognized arguments: {' '.join(extras)}"
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    """The parser; a subcommand that refuses its input after parsing holds
    itself as ``parser``, so its usage heads the error."""
    p = _Parser(
        prog="tailforge",
        description="numerical analysis of distribution tails on [0, inf)",
        allow_abbrev=False,
    )
    p.add_argument("--version", action="version", version=f"tailforge {__version__}")
    # Subcommands are checked in main, after argparse has named any
    # unrecognised option: it reports a missing subcommand first.
    sub = p.add_subparsers(dest="command")

    dist = sub.add_parser(
        "dist", help="inspect, evaluate, or sample a distribution", allow_abbrev=False
    )
    dist.set_defaults(parser=dist)
    dist_sub = dist.add_subparsers(dest="dist_command")
    show = dist_sub.add_parser("show", help="print the spec and basic facts", allow_abbrev=False)
    show.add_argument("--dist", required=True, help="spec file or inline kind:param=value")
    show.add_argument("--out", default=None, help="write the spec document here")
    ev = dist_sub.add_parser("eval", help="evaluate log-tail / tail / quantile", allow_abbrev=False)
    ev.add_argument("--dist", required=True)
    ev.add_argument(
        "--x", type=_parse_grid, default=None, help="grid of x values (list or geom:lo:hi:n)"
    )
    ev.add_argument("--u", type=_parse_grid, default=None, help="grid of quantile levels")
    ev.add_argument("--out", default=None)
    ev.set_defaults(parser=ev)
    smp = dist_sub.add_parser("sample", help="inverse-transform sampling", allow_abbrev=False)
    smp.add_argument("--dist", required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--out", default=None)

    tr = sub.add_parser("transform", help="apply the exponential tail tilt", allow_abbrev=False)
    tr.add_argument("--dist", required=True)
    tr.add_argument("--gamma", type=float, required=True)
    tr.add_argument("--out", required=True, help="spec file to write")

    conv = sub.add_parser("conv", help="n-fold convolution tail brackets", allow_abbrev=False)
    conv.add_argument("--dist", required=True)
    conv.add_argument("--n", type=int, default=2)
    conv.add_argument(
        "--x", type=_parse_grid, required=True, help="grid or max (single value = grid top)"
    )
    conv.add_argument("--h", type=float, default=1e-3)
    conv.add_argument("--cap", type=float, default=None, help="truncate summands at this cap")
    conv.add_argument("--format", choices=("csv", "json"), default="csv")
    conv.add_argument("--out", default=None)

    fn = sub.add_parser(
        "functional", help="evaluate a tail functional on a grid", allow_abbrev=False
    )
    fn.add_argument("--dist", required=True)
    fn.add_argument(
        "--kind",
        required=True,
        choices=("t_ratio", "b2", "jump", "ol", "d", "lgamma", "os", "osstar"),
    )
    fn.add_argument("--x", type=_parse_grid, required=True, help="x grid")
    fn.add_argument("--K", type=float, default=1.0)
    fn.add_argument("--t", type=float, default=1.0)
    fn.add_argument("--gamma", type=float, default=1.0)
    fn.add_argument("--n", type=int, default=2, help="fold count for jump")
    fn.add_argument("--h", type=float, default=0.01, help="bracket step for jump")
    fn.add_argument("--tol", type=float, default=1e-9)
    fn.add_argument("--format", choices=("csv", "json"), default="csv")
    fn.add_argument("--out", default=None)
    fn.set_defaults(parser=fn)

    cl = sub.add_parser("classify", help="run the class-membership diagnostics", allow_abbrev=False)
    cl.add_argument("--dist", required=True)
    cl.add_argument("--config", default=None, help="JSON file of ClassifyConfig overrides")
    cl.add_argument("--format", choices=("csv", "json"), default="json")
    cl.add_argument("--out", default=None)
    cl.set_defaults(parser=cl)

    sim = sub.add_parser(
        "simulate", help="Monte Carlo single-big-jump estimate", allow_abbrev=False
    )
    sim.add_argument("--dist", required=True)
    sim.add_argument("--n", type=int, default=2)
    sim.add_argument("--x", type=float, required=True)
    sim.add_argument("--K", type=float, required=True)
    sim.add_argument("--samples", type=int, default=100000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--format", choices=("csv", "json"), default="json")
    sim.add_argument("--out", default=None)

    ex = sub.add_parser(
        "experiment", help="run a scripted proposition experiment", allow_abbrev=False
    )
    ex.add_argument("id", choices=EXPERIMENT_IDS)
    ex.add_argument("--out", required=True, help="output directory")

    xp = sub.add_parser(
        "export", help="re-export a saved JSON result as CSV or JSON", allow_abbrev=False
    )
    xp.add_argument("--infile", required=True)
    xp.add_argument("--format", choices=("csv", "json"), default="csv")
    xp.add_argument("--out", required=True)
    xp.set_defaults(parser=xp)
    return p


def _cmd_dist(args) -> int:
    if args.dist_command == "eval" and args.x is None and args.u is None:
        args.parser.error("dist eval needs --x, --u or both")
    d = resolve_dist(args.dist)
    if args.dist_command == "show":
        info = {
            "label": d.label,
            "spec": d.spec,
            "segments": len(d.tail.segments),
            "truncation_hi": d.tail.truncation_hi,
            "atoms": len(d.atoms),
            "truncation_note": d.truncation_note,
        }
        try:
            info["mean"] = d.mean
        except TailforgeError as exc:
            info["mean"] = f"unavailable: {exc}"
        _write_json(None, info)
        if args.out:
            dump_spec(d, args.out)
        return 0
    if args.dist_command == "eval":
        # Both tables go to one destination, the x table first.
        with _dest_stream(args.out) as fh:
            if args.x is not None:
                ls = np.atleast_1d(d.tail.log_tail(args.x))
                rows = [(x, l, math.exp(l)) for x, l in zip(args.x, ls)]
                _write_csv(fh, ["x", "log_tail", "tail"], rows)
            if args.u is not None:
                qs = np.atleast_1d(quantile_from_tail(d, args.u))
                _write_csv(fh, ["u", "quantile"], zip(args.u, qs))
        return 0
    if args.dist_command == "sample":
        _write_csv(args.out, ["sample"], zip(sample(d, args.seed, args.n)))
        return 0
    raise AssertionError("unreachable")


def _cmd_functional(args) -> int:
    kind = args.kind
    if kind in ("t_ratio", "b2", "jump") and args.format == "json":
        args.parser.error(f"functional --kind {kind} writes CSV only; --format json is not available")
    d = resolve_dist(args.dist)
    xs = args.x
    qcfg = QuadConfig(rel_tol=args.tol)
    if kind in ("ol", "d", "lgamma", "os", "osstar"):
        series = ratio_diagnostic(d, kind, xs, t=args.t, gamma=args.gamma, cfg=qcfg)
        export_grid(series, args.format, args.out)
        return 0
    if kind == "jump":
        brs = [jump_cond(d, args.n, float(x), args.K, args.h) for x in xs]
        rows = [(x, args.K, args.n, br.lower, br.upper) for x, br in zip(xs, brs)]
        _write_csv(args.out, ["x", "K", "n", "lower", "upper"], rows)
        return 0
    fn = t_ratio if kind == "t_ratio" else b2_cond
    rows = [(x, args.K, fn(d, float(x), args.K, qcfg)) for x in xs]
    _write_csv(args.out, ["x", "K", kind], rows)
    return 0


def _cmd_conv(args) -> int:
    d = resolve_dist(args.dist)
    xs = args.x
    x_max = float(np.max(xs))
    if args.cap is None:
        grid = convn_tail_grid(d, args.n, x_max, args.h)
    else:
        grid = trunc_convn_tail_grid(d, args.n, args.cap, x_max, args.h)
    if args.out is None and args.format == "csv":
        # The requested x values only, not the full grid --out writes.
        method = f"bracket-h={args.h:g}"
        rows = [(x, *grid.log_at(float(x)), method) for x in xs]
        _write_csv(None, ["x", "lower", "upper", "method"], rows)
        return 0
    export_grid(grid, args.format, args.out)
    return 0


def _cmd_classify(args) -> int:
    cfg = ClassifyConfig()
    if args.config:
        names = {f.name for f in dataclasses.fields(cfg)}
        overrides = _load_overrides(args.parser, args.config, names)
        try:
            cfg = dataclasses.replace(
                cfg, **{k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()}
            )
        except ParameterError as exc:
            args.parser.error(f"config {args.config}: {exc}")
    d = resolve_dist(args.dist)
    report = classify(d, cfg)
    export_grid(report, args.format, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("the following arguments are required: command")
    if args.command == "dist" and args.dist_command is None:
        args.parser.error("the following arguments are required: dist_command")
    try:
        if args.command == "dist":
            return _cmd_dist(args)
        if args.command == "transform":
            d = resolve_dist(args.dist)
            g = gamma_transform(d, args.gamma)
            dump_spec(g, args.out)
            sys.stdout.write(f"wrote tilted spec to {args.out}\n")
            return 0
        if args.command == "conv":
            return _cmd_conv(args)
        if args.command == "functional":
            return _cmd_functional(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "simulate":
            d = resolve_dist(args.dist)
            est = mc_jump_cond(d, args.n, args.x, args.K, args.samples, args.seed)
            export_grid(est, args.format, args.out)
            return 0
        if args.command == "experiment":
            return run_experiment(args.id, args.out)
        if args.command == "export":
            result = result_from_obj(_load_json(args.parser, args.infile, "result file"))
            export_grid(result, args.format, args.out)
            return 0
        raise AssertionError("unreachable")
    except TailforgeError as exc:
        print(f"tailforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
