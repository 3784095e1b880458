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
from .cache import cached_convn_tail_grid
from .distribution import quantile_from_tail, sample
from .errors import ParameterError, TailforgeError
from .experiments import EXPERIMENT_IDS, default_config, run_experiment
from .export import export_grid, fmt_float, result_from_obj, result_to_obj
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
            return np.geomspace(lo, hi, n) if kind == "geom" else np.linspace(lo, hi, n)
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r} ({exc}); use '1,2,5', 'geom:lo:hi:n' or 'lin:lo:hi:n'"
        ) from None


def _out_stream(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _load_json(parser: argparse.ArgumentParser, path: str, what: str):
    """Parse a JSON file, or refuse it as a usage error (exit 2)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read {what} {path}: {exc}")


def _fits(value, default) -> bool:
    """Whether a JSON value has the type and shape of a setting's default.

    A list default takes a nonempty list of values that fit its first
    element; a None default (an optional list) takes null or a list of
    numbers.
    """
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    if isinstance(default, (list, tuple)):
        return isinstance(value, list) and bool(value) and all(_fits(v, default[0]) for v in value)
    return value is None or _fits(value, [0.0])


def _expected(default) -> str:
    if isinstance(default, bool):
        return "true or false"
    if isinstance(default, int):
        return "an integer"
    if isinstance(default, float):
        return "a finite number"
    if isinstance(default, (list, tuple)):
        return f"a nonempty list, each item {_expected(default[0])}"
    return "null or a nonempty list of finite numbers"


def _load_overrides(parser: argparse.ArgumentParser, path: str, defaults: dict) -> dict:
    """Config overrides from a JSON object whose keys all name settings in
    ``defaults`` and whose values fit their type and shape."""
    overrides = _load_json(parser, path, "config")
    if not isinstance(overrides, dict):
        parser.error(f"config {path} must hold a JSON object")
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        parser.error(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    for key, value in overrides.items():
        default = defaults[key]
        if dataclasses.is_dataclass(default):
            parser.error(f"config key {key!r} in {path} cannot be set from a config file")
        if not _fits(value, default):
            parser.error(
                f"config key {key!r} in {path} must be {_expected(default)}, "
                f"got {json.dumps(value)}"
            )
    return overrides


def _emit(result, fmt: str, out: str | None) -> None:
    if out is None or out == "-":
        obj = result_to_obj(result)
        json.dump(obj, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        export_grid(result, fmt, out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tailforge",
        description="numerical analysis of distribution tails on [0, inf)",
    )
    p.add_argument("--version", action="version", version=f"tailforge {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="inspect, evaluate, or sample a distribution")
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)
    show = dist_sub.add_parser("show", help="print the spec and basic facts")
    show.add_argument("--dist", required=True, help="spec file or inline kind:param=value")
    show.add_argument("--out", default=None, help="write the spec document here")
    ev = dist_sub.add_parser("eval", help="evaluate log-tail / tail / quantile")
    ev.add_argument("--dist", required=True)
    ev.add_argument(
        "--x", type=_parse_grid, default=None, help="grid of x values (list or geom:lo:hi:n)"
    )
    ev.add_argument("--u", type=_parse_grid, default=None, help="grid of quantile levels")
    ev.add_argument("--format", choices=("csv", "json"), default="csv")
    ev.add_argument("--out", default=None)
    smp = dist_sub.add_parser("sample", help="inverse-transform sampling")
    smp.add_argument("--dist", required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--out", default=None)

    tr = sub.add_parser("transform", help="apply the exponential tail tilt")
    tr.add_argument("--dist", required=True)
    tr.add_argument("--gamma", type=float, required=True)
    tr.add_argument("--out", required=True, help="spec file to write")

    conv = sub.add_parser("conv", help="n-fold convolution tail brackets")
    conv.add_argument("--dist", required=True)
    conv.add_argument("--n", type=int, default=2)
    conv.add_argument(
        "--x", type=_parse_grid, required=True, help="grid or max (single value = grid top)"
    )
    conv.add_argument("--h", type=float, default=1e-3)
    conv.add_argument("--cap", type=float, default=None, help="truncate summands at this cap")
    conv.add_argument("--format", choices=("csv", "json"), default="csv")
    conv.add_argument("--out", default=None)

    fn = sub.add_parser("functional", help="evaluate a tail functional on a grid")
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

    cl = sub.add_parser("classify", help="run the class-membership diagnostics")
    cl.add_argument("--dist", required=True)
    cl.add_argument("--config", default=None, help="JSON file of ClassifyConfig overrides")
    cl.add_argument("--format", choices=("csv", "json"), default="json")
    cl.add_argument("--out", default=None)

    sim = sub.add_parser("simulate", help="Monte Carlo single-big-jump estimate")
    sim.add_argument("--dist", required=True)
    sim.add_argument("--n", type=int, default=2)
    sim.add_argument("--x", type=float, required=True)
    sim.add_argument("--K", type=float, required=True)
    sim.add_argument("--samples", type=int, default=100000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--format", choices=("csv", "json"), default="json")
    sim.add_argument("--out", default=None)

    ex = sub.add_parser("experiment", help="run a scripted proposition experiment")
    ex.add_argument("id", choices=EXPERIMENT_IDS)
    ex.add_argument("--out", required=True, help="output directory")
    ex.add_argument("--config", default=None, help="JSON config overrides")

    xp = sub.add_parser("export", help="re-export a saved JSON result as CSV or JSON")
    xp.add_argument("--infile", required=True)
    xp.add_argument("--format", choices=("csv", "json"), default="csv")
    xp.add_argument("--out", required=True)
    return p


def _cmd_dist(args) -> int:
    d = resolve_dist(args.dist)
    if args.dist_command == "show":
        info = {
            "label": d.label,
            "spec": d.spec,
            "segments": len(d.tail.segments),
            "truncation_hi": d.tail.truncation_hi,
            "atoms": len(d.parts.atoms),
            "truncation_note": d.truncation_note,
        }
        try:
            info["mean"] = d.mean
        except TailforgeError as exc:
            info["mean"] = f"unavailable: {exc}"
        json.dump(info, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        if args.out:
            dump_spec(d, args.out)
        return 0
    if args.dist_command == "eval":
        stream, close = _out_stream(args.out)
        try:
            if args.x is not None:
                xs = args.x
                ls = np.atleast_1d(d.tail.log_tail(xs))
                stream.write("x,log_tail,tail\n")
                for x, l in zip(xs, ls):
                    stream.write(
                        f"{fmt_float(float(x))},{fmt_float(float(l))},{fmt_float(math.exp(l) if l > -math.inf else 0.0)}\n"
                    )
            if args.u is not None:
                us = args.u
                qs = np.atleast_1d(quantile_from_tail(d, us))
                stream.write("u,quantile\n")
                for u, q in zip(us, qs):
                    stream.write(f"{fmt_float(float(u))},{fmt_float(float(q))}\n")
        finally:
            if close:
                stream.close()
        return 0
    if args.dist_command == "sample":
        xs = sample(d, args.seed, args.n)
        stream, close = _out_stream(args.out)
        try:
            stream.write("sample\n")
            for v in xs:
                stream.write(fmt_float(float(v)) + "\n")
        finally:
            if close:
                stream.close()
        return 0
    raise AssertionError("unreachable")


def _cmd_functional(args) -> int:
    d = resolve_dist(args.dist)
    xs = args.x
    qcfg = QuadConfig(rel_tol=args.tol)
    kind = args.kind
    if kind in ("ol", "d", "lgamma", "os", "osstar"):
        series = ratio_diagnostic(d, kind, xs, t=args.t, gamma=args.gamma, cfg=qcfg)
        _emit(series, args.format, args.out)
        return 0
    stream, close = _out_stream(args.out)
    try:
        if kind == "t_ratio":
            stream.write("x,K,t_ratio\n")
            for x in xs:
                stream.write(
                    f"{fmt_float(float(x))},{fmt_float(args.K)},{fmt_float(t_ratio(d, float(x), args.K, qcfg))}\n"
                )
        elif kind == "b2":
            stream.write("x,K,b2\n")
            for x in xs:
                stream.write(
                    f"{fmt_float(float(x))},{fmt_float(args.K)},{fmt_float(b2_cond(d, float(x), args.K, qcfg))}\n"
                )
        elif kind == "jump":
            stream.write("x,K,n,lower,upper\n")
            for x in xs:
                br = jump_cond(d, args.n, float(x), args.K, args.h)
                stream.write(
                    f"{fmt_float(float(x))},{fmt_float(args.K)},{args.n},"
                    f"{fmt_float(br.lower)},{fmt_float(br.upper)}\n"
                )
    finally:
        if close:
            stream.close()
    return 0


def _cmd_conv(args) -> int:
    d = resolve_dist(args.dist)
    xs = args.x
    x_max = float(np.max(xs))
    cap = args.cap if args.cap is not None else math.inf
    grid = cached_convn_tail_grid(d, args.n, x_max, args.h, cap)
    if args.out is None and args.format == "csv":
        sys.stdout.write("x,lower,upper,method\n")
        method = f"bracket-h={args.h:g}"
        for x in xs:
            lo, up = grid.at(float(x))
            llo = math.log(lo) if lo > 0 else -math.inf
            lup = math.log(up) if up > 0 else -math.inf
            sys.stdout.write(
                f"{fmt_float(float(x))},{fmt_float(llo)},{fmt_float(lup)},{method}\n"
            )
        return 0
    _emit(grid, args.format, args.out)
    return 0


def _cmd_classify(args, parser) -> int:
    cfg = ClassifyConfig()
    if args.config:
        defaults = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        overrides = _load_overrides(parser, args.config, defaults)
        try:
            cfg = dataclasses.replace(
                cfg, **{k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()}
            )
        except ParameterError as exc:
            parser.error(f"config {args.config}: {exc}")
    d = resolve_dist(args.dist)
    report = classify(d, cfg)
    _emit(report, args.format, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
            return _cmd_classify(args, parser)
        if args.command == "simulate":
            d = resolve_dist(args.dist)
            est = mc_jump_cond(d, args.n, args.x, args.K, args.samples, args.seed)
            _emit(est, args.format, args.out)
            return 0
        if args.command == "experiment":
            config = None
            if args.config:
                config = _load_overrides(parser, args.config, default_config(args.id))
            return run_experiment(args.id, args.out, config)
        if args.command == "export":
            result = result_from_obj(_load_json(parser, args.infile, "result file"))
            export_grid(result, args.format, args.out)
            return 0
        raise AssertionError("unreachable")
    except TailforgeError as exc:
        print(f"tailforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
