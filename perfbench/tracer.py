"""Span tracer for the traced benchmark run.

It wraps tailforge's public entry points from outside the package: each
wrapped call records a span (name, start, end, parent span) in memory, and
hooks take counts from the call's inputs and return values.  Every module
that imported a wrapped name gets the wrapper, so calls between layers are
seen as well as calls from the benchmark.  A layer's self time is its
spans' time minus the time their child spans cover.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Span name -> layer that owns it.  Names are the wrapped functions.
LAYERS = {
    "pareto": "builtins",
    "exponential": "builtins",
    "weibull_heavy": "builtins",
    "dyadic_pareto": "builtins",
    "fkz_example": "builtins",
    "plateau_example": "builtins",
    "xu_piecewise": "builtins",
    "gamma_transform": "transform.gamma_transform",
    "log_tail": "tailcurve.log_tail",
    "quantile": "tailcurve.quantile",
    "log_quad": "quadrature.log_quad",
    "log_conv2_tail": "convolve.quad_tails",
    "log_cross_integral": "convolve.quad_tails",
    "convn_tail_grid": "convolve.bracket",
    "trunc_convn_tail_grid": "convolve.bracket",
    "exp_moment": "distribution.exp_moment",
    "classify": "functionals",
    "ratio_diagnostic": "functionals",
    "b2_cond": "functionals",
    "t_ratio": "functionals",
    "jump_cond": "functionals",
    "mc_jump_cond": "montecarlo",
    "mc_vs_quadrature": "montecarlo",
    "run_experiment": "experiments",
    "export_grid": "export",
    "_write_csv": "export",
}

# Brackets are compared where their lower tail is comfortably above the
# subnormal range; below it both staircases lose relative precision.
_WIDTH_FLOOR_LOG = math.log(1e-200)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.worst_rel_error = 0.0
        self.max_rel_width = 0.0
        self._mc_event: tuple[int, float] | None = None  # (n, x) of the open mc_jump_cond

    # ----------------------------------------------------------- wrapping

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(tracer.starts)
            tracer.names.append(name)
            tracer.parents.append(tracer._open[-1] if tracer._open else -1)
            tracer.ends.append(math.nan)
            tracer._open.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._open.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every traced entry point in every loaded tailforge module."""
        from tailforge.tailcurve import TailCurve

        hooks = {
            "log_quad": (self._before_log_quad, self._after_log_quad),
            "convn_tail_grid": (None, self._after_bracket),
            "trunc_convn_tail_grid": (None, self._after_bracket),
            "mc_jump_cond": (self._before_mc, None),
            "run_experiment": (None, self._after_experiment),
        }
        modules = [m for k, m in sys.modules.items() if k == "tailforge" or k.startswith("tailforge.")]
        for name in LAYERS:
            if name in ("log_tail", "quantile"):  # TailCurve methods, patched below
                continue
            orig = next(vars(m)[name] for m in modules if callable(vars(m).get(name)))
            wrapped = self._span(name, orig, *hooks.get(name, (None, None)))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
            if name == "mc_jump_cond":
                self._mc_sig = inspect.signature(orig)
        TailCurve.log_tail = self._span("log_tail", TailCurve.log_tail, self._before_log_tail)
        TailCurve.quantile = self._span(
            "quantile", TailCurve.quantile, self._before_quantile, self._after_quantile
        )

    # -------------------------------------------------------------- hooks

    def _before_log_quad(self, args, kwargs):
        log_f = args[0]
        counts = self.counts

        def counted(y):
            counts["log_quad.points"] += np.size(y)
            return log_f(y)

        return (counted, *args[1:]), kwargs

    def _after_log_quad(self, args, kwargs, res):
        self.counts["log_quad.panels"] += res.n_panels
        if res.rel_error > self.worst_rel_error:
            self.worst_rel_error = res.rel_error

    def _before_log_tail(self, args, kwargs):
        self.counts["log_tail.points"] += np.size(args[1])
        return args, kwargs

    def _before_quantile(self, args, kwargs):
        self.counts["quantile.points"] += np.size(args[1])
        return args, kwargs

    def _after_quantile(self, args, kwargs, res):
        # Inside mc_jump_cond every quantile call maps a block of n-tuples;
        # counting the tuples whose sum clears x includes the pilot run.
        if self._open and self.names[self._open[-1]] == "mc_jump_cond":
            n, x = self._mc_event
            sums = np.asarray(res).reshape(-1, n).sum(axis=1)
            self.counts["mc.draws"] += sums.size
            self.counts["mc.accepted"] += int(np.sum(sums > x))

    def _after_bracket(self, args, kwargs, grid):
        cells = len(grid.grid)
        self.counts["bracket.cells"] += cells
        self.counts["bracket.madds"] += 2 * (grid.n - 1) * cells * cells
        lo, up = grid.log_lower, grid.log_upper
        keep = lo >= _WIDTH_FLOOR_LOG
        if np.any(keep):
            width = float(np.max(-np.expm1(lo[keep] - up[keep])))
            self.max_rel_width = max(self.max_rel_width, width)

    def _before_mc(self, args, kwargs):
        bound = self._mc_sig.bind(*args, **kwargs)
        self._mc_event = (int(bound.arguments["n"]), float(bound.arguments["x"]))
        return args, kwargs

    def _after_experiment(self, args, kwargs, status):
        out = args[1] if len(args) > 1 else kwargs["out_dir"]
        for entry in os.scandir(out):
            if entry.is_file():
                self.counts["export.bytes"] += entry.stat().st_size

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parent = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, own.tolist()):
            out[name] += t
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Total self time per layer, in seconds."""
        layer_s: dict[str, float] = defaultdict(float)
        for name, t in self.self_times().items():
            layer_s[LAYERS[name]] += t
        return layer_s

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls: dict[str, int] = defaultdict(int)
        for name in self.names:
            calls[name] += 1
        layer_s = self.layer_self_times()
        c = self.counts
        draws = c["mc.draws"]
        return {
            "quadrature.log_quad.calls": (calls["log_quad"], "count"),
            "quadrature.log_quad.panels": (c["log_quad.panels"], "count"),
            "quadrature.log_quad.points": (c["log_quad.points"], "count"),
            "quadrature.log_quad.self_s": (layer_s["quadrature.log_quad"], "s"),
            "quadrature.log_quad.worst_rel_error": (self.worst_rel_error, "ratio"),
            "tailcurve.log_tail.calls": (calls["log_tail"], "count"),
            "tailcurve.log_tail.points": (c["log_tail.points"], "count"),
            "tailcurve.log_tail.self_s": (layer_s["tailcurve.log_tail"], "s"),
            "tailcurve.quantile.points": (c["quantile.points"], "count"),
            "tailcurve.quantile.self_s": (layer_s["tailcurve.quantile"], "s"),
            "convolve.quad_tails.calls": (
                calls["log_conv2_tail"] + calls["log_cross_integral"], "count"),
            "convolve.quad_tails.self_s": (layer_s["convolve.quad_tails"], "s"),
            "convolve.bracket.calls": (
                calls["convn_tail_grid"] + calls["trunc_convn_tail_grid"], "count"),
            "convolve.bracket.cells": (c["bracket.cells"], "count"),
            "convolve.bracket.madds": (c["bracket.madds"], "count"),
            "convolve.bracket.self_s": (layer_s["convolve.bracket"], "s"),
            "convolve.bracket.max_rel_width": (self.max_rel_width, "ratio"),
            "distribution.exp_moment.self_s": (layer_s["distribution.exp_moment"], "s"),
            "functionals.self_s": (layer_s["functionals"], "s"),
            "montecarlo.draws": (draws, "count"),
            "montecarlo.acceptance": (c["mc.accepted"] / draws if draws else 0.0, "ratio"),
            "montecarlo.self_s": (layer_s["montecarlo"], "s"),
            "experiments.self_s": (layer_s["experiments"], "s"),
            "export.bytes_written": (c["export.bytes"], "bytes"),
            "builtins.build_s": (layer_s["builtins"], "s"),
            "transform.gamma_transform.self_s": (layer_s["transform.gamma_transform"], "s"),
        }

    def save(self, path: str) -> None:
        """Write every span to a compressed .npz file."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([index[n] for n in self.names], dtype=np.int16),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
        )
