"""tailforge: numerical analysis of distribution tails on [0, inf).

Exact piecewise survival functions in the log domain, the exponential tail
tilt between heavy- and light-tailed laws, convolution-tail quadrature with
certified grid brackets, and the ratio diagnostics that probe membership in
the classes L, D, S, L(gamma), S(gamma), OS, OS*, OL, and J.
"""

__version__ = "0.1.0"

from .builtins import (
    builtin,
    dyadic_pareto,
    exponential,
    fkz_a_sequence,
    fkz_example,
    pareto,
    plateau_example,
    weibull_heavy,
    xu_breakpoints,
    xu_piecewise,
)
from .convolve import (
    BracketGrid,
    conv2_tail,
    convn_tail_grid,
    cross_integral,
    g_conv2_identity_residual,
    log_conv2_tail,
    log_cross_integral,
    trunc_convn_tail_grid,
)
from .distribution import (
    Atom,
    Distribution,
    exp_moment,
    log_tail,
    partial_moment,
    power_tail,
    quantile_from_tail,
    sample,
)
from .errors import (
    DivergenceError,
    GridGuardError,
    InconclusiveBracketError,
    LowAcceptanceError,
    ParameterError,
    TailforgeError,
    ToleranceError,
    TruncationError,
)
from .experiments import EXPERIMENT_IDS, run_experiment
from .functionals import (
    ClassifyConfig,
    ClassReport,
    DiagSeries,
    b2_cond,
    classify,
    classify_trend,
    exam300_lower_bound,
    geometric_grid,
    jump_cond,
    ratio_diagnostic,
    t_ratio,
    weak_equiv_diag,
)
from .montecarlo import McEstimate, mc_jump_cond, mc_vs_quadrature
from .quadrature import LogQuadResult, QuadConfig, log_quad
from .specio import dump_spec, load_spec, parse_inline, parse_spec, resolve_dist
from .tailcurve import TailCurve
from .transform import gamma_transform
