"""Degenerate Bell counting law and process: numerics, samplers, paths.

A numpy library implementing the two-parameter degenerate Bell
counting distribution (an overdispersed, batch-arrival generalization
of the Poisson law) and its continuous-time counting process, with
exact special-function kernels, certified truncated tables, two
independent samplers, path simulation, and a built-in verification
battery exposed through the ``bellproc`` command line tool.  numpy is
the only dependency: the battery (``bellproc.verify``) computes its own
chi-square, Poisson and Kolmogorov-Smirnov references.
"""

from .distribution import (
    DegenParams,
    JumpLaw,
    PmfTable,
    Validity,
    build_pmf_table,
    burst_rate,
    cdf,
    convolve,
    decompose,
    log_pmf,
    mean,
    mgf,
    pgf,
    pmf,
    quantile,
    validate,
    variance,
)
from .errors import (
    BellprocError,
    ConvergenceError,
    IncompatibleParametersError,
    ParameterError,
    RangeError,
    TailSliverError,
)
from .process import (
    PathEnsemble,
    count_at,
    increment,
    laplace_functional,
    simulate_path,
    simulate_paths,
    small_s_intensity,
    superpose,
)
from .sampling import (
    RngStream,
    sample_compound,
    sample_inverse_cdf,
    sample_jump,
    sample_poisson,
)
from .special import (
    LogStirlingTable,
    StirlingTable,
    bell_number,
    bell_poly,
    bell_poly_classical,
    bell_poly_dobinski,
    build_log_stirling_table,
    build_stirling_table,
    degenerate_exp,
    falling_factorial,
    stirling2_classical,
)

__version__ = "0.1.0"

__all__ = [
    "BellprocError",
    "ConvergenceError",
    "DegenParams",
    "IncompatibleParametersError",
    "JumpLaw",
    "LogStirlingTable",
    "ParameterError",
    "PathEnsemble",
    "PmfTable",
    "RangeError",
    "RngStream",
    "StirlingTable",
    "TailSliverError",
    "Validity",
    "bell_number",
    "bell_poly",
    "bell_poly_classical",
    "bell_poly_dobinski",
    "build_log_stirling_table",
    "build_pmf_table",
    "build_stirling_table",
    "burst_rate",
    "cdf",
    "convolve",
    "count_at",
    "decompose",
    "degenerate_exp",
    "falling_factorial",
    "increment",
    "laplace_functional",
    "log_pmf",
    "mean",
    "mgf",
    "pgf",
    "pmf",
    "quantile",
    "sample_compound",
    "sample_inverse_cdf",
    "sample_jump",
    "sample_poisson",
    "simulate_path",
    "simulate_paths",
    "small_s_intensity",
    "stirling2_classical",
    "superpose",
    "validate",
    "variance",
]
