"""Grid self-affine carpet measures and their quantization diagnostics.

The package is layered bottom-up:

- measure: carpet descriptions, validation, derived exact and floating
  constants (dimension s0, stopping ratio eta, bound coefficients).
- words: symbolic addresses mixing full digit pairs with column digits,
  stored as mixed-radix integer keys per length with exact mass tables;
  the only module that reads the key layout.
- partition: stopping-time partitions Lambda_k, enumerated exactly or
  aggregated by dynamic programming, plus their exact checks.
- coding: the product-order view of stopping words and the repair of
  its order violations into certified maximal antichains.
- sequences: the entropy-to-scale ratios d_k, t_k, s_k with their
  explicit error bounds.
- quantizer: sampling of the measure, Monte Carlo distortion estimates,
  exact anchor brackets, and the normalized error R_k whose boundedness
  is the headline check.
- report, cli: deterministic tables, charts, and the command line.

Importing the package loads numpy's OpenBLAS with one thread, unless
numpy is already loaded or one of the variables OpenBLAS reads its
thread count from is set; ``os.environ`` is left as it was.
"""


def _load_numpy_single_threaded() -> None:
    # carpetq makes no BLAS call, so OpenBLAS's helper pool never works
    # here.  Yet OpenBLAS starts the pool when numpy loads it, and each
    # helper spins before it sleeps, which about doubles the CPU time of
    # the import.  The thread count is read only at that load, so the
    # variable is removed again right after.
    import os
    import sys
    chosen = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(name in os.environ for name in chosen):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_single_threaded()

from .measure import (
    CarpetSpec,
    DerivedParams,
    InvalidSpecError,
    ValidationReport,
    check_separation,
    derive_params,
    validate_spec,
)
from .words import ell
from .partition import (
    EnumerationCapError,
    PartitionLambdaK,
    PartitionStats,
    StoppedStats,
    check_square_disjointness,
    enumerate_lambda_k,
    partition_stats,
    stopped_statistics,
)
from .coding import (
    Antichain,
    AntichainCollisionError,
    AntichainInvariantError,
    AntichainReport,
    StageLog,
    build_antichain,
    verify_maximal_antichain,
    xi_sequence,
)
from .sequences import (
    SequencePoint,
    compute_d_k,
    compute_s_k,
    compute_t,
    compute_u_k,
    d_k_bound,
    delta_k,
    s_k_bound,
    sequence_point,
    t_bound,
)
from .quantizer import (
    BallBoundReport,
    LevelTally,
    QuantDiagnostics,
    SampleCloud,
    ball_bound_check,
    draw_cloud,
    locate,
    r_k_diagnostic,
    tally,
)

__version__ = "0.1.0"

__all__ = [
    "CarpetSpec", "DerivedParams", "InvalidSpecError", "ValidationReport",
    "check_separation", "derive_params", "validate_spec",
    "ell",
    "EnumerationCapError", "PartitionLambdaK", "PartitionStats",
    "StoppedStats", "check_square_disjointness", "enumerate_lambda_k",
    "partition_stats", "stopped_statistics",
    "Antichain", "AntichainCollisionError", "AntichainInvariantError",
    "AntichainReport", "StageLog", "build_antichain",
    "verify_maximal_antichain", "xi_sequence",
    "SequencePoint", "compute_d_k", "compute_s_k", "compute_t",
    "compute_u_k", "d_k_bound", "delta_k", "s_k_bound", "sequence_point",
    "t_bound",
    "BallBoundReport", "LevelTally", "QuantDiagnostics", "SampleCloud",
    "ball_bound_check", "draw_cloud", "locate", "r_k_diagnostic", "tally",
    "__version__",
]
