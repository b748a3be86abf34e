"""Spectral-norm column subset selection with certified error bounds.

Pick k columns of a real matrix so that projecting onto their span leaves
a small spectral-norm residual.  The greedy selector scores candidates by
the largest root of volume-sampling expected characteristic polynomials;
closed-form bounds certify the result, and an oracle layer re-derives
everything by brute force on small instances.
"""

from .bounds import (
    BoundReport,
    SpectrumInfo,
    barrier_root_bound,
    gamma_factor,
    hard_instance_bounds,
    residual_bound,
    spectrum_info,
    spectrum_of,
)
from .errors import (
    AllCandidatesDegenerate,
    CertificateViolation,
    CsspError,
    DegenerateDirection,
    DimensionMismatch,
    EmptySpectrum,
    NoConvergence,
    NonPositiveEigenvalue,
    NoRootInRange,
    NotFullColumnRank,
    OutOfRegime,
    ParseError,
    RankExceeded,
    TooManySubsets,
    ZeroPolynomial,
)
from .instances import hard_instance, power_law, random_gaussian
from .linalg import (
    char_poly,
    complement_projector,
    gram,
    numerical_rank,
    projector_update,
    rank_tolerance,
    residual_spectral_sq,
    spectral_norm_sq,
    sym_eigenvalues,
)
from .mmio import load_matrix, save_csv, save_matrix_market
from .oracle import (
    IDENTITY_TOLERANCES,
    OracleReport,
    brute_force_best,
    expected_frobenius_residual,
    expected_poly_bruteforce,
    gram_det_factored,
    gram_det_sum,
    gram_det_sum_enumerated,
    restricted_invertibility_pair,
    run_identity_suite,
    svd_residual_sq,
    volume_mean_frobenius_enumerated,
    volume_mean_residual,
    weighted_step_identity_error,
)
from .polynomial import (
    RootApprox,
    cauchy_bound,
    derivative,
    flip,
    maxroot,
    minroot,
    polar_power,
    poly_eval,
    sturm_count,
)
from .selector import (
    DEFAULT_EPS,
    SelectionResult,
    SelectionState,
    candidate_score,
    initial_state,
    select,
)

__version__ = "0.1.0"
