"""Exact Tribonacci / Tribonacci-Lucas toolkit.

Scalar terms for all integer indices, their 3x3 matrix sequences,
high-precision Binet evaluation with exact integer recovery,
generating-function expansion, closed-form partial sums, and a registry
that mechanically verifies every supported identity on index grids.
"""

from .bench import BenchResult, run_bench
from .binet import (BinetConstants, ConstantAlgebraReport, DEFAULT_PRECISION,
                    RootTriple, binet_constants, binet_lucas, binet_matrix,
                    binet_trib, check_constant_algebra, compute_roots,
                    radical_roots)
from .core import (SEEDS, SequenceKind, TermCache, lucas_trib, to_decimal,
                   trib, trib_alt)
from .counters import OpCounter
from .errors import (DegenerateDenominator, DivisibilityViolation,
                     NegativeExponent, PrecisionExhausted, StrategyMismatch,
                     UnknownIdentity)
from .identities import (GridBounds, IdentityRecord, PROFILE_BOUNDS, Profile,
                         VerifyReport, format_report_table, registry,
                         report_to_dict, verify, verify_all, verify_record)
from .matrices import (IDENTITY, K_MAT_SEEDS, Mat3, MatrixKind, T_MAT_SEEDS,
                       ZERO, k_matrix, lucas_fast, mat_mul, mat_pow, t_matrix,
                       term_reader, trib_fast)
from .series import (SumSpec, gf_coeffs, gf_matrix_coeffs, gf_numerators,
                     gf_stream, partial_sum, partial_sum_bruteforce)

__version__ = "0.1.0"

__all__ = [
    "BenchResult",
    "BinetConstants",
    "ConstantAlgebraReport",
    "DEFAULT_PRECISION",
    "DegenerateDenominator",
    "DivisibilityViolation",
    "GridBounds",
    "IDENTITY",
    "IdentityRecord",
    "K_MAT_SEEDS",
    "Mat3",
    "MatrixKind",
    "NegativeExponent",
    "OpCounter",
    "PROFILE_BOUNDS",
    "PrecisionExhausted",
    "Profile",
    "RootTriple",
    "SEEDS",
    "SequenceKind",
    "StrategyMismatch",
    "SumSpec",
    "T_MAT_SEEDS",
    "TermCache",
    "UnknownIdentity",
    "VerifyReport",
    "ZERO",
    "binet_constants",
    "binet_lucas",
    "binet_matrix",
    "binet_trib",
    "check_constant_algebra",
    "compute_roots",
    "format_report_table",
    "gf_coeffs",
    "gf_matrix_coeffs",
    "gf_numerators",
    "gf_stream",
    "k_matrix",
    "lucas_fast",
    "lucas_trib",
    "mat_mul",
    "mat_pow",
    "partial_sum",
    "partial_sum_bruteforce",
    "radical_roots",
    "registry",
    "report_to_dict",
    "run_bench",
    "t_matrix",
    "term_reader",
    "to_decimal",
    "trib",
    "trib_alt",
    "trib_fast",
    "verify",
    "verify_all",
    "verify_record",
]
