"""Exact Tribonacci / Tribonacci-Lucas toolkit.

Scalar terms for all integer indices, their 3x3 matrix sequences,
high-precision Binet evaluation with exact integer recovery,
generating-function expansion, closed-form partial sums, and a registry
that mechanically verifies every supported identity on index grids.

`bench`, `binet` and `identities` are lazy modules: importing the
package puts them in `sys.modules` and binds them here, but each runs
only on the first read of one of its names, as only the `bench`, Binet
and `verify` runs of the command line need them.  Their names below
resolve through the module's `__getattr__`, which runs the module.
"""

import importlib.util
import sys

from .core import (DEFAULT_PRECISION, SEEDS, SequenceKind, TermCache,
                   lucas_trib, to_decimal, trib, trib_alt)
from .counters import OpCounter
from .errors import (DegenerateDenominator, DivisibilityViolation,
                     NegativeExponent, PrecisionExhausted, StrategyMismatch,
                     UnknownIdentity)
from .matrices import (IDENTITY, K_MAT_SEEDS, Mat3, MatrixKind, T_MAT_SEEDS,
                       ZERO, k_matrix, lucas_fast, mat_mul, mat_pow, t_matrix,
                       term_reader, trib_fast)
from .series import (SumSpec, gf_coeffs, gf_matrix_coeffs, gf_numerators,
                     gf_stream, partial_sum, partial_sum_bruteforce)


def _lazy(name: str):
    """The submodule `name`, in `sys.modules`, to run on first use (the
    importlib documentation's "Implementing lazy imports")."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench = _lazy("bench")
binet = _lazy("binet")
identities = _lazy("identities")

# name -> the lazy module that defines it
_LAZY_NAMES = {
    **dict.fromkeys(("BenchResult", "run_bench"), bench),
    **dict.fromkeys(("BinetConstants", "ConstantAlgebraReport", "RootTriple",
                     "binet_constants", "binet_lucas", "binet_matrix",
                     "binet_trib", "check_constant_algebra", "compute_roots",
                     "radical_roots"), binet),
    **dict.fromkeys(("GridBounds", "IdentityRecord", "PROFILE_BOUNDS",
                     "Profile", "VerifyReport", "format_report_table",
                     "registry", "report_to_dict", "verify", "verify_all",
                     "verify_record"), identities),
}


def __getattr__(name: str):
    try:
        module = _LAZY_NAMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


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
