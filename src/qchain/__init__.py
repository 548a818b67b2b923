"""Exact Baxter Q polynomials for the odd-L higher spin chain at its
combinatorial anisotropy point, with finite-size checks done as exact
cyclotomic-field identities and an independent numeric validator."""

__version__ = "0.1.0"

from .cyclotomic import (
    CyclotomicNumber,
    cyc_cos,
    cyclotomic_polynomial,
    zeta_power,
)
from .energy import (
    CLOSED_FORM_SUMS,
    SpinConstant,
    WSummary,
    closed_form_root_sum,
    crosscheck_closed_forms,
    extract_A,
    groundstate_summary,
    verify_linearity,
    verify_no_finite_size_correction,
)
from .linalg import SingularMatrixError, solve_linear_system
from .qoperator import (
    ChainParams,
    QPolynomial,
    admissible_indices,
    build_q,
    q_closed_form,
    q_linear_system,
    verify_structure,
    verify_tq_identity,
)
from .rationals import format_rational, parse_rational
from .fixedpoint import Measured
from .report import CheckResult, ConvergenceError, FalsificationError
from .wtransform import verify_inverse_sum, w_elementary, w_sum

# The root validator's names load qchain.roots on first use, so that a run
# that checks no root (compute, table) never compiles it.
_ROOT_NAMES = {
    "RootSet",
    "bae_residuals_by_form",
    "find_roots",
    "inversion_closure_gap",
    "numeric_cross_check",
    "root_product_gap",
    "z_to_w",
}


def __getattr__(name: str):
    if name in _ROOT_NAMES:
        from . import roots

        return getattr(roots, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CLOSED_FORM_SUMS",
    "ChainParams",
    "CheckResult",
    "ConvergenceError",
    "CyclotomicNumber",
    "FalsificationError",
    "Measured",
    "QPolynomial",
    "RootSet",
    "SingularMatrixError",
    "SpinConstant",
    "WSummary",
    "admissible_indices",
    "bae_residuals_by_form",
    "build_q",
    "closed_form_root_sum",
    "crosscheck_closed_forms",
    "cyc_cos",
    "cyclotomic_polynomial",
    "extract_A",
    "find_roots",
    "format_rational",
    "groundstate_summary",
    "inversion_closure_gap",
    "numeric_cross_check",
    "parse_rational",
    "q_closed_form",
    "q_linear_system",
    "root_product_gap",
    "solve_linear_system",
    "verify_inverse_sum",
    "verify_linearity",
    "verify_no_finite_size_correction",
    "verify_structure",
    "verify_tq_identity",
    "w_elementary",
    "w_sum",
    "z_to_w",
    "zeta_power",
]
