"""Numerical laboratory for Cesaro-mean ergodicity of operator semigroups
on truncated l1 sequence spaces."""

__version__ = "0.1.0"

from .space import (  # noqa: F401
    DualFunctional, TruncatedVector, basis_vector, norm_l1, pair, project_P, project_Q, vector, zero_vector,
)
from .coeffs import b, integral_b, partial_sum_b, tail_sum_b  # noqa: F401
from .semigroups import (  # noqa: F401
    StructuredOperator, apply_M, apply_T, kernel_B, matrix_A, matrix_A_inverse, matrix_B, matrix_M, matrix_N, matrix_T,
)
from .exp_semigroup import PowerBoundedOperator, apply_S, renorm, semigroup_defect_S  # noqa: F401
from .cesaro import CesaroCurve, QuadratureError, cesaro_M, cesaro_M_opnorm, cesaro_quadrature, cesaro_T  # noqa: F401
from .diagnostics import (  # noqa: F401
    ConvergenceVerdict, Evidence, cauchy_convergence_test, kernel_criterion, mass_escape_profile, sine_criterion,
    uniform_criterion_M,
)
