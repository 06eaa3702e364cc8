"""Numerical (q,w)-deformed calculus and mechanics.

The Hahn difference quotient (f(qt+w) - f(t))/((q-1)t + w) replaces the
time derivative; this package evaluates the resulting calculus (difference
operator, lattice integral, deformed exponentials) and the mechanics built
on it (constant-acceleration kinematics and resisted vertical fall), with
closed-form, series, and independent fixed-point-iteration solvers for
every trajectory so the routes can be checked against each other.
"""

from .core import (
    CENTRAL_DIFF_STEP,
    CONSECUTIVE_SMALL,
    DEFAULT_POLICY,
    ZERO_FACTOR_TOL,
    DeformationParams,
    ScalarFunction,
    TruncationPolicy,
    advance,
    advance_n,
    hahn_derivative,
    hahn_integral,
    lattice_step,
    q_factorial,
    q_inv_factorial,
    q_number,
    q_shifted_factorial,
    q_shifted_factorial_inf,
    qw_number,
    qw_polynomial,
)
from .errors import (
    HahnCalcError,
    NonConvergentError,
    OutOfRadiusError,
    PoleEncounteredError,
    ZeroFactorError,
    ZeroFactorWarning,
)
from .kinematics import (
    IterationReport,
    KinematicState,
    accel_quotient_velocity,
    iterate_first_order,
    position_at_fixed_point,
    solve_second_order_constant_accel,
    uniform_accel_position,
    uniform_accel_velocity,
    uniform_velocity_position,
)
from .qexp import exp_q_series, exp_qinv_series, exp_qw, odd_part_qinv
from .resist import (
    DragParams,
    classical_drag_velocity,
    gravity_drag_velocity,
    gravity_drag_velocity_iterative,
    gravity_drag_velocity_series,
    gravity_kernel_iteration_sum,
    gravity_kernel_resummed,
    kappa,
)
from .table import TrajectoryTable

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    # The identity suite is imported on first use: most callers, the CLI's
    # table commands among them, never need it.
    if name in ("IdentityResult", "run_suite"):
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "CENTRAL_DIFF_STEP",
    "CONSECUTIVE_SMALL",
    "DEFAULT_POLICY",
    "ZERO_FACTOR_TOL",
    "DeformationParams",
    "ScalarFunction",
    "TruncationPolicy",
    "advance",
    "advance_n",
    "hahn_derivative",
    "hahn_integral",
    "lattice_step",
    "q_factorial",
    "q_inv_factorial",
    "q_number",
    "q_shifted_factorial",
    "q_shifted_factorial_inf",
    "qw_number",
    "qw_polynomial",
    "HahnCalcError",
    "NonConvergentError",
    "OutOfRadiusError",
    "PoleEncounteredError",
    "ZeroFactorError",
    "ZeroFactorWarning",
    "IdentityResult",
    "run_suite",
    "IterationReport",
    "KinematicState",
    "accel_quotient_velocity",
    "iterate_first_order",
    "position_at_fixed_point",
    "solve_second_order_constant_accel",
    "uniform_accel_position",
    "uniform_accel_velocity",
    "uniform_velocity_position",
    "exp_q_series",
    "exp_qinv_series",
    "exp_qw",
    "odd_part_qinv",
    "DragParams",
    "classical_drag_velocity",
    "gravity_drag_velocity",
    "gravity_drag_velocity_iterative",
    "gravity_drag_velocity_series",
    "gravity_kernel_iteration_sum",
    "gravity_kernel_resummed",
    "kappa",
    "TrajectoryTable",
]
