"""Numerical (q,w)-deformed calculus and mechanics.

The Hahn difference quotient (f(qt+w) - f(t))/((q-1)t + w) replaces the
time derivative; this package evaluates the resulting calculus (difference
operator, lattice integral, deformed exponentials) and the mechanics built
on it (constant-acceleration kinematics and resisted vertical fall), with
closed-form, series, and independent fixed-point-iteration solvers for
every trajectory so the routes can be checked against each other.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each submodule.  A name is imported on first use, so
# `import hahncalc` loads no submodule and a caller pays only for the
# modules it uses.
_EXPORTS = {
    "core": (
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
    ),
    "errors": (
        "HahnCalcError",
        "NonConvergentError",
        "OutOfRadiusError",
        "PoleEncounteredError",
        "ZeroFactorError",
        "ZeroFactorWarning",
    ),
    "identities": ("IdentityResult", "run_suite"),
    "kinematics": (
        "IterationReport",
        "KinematicState",
        "accel_quotient_velocity",
        "iterate_first_order",
        "position_at_fixed_point",
        "solve_second_order_constant_accel",
        "uniform_accel_position",
        "uniform_accel_velocity",
        "uniform_velocity_position",
    ),
    "qexp": ("exp_q_series", "exp_qinv_series", "exp_qw", "odd_part_qinv"),
    "resist": (
        "DragParams",
        "classical_drag_velocity",
        "gravity_drag_velocity",
        "gravity_drag_velocity_iterative",
        "gravity_drag_velocity_series",
        "gravity_kernel_iteration_sum",
        "gravity_kernel_resummed",
        "kappa",
    ),
    "table": ("TrajectoryTable",),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str) -> object:
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})

