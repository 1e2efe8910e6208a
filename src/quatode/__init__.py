"""Quaternionic constant-coefficient ODEs, eigen machinery, and 1D scattering.

A name of the package imports its submodule on first use (PEP 562), so a
caller loads only the modules it reaches.
"""

import sys

__version__ = "0.1.0"

# each submodule and the names the package takes from it; oracle is exported
# as a module
_EXPORTS = {
    "quatcore": ("I", "J", "K", "ONE", "ExpSum", "Quaternion", "RightLinearScalarOp",
                 "exp", "rebase_sphere_exponential"),
    "quadsolve": ("CaseTag", "QuadraticCoeffs", "RootKind", "RootSet", "classify",
                  "cubic_resolvent", "solve", "solve_coeffs", "solve_quaternion"),
    "hode": ("DegenerateBasisError", "GeneralSolution", "general_solution", "solve_ivp",
             "wronskian"),
    "qmat2": ("DefectiveMatrixError", "EigenDecomposition", "Matrix2CL", "Matrix2H",
              "diagonalize", "dieudonne", "jordanize", "right_eigenpairs",
              "solve_ode_via_matrix", "spectral_decompose_antihermitian"),
    "clode": ("CLSolution", "ModeNormalizationError", "SchrodingerModes",
              "UnsupportedStructureError", "schrodinger_modes", "solve_clinear_ops",
              "stationary_phase", "time_reversal_map"),
    "scatter": ("PhysicalParams", "Regime", "ScatteringResult", "ScatteringRows",
                "solve_barrier", "solve_rows", "solve_step"),
    "well": ("BoundStateSet", "find_bound_states"),
    "oracle": ("oracle",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    """A package name or submodule, imported on first use and then kept here."""
    module = _ORIGIN.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    __import__(f"{__name__}.{module}")
    owner = sys.modules[f"{__name__}.{module}"]
    value = owner if name == module else getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
