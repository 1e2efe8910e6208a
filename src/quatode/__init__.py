"""Quaternionic constant-coefficient ODEs, eigen machinery, and 1D scattering."""

from .quatcore import (
    I,
    J,
    K,
    ONE,
    ExpSum,
    Quaternion,
    RightLinearScalarOp,
    exp,
    rebase_sphere_exponential,
)
from .quadsolve import (
    CaseTag,
    QuadraticCoeffs,
    RootKind,
    RootSet,
    classify,
    cubic_resolvent,
    solve,
    solve_coeffs,
    solve_quaternion,
)
from .hode import (
    DegenerateBasisError,
    GeneralSolution,
    general_solution,
    solve_ivp,
    wronskian,
)
from .qmat2 import (
    DefectiveMatrixError,
    EigenDecomposition,
    Matrix2CL,
    Matrix2H,
    diagonalize,
    dieudonne,
    jordanize,
    right_eigenpairs,
    solve_ode_via_matrix,
    spectral_decompose_antihermitian,
)
from .clode import (
    CLSolution,
    ModeNormalizationError,
    SchrodingerModes,
    UnsupportedStructureError,
    schrodinger_modes,
    solve_clinear_ops,
    stationary_phase,
    time_reversal_map,
)
from .scatter import (
    PhysicalParams,
    Regime,
    ScatteringResult,
    ScatteringRows,
    solve_barrier,
    solve_rows,
    solve_step,
)
from .well import BoundStateSet, find_bound_states
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "BoundStateSet", "CLSolution", "CaseTag",
    "DefectiveMatrixError", "DegenerateBasisError", "EigenDecomposition",
    "ExpSum", "GeneralSolution", "I", "J", "K", "Matrix2CL",
    "Matrix2H", "ModeNormalizationError", "ONE", "PhysicalParams",
    "QuadraticCoeffs", "Quaternion", "Regime", "RightLinearScalarOp",
    "RootKind", "RootSet", "ScatteringResult", "ScatteringRows",
    "SchrodingerModes",
    "UnsupportedStructureError",
    "classify", "cubic_resolvent", "diagonalize", "dieudonne", "exp",
    "find_bound_states", "general_solution", "jordanize",
    "oracle", "rebase_sphere_exponential",
    "right_eigenpairs", "schrodinger_modes", "solve", "solve_barrier",
    "solve_clinear_ops", "solve_coeffs", "solve_ivp",
    "solve_ode_via_matrix", "solve_quaternion", "solve_rows", "solve_step",
    "spectral_decompose_antihermitian", "stationary_phase",
    "time_reversal_map", "wronskian",
]
