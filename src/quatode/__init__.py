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
    BasisCoordinates,
    CaseTag,
    QuadraticCoeffs,
    RootKind,
    RootSet,
    classify,
    cubic_resolvent,
    normalize,
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
    TViolatingError,
    UnsupportedStructureError,
    schrodinger_modes,
    solve_clinear,
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
    "BasisCoordinates", "BoundStateSet", "CLSolution", "CaseTag",
    "DefectiveMatrixError", "DegenerateBasisError", "EigenDecomposition",
    "ExpSum", "GeneralSolution", "I", "J", "K", "Matrix2CL",
    "Matrix2H", "ModeNormalizationError", "ONE", "PhysicalParams",
    "QuadraticCoeffs", "Quaternion", "Regime", "RightLinearScalarOp",
    "RootKind", "RootSet", "ScatteringResult", "ScatteringRows",
    "SchrodingerModes", "TViolatingError",
    "UnsupportedStructureError",
    "classify", "cubic_resolvent", "diagonalize", "dieudonne", "exp",
    "find_bound_states", "general_solution", "jordanize", "normalize",
    "oracle", "rebase_sphere_exponential",
    "right_eigenpairs", "schrodinger_modes", "solve", "solve_barrier",
    "solve_clinear", "solve_clinear_ops", "solve_coeffs", "solve_ivp",
    "solve_ode_via_matrix", "solve_quaternion", "solve_rows", "solve_step",
    "spectral_decompose_antihermitian", "stationary_phase",
    "time_reversal_map", "wronskian",
]
