"""Open Heisenberg XXX chain with general boundaries.

Transfer-matrix construction, Bethe equations and their numerical solution,
the conjectured boundary Bethe vectors, and a named-check verification suite
covering every identity at desk scale (chain lengths 1 to 4).
"""

from .bethe import (
    CoverageResult,
    Eigencurve,
    SolverConfig,
    SpectrumMatch,
    cover_spectrum,
    dense_spectrum_curves,
    match_spectrum,
    solve_bethe,
)
from .model import (
    ModelParams,
    entry_matrices,
    hamiltonian_matrix,
    k_minus_matrix,
    k_plus_matrix,
    monodromy_matrices,
    open_k_matrix,
    r_matrix,
    transfer_matrix,
    transfer_matrix_from_entries,
)
from .scalars import (
    BetheRootSet,
    F_factor,
    alpha_bar,
    bethe_residual,
    delta_bar,
    eigenvalue_Lambda,
    lambda1,
    lambda2,
    structure_fn,
)
from .vectors import (
    CoefficientTable,
    RotatedFrame,
    b_bar_matrix,
    build_bethe_vector,
    extract_V,
    extract_W,
    partition_Z,
    rotated_entry_matrices,
)
from .verify import (
    VerificationReport,
    check_names,
    check_offshell,
    offshell_residual,
    random_params,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BetheRootSet",
    "CoefficientTable",
    "CoverageResult",
    "Eigencurve",
    "F_factor",
    "ModelParams",
    "RotatedFrame",
    "SolverConfig",
    "SpectrumMatch",
    "VerificationReport",
    "alpha_bar",
    "b_bar_matrix",
    "bethe_residual",
    "build_bethe_vector",
    "check_names",
    "check_offshell",
    "cover_spectrum",
    "delta_bar",
    "dense_spectrum_curves",
    "eigenvalue_Lambda",
    "entry_matrices",
    "extract_V",
    "extract_W",
    "hamiltonian_matrix",
    "k_minus_matrix",
    "k_plus_matrix",
    "lambda1",
    "lambda2",
    "match_spectrum",
    "monodromy_matrices",
    "offshell_residual",
    "open_k_matrix",
    "partition_Z",
    "r_matrix",
    "random_params",
    "rotated_entry_matrices",
    "run_suite",
    "solve_bethe",
    "structure_fn",
    "transfer_matrix",
    "transfer_matrix_from_entries",
]
