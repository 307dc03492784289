"""Globally optimal operating points for MISO wireless power transfer links."""

import os

# The solvers' matrices have order at most 9, where extra BLAS threads only
# spin.  Default to one; a value already in the environment wins.  This must
# run before numpy is first imported, which reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .circuit import (
    C0,
    PRESET_FREQUENCY,
    PRESETS,
    GeometryError,
    GeometrySpec,
    ImpedanceMatrix,
    Loop,
    PassivityError,
    SchemaError,
    build_loop_system,
    build_loop_systems,
    build_preset_systems,
    load_impedance_file,
    matrix_from_json,
    matrix_to_json,
    mutual_inductance,
    partition,
    save_impedance_file,
)
from .closedform import (
    ClosedFormSolution,
    NoCouplingError,
    NonFiniteError,
    max_pte,
    mutual_q,
    optimal_load,
    output_impedance,
    solve_closed_form,
    solve_closed_forms,
    solve_min_loss_qp,
)
from .kkt import KktReport
from .oracle import IdentityReport, verify_identities
from .pims import PimEigensystem, pim_eigensystem, pim_split, port_impedance_matrices
from .pipeline import (
    LoadSearch,
    PipelineOptions,
    RelaxationError,
    SdrResult,
    full_pipeline,
    optimize_load,
    solve_relaxation,
    solve_rows,
)
from .qcqp import QcqpProblem, build_problem, evaluate, realify

__all__ = [
    "C0",
    "PRESET_FREQUENCY",
    "PRESETS",
    "ClosedFormSolution",
    "GeometryError",
    "GeometrySpec",
    "IdentityReport",
    "ImpedanceMatrix",
    "KktReport",
    "LoadSearch",
    "Loop",
    "NoCouplingError",
    "NonFiniteError",
    "PassivityError",
    "PimEigensystem",
    "PipelineOptions",
    "QcqpProblem",
    "RelaxationError",
    "SchemaError",
    "SdrResult",
    "build_loop_system",
    "build_loop_systems",
    "build_preset_systems",
    "build_problem",
    "evaluate",
    "full_pipeline",
    "load_impedance_file",
    "matrix_from_json",
    "matrix_to_json",
    "max_pte",
    "mutual_inductance",
    "mutual_q",
    "optimal_load",
    "optimize_load",
    "output_impedance",
    "partition",
    "pim_eigensystem",
    "pim_split",
    "port_impedance_matrices",
    "realify",
    "save_impedance_file",
    "solve_closed_form",
    "solve_closed_forms",
    "solve_min_loss_qp",
    "solve_relaxation",
    "solve_rows",
    "verify_identities",
    "__version__",
]
