"""Radial heat conduction in multilayer cylinders, solved the banded way.

Second-order finite differences on an uneven mesh with nodes on every layer
interface lead to a pentadiagonal system that is neither diagonally dominant
nor definite.  This package provides the full pipeline: mesh and material
handling, system assembly, diagonal dominance shifts, a band-preserving
reduction to tridiagonal form, three counted numerical solvers, two exact
rational solvers that survive zero pivots, implicit time stepping, and a
benchmark harness with a CLI (``radialheat``).
"""

from .mesh import (LayerSpec, RadialMesh, build_mesh, MeshDomainError,
                   MeshSpacingError, MeshStructureError)
from .materials import MaterialDomainError, MaterialModel, Polynomial
from .assembly import (LinearSystem, PentaMatrix, StencilError, TriMatrix,
                       assemble_contact_row, assemble_neumann_rows,
                       assemble_system, contact_conductivities)
from .conditioning import (ReductionBreakdownError, ShiftDiag, build_pd_shift,
                           build_td_shift, pd_to_td)
from .band_solvers import (SOLVERS, BreakdownError, SolveReport,
                           solve_pd_lu, solve_pd_modified, solve_td_thomas)
from .exact_solvers import (ExactInputError, SingularMatrixError,
                            exact_solve_pd, exact_solve_td)
from .time_stepper import (NonConvergenceError, StepConfig, TemperatureField,
                           advance, run)
from .bench import (BenchRow, BenchScenario, ConvergenceReport,
                    ManufacturedSolution, bench, build_bench_case,
                    convergence_study, default_layers, emit,
                    make_random_system, manufactured_single_layer,
                    manufactured_two_layer, verify_op_counts)
from .config import ConfigError, load_config

__version__ = "0.1.0"
