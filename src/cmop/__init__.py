"""Solvers for complex matrix least squares in the Frobenius norm.

Unconstrained: closed form and fixed-step gradient descent. Row-power
constrained: projected gradient descent, a real-stacked mirror of it, and
an exact dual oracle. A diagnostics layer certifies every convergence
inequality and optimality condition the solvers rely on, and a small
harness generates instances, runs experiments, and exports traces.
"""

from .cmat import (
    ComplexMatrix,
    RealVector,
    adjoint_product,
    cmatrix,
    frob_norm,
    re_frob_inner,
    row_sq_norms,
    rvector,
)
from .diagnostics import (
    KktReport,
    MonitorReport,
    kkt_check,
    monitor_lemma2,
    monitor_lemma4,
    monitor_lipschitz,
    monitor_thm2,
    monitor_thm3,
)
from .errors import (
    CmopError,
    ConfigError,
    DegenerateRowError,
    DimensionError,
    InputError,
    OracleError,
    SingularSystemError,
    WorkerError,
)
from .formats import (
    gen_instance,
    instance_from_document,
    read_instance,
    write_instance,
    write_solution,
    write_trace,
)
from .harness import read_solution, run_check, run_experiment, run_solver, run_sweep
from .objective import (
    Precomputed,
    ProblemInstance,
    closed_form_unconstrained,
    evaluate,
    gradient,
    precompute,
)
from .projection import RowBall, is_feasible, project_rows, vi_residual
from .solvers import (
    IterationRecord,
    SolveResult,
    SolverConfig,
    active_set_oracle,
    gd_solve,
    per_iteration_flops,
    pgd_solve,
    real_augmented_pgd,
    resolve_alpha,
)

__version__ = "0.1.0"
