"""Trust-region methods with scaled radii and potentially unbounded model
Hessians: solver, worst-case instance generation, complexity calculators,
and a benchmarking harness."""

from .adversarial import (
    AdversarialInstance,
    AdversarialSpec,
    Interpolant1D,
    build_interpolant,
    generate,
    k_epsilon,
    verify_sharpness,
)
from .bench import CostMatrix, RunSpec, performance_profile, run_matrix
from .bounds import (
    AuditResult,
    BoundInputs,
    LogBound,
    audit_run,
    bound_successful,
    bound_total_k,
    bound_unsuccessful,
    choose_tau,
    kappa1,
    measure_envelope,
    xi_beta,
)
from .driver import (
    IterationLog,
    SolveReport,
    TrParams,
    a_k,
    check_run_invariants,
    log_to_csv,
    solve,
    theoretical_a_min,
)
from .hessians import (
    ExactHessian,
    HessianModel,
    LbfgsModel,
    Lsr1Model,
    ScriptedModel,
    ZeroModel,
    build_model,
)
from .problems import EvalCounter, Problem, builtin_collection, check_gradient, get_problem
from .subproblem import StepResult, effective_radius, newton_step_1d, solve_tcg

__version__ = "0.1.0"
