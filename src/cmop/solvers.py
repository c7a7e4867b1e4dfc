"""Fixed-step solvers for the unconstrained and row-power-constrained
least-squares problems.

Contains plain gradient descent, projected gradient descent on the row
ball, a mirror of the projected method that iterates on the stacked
real/imaginary representation (doubled real dimension), and an exact
oracle that solves the constrained problem to optimality by projected
Newton ascent on its Lagrange dual, one Cholesky factorization per trial
point. One fixed-step kernel serves all three iterative methods, on
complex or real-stacked data.

Flop accounting
---------------
Per-iteration work is reported as a deterministic estimate: the gradient
matmul contributes N^2 K complex multiply-adds and the iterate update N K,
each counted as 8 real flops (4 multiplies + 4 adds), i.e.
``8 N K (N + 1)`` per iteration. Projection comparisons, norms and stopping
bookkeeping are excluded as lower-order terms. Under the same convention
the real-stacked mirror performs 4 real multiply-adds (2 flops each) per
complex one, so its per-iteration count is identical.
"""

from __future__ import annotations

import dataclasses
import time
import warnings

import numpy as np

from .cmat import ComplexMatrix, cmatrix, frob_norm, row_sq_norms
from .errors import (
    ConfigError,
    InputError,
    OracleError,
    SingularSystemError,
)
from .objective import (
    Precomputed,
    ProblemInstance,
    _check_w_shape,
    _residual_objective,
    quad_objective_constant,
)
from .projection import _BOUNDARY_BAND, RowBall, project_rows

STOP_DECREASE = "decrease-below-tau"
STOP_MAX_ITER = "max-iter"
STOP_DIVERGED = "diverged"
STOP_KKT = "kkt-certified"

# Objective blow-up factor beyond which a run is declared divergent.
_DIVERGENCE_FACTOR = 1e6


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Step-size policy, stopping rule, and trace options.

    ``alpha`` is either a positive float (fixed step) or a string ``f<frac>``
    with frac in (0, 1), resolved as that fraction of the mode's guaranteed
    step interval: (0, 2/L) for plain descent, (0, 1/L) for the projected
    method. ``tau`` is the stopping tolerance on the per-iteration
    objective decrease. ``time_iterations`` opts into wall-clock timing per
    iteration; it is off by default so traces are bit-reproducible.
    """

    alpha: float | str
    tau: float = 1e-12
    max_iter: int = 100_000
    record_trace: bool = True
    record_iterates: bool = False
    time_iterations: bool = False

    def __post_init__(self):
        if not (isinstance(self.tau, (int, float)) and self.tau > 0.0):
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclasses.dataclass(frozen=True)
class IterationRecord:
    """One solver step: objective is F(W^t) before the step, decrease is
    F(W^t) - F(W^{t+1}), grad_norm is ||grad F(W^t)||_F, step_norm is
    ||W^{t+1} - W^t||_F."""

    iter: int
    objective: float
    decrease: float
    grad_norm: float
    step_norm: float
    flops: int
    elapsed_ns: int


@dataclasses.dataclass
class SolveResult:
    """Solver output. ``trace`` is empty when recording was disabled;
    ``iterates`` holds W^0 .. W^T when iterate recording was requested."""

    w_final: ComplexMatrix
    objective: float
    iterations: int
    converged: bool
    stop_reason: str
    trace: list[IterationRecord]
    iterates: list[ComplexMatrix] | None = None


def per_iteration_flops(n: int, k: int) -> int:
    """Documented per-iteration arithmetic estimate: 8 N K (N + 1)."""
    return 8 * n * k * (n + 1)


def guaranteed_interval_sup(lipschitz: float, mode: str) -> float:
    """Upper end of the step interval with a convergence guarantee."""
    if mode == "gd":
        return 2.0 / lipschitz
    if mode == "pgd":
        return 1.0 / lipschitz
    raise ConfigError(f"unknown step-size mode {mode!r} (expected 'gd' or 'pgd')")


def step_fraction(spec: str) -> float:
    """The fraction of an ``f<frac>`` step policy, checked to lie in (0, 1)."""
    if not spec.startswith("f"):
        raise ConfigError(f"step policy string must look like 'f0.9', got {spec!r}")
    try:
        frac = float(spec[1:])
    except ValueError as exc:
        raise ConfigError(f"step size must be a number or f<fraction>, got {spec!r}") from exc
    if not 0.0 < frac < 1.0:
        raise ConfigError(f"step fraction must lie in (0, 1), got {frac}")
    return frac


def resolve_alpha(config: SolverConfig, lipschitz: float, mode: str) -> float:
    """Turn the configured step policy into a concrete step size.

    Fixed values are returned verbatim; values at or beyond the mode's
    guaranteed interval trigger a warning but proceed. Fraction policies
    ``f<frac>`` return frac times the interval's upper end.
    """
    if not lipschitz > 0.0:
        raise ConfigError(f"lipschitz must be positive to resolve a step, got {lipschitz}")
    sup = guaranteed_interval_sup(lipschitz, mode)
    spec = config.alpha
    if isinstance(spec, str):
        return step_fraction(spec) * sup
    alpha = float(spec)
    if not alpha > 0.0:
        raise ConfigError(f"fixed step size must be positive, got {alpha}")
    if alpha >= sup:
        warnings.warn(
            f"fixed step {alpha:g} is outside the guaranteed interval "
            f"(0, {sup:g}) for mode {mode!r}; proceeding anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    return alpha


def _quad_value(w, gw, b, const):
    """M-free objective via the cached quadratic form."""
    return 0.5 * float(np.vdot(w, gw).real) - float(np.vdot(w, b).real) + const


def _fixed_step_loop(w, g, b, const, alpha, flops, config, project, to_complex):
    """The fixed-step iteration W <- P(W - alpha (G W - B)) behind every
    iterative solver.

    ``w``, ``g`` and ``b`` share one representation, complex or
    real-stacked, in which F(W) = 1/2 Re<W, G W> - Re<W, B> + const.
    ``project`` (None for plain descent) is applied to the start and after
    every step; ``to_complex`` maps an iterate to a new complex matrix for
    the result. ``flops`` is the per-iteration count recorded in the trace.
    """
    if project is not None:
        w = project(w)
    gw = g @ w
    f = _quad_value(w, gw, b, const)
    if not np.isfinite(f):
        raise InputError("objective is non-finite at the initial iterate")
    f_start = f
    trace: list[IterationRecord] = []
    iterates: list[ComplexMatrix] | None = None
    if config.record_iterates:
        iterates = [to_complex(w)]

    stop_reason = STOP_MAX_ITER
    iterations = 0
    for t in range(config.max_iter):
        t0 = time.perf_counter_ns() if config.time_iterations else 0
        grad = gw - b
        grad_norm = frob_norm(grad)
        w_next = w - alpha * grad
        if project is not None:
            w_next = project(w_next)
        delta = w_next - w
        gw_next = g @ w_next
        # Exact per-step decrease of the quadratic: differencing two
        # near-equal objective values would bottom out at their ulp long
        # before the iterates stop improving.
        decrease = -float(np.vdot(grad, delta).real) - 0.5 * float(
            np.vdot(delta, gw_next - gw).real
        )
        gw = gw_next
        f_next = _quad_value(w_next, gw, b, const)
        step_norm = frob_norm(delta)
        elapsed = time.perf_counter_ns() - t0 if config.time_iterations else 0
        if config.record_trace:
            trace.append(IterationRecord(t, f, decrease, grad_norm, step_norm, flops, elapsed))
        if iterates is not None:
            iterates.append(to_complex(w_next))
        w, f = w_next, f_next
        iterations = t + 1
        if not np.isfinite(f) or f > _DIVERGENCE_FACTOR * f_start:
            stop_reason = STOP_DIVERGED
            break
        if decrease < config.tau:
            stop_reason = STOP_DECREASE
            break

    return SolveResult(
        w_final=to_complex(w),
        objective=f,
        iterations=iterations,
        converged=stop_reason == STOP_DECREASE,
        stop_reason=stop_reason,
        trace=trace,
        iterates=iterates,
    )


def _complex_loop(pre, instance, w0, config, ball, mode):
    """The shared loop on the complex data G, B of ``pre``."""
    n, k = pre.b.shape
    w = cmatrix(_check_w_shape(w0, n, k))
    alpha = resolve_alpha(config, pre.lipschitz, mode)
    # project_rows is looked up at call time, so a wrapper installed on this
    # module (a profiler's, say) sees every projection.
    project = None if ball is None else (lambda x: project_rows(x, ball))
    const = quad_objective_constant(instance)
    return _fixed_step_loop(
        w, pre.g, pre.b, const, alpha, per_iteration_flops(n, k), config, project, np.copy
    )


def gd_solve(
    pre: Precomputed,
    instance: ProblemInstance,
    w0: ComplexMatrix,
    config: SolverConfig,
) -> SolveResult:
    """Fixed-step gradient descent W <- W - alpha (G W - B).

    Converges to the unconstrained optimum for alpha in (0, 2/L). Stops when
    the objective decrease falls below tau, at max_iter, or on divergence
    (objective above 1e6 times its initial value, or non-finite).
    """
    return _complex_loop(pre, instance, w0, config, ball=None, mode="gd")


def pgd_solve(
    pre: Precomputed,
    instance: ProblemInstance,
    w0: ComplexMatrix,
    ball: RowBall,
    config: SolverConfig,
) -> SolveResult:
    """Projected gradient descent: gradient step, then per-row projection.

    w0 is projected on entry if infeasible, so every iterate is feasible.
    Convergence is guaranteed for alpha in (0, 1/L); the stopping rules
    match gd_solve.
    """
    return _complex_loop(pre, instance, w0, config, ball=ball, mode="pgd")


def _stack_real(w):
    """[Re W ; Im W] as a contiguous float64 array (2N x K)."""
    return np.ascontiguousarray(np.vstack([np.asarray(w).real, np.asarray(w).imag]))


def _unstack_real(u, n):
    return np.ascontiguousarray(u[:n] + 1j * u[n:])


def _project_stacked(u, n, ball):
    """Row-ball projection in the stacked representation: original row i
    couples stacked rows i and n + i."""
    r = ball.radius
    rs = np.einsum("ij,ij->i", u[:n], u[:n]) + np.einsum("ij,ij->i", u[n:], u[n:])
    ell = np.sqrt(rs)
    mask = (ell - r) > _BOUNDARY_BAND
    if not np.any(mask):
        return u.copy()
    out = u.copy()
    scale = (r / ell[mask])[:, None]
    out[:n][mask] = u[:n][mask] * scale
    out[n:][mask] = u[n:][mask] * scale
    return out


def real_augmented_pgd(
    pre: Precomputed,
    instance: ProblemInstance,
    w0: ComplexMatrix,
    ball: RowBall,
    config: SolverConfig,
) -> SolveResult:
    """Projected gradient descent on the stacked real representation.

    The variable is u = [Re W ; Im W] and the data are the real-stacked
    counterparts of H and A, so the whole iteration runs in a real space of
    doubled dimension. It runs the same loop as ``pgd_solve`` on that data,
    so iterates map back to the complex ones up to floating-point
    reordering. ``pre`` is only used to resolve fraction step policies
    against the same L as the complex route.
    """
    n, k = instance.n, instance.k
    w0 = cmatrix(_check_w_shape(w0, n, k))
    alpha = resolve_alpha(config, pre.lipschitz, "pgd")

    h = instance.h
    hr = np.block([[h.real, -h.imag], [h.imag, h.real]])
    ar = _stack_real(instance.a)
    # Not quad_objective_constant: that sums the complex entries in another
    # order, and the stacked route keeps its own last bits.
    const = 0.5 * float(np.vdot(ar, ar).real)
    return _fixed_step_loop(
        _stack_real(w0), hr.T @ hr, hr.T @ ar, const, alpha, per_iteration_flops(n, k),
        config, lambda u: _project_stacked(u, n, ball), lambda u: _unstack_real(u, n),
    )


# --------------------------------------------------------------------------
# Exact dual oracle
# --------------------------------------------------------------------------

# Armijo fraction of the predicted dual ascent a step must achieve, and the
# most halvings tried along one projected arc.
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
# G counts as singular when a squared Cholesky pivot is at most this
# fraction of its largest diagonal entry; the proximal weight mu used then,
# relative to that entry.
_SINGULAR_PIVOT = 1e-10
_PROX_WEIGHT = 1e-3
# Certificate tolerance on the scaled residuals, and the budget of Cholesky
# factorizations per oracle call.
_ORACLE_TOL = 1e-10
_ORACLE_BUDGET = 200


def kkt_residuals_for(pre, instance, w, lam):
    """The four raw optimality residuals for an explicit multiplier vector.

    Returns a dict with keys stationarity (||(G + Diag(lam)) W - B||_F
    relative to ||B||_F, absolute when B = 0), primal
    (max(0, max_n(||row_n||^2 - eta))), dual (max(0, -min_n lam_n)) and
    complementarity (max_n |lam_n (||row_n||^2 - eta)|).
    """
    eta = instance.eta
    rs = row_sq_norms(w)
    stat = frob_norm((pre.g + np.diag(lam)) @ w - pre.b)
    b_norm = frob_norm(pre.b)
    return {
        "stationarity": stat / b_norm if b_norm > 0.0 else stat,
        "primal": max(0.0, float(np.max(rs - eta))),
        "dual": max(0.0, -float(np.min(lam))),
        "complementarity": float(np.max(np.abs(lam * (rs - eta)))),
    }


def _dual_point(g, b, eta, lam, pivot_floor=0.0):
    """W(lam) = (G + Diag lam)^{-1} B with M = (G + Diag lam)^{-1} and the
    dual value -1/2 (Re<B, W> + eta sum(lam)) (the constant 1/2 ||A||^2
    left out), from one Cholesky factor; None when G + Diag lam is not
    positive definite, a squared pivot is at most ``pivot_floor`` or the
    inverse overflows."""
    try:
        chol = np.linalg.cholesky(g + np.diag(lam))
        if np.min(np.abs(np.diag(chol))) ** 2 <= pivot_floor:
            return None
        lower_inv = np.linalg.inv(chol)
    except np.linalg.LinAlgError:
        return None
    upper_inv = lower_inv.conj().T
    m = upper_inv @ lower_inv
    y = lower_inv @ b
    w = upper_inv @ y
    value = -0.5 * (float(np.vdot(y, y).real) + eta * float(np.sum(lam)))
    if not (np.isfinite(value) and np.isfinite(m).all() and np.isfinite(w).all()):
        return None
    return w, m, value


def _newton_direction(w, m, grad, free):
    """Dual Newton step on the free coordinates: Re(M o P^T)_FF d = grad_F
    with P = W W^H, by least squares when that block is singular. A free
    multiplier whose row of W vanishes has no curvature; its direction is
    -inf, which the projection turns into a move to zero."""
    wf = w[free]
    curv = np.real(m[np.ix_(free, free)] * (wf @ wf.conj().T).conj())
    g = grad[free]
    try:
        # Solved in complex arithmetic: a real solve would load a second
        # set of LAPACK routines, about 0.3 MB more resident memory.
        step = np.linalg.solve(curv.astype(complex), g.astype(complex)).real
    except np.linalg.LinAlgError:
        step = np.linalg.lstsq(curv, g, rcond=None)[0]
    flat = np.diag(curv) <= 0.0
    step[flat] = np.where(g[flat] < 0.0, -np.inf, 0.0)
    d = np.zeros_like(grad)
    d[free] = step
    return d


def _dual_ascent(g, b, eta, lam, point, tol, budget):
    """Projected Newton ascent on the dual of min 1/2 Re<W, G W> - Re<W, B>
    subject to ||row_n W||^2 <= eta, from ``lam`` and its ``point``.

    Each step takes the Newton direction on the free set {lambda > 0} or
    {gradient > 0}, projects onto lambda >= 0 and halves along the
    projected arc until the dual value rises by an Armijo fraction. From
    lambda = 0 with W(0) infeasible it first jumps to the multipliers that
    would be exact for a diagonal G (row n of W is then
    b_n / (g_nn + lambda_n)). Stops once every free row sits within ``tol``
    eta of the budget, when no step ascends, or after ``budget``
    factorizations. Returns (lambda, point, factorizations).
    """
    used = 0
    start = np.sqrt(row_sq_norms(b) / eta) - np.real(np.diag(g))
    if not np.any(lam) and np.max(row_sq_norms(point[0])) > eta and np.max(start) > 0.0:
        start = np.maximum(start, 0.0)
        found = _dual_point(g, b, eta, start)
        used += 1
        if found is not None:
            lam, point = start, found

    while used < budget:
        w, m, value = point
        grad = 0.5 * (row_sq_norms(w) - eta)
        free = (lam > 0.0) | (grad > 0.0)
        if np.max(np.abs(grad[free]), initial=0.0) <= 0.5 * tol * eta:
            break
        d = _newton_direction(w, m, grad, free)
        slack = 1e-14 * abs(value)
        accepted = None
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            if used >= budget:
                break
            trial = np.maximum(lam + t * d, 0.0)
            found = _dual_point(g, b, eta, trial)
            used += 1
            if found is not None and (
                found[2] >= value + _ARMIJO * float(grad @ (trial - lam)) - slack
            ):
                accepted = trial, found
                break
            t *= 0.5
        if accepted is None:
            break
        lam, point = accepted
    return lam, point, used


def _scaled_residuals(pre, instance, w, lam):
    """The four residuals, primal over eta and complementarity over
    eta max(1, max lambda)."""
    res = kkt_residuals_for(pre, instance, w, lam)
    res["primal"] /= instance.eta
    res["complementarity"] /= instance.eta * max(1.0, float(np.max(lam, initial=0.0)))
    return res


def active_set_oracle(pre: Precomputed, instance: ProblemInstance) -> SolveResult:
    """Exact solver for the row-power-constrained problem by projected
    Newton ascent on its concave Lagrange dual over lambda >= 0.

    For multipliers lambda the Lagrangian minimizer is
    W(lambda) = (G + Diag lambda)^{-1} B; the dual gradient is
    1/2 (||row_n W(lambda)||^2 - eta) and its Hessian -Re(M o P^T) with
    M = (G + Diag lambda)^{-1} and P = W W^H. Each step solves the Newton
    system on the free set {lambda > 0} or {gradient > 0} (see
    ``_dual_ascent``) at the cost of one Cholesky factorization per trial
    point; ``iterations`` returns the number of factorizations, at most
    ``_ORACLE_BUDGET``.

    A numerically singular G (N > M, or dependent columns of H) leaves the
    dual non-smooth where the multipliers of the rows spanning its null
    space vanish. Then the ascent runs on proximal steps instead:
    W_{j+1} = argmin F(W) + mu/2 ||W - W_j||^2 over the row ball, whose
    G + mu I is well conditioned, until W_j is optimal for the original
    problem.

    The result is certified before it is returned: the four optimality
    residuals at (W, lambda), primal divided by eta and complementarity by
    eta max(1, max lambda), must all be <= ``_ORACLE_TOL``; otherwise
    ``OracleError`` carries the last W, lambda and residuals.
    """
    eta = instance.eta
    lam = np.zeros(pre.b.shape[0])
    top = max(float(np.max(np.real(np.diag(pre.g)))), np.finfo(float).tiny)
    point = _dual_point(pre.g, pre.b, eta, lam, pivot_floor=_SINGULAR_PIVOT * top)
    factorizations = 1
    if point is not None:
        lam, point, used = _dual_ascent(
            pre.g, pre.b, eta, lam, point, _ORACLE_TOL, _ORACLE_BUDGET - factorizations
        )
        factorizations += used
        w = point[0]
        res = _scaled_residuals(pre, instance, w, lam)
    else:
        mu = _PROX_WEIGHT * top
        g = pre.g + mu * np.eye(len(lam))
        w = np.zeros_like(pre.b)
        while True:
            b = pre.b + mu * w
            point = _dual_point(g, b, eta, lam)
            factorizations += 1
            if point is None:
                raise SingularSystemError("G + mu I is not positive definite")
            # Inner solves tighter than the certificate, so the proximal
            # steps and not their rounding decide when W_j is optimal.
            lam, point, used = _dual_ascent(
                g, b, eta, lam, point, 1e-2 * _ORACLE_TOL, _ORACLE_BUDGET - factorizations
            )
            factorizations += used
            w = point[0]
            res = _scaled_residuals(pre, instance, w, lam)
            if max(res.values()) <= _ORACLE_TOL or factorizations >= _ORACLE_BUDGET:
                break

    if max(res.values()) > _ORACLE_TOL:
        raise OracleError(
            f"the dual ascent stopped after {factorizations} factorizations without "
            f"meeting the optimality conditions within {_ORACLE_TOL:g}; residuals: {res}",
            best_w=w,
            best_lambda=lam,
            best_residuals=res,
        )
    return SolveResult(
        w_final=w,
        objective=_residual_objective(instance, w),
        iterations=factorizations,
        converged=True,
        stop_reason=STOP_KKT,
        trace=[],
    )
