"""Standalone certifiers: optimality (KKT) report for the constrained
problem and per-iteration monitors for the solver guarantees.

Every monitor evaluates a literal inequality with an explicit additive
slack scaled to the magnitude of the quantities involved; slack constants
are named, in the function signatures or as module constants. Each returns a
:class:`MonitorReport` whose ``violations`` list one failing check per
line-item (iteration or sample index, lhs, rhs, slack).

Two monitors certify exactly instead of sampling. ``lemma4-vi`` evaluates,
for each drawn V, the projection inequality at its worst feasible probe,
so its ``worst_slack`` is the smallest worst-case value over the draws.
``lemma3-lipschitz`` proves the bound with one Cholesky factorization and
reports a single check: its ``worst_slack`` is 0.0 when the proof
succeeds and L (1 + delta) - lambda_max(G) < 0 when it fails.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cmat import (
    ComplexMatrix,
    RealVector,
    frob_norm,
    re_frob_inner,
    row_sq_norms,
    rvector,
    uniform_cmatrix,
)
from .errors import DegenerateRowError, DimensionError, InputError
from .objective import Precomputed, ProblemInstance, _check_w_shape, _residual_objective
from .projection import RowBall, project_rows
from .solvers import IterationRecord, kkt_passes, kkt_residuals_for

MONITOR_THM2 = "thm2-descent"
MONITOR_THM3_DECREASE = "thm3-decrease"
MONITOR_THM3_FEJER = "thm3-fejer"
MONITOR_LEMMA2 = "lemma2-convexity"
MONITOR_LEMMA4 = "lemma4-vi"
MONITOR_LIPSCHITZ = "lemma3-lipschitz"

# Samples the sample-based monitors evaluate together. Per-block numpy call
# overhead falls with the block, while its temporaries grow: at 16 x 10 x 8,
# lemma4 takes 0.2 ms longer per `cmop check` in blocks of 32 than of 64,
# and blocks of 128 are slower again (two draw calls each, see
# cmat._DRAW_BLOCK).
_SAMPLE_BLOCK = 64

# delta in the Lipschitz certificate's shift L (1 + delta), in units of
# N eps.
_LIPSCHITZ_SHIFT_ULPS = 64

# kkt_check's active band, as a fraction of eta, and its pass tolerance.
_KKT_ACTIVE_BAND = 1e-6
_KKT_PASS_TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class KktReport:
    """Residuals of the four optimality conditions with recovered
    multipliers.

    stationarity_residual is ||(G + Diag(lambda)) W - B||_F relative to
    ||B||_F; primal_violation, dual_violation and complementarity are the
    raw quantities max(0, max_n(||row_n||^2 - eta)), max(0, -min_n lambda_n)
    and max_n |lambda_n (||row_n||^2 - eta)|.
    """

    stationarity_residual: float
    primal_violation: float
    dual_violation: float
    complementarity: float
    lambda_hat: RealVector
    passed: bool


@dataclasses.dataclass(frozen=True)
class MonitorReport:
    """Outcome of one inequality monitor.

    ``violations`` holds (index, lhs, rhs, slack) for every failed check;
    ``worst_slack`` is the smallest margin lhs - rhs seen across all checks
    (negative margins within the slack still pass), or NaN if any margin is
    NaN.
    """

    name: str
    violations: list[tuple[int, float, float, float]]
    worst_slack: float
    passed: bool


def _build_report(name, margins_and_checks):
    """Assemble a MonitorReport from (index, lhs, rhs, slack) tuples. A
    check passes only if its margin lhs - rhs is at least -slack, so a NaN
    margin is a violation, and then ``worst_slack`` is NaN."""
    violations = []
    worst = math.inf
    for idx, lhs, rhs, slack in margins_and_checks:
        margin = lhs - rhs
        if margin < worst or math.isnan(margin):
            worst = margin
        if not margin >= -slack:
            violations.append((idx, lhs, rhs, slack))
    return MonitorReport(
        name=name,
        violations=violations,
        worst_slack=worst,
        passed=not violations,
    )


def kkt_check(
    pre: Precomputed,
    instance: ProblemInstance,
    w: ComplexMatrix,
) -> KktReport:
    """Recover multipliers from an iterate and score all four optimality
    conditions.

    A row is treated as active when its squared norm is within 1e-6 eta of
    the budget; an active row whose squared norm is at most the smallest
    normal float raises DegenerateRowError. For active rows the
    multiplier is the real projection coefficient of the negative-gradient
    row onto the iterate row; whatever part of that row is not parallel to
    the iterate lands in the stationarity residual rather than being
    dropped. ``passed`` is :func:`cmop.solvers.kkt_passes` at 1e-6.
    """
    n, k = pre.b.shape
    w = _check_w_shape(w, n, k)
    eta = instance.eta
    rs = row_sq_norms(w)
    resid = pre.b - pre.g @ w
    lam = np.zeros(n)
    for i in range(n):
        if rs[i] >= eta - _KKT_ACTIVE_BAND * eta:
            if rs[i] <= np.finfo(float).tiny:
                raise DegenerateRowError(
                    f"row {i} is active but has zero norm; multiplier unrecoverable"
                )
            lam[i] = re_frob_inner(resid[i : i + 1], w[i : i + 1]) / rs[i]

    res = kkt_residuals_for(pre, instance, w, lam)
    return KktReport(
        stationarity_residual=res["stationarity"],
        primal_violation=res["primal"],
        dual_violation=res["dual"],
        complementarity=res["complementarity"],
        lambda_hat=rvector(lam),
        passed=kkt_passes(res, eta, lam, _KKT_PASS_TOL),
    )


def _decrease_checks(trace, coeff, norm_field):
    """(iter, decrease, coeff * norm^2, 1e-9 (1 + |F(W^t)|)) per record,
    with norm the record's ``norm_field``."""
    if not trace:
        raise InputError("cannot monitor an empty trace")
    return [
        (
            rec.iter,
            rec.decrease,
            coeff * getattr(rec, norm_field) ** 2,
            1e-9 * (1.0 + abs(rec.objective)),
        )
        for rec in trace
    ]


def monitor_thm2(
    trace: list[IterationRecord], alpha: float, lipschitz: float
) -> MonitorReport:
    """Check the per-iteration descent bound of fixed-step gradient descent:
    decrease >= alpha (1 - alpha L / 2) ||grad||_F^2, with additive slack
    1e-9 (1 + |F(W^t)|)."""
    coeff = alpha * (1.0 - alpha * lipschitz / 2.0)
    return _build_report(MONITOR_THM2, _decrease_checks(trace, coeff, "grad_norm"))


def monitor_thm3(
    trace: list[IterationRecord],
    iterates: list[ComplexMatrix],
    w_opt: ComplexMatrix,
    alpha: float,
    lipschitz: float,
) -> tuple[MonitorReport, MonitorReport]:
    """Check both projected-descent guarantees along a trace.

    First report: sufficient decrease,
    decrease >= (1/alpha - L) ||W^t - W^{t+1}||_F^2.
    Second report: distance to the constrained optimum is non-increasing,
    ||W^t - W*||^2 >= ||W^{t+1} - W*||^2 + (1 - alpha L) ||W^t - W^{t+1}||^2.
    ``iterates`` must hold W^0 .. W^T aligned with the trace.
    """
    decrease_report = _build_report(
        MONITOR_THM3_DECREASE, _decrease_checks(trace, 1.0 / alpha - lipschitz, "step_norm")
    )
    if len(iterates) != len(trace) + 1:
        raise InputError(
            f"iterates must hold one more entry than the trace: "
            f"{len(iterates)} vs {len(trace)}"
        )
    w_opt = np.asarray(w_opt)
    dists = [frob_norm(it - w_opt) ** 2 for it in iterates]
    fejer_coeff = 1.0 - alpha * lipschitz
    slack = 1e-9 * (1.0 + dists[0])
    fejer_checks = (
        (
            rec.iter,
            dists[t],
            dists[t + 1] + fejer_coeff * frob_norm(iterates[t] - iterates[t + 1]) ** 2,
            slack,
        )
        for t, rec in enumerate(trace)
    )
    fejer_report = _build_report(MONITOR_THM3_FEJER, fejer_checks)
    return decrease_report, fejer_report


def _sample_checks(samples, block_checks):
    """(index, lhs, rhs, slack) for samples 0 .. samples - 1, evaluated
    _SAMPLE_BLOCK at a time.

    ``block_checks(start, stop)`` returns lhs, rhs and slack for samples
    start .. stop - 1, each an array over the block or a scalar. Blocks are
    evaluated in order as the items are consumed, so a monitor's random
    draws keep their per-sample order.
    """
    for start in range(0, samples, _SAMPLE_BLOCK):
        stop = min(start + _SAMPLE_BLOCK, samples)
        columns = (
            x.tolist() if np.ndim(x) else [float(x)] * (stop - start)
            for x in block_checks(start, stop)
        )
        yield from zip(range(start, stop), *columns)


def monitor_lemma2(
    pre: Precomputed,
    instance: ProblemInstance,
    pairs: ComplexMatrix | list[tuple[ComplexMatrix, ComplexMatrix]],
) -> MonitorReport:
    """Check first-order convexity on the given pairs:
    F(W) >= F(W') + Re<W - W', grad F(W')>, slack 1e-9 (1 + |F(W)|).

    ``pairs`` is anything ``np.asarray`` turns into a P x 2 x N x K array
    (pair p is ``(pairs[p][0], pairs[p][1]) = (W, W')``), such as a list of
    (W, W') tuples.
    """
    pairs = np.asarray(pairs)
    n, k = pre.b.shape
    if pairs.ndim != 4 or pairs.shape[1:] != (2, n, k):
        raise DimensionError(f"pairs must be P x 2 x {n} x {k}, got {pairs.shape}")

    def block_checks(start, stop):
        w, wt = pairs[start:stop, 0], pairs[start:stop, 1]
        f_w = _residual_objective(instance, w)
        lin = re_frob_inner(w - wt, pre.g @ wt - pre.b)
        return f_w, _residual_objective(instance, wt) + lin, 1e-9 * (1.0 + np.abs(f_w))

    return _build_report(MONITOR_LEMMA2, _sample_checks(len(pairs), block_checks))


def monitor_lipschitz(g: ComplexMatrix, lipschitz: float) -> MonitorReport:
    """Prove ||H d||^2 <= L (1 + delta) ||d||^2 for every d, i.e.
    lambda_max(G) <= L (1 + delta), for the Gram matrix G = H^H H of
    ``precompute`` (finite, as precompute checks).

    One ``np.linalg.cholesky`` of L (1 + delta) I - G succeeds only if that
    matrix is positive definite. delta = _LIPSCHITZ_SHIFT_ULPS N eps covers
    the backward errors of the factorization and of the eigensolve that
    computed L. A shifted matrix that is exactly zero (G = 0, L = 0) is
    semidefinite, so the bound holds. The report holds one check,
    (0, L (1 + delta), top, 0.0): top equals the bound when the proof
    succeeds, so worst_slack is 0.0; when it fails, top is lambda_max(G)
    from ``eigvalsh``, raised to just above the bound should the two
    disagree at rounding level. A non-finite L (1 + delta) raises
    InputError.
    """
    n = g.shape[0]
    bound = lipschitz * (1.0 + _LIPSCHITZ_SHIFT_ULPS * n * math.ulp(1.0))
    if not math.isfinite(bound):  # a NaN factor would pass unnoticed
        raise InputError(f"need a finite L, got L = {lipschitz}")
    shifted = bound * np.eye(n) - g
    try:
        if shifted.any():
            np.linalg.cholesky(shifted)
        top = bound
    except np.linalg.LinAlgError:
        top = max(float(np.linalg.eigvalsh(g)[-1]), math.nextafter(bound, math.inf))
    return _build_report(MONITOR_LIPSCHITZ, [(0, bound, top, 0.0)])


def monitor_lemma4(
    ball: RowBall,
    n: int,
    k: int,
    samples: int,
    seed: int,
    v_scale: float,
) -> MonitorReport:
    """Check the projection's variational inequality at its worst feasible
    probe for ``samples`` random points V.

    Each V has entries uniform in real and imaginary part over
    [-v_scale, v_scale]. With P = project_rows(V) and D = V - P, the
    smallest value of Re<P - W, D> over the ball is
    Re<P, D> - r sum_n ||D_n||, reached at W_n = r D_n / ||D_n||. The
    check requires that value >= -1e-12 ||V||_F^2, so worst_slack is the
    smallest worst-case value over the draws. The slack scales with the
    data and has no absolute floor, so a wrong projection shows at any
    radius. A block of S samples is one ``uniform_cmatrix`` draw of
    S x N x K, the stream a per-sample loop would draw.
    """
    if samples < 1:
        raise InputError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)

    def block_checks(start, stop):
        v = uniform_cmatrix(rng, v_scale, (stop - start, n, k))
        p = project_rows(v, ball)
        d = v - p
        support = ball.radius * np.sqrt(row_sq_norms(d)).sum(axis=-1)
        return re_frob_inner(p, d) - support, 0.0, 1e-12 * re_frob_inner(v, v)

    return _build_report(MONITOR_LEMMA4, _sample_checks(samples, block_checks))


# --------------------------------------------------------------------------
# Plain-text serialization consumed by the command-line harness
# --------------------------------------------------------------------------


def monitor_report_lines(report: MonitorReport) -> list[str]:
    """Render a monitor report: a summary line, then one violation per line
    as 'violation <name> <index> <lhs> <rhs> <slack>'."""
    status = "passed" if report.passed else "FAILED"
    lines = [
        f"monitor {report.name} {status} "
        f"violations={len(report.violations)} worst_slack={float(report.worst_slack)!r}"
    ]
    for idx, lhs, rhs, slack in report.violations:
        lines.append(
            f"violation {report.name} {idx} {float(lhs)!r} {float(rhs)!r} {float(slack)!r}"
        )
    return lines


def kkt_report_lines(report: KktReport) -> list[str]:
    """Render a KKT report as one line per residual plus the multipliers."""
    status = "passed" if report.passed else "FAILED"
    return [
        f"kkt {status} stationarity={report.stationarity_residual!r} "
        f"primal={report.primal_violation!r} dual={report.dual_violation!r} "
        f"complementarity={report.complementarity!r}",
        "kkt lambda_hat " + " ".join(repr(float(x)) for x in report.lambda_hat),
    ]
