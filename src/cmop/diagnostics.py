"""Standalone certifiers: optimality (KKT) report for the constrained
problem and per-iteration monitors for the solver guarantees.

Every monitor evaluates a literal inequality with an explicit additive
slack scaled to the magnitude of the quantities involved; slack constants
live in the function signatures, not hidden inside. Each returns a
:class:`MonitorReport` whose ``violations`` list one failing check per
line-item (iteration or sample index, lhs, rhs, slack).
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
from .projection import RowBall, project_rows, vi_residual
from .solvers import IterationRecord, kkt_residuals_for

MONITOR_THM2 = "thm2-descent"
MONITOR_THM3_DECREASE = "thm3-decrease"
MONITOR_THM3_FEJER = "thm3-fejer"
MONITOR_LEMMA2 = "lemma2-convexity"
MONITOR_LEMMA4 = "lemma4-vi"
MONITOR_LIPSCHITZ = "lemma3-lipschitz"

# Samples the sample-based monitors evaluate together. Per-block numpy call
# overhead falls with the block, while its temporaries grow: at 16 x 10 x 8,
# blocks of 16 cost 0.8 ms more per `cmop check` than 32, and blocks of 64
# raise peak RSS by 0.3 MB over 32 for 0.4 ms less.
_SAMPLE_BLOCK = 32


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
    (negative margins within the slack still pass).
    """

    name: str
    violations: list[tuple[int, float, float, float]]
    worst_slack: float
    passed: bool


def _build_report(name, margins_and_checks):
    """Assemble a MonitorReport from (index, lhs, rhs, slack) tuples."""
    violations = []
    worst = math.inf
    for idx, lhs, rhs, slack in margins_and_checks:
        margin = lhs - rhs
        worst = min(worst, margin)
        if margin < -slack:
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
    active_tol: float | None = None,
    pass_tol: float = 1e-6,
) -> KktReport:
    """Recover multipliers from an iterate and score all four optimality
    conditions.

    A row is treated as active when its squared norm is within
    ``active_tol`` (default 1e-6 eta) of the budget. For active rows the
    multiplier is the real projection coefficient of the negative-gradient
    row onto the iterate row; whatever part of that row is not parallel to
    the iterate lands in the stationarity residual rather than being
    dropped. ``passed`` requires stationarity <= pass_tol,
    primal <= pass_tol * eta, and dual/complementarity <= pass_tol scaled
    by max(1, max lambda) (times eta for complementarity).
    """
    n, k = pre.b.shape
    w = _check_w_shape(w, n, k)
    eta = instance.eta
    if active_tol is None:
        active_tol = 1e-6 * eta
    rs = row_sq_norms(w)
    resid = pre.b - pre.g @ w
    lam = np.zeros(n)
    for i in range(n):
        if rs[i] >= eta - active_tol:
            if rs[i] <= np.finfo(float).tiny:
                raise DegenerateRowError(
                    f"row {i} is active but has zero norm; multiplier unrecoverable"
                )
            lam[i] = re_frob_inner(resid[i : i + 1], w[i : i + 1]) / rs[i]

    res = kkt_residuals_for(pre, instance, w, lam)
    lam_scale = max(1.0, float(np.max(lam, initial=0.0)))
    passed = (
        res["stationarity"] <= pass_tol
        and res["primal"] <= pass_tol * eta
        and res["dual"] <= pass_tol * lam_scale
        and res["complementarity"] <= pass_tol * eta * lam_scale
    )
    return KktReport(
        stationarity_residual=res["stationarity"],
        primal_violation=res["primal"],
        dual_violation=res["dual"],
        complementarity=res["complementarity"],
        lambda_hat=rvector(lam),
        passed=passed,
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


def monitor_lipschitz(
    h: ComplexMatrix,
    lipschitz: float,
    samples: int,
    seed: int,
) -> MonitorReport:
    """Probe ||H d||^2 <= L ||d||^2 with seeded random complex directions d
    (N x 1).

    Each check compares the bound L (1 + 1e-8) against the observed
    Rayleigh ratio, so the report's worst_slack recovers the tightest ratio
    seen: tightest = L (1 + 1e-8) - worst_slack. A block of S directions is
    drawn as ``standard_normal((S, 2, N))``: per direction, the real parts,
    then the imaginary parts, the order a per-sample loop would draw them.
    """
    if samples < 1:
        raise InputError(f"need at least one sample, got {samples}")
    h = np.asarray(h)
    n = h.shape[1]
    rng = np.random.default_rng(seed)
    bound = lipschitz * (1.0 + 1e-8)

    def block_checks(start, stop):
        parts = rng.standard_normal((stop - start, 2, n))
        d = (parts[:, 0] + 1j * parts[:, 1])[..., None]
        hd = h @ d
        return bound, re_frob_inner(hd, hd) / re_frob_inner(d, d), 0.0

    return _build_report(MONITOR_LIPSCHITZ, _sample_checks(samples, block_checks))


def monitor_lemma4(
    ball: RowBall,
    n: int,
    k: int,
    samples: int,
    seed: int,
    v_scale: float,
) -> MonitorReport:
    """Monte-Carlo check of the projection's variational inequality.

    Draws ``samples`` pre-projection points V and probes (projected to be
    feasible) W with entries uniform in real and imaginary part over
    [-v_scale, v_scale], and requires Re<P(V) - W, V - P(V)> >= -1e-10 on
    every triple. A block of S samples is one ``uniform_cmatrix`` draw of
    S x 2 x N x K: per sample, V then the probe, each real parts first,
    the order a per-sample loop would draw them.
    """
    if samples < 1:
        raise InputError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)

    def block_checks(start, stop):
        draws = uniform_cmatrix(rng, v_scale, (stop - start, 2, n, k))
        projected = project_rows(draws, ball)
        return vi_residual(projected[:, 0], draws[:, 0], projected[:, 1]), 0.0, 1e-10

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
        f"violations={len(report.violations)} worst_slack={report.worst_slack!r}"
    ]
    for idx, lhs, rhs, slack in report.violations:
        lines.append(f"violation {report.name} {idx} {lhs!r} {rhs!r} {slack!r}")
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
