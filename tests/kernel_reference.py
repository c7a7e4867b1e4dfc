"""The fixed-step kernel and the row projections as they were before the
kernel was trimmed to fewer numpy calls per iteration.

Used only to cross-check that trimmed kernel bit for bit: ``installed()``
puts these functions in place of ``cmop.solvers._fixed_step_loop``,
``cmop.solvers.project_rows`` and ``cmop.solvers._project_stacked`` for
the length of a ``with`` block, so the public solvers run their own set-up
around the reference kernel. ``frob_norm`` and ``row_sq_norms`` are kept
here in their old form as well, since the trimmed code changed them too.
"""

import contextlib
import time
from unittest import mock

import numpy as np

import cmop.solvers as solvers
from cmop.errors import DimensionError, InputError
from cmop.projection import _BOUNDARY_BAND
from cmop.solvers import (
    _DIVERGENCE_FACTOR,
    _RISE_FLOOR,
    STOP_DECREASE,
    STOP_DIVERGED,
    STOP_MAX_ITER,
    IterationRecord,
    SolveResult,
)


@contextlib.contextmanager
def installed():
    """Run the public solvers on the reference kernel inside the block."""
    with (
        mock.patch.object(solvers, "_fixed_step_loop", _fixed_step_loop),
        mock.patch.object(solvers, "project_rows", project_rows),
        mock.patch.object(solvers, "_project_stacked", _project_stacked),
    ):
        yield


def frob_norm(x):
    x = np.asarray(x)
    return float(np.sqrt(max(np.vdot(x, x).real, 0.0)))


def row_sq_norms(w):
    w = np.asarray(w)
    re = np.ascontiguousarray(w.real)
    im = np.ascontiguousarray(w.imag)
    return np.einsum("...j,...j->...", re, re) + np.einsum("...j,...j->...", im, im)


def project_rows(w, ball):
    w = np.asarray(w)
    if w.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of matrices, got ndim={w.ndim}")
    r = ball.radius
    ell = np.sqrt(row_sq_norms(w))
    mask = (ell - r) > _BOUNDARY_BAND
    if not np.any(mask):
        return w.copy()
    out = w.copy() if w.dtype.kind in "fc" else w.astype(np.float64)
    parts = out.view(out.real.dtype)
    parts *= np.where(mask, r / np.maximum(ell, r), 1.0)[..., None]
    return out


def _project_stacked(u, n, ball):
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


def _quad_value(w, gw, b, const):
    return 0.5 * float(np.vdot(w, gw).real) - float(np.vdot(w, b).real) + const


def _fixed_step_loop(w, g, b, const, alpha, flops, config, project, to_complex):
    if project is not None:
        w = project(w)
    gw = g @ w
    f = _quad_value(w, gw, b, const)
    if not np.isfinite(f):
        raise InputError("objective is non-finite at the initial iterate")
    f_start = f
    trace = []
    iterates = None
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
        decrease = -float(np.vdot(grad, delta).real) - 0.5 * float(
            np.vdot(delta, gw_next - gw).real
        )
        gw = gw_next
        f_next = _quad_value(w_next, gw, b, const)
        step_norm = frob_norm(delta)
        elapsed = time.perf_counter_ns() - t0 if config.time_iterations else 0
        trace.append(IterationRecord(t, f, decrease, grad_norm, step_norm, flops, elapsed))
        if iterates is not None:
            iterates.append(to_complex(w_next))
        w, f = w_next, f_next
        iterations = t + 1
        if not np.isfinite(f) or f > _DIVERGENCE_FACTOR * f_start:
            stop_reason = STOP_DIVERGED
            break
        if decrease < config.tau:
            rose = decrease < -max(config.tau, _RISE_FLOOR * f_start)
            stop_reason = STOP_DIVERGED if rose else STOP_DECREASE
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
