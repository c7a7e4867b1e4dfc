"""Per-sample reference loops for the sample-based monitors.

Used only to cross-check the batched monitors in ``cmop.diagnostics``:
each loop draws and evaluates one sample at a time, with ``np.vdot`` for
every inner product, the way the monitors ran before they evaluated
samples in blocks. ``project_rows`` is looked up in this module at call
time, so a test can replace it here and in ``cmop.diagnostics`` alike.
"""

import numpy as np

from cmop import project_rows
from cmop.diagnostics import (
    MONITOR_LEMMA2,
    MONITOR_LEMMA4,
    MONITOR_LIPSCHITZ,
    _build_report,
)


def draw_cmatrix(rng, scale, shape):
    """One complex matrix: all real parts, then all imaginary parts."""
    return rng.uniform(-scale, scale, shape) + 1j * rng.uniform(-scale, scale, shape)


def draw_direction(rng, n):
    """One N x 1 complex direction: real parts, then imaginary parts."""
    return rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))


def _re_inner(x, y):
    return float(np.vdot(x, y).real)


def monitor_lemma2(pre, instance, pairs):
    checks = []
    for idx, (w, wt) in enumerate(pairs):
        r_w = instance.h @ w - instance.a
        r_wt = instance.h @ wt - instance.a
        f_w = 0.5 * _re_inner(r_w, r_w)
        f_wt = 0.5 * _re_inner(r_wt, r_wt)
        lin = _re_inner(np.asarray(w) - np.asarray(wt), pre.g @ wt - pre.b)
        checks.append((idx, f_w, f_wt + lin, 1e-9 * (1.0 + abs(f_w))))
    return _build_report(MONITOR_LEMMA2, checks)


def monitor_lipschitz(h, lipschitz, samples, seed):
    rng = np.random.default_rng(seed)
    bound = lipschitz * (1.0 + 1e-8)
    checks = []
    for i in range(samples):
        d = draw_direction(rng, h.shape[1])
        hd = h @ d
        checks.append((i, bound, _re_inner(hd, hd) / _re_inner(d, d), 0.0))
    return _build_report(MONITOR_LIPSCHITZ, checks)


def monitor_lemma4(ball, n, k, samples, seed, v_scale):
    rng = np.random.default_rng(seed)
    checks = []
    for i in range(samples):
        v = draw_cmatrix(rng, v_scale, (n, k))
        probe = draw_cmatrix(rng, v_scale, (n, k))
        w_test = project_rows(probe, ball)
        w_plus = project_rows(v, ball)
        checks.append((i, _re_inner(w_plus - w_test, v - w_plus), 0.0, 1e-10))
    return _build_report(MONITOR_LEMMA4, checks)
