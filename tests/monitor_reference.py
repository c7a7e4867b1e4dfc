"""Reference versions of the sample and certificate monitors.

Used only to cross-check the monitors in ``cmop.diagnostics``. Each loop
draws and evaluates one sample at a time, with ``np.vdot`` for every inner
product. The lemma4 loop builds the worst feasible probe
W_n = r D_n / ||D_n|| explicitly and evaluates the inequality there, where
the monitor uses its closed-form value. The Lipschitz certificate is
decided by an eigensolve in place of a Cholesky factorization.
``project_rows`` is looked up in this module at call time, so a test can
replace it here and in ``cmop.diagnostics`` alike.
"""

import numpy as np

from cmop import project_rows
from cmop.diagnostics import (
    MONITOR_LEMMA2,
    MONITOR_LEMMA4,
    MONITOR_LIPSCHITZ,
    _LIPSCHITZ_SHIFT_ULPS,
    _build_report,
)


def draw_cmatrix(rng, scale, shape):
    """One complex matrix: all real parts, then all imaginary parts."""
    return rng.uniform(-scale, scale, shape) + 1j * rng.uniform(-scale, scale, shape)


def _re_inner(x, y):
    return float(np.vdot(x, y).real)


def monitor_lemma2(pre, instance, samples, seed, scale):
    rng = np.random.default_rng(seed)
    n, k = pre.b.shape
    checks = []
    for idx in range(samples):
        w = draw_cmatrix(rng, scale, (n, k))
        wt = draw_cmatrix(rng, scale, (n, k))
        r_w = instance.h @ w - instance.a
        r_wt = instance.h @ wt - instance.a
        f_w = 0.5 * _re_inner(r_w, r_w)
        f_wt = 0.5 * _re_inner(r_wt, r_wt)
        lin = _re_inner(w - wt, pre.g @ wt - pre.b)
        checks.append((idx, f_w, f_wt + lin, 1e-9 * (1.0 + abs(f_w))))
    return _build_report(MONITOR_LEMMA2, checks)


def monitor_lipschitz(g, lipschitz):
    """The Lipschitz certificate decided by the dense eigenvalues of G:
    the bound L (1 + delta) holds iff it is at least lambda_max(G)."""
    bound = lipschitz * (1.0 + _LIPSCHITZ_SHIFT_ULPS * len(g) * np.finfo(float).eps)
    top = float(np.linalg.eigvalsh(g)[-1])
    return _build_report(MONITOR_LIPSCHITZ, [(0, bound, bound if top <= bound else top, 0.0)])


def worst_probe(d, radius):
    """The feasible W minimising Re<P - W, D>: W_n = r D_n / ||D_n||, and
    W_n = 0 where D_n = 0 (any feasible row gives the same value)."""
    w = np.zeros_like(d)
    for i, row in enumerate(d):
        norm = float(np.sqrt(_re_inner(row, row)))
        if norm > 0.0:
            w[i] = radius * row / norm
    return w


def monitor_lemma4(ball, n, k, samples, seed, v_scale):
    rng = np.random.default_rng(seed)
    checks = []
    for i in range(samples):
        v = draw_cmatrix(rng, v_scale, (n, k))
        w_plus = project_rows(v, ball)
        d = v - w_plus
        w_test = worst_probe(d, ball.radius)
        checks.append((i, _re_inner(w_plus - w_test, d), 0.0, 1e-12 * _re_inner(v, v)))
    return _build_report(MONITOR_LEMMA4, checks)
