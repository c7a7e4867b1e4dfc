"""Reference solver for the row-power-constrained problem by enumerating
all 2^N subsets of boundary rows.

Used only to cross-check the dual oracle on small instances: it costs
about 2^N candidate systems, each solved by a multiplicative fixed point
and a per-coordinate bisection fallback. Returns (w, lam, linear_solves).
"""

import itertools

import numpy as np

from cmop import closed_form_unconstrained, row_sq_norms
from cmop.solvers import kkt_residuals_for


def _candidate_system(pre, lam):
    return np.linalg.solve(pre.g + np.diag(lam), pre.b)


def _solve_active_candidate(pre, eta, active, inner_tol, inner_max_iter):
    """Find lambda >= 0 supported on the non-empty ``active`` putting those
    rows exactly on the power boundary, or None when no such multiplier
    exists. Row norms shrink as lambda_n grows, which the bisection relies
    on."""
    lam = np.zeros(pre.b.shape[0])
    idx = np.array(active)
    lam[idx] = 1.0
    solves = 0

    for _ in range(max(inner_max_iter // 2, 8)):
        w = _candidate_system(pre, lam)
        solves += 1
        rs = row_sq_norms(w)[idx]
        if np.max(np.abs(rs - eta)) <= inner_tol * eta:
            return w, lam, solves
        # A multiplier collapsing toward zero while its row sits inside the
        # budget means the boundary equality has no nonnegative solution.
        if np.any((lam[idx] < 1e-13) & (rs < eta)):
            return None
        lam[idx] *= np.sqrt(rs / eta)

    # Cyclic per-coordinate bisection on the monotone map
    # lambda_n -> ||row_n(W(lambda))||^2; stalling sweeps abort.
    prev_resid = np.inf
    for _sweep in range(60):
        for coord in idx:
            def row_sq(val):
                nonlocal solves
                lam[coord] = val
                solves += 1
                return row_sq_norms(_candidate_system(pre, lam))[coord]

            if row_sq(0.0) <= eta:
                lam[coord] = 0.0
                continue
            hi = max(2.0 * lam[coord], 1.0)
            doublings = 0
            while row_sq(hi) > eta:
                hi *= 2.0
                doublings += 1
                if doublings > 200:
                    return None
            lo = 0.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if row_sq(mid) > eta:
                    lo = mid
                else:
                    hi = mid
            lam[coord] = hi
        w = _candidate_system(pre, lam)
        solves += 1
        rs = row_sq_norms(w)[idx]
        resid = float(np.max(np.abs(rs - eta)))
        if resid <= inner_tol * eta and np.all(lam[idx] > 0.0):
            return w, lam, solves
        if resid >= 0.95 * prev_resid:
            return None
        prev_resid = resid
    return None


def enumeration_oracle(pre, instance, inner_tol=1e-10, inner_max_iter=200):
    """The first active set, by increasing size then lexicographically,
    whose candidate passes all four scaled optimality residuals within
    ``inner_tol``; None when none does."""
    n = pre.b.shape[0]
    eta = instance.eta
    solves = 0
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if size == 0:
                w, lam = closed_form_unconstrained(pre), np.zeros(n)
                solves += 1
            else:
                found = _solve_active_candidate(pre, eta, subset, inner_tol, inner_max_iter)
                if found is None:
                    continue
                w, lam, used = found
                solves += used
            res = kkt_residuals_for(pre, instance, w, lam)
            res["primal"] /= eta
            res["complementarity"] /= eta * max(1.0, float(np.max(lam, initial=0.0)))
            if max(res.values()) <= inner_tol:
                return w, lam, solves
    return None
