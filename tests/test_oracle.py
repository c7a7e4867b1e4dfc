"""The dual oracle: agreement with the 2^N enumeration on small instances,
certified-or-refused behaviour on edge cases (K = 1, A = 0, N > M,
rank-deficient G, data scaled by 10^+-6), and the KKT scorer that both it
and ``kkt_check`` certify with."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cmop.solvers as solvers
from cmop import (
    CmopError,
    OracleError,
    ProblemInstance,
    RowBall,
    SolverConfig,
    active_set_oracle,
    evaluate,
    kkt_check,
    pgd_solve,
    precompute,
)
from cmop.solvers import kkt_passes, kkt_residuals_for
from enumeration_oracle import enumeration_oracle
from helpers import make_instance, zero_w

# (seed, m, n, k, eta): eta = 0.01 puts every row on the boundary; the
# paper-scale 10 x N x 8 instances at eta = 2 have one or two active rows.
ALL_ACTIVE = [(0, 16, 8, 8, 0.01), (1, 16, 8, 8, 0.01), (2, 12, 6, 4, 0.01)]
PAPER_SCALE = [(1, 10, 5, 8, 2.0), (2, 10, 5, 8, 2.0), (4, 10, 5, 8, 2.0), (3, 10, 6, 8, 2.0)]


@pytest.mark.parametrize("seed, m, n, k, eta", ALL_ACTIVE + PAPER_SCALE)
def test_matches_enumeration(seed, m, n, k, eta):
    inst = make_instance(seed, m=m, n=n, k=k, eta=eta)
    pre = precompute(inst)
    orc = active_set_oracle(pre, inst)
    ref = enumeration_oracle(pre, inst)
    assert ref is not None
    w_ref, lam_ref, ref_solves = ref
    active = int(np.count_nonzero(lam_ref))
    assert active == n if eta == 0.01 else 1 <= active <= 2
    f_ref = evaluate(pre, inst, w_ref)
    assert abs(orc.objective - f_ref) <= 1e-8 * f_ref
    assert kkt_check(pre, inst, orc.w_final).passed
    assert kkt_check(pre, inst, w_ref).passed
    assert orc.iterations < 50 < ref_solves


@st.composite
def edge_instances(draw):
    """Small instances over the edge cases, H and A scaled independently
    by 10^-6, 1 or 10^6 with eta following the scale of the optimum."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))  # m < n gives a rank-deficient G
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_scale = 10.0 ** draw(st.sampled_from([-6, 0, 6]))
    a_scale = 10.0 ** draw(st.sampled_from([-6, 0, 6]))
    h = h_scale * (rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n)))
    if n > 1 and draw(st.booleans()):
        h[:, -1] = h[:, 0]  # a repeated column: rank-deficient even when m >= n
    a = a_scale * (rng.uniform(-1, 1, (m, k)) + 1j * rng.uniform(-1, 1, (m, k)))
    if draw(st.booleans()):
        a[:] = 0.0
    eta = draw(st.sampled_from([0.01, 0.5, 2.0, 1e3])) * (a_scale / h_scale) ** 2
    return ProblemInstance(h=h, a=a, eta=eta)


@settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edge_instances())
def test_certified_or_refused(inst):
    """Either a result that passes kkt_check and is no worse than a long
    projected-descent run, or a CmopError; never a raw numpy error."""
    pre = precompute(inst)
    try:
        orc = active_set_oracle(pre, inst)
    except CmopError:
        return
    assert kkt_check(pre, inst, orc.w_final).passed
    ball = RowBall.for_power_budget(inst.eta)
    cfg = SolverConfig(alpha="f0.9", tau=1e-300, max_iter=2000)
    w_pgd = pgd_solve(pre, inst, zero_w(inst), ball, cfg).w_final
    f_pgd = evaluate(pre, inst, w_pgd)
    f_zero = evaluate(pre, inst, zero_w(inst))
    assert orc.objective <= f_pgd + 1e-8 * f_pgd + 1e-14 * f_zero


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("lam", [[0.0, 0.5], [0.0, 3.0]], ids=["scale-1", "scale-3"])
@pytest.mark.parametrize("name", ["stationarity", "primal", "dual", "complementarity"])
def test_kkt_scorer_bounds_each_residual_at_its_scaled_tolerance(name, lam, tol):
    eta, lam = 0.01, np.array(lam)
    scale = max(1.0, lam.max())
    bounds = {
        "stationarity": tol,
        "primal": tol * eta,
        "dual": tol * scale,
        "complementarity": tol * eta * scale,
    }
    res, bound = dict.fromkeys(bounds, 0.0), bounds[name]
    assert kkt_passes({**res, name: bound}, eta, lam, tol)
    assert not kkt_passes({**res, name: np.nextafter(bound, np.inf)}, eta, lam, tol)
    assert not kkt_passes({**res, name: np.nan}, eta, lam, tol)


@pytest.mark.parametrize("m, n", [(16, 8), (4, 6)], ids=["regular", "n-above-m"])
def test_exhausted_budget_raises_with_the_last_point(monkeypatch, m, n):
    # One factorization cannot certify an instance with every row active,
    # on the dual path or on the proximal path of a singular G.
    monkeypatch.setattr(solvers, "_ORACLE_BUDGET", 1)
    eta = 0.01
    inst = make_instance(0, m=m, n=n, k=8, eta=eta)
    pre = precompute(inst)
    with pytest.raises(OracleError) as info:
        active_set_oracle(pre, inst)
    err = info.value
    assert err.best_w.shape == (n, 8) and err.best_lambda.shape == (n,)
    assert err.best_residuals == kkt_residuals_for(pre, inst, err.best_w, err.best_lambda)
    assert not kkt_passes(err.best_residuals, eta, err.best_lambda, solvers._ORACLE_TOL)
