"""Solvers: step-size policies, descent/projected descent against their
closed-form and dual oracles, real-stacked mirror equivalence, and
the flop accounting contract."""

import math
import warnings

import numpy as np
import pytest

from cmop import (
    ProblemInstance,
    kkt_check,
    run_solver,
    RowBall,
    SolverConfig,
    active_set_oracle,
    closed_form_unconstrained,
    evaluate,
    frob_norm,
    gd_solve,
    gen_instance,
    instance_from_document,
    is_feasible,
    per_iteration_flops,
    pgd_solve,
    precompute,
    project_rows,
    real_augmented_pgd,
    resolve_alpha,
    row_sq_norms,
)
from cmop.errors import ConfigError, InputError
from cmop.solvers import (
    STOP_DECREASE,
    STOP_DIVERGED,
    STOP_KKT,
    STOP_MAX_ITER,
    _project_stacked,
    _stack_real,
)
from helpers import make_instance, random_w, zero_w


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(alpha=0.1, tau=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(alpha=0.1, max_iter=0)


class TestResolveAlpha:
    def test_fraction_of_descent_interval(self):
        cfg = SolverConfig(alpha="f0.5")
        assert resolve_alpha(cfg, 4.0, "gd") == pytest.approx(0.25)

    def test_fraction_of_projected_interval(self):
        cfg = SolverConfig(alpha="f0.9")
        assert resolve_alpha(cfg, 4.0, "pgd") == pytest.approx(0.225)

    def test_fixed_inside_is_silent(self):
        cfg = SolverConfig(alpha=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_alpha(cfg, 4.0, "gd") == 0.4

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 1e300])
    def test_fixed_outside_is_used_as_given(self, alpha):
        # 2/L = 0.5: a step at or beyond it is resolved to itself, silently;
        # cmop.harness judges the interval.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_alpha(SolverConfig(alpha=alpha), 4.0, "gd") == alpha

    def test_paper_step_is_used_as_given(self):
        # The paper's step 6e-4 lies inside both intervals on seed 0
        # (2/L = 1.5e-3, 1/L = 7.5e-4), and descent converges on it.
        inst = make_instance(0)
        pre = precompute(inst)
        cfg = SolverConfig(alpha=0.0006)
        assert resolve_alpha(cfg, pre.lipschitz, "gd") == 0.0006
        assert resolve_alpha(cfg, pre.lipschitz, "pgd") == 0.0006
        res = gd_solve(pre, inst, zero_w(inst), cfg)
        assert res.stop_reason == STOP_DECREASE

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, 0.0])
    def test_fixed_step_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ConfigError, match="positive and finite"):
            resolve_alpha(SolverConfig(alpha=alpha), 4.0, "gd")

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            resolve_alpha(SolverConfig(alpha="f1.5"), 4.0, "gd")
        with pytest.raises(ConfigError):
            resolve_alpha(SolverConfig(alpha="x0.5"), 4.0, "gd")
        with pytest.raises(ConfigError):
            resolve_alpha(SolverConfig(alpha=-0.1), 4.0, "gd")
        with pytest.raises(ConfigError):
            resolve_alpha(SolverConfig(alpha=0.1), 4.0, "newton")
        with pytest.raises(ConfigError):
            resolve_alpha(SolverConfig(alpha=0.1), 0.0, "gd")


class TestGdSolve:
    def test_identity_h_one_step(self):
        a = np.array([[1 + 2j, -0.5], [3.0, 1j]])
        inst = ProblemInstance(h=np.eye(2, dtype=complex), a=a, eta=1.0)
        pre = precompute(inst)
        res = gd_solve(pre, inst, zero_w(inst), SolverConfig(alpha=1.0, tau=1e-14))
        assert np.array_equal(res.w_final, a)
        assert res.converged and res.stop_reason == STOP_DECREASE

    def test_stops_immediately_at_optimum(self):
        inst = make_instance(0)
        pre = precompute(inst)
        w_opt = closed_form_unconstrained(pre)
        res = gd_solve(pre, inst, w_opt, SolverConfig(alpha="f0.5", tau=1e-14))
        assert res.iterations == 1
        assert res.converged and res.stop_reason == STOP_DECREASE
        assert res.trace[0].decrease < 1e-14

    def test_reaches_closed_form(self):
        # Unfiltered seed block at a tolerance consistent with the stopping
        # rule's floor: at tau the decrease rule cannot certify distances
        # below sqrt(tau * L) / lambda_min.
        for seed in range(20):
            inst = make_instance(seed)
            pre = precompute(inst)
            w_opt = closed_form_unconstrained(pre)
            cfg = SolverConfig(alpha=1.0 / pre.lipschitz, tau=1e-14, max_iter=200_000)
            res = gd_solve(pre, inst, zero_w(inst), cfg)
            assert res.converged
            assert frob_norm(res.w_final - w_opt) / frob_norm(w_opt) <= 2e-8

    def test_monotone_descent_inside_interval(self):
        inst = make_instance(1)
        pre = precompute(inst)
        for frac in (0.5, 1.0, 1.9):
            cfg = SolverConfig(alpha=frac / pre.lipschitz, tau=1e-12)
            res = gd_solve(pre, inst, zero_w(inst), cfg)
            for rec in res.trace:
                assert rec.decrease >= -1e-9 * (1 + abs(rec.objective))

    def test_divergence_detected(self):
        inst = make_instance(2)
        pre = precompute(inst)
        cfg = SolverConfig(alpha=1e9 / pre.lipschitz, tau=1e-14, max_iter=1000)
        assert resolve_alpha(cfg, pre.lipschitz, "gd") == 1e9 / pre.lipschitz
        res = gd_solve(pre, inst, zero_w(inst), cfg)
        assert res.stop_reason == STOP_DIVERGED
        assert not res.converged

    def test_mild_overshoot_exits_via_error_rule(self):
        # The error rule exits on the first objective increase (a decrease
        # below -tau) well before the 1e6x divergence marker, and a rise is
        # no convergence.
        inst = make_instance(2)
        pre = precompute(inst)
        cfg = SolverConfig(alpha=3.0 / pre.lipschitz, tau=1e-14, max_iter=1000)
        assert resolve_alpha(cfg, pre.lipschitz, "gd") == 3.0 / pre.lipschitz
        res = gd_solve(pre, inst, zero_w(inst), cfg)
        assert res.stop_reason == STOP_DIVERGED
        assert res.converged is False
        assert res.trace[-1].decrease < -cfg.tau
        assert res.trace[0].objective < res.objective < 1e6 * res.trace[0].objective

    def test_nonfinite_w0_rejected(self):
        inst = make_instance(0)
        pre = precompute(inst)
        w0 = zero_w(inst)
        w0[0, 0] = np.nan
        with pytest.raises(InputError):
            gd_solve(pre, inst, w0, SolverConfig(alpha="f0.5"))

    def test_max_iter_stop(self):
        inst = make_instance(4)
        pre = precompute(inst)
        res = gd_solve(pre, inst, zero_w(inst), SolverConfig(alpha="f0.5", tau=1e-300, max_iter=5))
        assert not res.converged
        assert res.stop_reason == STOP_MAX_ITER
        assert res.iterations == 5

    def test_trace_iters_strictly_increasing(self):
        inst = make_instance(5)
        pre = precompute(inst)
        res = gd_solve(pre, inst, zero_w(inst), SolverConfig(alpha="f0.5", tau=1e-12))
        iters = [rec.iter for rec in res.trace]
        assert iters == list(range(len(iters)))


class TestPgdSolve:
    @pytest.mark.parametrize("solve", [pgd_solve, real_augmented_pgd])
    def test_rounding_noise_at_convergence_is_no_rise(self, solve):
        # Both end on a decrease of about -2.5e-14, below -tau but at the
        # rounding level of F(W^0) = 4054.
        inst = instance_from_document(gen_instance(m=16, n=8, k=8, eta=0.01, seed=0))
        pre = precompute(inst)
        ball = RowBall.for_power_budget(inst.eta)
        res = solve(pre, inst, zero_w(inst), ball, SolverConfig(alpha="f0.9", tau=1e-14))
        assert res.trace[-1].decrease < -1e-14
        assert res.converged and res.stop_reason == STOP_DECREASE

    def test_separable_identity_case(self):
        rng = np.random.default_rng(50)
        a = rng.uniform(-3, 3, (4, 5)) + 1j * rng.uniform(-3, 3, (4, 5))
        inst = ProblemInstance(h=np.eye(4, dtype=complex), a=a, eta=2.0)
        pre = precompute(inst)
        ball = RowBall.for_power_budget(inst.eta)
        assert not is_feasible(a, ball, 0.0)  # some rows must be long
        cfg = SolverConfig(alpha="f0.9", tau=1e-14, max_iter=100_000)
        res = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
        expected = project_rows(a, ball)
        assert frob_norm(res.w_final - expected) <= 1e-8

    def test_inactive_constraint_matches_closed_form(self):
        inst = make_instance(5, eta=1000.0)  # budget far above the optimum
        pre = precompute(inst)
        ball = RowBall.for_power_budget(inst.eta)
        w_opt = closed_form_unconstrained(pre)
        assert is_feasible(w_opt, ball, 0.0)
        cfg = SolverConfig(alpha="f0.9", tau=1e-14, max_iter=200_000)
        res = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
        assert frob_norm(res.w_final - w_opt) / frob_norm(w_opt) <= 1e-8

    def test_matches_active_set_oracle(self):
        for seed in range(8):
            inst = make_instance(seed)
            pre = precompute(inst)
            ball = RowBall.for_power_budget(inst.eta)
            cfg = SolverConfig(alpha=0.9 / pre.lipschitz, tau=1e-14, max_iter=200_000)
            res = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
            orc = active_set_oracle(pre, inst)
            assert abs(res.objective - orc.objective) <= 1e-8 * abs(orc.objective)

    def test_every_iterate_feasible(self):
        inst = make_instance(7)
        pre = precompute(inst)
        ball = RowBall.for_power_budget(inst.eta)
        seen = []
        cfg = SolverConfig(alpha="f0.9", tau=1e-12, observe=seen.append)
        res = pgd_solve(pre, inst, 10.0 * random_w(np.random.default_rng(8)), ball, cfg)
        assert len(seen) == res.iterations + 1
        for it in seen:
            assert is_feasible(it, ball, tol=1e-12)

    def test_deterministic_trace(self):
        inst = make_instance(8)
        pre = precompute(inst)
        ball = RowBall.for_power_budget(inst.eta)
        cfg = SolverConfig(alpha="f0.9", tau=1e-12)
        r1 = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
        r2 = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.w_final, r2.w_final)

    def test_sufficient_decrease_inequality(self):
        inst = make_instance(9)
        pre = precompute(inst)
        ball = RowBall.for_power_budget(inst.eta)
        alpha = 0.9 / pre.lipschitz
        res = pgd_solve(pre, inst, zero_w(inst), ball, SolverConfig(alpha=alpha, tau=1e-14))
        coeff = 1.0 / alpha - pre.lipschitz
        for rec in res.trace:
            bound = coeff * rec.step_norm**2
            assert rec.decrease >= bound - 1e-9 * (1 + abs(rec.objective))

    def test_distance_to_optimum_nonincreasing(self):
        inst = make_instance(10)
        pre = precompute(inst)
        ball = RowBall.for_power_budget(inst.eta)
        alpha = 0.9 / pre.lipschitz
        seen = []
        cfg = SolverConfig(alpha=alpha, tau=1e-12, observe=seen.append)
        pgd_solve(pre, inst, zero_w(inst), ball, cfg)
        w_opt = active_set_oracle(pre, inst).w_final
        slack = 1e-9 * (1 + frob_norm(seen[0] - w_opt) ** 2)
        coeff = 1.0 - alpha * pre.lipschitz
        for t in range(len(seen) - 1):
            d0 = frob_norm(seen[t] - w_opt) ** 2
            d1 = frob_norm(seen[t + 1] - w_opt) ** 2
            step = frob_norm(seen[t] - seen[t + 1]) ** 2
            assert d0 >= d1 + coeff * step - slack


class TestRealAugmentedMirror:
    def test_iterates_match_complex_route(self):
        for seed in range(3):
            inst = make_instance(seed)
            pre = precompute(inst)
            ball = RowBall.for_power_budget(inst.eta)
            seen_a, seen_b = [], []
            step = dict(alpha=0.9 / pre.lipschitz, tau=1e-300, max_iter=100)
            pgd_solve(pre, inst, zero_w(inst), ball, SolverConfig(**step, observe=seen_a.append))
            real_augmented_pgd(
                pre, inst, zero_w(inst), ball, SolverConfig(**step, observe=seen_b.append)
            )
            assert len(seen_a) == len(seen_b) == 101
            for wa, wb in zip(seen_a, seen_b):
                assert np.max(np.abs(wa - wb)) <= 1e-12

    def test_separable_case(self):
        rng = np.random.default_rng(51)
        a = rng.uniform(-3, 3, (4, 5)) + 1j * rng.uniform(-3, 3, (4, 5))
        inst = ProblemInstance(h=np.eye(4, dtype=complex), a=a, eta=2.0)
        ball = RowBall.for_power_budget(inst.eta)
        cfg = SolverConfig(alpha="f0.9", tau=1e-14, max_iter=100_000)
        res = real_augmented_pgd(precompute(inst), inst, zero_w(inst), ball, cfg)
        expected = project_rows(a, ball)
        assert frob_norm(res.w_final - expected) <= 1e-8

    def test_flops_at_least_complex_route(self):
        inst = make_instance(11)
        pre = precompute(inst)
        ball = RowBall.for_power_budget(inst.eta)
        cfg = SolverConfig(alpha="f0.9", tau=1e-12, max_iter=50)
        a = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
        b = real_augmented_pgd(pre, inst, zero_w(inst), ball, cfg)
        assert b.trace[0].flops >= a.trace[0].flops


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


class TestStackedProjection:
    """The real-stacked projection must reproduce project_rows bit for bit,
    so the shared loop gives the mirror the same iterates as pgd_solve."""

    def _assert_mirrors(self, w, ball):
        n = w.shape[0]
        stacked = _project_stacked(_stack_real(w), n, ball)
        expected = _stack_real(project_rows(w, ball))
        assert np.array_equal(_bits(stacked), _bits(expected))

    def test_random_rows_inside_and_far_outside(self):
        rng = np.random.default_rng(61)
        ball = RowBall.for_power_budget(2.0)
        w = random_w(rng, n=6, k=5, scale=1.0)
        w[::2] *= 50.0  # every other row far outside the ball
        assert not is_feasible(w, ball)
        self._assert_mirrors(w, ball)

    def test_rows_on_and_within_band_of_boundary(self):
        ball = RowBall.for_power_budget(2.0)
        r = ball.radius
        w = np.zeros((4, 3), dtype=np.complex128)
        w[0, 0] = r  # exactly on the boundary
        w[1, 0] = np.nextafter(np.nextafter(r, np.inf), np.inf)  # inside the band
        w[2, 1] = 1j * r * (1.0 + 1e-9)  # just beyond the band
        w[3] = [0.5 + 0.25j, -0.75j, 0.1]  # strictly inside
        self._assert_mirrors(w, ball)

    def test_single_column(self):
        rng = np.random.default_rng(62)
        ball = RowBall.for_power_budget(0.5)
        self._assert_mirrors(random_w(rng, n=7, k=1, scale=2.0), ball)

    def test_negative_zero_real_part_keeps_its_sign(self):
        w = np.array([[complex(-0.0, -3.0), 2.0 + 1.0j]])
        self._assert_mirrors(w, RowBall(1.0))
        assert np.signbit(project_rows(w, RowBall(1.0))[0, 0].real)


class TestZeroData:
    """A = 0 makes B = 0: every method must stop at W = 0 with objective 0,
    and the KKT scorer judges stationarity absolutely when ||B||_F = 0."""

    @pytest.fixture
    def inst(self):
        h = make_instance(71).h
        return ProblemInstance(h=h, a=np.zeros((h.shape[0], 8), dtype=complex), eta=2.0)

    @pytest.mark.parametrize("method", ["gd", "pgd", "real-augmented", "closed", "oracle"])
    def test_every_method_returns_zero(self, inst, method):
        pre = precompute(inst)
        res = run_solver(inst, pre, method, SolverConfig(alpha="f0.9", tau=1e-14))
        assert res.objective == 0.0
        assert res.converged
        assert not np.any(res.w_final)
        assert kkt_check(pre, inst, res.w_final).passed

    def test_stationarity_is_absolute_without_data(self, inst):
        pre = precompute(inst)
        w = np.full((inst.n, inst.k), 0.1 + 0.1j)
        report = kkt_check(pre, inst, w)
        assert report.stationarity_residual == frob_norm(pre.g @ w)
        assert not report.passed


class TestActiveSetOracle:
    def test_interior_optimum_reduces_to_closed_form(self):
        inst = make_instance(12, eta=1000.0)
        pre = precompute(inst)
        orc = active_set_oracle(pre, inst)
        w_opt = closed_form_unconstrained(pre)
        assert orc.converged and orc.stop_reason == STOP_KKT
        assert frob_norm(orc.w_final - w_opt) <= 1e-9 * frob_norm(w_opt)

    def test_identity_h_scalar_multipliers(self):
        rng = np.random.default_rng(52)
        eta = 2.0
        a = rng.uniform(-3, 3, (4, 6)) + 1j * rng.uniform(-3, 3, (4, 6))
        inst = ProblemInstance(h=np.eye(4, dtype=complex), a=a, eta=eta)
        pre = precompute(inst)
        orc = active_set_oracle(pre, inst)
        ball = RowBall.for_power_budget(eta)
        assert frob_norm(orc.w_final - project_rows(a, ball)) <= 1e-8
        # Per-row scalar system: active rows carry lambda = |a_n|/sqrt(eta) - 1.
        row_norms = np.sqrt(row_sq_norms(a))
        for i in range(4):
            if row_norms[i] > np.sqrt(eta):
                expected = row_norms[i] / np.sqrt(eta) - 1.0
                got = orc.w_final[i] * (1.0 + expected)
                assert np.max(np.abs(got - a[i])) <= 1e-8

    def test_beats_random_feasible_points(self):
        inst = make_instance(13, n=4, k=6)
        pre = precompute(inst)
        orc = active_set_oracle(pre, inst)
        ball = RowBall.for_power_budget(inst.eta)
        rng = np.random.default_rng(53)
        for _ in range(10_000):
            z = project_rows(
                rng.uniform(-2, 2, (4, 6)) + 1j * rng.uniform(-2, 2, (4, 6)), ball
            )
            assert orc.objective <= evaluate(pre, inst, z) + 1e-9 * (1 + orc.objective)

    def test_matches_long_pgd_run(self):
        inst = make_instance(14, n=4, k=6)
        pre = precompute(inst)
        orc = active_set_oracle(pre, inst)
        ball = RowBall.for_power_budget(inst.eta)
        cfg = SolverConfig(alpha=0.9 / pre.lipschitz, tau=1e-14, max_iter=500_000)
        res = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
        assert abs(res.objective - orc.objective) <= 1e-8 * abs(orc.objective)

    @pytest.mark.parametrize("m, n, k, eta", [(14, 13, 2, 2.0), (40, 32, 4, 0.01)])
    def test_certified_beyond_enumeration_sizes(self, m, n, k, eta):
        """N = 13 was past the old 2^N enumeration's cap; N = 32 with every
        row on the boundary would need 2^32 candidate systems."""
        inst = make_instance(15, m=m, n=n, k=k, eta=eta)
        pre = precompute(inst)
        orc = active_set_oracle(pre, inst)
        assert orc.converged and orc.stop_reason == STOP_KKT
        report = kkt_check(pre, inst, orc.w_final)
        assert report.passed
        assert np.any(report.lambda_hat > 0.0)
        ball = RowBall.for_power_budget(inst.eta)
        cfg = SolverConfig(alpha="f0.9", tau=1e-14, max_iter=20_000)
        pgd = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
        assert orc.objective <= evaluate(pre, inst, pgd.w_final) * (1.0 + 1e-12)


class TestFlopAccounting:
    def test_formula(self):
        assert per_iteration_flops(5, 8) == 2 * (4 * 25 * 8 + 4 * 5 * 8)

    def test_per_iteration_flops_independent_of_m(self):
        counts = {}
        for m in (10, 100):
            inst = make_instance(16, m=m)
            pre = precompute(inst)
            ball = RowBall.for_power_budget(inst.eta)
            cfg = SolverConfig(alpha="f0.5", tau=1e-12, max_iter=20)
            res = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
            counts[m] = {rec.flops for rec in res.trace}
        assert counts[10] == counts[100]

    def test_converged_implies_certifying_stop(self):
        inst = make_instance(17)
        pre = precompute(inst)
        res = gd_solve(pre, inst, zero_w(inst), SolverConfig(alpha="f0.5", tau=1e-10))
        assert res.converged
        assert res.stop_reason in (STOP_DECREASE, STOP_KKT)


@pytest.mark.parametrize("h_scale", [1.0, 1e6])
@pytest.mark.parametrize("step", ["1.5/L", 1e300])
@pytest.mark.parametrize("method", ["gd", "pgd", "real-augmented"])
def test_long_steps_emit_no_warning(method, step, h_scale):
    # 1.5/L lies inside gd's interval and outside pgd's; 1e300 overflows
    # the first iterate, under H scaled by 1e6 already in its first product.
    inst = make_instance(2)
    inst = ProblemInstance(h=h_scale * inst.h, a=inst.a, eta=inst.eta)
    pre = precompute(inst)
    alpha = 1.5 / pre.lipschitz if step == "1.5/L" else step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_solver(inst, pre, method, SolverConfig(alpha=alpha, max_iter=1000))
    assert res.iterations >= 1
    if step == 1e300 and method == "gd":
        assert res.stop_reason == STOP_DIVERGED
