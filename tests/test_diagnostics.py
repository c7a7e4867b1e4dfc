"""Certifiers: multiplier recovery, the inequality monitors, their
adversarial self-tests, and report serialization."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmop.diagnostics
from cmop import (
    ProblemInstance,
    RowBall,
    SolverConfig,
    active_set_oracle,
    closed_form_unconstrained,
    kkt_check,
    monitor_lemma2,
    monitor_lemma4,
    monitor_lipschitz,
    monitor_thm2,
    monitor_thm3,
    pgd_solve,
    precompute,
    project_rows,
    row_sq_norms,
)
from cmop.diagnostics import kkt_report_lines, monitor_report_lines
from cmop.errors import DegenerateRowError, InputError
from cmop.solvers import IterationRecord, gd_solve
from helpers import make_instance, random_w, zero_w

ROOT = Path(__file__).resolve().parent.parent


class TestKktCheck:
    def test_interior_optimum(self):
        inst = make_instance(0, eta=1000.0)
        pre = precompute(inst)
        w_opt = closed_form_unconstrained(pre)
        rep = kkt_check(pre, inst, w_opt)
        assert rep.passed
        assert np.all(rep.lambda_hat == 0.0)
        assert rep.stationarity_residual <= 1e-9
        assert rep.primal_violation == 0.0
        assert rep.dual_violation == 0.0
        assert rep.complementarity == 0.0

    def test_identity_h_recovers_scalar_multipliers(self):
        rng = np.random.default_rng(60)
        eta = 2.0
        a = rng.uniform(-3, 3, (4, 6)) + 1j * rng.uniform(-3, 3, (4, 6))
        inst = ProblemInstance(h=np.eye(4, dtype=complex), a=a, eta=eta)
        pre = precompute(inst)
        w_star = project_rows(a, RowBall.for_power_budget(eta))
        rep = kkt_check(pre, inst, w_star)
        assert rep.passed
        row_norms = np.sqrt(row_sq_norms(a))
        for i in range(4):
            if row_norms[i] > np.sqrt(eta):
                expected = row_norms[i] / np.sqrt(eta) - 1.0
                assert rep.lambda_hat[i] == pytest.approx(expected, rel=1e-8)
            else:
                assert rep.lambda_hat[i] == 0.0

    def test_pgd_solution_passes(self):
        inst = make_instance(2)
        pre = precompute(inst)
        ball = RowBall.for_power_budget(inst.eta)
        cfg = SolverConfig(alpha="f0.9", tau=1e-14, max_iter=200_000)
        res = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
        rep = kkt_check(pre, inst, res.w_final)
        assert rep.passed

    def test_far_from_optimal_point_fails(self):
        inst = make_instance(3)
        pre = precompute(inst)
        rng = np.random.default_rng(61)
        rep = kkt_check(pre, inst, random_w(rng, scale=0.3))
        assert not rep.passed

    def test_degenerate_active_row(self):
        # eta below the smallest normal float: a row with squared norm eta
        # is active, yet too small to divide by.
        inst = make_instance(4, eta=1e-310)
        pre = precompute(inst)
        w = zero_w(inst)
        w[2, 0] = np.sqrt(1e-310)
        assert row_sq_norms(w)[2] < np.finfo(float).tiny
        with pytest.raises(DegenerateRowError, match="row 2 "):
            kkt_check(pre, inst, w)

    def test_residual_fields_nonnegative(self):
        inst = make_instance(5)
        pre = precompute(inst)
        rng = np.random.default_rng(62)
        rep = kkt_check(pre, inst, project_rows(random_w(rng), RowBall.for_power_budget(inst.eta)))
        assert rep.stationarity_residual >= 0.0
        assert rep.primal_violation >= 0.0
        assert rep.dual_violation >= 0.0
        assert rep.complementarity >= 0.0


class TestMonitorThm2:
    def _gd_trace(self, seed, frac):
        inst = make_instance(seed)
        pre = precompute(inst)
        alpha = frac / pre.lipschitz
        res = gd_solve(pre, inst, zero_w(inst), SolverConfig(alpha=alpha, tau=1e-14))
        return res, alpha, pre

    def test_passes_on_descent_trace(self):
        res, alpha, pre = self._gd_trace(0, 1.0)
        rep = monitor_thm2(res.trace, alpha, pre.lipschitz)
        assert rep.passed
        assert rep.violations == []

    def test_stationary_single_record(self):
        rec = IterationRecord(
            iter=0, objective=1.0, decrease=0.0, grad_norm=0.0, step_norm=0.0,
            flops=0, elapsed_ns=0,
        )
        rep = monitor_thm2([rec], 1e-3, 4.0)
        assert rep.passed

    def test_flags_adversarial_trace(self):
        res, alpha, pre = self._gd_trace(1, 1.0)
        doctored = [dataclasses.replace(rec, decrease=0.0) for rec in res.trace]
        rep = monitor_thm2(doctored, alpha, pre.lipschitz)
        assert not rep.passed
        assert len(rep.violations) >= 1

    def test_empty_trace_rejected(self):
        with pytest.raises(InputError):
            monitor_thm2([], 1e-3, 4.0)

    @pytest.mark.parametrize("decreases", [[float("nan"), 1.0], [1.0, float("nan"), 1.0]],
                             ids=["nan-first", "nan-after-a-finite-one"])
    def test_nan_decrease_is_a_violation(self, decreases):
        # min() and < are both false on NaN, so a NaN margin once passed
        # with worst_slack = inf (or the finite margins' minimum).
        trace = [
            IterationRecord(iter=i, objective=1.0, decrease=d, grad_norm=0.0, step_norm=0.0,
                            flops=0, elapsed_ns=0)
            for i, d in enumerate(decreases)
        ]
        rep = monitor_thm2(trace, 1e-3, 4.0)
        assert not rep.passed and np.isnan(rep.worst_slack)
        [(idx, lhs, _, _)] = rep.violations
        assert np.isnan(decreases[idx]) and np.isnan(lhs)


class TestMonitorThm3:
    def _pgd_run(self, seed, frac):
        inst = make_instance(seed)
        pre = precompute(inst)
        ball = RowBall.for_power_budget(inst.eta)
        alpha = frac / pre.lipschitz
        cfg = SolverConfig(alpha=alpha, tau=1e-14, record_iterates=True)
        res = pgd_solve(pre, inst, zero_w(inst), ball, cfg)
        w_opt = active_set_oracle(pre, inst).w_final
        return res, w_opt, alpha, pre

    def test_passes_on_projected_trace(self):
        res, w_opt, alpha, pre = self._pgd_run(0, 0.9)
        dec, fejer = monitor_thm3(res.trace, res.iterates, w_opt, alpha, pre.lipschitz)
        assert dec.passed and fejer.passed

    def test_constant_trace_at_optimum(self):
        inst = make_instance(1)
        pre = precompute(inst)
        w_opt = active_set_oracle(pre, inst).w_final
        rec = IterationRecord(
            iter=0, objective=1.0, decrease=0.0, grad_norm=0.0, step_norm=0.0,
            flops=0, elapsed_ns=0,
        )
        dec, fejer = monitor_thm3([rec], [w_opt, w_opt], w_opt, 1e-4, pre.lipschitz)
        assert dec.passed and fejer.passed

    def test_out_of_interval_step_still_evaluates(self):
        res, w_opt, alpha, pre = self._pgd_run(2, 1.5)
        dec, fejer = monitor_thm3(res.trace, res.iterates, w_opt, alpha, pre.lipschitz)
        # The literal inequalities are reported either way; with the step
        # outside (0, 1/L) the decrease coefficient is negative, so that
        # report passes trivially. No claim is made about the other one.
        assert dec.passed
        assert isinstance(fejer.passed, bool)

    def test_misaligned_lengths_rejected(self):
        res, w_opt, alpha, pre = self._pgd_run(3, 0.9)
        with pytest.raises(InputError):
            monitor_thm3(res.trace, res.iterates[:-2], w_opt, alpha, pre.lipschitz)

    def test_empty_trace_rejected(self):
        with pytest.raises(InputError):
            monitor_thm3([], [np.zeros((1, 1), dtype=complex)], np.zeros((1, 1)), 1e-3, 1.0)

    def test_flags_adversarial_iterates(self):
        res, w_opt, alpha, pre = self._pgd_run(4, 0.9)
        bad = list(res.iterates)
        bad[1] = bad[1] + 10.0  # teleport one iterate away from the optimum
        _, fejer = monitor_thm3(res.trace, bad, w_opt, alpha, pre.lipschitz)
        assert not fejer.passed

    def test_flags_adversarial_decrease(self):
        res, w_opt, alpha, pre = self._pgd_run(5, 0.9)
        doctored = [dataclasses.replace(rec, decrease=0.0) for rec in res.trace]
        dec, _ = monitor_thm3(doctored, res.iterates, w_opt, alpha, pre.lipschitz)
        assert not dec.passed

    def test_reports_are_pure(self):
        res, w_opt, alpha, pre = self._pgd_run(6, 0.9)
        first = monitor_thm3(res.trace, res.iterates, w_opt, alpha, pre.lipschitz)
        second = monitor_thm3(res.trace, res.iterates, w_opt, alpha, pre.lipschitz)
        assert first == second


class TestMonitorLemma2:
    def test_equal_pair_is_equality(self):
        inst = make_instance(0)
        pre = precompute(inst)
        w = random_w(np.random.default_rng(63))
        rep = monitor_lemma2(pre, inst, [(w, w)])
        assert rep.passed

    def test_random_pairs_pass(self):
        inst = make_instance(1)
        pre = precompute(inst)
        rng = np.random.default_rng(64)
        pairs = [(random_w(rng), random_w(rng)) for _ in range(100)]
        rep = monitor_lemma2(pre, inst, pairs)
        assert rep.passed
        assert rep.worst_slack >= -1e-9

    def test_line_through_optimum(self):
        inst = make_instance(2)
        pre = precompute(inst)
        w_opt = closed_form_unconstrained(pre)
        d = random_w(np.random.default_rng(65), scale=0.5)
        rep = monitor_lemma2(pre, inst, [(w_opt + t * d, w_opt) for t in (-1.0, 0.5, 2.0)])
        assert rep.passed

    def test_flags_corrupted_linearization(self):
        # Self-test: feeding cached data whose linear term is wrong must
        # surface as convexity violations. Nearby pairs make the bogus
        # linear term dominate the true quadratic remainder.
        inst = make_instance(3)
        pre = precompute(inst)
        bad_pre = dataclasses.replace(pre, b=3.0 * pre.b)
        rng = np.random.default_rng(66)
        pairs = []
        for _ in range(50):
            base = random_w(rng)
            pairs.append((base + 0.01 * random_w(rng, scale=1.0), base))
        rep = monitor_lemma2(bad_pre, inst, pairs)
        assert not rep.passed


@st.composite
def lipschitz_edge_cases(draw):
    """Instances over the edge cases of L: N > M, rank-deficient H (a
    product of thin factors), H = 0, and a clustered top spectrum (the
    squared singular values spread over 1e-3, 1e-9 or 0 relative), scaled
    by 10^-6, 1 or 10^6, with K = 1."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 10))  # m < n gives N > M
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["thin", "zero", "clustered"]))

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    if kind == "zero":
        h = np.zeros((m, n), dtype=complex)
    elif kind == "thin":
        rank = draw(st.integers(1, min(m, n)))
        h = gaussian(m, rank) @ gaussian(rank, n)
    else:
        rank = min(m, n)
        spread = draw(st.sampled_from([1e-3, 1e-9, 0.0]))
        u, _ = np.linalg.qr(gaussian(m, rank))
        v, _ = np.linalg.qr(gaussian(n, rank))
        h = (u * np.sqrt(1.0 - spread * np.linspace(0.0, 1.0, rank))) @ v.conj().T
    h *= 10.0 ** draw(st.sampled_from([-6, 0, 6]))
    return ProblemInstance(h=h, a=gaussian(m, 1), eta=1.0)


class TestMonitorLipschitz:
    def test_diagonal_case_ratio_approaches_bound(self):
        # G = diag(4, 1): L = 4 is proved, and a bound 1e-9 below it fails
        # with the violation recovering lambda_max = 4 exactly.
        g = np.diag([4.0, 1.0]).astype(complex)
        rep = monitor_lipschitz(g, 4.0)
        assert rep.passed and rep.worst_slack == 0.0
        low = monitor_lipschitz(g, 4.0 * (1.0 - 1e-9))
        assert not low.passed
        [(idx, lhs, rhs, slack)] = low.violations
        assert (idx, rhs, slack) == (0, 4.0, 0.0) and lhs < 4.0
        assert low.worst_slack == lhs - rhs

    def test_estimated_constant_passes(self):
        inst = make_instance(3)
        pre = precompute(inst)
        rep = monitor_lipschitz(pre.g, pre.lipschitz)
        assert rep.passed and rep.worst_slack == 0.0

    def test_understated_constant_flagged(self):
        inst = make_instance(4)
        pre = precompute(inst)
        for factor in (0.5, 1.0 - 1e-6):
            rep = monitor_lipschitz(pre.g, factor * pre.lipschitz)
            assert not rep.passed
            assert len(rep.violations) == 1

    def test_zero_h_passes_with_zero_constant(self):
        rep = monitor_lipschitz(np.zeros((2, 2), dtype=complex), 0.0)
        assert rep.passed and rep.worst_slack == 0.0

    def test_needs_finite_inputs(self):
        g = np.eye(2, dtype=complex)
        for lipschitz in (np.nan, np.inf, sys.float_info.max):
            with pytest.raises(InputError):
                monitor_lipschitz(g, lipschitz)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(lipschitz_edge_cases())
    def test_true_constant_passes_on_edge_cases(self, inst):
        pre = precompute(inst)
        rep = monitor_lipschitz(pre.g, pre.lipschitz)
        assert rep.passed and rep.worst_slack == 0.0
        if pre.lipschitz > 0.0:
            assert not monitor_lipschitz(pre.g, pre.lipschitz * (1.0 - 1e-6)).passed


class TestMonitorLemma4:
    def test_passes_at_paper_scale(self):
        rep = monitor_lemma4(RowBall(np.sqrt(2.0)), n=5, k=8, samples=500, seed=3, v_scale=10.0)
        assert rep.passed
        assert rep.worst_slack >= -1e-10

    def test_certificate_catches_projection_bug(self):
        # Self-test: a corrupted "projection" (rows shrunk harder than the
        # nearest point) drives the certificate materially negative when
        # probed with the correct nearest point.
        from cmop import vi_residual

        ball = RowBall(np.sqrt(2.0))
        rng = np.random.default_rng(67)
        v = rng.uniform(-6, 6, (5, 8)) + 1j * rng.uniform(-6, 6, (5, 8))
        true_projection = project_rows(v, ball)
        bogus = 0.5 * true_projection
        assert vi_residual(bogus, v, true_projection) < -1e-10


    def test_monitor_flags_bogus_projection(self, monkeypatch):
        # Self-test of the monitor itself: with project_rows replaced by a
        # halved projection, its own random triples go materially negative.
        args = (RowBall(1.0), 3, 1, 500, 3, 0.5)
        assert monitor_lemma4(*args).passed
        monkeypatch.setattr(
            cmop.diagnostics, "project_rows", lambda w, ball: 0.5 * project_rows(w, ball)
        )
        rep = monitor_lemma4(*args)
        assert not rep.passed
        assert rep.worst_slack < -1e-10

    def test_monitor_flags_bogus_projection_at_small_radius(self, monkeypatch):
        # The same geometry scaled by 1e-6: the residuals shrink by 1e-12
        # (worst about -2.9e-14), and a slack relative to ||V||^2 + ||W||^2
        # still sees them.
        args = (RowBall(1e-6), 3, 1, 500, 3, 5e-7)
        assert monitor_lemma4(*args).passed
        monkeypatch.setattr(
            cmop.diagnostics, "project_rows", lambda w, ball: 0.5 * project_rows(w, ball)
        )
        rep = monitor_lemma4(*args)
        assert not rep.passed
        for _, lhs, rhs, slack in rep.violations:
            assert 0.0 < slack < 1e-20 and lhs - rhs < -slack

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 8),
        k=st.integers(1, 8),
        exponent=st.sampled_from([-6, 0, 6]),
        spread=st.sampled_from([0.25, 0.75, 1.25, 4.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_true_projection_passes_at_any_scale(self, n, k, exponent, spread, seed):
        radius = 10.0**exponent
        rep = monitor_lemma4(RowBall(radius), n, k, 64, seed, v_scale=spread * radius)
        assert rep.passed


class TestOracleOutputCertifies:
    def test_kkt_check_passes_on_enumeration_solution(self):
        for seed in range(5):
            inst = make_instance(seed)
            pre = precompute(inst)
            orc = active_set_oracle(pre, inst)
            assert orc.converged
            rep = kkt_check(pre, inst, orc.w_final)
            assert rep.passed


class TestReportSerialization:
    def test_monitor_lines_one_violation_per_line(self, monkeypatch):
        inst = make_instance(5)
        pre = precompute(inst)
        lipschitz = monitor_lipschitz(pre.g, 0.25 * pre.lipschitz)
        monkeypatch.setattr(
            cmop.diagnostics, "project_rows", lambda w, ball: 0.5 * project_rows(w, ball)
        )
        lemma4 = monitor_lemma4(RowBall(1.0), 5, 8, 50, 4, 4.0)
        assert len(lemma4.violations) == 50
        for rep, tag in ((lipschitz, "lemma3-lipschitz"), (lemma4, "lemma4-vi")):
            lines = monitor_report_lines(rep)
            assert lines[0].startswith(f"monitor {tag} FAILED")
            assert len(lines) == 1 + len(rep.violations)
            for line, violation in zip(lines[1:], rep.violations):
                name, tag_read, idx, lhs, rhs, slack = line.split()
                assert (name, tag_read) == ("violation", tag)
                assert (int(idx), float(lhs), float(rhs), float(slack)) == violation

    def test_kkt_lines(self):
        inst = make_instance(6, eta=1000.0)
        pre = precompute(inst)
        rep = kkt_check(pre, inst, closed_form_unconstrained(pre))
        lines = kkt_report_lines(rep)
        assert lines[0].startswith("kkt passed")
        assert "lambda_hat" in lines[1]


def test_certify_bench_small_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "certify_bench.py"), "--small", "--label", "smoke"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads((tmp_path / "BENCH_certify.json").read_text())["smoke"]
    assert {"nproc", "blas", "blas_version", "blas_threads"} <= set(run["machine"])
    assert set(run["shapes"]) == {"16x8x8", "16x10x8"}
    for shape in run["shapes"].values():
        assert shape["checks"] == shape["instances"] * shape["rounds"] > 0
        assert set(shape["ms_p50"]) == {
            "lemma2", "lemma4", "lipschitz", "kkt", "thm3", "oracle", "run_check"
        }
        assert all(ms > 0 for ms in shape["ms_p50"].values())
