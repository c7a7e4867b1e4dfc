"""Row-ball projection: exactness, geometry properties, and the
variational-inequality certificate."""

import numpy as np
import pytest

from cmop import RowBall, frob_norm, is_feasible, project_rows, row_sq_norms, vi_residual
from cmop.errors import ContractError, DimensionError, InputError


def feasible_sample(rng, n, k, ball, scale=3.0):
    raw = rng.uniform(-scale, scale, (n, k)) + 1j * rng.uniform(-scale, scale, (n, k))
    return project_rows(raw, ball)


class TestRowBall:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(InputError):
            RowBall(0.0)
        with pytest.raises(InputError):
            RowBall(-1.0)

    def test_power_budget_radius(self):
        assert RowBall.for_power_budget(2.0).radius == pytest.approx(np.sqrt(2.0))
        assert RowBall.for_power_budget(2.0, radius_is_eta=True).radius == 2.0


class TestProjectRows:
    def test_scales_long_row_only(self):
        w = np.array([[3.0, 0.0], [0.0, 1.0]], dtype=complex)
        out = project_rows(w, RowBall(2.0))
        assert np.allclose(out, [[2.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_integer_input_scaled_as_floats(self):
        out = project_rows(np.array([[3, 4], [0, 1]]), RowBall(1.0))
        assert out.dtype == np.float64
        assert np.allclose(out, [[0.6, 0.8], [0.0, 1.0]], atol=1e-15)

    def test_feasible_input_unchanged_bitwise(self):
        rng = np.random.default_rng(31)
        ball = RowBall(np.sqrt(2.0))
        w = feasible_sample(rng, 5, 8, ball)
        out = project_rows(w, ball)
        assert np.array_equal(out, w)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(32)
        ball = RowBall(np.sqrt(2.0))
        for _ in range(100):
            w = rng.uniform(-5, 5, (5, 8)) + 1j * rng.uniform(-5, 5, (5, 8))
            assert is_feasible(project_rows(w, ball), ball, tol=1e-12)

    def test_untouched_rows_bit_identical(self):
        rng = np.random.default_rng(33)
        ball = RowBall(1.0)
        w = rng.uniform(-3, 3, (4, 6)) + 1j * rng.uniform(-3, 3, (4, 6))
        out = project_rows(w, ball)
        short = row_sq_norms(w) <= 1.0
        assert np.array_equal(out[short], w[short])

    def test_nearest_point_against_random_competitors(self):
        rng = np.random.default_rng(34)
        ball = RowBall(np.sqrt(2.0))
        for _ in range(10):
            w = rng.uniform(-4, 4, (5, 8)) + 1j * rng.uniform(-4, 4, (5, 8))
            p = project_rows(w, ball)
            d = frob_norm(w - p)
            for _ in range(200):
                z = feasible_sample(rng, 5, 8, ball)
                assert d <= frob_norm(w - z) + 1e-12

    def test_idempotent_entry_for_entry(self):
        rng = np.random.default_rng(35)
        ball = RowBall(np.sqrt(2.0))
        for _ in range(100):
            w = rng.uniform(-5, 5, (5, 8)) + 1j * rng.uniform(-5, 5, (5, 8))
            once = project_rows(w, ball)
            twice = project_rows(once, ball)
            assert np.array_equal(once, twice)

    def test_nonexpansive(self):
        rng = np.random.default_rng(36)
        ball = RowBall(np.sqrt(2.0))
        for _ in range(200):
            x = rng.uniform(-5, 5, (5, 8)) + 1j * rng.uniform(-5, 5, (5, 8))
            y = rng.uniform(-5, 5, (5, 8)) + 1j * rng.uniform(-5, 5, (5, 8))
            lhs = frob_norm(project_rows(x, ball) - project_rows(y, ball))
            assert lhs <= frob_norm(x - y) + 1e-12

    def test_scaling_covariance_of_row_norms(self):
        rng = np.random.default_rng(37)
        ball = RowBall(1.5)
        w = rng.uniform(-3, 3, (4, 5)) + 1j * rng.uniform(-3, 3, (4, 5))
        for c in (0.5, 2.0, 3.0):
            out = project_rows(c * w, ball)
            expected = np.minimum(c * np.sqrt(row_sq_norms(w)), ball.radius)
            assert np.sqrt(row_sq_norms(out)) == pytest.approx(expected, rel=1e-12)

    def test_per_row_independence(self):
        rng = np.random.default_rng(38)
        ball = RowBall(1.0)
        w = rng.uniform(-3, 3, (5, 6)) + 1j * rng.uniform(-3, 3, (5, 6))
        whole = project_rows(w, ball)
        stacked = np.vstack([project_rows(w[i : i + 1], ball) for i in range(5)])
        assert np.array_equal(whole, stacked)


class TestIsFeasible:
    def test_zero_matrix(self):
        assert is_feasible(np.zeros((3, 3), dtype=complex), RowBall(0.1))

    def test_row_over_budget(self):
        w = np.array([[1 + 1j, 1 - 1j]])  # squared row norm 4
        assert not is_feasible(w, RowBall(np.sqrt(2.0)), tol=0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(InputError):
            is_feasible(np.zeros((1, 1), dtype=complex), RowBall(1.0), tol=-1e-3)

    def test_projection_composition(self):
        rng = np.random.default_rng(39)
        ball = RowBall(np.sqrt(2.0))
        for _ in range(100):
            w = rng.uniform(-6, 6, (5, 8)) + 1j * rng.uniform(-6, 6, (5, 8))
            assert is_feasible(project_rows(w, ball), ball, tol=1e-12)


class TestViResidual:
    def test_zero_when_v_feasible(self):
        rng = np.random.default_rng(40)
        ball = RowBall(np.sqrt(2.0))
        v = feasible_sample(rng, 5, 8, ball)
        w_plus = project_rows(v, ball)
        w_test = feasible_sample(rng, 5, 8, ball)
        assert vi_residual(w_plus, v, w_test) == 0.0

    def test_zero_when_probe_equals_projection(self):
        rng = np.random.default_rng(41)
        ball = RowBall(np.sqrt(2.0))
        v = rng.uniform(-5, 5, (5, 8)) + 1j * rng.uniform(-5, 5, (5, 8))
        w_plus = project_rows(v, ball)
        assert vi_residual(w_plus, v, w_plus) == 0.0

    def test_nonnegative_over_random_triples(self):
        from cmop.projection import vi_floor

        rng = np.random.default_rng(42)
        ball = RowBall(np.sqrt(2.0))
        for _ in range(500):
            v = rng.uniform(-6, 6, (5, 8)) + 1j * rng.uniform(-6, 6, (5, 8))
            w_plus = project_rows(v, ball)
            w_test = feasible_sample(rng, 5, 8, ball)
            r = vi_residual(w_plus, v, w_test)
            assert r >= -1e-10
            assert r >= vi_floor(v)

    def test_infeasible_probe_rejected(self):
        ball = RowBall(1.0)
        v = np.full((2, 2), 3.0 + 0j)
        w_plus = project_rows(v, ball)
        with pytest.raises(ContractError):
            vi_residual(w_plus, v, v, ball=ball)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            vi_residual(
                np.zeros((2, 2), dtype=complex),
                np.zeros((2, 3), dtype=complex),
                np.zeros((2, 2), dtype=complex),
            )
