"""Objective, gradient, spectral constant, and closed form, each checked
against an independent route: a real/imaginary expansion loop for the
value, central differences for the gradient, the singular values of H for
the spectral constant, and random perturbations for minimality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmop import (
    ProblemInstance,
    SolverConfig,
    closed_form_unconstrained,
    evaluate,
    frob_norm,
    gradient,
    precompute,
    re_frob_inner,
    resolve_alpha,
)
from cmop.errors import (
    ConfigError,
    DimensionError,
    InputError,
    SingularSystemError,
)
from helpers import fd_gradient, make_instance, random_w


def top_squared_singular_value(h):
    """lambda_max(H^H H) from the SVD of H, independent of G."""
    return float(np.linalg.svd(h, compute_uv=False)[0]) ** 2


def assert_exact_lipschitz(inst):
    """L matches the SVD reference to 1e-12 relative, and the largest
    fraction step of plain descent stays inside (0, 2 / lambda_max)."""
    pre = precompute(inst)
    lmax = top_squared_singular_value(inst.h)
    assert pre.lipschitz == pytest.approx(lmax, rel=1e-12)
    alpha = resolve_alpha(SolverConfig(alpha="f0.99999"), pre.lipschitz, "gd")
    assert alpha * lmax < 2.0


def expansion_objective(inst, w):
    """Objective via the explicit real/imaginary expansion
    1/2 sum_{m,k} (U_{m,k}^2 + V_{m,k}^2) of the residual components."""
    total = 0.0
    for m in range(inst.m):
        for k in range(inst.k):
            u = -inst.a[m, k].real
            v = -inst.a[m, k].imag
            for n in range(inst.n):
                hr, hi = inst.h[m, n].real, inst.h[m, n].imag
                wr, wi = w[n, k].real, w[n, k].imag
                u += hr * wr - hi * wi
                v += hr * wi + hi * wr
            total += u * u + v * v
    return 0.5 * total


class TestProblemInstance:
    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ProblemInstance(h=np.eye(3, dtype=complex), a=np.zeros((2, 2), dtype=complex), eta=1.0)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(InputError):
            ProblemInstance(h=np.eye(2, dtype=complex), a=np.eye(2, dtype=complex), eta=0.0)

    def test_advisory_flag(self):
        inst = make_instance(0)
        assert inst.n_within_m
        wide = ProblemInstance(
            h=np.ones((2, 4), dtype=complex), a=np.ones((2, 3), dtype=complex), eta=1.0
        )
        assert not wide.n_within_m

    def test_dimensions(self):
        inst = make_instance(0)
        assert (inst.m, inst.n, inst.k) == (10, 5, 8)


class TestPrecompute:
    def test_diagonal_h(self):
        inst = ProblemInstance(
            h=np.diag([2.0, 1.0]).astype(complex), a=np.eye(2, dtype=complex), eta=1.0
        )
        pre = precompute(inst)
        assert pre.lipschitz == pytest.approx(4.0, rel=1e-9)

    def test_identity_h(self):
        a = np.array([[1 + 2j, 0.5], [3.0, -1j]])
        inst = ProblemInstance(h=np.eye(2, dtype=complex), a=a, eta=1.0)
        pre = precompute(inst)
        assert pre.lipschitz == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(pre.g, np.eye(2), atol=1e-15)
        assert np.allclose(pre.b, a, atol=1e-15)

    def test_matches_dense_eigensolve(self):
        for seed in range(10):
            inst = make_instance(seed)
            pre = precompute(inst)
            lmax = top_squared_singular_value(inst.h)
            assert pre.lipschitz == pytest.approx(lmax, rel=1e-12)
            lmin = np.linalg.svd(inst.h, compute_uv=False)[-1] ** 2
            assert pre.lambda_min == pytest.approx(lmin, rel=1e-10)

    @pytest.mark.parametrize("n", [8, 50])
    def test_exact_on_clustered_top_spectrum(self, n):
        # Squared singular values spread evenly over 1e-3 below 1: power
        # iteration converges too slowly here to resolve the top one.
        rng = np.random.default_rng(n)
        m = n + 4
        u, _ = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        s = np.sqrt(1.0 - 1e-3 * np.linspace(0.0, 1.0, n))
        h = (u * s) @ v.conj().T
        assert_exact_lipschitz(ProblemInstance(h=h, a=np.ones((m, 1), dtype=complex), eta=1.0))

    def test_g_hermitian(self):
        pre = precompute(make_instance(1))
        assert np.max(np.abs(pre.g - pre.g.conj().T)) < 1e-12

    def test_zero_h_gives_zero_lipschitz(self):
        inst = ProblemInstance(
            h=np.zeros((3, 2), dtype=complex), a=np.zeros((3, 2), dtype=complex), eta=1.0
        )
        assert precompute(inst).lipschitz == 0.0

    def test_overflowing_gram_rejected(self):
        # 1e200^2 overflows G = H^H H, so no finite L can be certified.
        inst = ProblemInstance(h=np.array([[1e200, 1.0]], dtype=complex), a=np.ones((1, 1)), eta=1.0)
        with pytest.raises(InputError, match="overflows"):
            precompute(inst)

    def test_random_direction_bound(self):
        inst = make_instance(2)
        pre = precompute(inst)
        bound = pre.lipschitz
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = random_w(rng)
            assert frob_norm(inst.h @ d) ** 2 <= bound * frob_norm(d) ** 2 * (1 + 1e-12)

    def test_bound_tight_on_top_eigenvector(self):
        inst = make_instance(3)
        pre = precompute(inst)
        _, vecs = np.linalg.eigh(pre.g)
        top = vecs[:, -1]
        d = np.tile(top[:, None], (1, inst.k))
        ratio = frob_norm(inst.h @ d) ** 2 / frob_norm(d) ** 2
        assert ratio == pytest.approx(pre.lipschitz, rel=1e-6)


@st.composite
def edge_instances(draw):
    """Small instances over the edge cases: N > M, rank-deficient H
    (a product of thin factors), K = 1, and H scaled by 10^-6, 1 or 10^6."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 10))  # m < n gives N > M
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, min(m, n)))
    h = (rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))) @ (
        rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    )
    h *= 10.0 ** draw(st.sampled_from([-6, 0, 6]))
    a = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    return ProblemInstance(h=h, a=a, eta=1.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(edge_instances())
def test_lipschitz_exact_on_edge_cases(inst):
    assert_exact_lipschitz(inst)


class TestEvaluate:
    def test_exact_fit(self):
        a = np.array([[1 + 1j, 2.0], [0.5j, -1.0]])
        inst = ProblemInstance(h=np.eye(2, dtype=complex), a=a, eta=1.0)
        pre = precompute(inst)
        assert evaluate(pre, inst, a) == 0.0

    def test_single_entry(self):
        inst = ProblemInstance(
            h=np.array([[1.0]], dtype=complex), a=np.array([[1 + 1j]]), eta=1.0
        )
        pre = precompute(inst)
        assert evaluate(pre, inst, np.zeros((1, 1), dtype=complex)) == pytest.approx(1.0)

    def test_matches_expansion_loop(self):
        rng = np.random.default_rng(21)
        inst = make_instance(4, m=6, n=3, k=4)
        pre = precompute(inst)
        for _ in range(5):
            w = random_w(rng, n=3, k=4)
            assert evaluate(pre, inst, w) == pytest.approx(
                expansion_objective(inst, w), rel=1e-12
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(22)
        inst = make_instance(5)
        pre = precompute(inst)
        for _ in range(20):
            assert evaluate(pre, inst, random_w(rng)) >= 0.0

    def test_shape_mismatch(self):
        inst = make_instance(0)
        pre = precompute(inst)
        with pytest.raises(DimensionError):
            evaluate(pre, inst, np.zeros((4, 8), dtype=complex))


class TestGradient:
    def test_zero_at_closed_form(self):
        inst = make_instance(6)
        pre = precompute(inst)
        w_opt = closed_form_unconstrained(pre)
        assert frob_norm(gradient(pre, w_opt)) <= 1e-9 * frob_norm(pre.b)

    def test_identity_h_zero_a(self):
        inst = ProblemInstance(
            h=np.eye(3, dtype=complex), a=np.zeros((3, 2), dtype=complex), eta=1.0
        )
        pre = precompute(inst)
        rng = np.random.default_rng(23)
        w = random_w(rng, n=3, k=2)
        assert np.allclose(gradient(pre, w), w, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        for seed in range(10):
            inst = make_instance(seed)
            pre = precompute(inst)
            w = random_w(rng)
            g = gradient(pre, w)
            fd = fd_gradient(inst, w)
            assert frob_norm(g - fd) / max(1.0, frob_norm(g)) <= 1e-6


class TestFdGradient:
    def test_half_squared_modulus(self):
        inst = ProblemInstance(
            h=np.array([[1.0]], dtype=complex), a=np.array([[0.0j]]), eta=1.0
        )
        w = np.array([[1.0 + 0j]])
        fd = fd_gradient(inst, w, step=1e-6)
        assert fd[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_near_zero_at_optimum(self):
        inst = make_instance(7)
        pre = precompute(inst)
        w_opt = closed_form_unconstrained(pre)
        fd = fd_gradient(inst, w_opt)
        assert frob_norm(fd) <= 1e-6 * frob_norm(pre.b)

    def test_bad_step(self):
        inst = make_instance(0)
        with pytest.raises(ConfigError):
            fd_gradient(inst, np.zeros((5, 8), dtype=complex), step=-1.0)


class TestClosedForm:
    def test_identity_h(self):
        a = np.array([[2.0, 1j], [0.0, 3.0]])
        inst = ProblemInstance(h=np.eye(2, dtype=complex), a=a, eta=1.0)
        w = closed_form_unconstrained(precompute(inst))
        assert np.allclose(w, a, atol=1e-12)

    def test_scalar(self):
        inst = ProblemInstance(
            h=np.array([[2.0]], dtype=complex), a=np.array([[4.0j]]), eta=1.0
        )
        w = closed_form_unconstrained(precompute(inst))
        assert w[0, 0] == pytest.approx(2.0j)

    def test_minimality_under_perturbations(self):
        inst = make_instance(8)
        pre = precompute(inst)
        w_opt = closed_form_unconstrained(pre)
        f_opt = evaluate(pre, inst, w_opt)
        rng = np.random.default_rng(25)
        for _ in range(100):
            delta = random_w(rng, scale=0.5)
            assert f_opt <= evaluate(pre, inst, w_opt + delta) + 1e-9 * (1 + f_opt)

    def test_singular_error_names_advisory(self):
        # N > M leaves H^H H rank-deficient.
        inst = ProblemInstance(
            h=np.ones((2, 4), dtype=complex),
            a=np.ones((2, 3), dtype=complex),
            eta=1.0,
        )
        g = inst.h.conj().T @ inst.h
        b = inst.h.conj().T @ inst.a
        from cmop.objective import Precomputed

        eig = np.linalg.eigvalsh(g)
        pre = Precomputed(g=g, b=b, lipschitz=float(eig[-1]), lambda_min=float(eig[0]))
        with pytest.raises(SingularSystemError, match="n_within_m"):
            closed_form_unconstrained(pre)


    def test_n_above_m_is_singular(self):
        # 4 x 6 x 8: lambda_min / lambda_max is about 4e-19, yet the dense
        # solve succeeds and passes the residual check.
        pre = precompute(make_instance(0, m=4, n=6, eta=0.01))
        assert pre.lambda_min <= 6 * np.finfo(float).eps * pre.lipschitz
        with pytest.raises(SingularSystemError, match="n_within_m"):
            closed_form_unconstrained(pre)


class TestFirstOrderConvexity:
    def test_holds_on_random_pairs(self):
        rng = np.random.default_rng(26)
        for seed in range(5):
            inst = make_instance(seed)
            pre = precompute(inst)
            for _ in range(20):
                w = random_w(rng)
                wt = random_w(rng)
                f_w = evaluate(pre, inst, w)
                f_wt = evaluate(pre, inst, wt)
                lin = re_frob_inner(w - wt, gradient(pre, wt))
                assert f_w >= f_wt + lin - 1e-9 * (1 + abs(f_w))
