"""The batched sample monitors against their per-sample reference loops:
the random draws, the stacked projection, and the reports, with and
without a planted fault."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmop.diagnostics
import monitor_reference as reference
from cmop import (
    ProblemInstance,
    RowBall,
    monitor_lemma2,
    monitor_lemma4,
    monitor_lipschitz,
    precompute,
    project_rows,
)
from cmop.cmat import uniform_cmatrix


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def half_shrinking(w, ball):
    """A bogus projection: the true one, halved."""
    return 0.5 * project_rows(w, ball)


class TestDrawLayout:
    @pytest.mark.parametrize("lead", [(), (1,), (7,), (5, 2), (150,)])
    def test_uniform_stack_is_the_per_sample_stream(self, lead):
        n, k = 3, 4
        stacked_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
        stacked = uniform_cmatrix(stacked_rng, 2.5, (*lead, n, k))
        loop = [reference.draw_cmatrix(loop_rng, 2.5, (n, k)) for _ in range(int(np.prod(lead)))]
        assert np.array_equal(_bits(stacked), _bits(np.reshape(loop, stacked.shape)))
        assert stacked_rng.random() == loop_rng.random()

    def test_direction_block_is_the_per_sample_stream(self):
        # monitor_lipschitz draws S directions as standard_normal((S, 2, N)).
        n, s = 6, 9
        parts = np.random.default_rng(8).standard_normal((s, 2, n))
        block = (parts[:, 0] + 1j * parts[:, 1])[..., None]
        loop_rng = np.random.default_rng(8)
        loop = [reference.draw_direction(loop_rng, n) for _ in range(s)]
        assert np.array_equal(_bits(block), _bits(np.stack(loop)))


class TestStackedProjectRows:
    """Each matrix of a stack must come back with the bits of a 2-D call."""

    def _assert_slices_match(self, stack, ball):
        out = project_rows(stack, ball)
        assert out.shape == stack.shape
        flat_in = stack.reshape(-1, *stack.shape[-2:])
        flat_out = out.reshape(-1, *stack.shape[-2:])
        for w, got in zip(flat_in, flat_out):
            assert np.array_equal(_bits(got), _bits(project_rows(w, ball)))

    def test_boundary_band_and_signed_zeros(self):
        ball = RowBall.for_power_budget(2.0)
        r = ball.radius
        w = np.zeros((6, 3), dtype=np.complex128)
        w[0, 0] = r  # exactly on the boundary
        w[1, 0] = np.nextafter(np.nextafter(r, np.inf), np.inf)  # inside the band
        w[2, 1] = 1j * r * (1.0 + 1e-9)  # just beyond the band
        w[3] = [complex(-0.0, -3.0), 2.0 + 1.0j, complex(0.0, -0.0)]  # scaled, signed zeros
        w[4] = [complex(-0.0, 0.5), -0.25j, 0.1]  # strictly inside, signed zero
        w[5] = [40.0 - 3.0j, 7.0j, -2.0]  # far outside
        rng = np.random.default_rng(9)
        others = np.stack([w[rng.permutation(len(w))] for _ in range(4)])  # rows reordered
        self._assert_slices_match(np.concatenate([w[None], others]), ball)
        assert np.signbit(project_rows(np.stack([w, w]), ball)[1, 3, 0].real)

    def test_untouched_matrices_beside_scaled_ones(self):
        ball = RowBall(1.0)
        rng = np.random.default_rng(10)
        inside = 0.1 * (rng.uniform(-1, 1, (3, 4, 1)) + 1j * rng.uniform(-1, 1, (3, 4, 1)))
        outside = 30.0 * inside
        self._assert_slices_match(np.concatenate([inside, outside[:1]]), ball)
        self._assert_slices_match(inside, ball)

    def test_two_lead_axes(self):
        ball = RowBall(0.7)
        stack = uniform_cmatrix(np.random.default_rng(11), 1.0, (5, 2, 4, 3))
        self._assert_slices_match(stack, ball)


@st.composite
def monitor_cases(draw):
    """Shapes, seeds and a scale: N 1-8, K 1-4, M 1-8 (M < N gives a
    rank-deficient H), 1-40 samples (partial and several blocks), data
    scaled by 10^-6, 1 or 10^6, and whether to plant the fault."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    samples = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.sampled_from([-6, 0, 6]))
    fault = draw(st.booleans())
    return n, k, m, samples, seed, scale, fault


def _run_lemma2(n, k, m, samples, seed, scale, fault):
    rng = np.random.default_rng(seed)
    inst = ProblemInstance(
        h=scale * uniform_cmatrix(rng, 1.0, (m, n)),
        a=scale * uniform_cmatrix(rng, 1.0, (m, k)),
        eta=1.0,
    )
    pre = precompute(inst)
    if fault:
        pre = dataclasses.replace(pre, b=3.0 * pre.b)
    # Nearby pairs let a wrong linear term beat the quadratic remainder.
    base = uniform_cmatrix(rng, 1.0, (samples, n, k))
    step = uniform_cmatrix(rng, 1.0, (samples, n, k)) * rng.choice([0.01, 1.0], (samples, 1, 1))
    pairs = list(zip(base + step, base))
    return monitor_lemma2(pre, inst, pairs), reference.monitor_lemma2(pre, inst, pairs)


def _run_lipschitz(n, k, m, samples, seed, scale, fault):
    h = scale * uniform_cmatrix(np.random.default_rng(seed), 1.0, (m, n))
    lipschitz = precompute(ProblemInstance(h=h, a=np.zeros((m, 1)), eta=1.0)).lipschitz
    if fault:
        lipschitz *= 0.5
    return (
        monitor_lipschitz(h, lipschitz, samples, seed),
        reference.monitor_lipschitz(h, lipschitz, samples, seed),
    )


def _run_lemma4(n, k, m, samples, seed, scale, fault):
    if fault:
        # Random probes see a halved projection only in a few real
        # dimensions: at N = 5, K = 8 none of 500 samples flags it.
        n, k = 1 + n % 3, 1
    ball = RowBall(scale)
    # v_scale near the radius keeps rows on both sides of the boundary.
    args = (ball, n, k, samples, seed, scale * (0.25 + 0.5 * (seed % 4)))
    with pytest.MonkeyPatch.context() as patch:
        if fault:
            patch.setattr(cmop.diagnostics, "project_rows", half_shrinking)
            patch.setattr(reference, "project_rows", half_shrinking)
        return monitor_lemma4(*args), reference.monitor_lemma4(*args)


RUNS = {"lemma2": _run_lemma2, "lipschitz": _run_lipschitz, "lemma4": _run_lemma4}


@pytest.mark.parametrize("monitor", sorted(RUNS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=monitor_cases())
def test_batched_report_matches_per_sample_loop(monitor, case):
    batched, ref = RUNS[monitor](*case)
    assert batched.name == ref.name
    assert batched.passed == ref.passed
    assert [v[0] for v in batched.violations] == [v[0] for v in ref.violations]
    assert batched.worst_slack == pytest.approx(ref.worst_slack, rel=1e-12, abs=0.0)
