"""The monitors against their reference versions: the random draws, the
stacked projection, and the reports, with and without a planted fault."""

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


# Wrong projections the lemma4 certificate must flag on every sample.
FAULTY_PROJECTIONS = {
    "halved": lambda w, ball: 0.5 * project_rows(w, ball),
    "small-ball": lambda w, ball: project_rows(w, RowBall(0.999 * ball.radius)),
}


class TestDrawLayout:
    @pytest.mark.parametrize("lead", [(), (1,), (7,), (5, 2), (150,)])
    def test_uniform_stack_is_the_per_sample_stream(self, lead):
        n, k = 3, 4
        stacked_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
        stacked = uniform_cmatrix(stacked_rng, 2.5, (*lead, n, k))
        loop = [reference.draw_cmatrix(loop_rng, 2.5, (n, k)) for _ in range(int(np.prod(lead)))]
        assert np.array_equal(_bits(stacked), _bits(np.reshape(loop, stacked.shape)))
        assert stacked_rng.random() == loop_rng.random()


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
    """Shapes, seeds and a scale: N 1-8, K 1-8, M 1-8 (M < N gives a
    rank-deficient H), 1-150 samples (partial and several blocks), data
    scaled by 10^-6, 1 or 10^6, and which fault to plant, if any."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    samples = draw(st.integers(1, 150))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.sampled_from([-6, 0, 6]))
    fault = draw(st.sampled_from([None, *sorted(FAULTY_PROJECTIONS)]))
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
    # Pairs at a small scale let a wrong linear term beat the quadratic
    # remainder.
    args = (pre, inst, samples, seed, 0.01 if fault else 1.0)
    return monitor_lemma2(*args), reference.monitor_lemma2(*args), None


def _run_lipschitz(n, k, m, samples, seed, scale, fault):
    h = scale * uniform_cmatrix(np.random.default_rng(seed), 1.0, (m, n))
    pre = precompute(ProblemInstance(h=h, a=np.zeros((m, 1)), eta=1.0))
    lipschitz = pre.lipschitz * (1.0 - 1e-6 if fault else 1.0)
    return monitor_lipschitz(pre.g, lipschitz), reference.monitor_lipschitz(pre.g, lipschitz), None


def _run_lemma4(n, k, m, samples, seed, scale, fault):
    if fault:
        n, k = 5, 8  # paper scale, where random probes never met these faults
    ball = RowBall(scale)
    # v_scale near the radius keeps rows on both sides of the boundary; from
    # 0.75 r on, every paper-scale draw has a row outside 0.999 r.
    spreads = (0.75, 1.25, 4.0) if fault else (0.25, 0.75, 1.25, 4.0)
    v_scale = scale * spreads[seed % len(spreads)]
    args = (ball, n, k, samples, seed, v_scale)
    with pytest.MonkeyPatch.context() as patch:
        if fault:
            patch.setattr(cmop.diagnostics, "project_rows", FAULTY_PROJECTIONS[fault])
            patch.setattr(reference, "project_rows", FAULTY_PROJECTIONS[fault])
        batched, ref = monitor_lemma4(*args), reference.monitor_lemma4(*args)
    # The closed form and the explicit worst probe round differently: allow
    # 1e-15 of ||V||^2 <= 2 N K v_scale^2.
    return batched, ref, 1e-15 * 2 * n * k * v_scale**2


RUNS = {"lemma2": _run_lemma2, "lipschitz": _run_lipschitz, "lemma4": _run_lemma4}


@pytest.mark.parametrize("monitor", sorted(RUNS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=monitor_cases())
def test_batched_report_matches_per_sample_loop(monitor, case):
    batched, ref, abs_tol = RUNS[monitor](*case)
    assert batched.name == ref.name
    assert batched.passed == ref.passed
    assert [v[0] for v in batched.violations] == [v[0] for v in ref.violations]
    assert batched.worst_slack == pytest.approx(ref.worst_slack, rel=1e-12, abs=abs_tol or 0.0)
    fault, samples = case[-1], case[3]
    if fault and monitor != "lemma2":
        # Every check fails: the one Lipschitz check, or every lemma4 sample.
        assert len(batched.violations) == (1 if monitor == "lipschitz" else samples)


# (bytes per sample, samples per block): 16 x 10 x 8 at 1280 (lemma4) and
# 2560 (lemma2), the most that still gives 64, 300 x 60 x 64 at 61,440
# (lemma4) and 307,200 (lemma2), and 1000 x 200 x 256 at 819,200 (lemma4).
@pytest.mark.parametrize("sample_bytes, size", [
    (1280, 64), (2560, 64), (4096, 64), (4097, 63), (61_440, 4), (307_200, 1), (819_200, 1),
])
def test_block_size_follows_the_byte_budget(sample_bytes, size):
    sizes = []

    def block_checks(start, stop):
        sizes.append(stop - start)
        return 0.0, 0.0, 0.0

    items = list(cmop.diagnostics._sample_checks(130, sample_bytes, block_checks))
    assert [item[0] for item in items] == list(range(130))
    assert sizes[:-1] == [size] * (len(sizes) - 1) and 0 < sizes[-1] <= size


@pytest.mark.parametrize("block_bytes", [1, 5000])
@pytest.mark.parametrize("monitor", ["lemma2", "lemma4"])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, monitor, block_bytes):
    # 1 byte gives blocks of one sample; 5000 gives 7 (lemma4) or 3 (lemma2)
    # at 10 x 5 x 8, against 64 by default: every report bit is the same.
    rng = np.random.default_rng(12)
    inst = ProblemInstance(h=uniform_cmatrix(rng, 1.0, (10, 5)),
                           a=uniform_cmatrix(rng, 1.0, (10, 8)), eta=1.0)
    pre = precompute(inst)

    def run():
        if monitor == "lemma2":
            return monitor_lemma2(pre, inst, 150, 3, 2.0)
        return monitor_lemma4(RowBall(1.0), 5, 8, 150, 3, 0.5)

    default = run()
    monkeypatch.setattr(cmop.diagnostics, "_BLOCK_BYTES", block_bytes)
    assert run() == default


@pytest.mark.parametrize("radius", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("fault", sorted(FAULTY_PROJECTIONS))
def test_paper_scale_projection_faults_fail_every_sample(monkeypatch, fault, radius):
    args = (RowBall(radius), 5, 8, 500, 7, 4.0 * radius)
    assert monitor_lemma4(*args).passed
    monkeypatch.setattr(cmop.diagnostics, "project_rows", FAULTY_PROJECTIONS[fault])
    assert [v[0] for v in monitor_lemma4(*args).violations] == list(range(500))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_paper_scale_low_lipschitz_fails(scale):
    h = scale * uniform_cmatrix(np.random.default_rng(7), 1.0, (10, 5))
    pre = precompute(ProblemInstance(h=h, a=np.zeros((10, 8)), eta=1.0))
    assert monitor_lipschitz(pre.g, pre.lipschitz).passed
    assert not monitor_lipschitz(pre.g, pre.lipschitz * (1.0 - 1e-6)).passed
