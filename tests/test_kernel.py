"""The fixed-step kernel against its reference copy in ``kernel_reference``:
every output bit of gd, pgd and the real-stacked mirror is the same, and
the kernel keeps its contracts with callers that wrap ``project_rows`` or
time iterations."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import cmop.solvers as solvers
import kernel_reference as reference
from cmop import (
    ProblemInstance,
    RowBall,
    SolverConfig,
    pgd_solve,
    precompute,
    project_rows,
    row_sq_norms,
)
from cmop.harness import run_solver
from cmop.solvers import STOP_DIVERGED, _project_stacked, _stack_real
from helpers import make_instance, zero_w

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("gd", "pgd", "real-augmented")
EXPONENTS = (-6, 0, 6)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _record_bits(record):
    return tuple(
        int(np.float64(v).view(np.uint64)) if isinstance(v, float) else v
        for v in dataclasses.astuple(record)
    )


def assert_bit_identical(new, ref):
    assert new.stop_reason == ref.stop_reason
    assert new.iterations == ref.iterations
    assert new.converged == ref.converged
    assert _bits(np.float64(new.objective)) == _bits(np.float64(ref.objective))
    np.testing.assert_array_equal(_bits(new.w_final), _bits(ref.w_final))
    assert [_record_bits(r) for r in new.trace] == [_record_bits(r) for r in ref.trace]
    if ref.iterates is None:
        assert new.iterates is None
    else:
        assert len(new.iterates) == len(ref.iterates)
        for w_new, w_ref in zip(new.iterates, ref.iterates):
            np.testing.assert_array_equal(_bits(w_new), _bits(w_ref))


def _with_negative_zeros(rng, x, real=True):
    """x as complex, with a random third of its imaginary parts set to
    -0.0 and, if ``real``, a random third of its real parts too."""
    re = np.where(rng.random(x.shape) < 1 / 3, -0.0, x.real) if real else x.real
    out = np.empty(x.shape, complex)
    out.real, out.imag = re, np.where(rng.random(x.shape) < 1 / 3, -0.0, x.imag)
    return out


def _draw(rng, scale, shape):
    return scale * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))


@st.composite
def kernel_cases(draw):
    n, k, m = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_scale = 10.0 ** draw(st.sampled_from(EXPONENTS))
    a_scale = 0.0 if draw(st.booleans()) else 10.0 ** draw(st.sampled_from(EXPONENTS))
    # Optimal rows scale like |A| / |H|: the budget sits below, near or above them.
    w_scale = (a_scale or 1.0) / h_scale
    eta = w_scale**2 * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    h, a = _draw(rng, h_scale, (m, n)), _draw(rng, a_scale, (m, k))
    w0 = _draw(rng, w_scale, (n, k)) if draw(st.booleans()) else np.zeros((n, k), complex)
    if draw(st.booleans()):
        # H keeps its real parts, so it never becomes 0.
        h = _with_negative_zeros(rng, h, real=False)
        a, w0 = _with_negative_zeros(rng, a), _with_negative_zeros(rng, w0)
    options = dict(
        max_iter=draw(st.sampled_from([1, 7, 400])),
        record_iterates=draw(st.booleans()),
    )
    return ProblemInstance(h=h, a=a, eta=eta), w0, options


@pytest.mark.parametrize("method", METHODS)
# A number is a fixed step of that many 1/L, outside (0, 2/L): at 3/L the
# objective rises, which the decrease rule stops as diverged; at 1e4/L it
# rises a millionfold in one step, which the divergence rule stops.
@pytest.mark.parametrize("alpha", ["f0.1", "f0.5", "f0.99", 3.0, 1e4])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases())
def test_kernel_matches_reference_bit_for_bit(method, alpha, case):
    inst, w0, options = case
    pre = precompute(inst)
    if isinstance(alpha, float):
        alpha /= pre.lipschitz
    config = SolverConfig(alpha=alpha, **options)
    new = run_solver(inst, pre, method, config, w0=w0)
    with reference.installed():
        ref = run_solver(inst, pre, method, config, w0=w0)
    event(f"{method}: {ref.stop_reason}")
    assert_bit_identical(new, ref)


@pytest.mark.parametrize("rise, stop", [(3e5, STOP_DIVERGED), (3e6, STOP_DIVERGED)])
def test_one_step_rise_beyond_a_millionfold_diverges(rise, stop):
    # From W = 0 one step gives W = alpha B, with objective
    # 1/2 ||alpha H B - A||^2; pick alpha for F(W^1) = rise F(W^0). Below
    # the millionfold the negative decrease stops the run, above it the
    # divergence rule; both report a divergence.
    inst = make_instance(2)
    pre = precompute(inst)
    hb = inst.h @ pre.b
    quad, lin = 0.5 * np.vdot(hb, hb).real, np.vdot(hb, inst.a).real
    const = 0.5 * np.vdot(inst.a, inst.a).real
    alpha = (lin + np.sqrt(lin**2 + 4 * quad * (rise - 1) * const)) / (2 * quad)
    config = SolverConfig(alpha=alpha, max_iter=1)
    new = run_solver(inst, pre, "gd", config)
    with reference.installed():
        ref = run_solver(inst, pre, "gd", config)
    assert new.objective == pytest.approx(rise * new.trace[0].objective, rel=1e-6)
    assert new.stop_reason == stop
    assert_bit_identical(new, ref)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 8),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    radius=st.sampled_from([1e-6, 0.5, 1.0, 2.0, 1e6]),
    negative_zeros=st.booleans(),
)
def test_projections_and_row_norms_match_reference_bit_for_bit(n, k, seed, radius, negative_zeros):
    rng = np.random.default_rng(seed)
    w = _draw(rng, radius * rng.choice([0.3, 1.0, 3.0], (n, 1)), (n, k))
    # Rows exactly on the sphere and within the boundary band of it.
    w[0] *= radius / np.linalg.norm(w[0])
    w[-1] *= (radius + 5e-16) / np.linalg.norm(w[-1])
    if negative_zeros:
        w = _with_negative_zeros(rng, w)
    ball = RowBall(radius)
    np.testing.assert_array_equal(_bits(project_rows(w, ball)),
                                  _bits(reference.project_rows(w, ball)))
    for x in (np.stack([w, -w, w.conj()]), w.T, w.real):  # a stack, a strided view, reals
        np.testing.assert_array_equal(_bits(row_sq_norms(x)), _bits(reference.row_sq_norms(x)))
    u = _stack_real(w)
    np.testing.assert_array_equal(_bits(_project_stacked(u, n, ball)),
                                  _bits(reference._project_stacked(u, n, ball)))


@pytest.mark.parametrize("options", [
    dict(alpha="f0.9"),
    dict(alpha="f0.5", max_iter=3),
    dict(alpha="f0.9", record_iterates=True),
])
def test_a_wrapped_project_rows_sees_every_projection(monkeypatch, options):
    calls = []
    project = solvers.project_rows

    def counting(w, ball):
        calls.append(w.shape)
        return project(w, ball)

    monkeypatch.setattr(solvers, "project_rows", counting)
    inst = make_instance(3)
    result = pgd_solve(precompute(inst), inst, zero_w(inst), RowBall(0.5), SolverConfig(**options))
    assert result.iterations >= 2
    assert len(calls) == result.iterations + 1  # the start, then once per step


@pytest.mark.parametrize("method", METHODS)
def test_timing_changes_only_elapsed_ns(method):
    inst = make_instance(4)
    pre = precompute(inst)
    untimed = run_solver(inst, pre, method, SolverConfig(alpha="f0.9"))
    timed = run_solver(inst, pre, method, SolverConfig(alpha="f0.9", time_iterations=True))
    assert all(r.elapsed_ns == 0 for r in untimed.trace)
    assert all(r.elapsed_ns > 0 for r in timed.trace)
    zeroed = [dataclasses.replace(r, elapsed_ns=0) for r in timed.trace]
    assert_bit_identical(dataclasses.replace(timed, trace=zeroed), untimed)


def test_kernel_bench_small_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kernel_bench.py"), "--small", "--label", "smoke"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads((tmp_path / "BENCH_kernel.json").read_text())["smoke"]
    assert {"nproc", "blas", "blas_version", "blas_threads"} <= set(run["machine"])
    for regime in run["regimes"].values():
        assert set(regime["methods"]) == set(METHODS)
        for method in regime["methods"].values():
            assert method["iterations"] > 0
            assert method["us_per_iter"] > 0 and method["gflops"] > 0
