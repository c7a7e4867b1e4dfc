"""Shared test helpers."""

from pathlib import Path

import numpy as np

from cmop import ConfigError, InputError, IterationRecord, cmatrix, frob_norm
from cmop.harness import TRACE_HEADER, gen_instance, instance_from_document
from cmop.objective import _check_w_shape, _residual_objective

_TRACE_CASTS = (int, float, float, float, float, int, int)


def make_instance(seed, m=10, n=5, k=8, rng_range=10.0, eta=2.0):
    """Deterministic test instance drawn through the package generator."""
    return instance_from_document(
        gen_instance(m=m, n=n, k=k, rng_range=rng_range, eta=eta, seed=seed)
    )


def random_w(rng, n=5, k=8, scale=2.0):
    return rng.uniform(-scale, scale, (n, k)) + 1j * rng.uniform(-scale, scale, (n, k))


def zero_w(instance):
    return np.zeros((instance.n, instance.k), dtype=np.complex128)


def fd_gradient(instance, w, step=None):
    """Central finite-difference gradient over the real/imaginary parts.

    Entry (n, k) is built from four objective evaluations: a symmetric
    difference along the real unit direction plus i times the symmetric
    difference along the imaginary unit direction. Acts as the independent
    check that the analytic gradient's components equal the real-space
    partial derivatives. Default step: 1e-5 * (1 + ||w||_F).
    """
    w = cmatrix(_check_w_shape(w, instance.n, instance.k))
    if step is None:
        step = 1e-5 * (1.0 + frob_norm(w))
    if not step > 0.0:
        raise ConfigError(f"finite-difference step must be positive, got {step}")
    out = np.empty_like(w)
    probe = w.copy()
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            orig = w[i, j]
            probe[i, j] = orig + step
            f_plus = _residual_objective(instance, probe)
            probe[i, j] = orig - step
            f_minus = _residual_objective(instance, probe)
            d_re = (f_plus - f_minus) / (2.0 * step)
            probe[i, j] = orig + 1j * step
            f_plus = _residual_objective(instance, probe)
            probe[i, j] = orig - 1j * step
            f_minus = _residual_objective(instance, probe)
            d_im = (f_plus - f_minus) / (2.0 * step)
            probe[i, j] = orig
            out[i, j] = d_re + 1j * d_im
    return out


def read_trace(path):
    """Parse a trace CSV written by ``cmop.harness.write_trace`` back into
    IterationRecords, rejecting a wrong header or a malformed row."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise InputError(f"cannot read trace file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"trace file {path} is not ASCII: {exc}") from exc
    lines = text.strip().split("\n")
    if not lines or lines[0] != TRACE_HEADER:
        raise InputError(f"trace file {path} has an unexpected header")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 7:
            raise InputError(f"trace row has {len(parts)} fields, expected 7")
        try:
            records.append(IterationRecord(*(cast(x) for cast, x in zip(_TRACE_CASTS, parts))))
        except ValueError as exc:
            raise InputError(f"trace row {line!r} is not numeric") from exc
    return records
