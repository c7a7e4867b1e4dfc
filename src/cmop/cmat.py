"""Dense complex-matrix primitives and the real-Frobenius geometry.

Matrices are C-contiguous ``numpy.complex128`` arrays: row-major storage
where each entry is an interleaved (re, im) pair of 64-bit floats. Rows are
the unit of projection downstream, so row-contiguous access dominates.
Vectors of row norms, multipliers etc. are ``numpy.float64`` arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, InputError

# Type aliases used throughout the package. A ComplexMatrix is a validated
# 2-D complex128 ndarray; a RealVector is a finite 1-D float64 ndarray.
ComplexMatrix = np.ndarray
RealVector = np.ndarray

# Matrices per random call in uniform_cmatrix: a block of the
# sample monitors (32 samples of two matrices) is one call.
_DRAW_BLOCK = 64


def cmatrix(data) -> ComplexMatrix:
    """Build a validated complex matrix.

    Accepts anything ``np.asarray`` does, normalizes to a C-contiguous
    complex128 2-D array, and rejects non-finite entries so a diverging
    caller fails loudly at a defined boundary instead of propagating NaN.
    """
    m = np.ascontiguousarray(np.asarray(data, dtype=np.complex128))
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise InputError("matrix entries must be finite (no NaN/Inf)")
    return m


def rvector(data) -> RealVector:
    """Build a validated 1-D float64 vector (finite entries only)."""
    v = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise InputError("vector entries must be finite (no NaN/Inf)")
    return v


def re_frob_inner(x: ComplexMatrix, y: ComplexMatrix) -> float | RealVector:
    """Real part of the Frobenius inner product, Re(trace(x^H y)).

    Equals sum_ij [Re(x_ij)Re(y_ij) + Im(x_ij)Im(y_ij)]; symmetric in its
    arguments and bilinear over real scalars. This is the inner product
    under which the complex matrix space behaves as a real vector space.

    Leading axes are a stack of matrices: ``(*lead, N, K)`` inputs give one
    inner product per matrix, shape ``lead``; a 2-D pair gives a float.
    Each value is the same conjugated dot product ``np.vdot`` computes.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {y.shape}")
    lead = x.shape[:-2]
    out = np.vecdot(x.reshape(*lead, -1), y.reshape(*lead, -1)).real
    return out if lead else float(out)


def frob_norm(x: ComplexMatrix) -> float:
    """Frobenius norm: sqrt of the summed squared moduli of all entries."""
    x = np.asarray(x)
    return float(np.sqrt(max(np.vdot(x, x).real, 0.0)))


def row_sq_norms(w: ComplexMatrix) -> RealVector:
    """Squared Euclidean norm of each row: entry n is sum_k |w[n,k]|^2.

    A ``(*lead, N, K)`` stack gives shape ``(*lead, N)``. The sums run over
    contiguous copies of the real and imaginary parts, so each matrix of a
    stack gets the same bits as a 2-D call on it.
    """
    w = np.asarray(w)
    re = np.ascontiguousarray(w.real)
    im = np.ascontiguousarray(w.imag)
    return np.einsum("...j,...j->...", re, re) + np.einsum("...j,...j->...", im, im)


def uniform_cmatrix(rng: np.random.Generator, scale: float, shape) -> ComplexMatrix:
    """Random ``(*lead, N, K)`` matrices with real and imaginary parts
    uniform in [-scale, scale].

    The draws follow the layout ``(*lead, 2, N, K)``: per matrix, all real
    parts, then all imaginary parts, so a stack of S matrices takes the
    same stream as S consecutive 2-D calls. They are made _DRAW_BLOCK
    matrices per ``rng.uniform`` call, which keeps the float temporaries
    small next to the result.
    """
    *lead, n, k = shape
    out = np.empty((*lead, n, k), dtype=np.complex128)
    flat = out.reshape(math.prod(lead), n, k)
    for start in range(0, len(flat), _DRAW_BLOCK):
        block = flat[start : start + _DRAW_BLOCK]
        parts = rng.uniform(-scale, scale, (len(block), 2, n, k))
        block.real = parts[:, 0]
        block.imag = parts[:, 1]
    return out


def adjoint_product(x: ComplexMatrix, y: ComplexMatrix) -> ComplexMatrix:
    """Conjugate-transpose product x^H y.

    For x == y the result is Hermitian positive semidefinite; this is the
    building block for the cached normal-equation matrices.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionError(
            f"inner-dimension mismatch: {x.shape} adjoint-times {y.shape}"
        )
    return np.ascontiguousarray(x.conj().T @ y)
