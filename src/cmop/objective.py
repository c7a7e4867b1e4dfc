"""The half-squared-residual objective F(W) = 1/2 ||H W - A||_F^2.

Provides the problem container, cached normal-equation data (G = H^H H,
B = H^H A) with the largest eigenvalue of G (the smoothness constant L)
from a dense Hermitian eigensolve, the analytic gradient G W - B, a central
finite-difference gradient oracle built from the real and imaginary parts
separately, and the unconstrained closed-form solution.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .cmat import (
    ComplexMatrix,
    RealVector,
    adjoint_product,
    cmatrix,
    frob_norm,
    re_frob_inner,
)
from .errors import (
    ConfigError,
    DimensionError,
    InputError,
    SingularSystemError,
)

# Relative residual above which the normal-equation solve is not trusted.
_SOLVE_RESIDUAL_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class ProblemInstance:
    """A least-squares instance: data matrices H (M x N), A (M x K), and the
    per-row power budget eta used only by the constrained solvers.

    ``n_within_m`` is an advisory flag: N <= M is the generic condition for
    H^H H to be invertible. Instances violating it are still usable, but the
    closed-form solve may fail.
    """

    h: ComplexMatrix
    a: ComplexMatrix
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "h", cmatrix(self.h))
        object.__setattr__(self, "a", cmatrix(self.a))
        object.__setattr__(self, "eta", float(self.eta))
        if self.h.shape[0] != self.a.shape[0]:
            raise DimensionError(
                f"H and A must have the same row count: {self.h.shape} vs {self.a.shape}"
            )
        if not (self.eta > 0.0 and np.isfinite(self.eta)):
            raise InputError(f"eta must be a positive finite real, got {self.eta}")

    @property
    def m(self) -> int:
        return self.h.shape[0]

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def k(self) -> int:
        return self.a.shape[1]

    @property
    def n_within_m(self) -> bool:
        """Advisory: True when N <= M (generic invertibility of H^H H)."""
        return self.n <= self.m


@dataclasses.dataclass(frozen=True)
class Precomputed:
    """Cached normal-equation data for an instance.

    g is H^H H (Hermitian PSD), b is H^H A, and ``lipschitz`` and
    ``lambda_min`` the largest and smallest eigenvalues of g from one
    ``np.linalg.eigvalsh`` call. ``lambda_min`` is not clamped: on a
    singular g it is rounding noise of either sign.
    """

    g: ComplexMatrix
    b: ComplexMatrix
    lipschitz: float
    lambda_min: float


def precompute(instance: ProblemInstance) -> Precomputed:
    """Form G = H^H H and B = H^H A and compute L = lambda_max(G).

    L comes from a dense Hermitian eigensolve of G, exact to rounding, so
    steps resolved as fractions of 2/L or 1/L stay inside the guaranteed
    intervals. A top eigenvalue that rounds below zero (G = 0) is clamped
    to 0. The same eigensolve gives the smallest eigenvalue, which the
    closed form uses to detect a singular G.
    """
    g = adjoint_product(instance.h, instance.h)
    b = adjoint_product(instance.h, instance.a)
    eig = np.linalg.eigvalsh(g)
    lipschitz = max(float(eig[-1]), 0.0)
    return Precomputed(g=g, b=b, lipschitz=lipschitz, lambda_min=float(eig[0]))


def _check_w_shape(w, n, k):
    w = np.asarray(w)
    if w.shape != (n, k):
        raise DimensionError(f"W must be {n}x{k}, got {w.shape}")
    return w


def _residual_objective(instance: ProblemInstance, w: ComplexMatrix) -> float | RealVector:
    """Direct form 1/2 ||H w - A||_F^2 from the raw data matrices; a
    ``(*lead, N, K)`` stack of w gives one value per matrix."""
    r = instance.h @ w - instance.a
    return 0.5 * re_frob_inner(r, r)


def evaluate(pre: Precomputed, instance: ProblemInstance, w: ComplexMatrix) -> float:
    """Objective value 1/2 ||H w - A||_F^2 (direct residual form)."""
    w = _check_w_shape(w, instance.n, instance.k)
    return _residual_objective(instance, w)


def gradient(pre: Precomputed, w: ComplexMatrix) -> ComplexMatrix:
    """Complex gradient G w - B from the cached normal-equation data.

    Its real and imaginary parts are exactly the partial derivatives of the
    objective with respect to the real and imaginary parts of w, so the
    zero matrix certifies the normal equations. Cost is independent of M.
    """
    n, k = pre.b.shape
    w = _check_w_shape(w, n, k)
    return pre.g @ w - pre.b


def fd_gradient(
    instance: ProblemInstance, w: ComplexMatrix, step: float | None = None
) -> ComplexMatrix:
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


def closed_form_unconstrained(pre: Precomputed) -> ComplexMatrix:
    """Solve the normal equations G W = B by a dense linear solve.

    The unique unconstrained minimizer when G is invertible. G is treated
    as numerically singular, and SingularSystemError raised, when
    lambda_min(G) <= N eps lambda_max(G) (always when N > M, where the
    minimizers form an affine set), or when the solve leaves
    ||G W - B||_F > 1e-9 ||B||_F.
    """
    n = pre.g.shape[0]
    floor = n * np.finfo(float).eps * pre.lipschitz
    if pre.lambda_min <= floor:
        raise SingularSystemError(
            f"H^H H is numerically singular: lambda_min {pre.lambda_min:.3e} <= "
            f"N eps lambda_max = {floor:.3e}; check the instance's n_within_m "
            "advisory flag (N <= M is required for generic invertibility)"
        )
    try:
        w = np.linalg.solve(pre.g, pre.b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "H^H H is singular; check the instance's n_within_m advisory flag "
            "(N <= M is required for generic invertibility)"
        ) from exc
    residual = frob_norm(pre.g @ w - pre.b)
    b_norm = frob_norm(pre.b)
    if residual > _SOLVE_RESIDUAL_TOL * b_norm:
        raise SingularSystemError(
            f"normal-equation solve residual {residual:.3e} exceeds "
            f"{_SOLVE_RESIDUAL_TOL:g} * ||B||_F = {_SOLVE_RESIDUAL_TOL * b_norm:.3e}; "
            "H^H H is numerically singular - check the instance's n_within_m "
            "advisory flag (N <= M)"
        )
    return w


def quad_objective_constant(instance: ProblemInstance) -> float:
    """The constant 1/2 ||A||_F^2 completing the cached quadratic form.

    With it, F(w) = 1/2 Re<w, G w> - Re<w, B> + const can be evaluated at a
    cost independent of M; the fixed-step solvers use this form in-loop.
    """
    return 0.5 * re_frob_inner(instance.a, instance.a)
