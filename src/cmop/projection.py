"""Euclidean projection onto the per-row norm ball and its certificates.

The feasible set is {W : ||row_n(W)||_2 <= r for every n}. For the
row-power-constrained problem with budget eta the correct radius is
sqrt(eta); a compatibility mode treating eta itself as the radius is kept
because published pseudocode for this projection sometimes compares row
norms against eta directly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cmat import ComplexMatrix, RealVector, frob_norm, re_frob_inner, row_sq_norms
from .errors import DimensionError, InputError

# Rows whose norm is within this band of the radius are left untouched, which
# avoids gratuitous rescaling noise and makes the projection idempotent
# entry-for-entry.
_BOUNDARY_BAND = 1e-15


@dataclasses.dataclass(frozen=True)
class RowBall:
    """Per-row Euclidean norm bound: every row norm must stay <= radius."""

    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise InputError(
                f"row ball radius must be a positive finite real, got {self.radius}"
            )

    @classmethod
    def for_power_budget(cls, eta: float, radius_is_eta: bool = False) -> "RowBall":
        """Ball for the constraint 'squared row norm <= eta'.

        The Euclidean radius is sqrt(eta). With ``radius_is_eta`` the raw
        eta is used as the radius instead (pseudocode-compatibility mode).
        """
        eta = float(eta)
        if not (eta > 0.0 and math.isfinite(eta)):
            raise InputError(f"power budget eta must be positive, got {eta}")
        return cls(eta if radius_is_eta else math.sqrt(eta))


def project_rows(w: ComplexMatrix, ball: RowBall) -> ComplexMatrix:
    """Project each row onto the ball: rows longer than the radius are
    rescaled to the radius, all other rows are returned bit-identical.

    This is the exact Euclidean projection onto the feasible set (rows are
    independent, and per row the nearest point of a centered ball lies on
    the segment to the origin). ``w`` is an N x K matrix or a
    ``(*lead, N, K)`` stack of them; every matrix of a stack comes back
    with the same bits as a 2-D call on it.
    """
    w = np.asarray(w)
    if w.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of matrices, got ndim={w.ndim}")
    scale = _row_scale(row_sq_norms(w), ball.radius)
    if scale is None:
        return w.copy()
    # Integer input would be truncated to integers; scale it as floats.
    out = w.copy() if w.dtype.kind in "fc" else w.astype(np.float64)
    # Scale the real and imaginary parts as reals (a complex factor would
    # turn a -0.0 real part into +0.0).
    parts = out.view(out.real.dtype)
    parts *= scale[..., None]
    return out


def _row_scale(sq_norms: RealVector, r: float) -> RealVector | None:
    """Per-row factors onto the ball of radius r, for rows with squared
    norms ``sq_norms``: r / norm for a row longer than r by more than
    _BOUNDARY_BAND, exactly 1.0 (which keeps a row's bits) for every other
    row. None when no row is that long."""
    ell = np.sqrt(sq_norms)
    mask = (ell - r) > _BOUNDARY_BAND
    if not np.count_nonzero(mask):
        return None
    return np.where(mask, r / np.maximum(ell, r), 1.0)


def is_feasible(w: ComplexMatrix, ball: RowBall, tol: float = 0.0) -> bool:
    """True iff every squared row norm is at most radius^2 + tol."""
    if tol < 0.0:
        raise InputError(f"feasibility tolerance must be >= 0, got {tol}")
    w = np.asarray(w)
    return bool(np.all(row_sq_norms(w) <= ball.radius * ball.radius + tol))


def vi_residual(
    w_plus: ComplexMatrix,
    v: ComplexMatrix,
    w_test: ComplexMatrix,
) -> float | RealVector:
    """Variational-inequality residual Re<w_plus - w_test, v - w_plus>.

    With w_plus the projection of v and w_test any feasible point, the
    value is nonnegative up to rounding; a materially negative value
    certifies a projection bug. Feasibility of w_test is the caller's
    premise and is not checked: for an infeasible probe the value has no
    sign guarantee. Stacked ``(*lead, N, K)`` inputs give one residual per
    matrix (see ``re_frob_inner``).
    """
    w_plus = np.asarray(w_plus)
    v = np.asarray(v)
    w_test = np.asarray(w_test)
    if not (w_plus.shape == v.shape == w_test.shape):
        raise DimensionError(
            f"shape mismatch: {w_plus.shape}, {v.shape}, {w_test.shape}"
        )
    return re_frob_inner(w_plus - w_test, v - w_plus)


def vi_floor(v: ComplexMatrix) -> float:
    """Documented rounding floor for the VI residual: -1e-10 (1 + ||v||_F^2)."""
    nv = frob_norm(v)
    return -1e-10 * (1.0 + nv * nv)
