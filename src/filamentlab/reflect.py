"""Reflection machinery: the involution T, extension and restriction.

Half-line data v0 is extended to the whole line by mirroring through the
wall with the sign pattern (-1, -1, +1):

    ext(s) = v0(s)        for s >= 0,
    ext(s) = -bar(v0(-s)) for s < 0,   bar(w) = (w1, w2, -w3).

The extension is a fixed point of T, (Tw)(s) = -bar(w(-s)), and the
whole-line grid is the exact mirror of the half-line grid, so T is a
bijection on nodes and all symmetry statements hold bitwise.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch
from .geometry import HALF, WHOLE, Grid, VectorField, finite_at_spacing, one_sided_deriv_at_zero, row_norms

#: The sign pattern of -bar: w * _NEGBAR is -bar(w), row by row.
_NEGBAR = np.array([-1.0, -1.0, 1.0])


def apply_T(field: VectorField) -> VectorField:
    """(T w)(s) = -bar(w(-s)) on a symmetric whole-line grid."""
    if field.grid.kind != WHOLE:
        raise GridMismatch("T needs a symmetric whole-line grid")
    return VectorField(field.grid, field.values[::-1] * _NEGBAR)


def extend(v0: VectorField) -> VectorField:
    """Mirror half-line data onto [-L, L]; restriction to s >= 0 is exact."""
    g = v0.grid
    if g.kind != HALF:
        raise GridMismatch("extend needs half-line input")
    whole = Grid.whole_line(g.length, 2 * g.n - 1)
    neg = (v0.values[1:] * _NEGBAR)[::-1]
    return VectorField(whole, np.concatenate([neg, v0.values], axis=0))


def restrict(whole: VectorField) -> VectorField:
    """Copy the s >= 0 nodes of a whole-line field onto a half-line grid."""
    g = whole.grid
    if g.kind != WHOLE:
        raise GridMismatch("restrict needs whole-line input")
    c = g.center
    half = Grid.half_line(g.length, g.n - c)
    return VectorField(half, np.array(whole.values[c:], copy=True))


def symmetry_residual(u: VectorField) -> float:
    """max-norm of T u - u; zero for fields obtained from extend()."""
    diff = apply_T(u).values
    diff -= u.values
    return float(row_norms(diff).max())


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual raises instead
def derivative_jump_residual(ext: VectorField, k: int) -> float:
    """|d^k ext(0+) - d^k ext(0-)| from one-sided stencils of a whole-line field.

    The left side is (-1)^k -bar of the s >= 0 rule on T ext, whose node j is
    -bar(ext(-j h)): the rule on the mirrored nodes, up to exact sign flips,
    with k+4 nodes to the right's k+2.  Mirror-identical stencils would cancel
    the truncation error exactly for odd/even-symmetric extensions and report
    roundoff instead of the O(h^2) signal a smooth extension should show; the
    length asymmetry keeps the signal alive while a genuine jump still
    dominates at O(1).  At k = 0 both sides are the node value at s = 0.
    """
    right = one_sided_deriv_at_zero(ext, k, points=k + 2)
    left = (-1) ** k * _NEGBAR * one_sided_deriv_at_zero(apply_T(ext), k, points=k + 4)
    return finite_at_spacing(float(np.linalg.norm(right - left)), ext.grid.h, f"jump residual k={k}")
