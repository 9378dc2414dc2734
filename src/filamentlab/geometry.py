"""Grids, sampled fields, and finite-difference calculus.

Everything else in the package is built on the pieces here: uniform 1-D
grids (half-line, symmetric whole-line, periodic), sampled vector
fields, second-order difference operators, and one-sided boundary
stencils from ``STENCILS``, exact weights on the integer offsets 0..p-1.

The interior second-difference is deliberately evaluated as
``(left + right) - 2*center`` (``second_difference``, shared by
``deriv`` and the twisted psi_ss of ``hasimoto``) so that
reflecting a field through s = 0 commutes with the operator *bitwise*
(negation commutes exactly with IEEE rounding).  ``evolve.rhs`` needs
only the neighbour sum ``left + right``, since the -2*center term drops
out of v x v_ss, and T commutes with it because that sum is symmetric.
The reflection-symmetry invariants downstream depend on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVector, GridMismatch, GridTooSmall, NonFiniteState, SpacingOutOfRange

#: Unit vector normal to the wall; the boundary value of the tangent field.
E3 = np.array([0.0, 0.0, 1.0])

#: Weights of the k-th derivative at s = 0 on the p nodes s = 0, 1, ..., keyed by
#: (k, p): each is its rational, correctly rounded (Python's int / int is).  k + 2
#: nodes give accuracy 2; k + 4 are the s <= 0 side of ``derivative_jump_residual``.
STENCILS = {
    (1, 3): (-3 / 2, 2, -1 / 2),
    (1, 5): (-25 / 12, 4, -3, 4 / 3, -1 / 4),
    (2, 4): (2, -5, 4, -1),
    (2, 6): (15 / 4, -77 / 6, 107 / 6, -13, 61 / 12, -5 / 6),
    (3, 5): (-5 / 2, 9, -12, 7, -3 / 2),
    (3, 7): (-49 / 8, 29, -461 / 8, 62, -307 / 8, 13, -15 / 8),
    (4, 6): (3, -14, 26, -24, 11, -2),
}

#: Highest boundary-trace derivative order of the stencil table.
K_MAX = max(k for k, _ in STENCILS)

#: Fewest nodes a grid may have.
MIN_NODES = 8

#: Smallest sample norm ``normalize_field`` rescales; a unit field after a
#: stable step never gets near it, so a norm below it means blowup.
MIN_NORM = 0.5

#: The grid kinds; ``Grid.kind`` is one of them.
KINDS = HALF, WHOLE, PERIODIC = ("half", "whole", "periodic")


@dataclass(frozen=True)
class Grid:
    """A uniform 1-D grid in the arclength variable s.

    kind:
        ``half``      [0, L], node at s = 0.
        ``whole``     [-L, L], symmetric, odd node count, node at s = 0.
        ``periodic``  [0, L) with wrap-around, spacing L/n.

    ``length`` is L; the left end ``s_min`` follows from the kind.
    """

    kind: str
    length: float
    n: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n < MIN_NODES:
            raise GridTooSmall(f"need at least {MIN_NODES} nodes, got {self.n}")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise SpacingOutOfRange(f"grid length must be a finite number above 0, got {self.length!r}")
        if self.kind == WHOLE and self.n % 2 == 0:
            raise ValueError("whole-line grids need an odd node count")

    @property
    def s_min(self) -> float:
        return -self.length if self.kind == WHOLE else 0.0

    @property
    def h(self) -> float:
        if self.kind == PERIODIC:
            return self.length / self.n
        return (self.length - self.s_min) / (self.n - 1)

    @property
    def center(self) -> int:
        """Index of the node at s = 0 (half/whole grids)."""
        if self.kind == HALF:
            return 0
        if self.kind == WHOLE:
            return (self.n - 1) // 2
        raise GridMismatch("periodic grid has no distinguished s = 0 node")

    def nodes(self) -> np.ndarray:
        return self.s_min + self.h * np.arange(self.n)

    def refined(self) -> "Grid":
        """Grid with spacing h/2 whose nodes nest into this one."""
        n = 2 * self.n if self.kind == PERIODIC else 2 * self.n - 1
        return Grid(self.kind, self.length, n)

    @classmethod
    def half_line(cls, length: float, n: int) -> "Grid":
        return cls(HALF, float(length), n)

    @classmethod
    def whole_line(cls, length: float, n: int) -> "Grid":
        return cls(WHOLE, float(length), n)

    @classmethod
    def periodic(cls, length: float, n: int) -> "Grid":
        return cls(PERIODIC, float(length), n)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Right-handed cross product, elementwise over trailing axis 3.

    Spelled out as ``a1*b2 - a2*b1`` and so on: the same roundings as
    ``np.cross``, so the same bits, with less overhead per call.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    p = a2 * b3  # its shape and dtype are those of every product
    out = np.empty((*p.shape, 3), p.dtype)
    np.subtract(p, a3 * b2, out=out[..., 0])
    np.subtract(a3 * b1, a1 * b3, out=out[..., 1])
    np.subtract(a1 * b2, a2 * b1, out=out[..., 2])
    return out


def row_norms(a: np.ndarray) -> np.ndarray:
    """|a_i| over the trailing axis 3, bit for bit ``np.sqrt(np.sum(a * a, axis=-1))``.

    The three squares are added in the order that sum takes, first two
    first, at a third of its per-call cost.
    """
    w = a * a
    return np.sqrt((w[..., 0] + w[..., 1]) + w[..., 2])


class VectorField:
    """Samples of an R^3-valued map on a grid, shape (n, 3)."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values)
        if values.shape != (grid.n, 3):
            raise GridMismatch(
                f"values shape {values.shape} does not match grid (n={grid.n})"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values

    def unit_deviation(self) -> float:
        """max_i | |v_i| - 1 |."""
        d = row_norms(self.values)
        d -= 1.0
        return float(np.abs(d, out=d).max())


def second_difference(padded: np.ndarray) -> np.ndarray:
    """``(left + right) - 2*center`` at rows 1..-2 of ``padded``, unscaled.

    The one place the interior second difference is evaluated; its order
    of operations is what makes the reflection T commute with it bitwise.
    """
    out = np.add(padded[:-2], padded[2:])
    out -= 2.0 * padded[1:-1]
    return out


def deriv(values: np.ndarray, grid: Grid, order: int) -> np.ndarray:
    """Second-order finite difference of raw samples (any trailing shape).

    Interior: central stencils.  Non-periodic edges: one-sided stencils of
    matching formal order.  Periodic grids wrap.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    h = grid.h
    v = values
    if grid.kind == PERIODIC:
        padded = np.concatenate((v[-1:], v, v[:1]))
        if order == 1:
            return (padded[2:] - padded[:-2]) / (2.0 * h)
        return second_difference(padded) / (h * h)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h) if order == 1 else second_difference(v) / (h * h)
    # the STENCILS row term by term (a matmul rounds otherwise), mirrored at the right end
    for end, sign, nodes in ((0, 1, v), (-1, (-1) ** order, v[::-1])):
        terms = [sign * w * nodes[i] for i, w in enumerate(STENCILS[order, order + 2])]
        out[end] = sum(terms[1:], terms[0]) / (h if order == 1 else h * h)
    return out


def cumtrapz(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at zero; ``dx`` may be an array of steps."""
    out = np.zeros_like(y)
    steps = np.add(y[1:], y[:-1], out=out[1:])  # in place: y may be a whole snapshot block
    steps *= 0.5 * dx
    np.cumsum(steps, axis=0, out=steps)
    return out


@np.errstate(over="ignore", invalid="ignore")  # a non-finite estimate raises instead
def one_sided_deriv_at_zero(field, k: int, points: int | None = None) -> np.ndarray:
    """One-sided estimate from s >= 0 of the k-th s-derivative trace at s = 0.

    The ``STENCILS`` weights of ``points`` nodes (default k + 2), then one
    division by h per order (h**k alone can underflow); a non-finite estimate
    raises SpacingOutOfRange.  k = 0 returns the node value itself.
    """
    if k < 0 or k > K_MAX:
        raise ValueError(f"derivative order {k} exceeds k_max={K_MAX}")
    grid = field.grid
    i0 = grid.center
    if k == 0:
        return np.array(field.values[i0], copy=True)
    p = points if points is not None else k + 2
    if i0 + p > grid.n:
        raise GridTooSmall(f"stencil of {p} nodes does not fit right of 0")
    # a fancy index gathers a contiguous copy: on a strided view the product rounds otherwise
    est = np.array(STENCILS[k, p]) @ field.values[i0 + np.arange(p)]
    for _ in range(k):
        est /= grid.h
    return finite_at_spacing(est, grid.h, f"derivative {k} at s = 0")


def finite_at_spacing(x, h: float, what: str):
    """``x``; SpacingOutOfRange if an entry is not finite, as h far from 1 can make it."""
    if not np.isfinite(x).all():
        raise SpacingOutOfRange(f"{what} is not a finite number at grid spacing h={h:g}")
    return x


def normalize_field(values: np.ndarray) -> np.ndarray:
    """Rescale every row of the (n, 3) array ``values`` to unit length.  Idempotent.

    Returns a new array.  Raises NonFiniteState if any row norm is not finite
    (a NaN or infinite entry, or a square that overflows), and else
    DegenerateVector if any falls below MIN_NORM.
    """
    norms = row_norms(values)
    if not np.isfinite(norms).all():
        raise NonFiniteState("field values must be finite")
    if norms.min() < MIN_NORM:
        raise DegenerateVector(
            f"sample norm {norms.min():.3g} below {MIN_NORM}; refusing to rescale"
        )
    return values / norms[:, None]
