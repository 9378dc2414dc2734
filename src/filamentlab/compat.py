"""Boundary compatibility checks and builtin initial-data families.

The checks decide whether half-line initial data v0 admits a smooth
solution that respects v(0, t) = e3: order k = 0 requires v0(0) = e3,
order k >= 1 requires v0 x d^{2k}v0/ds^{2k} to vanish at s = 0.

All residuals are measured from samples with one-sided stencils, so a
fixed absolute tolerance cannot separate discretization error from a
genuine violation.  The verdict therefore adds a two-grid cross-check
against the data's own every-other-node decimation at spacing 2h: a
residual that fails the absolute tolerance still passes if it is
smaller than the decimation's by the stencil's order; a genuine
violation converges to a nonzero constant.  A family that is to be
judged at spacing h is handed over sampled at h/2 (``Grid.refined``).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import GridMismatch, GridTooSmall, SpacingOutOfRange, UnknownFamily
from .geometry import E3, HALF, K_MAX, KINDS, MIN_NODES, PERIODIC, WHOLE, Grid, VectorField, cross, finite_at_spacing, one_sided_deriv_at_zero

#: Residual contraction required by the two-grid cross-check (order-2
#: stencils contract by ~4; incompatible data contracts by ~1).
REFINE_FACTOR = 0.35

#: Sanity cap on max | |v0| - 1 | before the data counts as a tangent field.
UNIT_FIELD_CAP = 0.1


# ---------------------------------------------------------------------------
# builtin families


class TangentFamily:
    """A closed-form unit tangent field v0(s), evaluated at nodes by ``tangent``.

    A family defines nothing of higher order: the checker measures the
    boundary conditions from samples, and the tests take exact derivatives
    from sympy or from closed forms they write out.
    """

    #: grid kinds the family makes sense on
    kinds = KINDS

    def __init__(self, name: str, params: dict):
        """Checks the rule all families share; subclasses call it before their own."""
        for key, value in params.items():
            if not math.isfinite(value):
                raise ValueError(f"family {name!r} parameter {key} must be finite, got {value!r}")
        self.name = name
        self.params = dict(params)

    def tangent(self, s: np.ndarray) -> np.ndarray:
        """The unit tangent at the nodes s, an (n, 3) array."""
        raise NotImplementedError

    def period(self) -> float | None:
        """Period in s of the closed form; None where every length fits."""
        return None

    def sample(self, grid: Grid) -> VectorField:
        """The field at the grid's nodes; a periodic grid holds whole periods, each over 2h."""
        if grid.kind not in self.kinds:
            raise GridMismatch(
                f"family {self.name!r} is defined on {'/'.join(self.kinds)} grids, "
                f"not on a {grid.kind} grid"
            )
        period = self.period()
        if grid.kind == PERIODIC and period is not None:
            turns = grid.length / period
            if turns >= grid.n / 2:  # period <= 2h: the nodes see an alias, not the family
                raise GridTooSmall(
                    f"family {self.name!r} has period {period!r}; a periodic grid of "
                    f"{grid.n} nodes must hold fewer than {grid.n / 2:g} periods, "
                    f"got length {grid.length!r}"
                )
            if abs(turns - round(turns)) > 1e-9 * turns:  # a rounded 0 fails too
                raise SpacingOutOfRange(
                    f"family {self.name!r} has period {period!r}; a periodic grid "
                    f"must hold a whole number of periods, got length {grid.length!r}"
                )
        return VectorField(grid, self.tangent(grid.nodes()))


class StraightFamily(TangentFamily):
    """v0 = e3 everywhere: the straight filament normal to the wall."""

    def __init__(self):
        super().__init__("straight", {})

    def tangent(self, s):
        out = np.zeros((np.asarray(s, dtype=float).size, 3))
        out[:, 2] = 1.0
        return out


class _PlanarFamily(TangentFamily):
    """v0 = (sin alpha, 0, cos alpha) with alpha(s) = (c1 s + c2 s^2) exp(-s^2).

    The closed form is evaluated in the operation order of the symbolic
    definition's lambdified code, so samples keep its bits.
    """

    kinds = (HALF, WHOLE)

    def __init__(self, name, params, c1, c2):
        super().__init__(name, params)
        self.c1, self.c2 = float(c1), float(c2)

    def _lam(self, s):
        """The closed form at the nodes s, an (n, 3) array.

        ``perfbench/layers.py`` wraps this method as the ``compat.family``
        span; ``tangent`` calls it so that the span times every planar sample.
        """
        c1, c2 = self.c1, self.c2
        with np.errstate(over="ignore", invalid="ignore"):  # s^2 past the float range
            sq = s**2
            # no "+ 0 s^2" term: it would turn a -0.0 angle into +0.0
            poly = c1 * s + c2 * sq if c2 else c1 * s
            decay = np.exp(-sq)
            # where exp(-s^2) is 0, poly * 0 is the 0 of poly's sign, and not NaN for poly = inf
            alpha = np.where(decay == 0.0, np.copysign(0.0, poly), poly * decay)
        return np.stack([np.sin(alpha), np.zeros_like(s), np.cos(alpha)], axis=-1)

    def tangent(self, s):
        return self._lam(np.asarray(s, dtype=float))


class HelixFamily(TangentFamily):
    """Rotating-wave tangent (a cos ks, a sin ks, c) with a^2 + c^2 = 1."""

    kinds = (PERIODIC, WHOLE)

    def __init__(self, a=0.6, c=0.8, k=2.0):
        super().__init__("helix", {"a": a, "c": c, "k": k})
        if abs(a * a + c * c - 1.0) > 1e-12:
            raise ValueError("helix needs a^2 + c^2 = 1")

    def period(self) -> float | None:
        k = self.params["k"]
        return 2.0 * np.pi / abs(k) if k else None

    def exact(self, s, t):
        """Solution of v_t = v x v_ss at time t: the t = 0 tangent at s - c k t."""
        c, k = self.params["c"], self.params["k"]
        return self.tangent(np.asarray(s, dtype=float) - c * k * t)

    def tangent(self, s):
        a, k = self.params["a"], self.params["k"]
        # + 0.0 turns the -0.0 phase of k < 0 at s = 0 into +0.0, whose sin is +0.0
        phase = k * np.asarray(s, dtype=float) + 0.0
        out = np.empty((phase.size, 3))
        out[:, 0], out[:, 1], out[:, 2] = a * np.cos(phase), a * np.sin(phase), self.params["c"]
        return out


class RingFamily(TangentFamily):
    """Unit-speed circle tangent (-sin(s/r), cos(s/r), 0); period 2*pi*r."""

    kinds = (PERIODIC,)

    def __init__(self, r=1.0):
        super().__init__("ring", {"r": r})
        if not r > 0.0:
            raise ValueError(f"family 'ring' parameter r must be above 0, got {r!r}")

    def period(self) -> float:
        return 2.0 * np.pi * self.params["r"]

    def tangent(self, s):
        # (1.0 / r) * s, not s / r, and + 0.0 as in the helix: the bits of every sample
        phase = 1.0 / self.params["r"] * np.asarray(s, dtype=float) + 0.0
        out = np.zeros((phase.size, 3))
        out[:, 0], out[:, 1] = -np.sin(phase), np.cos(phase)
        return out


_FAMILIES = {
    "straight": StraightFamily,
    "planar_odd": lambda a=0.5: _PlanarFamily("planar_odd", {"a": a}, a, 0.0),
    # the s^2 term breaks the order-1 condition at the wall on purpose
    "planar_bad": lambda a=0.5: _PlanarFamily("planar_bad", {"a": a}, a, 1.0),
    "helix": HelixFamily,
    "ring": RingFamily,
}


def get_family(name: str, **params) -> TangentFamily:
    try:
        maker = _FAMILIES[name]
    except KeyError:
        raise UnknownFamily(
            f"unknown family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    accepted = list(inspect.signature(maker).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise UnknownFamily(
            f"family {name!r} has no parameter {', '.join(unknown)}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )
    return maker(**params)


def parse_family_spec(spec: str) -> TangentFamily:
    """Parse "name" or "name:key=val,key=val" into a family."""
    name, _, rest = (part.strip() for part in spec.partition(":"))
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = (part.strip() for part in item.partition("="))
            if key in params:
                raise UnknownFamily(f"family {name!r} parameter {key} is set twice")
            try:
                params[key] = float(val)
            except ValueError:
                raise UnknownFamily(
                    f"family {name!r} parameter {key} must be a number, got {val!r}"
                ) from None
    return get_family(name, **params)


# ---------------------------------------------------------------------------
# compatibility report


@dataclass
class CompatibilityReport:
    """Per-order boundary residuals with verdicts.

    ``a_residuals[k]`` is |v0(0) - e3| for k = 0 and |v0(0) x d^{2k}v0(0)|
    for k >= 1.  When the two-grid cross-check ran, ``a_residuals_coarse``
    carries them at spacing 2h and ``refined`` is True.
    """

    max_order: int
    tol: float
    a_residuals: list
    a_pass: list
    norm_residual: float
    a_residuals_coarse: list

    @property
    def passed(self) -> bool:
        return all(self.a_pass)

    @property
    def refined(self) -> bool:
        return bool(self.a_residuals_coarse)

    def failed_orders(self) -> list:
        return [k for k, ok in enumerate(self.a_pass) if not ok]

    def to_dict(self) -> dict:
        return {**asdict(self), "refined": self.refined, "passed": self.passed}


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual raises instead
def _residuals(v0: VectorField, n: int) -> list:
    """|v0(0) - e3| and |v0(0) x d^{2k}v0(0)| for k = 1..n, of one sampling."""
    v = one_sided_deriv_at_zero(v0, 0)
    crossed = [cross(v, one_sided_deriv_at_zero(v0, 2 * k)) for k in range(1, n + 1)]
    norms = [float(np.linalg.norm(r)) for r in (v - E3, *crossed)]
    return finite_at_spacing(norms, v0.grid.h, "a compatibility residual")


def _passes(residual: float, tol: float, coarse: float | None) -> bool:
    """Within tol, or, given the residual at spacing 2h, shrunk at the stencil's order."""
    return residual <= tol or (coarse is not None and residual <= REFINE_FACTOR * coarse)


def check_order_range(name: str, order: int) -> None:
    """Reject a compatibility order outside 0...K_MAX // 2, naming the setting ``name``.

    Order k reads derivative 2k at s = 0, so K_MAX // 2 is the highest.
    """
    if not 0 <= order <= K_MAX // 2:
        raise ValueError(f"{name} must be at least 0 and at most {K_MAX // 2}, got {order!r}")


def decimated(v0: VectorField) -> VectorField:
    """Every other node of half-line samples from s = 0: the same data at spacing 2h.

    An even node count loses its last node, so on odd n the grid is exactly
    ``Grid.half_line(L, (n + 1) // 2)`` and ``Grid.refined`` undoes it.
    """
    grid = v0.grid
    length = grid.length if grid.n % 2 else grid.length - grid.h
    return VectorField(Grid.half_line(length, (grid.n + 1) // 2), v0.values[::2])


def check_compat(v0: VectorField, n: int, tol: float) -> CompatibilityReport:
    """Compatibility report of the conditions up to order n.

    ``v0`` is half-line data.  Its residuals are cross-checked against those
    of ``decimated(v0)``, which separates stencil truncation error from
    genuine incompatibility, whenever the decimation is a grid (n >= 15
    nodes); below that the absolute tolerance alone decides.
    """
    check_order_range("order", n)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"compatibility tolerance must be a finite number above 0, got {tol!r}")
    if v0.grid.kind != HALF:
        raise GridMismatch(
            f"compatibility is checked on half-line data, not on a {v0.grid.kind} grid"
        )
    norm_residual = v0.unit_deviation()
    if norm_residual > UNIT_FIELD_CAP:
        raise ValueError(
            f"max | |v0| - 1 | = {norm_residual:.3g}; not a tangent field"
        )
    a = _residuals(v0, n)
    a_coarse = _residuals(decimated(v0), n) if (v0.grid.n + 1) // 2 >= MIN_NODES else []
    return CompatibilityReport(
        max_order=n,
        tol=tol,
        a_residuals=a,
        a_pass=[_passes(r, tol, a_coarse[k] if a_coarse else None) for k, r in enumerate(a)],
        norm_residual=norm_residual,
        a_residuals_coarse=a_coarse,
    )
