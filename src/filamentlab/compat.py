"""Boundary compatibility checks and builtin initial-data families.

The checks decide whether half-line initial data v0 admits a smooth
solution that respects v(0, t) = e3: order k = 0 requires v0(0) = e3,
order k >= 1 requires v0 x d^{2k}v0/ds^{2k} to vanish at s = 0.  The
odd-order inner products d^j v0 . d^l v0 |_{s=0} (j + l odd) are
reported as a consistency diagnostic.

All residuals are measured from samples with one-sided stencils, so a
fixed absolute tolerance cannot separate discretization error from a
genuine violation.  When the caller can resample (builtin families
can), the verdict adds a two-grid cross-check: a residual that fails
the absolute tolerance still passes if halving h shrinks it at the
stencil's order; a genuine violation converges to a nonzero constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import NotUnitField, OrderTooHigh, UnknownFamily
from .geometry import E3, K_MAX, Grid, VectorField, cross, one_sided_deriv_at_zero

#: Residual contraction required by the two-grid cross-check (order-2
#: stencils contract by ~4; incompatible data contracts by ~1).
REFINE_FACTOR = 0.35

#: Sanity cap on max | |v0| - 1 | before the data counts as a tangent field.
UNIT_FIELD_CAP = 0.1


# ---------------------------------------------------------------------------
# builtin families


class TangentFamily:
    """A closed-form unit tangent field with analytic s-derivatives.

    ``tangent`` and ``derivative`` evaluate the closed form and its exact
    k-th derivative; the latter backs oracle tests and is never consulted
    by the sample-based checker.
    """

    #: grid kinds the family makes sense on
    kinds = ("half", "whole", "periodic")

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = dict(params)

    def tangent(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, s: np.ndarray, k: int) -> np.ndarray:
        raise NotImplementedError

    def sample(self, grid: Grid) -> VectorField:
        return VectorField(grid, self.tangent(grid.nodes()))

    def sampler(self) -> Callable[[Grid], VectorField]:
        return self.sample

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.name}:{inner}"


class StraightFamily(TangentFamily):
    """v0 = e3 everywhere: the straight filament normal to the wall."""

    def __init__(self):
        super().__init__("straight", {})

    def tangent(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros((s.size, 3))
        out[:, 2] = 1.0
        return out

    def derivative(self, s, k):
        s = np.asarray(s, dtype=float)
        if k == 0:
            return self.tangent(s)
        return np.zeros((s.size, 3))


class _PlanarFamily(TangentFamily):
    """v0 = (sin a(s), 0, cos a(s)) for a symbolic angle profile a(s).

    Exact derivatives come from sympy, lambdified lazily per order.
    """

    kinds = ("half", "whole")

    def __init__(self, name, params, alpha_expr, sym):
        super().__init__(name, params)
        self._s = sym
        self._exprs = None
        self._alpha = alpha_expr
        self._lams: dict = {}

    def _component_exprs(self):
        if self._exprs is None:
            import sympy as sp

            self._exprs = (sp.sin(self._alpha), sp.Integer(0), sp.cos(self._alpha))
        return self._exprs

    def _lam(self, k: int):
        if k not in self._lams:
            import sympy as sp

            lams = []
            for e in self._component_exprs():
                de = sp.diff(e, self._s, k) if k else e
                lams.append(sp.lambdify(self._s, de, "numpy"))
            self._lams[k] = lams
        return self._lams[k]

    def tangent(self, s):
        return self.derivative(s, 0)

    def derivative(self, s, k):
        s = np.asarray(s, dtype=float)
        cols = []
        for lam in self._lam(k):
            col = np.asarray(lam(s), dtype=float)
            if col.shape != s.shape:
                col = np.full(s.shape, float(col))
            cols.append(col)
        return np.stack(cols, axis=1)


def _planar_odd(a: float) -> TangentFamily:
    import sympy as sp

    s = sp.Symbol("s", real=True)
    return _PlanarFamily("planar_odd", {"a": a}, a * s * sp.exp(-(s**2)), s)


def _planar_bad(a: float) -> TangentFamily:
    # the s^2 term breaks the order-1 condition at the wall on purpose
    import sympy as sp

    s = sp.Symbol("s", real=True)
    return _PlanarFamily(
        "planar_bad", {"a": a}, (a * s + s**2) * sp.exp(-(s**2)), s
    )


class HelixFamily(TangentFamily):
    """Rotating-wave tangent (a cos ks, a sin ks, c) with a^2 + c^2 = 1."""

    kinds = ("periodic", "whole")

    def __init__(self, a=0.6, c=0.8, k=2.0):
        if abs(a * a + c * c - 1.0) > 1e-12:
            raise ValueError("helix needs a^2 + c^2 = 1")
        super().__init__("helix", {"a": a, "c": c, "k": k})

    def tangent(self, s):
        return self.derivative(s, 0)

    def exact(self, s, t):
        """Solution of v_t = v x v_ss at time t: the wave rotates at w = c k^2."""
        s = np.asarray(s, dtype=float)
        a, c, k = self.params["a"], self.params["c"], self.params["k"]
        phase = k * s - c * k * k * t
        out = np.empty((s.size, 3))
        out[:, 0] = a * np.cos(phase)
        out[:, 1] = a * np.sin(phase)
        out[:, 2] = c
        return out

    def derivative(self, s, k_order):
        s = np.asarray(s, dtype=float)
        a, c, k = self.params["a"], self.params["c"], self.params["k"]
        shift = k_order * np.pi / 2.0
        scale = k**k_order
        out = np.empty((s.size, 3))
        out[:, 0] = a * scale * np.cos(k * s + shift)
        out[:, 1] = a * scale * np.sin(k * s + shift)
        out[:, 2] = c if k_order == 0 else 0.0
        return out


class RingFamily(TangentFamily):
    """Unit-speed circle tangent (-sin(s/r), cos(s/r), 0); period 2*pi*r."""

    kinds = ("periodic",)

    def __init__(self, r=1.0):
        super().__init__("ring", {"r": r})

    def period(self) -> float:
        return 2.0 * np.pi * self.params["r"]

    def tangent(self, s):
        return self.derivative(s, 0)

    def derivative(self, s, k_order):
        s = np.asarray(s, dtype=float)
        r = self.params["r"]
        w = 1.0 / r
        shift = k_order * np.pi / 2.0
        scale = w**k_order
        out = np.empty((s.size, 3))
        out[:, 0] = -scale * np.sin(s * w + shift)
        out[:, 1] = scale * np.cos(s * w + shift)
        out[:, 2] = 0.0
        return out


_FAMILIES = {
    "straight": lambda **p: StraightFamily(),
    "planar_odd": lambda a=0.5, **p: _planar_odd(a),
    "planar_bad": lambda a=0.5, **p: _planar_bad(a),
    "helix": lambda a=0.6, c=0.8, k=2.0, **p: HelixFamily(a, c, k),
    "ring": lambda r=1.0, **p: RingFamily(r),
}


def get_family(name: str, **params) -> TangentFamily:
    try:
        maker = _FAMILIES[name]
    except KeyError:
        raise UnknownFamily(
            f"unknown family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    return maker(**params)


def builtin_initial_data(name: str, grid: Grid, **params) -> VectorField:
    """Sample a named closed-form family on the requested grid."""
    return get_family(name, **params).sample(grid)


def parse_family_spec(spec: str) -> TangentFamily:
    """Parse "name" or "name:key=val,key=val" into a family."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise UnknownFamily(f"bad family parameter {item!r} in {spec!r}")
            params[key.strip()] = float(val)
    return get_family(name.strip(), **params)


# ---------------------------------------------------------------------------
# compatibility report


@dataclass
class CompatibilityReport:
    """Per-order boundary residuals with verdicts.

    ``a_residuals[k]`` is |v0(0) - e3| for k = 0 and |v0(0) x d^{2k}v0(0)|
    for k >= 1.  ``d_residuals[(j, l)]`` holds |d^j v0 . d^l v0|(0) for
    odd j + l.  When the two-grid cross-check ran, ``*_coarse`` carry the
    residuals at spacing 2h and ``refined`` is True.
    """

    max_order: int
    tol: float
    a_residuals: list = dc_field(default_factory=list)
    a_pass: list = dc_field(default_factory=list)
    d_residuals: dict = dc_field(default_factory=dict)
    d_pass: dict = dc_field(default_factory=dict)
    norm_residual: float = 0.0
    refined: bool = False
    a_residuals_coarse: list = dc_field(default_factory=list)
    d_residuals_coarse: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.a_pass)

    def failed_orders(self) -> list:
        return [k for k, ok in enumerate(self.a_pass) if not ok]

    def to_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "tol": self.tol,
            "norm_residual": self.norm_residual,
            "refined": self.refined,
            "a_residuals": list(self.a_residuals),
            "a_pass": list(self.a_pass),
            "a_residuals_coarse": list(self.a_residuals_coarse),
            "d_residuals": {f"{j},{l}": r for (j, l), r in self.d_residuals.items()},
            "d_pass": {f"{j},{l}": ok for (j, l), ok in self.d_pass.items()},
            "passed": self.passed,
        }


def _a_residual(v0: VectorField, k: int) -> float:
    if k == 0:
        return float(np.linalg.norm(v0.values[v0.grid.center] - E3))
    d = one_sided_deriv_at_zero(v0, 2 * k)
    return float(np.linalg.norm(cross(v0.values[v0.grid.center], d)))


def _d_pairs(n: int, k_max: int = K_MAX) -> list:
    pairs = []
    for total in range(1, 2 * n + 2, 2):
        for j in range(0, total // 2 + 1):
            l = total - j
            if l <= k_max:
                pairs.append((j, l))
    return pairs


def _d_residual(v0: VectorField, j: int, l: int) -> float:
    dj = one_sided_deriv_at_zero(v0, j)
    dl = one_sided_deriv_at_zero(v0, l)
    return float(abs(np.dot(dj, dl)))


def _verdict(tol: float, coarse: float, fine: float | None) -> bool:
    if fine is None:
        return coarse <= tol
    if fine <= tol:
        return True
    return fine <= REFINE_FACTOR * coarse


def check_compat(
    v0: VectorField,
    n: int,
    tol: float = 1e-6,
    resampler: Callable[[Grid], VectorField] | None = None,
) -> CompatibilityReport:
    """Full compatibility report up to order n (conditions and diagnostics).

    ``resampler``, when given, maps a grid to a resampling of the same
    underlying data; it enables the two-grid cross-check that separates
    stencil truncation error from genuine incompatibility.
    """
    if 2 * n > K_MAX:
        raise OrderTooHigh(f"order {n} needs derivative {2 * n} > k_max={K_MAX}")
    norm_residual = v0.unit_deviation()
    if norm_residual > UNIT_FIELD_CAP:
        raise NotUnitField(
            f"max | |v0| - 1 | = {norm_residual:.3g}; not a tangent field"
        )
    report = CompatibilityReport(max_order=n, tol=tol, norm_residual=norm_residual)
    fine = None
    if resampler is not None:
        fine = resampler(v0.grid.refined())
        report.refined = True
    for k in range(n + 1):
        rc = _a_residual(v0, k)
        rf = _a_residual(fine, k) if fine is not None else None
        if fine is not None:
            report.a_residuals_coarse.append(rc)
            report.a_residuals.append(rf)
        else:
            report.a_residuals.append(rc)
        report.a_pass.append(_verdict(tol, rc, rf))
    for j, l in _d_pairs(n):
        rc = _d_residual(v0, j, l)
        rf = _d_residual(fine, j, l) if fine is not None else None
        if fine is not None:
            report.d_residuals_coarse[(j, l)] = rc
            report.d_residuals[(j, l)] = rf
        else:
            report.d_residuals[(j, l)] = rc
        report.d_pass[(j, l)] = _verdict(tol, rc, rf)
    return report


def check_A(v0, n, tol=1e-6, resampler=None) -> CompatibilityReport:
    """Compatibility conditions only (the gate); diagnostics left empty."""
    report = check_compat(v0, n, tol, resampler)
    report.d_residuals.clear()
    report.d_pass.clear()
    report.d_residuals_coarse.clear()
    return report


def check_D(v0, n, tol=1e-6, resampler=None) -> CompatibilityReport:
    """Odd inner-product diagnostics only; not an independent gate."""
    report = check_compat(v0, n, tol, resampler)
    report.a_residuals.clear()
    report.a_pass.clear()
    report.a_residuals_coarse.clear()
    return report
