"""Checks that hold after every test of the suite, the planar families' symbolic reference, the jump study, and ``rhs`` on (n, 3) arrays."""

import functools
import os

import pytest

from filamentlab.evolve import pack, rhs, unpack
from filamentlab.geometry import Grid
from filamentlab.harness import HALF_LENGTH, fit_order
from filamentlab.reflect import derivative_jump_residual, extend


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind: the package starts none."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all: the only passing outcome
        return
    pytest.fail(f"the test left a child process behind ({pid or 'still running'})")


@functools.lru_cache(maxsize=None)
def _sympy_derivative(name: str, k: int):
    """Lambdified d^k/ds^k of (sin alpha, cos alpha) as a function of (s, a).

    The symbolic definition of the planar families, alpha = a s exp(-s^2)
    (planar_odd) or (a s + s^2) exp(-s^2) (planar_bad).  sympy applies the
    chain rule to sin and cos of an opaque A(s), and then puts in alpha and
    its own derivatives: the same derivative in a third of the time of
    differentiating the composite k times.  A missing sympy fails the test.
    """
    import sympy as sp

    s, a = sp.symbols("s a", real=True)
    poly = a * s if name == "planar_odd" else a * s + s**2
    alpha = poly * sp.exp(-(s**2))
    opaque = sp.Function("A")(s)
    inner = {sp.Derivative(opaque, (s, j)): sp.diff(alpha, s, j) for j in range(k, 0, -1)}
    return [
        sp.lambdify((s, a), sp.diff(f(opaque), s, k).subs(inner).subs(opaque, alpha), "numpy")
        for f in (sp.sin, sp.cos)
    ]


@pytest.fixture(scope="session")
def sympy_derivative():
    """``sympy_derivative(name, k)``: the [sin, cos] columns of d^k v/ds^k of a planar family."""
    return _sympy_derivative


def _extension_jump_study(family, levels) -> dict:
    """Jump residuals of the reflection extension across resolutions.

    Returns {k: {levels, hs, errors, order}} for k = 1, 2, 3 on half lines of
    length ``harness.HALF_LENGTH``.  Compatible data shows order ~2;
    incompatible data converges to the true jump (order ~0).
    """
    out = {}
    grids = [Grid.half_line(HALF_LENGTH, n) for n in levels]
    hs = [g.h for g in grids]
    exts = [extend(family.sample(g)) for g in grids]
    for k in (1, 2, 3):
        errors = [derivative_jump_residual(ext, k) for ext in exts]
        out[k] = {"levels": list(levels), "hs": hs, "errors": errors, "order": fit_order(hs, errors)}
    return out


@pytest.fixture(scope="session")
def extension_jump_study():
    """``extension_jump_study(family, levels)``: {k: {levels, hs, errors, order}} for k = 1, 2, 3."""
    return _extension_jump_study


def _node_rhs(u, values):
    """``rhs`` of the (n, 3) ``values`` on ``u``'s grid, as an (n, 3) array."""
    return unpack(rhs(u, pack(values)))


@pytest.fixture(scope="session")
def node_rhs():
    """``node_rhs(u, values)``: ``evolve.rhs`` through the state block, on (n, 3) arrays."""
    return _node_rhs
