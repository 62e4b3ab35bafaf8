"""Registry of named test targets with analytic derivatives.

Euclidean targets are normalized by a numerically estimated W^{alpha,inf}
norm (max of all partial derivatives up to order alpha over a dense grid), so
the declared norm bound 1 applies.  Manifold targets are coordinate
restrictions with derivative scale <= 1 by construction.
"""

import math

import numpy as np

from .manifold import circle_manifold, sphere_manifold
from .taylor import TargetFunction, multi_indices

TWO_PI = 2.0 * math.pi


def _sin_deriv(k, t):
    """d^k/dt^k sin(2 pi t) = (2 pi)^k sin(2 pi t + k pi/2)."""
    return TWO_PI**k * np.sin(TWO_PI * t + k * math.pi / 2.0)


def _gauss_deriv(k, t, c, s):
    """d^k/dt^k exp(-(t-c)^2 / (2 s^2)) for k <= 3."""
    u = (t - c) / s
    g = np.exp(-0.5 * u * u)
    if k == 0:
        return g
    if k == 1:
        return -u / s * g
    if k == 2:
        return (u * u - 1.0) / s**2 * g
    if k == 3:
        return (3.0 * u - u**3) / s**3 * g
    raise ValueError(f"gauss-bump derivatives available up to order 3, got {k}")


def _product_target(name, dim, order, axis_deriv, max_k):
    """Target f(x) = prod_k g(x_k) from a per-axis derivative table."""

    def make(a):
        def d(X):
            X = np.atleast_2d(X)
            out = np.ones(X.shape[0])
            for k, ak in enumerate(a):
                out = out * axis_deriv(ak, X[:, k], k)
            return out

        return d

    derivs = {}
    for a in multi_indices(dim, max_k):
        if 0 < sum(a):
            derivs[tuple(a)] = make(a)
    return TargetFunction(dim, order, make((0,) * dim), derivs, 1.0, name)


def _normalize(t: TargetFunction, grid_res=41):
    """Divide by the numerically estimated W^{alpha,inf} norm."""
    axis = np.linspace(0.0, 1.0, grid_res)
    mesh = np.meshgrid(*([axis] * t.dim), indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    scale = max(
        float(np.max(np.abs(t.deriv(a, X)))) for a in multi_indices(t.dim, t.order)
    )
    inv = 1.0 / scale

    def wrap(fun):
        return lambda X: inv * fun(X)

    return TargetFunction(
        t.dim,
        t.order,
        wrap(t.f),
        {a: wrap(d) for a, d in t.derivs.items()},
        1.0,
        t.name,
    )


def _sin2(alpha=2, dim=2):
    def axis(k, x, axis_idx):
        if axis_idx == 0:
            return _sin_deriv(k, x)
        return np.ones_like(x) if k == 0 else np.zeros_like(x)

    return _normalize(_product_target("sin2", dim, alpha, axis, max_k=max(alpha, 3)))


def _sinprod(alpha=2, dim=2):
    def axis(k, x, axis_idx):
        return _sin_deriv(k, x)

    return _normalize(_product_target("sinprod", dim, alpha, axis, max_k=max(alpha, 3)))


def _poly_xy(alpha=3, dim=2):
    def axis(k, x, axis_idx):
        if k == 0:
            return x
        if k == 1:
            return np.ones_like(x)
        return np.zeros_like(x)

    return _normalize(_product_target("poly-xy", dim, alpha, axis, max_k=max(alpha, 3)))


def _gauss_bump(alpha=2, dim=2, width=0.15):
    def axis(k, x, axis_idx):
        return _gauss_deriv(k, x, 0.5, width)

    return _normalize(_product_target("gauss-bump", dim, alpha, axis, max_k=3))


EUCLIDEAN_TARGETS = {
    "sin2": _sin2,
    "sinprod": _sinprod,
    "poly-xy": _poly_xy,
    "gauss-bump": _gauss_bump,
}


def get_target(name, alpha=None, dim=None) -> TargetFunction:
    if name not in EUCLIDEAN_TARGETS:
        raise KeyError(f"unknown target {name!r}; known: {sorted(EUCLIDEAN_TARGETS)}")
    kwargs = {}
    if alpha is not None:
        kwargs["alpha"] = alpha
    if dim is not None:
        kwargs["dim"] = dim
    return EUCLIDEAN_TARGETS[name](**kwargs)


class ManifoldTarget:
    """Scalar field on a manifold; ``order`` declares the smoothness the
    chart pullbacks are approximated at."""

    def __init__(self, name, fun, order=2):
        self.name = name
        self._fun = fun
        self.order = order

    def __call__(self, X):
        return np.asarray(self._fun(np.atleast_2d(X)), dtype=np.float64).ravel()


MANIFOLD_TARGETS = ("circle-sin", "sphere-harmonic")


def get_manifold_target(name, ambient_dim=3, order=2):
    """Returns (manifold, target) for the named manifold study target."""
    if name == "circle-sin":
        m = circle_manifold(ambient_dim)
        e1 = m.embed(np.array([[math.pi / 2.0]]))[0]
        # stacked one-row products: ``X @ e1`` rounds by the row count, and the
        # chart pullbacks' finite differences would amplify that
        return m, ManifoldTarget(name, lambda X: (X[:, None, :] @ e1[:, None])[:, 0, 0], order)
    if name == "sphere-harmonic":
        m = sphere_manifold()
        c = 3.0**1.5  # max |x1 x2 x3| on the unit sphere is 3^-1.5
        return m, ManifoldTarget(name, lambda X: c * X[:, 0] * X[:, 1] * X[:, 2], order)
    raise KeyError(f"unknown manifold target {name!r}")
