"""Per-chart, per-point and per-set references for the manifold build's
coefficients.

The build once computed the Taylor table of each chart by itself, one chart
after another, through a pullback that each chart's finite differences
called on that chart's nodes; this module keeps that loop, with a pullback
that inverts, weighs and evaluates one point at a time, as the oracle the
one-call ``manifold.chart_coefficients`` is compared against.  It also
keeps the recursive central differences, ``fd_deriv``, and the build that
called one ``manifold._pullback`` per point set of that recursion over the
rows of every chart (``chart_coefficients_per_set``), the oracle of the
build's one pullback per row block.  The weights come from
``all_chart_weights``, which measures every point against every chart
center with ``np.sum``, as ``manifold.rho_weights`` once did; it is the
oracle the neighbour-only weights are compared against.
"""

import numpy as np

from sobolev_forge.manifold import ChartError, _pullback, chart_invert
from sobolev_forge.taylor import _monomial_expansion_rows, grid_nodes, multi_indices


def fd_deriv(F, Z, a, h):
    """Iterated central differences of a batch evaluator at points Z."""
    if sum(a) == 0:
        return F(Z)
    j = next(k for k, ak in enumerate(a) if ak > 0)
    a_next = tuple(ak - (1 if k == j else 0) for k, ak in enumerate(a))
    hi, lo = Z.copy(), Z.copy()
    hi[:, j] += h
    lo[:, j] -= h
    return (fd_deriv(F, hi, a_next, h) - fd_deriv(F, lo, a_next, h)) / (2.0 * h)


def all_chart_weights(atlas, x):
    """Partition-of-unity weights rho_i(x) = h_i / sum_j h_j of every chart i,
    h_i = max(0, 1 - ||x - c_i||^2 / (r/2)^2)^3, each row of x against every
    chart center: a (points, charts) array, or (charts,) for one point."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    d2 = np.sum((X[:, None, :] - atlas.centers[None]) ** 2, axis=2)
    H = np.maximum(0.0, 1.0 - d2 / atlas.r_tilde**2) ** 3
    total = H.sum(axis=1)
    if np.any(total <= 0.0):
        raise ChartError("point not covered by any inner ball (covering bug)")
    W = H / total[:, None]
    return W[0] if single else W


def per_point_pullback(f_on_M, atlas, i):
    """(f * rho_i) o phi_i^{-1} as a batch evaluator on chart coordinates:
    one inversion, one weight row and one target call per point, zero off
    the chart image and where rho_i vanishes."""

    def F(Z):
        out = np.zeros(len(Z))
        for t, z in enumerate(Z):
            x, ok = chart_invert(atlas, [i], z[None])
            if not ok[0]:
                continue
            w = all_chart_weights(atlas, x)[0, i]
            if w != 0.0:
                out[t] = float(f_on_M(x)[0]) * w
        return out

    return F


def chart_coefficients_oracle(f_on_M, atlas, N, alpha, fd_step):
    """Each chart's coefficient table, chart by chart."""
    d = atlas.manifold.intrinsic_dim
    v_list = multi_indices(d, alpha - 1)
    nodes = grid_nodes(N, d) / N
    tables = []
    for i in range(atlas.chart_count):
        F = per_point_pullback(f_on_M, atlas, i)
        derivs = {tuple(a): fd_deriv(F, nodes, tuple(a), fd_step) for a in v_list}
        tables.append(_monomial_expansion_rows(nodes, derivs, v_list))
    return tables


def chart_coefficients_per_set(f_on_M, atlas, N, alpha, fd_step):
    """The table as ``manifold.chart_coefficients`` gives it, from the nodes
    of every chart stacked, one ``_pullback`` call over all rows for each
    point set that ``fd_deriv`` evaluates."""
    d, charts = atlas.manifold.intrinsic_dim, atlas.chart_count
    v_list = multi_indices(d, alpha - 1)
    nodes = grid_nodes(N, d) / N
    Z, owner = np.tile(nodes, (charts, 1)), np.repeat(np.arange(charts), len(nodes))
    F = lambda Z: _pullback(f_on_M, atlas, owner, Z)[0]
    derivs = {tuple(a): fd_deriv(F, Z, tuple(a), fd_step) for a in v_list}
    return _monomial_expansion_rows(Z, derivs, v_list)
