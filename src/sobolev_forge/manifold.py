"""Parametric manifold kit, atlas construction, chart calculus, squared-
distance and chart-indicator networks, the manifold compile pipeline, and the
chart-based W^{k,inf} error metric.

The pipeline mirrors the Euclidean one chart by chart: pull the target back
through a chart, approximate the pullback on [0,1]^d with bump-times-monomial
nets, and gate each chart's contribution by a chart-indicator network
(squared-distance net composed with a clipped ramp).  The gated terms of all
charts compile through the Euclidean compile step, ``taylor.compile_terms``,
and pass its build gates.  Coefficients of bumps
whose support reaches the chart-boundary band are zeroed, which makes every
per-chart network vanish identically on the indicator's transition band; that
is the mechanism keeping first-derivative error bounded as the ramp sharpens.

Parameter policy: eta = N^-alpha and delta = N^-(alpha+d+1) follow the
asymptotic prescription.  The ramp width Delta uses the desk-scale choice
r^2/(4N) by default, which keeps the transition band narrower than one bump
at the resolutions the studies actually run; the asymptotic choice
Delta = 8 c2 r / N is available as parameters="paper".
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .netcore import _on_finite_rows, resnet_forward_batch
from .scalarnets import (
    ScalarNet,
    build_product2,
    build_square,
    sn_affine,
    sn_chain,
    sn_input_affine,
    sn_pad,
    sn_parallel,
)
from .taylor import (
    SurrogateCoefficients,
    _bump_terms,
    _monomial_expansion_rows,
    _stacked_fold,
    compile_terms,
    grid_nodes,
    grid_resolution,
    multi_indices,
)


class ChartError(RuntimeError):
    """Chart projection/inversion outside its domain, or covering failure."""


# ---------------------------------------------------------------------------
# manifold kit
# ---------------------------------------------------------------------------


@dataclass
class ManifoldSpec:
    """Parametric manifold with analytic reach, area, and tangent spaces."""

    name: str
    intrinsic_dim: int
    ambient_dim: int
    reach: float
    box_bound: float
    surface_area: float
    embed: callable  # (n, d) params -> (n, D) ambient
    tangent_basis: callable  # (D,) point on M -> (D, d) orthonormal columns
    param_of_point: callable  # (D,) -> (d,) parameter
    param_samples: callable  # count -> (n, d) dense deterministic parameters
    chart_solver: callable = None  # optional analytic (chart, (n, d) Z) -> ((n, D) X, ok)

    def sample_points(self, count):
        return self.embed(self.param_samples(count))


def _rotation(D, seed=7):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((D, D)))
    return q


def circle_manifold(ambient_dim=3, radius=1.0) -> ManifoldSpec:
    """Unit-style circle isometrically embedded in R^D via a fixed rotation."""
    D, R = ambient_dim, radius
    Q = _rotation(D)
    e0, e1 = Q[:, 0], Q[:, 1]

    def embed(U):
        U = np.atleast_2d(U)
        return R * (np.cos(U[:, :1]) * e0 + np.sin(U[:, :1]) * e1)

    def tangent(x):
        c, s0 = (x @ e0) / R, (x @ e1) / R
        t = -s0 * e0 + c * e1
        return t[:, None]

    def param_of(x):
        return np.array([math.atan2(float(x @ e1), float(x @ e0))])

    def samples(count):
        return np.linspace(0.0, 2 * math.pi, count, endpoint=False)[:, None]

    def solver(chart, Z):
        # in-plane: x = V p + (c/R) sqrt(R^2 - p^2), p the tangent coordinate
        P = (Z[:, 0] - chart.shift[0]) / chart.scale
        height = np.sqrt(np.maximum(R * R - P * P, 0.0))
        X = chart.frame[:, 0] * P[:, None] + chart.center * height[:, None] / R
        return X, np.abs(P) <= R

    return ManifoldSpec(
        "circle", 1, D, R, R, 2 * math.pi * R, embed, tangent, param_of, samples, solver
    )


def sphere_manifold(radius=1.0) -> ManifoldSpec:
    """Round 2-sphere in R^3."""
    R = radius

    def embed(U):
        U = np.atleast_2d(U)
        th, ph = U[:, 0], U[:, 1]
        return R * np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
        )

    def tangent(x):
        n = x / np.linalg.norm(x)
        a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = a - (a @ n) * n
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n, t1)
        return np.stack([t1, t2], axis=1)

    def param_of(x):
        r = np.linalg.norm(x)
        return np.array([math.acos(np.clip(x[2] / r, -1, 1)), math.atan2(x[1], x[0])])

    def samples(count):
        # Fibonacci sphere: near-uniform deterministic coverage
        i = np.arange(count) + 0.5
        th = np.arccos(1 - 2 * i / count)
        ph = math.pi * (1 + math.sqrt(5.0)) * i
        return np.stack([th, ph % (2 * math.pi)], axis=1)

    def solver(chart, Z):
        P = (Z - chart.shift) / chart.scale
        q2 = R * R - _row_dots(P, P)
        # stacked per-row products: each row rounds as a one-point solve does
        X = np.matmul(chart.frame, P[:, :, None])[:, :, 0]
        X = X + chart.center * np.sqrt(np.maximum(q2, 0.0))[:, None] / R
        return X, q2 >= 0

    return ManifoldSpec(
        "sphere", 2, 3, R, R, 4 * math.pi * R * R, embed, tangent, param_of, samples, solver
    )


def torus_manifold(r1=None, r2=None) -> ManifoldSpec:
    """Flat 2-torus in R^4; reach = min(r1, r2)."""
    r1 = r1 if r1 is not None else 1.0 / math.sqrt(2.0)
    r2 = r2 if r2 is not None else 1.0 / math.sqrt(2.0)

    def embed(U):
        U = np.atleast_2d(U)
        u, v = U[:, 0], U[:, 1]
        return np.stack([r1 * np.cos(u), r1 * np.sin(u), r2 * np.cos(v), r2 * np.sin(v)], axis=1)

    def tangent(x):
        t1 = np.array([-x[1], x[0], 0.0, 0.0]) / math.hypot(x[0], x[1])
        t2 = np.array([0.0, 0.0, -x[3], x[2]]) / math.hypot(x[2], x[3])
        return np.stack([t1, t2], axis=1)

    def param_of(x):
        return np.array([math.atan2(x[1], x[0]), math.atan2(x[3], x[2])])

    def samples(count):
        n = max(2, int(math.sqrt(count)))
        ax = np.linspace(0, 2 * math.pi, n, endpoint=False)
        uu, vv = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([uu.ravel(), vv.ravel()], axis=1)

    return ManifoldSpec(
        "torus",
        2,
        4,
        min(r1, r2),
        max(r1, r2),
        4 * math.pi * math.pi * r1 * r2,
        embed,
        tangent,
        param_of,
        samples,
        None,
    )


MANIFOLDS = {
    "circle": circle_manifold,
    "sphere": sphere_manifold,
    "torus": torus_manifold,
}


# ---------------------------------------------------------------------------
# charts and atlas
# ---------------------------------------------------------------------------


@dataclass
class Chart:
    """Scaled tangent-space projection phi(x) = a V^T (x - c) + b."""

    center: np.ndarray
    frame: np.ndarray  # (D, d), orthonormal columns
    scale: float
    shift: np.ndarray  # (d,)
    radius: float

    def __post_init__(self):
        gram = self.frame.T @ self.frame
        if np.max(np.abs(gram - np.eye(self.frame.shape[1]))) > 1e-10:
            raise ChartError("tangent frame is not orthonormal")


@dataclass
class Atlas:
    manifold: ManifoldSpec
    charts: list
    r: float
    samples: np.ndarray = field(repr=False)
    T_d: float = 0.0

    @property
    def r_tilde(self):
        return self.r / 2.0

    @property
    def chart_count(self):
        return len(self.charts)

    @cached_property
    def centers(self):
        """(charts, D) stack of the chart centers."""
        return np.array([ch.center for ch in self.charts])


def _row_dots(A, B):
    """Row-wise dot products, one product per row: each row rounds exactly as
    a one-point ``a @ b`` does, whatever the number of rows."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _row_norms(V):
    """Row-wise Euclidean norms, equal to ``np.linalg.norm`` of each row."""
    return np.sqrt(_row_dots(V, V))


def _sqdist(X, C):
    """(points, centers) squared distances, each summed as the per-center
    ``np.sum((X - c) ** 2, axis=1)`` sums it."""
    return np.sum((X[:, None, :] - C[None]) ** 2, axis=2)


def build_atlas(m: ManifoldSpec, r: float, sample_count=4096, spacing_factor=0.45) -> Atlas:
    """Greedy covering of M by balls of radius r/2 with centers on M.

    Centers are chosen first-fit from a dense deterministic sample at spacing
    <= spacing_factor * r < r/2, so every sample point lies strictly inside
    at least one inner ball.
    """
    if not 0.0 < r < m.reach / 4.0:
        raise ChartError(f"need 0 < r < reach/4 = {m.reach / 4.0}, got r={r}")
    pts = m.sample_points(sample_count)
    spacing = spacing_factor * r
    chosen = np.empty_like(pts)
    k = 0
    for x in pts:
        if k == 0 or np.min(_row_norms(x - chosen[:k])) > spacing:
            chosen[k] = x
            k += 1
    centers = chosen[:k]
    d2 = _sqdist(pts, centers)
    nearest = np.sqrt(d2.min(axis=1))
    if np.max(nearest) >= r / 2.0:
        raise ChartError(f"covering failure: sample at distance {np.max(nearest)} >= r/2")
    charts = []
    for c in centers:
        V = np.linalg.qr(m.tangent_basis(c))[0][:, : m.intrinsic_dim]
        charts.append(
            Chart(
                center=c,
                frame=V,
                scale=1.0 / (2.0 * r),
                shift=0.5 * np.ones(m.intrinsic_dim),
                radius=r,
            )
        )
    T_d = float(np.mean(np.sum(d2 < r * r, axis=1)))
    return Atlas(m, charts, r, pts, T_d)


def chart_project(chart: Chart, x, check=True):
    """phi(x) = a V^T (x - c) + b, defined on the chart ball."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if check:
        dist = np.linalg.norm(X - chart.center, axis=1)
        if np.any(dist > chart.radius * (1 + 1e-9)):
            raise ChartError(
                f"point at distance {float(np.max(dist)):.4g} outside chart ball r={chart.radius}"
            )
    Z = chart.scale * (X - chart.center) @ chart.frame + chart.shift
    return Z[0] if single else Z


def chart_invert_batch(chart: Chart, m: ManifoldSpec, Z):
    """Manifold points X with phi(X) = Z row by row, and the mask of rows that
    have one: residual <= 1e-8 and the point in the chart ball (other rows of
    X are nan).  Analytic when the kit provides a solver, Newton otherwise."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if m.chart_solver is not None:
        X, ok = m.chart_solver(chart, Z)
    else:
        X, ok = _newton_invert(chart, m, Z)
    gap = np.max(np.abs(chart_project(chart, X, check=False) - Z), axis=1)
    ok &= (gap <= 1e-8) & (_row_norms(X - chart.center) <= chart.radius * (1 + 1e-6))
    X[~ok] = np.nan
    return X, ok


def _newton_invert(chart, m, Z):
    """Newton on the parametrization for all rows together; a row stops once
    its residual is below 1e-13, and a non-finite residual or a singular
    Jacobian fails only its row."""
    d = Z.shape[1]
    U = np.tile(m.param_of_point(chart.center), (len(Z), 1))
    ok, live, h = np.ones(len(Z), dtype=bool), np.arange(len(Z)), 1e-6

    def phi(V):
        return chart_project(chart, m.embed(V), check=False)

    for _ in range(60):
        res = phi(U[live]) - Z[live]
        err = np.max(np.abs(res), axis=1)
        ok[live[~np.isfinite(err)]] = False
        going = np.isfinite(err) & (err >= 1e-13)
        live, res = live[going], res[going]
        if not live.size:
            break
        J = np.stack([(phi(U[live] + e) - phi(U[live] - e)) / (2 * h) for e in h * np.eye(d)], 2)
        solved = np.linalg.det(J) != 0.0  # 0 exactly when solve()'s LU has a zero pivot
        ok[live[~solved]] = False
        live, J, res = live[solved], J[solved], res[solved]
        U[live] -= np.linalg.solve(J, res[:, :, None])[:, :, 0]
    return m.embed(U), ok


def chart_invert(chart: Chart, m: ManifoldSpec, z):
    """One-point chart_invert_batch; raises ChartError when z has no
    preimage in the chart ball."""
    z = np.asarray(z, dtype=np.float64).ravel()
    X, ok = chart_invert_batch(chart, m, z[None])
    if not ok[0]:
        raise ChartError(f"chart coordinate {z} has no preimage in the chart ball")
    return X[0]


def rho_weights(atlas: Atlas, x) -> np.ndarray:
    """Partition-of-unity weights rho_i(x) = h_i / sum_j h_j with
    h_i = max(0, 1 - ||x - c_i||^2 / (r/2)^2)^3; supported in the inner balls."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    H = np.maximum(0.0, 1.0 - _sqdist(X, atlas.centers) / atlas.r_tilde**2) ** 3
    total = H.sum(axis=1)
    if np.any(total <= 0.0):
        raise ChartError("point not covered by any inner ball (covering bug)")
    W = H / total[:, None]
    return W[0] if single else W


# ---------------------------------------------------------------------------
# squared-distance and indicator nets
# ---------------------------------------------------------------------------


def build_sqdist_net(center, theta: float, B: float) -> ScalarNet:
    """Net approximating ||x - c||^2 as a sum of D per-coordinate square nets.

    Per-coordinate interpolation accuracy theta gives total error at most
    4 B^2 D theta on the box ||x||_inf <= B; exact at x = c and even in each
    coordinate offset.
    """
    if not 0.0 < theta < 0.5:
        raise ValueError(f"theta must be in (0, 1/2), got {theta}")
    center = np.asarray(center, dtype=np.float64)
    D = center.shape[0]
    per_coord = min(4.0 * B * B * theta, 0.49)
    parts = []
    for j in range(D):
        sq = build_square(per_coord, 2.0 * B)
        ej = np.zeros((1, 1))
        ej[0, 0] = 1.0
        parts.append((sn_input_affine(sq, ej, np.array([-center[j]])), [j]))
    depth = max(net.depth for net, _ in parts)
    joined = sn_parallel([(sn_pad(net, depth), cols) for net, cols in parts])
    out = sn_chain(joined, sn_affine(np.ones((1, D)), np.zeros(1)))
    out.eta = 4.0 * B * B * D * theta
    out.box = B
    out.tags = {"theta": theta, "D": D}
    return out


@dataclass
class IndicatorParams:
    """Clipped-ramp parameters for the chart membership indicator."""

    r: float
    Delta: float
    theta: float
    B: float
    D: int

    def __post_init__(self):
        if self.Delta < 8.0 * self.B**2 * self.D * self.theta:
            raise ValueError(
                f"need Delta >= 8 B^2 D theta = {8 * self.B**2 * self.D * self.theta}, "
                f"got {self.Delta}"
            )

    @property
    def dist_err(self):
        return 4.0 * self.B**2 * self.D * self.theta

    @property
    def A(self):
        """Zero threshold in squared-distance units."""
        return self.r**2 - self.dist_err

    @property
    def w(self):
        """Doubling-layer count: smallest w with 2^-w A <= Delta - 2*dist_err."""
        room = self.Delta - 2.0 * self.dist_err
        w_cover = math.ceil(math.log2(self.A / room)) if room > 0 else None
        if w_cover is None:
            raise ValueError("Delta leaves no room above the distance-net error")
        return max(1, w_cover, math.ceil(math.log2(self.r**2 / self.Delta)))

    @property
    def one_threshold(self):
        return (1.0 - 2.0 ** (-self.w)) * self.A


def build_indicator(p: IndicatorParams) -> ScalarNet:
    """Exact clipped ramp: 1 below (1-2^-w) A, 0 above A, linear between.

    The 2^w ramp slope is realized as w doubling layers followed by a 1/A
    weight, so every parameter stays O(1); the branch values are float-exact
    (the ramp input is exactly zero on the one-branch, and the outer ReLU
    clamps the zero-branch).
    """
    A, T1, w = p.A, p.one_threshold, p.w
    layers = [(np.array([[1.0]]), np.array([-T1]))]  # u0 = relu(a - T1)
    layers += [(np.array([[2.0]]), np.zeros(1)) for _ in range(w)]
    # out = relu(1 - v/A) with v = 2^w u0, since A - T1 = 2^-w A
    layers.append((np.array([[-1.0 / A]]), np.array([1.0])))
    layers.append((np.array([[1.0]]), np.zeros(1)))
    return ScalarNet(layers, eta=0.0, box=None, tags={"w": w, "A": A, "T1": T1})


# ---------------------------------------------------------------------------
# chart pullbacks and per-chart coefficients
# ---------------------------------------------------------------------------


def pullback_evaluator(f_on_M, atlas: Atlas, i: int):
    """(f * rho_i) composed with the chart inverse, extended by zero off the
    chart image.  Returns a batch evaluator on chart coordinates."""
    return lambda Z: _weighted_pullback(f_on_M, atlas, i, Z)[0]


def _weighted_pullback(fun, atlas, i, Z):
    """(fun * rho_i)(phi_i^{-1}(z)) for the rows z of Z, zero where rho_i
    vanishes (fun is not called there) or z has no preimage, together with
    the mask of rows that have one."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    X, ok = chart_invert_batch(atlas.charts[i], atlas.manifold, Z)
    out = np.zeros(Z.shape[0])
    rows = np.flatnonzero(ok)
    w = rho_weights(atlas, X[rows])[:, i]
    rows, w = rows[w != 0.0], w[w != 0.0]
    if rows.size:
        out[rows] = np.asarray(fun(X[rows]), dtype=np.float64).ravel() * w
    return out, ok


def _fd_deriv(F, Z, a, h):
    """Iterated central differences of a batch evaluator at points Z."""
    if sum(a) == 0:
        return F(Z)
    j = next(k for k, ak in enumerate(a) if ak > 0)
    a_next = tuple(ak - (1 if k == j else 0) for k, ak in enumerate(a))
    hi, lo = Z.copy(), Z.copy()
    hi[:, j] += h
    lo[:, j] -= h
    return (_fd_deriv(F, hi, a_next, h) - _fd_deriv(F, lo, a_next, h)) / (2.0 * h)


def chart_boundary_data(atlas: Atlas, i: int, Delta: float, n_dirs=32):
    """Boundary images phi_i(boundary of U_i) and the chart-coordinate width of
    the indicator transition band {r^2 - Delta <= d^2 <= r^2}.

    Boundary points are found by bisection along parameter-space rays from
    the chart center: 2 rays for d = 1, n_dirs for d = 2; a ChartError for
    d >= 3, which no kit manifold has."""
    m = atlas.manifold
    chart = atlas.charts[i]
    d = m.intrinsic_dim
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif d == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        raise ChartError(f"no boundary rays for intrinsic dimension {d}")
    u0 = m.param_of_point(chart.center)

    # two rays per direction: the outer boundary d = r and the inner edge of
    # the transition band d = sqrt(r^2 - Delta); all bisected together
    r = chart.radius
    rays = np.concatenate([dirs, dirs])
    target = np.repeat([r, math.sqrt(max(r * r - Delta, 0.0))], len(dirs))

    def g(T):
        return _row_norms(m.embed(u0 + T[:, None] * rays) - chart.center) - target

    t_hi = np.full(len(rays), 1e-3)
    for _ in range(60):
        short = ~(g(t_hi) > 0)
        if not short.any():
            break
        t_hi = np.where(short, t_hi * 1.7, t_hi)
    else:
        raise ChartError("no boundary bracket along direction")
    t_lo = np.zeros(len(rays))
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        above = g(mid) > 0
        t_hi = np.where(above, mid, t_hi)
        t_lo = np.where(above, t_lo, mid)
    Zb = chart_project(chart, m.embed(u0 + (0.5 * (t_lo + t_hi))[:, None] * rays), check=False)
    z_outer, z_inner = Zb[: len(dirs)], Zb[len(dirs) :]
    return z_outer, float(np.max(np.abs(z_outer - z_inner)))


def chart_coefficients(
    f_on_M, atlas: Atlas, i: int, N: int, alpha: int, fd_step: float, Delta: float
):
    """Taylor coefficients of the chart pullback, with the boundary-band kill.

    Every grid node within band_width + 1/N (sup-norm, chart coordinates) of
    a boundary image is zeroed, so bumps whose support can reach the
    indicator's transition band contribute nothing; the per-chart network
    then vanishes identically on that band.
    """
    m = atlas.manifold
    d = m.intrinsic_dim
    v_list = multi_indices(d, alpha - 1)
    F = pullback_evaluator(f_on_M, atlas, i)
    nodes = grid_nodes(N, d) / N
    derivs = {tuple(a): _fd_deriv(F, nodes, tuple(a), fd_step) for a in v_list}
    table = _monomial_expansion_rows(nodes, derivs, v_list)
    z_bound, band = chart_boundary_data(atlas, i, Delta)
    kill_radius = band + 1.0 / N
    gap = np.min(np.max(np.abs(z_bound[None] - nodes[:, None]), axis=2), axis=1)
    kill = gap <= kill_radius
    killed = int(np.count_nonzero(np.any(table[kill] != 0.0, axis=1)))
    table[kill] = 0.0
    coeffs = SurrogateCoefficients(d, N, alpha, v_list, table)
    return coeffs, {"band_width": band, "kill_radius": kill_radius, "killed_nodes": killed}


# ---------------------------------------------------------------------------
# the manifold approximator
# ---------------------------------------------------------------------------


class ManifoldApproximator:
    """Functional evaluator + optional compiled model of the chart-sum net."""

    def __init__(self, f_on_M, atlas, per_chart, sqdist_nets, indicator_net,
                 times_eta, times_delta, record):
        self.f_on_M = f_on_M
        self.atlas = atlas
        self.per_chart = per_chart  # list of SurrogateCoefficients
        self.sqdist_nets = sqdist_nets
        self.indicator_net = indicator_net
        self.times_eta = times_eta
        self.times_delta = times_delta
        self.record = record
        self.model = None
        self.class_params = None

    @property
    def N(self):
        return self.record["N"]

    def indicator_values(self, i, X):
        d2 = self.sqdist_nets[i].forward(np.atleast_2d(X))
        return self.indicator_net.forward(d2[:, None])

    def per_chart_eval(self, i, X):
        """Contribution of chart i (exactly zero off its indicator support):
        the stacked fold of times_eta over chart coordinates, multiplied by
        the indicator through times_delta as its last step."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Z = chart_project(self.atlas.charts[i], X, check=False)
        tail = (self.times_delta, self.indicator_values(i, X))
        return _stacked_fold(self.per_chart[i], Z, self.times_eta, tail=tail)

    def eval(self, X):
        """The chart sum at the points X; nan at a point with a non-finite
        coordinate."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return _on_finite_rows(self._chart_sum, X)

    def _chart_sum(self, X):
        out = np.zeros(X.shape[0])
        # beyond 1.2 r from a center the chart's indicator is exactly 0
        near = _sqdist(X, self.atlas.centers) <= 1.44 * self.atlas.r**2
        for i in np.flatnonzero(near.any(axis=0)):
            out[near[:, i]] += self.per_chart_eval(i, X[near[:, i]])
        return out

    def __call__(self, x):
        return float(self.eval(np.atleast_1d(x)[None])[0])

    def model_eval(self, X):
        if self.model is None:
            raise RuntimeError("approximator was built without compilation")
        return resnet_forward_batch(self.model, np.atleast_2d(X))

    def _terms(self, eta, box):
        """Chart by chart, each (m, v) term as a net on the ambient space,
        times_delta(g(phi_i(x)), indicator_i(x)) with g the net of phi_m x^v,
        together with c_{m,v}."""
        D = self.atlas.manifold.ambient_dim
        for chart, coeffs, sqdist in zip(self.atlas.charts, self.per_chart, self.sqdist_nets):
            A = chart.scale * chart.frame.T
            cvec = chart.shift - A @ chart.center
            ind_chain = sn_chain(sqdist, self.indicator_net)
            for g, c in _bump_terms(coeffs, eta, box):
                g_x = sn_input_affine(g, A, cvec)
                depth = max(g_x.depth, ind_chain.depth)
                cols = list(range(D))
                pair = sn_parallel([(sn_pad(g_x, depth), cols), (sn_pad(ind_chain, depth), cols)])
                yield sn_chain(pair, self.times_delta), c


def _estimate_c2(atlas: Atlas, i: int, count=200, seed=3):
    """Lower-Lipschitz constant of the chart inverse, sampled pairwise."""
    m = atlas.manifold
    chart = atlas.charts[i]
    pts = atlas.samples
    d2 = np.sum((pts - chart.center) ** 2, axis=1)
    local = pts[d2 < chart.radius**2]
    if len(local) > count:
        idx = np.random.default_rng(seed).choice(len(local), count, replace=False)
        local = local[idx]
    Z = chart_project(chart, local, check=False)
    anchors = np.arange(0, len(local), 7)
    dx = np.linalg.norm(local[None] - local[anchors, None], axis=2)
    dz = np.linalg.norm(Z[None] - Z[anchors, None], axis=2)
    ratio = np.divide(dx, dz, out=np.full(dx.shape, math.inf), where=dz > 1e-12)
    return float(np.min(ratio, initial=math.inf))


def build_manifold_approx(
    f_on_M,
    mspec: ManifoldSpec,
    Mt: int = None,
    Jt: int = None,
    N: int = None,
    r: float = None,
    atlas: Atlas = None,
    parameters: str = "desk",
    compile_model: bool = False,
    check_points: int = 30,
    seed: int = 0,
) -> ManifoldApproximator:
    """Compile a target on M into the chart-sum approximator.

    Resolution N = floor((Mt*Jt)^(1/d)) unless given directly.  The "desk"
    parameter policy sets Delta = r^2/(4N) (transition band narrower than a
    bump at study resolutions); "paper" uses Delta = 8 c2 r / N with the
    literal spacing precondition 2/N <= Delta/(4 c2 r).
    """
    d, D = mspec.intrinsic_dim, mspec.ambient_dim
    alpha = getattr(f_on_M, "order", 2)
    N = grid_resolution(N, Mt, Jt, d, least=2)
    if atlas is None:
        atlas = build_atlas(mspec, r if r is not None else 0.96 * mspec.reach / 4.0)
    r = atlas.r
    c2 = min(_estimate_c2(atlas, i) for i in range(atlas.chart_count))
    if parameters == "paper":
        Delta = 8.0 * c2 * r / N
        if 2.0 / N > Delta / (4.0 * c2 * r) + 1e-12:
            raise ValueError("spacing condition 2/N <= Delta/(4 c2 r) violated")
        if Delta > 0.75 * r * r:
            raise ValueError(
                f"Delta = {Delta:.4g} exceeds 0.75 r^2: indicator cannot cover the "
                f"partition supports at N = {N}"
            )
    elif parameters == "desk":
        Delta = r * r / (4.0 * N)
    else:
        raise ValueError(f"unknown parameter policy {parameters!r}")
    B = mspec.box_bound
    theta = Delta / (16.0 * B * B * D)
    eta = float(N) ** (-float(alpha))
    delta = max(float(N) ** (-float(alpha + d + 1)), 1e-10)
    box_intr = alpha + d + 1.0
    ind_params = IndicatorParams(r=r, Delta=Delta, theta=theta, B=B, D=D)
    indicator_net = build_indicator(ind_params)
    sqdist_nets = [build_sqdist_net(ch.center, theta, B) for ch in atlas.charts]
    times_eta = build_product2(eta, box_intr)
    times_delta = build_product2(delta, box_intr)

    fd_step = 1e-4 * r
    per_chart, kill_info = [], []
    for i in range(atlas.chart_count):
        coeffs, info = chart_coefficients(f_on_M, atlas, i, N, alpha, fd_step, Delta)
        per_chart.append(coeffs)
        kill_info.append(info)

    record = {
        "manifold": mspec.name,
        "d": d,
        "D": D,
        "N": N,
        "alpha": alpha,
        "eta": eta,
        "delta": delta,
        "delta_capped": float(N) ** (-float(alpha + d + 1)) < 1e-10,
        "Delta": Delta,
        "theta": theta,
        "w": ind_params.w,
        "r": r,
        "c2": c2,
        "chart_count": atlas.chart_count,
        "T_d": atlas.T_d,
        "parameters": parameters,
        "Mt": Mt,
        "Jt": Jt,
        "kill_info": kill_info,
        "coeff_bound": max(c.max_abs for c in per_chart),
    }
    approx = ManifoldApproximator(
        f_on_M, atlas, per_chart, sqdist_nets, indicator_net, times_eta, times_delta, record
    )
    if not compile_model:
        return approx

    pts = mspec.sample_points(997)
    idx = np.random.default_rng(seed).choice(len(pts), min(check_points, len(pts)), replace=False)
    compile_terms(approx, approx._terms(eta, box_intr), pts[idx])
    return approx


def manifold_norm(e_on_M, atlas: Atlas, k: int, resolution=60, fd_step=1e-5):
    """Chart-sum W^{k,inf} estimate: sum_i sup |(e * rho_i) o phi_i^{-1}| over
    the chart images (k = 1 adds chart-coordinate central differences).

    Grid points with no chart preimage are skipped; the skip count is
    returned alongside the value.
    """
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    d = atlas.manifold.intrinsic_dim
    total, skipped = 0.0, 0
    axis = (np.arange(resolution) + 0.5) / resolution + math.sqrt(2.0) * 1e-7
    Zg = np.stack([mm.ravel() for mm in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    # k = 1: the +-fd_step stencil of every grid point that has a preimage
    steps = fd_step * np.eye(d)[:, None, :]
    for i in range(atlas.chart_count):
        vals, ok = _weighted_pullback(e_on_M, atlas, i, Zg)
        skipped += int(np.count_nonzero(~ok))
        best = float(np.max(np.abs(vals[ok]), initial=0.0))
        if k == 1:
            base = Zg[ok]
            stencil = np.concatenate([base + steps, base - steps]).reshape(-1, d)
            sv, sok = _weighted_pullback(e_on_M, atlas, i, stencil)
            sv, sok = sv.reshape(2, d, -1), sok.reshape(2, d, -1)
            both = sok[0] & sok[1]
            skipped += int(np.count_nonzero(~both))
            slope = np.abs(sv[0] - sv[1]) / (2.0 * fd_step)
            best = max(best, float(np.max(slope[both], initial=0.0)))
        total += best
    return total, skipped


def atlas_to_dict(atlas: Atlas) -> dict:
    """Chart geometry (centers, frames, scales) as a JSON-ready document."""
    return {
        "version": 1,
        "kind": "atlas",
        "manifold": atlas.manifold.name,
        "r": atlas.r,
        "T_d": atlas.T_d,
        "charts": [
            {
                "center": ch.center.tolist(),
                "frame": ch.frame.tolist(),
                "scale": ch.scale,
                "shift": ch.shift.tolist(),
                "radius": ch.radius,
            }
            for ch in atlas.charts
        ],
    }


def atlas_from_dict(doc: dict, mspec: ManifoldSpec, sample_count=4096) -> Atlas:
    """Rebuild an Atlas from its serialized chart geometry."""
    if doc.get("kind") != "atlas":
        raise ChartError(f"not an atlas document: kind={doc.get('kind')!r}")
    if doc.get("manifold") != mspec.name:
        raise ChartError(f"atlas is for {doc.get('manifold')!r}, not {mspec.name!r}")
    charts = [
        Chart(
            center=np.array(c["center"]),
            frame=np.array(c["frame"]),
            scale=float(c["scale"]),
            shift=np.array(c["shift"]),
            radius=float(c["radius"]),
        )
        for c in doc["charts"]
    ]
    return Atlas(mspec, charts, float(doc["r"]), mspec.sample_points(sample_count), doc.get("T_d", 0.0))
