"""Manifold kit, atlas construction, chart calculus, squared-distance and
chart-indicator networks, the manifold compile pipeline, and the chart-based
W^{k,inf} error metric.

The atlas is arrays.  Chart i is phi_i(x) = a V_i^T (x - c_i) + b, and every
chart shares a = 1/(2r) and b = 1/2; so an ``Atlas`` holds the (charts, D)
stack of centers c_i, the (charts, D, d) stack of orthonormal frames V_i, r
and each chart's neighbours.  Every atlas step takes one chart per row: ``Atlas.project`` puts row t
into chart charts[t], and ``chart_invert(atlas, charts, Z)`` inverts all
rows, whatever their charts, in one call through the kit's analytic
``chart_solver``.  The charts are all the pipeline reads of a manifold: the
parametrization only samples it, and the kit's ``chord_offset`` gives the
chart boundary in closed form, one for every chart (``chart_boundary_data``).

The pipeline mirrors the Euclidean one on every chart: pull the target back
through each chart, approximate each pullback on [0,1]^d with
bump-times-monomial nets, and gate each chart's contribution by a
chart-indicator network (squared-distance net composed with a clipped ramp).
One ``chart_coefficients`` call computes the Taylor tables of all charts,
stacked in chart order.  It and ``manifold_norm`` read the target through
one pullback pass over (chart, point) rows, ``_pullback``: the coefficients
make one per row block, over every finite-difference point set of its
rows, and a norm makes one.  A pullback makes one ``chart_invert`` call and
weighs each row against its chart's neighbours only (``rho_weights``): the
charts whose inner balls can reach the chart's ball, listed once per atlas
by ``build_atlas``.  Sums of D squares add their columns left to right
(``_sum_squares``), as ``np.sum`` does below 8 terms, and squared
distances add one coordinate plane at a time in that order (``_sqdist``).
The gated terms of all charts, those with a nonzero coefficient, compile
through the Euclidean compile step, ``taylor.compile_terms``, and pass its
build gates; a chart term is its monomial's gated net, built once at chart
0, with a first layer of its own, since the chart map, the chart's center
and the node enter the net only there.  Coefficients of bumps whose support
reaches the chart-boundary band are zeroed, which makes every per-chart
network vanish identically on the indicator's transition band; that is the
mechanism keeping first-derivative error bounded as the ramp sharpens.

Evaluation stacks the charts.  The chart sum at a batch of points takes
every (chart, point) pair whose squared distance lies below the
indicator's ``zero_above`` (from there on the nets give +0.0 bit for bit,
and the pair adds nothing), projects all pairs into their charts'
coordinates in one call, and reads each pair's indicator from the squared
distance that picked it where the ramp is flat: exactly 1.0 well below its
one-threshold, the value the nets give there bit for bit
(``IndicatorParams.one_below``).  Only the pairs on the band above run the
squared-distance net (each pair with its chart's first-layer bias) and the
indicator, most points have none, and ``indicator_values`` and the
compiled terms still run the nets on every pair.  ``per_chart_eval`` is
the same pass over one chart.  All pairs fold in
one ``taylor._stacked_fold`` call, each pair reading its chart's rows of the
stacked table; ``np.add.at`` adds a point's pair values in ascending chart
order, as a chart-by-chart loop does.  Every step acts row by row (the chart
projection is a one-row product per row), so a point gets the same value
alone as inside any batch, and every pass over rows and all charts runs a
row block at a time (``_row_blocks``) without moving a bit.

Parameter policy: eta = N^-alpha and delta = N^-(alpha+d+1) follow the
asymptotic prescription.  The ramp width is Delta = r^2/(4N), which keeps the
transition band narrower than one bump at the resolutions the studies run.
The paper's asymptotic Delta = 8 c2 r / N, with c2 the lower-Lipschitz
constant of the chart inverses, meets the indicator's cover bound
Delta <= 0.75 r^2 only for N >= 32 c2 / (3 r): above N = 21 on the circle
atlas at r = 0.2 (c2 = 0.4), so not at N = 4, 8 or 16.
"""

import math
from dataclasses import dataclass

import numpy as np

from .metrics import EvalGrid, _stencil
from .netcore import _on_finite_rows, resnet_forward_batch
from .scalarnets import (
    ScalarNet,
    build_product2,
    build_square,
    monomial_bump_template,
    sn_affine,
    sn_chain,
    sn_input_affine,
    sn_parallel,
)
from .taylor import (
    SurrogateCoefficients,
    _monomial_expansion_rows,
    _stacked_fold,
    check_term_width,
    compile_terms,
    grid_nodes,
    grid_resolution,
    multi_indices,
)


# rows x cells per row of one row block (``_row_blocks``): about 3,800 rows x
# charts on the 69-chart circle atlas, 257 on the 1,020-chart sphere at r 0.2
_PULLBACK_CELLS = 2**18
_BOUNDARY_DIRS = 32  # chart-coordinate boundary rays of a d = 2 chart
# The margin of the indicator's flat-ramp thresholds, relative to 4 B^2 D:
# see the rounding argument at ``IndicatorParams.one_below``.
_FLAT_MARGIN = 2.0**-30


class ChartError(RuntimeError):
    """A chart radius out of range, a covering failure, a point outside every
    inner ball, or an intrinsic dimension without boundary rays."""


# ---------------------------------------------------------------------------
# manifold kit
# ---------------------------------------------------------------------------


@dataclass
class ManifoldSpec:
    """Parametric manifold with analytic reach, area, tangent spaces, chart
    inversion and chart boundary."""

    name: str
    intrinsic_dim: int
    ambient_dim: int
    reach: float
    box_bound: float
    surface_area: float
    embed: callable  # (n, d) params -> (n, D) ambient
    tangent_basis: callable  # (D,) point on M -> (D, d) orthonormal columns
    param_samples: callable  # count -> (n, d) dense deterministic parameters
    # analytic inversion (Z, centers, frames, scale, shift) -> (X, ok): row t
    # of the (n, d) Z in the chart of centers[t] and frames[t], and the rows
    # in the solver's domain
    chart_solver: callable
    # (rho, U) -> (n,) lengths s: s u, u a unit row of U, lifts to |x - c| = rho
    chord_offset: callable

    def sample_points(self, count):
        return self.embed(self.param_samples(count))


def _round_lift(Q, C, R, q2):
    """Points of the round sphere |x| = R over the tangent offsets Q at its
    points C, q2 the offsets' squared lengths: x = q + c sqrt(R^2 - q2) / R,
    and the rows with R^2 - q2 >= 0.  Every step acts row by row."""
    h2 = R * R - q2
    return Q + C * np.sqrt(np.maximum(h2, 0.0))[:, None] / R, h2 >= 0


def _round_solver(R):
    """The chart_solver of a round kit of radius R: the tangent offset V p,
    p = (z - shift) / scale, lifted by ``_round_lift``.  The products are
    stacked per row, so each row rounds as a one-point solve does; at d = 1
    each is a single product."""

    def solver(Z, C, V, scale, shift):
        P = (Z - shift) / scale
        return _round_lift(np.matmul(V, P[:, :, None])[:, :, 0], C, R, _row_dots(P, P))
    return solver


def _round_offset(R):
    """The chord_offset of a round kit of radius R (``chart_boundary_data``)."""
    return lambda rho, U: np.full(len(U), math.sqrt(rho * rho - rho**4 / (4.0 * R * R)))


def circle_manifold(ambient_dim=3, radius=1.0) -> ManifoldSpec:
    """Unit-style circle isometrically embedded in R^D via a fixed rotation."""
    D, R = ambient_dim, radius
    Q = np.linalg.qr(np.random.default_rng(7).standard_normal((D, D)))[0]  # a fixed rotation
    e0, e1 = Q[:, 0], Q[:, 1]

    def embed(U):
        U = np.atleast_2d(U)
        return R * (np.cos(U[:, :1]) * e0 + np.sin(U[:, :1]) * e1)

    def tangent(x):
        c, s0 = (x @ e0) / R, (x @ e1) / R
        t = -s0 * e0 + c * e1
        return t[:, None]

    def samples(count):
        return np.linspace(0.0, 2 * math.pi, count, endpoint=False)[:, None]

    return ManifoldSpec("circle", 1, D, R, R, 2 * math.pi * R, embed, tangent, samples,
                        _round_solver(R), _round_offset(R))


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

    def samples(count):
        # Fibonacci sphere: near-uniform deterministic coverage
        i = np.arange(count) + 0.5
        th = np.arccos(1 - 2 * i / count)
        ph = math.pi * (1 + math.sqrt(5.0)) * i
        return np.stack([th, ph % (2 * math.pi)], axis=1)

    return ManifoldSpec("sphere", 2, 3, R, R, 4 * math.pi * R * R, embed, tangent, samples,
                        _round_solver(R), _round_offset(R))


def torus_manifold(r1=None, r2=None) -> ManifoldSpec:
    """Flat 2-torus in R^4, the product of circles of radii r1 and r2 in the
    planes of coordinates (0, 1) and (2, 3); reach = min(r1, r2)."""
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

    def samples(count):
        n = max(2, int(math.sqrt(count)))
        ax = np.linspace(0, 2 * math.pi, n, endpoint=False)
        uu, vv = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([uu.ravel(), vv.ravel()], axis=1)

    def solver(Z, C, V, scale, shift):
        # frame column k lies in plane k, so the offset V p splits into one
        # circle solve per plane, each on that plane's part of the offset
        Q = np.matmul(V, ((Z - shift) / scale)[:, :, None])[:, :, 0]
        lifts = [_round_lift(Q[:, k], C[:, k], R, _row_dots(Q[:, k], Q[:, k]))
                 for k, R in ((slice(0, 2), r1), (slice(2, 4), r2))]
        return np.hstack([X for X, _ in lifts]), lifts[0][1] & lifts[1][1]

    def offset(rho, U):  # the quadratic in e_1 of chart_boundary_data
        (a1, a2), b1, b2, rho2 = (U**2).T, 0.25 / (r1 * r1), 0.25 / (r2 * r2), rho * rho
        A, B, C = a1 * b2 - a2 * b1, a1 + a2 - 2.0 * a1 * b2 * rho2, -a1 * rho2 * (1.0 - b2 * rho2)
        e1 = -2.0 * C / (B + np.sqrt(B * B - 4.0 * A * C))
        e2 = rho2 - e1
        return np.sqrt(e1 - b1 * e1 * e1 + e2 - b2 * e2 * e2)

    return ManifoldSpec(
        "torus", 2, 4, min(r1, r2), max(r1, r2), 4 * math.pi * math.pi * r1 * r2,
        embed, tangent, samples, solver, offset,
    )


# ---------------------------------------------------------------------------
# charts and atlas
# ---------------------------------------------------------------------------


@dataclass
class Atlas:
    """Charts phi_i(x) = scale * V_i^T (x - c_i) + shift covering a manifold:
    the stacks of centers c_i and orthonormal frames V_i, the radius r that
    fixes the scale 1/(2r) and the shift 1/2 every chart shares, and each
    chart's neighbours (``_chart_neighbours``)."""

    manifold: ManifoldSpec
    centers: np.ndarray  # (charts, D)
    frames: np.ndarray  # (charts, D, d)
    r: float
    neighbours: np.ndarray  # (charts, width) chart indices, padded with the row's own chart
    T_d: float = 0.0
    shift = 0.5

    @property
    def scale(self):
        return 1.0 / (2.0 * self.r)

    @property
    def r_tilde(self):
        return self.r / 2.0

    @property
    def chart_count(self):
        return len(self.centers)

    def project(self, charts, X):
        """Row t of X in the coordinates of chart charts[t], as a one-row
        product per row, so a row rounds as it does alone."""
        return self._coords(self.centers[charts], self.frames[charts], X)

    def _coords(self, C, V, X):
        """Row t of X in the chart of center C[t] and frame V[t]."""
        return np.matmul((self.scale * (X - C))[:, None, :], V)[:, 0] + self.shift


def _row_dots(A, B):
    """Row-wise dot products, one product per row: each row rounds exactly as
    a one-point ``a @ b`` does, whatever the number of rows."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _row_norms(V):
    """Row-wise Euclidean norms, equal to ``np.linalg.norm`` of each row."""
    return np.sqrt(_row_dots(V, V))


def _sum_squares(V):
    """``np.sum(V ** 2, axis=-1)`` with its bits, V squared in place: below 8
    terms numpy adds the last axis from left to right, as the column adds
    here do; from 8 on it is ``np.sum`` itself."""
    np.square(V, out=V)
    if V.shape[-1] >= 8:
        return np.sum(V, axis=-1)
    out = V[..., 0].copy()
    for k in range(1, V.shape[-1]):
        out += V[..., k]
    return out


def _sqdist(X, C, near=None):
    """(points, centers) squared distances, each summed as the per-center
    ``np.sum((X - c) ** 2, axis=1)`` sums it; with ``near``, a (points, k)
    array of rows of C, point t's distances to the centers C[near[t]] only.
    Below 8 coordinates the squares are added one coordinate plane at a
    time, left to right as ``_sum_squares`` adds them, so no (points,
    centers, D) array is made."""
    if X.shape[1] >= 8:
        return _sum_squares(X[:, None, :] - (C[None] if near is None else C[near]))
    plane = lambda k: X[:, k, None] - (C[None, :, k] if near is None else C[near, k])
    out = plane(0)
    np.square(out, out=out)
    for k in range(1, X.shape[1]):
        diff = plane(k)
        out += np.square(diff, out=diff)
    return out


def _row_blocks(fun, cells_per_row, *arrays):
    """fun over blocks of at most _PULLBACK_CELLS // cells_per_row rows of the
    arrays (one block if they are empty), its results or tuple parts joined."""
    step = max(1, _PULLBACK_CELLS // cells_per_row)
    parts = [fun(*(a[s : s + step] for a in arrays)) for s in range(0, len(arrays[0]) or 1, step)]
    if isinstance(parts[0], tuple):
        return tuple(map(np.concatenate, zip(*parts)))
    return np.concatenate(parts)


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
    centers = chosen[:k].copy()

    def nearest(P):  # each sample's least squared distance and its centers within r
        d2 = _sqdist(P, centers)
        return d2.min(axis=1), np.sum(d2 < r * r, axis=1)
    least, within = _row_blocks(nearest, len(centers), pts)
    if np.sqrt(np.max(least)) >= r / 2.0:
        raise ChartError(f"covering failure: sample at distance {np.sqrt(np.max(least))} >= r/2")
    frames = np.array([np.linalg.qr(m.tangent_basis(c))[0][:, : m.intrinsic_dim] for c in centers])
    return Atlas(m, centers, frames, r, _chart_neighbours(centers, r), float(np.mean(within)))


def _chart_neighbours(centers, r):
    """Each chart's neighbours: the charts j with |c_i - c_j| <= 1.5 r (1 +
    1e-6), as a (charts, width) array of chart indices in ascending order,
    each row padded with its own chart.

    They hold every inner ball that reaches a point chart_invert accepts for
    chart i: such a point has |x - c_i| <= r (1 + 1e-6), and h_j(x) > 0
    needs |x - c_j| < r/2.  Both distances are float sums of D squares, off
    their exact values by a relative few D ulps, so the test on the computed
    squared distance takes a relative margin of 1e-9 on top, far more than
    that for any ambient dimension below a million.  The distances are taken
    a row block at a time.
    """
    reach2 = (1.5 * r * (1 + 1e-6)) ** 2 * (1 + 1e-9)

    def reach(C):  # each row's count of neighbours, and their indices row after row
        within = _sqdist(C, centers) <= reach2
        return np.count_nonzero(within, axis=1), np.nonzero(within)[1]
    counts, near = _row_blocks(reach, len(centers), centers)
    table = np.repeat(np.arange(len(centers))[:, None], counts.max(), axis=1)
    table[np.arange(counts.max()) < counts[:, None]] = near
    return table


def chart_invert(atlas: Atlas, charts, Z):
    """Manifold points X with phi_i(X[t]) = Z[t], i = charts[t], row by row,
    and the mask of rows that have one: residual <= 1e-8 and the point in
    the chart ball (other rows of X are nan), by the kit's analytic solver,
    a row block at a time, each row's center and frame gathered once."""
    Z, charts = np.atleast_2d(np.asarray(Z, dtype=np.float64)), np.asarray(charts)

    def block(Z, charts):
        C, V = atlas.centers[charts], atlas.frames[charts]
        X, ok = atlas.manifold.chart_solver(Z, C, V, atlas.scale, atlas.shift)
        gap = np.max(np.abs(atlas._coords(C, V, X) - Z), axis=1)
        ok &= (gap <= 1e-8) & (_row_norms(X - C) <= atlas.r * (1 + 1e-6))
        X[~ok] = np.nan
        return X, ok
    return _row_blocks(block, atlas.frames[0].size, Z, charts)


def rho_weights(atlas: Atlas, charts, X) -> np.ndarray:
    """Partition-of-unity weights rho_i(X[t]) = h_i / sum_j h_j of each row's
    own chart i = charts[t], with h_j(x) = max(0, 1 - |x - c_j|^2 / (r/2)^2)^3,
    supported in the inner ball of radius r/2 and C^{2,1}.

    Precondition: a row lies within r (1 + 1e-6) of its chart's center, as
    every row chart_invert accepts does by its ball test.  So only the
    chart's neighbours can have h_j > 0 there (``_chart_neighbours``), and
    only they are measured.  Each h_j is computed as a pass over all charts
    computes it, and put into a zero row as wide as the atlas, so the row
    sum adds the same terms in the same places and every weight has the
    bits of that pass, a row block at a time.  A ChartError for a row in no
    inner ball.
    """
    X, charts = np.atleast_2d(np.asarray(X, dtype=np.float64)), np.asarray(charts)

    def block(X, charts):
        rows, near = np.arange(len(X)), atlas.neighbours[charts]
        d2 = _sqdist(X, atlas.centers, near)
        H = np.zeros((len(X), atlas.chart_count))
        H[rows[:, None], near] = np.maximum(0.0, 1.0 - d2 / atlas.r_tilde**2) ** 3
        total = H.sum(axis=1)
        if np.any(total <= 0.0):
            raise ChartError("point not covered by any inner ball (covering bug)")
        return H[rows, charts] / total
    return _row_blocks(block, atlas.chart_count, X, charts)


# ---------------------------------------------------------------------------
# squared-distance and indicator nets
# ---------------------------------------------------------------------------


def build_sqdist_net(center, theta: float, B: float) -> ScalarNet:
    """Net approximating ||x - c||^2 as a sum over the D coordinates of one
    square net, run on each coordinate offset side by side.

    Per-coordinate interpolation accuracy theta gives total error at most
    4 B^2 D theta on the box ||x||_inf <= B; exact at x = c and even in each
    coordinate offset.  A build makes the nets of all chart centers at once
    with ``build_sqdist_nets``, which stamps them from this net at center 0.
    """
    if not 0.0 < theta < 0.5:
        raise ValueError(f"theta must be in (0, 1/2), got {theta}")
    center = np.asarray(center, dtype=np.float64)
    D = center.shape[0]
    sq = build_square(min(4.0 * B * B * theta, 0.49), 2.0 * B)
    parts = [(sn_input_affine(sq, np.ones((1, 1)), np.array([-center[j]])), [j]) for j in range(D)]
    return sn_chain(sn_parallel(parts), sn_affine(np.ones((1, D)), np.zeros(1)))


def build_sqdist_nets(centers, theta: float, B: float):
    """``build_sqdist_net`` at every row of centers, as one shared net and a
    (centers, width) stack of first-layer biases.

    A center enters the net only through its first-layer bias, b0 + W0 @ -c;
    so the net is built once, at center 0, and the net of center i is that
    net with its first bias replaced by row i of the stack
    (``ScalarNet.with_first_bias``).  The stack is one product: W0 has one
    nonzero per row, so each entry is one product plus exact zeros, as in
    the per-center ``W0 @ -c``.
    """
    centers = np.asarray(centers, dtype=np.float64)
    net = build_sqdist_net(np.zeros(centers.shape[1]), theta, B)
    W0, b0 = net.layers[0]
    return net, b0 + (-centers) @ W0.T


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
        if room <= 0:
            raise ValueError("Delta leaves no room above the distance-net error")
        return max(1, math.ceil(math.log2(max(self.A / room, self.r**2 / self.Delta))))

    @property
    def one_threshold(self):
        return (1.0 - 2.0 ** (-self.w)) * self.A

    @property
    def flat_margin(self):
        """_FLAT_MARGIN times 4 B^2 D, the scale of the squared-distance
        net's values (see ``one_below``)."""
        return _FLAT_MARGIN * 4.0 * self.B**2 * self.D

    @property
    def one_below(self):
        """A computed squared distance |x - c|^2 at most this has indicator
        exactly 1.0, and one at least ``zero_above`` exactly +0.0: the
        thresholds T1 - dist_err - margin and A + dist_err + margin, with
        T1 the one-threshold and the margin ``flat_margin``.

        The rounding argument.  On an offset x - c in the box [-2B, 2B]^D
        the net's exact value is within dist_err of |x - c|^2; an offset
        outside it makes the net's value at least 4B^2 > A, as the sawtooth
        of an input of at least 1 is that input.  Rounding moves the
        computed |x - c|^2 (D products, D - 1 adds) by a relative (D + 1)
        2^-53, and the net's value by less than 2^-40 4B^2 D: its wires
        hold values of at most 4 per coordinate, a tent step doubles the
        error it inherits but step t enters the sum at 4^-t, and the
        readout scales a coordinate by 4B^2.  Both are far inside the
        margin, so the net's value a is below T1 or above A + margin/2 at
        such a distance.  At a < T1 the ramp's first layer gives a - T1 < 0,
        its ReLU 0 (either sign), the doublings 0, and relu(1 - 0/A) = 1.0
        comes out bit for bit; at a > A + margin/2 the doubled excess
        2^w (a - T1) exceeds A by far more than the few ulps of A that
        rounding moves it, so relu(1 - v/A) is a zero and the last layer's
        +0.0 bias makes it +0.0.
        """
        return self.one_threshold - self.dist_err - self.flat_margin

    @property
    def zero_above(self):
        """See ``one_below``."""
        return self.A + self.dist_err + self.flat_margin


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
    return ScalarNet(layers)


# ---------------------------------------------------------------------------
# chart pullbacks and chart coefficients
# ---------------------------------------------------------------------------


def _pullback(fun, atlas, charts, Z):
    """(fun * rho_i)(phi_i^{-1}(z)) at each row z of Z, with i the row's
    entry of charts, and the mask of rows that have a preimage; a row is 0
    where it has none or rho_i vanishes, and fun is not called there.

    One chart_invert call inverts all rows, one rho_weights call weighs the
    rows it accepts (its ball test is rho_weights' precondition), and fun
    runs once over the rows with a nonzero weight.  Every step acts row by
    row, so a row has the bits of that row alone."""
    X, ok = chart_invert(atlas, charts, Z)
    vals, rows = np.zeros(len(Z)), np.flatnonzero(ok)
    w = rho_weights(atlas, charts[rows], X[rows])
    rows, w = rows[w != 0.0], w[w != 0.0]
    if rows.size:
        vals[rows] = np.asarray(fun(X[rows]), dtype=np.float64).ravel() * w
    return vals, ok


def chart_boundary_data(atlas: Atlas, Delta: float):
    """The boundary images phi(boundary of U), a (rays, d) array shared by
    every chart, and their chart-coordinate width of the indicator band
    {r^2 - Delta <= |x - c|^2 <= r^2}.  The rays are z = 1/2 + t u: 2 for
    d = 1, _BOUNDARY_DIRS for d = 2, a ChartError for d >= 3.  A ray lifts
    the offset s u, s = t / scale, one circle per plane (``_round_lift``), so
    |x - c| never depends on the chart; it is rho at t = scale *
    chord_offset(rho, u), and t < 1/2 as s < rho <= r:
    - round kits: |x - c|^2 = s^2 + (sqrt(R^2 - s^2) - R)^2 = 2R^2 -
      2R sqrt(R^2 - s^2), so s^2 = rho^2 - rho^4/(4R^2) for every u;
    - torus: plane k's squared chord e_k = 2R_k^2 - 2R_k sqrt(R_k^2 - s^2
      u_k^2) gives s^2 u_k^2 = e_k - b_k e_k^2, b_k = 1/(4R_k^2).  With e_1 +
      e_2 = rho^2 and a_k = u_k^2, A e_1^2 + B e_1 + C = 0 for A = a_1 b_2 -
      a_2 b_1, B = a_1 + a_2 - 2 a_1 b_2 rho^2 > 0 and C = -a_1 rho^2 (1 -
      b_2 rho^2) <= 0; its root in [0, rho^2] is -2C / (B + sqrt(B^2 - 4AC)),
      free of cancellation, and s^2 is the sum of e_k - b_k e_k^2.
    """
    m, d = atlas.manifold, atlas.manifold.intrinsic_dim
    if d > 2:
        raise ChartError(f"no boundary rays for intrinsic dimension {d}")
    angles = np.linspace(0.0, 2.0 * math.pi, 2 if d == 1 else _BOUNDARY_DIRS, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, :d]  # d = 1: +1 and -1
    ray_at = lambda rho: atlas.shift + (atlas.scale * m.chord_offset(rho, dirs))[:, None] * dirs
    z_outer, z_inner = ray_at(atlas.r), ray_at(math.sqrt(max(atlas.r**2 - Delta, 0.0)))
    return z_outer, float(np.max(np.abs(z_outer - z_inner)))


def chart_coefficients(f_on_M, atlas: Atlas, N: int, alpha: int, fd_step: float, z_bound, band):
    """Taylor coefficients of every chart pullback, with the boundary-band
    kill: the charts' tables stacked in chart order, (N+1)^d rows each, and
    each chart's kill record.  The grid nodes are tiled once per chart and
    taken a row block at a time (``_row_blocks``).  A block's derivatives
    D^a are iterated central differences, (hi - lo) / (2 h) along the first
    axis a still has, and every point set they read, of every a, is pulled
    back in one ``_pullback`` call; every step acts row by row, so a chart's
    rows have the bits of a build of that chart alone.

    Every grid node within band_width + 1/N (sup-norm, chart coordinates) of
    a boundary image is zeroed, so bumps whose support can reach the
    indicator's transition band contribute nothing; each chart's network
    then vanishes identically on that band.  ``z_bound`` and ``band`` come
    from ``chart_boundary_data``; like them, the zeroed nodes are every chart's.
    """
    d, charts = atlas.manifold.intrinsic_dim, atlas.chart_count
    v_list = multi_indices(d, alpha - 1)
    nodes = grid_nodes(N, d) / N

    def block(Z, owner):
        # the point sets of a: Z shifted by +h and -h along each axis of a in
        # turn, a copy each, the + set of a shift before its - set
        stencils = []
        for a in v_list:
            S = Z[None]
            for j in (j for j, aj in enumerate(a) for _ in range(aj)):
                S = np.repeat(S, 2, axis=0)
                S[0::2, :, j] += fd_step
                S[1::2, :, j] -= fd_step
            stencils.append(S)
        P = np.concatenate(stencils)
        vals = _pullback(f_on_M, atlas, np.tile(owner, len(P)), P.reshape(-1, d))[0]
        vals, derivs = vals.reshape(len(P), len(Z)), {}
        for a, S in zip(v_list, stencils):
            diff, vals = vals[: len(S)], vals[len(S) :]
            for _ in range(sum(a)):  # the innermost shift's pairs first
                diff = (diff[0::2] - diff[1::2]) / (2.0 * fd_step)
            derivs[a] = diff[0]
        return _monomial_expansion_rows(Z, derivs, v_list)

    # a coefficient row pulls back one row per point set, each gathering a
    # (D, d) frame in chart_invert, with a few temporaries of that size
    sets = sum(2 ** sum(a) for a in v_list)
    Z, owner = np.tile(nodes, (charts, 1)), np.repeat(np.arange(charts), len(nodes))
    table = _row_blocks(block, 8 * sets * atlas.frames[0].size, Z, owner)
    near = np.min(np.max(np.abs(z_bound[None] - nodes[:, None]), axis=2), axis=1) <= band + 1.0 / N
    kill = np.tile(near, charts)
    killed = np.count_nonzero((kill & np.any(table != 0.0, axis=1)).reshape(charts, -1), axis=1)
    table[kill] = 0.0
    kill_info = [{"band_width": band, "kill_radius": band + 1.0 / N, "killed_nodes": int(n)} for n in killed]
    return SurrogateCoefficients(d, N, alpha, v_list, table), kill_info


# ---------------------------------------------------------------------------
# the manifold approximator
# ---------------------------------------------------------------------------


class ManifoldApproximator:
    """Functional evaluator + optional compiled model of the chart-sum net."""

    def __init__(self, atlas, coeffs, sqdist, indicator, times_eta, times_delta, record):
        self.atlas = atlas
        self.coeffs = coeffs  # SurrogateCoefficients, the charts' tables stacked
        self.sqdist_net, self.sqdist_biases = sqdist  # as build_sqdist_nets gives them
        self.indicator_net, params = indicator  # build_indicator's net and its IndicatorParams
        self.one_below, self.zero_above = params.one_below, params.zero_above
        self.times_eta = times_eta
        self.times_delta = times_delta
        self.record = record
        self.model = None
        self.class_params = None

    def indicator_values(self, i, X):
        """Indicator of chart i at the rows of X; i is a chart, or an array
        holding the chart of each row."""
        d2 = self.sqdist_net.with_first_bias(self.sqdist_biases[i]).forward(X)
        return self.indicator_net.forward(d2[:, None])

    def per_chart_eval(self, i, X):
        """Contribution of chart i (exactly zero off its indicator support)
        at the points X: the chart sum's pass over chart i alone; nan at a
        point with a non-finite coordinate."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return _on_finite_rows(lambda X: self._chart_sum(X, [i]), X)

    def eval(self, X):
        """The chart sum at the points X; nan at a point with a non-finite
        coordinate."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return _on_finite_rows(lambda X: _row_blocks(self._chart_sum, self.atlas.chart_count, X), X)

    def _chart_sum(self, X, charts=None):
        """The sum over every chart, or over the ascending charts given, of
        its contribution at the rows of X, all finite: the pairs (chart,
        point) with a squared distance below ``zero_above`` add their
        values, and the others, whose indicator is +0.0, add nothing."""
        d2 = _sqdist(X, self.atlas.centers if charts is None else self.atlas.centers[charts])
        cols, points = np.nonzero((d2 < self.zero_above).T)
        pair_charts = cols if charts is None else np.asarray(charts)[cols]
        # the pairs are chart-major, so add.at adds each point's values from
        # +0.0 in ascending chart order, as a chart-by-chart loop adds them
        out = np.zeros(len(X))
        np.add.at(out, points, self._pair_values(X, pair_charts, points, d2[points, cols]))
        return out

    def _pair_values(self, X, charts, points, d2):
        """Contribution of chart charts[t] at the point X[points[t]], d2[t]
        the pair's squared distance (``_sqdist``), below ``zero_above``: one
        projection, the indicators (``_indicators``) and one stacked fold
        over all pairs, each pair reading the rows of its chart in the
        stacked table."""
        P = X[points]
        Z = self.atlas.project(charts, P)
        offset = charts * (self.coeffs.N + 1) ** self.coeffs.dim
        tail = (self.times_delta, self._indicators(charts, P, d2))
        return _stacked_fold(self.coeffs, Z, self.times_eta, tail=tail, offset=offset)

    def _indicators(self, charts, P, d2):
        """indicator_values(charts, P) with its bits at pairs whose squared
        distances d2 lie below ``zero_above``: 1.0 at most ``one_below``,
        read from d2 where the ramp is flat (``IndicatorParams.one_below``),
        and the nets on the band pairs above it."""
        one = d2 <= self.one_below
        ind = one.astype(np.float64)
        band = np.flatnonzero(~one)
        if band.size:
            ind[band] = self.indicator_values(charts[band], P[band])
        return ind

    def model_eval(self, X):
        if self.model is None:
            raise RuntimeError("approximator was built without compilation")
        return resnet_forward_batch(self.model, np.atleast_2d(X))

    def _terms(self, templates, nets):
        """Chart by chart, each (m, v) term with c_{m,v} != 0 as (net, first,
        m, c).  The term's net on the ambient space is times_delta(g(phi_i(x)),
        indicator_i(x)), g the net of phi_m x^v (``templates``).  The chart
        map, the chart's center and the node enter it only through its first
        layer, so it is v's net at chart 0 and node 0 (``nets``) with its
        first layer replaced by ``first``: g's first layer at node m read
        through chart i's map, beside chart i's squared-distance first
        layer.  A term with c = 0 adds c * 0 = +-0 and is left out."""
        atlas, coeffs = self.atlas, self.coeffs
        tables = coeffs.table.reshape(atlas.chart_count, -1, len(coeffs.v_list))
        for i, table in enumerate(tables):
            sq_i = ScalarNet([(self.sqdist_net.layers[0][0], self.sqdist_biases[i])])
            for m, row in zip(grid_nodes(coeffs.N, coeffs.dim).tolist(), table):
                for template, net, c in zip(templates, nets, row):
                    if c != 0.0:
                        g = ScalarNet([template.first(m)])
                        yield net, _chart_pair(atlas, i, g, sq_i).layers[0], m, c


def _chart_pair(atlas, i, g, h):
    """g read through chart i's map beside h, both on the ambient point."""
    A = atlas.scale * atlas.frames[i].T
    g_x, cols = sn_input_affine(g, A, atlas.shift - A @ atlas.centers[i]), list(range(A.shape[1]))
    return sn_parallel([(g_x, cols), (h, cols)])


def build_manifold_approx(
    f_on_M,
    mspec: ManifoldSpec,
    Mt: int = None,
    Jt: int = None,
    N: int = None,
    r: float = None,
    atlas: Atlas = None,
    compile_model: bool = False,
    check_points: int = 30,
    seed: int = 0,
) -> ManifoldApproximator:
    """Compile a target on M into the chart-sum approximator.

    Resolution N = floor((Mt*Jt)^(1/d)) unless given directly; the ramp
    width is Delta = r^2/(4N).  A study passes one atlas to every N, so
    its covering is built once.
    """
    d, D = mspec.intrinsic_dim, mspec.ambient_dim
    alpha = getattr(f_on_M, "order", 2)
    N = grid_resolution(N, Mt, Jt, d, least=2)
    if atlas is None:
        atlas = build_atlas(mspec, r if r is not None else 0.96 * mspec.reach / 4.0)
    r = atlas.r
    Delta = r * r / (4.0 * N)
    B = mspec.box_bound
    theta = Delta / (16.0 * B * B * D)
    eta = float(N) ** (-float(alpha))
    delta = max(float(N) ** (-float(alpha + d + 1)), 1e-10)
    box_intr = alpha + d + 1.0
    ind_params = IndicatorParams(r=r, Delta=Delta, theta=theta, B=B, D=D)
    indicator_net = build_indicator(ind_params)
    sqdist = build_sqdist_nets(atlas.centers, theta, B)
    times_eta = build_product2(eta, box_intr)
    times_delta = build_product2(delta, box_intr)
    if compile_model:  # each v's term net at chart 0, node 0 (see _terms)
        templates = [monomial_bump_template(v, N, times_eta) for v in multi_indices(d, alpha - 1)]
        indicator = sn_chain(sqdist[0].with_first_bias(sqdist[1][0]), indicator_net)
        nets = [sn_chain(_chart_pair(atlas, 0, t.net, indicator), times_delta) for t in templates]
        check_term_width(Jt, D, nets)
    z_bound, band = chart_boundary_data(atlas, Delta)
    coeffs, kill_info = chart_coefficients(f_on_M, atlas, N, alpha, 1e-4 * r, z_bound, band)

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
        "chart_count": atlas.chart_count,
        "T_d": atlas.T_d,
        "Mt": Mt,
        "Jt": Jt,
        "kill_info": kill_info,
        "coeff_bound": coeffs.max_abs,
    }
    approx = ManifoldApproximator(
        atlas, coeffs, sqdist, (indicator_net, ind_params), times_eta, times_delta, record
    )
    if not compile_model:
        return approx

    pts = mspec.sample_points(997)
    idx = np.random.default_rng(seed).choice(len(pts), min(check_points, len(pts)), replace=False)
    compile_terms(approx, approx._terms(templates, nets), pts[idx])
    return approx


def manifold_norm(e_on_M, atlas: Atlas, k: int, resolution=60, fd_step=1e-5):
    """Chart-sum W^{k,inf} estimate: sum_i sup |(e * rho_i) o phi_i^{-1}| over
    the chart images (k = 1 adds chart-coordinate central differences).

    Grid points with no chart preimage are skipped; the skip count is
    returned alongside the value.  One ``_pullback`` covers the grid of
    every chart, and at k = 1 every grid point's stencil; the charts' sups
    are then summed in chart order.
    """
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    return _chart_norms(e_on_M, atlas, k, resolution, fd_step)[k]


def manifold_norms(e_on_M, atlas: Atlas, resolution=60, fd_step=1e-5):
    """[(W0 value, skipped), (W1 value, skipped)] of ``manifold_norm`` at
    k = 0 and 1, both from the one ``_pullback`` of the k = 1 norm."""
    return _chart_norms(e_on_M, atlas, 1, resolution, fd_step)


def _chart_norms(e_on_M, atlas, k, resolution, fd_step):
    """The (value, skipped) pairs of manifold_norm for k = 0 up to k."""
    d, charts = atlas.manifold.intrinsic_dim, atlas.chart_count
    Zg = EvalGrid(d, resolution).points
    # k = 1: the grid, then its central-difference points, the +fd_step e_j
    # and -fd_step e_j sets of axis j at 1 + 2j and 2 + 2j
    Z = Zg if k == 0 else np.concatenate([Zg, _stencil(Zg, fd_step)])
    owner = np.repeat(np.arange(charts), len(Z))
    vals, ok = _pullback(e_on_M, atlas, owner, np.tile(Z, (charts, 1)))
    vals, ok = vals.reshape(charts, -1, len(Zg)), ok.reshape(charts, -1, len(Zg))
    skipped = int(np.count_nonzero(~ok[:, 0]))
    best = np.max(np.abs(vals[:, 0]), axis=1)  # rows without a preimage are 0
    # the charts' sups added one after another, in chart order
    out = [(float(np.cumsum(best)[-1]), skipped)]
    if k == 1:
        both = ok[:, :1] & ok[:, 1::2] & ok[:, 2::2]
        skipped += int(np.count_nonzero(ok[:, :1] & ~both))
        slope = np.abs(vals[:, 1::2] - vals[:, 2::2]) / (2.0 * fd_step)
        best = np.maximum(best, np.max(np.where(both, slope, 0.0), axis=(1, 2)))
        out.append((float(np.cumsum(best)[-1]), skipped))
    return out
