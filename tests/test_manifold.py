import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from build_oracle import (
    assert_same_bits,
    assert_same_layers,
    direct_manifold_nets,
    direct_model,
    direct_term_cnns,
)
from coeff_oracle import (
    all_chart_weights,
    chart_coefficients_oracle,
    chart_coefficients_per_set,
    per_point_pullback,
)
from fold_oracle import chart_sum_oracle, per_chart_eval_oracle
from hypothesis import example, given, settings, strategies as st

from sobolev_forge import manifold, netcore, taylor
from sobolev_forge.manifold import (
    ChartError,
    IndicatorParams,
    build_atlas,
    build_indicator,
    build_manifold_approx,
    build_sqdist_net,
    build_sqdist_nets,
    chart_invert,
    circle_manifold,
    manifold_norm,
    manifold_norms,
    rho_weights,
    sphere_manifold,
    torus_manifold,
)
from sobolev_forge.netcore import ConvResNetModel, audit_class, resnet_forward_batch, resnet_forward_dense
from sobolev_forge.scalarnets import ScalarNet, build_product2
from sobolev_forge.targets import get_manifold_target, get_target
from sobolev_forge.taylor import CompileEqualityError, ConfigError, build_euclidean, grid_nodes


@pytest.fixture(scope="module")
def circle():
    return circle_manifold(3)


@pytest.fixture(scope="module")
def atlas(circle):
    return build_atlas(circle, 0.2)


@pytest.fixture(scope="module")
def sphere_atlas():
    return build_atlas(sphere_manifold(), 0.24, sample_count=2400)


@pytest.fixture(scope="module")
def torus_atlas():
    return build_atlas(torus_manifold(), 0.16, sample_count=256)


@pytest.fixture(scope="module")
def atlases(atlas, sphere_atlas, torus_atlas):
    # the uneven torus tells its two circle solves apart
    uneven = build_atlas(torus_manifold(0.6, 0.9), 0.14, sample_count=256)
    return {"circle": atlas, "sphere": sphere_atlas, "torus": torus_atlas, "uneven-torus": uneven}


@pytest.fixture(scope="module")
def circle_sin():
    m, t = get_manifold_target("circle-sin")
    return m, t


def test_atlas_chart_count_and_coverage(circle, atlas):
    assert 32 <= atlas.chart_count <= 80
    pts = circle.sample_points(10000)
    d = np.linalg.norm(pts[:, None, :] - atlas.centers[None], axis=2).min(axis=1)
    assert np.max(d) < atlas.r_tilde


def test_atlas_radius_guard():
    sphere = sphere_manifold()
    with pytest.raises(ChartError, match="reach"):
        build_atlas(sphere, 0.3)  # reach 1 demands r < 0.25


@pytest.mark.parametrize("spacing_factor", [0.55, 0.6])
def test_atlas_with_a_gap_between_centers_is_a_covering_failure(circle, spacing_factor):
    """First-fit centers spaced 0.55 r or 0.6 r apart leave a sample at r/2
    or more from every center on the R^3 circle (0.5 and 0.8 do not)."""
    with pytest.raises(ChartError, match="covering failure"):
        build_atlas(circle, 0.2, spacing_factor=spacing_factor)


def test_rho_weights_reject_a_point_outside_every_inner_ball(atlas):
    with pytest.raises(ChartError, match="point not covered by any inner ball"):
        all_chart_weights(atlas, [[0.0, 0.0, 0.0]])


def test_atlas_chart_count_bound(circle, atlas):
    bound = math.ceil(circle.surface_area / atlas.r_tilde**1 * max(atlas.T_d, 1.0))
    assert atlas.chart_count <= bound


def test_chart_images_inside_unit_box(circle, atlas):
    pts = circle.sample_points(4000)
    for i in range(0, atlas.chart_count, 7):
        near = pts[np.linalg.norm(pts - atlas.centers[i], axis=1) < atlas.r]
        Z = atlas.project(np.full(len(near), i), near)
        assert Z.min() >= 0.0 and Z.max() <= 1.0


def test_chart_project_center_and_contraction(circle, atlas, rng):
    c = atlas.centers[0]
    assert np.allclose(atlas.project([0], c[None]), 0.5)
    samples = circle.sample_points(4096)
    pts = samples[np.linalg.norm(samples - c, axis=1) < atlas.r]
    Z = atlas.project(np.zeros(len(pts), dtype=int), pts)
    i, j = 3, 11
    dz = np.linalg.norm(Z[i] - Z[j])
    dx = np.linalg.norm(pts[i] - pts[j])
    assert dz <= atlas.scale * dx + 1e-12


def test_chart_project_circle_formula(circle, atlas):
    """Near the center the tangent coordinate is sin(dt)/(2r) + 1/2."""
    # first-fit takes the first sample, parameter 0, as center 0
    assert np.array_equal(atlas.centers[0], circle.embed(np.zeros((1, 1)))[0])
    for dt in (0.01, -0.02, 0.05):
        x = circle.embed(np.array([[dt]]))
        z = atlas.project([0], x)[0, 0]
        assert z == pytest.approx(0.5 + math.sin(dt) / (2 * atlas.r), abs=1e-12)


def test_chart_invert_roundtrip(circle, atlas):
    pts = circle.sample_points(4000)
    near = pts[np.linalg.norm(pts - atlas.centers[2], axis=1) < 0.95 * atlas.r][:500]
    charts = np.full(len(near), 2)
    Z = atlas.project(charts, near)
    X, ok = chart_invert(atlas, charts, Z)
    assert ok.all()
    assert np.max(np.abs(atlas.project(charts, X) - Z)) <= 1e-8


def test_chart_invert_center(circle, atlas):
    X, ok = chart_invert(atlas, [1], [[atlas.shift]])
    assert ok[0] and np.max(np.abs(X[0] - atlas.centers[1])) <= 1e-10


@pytest.mark.parametrize("kit", ["circle", "sphere", "torus", "uneven-torus"])
def test_chart_invert_recovers_manifold_points(kit, atlases):
    """Every sampled point within 0.95 r of a center, projected into that
    center's chart, inverts back to itself."""
    at = atlases[kit]
    pts = at.manifold.sample_points(4000)
    points, charts = np.nonzero(manifold._sqdist(pts, at.centers) < (0.95 * at.r) ** 2)
    assert len(np.unique(charts)) == at.chart_count
    X, ok = chart_invert(at, charts, at.project(charts, pts[points]))
    assert ok.all()
    assert np.max(np.abs(X - pts[points])) <= 1e-12


def test_rho_weights_sum_and_support(circle, atlas, rng):
    pts = circle.sample_points(10000)
    W = all_chart_weights(atlas, pts)
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(W >= 0.0)
    d = np.linalg.norm(pts[:, None, :] - atlas.centers[None], axis=2)
    assert np.all(W[d >= atlas.r_tilde] == 0.0)


def test_rho_weights_center_dominance(atlas):
    w = all_chart_weights(atlas, atlas.centers[:1])[0]
    assert w[0] == np.max(w) and w[0] > 0.9


def _rims(at, n_dirs=32, rho=None):
    """Chart 0's outer boundary images, or with rho given its images of the
    sphere |x - c| = rho <= r: its rays z = 1/2 + t u, u one of 2 (d = 1) or
    n_dirs (d = 2) unit directions, each bisected for 60 passes over t in
    [0, 1/2] to the last t whose lift through the kit's solver lies within
    rho of the center (at t = 1/2, |x - c| >= |V^T (x - c)| = r).  A ray
    lifts its offset one circle per plane, so |x - c| along it does not
    depend on the chart, and these are every chart's rims."""
    m, d = at.manifold, at.manifold.intrinsic_dim
    rho = at.r if rho is None else rho
    angles = np.linspace(0.0, 2.0 * math.pi, 2 if d == 1 else n_dirs, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, :d]  # d = 1: +1 and -1
    C, V = np.repeat(at.centers[:1], len(dirs), axis=0), np.repeat(at.frames[:1], len(dirs), axis=0)
    t_lo, t_hi = np.zeros(len(dirs)), np.full(len(dirs), 0.5)
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        X, ok = m.chart_solver(at.shift + mid[:, None] * dirs, C, V, at.scale, at.shift)
        beyond = ~ok | (manifold._row_norms(X - C) > rho)
        t_lo, t_hi = np.where(beyond, t_lo, mid), np.where(beyond, mid, t_hi)
    return at.shift + t_lo[:, None] * dirs


@pytest.fixture(scope="module")
def weight_atlases(atlas):
    """Each atlas of the weight property, with its outer boundary images
    (``_rims``) as the rims of its chart balls."""
    out = {}
    for name, at in [
        ("circle-0.2", atlas),
        ("circle-0.24", build_atlas(circle_manifold(3), 0.24)),
        ("sphere-0.2", build_atlas(sphere_manifold(), 0.2)),
        ("torus-0.16", build_atlas(torus_manifold(), 0.16)),
    ]:
        out[name] = at, _rims(at)
    return out


_weight_row = st.tuples(
    st.sampled_from(["inner", "rim", "edge"]),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)


def _weight_rows(at, rims, rows):
    """(charts, X) of chart_invert for the drawn rows, those it accepts:
    - inner: a point of the unit box in a chart;
    - rim: a chart's outer boundary image, pulled toward the center by at
      most 1e-3 of its offset (a rim point itself at u = 0);
    - edge: a point about r/2 from a chart's center, next to the edge of its
      inner ball, inverted in one of the charts whose ball holds it."""
    d = at.manifold.intrinsic_dim
    charts, Z = [], []
    for kind, i, k, u, v in rows:
        i %= at.chart_count
        if kind == "inner":
            z = np.array([u, v])[:d]
        elif kind == "rim":
            z = 0.5 + (1.0 - 1e-3 * u) * (rims[k % len(rims)] - 0.5)
        else:
            ray = np.array([math.cos(2.0 * math.pi * u), math.sin(2.0 * math.pi * u)])[:d]
            y, _ = chart_invert(at, [i], [0.5 + (0.24 + 0.02 * v) * ray])
            held = np.flatnonzero(manifold._row_norms(y - at.centers) <= at.r)
            i = held[k % len(held)]
            z = at.project([i], y)[0]
        charts.append(i)
        Z.append(z)
    charts = np.array(charts)
    X, ok = chart_invert(at, charts, np.array(Z))
    return charts[ok], X[ok]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["circle-0.2", "circle-0.24", "sphere-0.2", "torus-0.16"]),
       st.lists(_weight_row, min_size=1, max_size=12))
@example("circle-0.2", [("rim", 0, 0, 0.0, 0.0), ("rim", 0, 1, 0.0, 0.0)])
def test_rho_weights_equal_the_all_chart_weights(weight_atlases, kit, rows):
    """The weight of each row's own chart, measured against its neighbours
    only, has the bytes of that chart's weight measured against every chart;
    a row the all-charts pass finds in no inner ball is a ChartError.  A rim
    row lies in the inner balls of charts up to 1.5 r from its own."""
    at, rims = weight_atlases[kit]
    charts, X = _weight_rows(at, rims, rows)
    try:
        W = all_chart_weights(at, X)
    except ChartError:
        with pytest.raises(ChartError, match="point not covered by any inner ball"):
            rho_weights(at, charts, X)
        return
    assert rho_weights(at, charts, X).tobytes() == W[np.arange(len(X)), charts].tobytes()


def test_rho_weights_reject_a_row_beyond_its_chart_ball_or_every_inner_ball(circle, atlas):
    """A point of the circle (in an inner ball) just within r (1 + 1e-6) of
    its chart's center is weighed; on an atlas of every third chart, centers
    about 1.4 r apart, a point 0.7 r from a center lies in no inner ball,
    and the error names the first such row's coordinates and its chart."""
    def at_distance(dist):  # the circle point at chord distance dist from center 0
        return circle.embed(np.array([[2.0 * math.asin(dist / 2.0)]]))

    assert rho_weights(atlas, [0], at_distance(atlas.r * (1 + 0.9e-6)))[0] == 0.0
    centers = atlas.centers[::3]
    gappy = dataclasses.replace(atlas, centers=centers, frames=atlas.frames[::3],
                                neighbours=manifold._chart_neighbours(centers, atlas.r))
    with pytest.raises(ChartError, match="point not covered by any inner ball"):
        rho_weights(gappy, [0], at_distance(0.7 * atlas.r))
    gap = at_distance(0.7 * atlas.r)
    rows = np.vstack([at_distance(0.1 * atlas.r), gap, gap])
    with pytest.raises(ChartError, match="point not covered by any inner ball") as err:
        rho_weights(gappy, [0, 1, 0], rows)
    assert f"{gap[0].tolist()} of chart 1" in str(err.value)


def test_chart_neighbours_are_the_charts_within_1_5_r(weight_atlases):
    """Each chart's row of the neighbour table lists, in ascending order,
    the charts whose centers lie within 1.5 r (1 + 1e-6) (the margin takes
    in no other chart), padded with the chart itself, also when the
    distances are taken a few rows at a time."""
    at, _ = weight_atlases["sphere-0.2"]
    d = np.sqrt(manifold._sqdist(at.centers, at.centers))
    with mock.patch.object(netcore, "_BLOCK_CELLS", 7 * at.chart_count):
        table = manifold._chart_neighbours(at.centers, at.r)
    assert np.array_equal(table, at.neighbours)
    for i, row in enumerate(table):
        near = np.flatnonzero(d[i] <= 1.5 * at.r * (1 + 1e-6))
        assert np.array_equal(row[: len(near)], near) and np.all(row[len(near) :] == i)


def test_sqdist_net(circle, atlas, rng):
    theta = 1e-4
    c = np.zeros(2)
    net = build_sqdist_net(c, theta, 1.0)
    assert net.forward(c[None])[0] == 0.0
    assert abs(net(0.6, 0.8) - 1.0) <= 8e-4  # 4 B^2 D theta = 8e-4
    u = rng.uniform(-0.5, 0.5, (200, 2))
    sym = np.abs(net.forward(c + u) - net.forward(c - u))
    assert np.max(sym) <= 1e-12
    pts = rng.uniform(-1, 1, (10000, 2))
    errs = np.abs(net.forward(pts) - np.sum(pts**2, axis=1))
    assert errs.max() <= 4 * 1 * 2 * theta


def test_indicator_branches():
    p = IndicatorParams(r=0.2, Delta=0.01, B=1.0, D=3)
    net = build_indicator(p)
    assert net(0.0) == 1.0
    assert net(p.r**2) == 0.0
    mid = 0.5 * (p.one_threshold + p.A)
    assert abs(net(mid) - 0.5) <= 1e-10
    a = np.linspace(0, 0.08, 400)
    vals = net.forward(a[:, None])
    assert np.all(np.diff(vals) <= 1e-12)  # monotone nonincreasing
    assert net.depth <= p.w + 3 + 1


def test_indicator_theta_is_the_builds_expression():
    for Delta, B, D in ((0.01, 1.0, 3), (0.2**2 / 16.0, 1.5, 2), (0.8 / 7.0, 3.25, 5)):
        p = IndicatorParams(r=0.2, Delta=Delta, B=B, D=D)
        assert p.theta == Delta / (16.0 * B * B * D)
        assert p.dist_err == 4.0 * B**2 * D * p.theta
    with pytest.raises(TypeError, match="theta"):
        IndicatorParams(r=0.2, Delta=0.01, theta=1e-3, B=1.0, D=3)


def test_indicator_band_slope(circle, atlas):
    p = IndicatorParams(r=0.2, Delta=0.005, B=1.0, D=3)
    net = build_indicator(p)
    h = 1e-9
    inside = 0.5 * (p.one_threshold + p.A)
    slope = (net(inside + h) - net(inside - h)) / (2 * h)
    assert abs(slope) <= 8.0 / p.Delta
    for a in (p.one_threshold * 0.5, p.r**2 * 1.5):
        s = (net(a + h) - net(a - h)) / (2 * h)
        assert s == 0.0


def test_sampled_reach_matches_analytic():
    circle = circle_manifold(3)
    pts = circle.sample_points(2000)
    assert np.min(np.linalg.norm(pts, axis=1)) == pytest.approx(circle.reach, rel=1e-6)
    sphere = sphere_manifold()
    pts = sphere.sample_points(2000)
    assert np.min(np.linalg.norm(pts, axis=1)) == pytest.approx(sphere.reach, rel=1e-6)
    torus = torus_manifold()
    pts = torus.sample_points(2000)
    probe = np.minimum(np.hypot(pts[:, 0], pts[:, 1]), np.hypot(pts[:, 2], pts[:, 3]))
    assert np.min(probe) == pytest.approx(torus.reach, rel=0.01)


@pytest.fixture(scope="module")
def const_one_approx(circle, atlas):
    class ConstOne:
        order = 2
        name = "const-one"

        def __call__(self, X):
            return np.ones(len(np.atleast_2d(X)))

    return build_manifold_approx(ConstOne(), circle, N=8, atlas=atlas), ConstOne()


def test_constant_target_approximation(circle, atlas, const_one_approx):
    ap, f = const_one_approx
    pts = circle.sample_points(2000)
    # away from numerical boundary bands the value is near 1; the observed
    # sup error reflects the partition-of-unity curvature constant
    errs = np.abs(ap.eval(pts) - 1.0)
    assert np.median(errs) <= 0.05
    assert errs.max() <= 24.0 * ap.record["eta"]


def test_indicator_composition_regions(circle, atlas, const_one_approx):
    ap, _ = const_one_approx
    pts = circle.sample_points(10000)
    Delta = ap.record["Delta"]
    for i in (0, atlas.chart_count // 2):
        d2 = np.sum((pts - atlas.centers[i]) ** 2, axis=1)
        ind = ap.indicator_values(i, pts)
        assert np.all(ind[d2 <= atlas.r**2 - Delta] == 1.0)
        assert np.all(ind[d2 >= atlas.r**2] == 0.0)


def test_per_chart_vanishes_on_boundary_band(circle, atlas, const_one_approx):
    """The zeroed-coefficient band makes each per-chart net exactly zero on
    the indicator's transition region."""
    ap, _ = const_one_approx
    Delta = ap.record["Delta"]
    t_all = np.linspace(0, 2 * math.pi, 200000)
    pts = circle.embed(t_all[:, None])
    hits = 0
    for i in (0, 3, atlas.chart_count // 2):
        d2 = np.sum((pts - atlas.centers[i]) ** 2, axis=1)
        band = (d2 >= atlas.r**2 - Delta) & (d2 <= atlas.r**2)
        band_pts = pts[band][:1000]
        if len(band_pts) == 0:
            continue
        hits += len(band_pts)
        vals = ap.per_chart_eval(i, band_pts)
        assert np.all(vals == 0.0)
    assert hits >= 300


def test_pou_pullback_sum(circle, atlas, rng):
    pts = circle.sample_points(500)
    W = all_chart_weights(atlas, pts)
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-12


def test_manifold_norm_zero_and_one(circle, atlas):
    zero = lambda X: np.zeros(len(np.atleast_2d(X)))
    val, _ = manifold_norm(zero, atlas, 0, resolution=20)
    assert val == 0.0
    one = lambda X: np.ones(len(np.atleast_2d(X)))
    val, _ = manifold_norm(one, atlas, 0, resolution=20)
    assert 1.0 <= val <= atlas.chart_count


def test_manifold_build_guards(circle, atlas, circle_sin):
    """A manifold build needs N >= 4 (``chart_coefficients``' band
    property), and fails before it computes a coefficient."""
    _, target = circle_sin
    with mock.patch.object(manifold, "chart_coefficients", side_effect=AssertionError):
        for N in (1, 2, 3):
            with pytest.raises(ConfigError, match="resolution N must be >= 4"):
                build_manifold_approx(target, circle, N=N, atlas=atlas)


@pytest.fixture(scope="module")
def build_kits(atlas, sphere_atlas, weight_atlases, circle_sin):
    """Each kit's atlas, a target on it and a cache of its builds by N.  The
    torus atlases take 4,096 samples: on the 256-sample ones a build meets a
    point in no inner ball."""
    on_torus = lambda X: 2.0 * X[:, 0] * X[:, 2]
    kits = {
        "circle": (atlas, circle_sin[1]),
        "sphere": (sphere_atlas, get_manifold_target("sphere-harmonic", order=2)[1]),
        "torus": (weight_atlases["torus-0.16"][0], on_torus),
        "uneven-torus": (build_atlas(torus_manifold(0.6, 0.9), 0.14), on_torus),
    }
    builds = {}

    def build(kit, N):
        if (kit, N) not in builds:
            at, target = kits[kit]
            builds[kit, N] = build_manifold_approx(target, at.manifold, N=N, atlas=at)
        return builds[kit, N]

    return kits, build


def _band_kill(at, N, table):
    """The table with the boundary-band kill that builds below ``LEAST_N``
    once needed: every chart's rows at the nodes within band + 1/N
    (sup-norm) of an outer boundary image (``_rims``) zeroed, band the
    widest chart-coordinate step from an outer image to its ray's image at
    the ramp's inner edge |x - c| = sqrt(r^2 - Delta), Delta = r^2/(4N)."""
    d = at.manifold.intrinsic_dim
    z_outer = _rims(at)
    band = np.max(np.abs(z_outer - _rims(at, rho=at.r * math.sqrt(1.0 - 1.0 / (4.0 * N)))))
    nodes = grid_nodes(N, d) / N
    near = np.min(np.max(np.abs(z_outer[None] - nodes[:, None]), axis=2), axis=1) <= band + 1.0 / N
    killed = table.reshape(at.chart_count, (N + 1) ** d, -1).copy()
    killed[:, near] = 0.0
    return killed.reshape(table.shape)


@pytest.mark.parametrize("N", [3, 4, 8])
@pytest.mark.parametrize("kit", ["circle", "sphere", "torus", "uneven-torus"])
def test_bisected_boundaries_kill_the_nodes_of_the_closed_form(kit, N, build_kits):
    """A boundary-band kill at the bisected boundaries (``_band_kill``)
    meets only rows the partition weight already zeroed from N = 4 on: the
    build's tables, which no kill touches, are the killed ones byte for
    byte.  At N = 3, below a build's least N, the kill zeroes nonzero rows
    of ``chart_coefficients``' tables."""
    (at, target), build = build_kits[0][kit], build_kits[1]
    if N < manifold.LEAST_N:
        table = manifold.chart_coefficients(target, at, N, getattr(target, "order", 2), 1e-4 * at.r).table
    else:
        table = build(kit, N).coeffs.table
    assert np.any(table != 0.0)
    assert (_band_kill(at, N, table).tobytes() == table.tobytes()) == (N >= manifold.LEAST_N)


@pytest.mark.parametrize("r", [0.2, None])
def test_band_kill_zeroes_every_table_below_N_4(circle_sin, r):
    """Why a build takes N >= 4: on the circle atlas, at r = 0.2 and at the
    default r, the boundary-band kill (``_band_kill``) reaches each chart's
    center node at N = 2 and 3, the only node where rho_i does not vanish,
    so it zeroes every row of ``chart_coefficients``' tables, and a fitted N
    there would measure the target's own norm; N = 4 leaves every nonzero
    row of the build's table."""
    m, target = circle_sin
    at = build_atlas(m, r if r is not None else 0.96 * m.reach / 4.0)
    for N in (2, 3):
        table = manifold.chart_coefficients(target, at, N, 2, 1e-4 * at.r).table
        assert np.any(table != 0.0)
        assert not np.any(_band_kill(at, N, table) != 0.0)
    table = build_manifold_approx(target, m, N=4, atlas=at).coeffs.table
    assert np.any(table != 0.0)
    assert _band_kill(at, 4, table).tobytes() == table.tobytes()


@pytest.mark.parametrize("N", [4, 5, 8])
@pytest.mark.parametrize("kit", ["circle", "sphere", "torus", "uneven-torus"])
def test_live_bump_boxes_end_inside_the_band_radius(kit, N, build_kits):
    """Steps 3 and 4 of ``chart_coefficients``' band property, measured on
    the build: the band's inner edge |x - c|^2 = one_below, bisected along
    the chart rays (``_rims``), lies at |z - 1/2| >= sqrt(1 - 1/(4N))
    sqrt(63/64) / 2, and the farthest corner of the bump box |z - m/N|_inf
    < 2/(3N) of every node m with a nonzero row lies inside it."""
    at = build_kits[0][kit][0]
    ap = build_kits[1](kit, N)
    d = at.manifold.intrinsic_dim
    edge = np.min(np.linalg.norm(_rims(at, rho=math.sqrt(ap.one_below)) - at.shift, axis=1))
    assert edge >= math.sqrt(1.0 - 1.0 / (4.0 * N)) * math.sqrt(63.0 / 64.0) / 2.0
    live = np.any(ap.coeffs.table.reshape(at.chart_count, (N + 1) ** d, -1) != 0.0, axis=(0, 2))
    corners = np.linalg.norm(np.abs(grid_nodes(N, d)[live] / N - 0.5) + 2.0 / (3.0 * N), axis=1)
    assert live.any() and np.max(corners) < edge


def _outer_boundary_distances(at, charts, z_outer):
    """Distances from their centers of the outer boundary images z_outer
    (``_rims``), inverted in each of charts."""
    owner = np.repeat(charts, len(z_outer))
    X, ok = chart_invert(at, owner, np.tile(z_outer, (len(charts), 1)))
    assert ok.all()
    return np.linalg.norm(X - at.centers[owner], axis=1)


@pytest.mark.parametrize("kit", ["circle", "sphere", "torus", "uneven-torus"])
def test_outer_boundary_images_invert_to_distance_r(kit, atlases):
    at = atlases[kit]
    distances = _outer_boundary_distances(at, np.arange(at.chart_count), _rims(at))
    assert np.max(np.abs(distances - at.r)) <= 1e-12


def test_sphere_boundary_succeeds_at_the_poles():
    """The charts of the r = 0.2 sphere atlas centered within 0.1 rad of a
    pole, where parameter-space rays once found no boundary, have their
    boundary at distance r."""
    at = build_atlas(sphere_manifold(), 0.2)
    poles = np.flatnonzero(np.abs(at.centers[:, 2]) >= math.cos(0.1))
    assert poles.size >= 5
    distances = _outer_boundary_distances(at, poles, _rims(at))
    assert np.max(np.abs(distances - at.r)) <= 1e-12


@pytest.mark.parametrize("kit", ["circle", "sphere", "torus"])
def test_stamped_sqdist_nets_equal_per_center_builds(atlases, kit):
    """Each stamped net has the layers of the net built at its center, and
    all of them share every weight and every layer after the first, the
    prepared ones too."""
    at = atlases[kit]
    theta, B = at.r**2 / (64.0 * at.manifold.ambient_dim), at.manifold.box_bound
    shared, biases = manifold.build_sqdist_nets(at.centers, theta, B)
    assert biases.shape == (at.chart_count, shared.layers[0][1].size)
    for bias, center in zip(biases, at.centers):
        net, ref = shared.with_first_bias(bias), build_sqdist_net(center, theta, B)
        assert net.depth == ref.depth
        for (W, b), (W_ref, b_ref) in zip(net.layers, ref.layers):
            assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)
        assert net.layers[0][0] is shared.layers[0][0]
        assert all(a is b for a, b in zip(net.layers[1:], shared.layers[1:]))
        assert net._batch_layers[0][0] is shared._batch_layers[0][0]
        assert all(a is b for a, b in zip(net._batch_layers[1:], shared._batch_layers[1:]))


@pytest.mark.parametrize("kit", ["circle-0.2", "sphere-0.2", "torus-0.16"])
def test_sqdist_biases_equal_the_per_center_products(weight_atlases, kit):
    """The (charts, width) first-layer biases, taken as one product, have the
    bytes of b0 + W0 @ -c center by center; the sphere's centers have
    coordinates that are exact zeros."""
    at = weight_atlases[kit][0]
    theta, B = at.r**2 / (64.0 * at.manifold.ambient_dim), at.manifold.box_bound
    net, biases = manifold.build_sqdist_nets(at.centers, theta, B)
    W0, b0 = net.layers[0]
    assert biases.tobytes() == np.array([b0 + W0 @ -c for c in at.centers]).tobytes()


_coordinate = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e150, 1e150), st.sampled_from([0.0, -0.0]))
_column_sum_input = st.integers(1, 12).flatmap(
    lambda D: st.lists(st.integers(1, 5), max_size=2).flatmap(
        lambda lead: st.lists(
            _coordinate, min_size=math.prod(lead) * D, max_size=math.prod(lead) * D,
        ).map(lambda v: np.array(v).reshape(*lead, D))
    )
)


@settings(max_examples=200, deadline=None)
@given(_column_sum_input)
@example(np.array([[-0.0, 0.0, -0.0]]))
@example(np.array([0.9, -0.38, -0.15]))  # added right to left, its sum moves
@example(np.arange(24.0).reshape(2, 12) / 7.0)
def test_column_sum_of_squares_equals_numpy_sum(V):
    """The left-to-right column adds of D squares have the bytes of
    np.sum(V ** 2, axis=-1), for D from 1 to 12 (np.sum itself from 8 on),
    up to three axes and signed zeros."""
    want = np.sum(V**2, axis=-1)
    assert manifold._sum_squares(V.copy()).tobytes() == want.tobytes()


_point_sets = st.integers(1, 12).flatmap(lambda D: st.tuples(*(
    st.lists(st.lists(_coordinate, min_size=D, max_size=D), min_size=1, max_size=6).map(np.array)
    for _ in range(2)
)))


@settings(max_examples=200, deadline=None)
@given(_point_sets)
@example((np.array([[-0.0, 0.0, -0.0]]), np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]])))
@example((np.array([[0.9, -0.38, -0.15]]), np.zeros((1, 3))))  # added right to left, its sum moves
@example((np.arange(24.0).reshape(2, 12) / 7.0, np.ones((3, 12))))
def test_sqdist_by_coordinate_plane_equals_the_per_center_sums(sets):
    """The (points, centers) squared distances, added one coordinate plane
    at a time below 8 coordinates, have the bytes of the per-center
    np.sum((X - c) ** 2, axis=1), for D from 1 to 12 and signed zeros."""
    X, C = sets
    want = np.array([np.sum((X - c) ** 2, axis=1) for c in C]).T
    assert manifold._sqdist(X, C).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(_point_sets, st.integers(1, 4), st.data())
def test_gathered_sqdist_equals_the_sum_of_squares_of_the_gather(sets, width, data):
    """Each point's squared distances to its own rows of C, added by
    coordinate plane, have the bytes of _sum_squares over the gathered
    (points, width, D) offsets."""
    X, C = sets
    near = np.array(data.draw(st.lists(
        st.lists(st.integers(0, len(C) - 1), min_size=width, max_size=width),
        min_size=len(X), max_size=len(X),
    )))
    want = manifold._sum_squares(X[:, None] - C[near])
    assert manifold._sqdist(X, C, near).tobytes() == want.tobytes()


def test_manifold_compile_equality(circle, circle_sin):
    """Small compiled manifold model agrees with the functional path, on a
    table and at check points where both are nonzero."""
    mspec, target = circle_sin
    atlas = build_atlas(mspec, 0.2, sample_count=1024)
    ap = build_manifold_approx(
        target, mspec, N=4, atlas=atlas, compile_model=True, check_points=25
    )
    assert np.count_nonzero(ap.coeffs.table) > 0
    pts = mspec.sample_points(997)
    checks = pts[np.random.default_rng(0).choice(len(pts), 25, replace=False)]
    assert np.count_nonzero(ap.eval(checks)) > 0
    assert ap.record["compile_gap"] <= 1e-8
    assert ap.class_params.K <= mspec.ambient_dim


def test_compiled_circle_model_audit(atlas, circle_sin):
    """The compiled circle model at r = 0.2, N = 8: each chart term's gate
    is three layers, so the depth L is at most 40 (57 with a product net in
    its place), with M = 414 blocks, J = 24 channels and the compile gap
    within 1e-8.  Criterion 6's kernel bound K <= 2 holds, and the largest
    weight is the trapezoids' 3N read through the chart map, scaled by
    1/(2r)."""
    mspec, target = circle_sin
    N = 8
    ap = build_manifold_approx(target, mspec, N=N, atlas=atlas, compile_model=True)
    audit = ap.class_params
    assert audit.L <= 40
    assert (audit.M, audit.J) == (414, 24)
    assert ap.record["compile_gap"] <= 1e-8
    assert audit.K <= 2
    assert audit.kappa1 <= 3 * N * atlas.scale


def test_a_compiled_manifold_model_holds_only_live_terms(circle_sin):
    """A term with c = 0 adds c * 0 = +-0, so the model holds one block per
    nonzero coefficient; every coefficient of the zero target is 0, and its
    model has no block and is 0 everywhere."""
    mspec, target = circle_sin
    atlas = build_atlas(mspec, 0.2, sample_count=1024)
    pts = mspec.sample_points(200)
    zero = lambda X: np.zeros(len(X))
    for f, live in ((target, True), (zero, False)):
        ap = build_manifold_approx(f, mspec, N=4, atlas=atlas, compile_model=True, check_points=25)
        nonzero = np.count_nonzero(ap.coeffs.table)
        assert (nonzero > 0) == live
        assert len(ap.model.blocks) == ap.record["terms"] == nonzero
    assert np.all(ap.model_eval(pts) == 0.0)


@pytest.fixture(scope="module")
def euclid_and_circle_models(circle, atlas, circle_sin):
    """The compiled Euclidean sinprod alpha = 2, N = 4 build and the
    compiled circle-sin N = 4 build."""
    euclid = build_euclidean(get_target("sinprod", alpha=2, dim=2), s=0, p=math.inf, N=4, check_points=4)
    return euclid, build_manifold_approx(circle_sin[1], circle, N=4, atlas=atlas, compile_model=True)


def test_every_forward_of_no_points_is_an_empty_float_array(euclid_and_circle_models):
    """The functional and compiled forwards of the Euclidean and circle
    models, and of a model without blocks (its fc bias alone), map 0 points
    to shape (0,) float64."""
    euclid, ap = euclid_and_circle_models
    bias_only = ConvResNetModel(2, 3, [], np.zeros((2, 3)), 0.5)
    D2, D3 = np.empty((0, 2)), np.empty((0, 3))
    outs = [euclid.eval(D2), euclid.surrogate(D2), euclid.model_eval(D2), ap.eval(D3), ap.model_eval(D3)]
    for model, X in ((euclid.model, D2), (ap.model, D3), (bias_only, D2)):
        outs += [resnet_forward_batch(model, X), resnet_forward_dense(model, X)]
    for out in outs:
        assert out.shape == (0,) and out.dtype == np.float64


# a netcore._BLOCK_CELLS that splits every row-block pass below into blocks
# of a few rows: 8 points of a fold stack at D = 2 and 8 rows of a
# product-net pass, one point of a plan chunk, 7 rows against the circle's
# 69 charts and 170 of an inversion
_SPLIT_CELLS = 2**9


def test_a_small_row_block_budget_moves_no_bit(circle, atlas, circle_sin, euclid_and_circle_models):
    """Every pass that takes its rows a block at a time gives the same bytes
    when netcore._BLOCK_CELLS splits it: the Euclidean functional eval and
    its magnitude audit, the compiled sparse and dense forwards, the
    manifold eval and manifold_norms, and a circle build's table and its
    compiled forward."""
    euclid, built = euclid_and_circle_models
    X = np.random.default_rng(0).uniform(-0.5, 2.5, (40, 2))  # some outside the safe box
    P = circle.sample_points(40) * np.linspace(0.9, 1.1, 40)[:, None]
    f = circle_sin[1]

    def run(ap):
        arrays = [euclid.eval(X), resnet_forward_batch(euclid.model, X),
                  resnet_forward_dense(euclid.model, X), ap.coeffs.table, ap.eval(P), ap.model_eval(P)]
        norms = manifold_norms(lambda Y: ap.eval(Y) - f(Y), atlas, resolution=5)
        return [a.tobytes() for a in arrays] + [repr((euclid.audit_intermediate_magnitudes(X), norms))]

    default = run(built)
    with mock.patch.object(netcore, "_BLOCK_CELLS", _SPLIT_CELLS):
        small = run(build_manifold_approx(f, circle, N=4, atlas=atlas, compile_model=True))
    assert small == default


@pytest.mark.parametrize("D", [3, 6])
def test_compiled_chart_terms_equal_the_per_term_oracle(D, monkeypatch):
    """Each chart term is its monomial's net with its own first layer: with
    that layer its net is the per-term net bit for bit, and the model equals
    the per-term build's.  mlp_to_cnn runs once per v.  In R^6 the CNNs
    have 5 gather layers before the restamped one."""
    mspec, target = get_manifold_target("circle-sin", D)
    atlas = build_atlas(mspec, 0.2, sample_count=1024)
    compile_terms, terms = manifold.compile_terms, []

    def keep(approx, stream, X):
        terms[:] = stream
        return compile_terms(approx, terms, X)

    monkeypatch.setattr(manifold, "compile_terms", keep)
    for N in (4, 8):
        with mock.patch.object(taylor, "mlp_to_cnn", wraps=taylor.mlp_to_cnn) as convert:
            ap = build_manifold_approx(target, mspec, N=N, atlas=atlas, compile_model=True)
        assert convert.call_count == len(ap.coeffs.v_list)
        nets = direct_manifold_nets(ap)
        assert len(nets) == np.count_nonzero(ap.coeffs.table) > 0
        for (net, first, m, c), (m_direct, _, direct, c_direct) in zip(terms, nets, strict=True):
            assert m == m_direct and c == c_direct
            assert_same_layers([first] + net.layers[1:], direct.layers)
        model = direct_model(direct_term_cnns(nets), ap.record["Jt"])
        assert len(ap.model.blocks) == len(model.blocks)
        for got, blk in zip(ap.model.blocks, model.blocks):
            assert_same_layers(list(zip(got.filters, got.biases)), list(zip(blk.filters, blk.biases)))
        assert_same_bits(ap.model.fc_weight, model.fc_weight)
        assert ap.model.fc_bias == model.fc_bias
        assert ap.class_params == audit_class(model)


def test_a_manifold_jt_below_one_terms_width_is_a_config_error(circle_sin):
    """Jt equal to the width of one term's CNN builds; one less is rejected
    before the chart coefficients are computed."""
    mspec, target = circle_sin
    atlas = build_atlas(mspec, 0.2, sample_count=1024)
    build = lambda Jt: build_manifold_approx(target, mspec, N=4, Jt=Jt, atlas=atlas, compile_model=True)
    width = build(None).record["Jt"]
    assert build(width).record["Jt"] == width
    with mock.patch.object(manifold, "chart_coefficients") as coefficients:
        with pytest.raises(ConfigError, match=f"Jt = {width - 1} is below the width {width} "):
            build(width - 1)
    coefficients.assert_not_called()


def test_build_fails_when_a_charts_compiled_indicator_misses_its_chart(circle_sin, monkeypatch):
    """The compile gate sees one chart whose compiled squared-distance net
    measures from a point 2 r away from the chart's center, in every term of
    the chart, so its compiled indicator reads 0 on the chart: the chart
    nearest the build's first check point, which lies in the chart's center
    bump."""
    mspec, target = circle_sin
    atlas = build_atlas(mspec, 0.2, sample_count=1024)
    build = lambda: build_manifold_approx(target, mspec, N=4, atlas=atlas, compile_model=True)
    assert build().record["compile_gap"] <= 1e-8
    pts = mspec.sample_points(997)
    first = pts[np.random.default_rng(0).choice(len(pts), 30, replace=False)[0]]
    k = int(np.argmin(np.linalg.norm(atlas.centers - first, axis=1)))
    assert np.linalg.norm(atlas.centers[k] - first) < atlas.r_tilde
    shift = 2.0 * atlas.r * np.ones(mspec.ambient_dim) / math.sqrt(mspec.ambient_dim)
    chart_pair, moved = manifold._chart_pair, []

    def moved_center(atlas, i, g, h):
        if i == k:  # the first-layer bias of the center moved by shift
            (W, b), *rest = h.layers
            h = ScalarNet([(W, b - W @ shift)] + rest)
            moved.append(i)
        return chart_pair(atlas, i, g, h)

    monkeypatch.setattr(manifold, "_chart_pair", moved_center)
    with pytest.raises(CompileEqualityError, match="deviates from functional path"):
        build()
    assert moved


@pytest.mark.parametrize("make, r, count", [(circle_manifold, 0.2, 4096), (sphere_manifold, 0.24, 1200)])
def test_atlas_centers_match_per_center_first_fit(make, r, count):
    m = make()
    centers = []
    for x in m.sample_points(count):
        if not centers or min(np.linalg.norm(x - c) for c in centers) > 0.45 * r:
            centers.append(x)
    assert np.array_equal(build_atlas(m, r, sample_count=count).centers, np.array(centers))


@pytest.mark.parametrize("kit", ["circle", "sphere", "torus"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_chart_invert_batch_matches_one_point(kit, atlases, data):
    """Row t of one inversion over rows of interleaved charts is row t
    inverted alone, bit for bit, including the rows with no preimage in
    their chart ball (z beyond [0, 1] mostly), which are nan."""
    at = atlases[kit]
    d = at.manifold.intrinsic_dim
    coord = st.floats(-3.0, 4.0) | st.floats(0.0, 1.0)
    row = st.tuples(st.integers(0, at.chart_count - 1), st.lists(coord, min_size=d, max_size=d))
    rows = data.draw(st.lists(row, min_size=1, max_size=12))
    charts, Z = np.array([i for i, _ in rows]), np.array([z for _, z in rows])
    X, ok = chart_invert(at, charts, Z)
    assert np.all(np.isnan(X[~ok]))
    for t in range(len(Z)):
        x, one_ok = chart_invert(at, charts[t : t + 1], Z[t : t + 1])
        assert one_ok[0] == ok[t]
        assert np.array_equal(X[t], x[0], equal_nan=True)


@pytest.mark.parametrize("kit", ["circle", "sphere", "torus"])
def test_chart_invert_rejects_a_nan_coordinate_without_warnings(kit, atlases):
    at = atlases[kit]
    d = at.manifold.intrinsic_dim
    Z = np.full((2, d), 0.5)
    Z[1, -1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, ok = chart_invert(at, [0, 0], Z)
    assert ok.tolist() == [True, False]
    assert np.isnan(X[1]).all()


def test_per_chart_eval_matches_per_term_oracle(circle, atlas, circle_sin):
    """The stacked fold with the indicator as its last step equals the
    per-term loop, with zeroed rows in every other chart."""
    m, target = circle_sin
    ap = build_manifold_approx(target, m, N=8, atlas=atlas)
    rng = np.random.default_rng(4)
    for table in ap.coeffs.table.reshape(atlas.chart_count, -1, len(ap.coeffs.v_list))[::2]:
        table[:] = np.where(rng.random((len(table), 1)) < 0.3, 0.0, table)
    pts = circle.sample_points(600)
    for i in range(atlas.chart_count):
        vals = ap.per_chart_eval(i, pts)
        assert np.array_equal(vals, per_chart_eval_oracle(ap, i, pts))
        assert all(ap.per_chart_eval(i, pts[j : j + 1])[0] == vals[j] for j in range(0, 600, 50))


@pytest.fixture(scope="module")
def circle_sin_approx(circle, atlas, circle_sin):
    return {N: build_manifold_approx(circle_sin[1], circle, N=N, atlas=atlas) for N in (4, 8, 16)}


def test_one_point_evals_prepare_no_layer_after_the_first(circle, circle_sin_approx, monkeypatch):
    """A stamped net reuses its base net's prepared layers, so one-point
    evals after the first copy no weight for the forward.  The warm-up
    point X[3] has a pair on the indicator's band, so it runs the nets, and
    so does some eval after it."""
    ap = circle_sin_approx[4]
    X = circle.sample_points(10)
    ap.eval(X[3:4])
    copies, net_pairs = [], []
    asfortranarray = np.asfortranarray
    monkeypatch.setattr(np, "asfortranarray", lambda a: copies.append(a) or asfortranarray(a))
    indicator_values = ap.indicator_values
    monkeypatch.setattr(ap, "indicator_values", lambda i, P: net_pairs.append(len(P)) or indicator_values(i, P))
    values = [ap.eval(x[None])[0] for x in X]
    assert copies == [] and np.any(np.array(values) != 0.0)
    assert net_pairs


_ON_OR_NEAR_CIRCLE = st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.85, 1.15))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([4, 8, 16]),
    st.lists(_ON_OR_NEAR_CIRCLE, min_size=1, max_size=40),
    st.booleans(),
    st.booleans(),
)
@example(4, [(0.3, 1.0)], False, False)  # a lone point
@example(8, [(1.0, 1.0), (4.0, 1.1)], True, True)
def test_chart_sum_matches_per_chart_loop(circle, circle_sin_approx, N, params, far, nan_row):
    """The stacked chart sum equals the chart-by-chart loop bit for bit, on
    the batch and on its first point alone; the origin is near no chart, and
    a nan row is nan without moving the others."""
    ap = circle_sin_approx[N]
    t, s = np.array(params).T
    X = s[:, None] * circle.embed(t[:, None])
    if far:
        X = np.vstack([X, np.zeros(3)])
    if nan_row:
        X = np.vstack([X, [0.5, np.nan, 0.5]])
    got = ap.eval(X)
    assert np.array_equal(got, chart_sum_oracle(ap, X), equal_nan=True)
    assert np.array_equal(ap.eval(X[:1]), chart_sum_oracle(ap, X[:1]))
    if far:
        assert got[len(params)] == 0.0


def test_chart_sum_matches_per_chart_loop_on_a_dense_sample(circle, circle_sin_approx):
    """At N = 16 up to three charts add nonzero values at a point, so the
    order of the additions shows in the bits: adding them in descending
    chart order moves 3 of these 997 values."""
    ap = circle_sin_approx[16]
    X = circle.sample_points(997)
    assert np.array_equal(ap.eval(X), chart_sum_oracle(ap, X))


# a _BLOCK_CELLS that splits every row-block pass of a kit's run below
# into several blocks other than the default ones (29 rows on the circle's
# 69 charts, 98 on the sphere's 1,020 at r 0.2), and the run's N and norm
# resolution
_SMALL_BLOCKS = {"circle-sin": (2**11, 16, 10), "sphere-harmonic": (10**5, 4, 1)}


def _block_rule_run(name, at):
    """The bytes of each row-block pass of the kit at r 0.2: the atlas
    arrays and T_d, a build's table, its error's
    manifold_norms and its eval at 300 points off the manifold."""
    m, target = get_manifold_target(name)
    _, N, resolution = _SMALL_BLOCKS[name]
    at = build_atlas(m, 0.2) if at is None else at
    ap = build_manifold_approx(target, m, N=N, atlas=at)
    norms = manifold_norms(lambda X: ap.eval(X) - target(X), at, resolution=resolution)
    X = m.sample_points(300) * np.linspace(0.9, 1.1, 300)[:, None]
    parts = [at.centers, at.frames, at.neighbours, ap.coeffs.table, ap.eval(X)]
    return [a.tobytes() for a in parts] + [repr((at.T_d, norms))]


@pytest.fixture(scope="module")
def block_rule_runs(weight_atlases):
    """Each kit's run in the default blocks (on the module's atlas) and in
    its small ones (on an atlas built in them)."""
    runs = []
    for name, kit in (("circle-sin", "circle-0.2"), ("sphere-harmonic", "sphere-0.2")):
        with mock.patch.object(netcore, "_BLOCK_CELLS", _SMALL_BLOCKS[name][0]):
            small = _block_rule_run(name, None)
        runs.append((_block_rule_run(name, weight_atlases[kit][0]), small))
    return runs


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([4, 8, 16]),
    st.lists(_ON_OR_NEAR_CIRCLE, min_size=1, max_size=40),
    st.lists(st.integers(0, 68), max_size=3),
    st.booleans(),
    st.booleans(),
)
@example(4, [(1.3, 1.0), (1.32, 1.0)], [], False, False)
def test_eval_of_each_point_alone_equals_its_value_in_the_batch(
    circle, atlas, circle_sin_approx, block_rule_runs, N, params, lone, origin, nan_row
):
    """Every point's chart sum is the same alone as inside the batch, and
    inside blocks of three rows.  A point at 1.22 times a chart center is
    within 1.2 r of that chart only, the origin of none, and a nan row is
    nan.  Every row-block pass (the atlas's covering check, T_d and
    neighbour table, the weights, the coefficients, the chart sum) gives the
    circle's and the sphere's runs at r 0.2 the same bytes in smaller
    blocks as in the default ones."""
    ap = circle_sin_approx[N]
    t, s = np.array(params).T
    X = np.vstack([s[:, None] * circle.embed(t[:, None]), 1.22 * atlas.centers[lone]])
    if origin:
        X = np.vstack([X, np.zeros(3)])
    if nan_row:
        X = np.vstack([X, [0.5, np.nan, 0.5]])
    alone = [ap.eval(x[None])[0] for x in X]
    assert np.array_equal(ap.eval(X), alone, equal_nan=True)
    with mock.patch.object(netcore, "_BLOCK_CELLS", 3 * atlas.chart_count):
        assert np.array_equal(ap.eval(X), alone, equal_nan=True)
    for default, small in block_rule_runs:
        assert default == small


def _traced(run):
    """run()'s value and the peak of the memory tracemalloc traces while it
    runs."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_large_eval_holds_one_row_block_at_a_time(circle, circle_sin_approx):
    """A 40,000-point circle eval traces a peak of at most 32 MB: it measures
    one row block of points against the charts at a time (85 MB when it
    held all (points, charts) distances and chart ranks at once)."""
    X = circle.sample_points(40000)
    _, peak = _traced(lambda: circle_sin_approx[4].eval(X))
    assert peak <= 32 * 2**20


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([4, 8, 16]), st.lists(_ON_OR_NEAR_CIRCLE, min_size=1, max_size=20))
@example(4, [(1.1037, 0.9685)])  # a one-row matrix-vector product moved this pair's bits
@example(8, [(6.2657, 0.999), (0.914, 1.0438)])
def test_indicator_of_each_near_pair_alone_equals_its_batch_value(
    circle, atlas, circle_sin_approx, N, params
):
    """The indicator of every (chart, point) pair within 1.2 r of the chart's
    center is the same alone as inside the batch of all such pairs."""
    ap = circle_sin_approx[N]
    t, s = np.array(params).T
    X = s[:, None] * circle.embed(t[:, None])
    near = np.sum((X[:, None] - atlas.centers[None]) ** 2, axis=2) <= 1.44 * atlas.r**2
    charts, points = np.nonzero(near.T)
    alone = [ap.indicator_values(c, X[p][None])[0] for c, p in zip(charts, points)]
    assert np.array_equal(ap.indicator_values(charts, X[points]), alone)


def _indicator_approx(at, N):
    """An approximator of the atlas's squared-distance nets and indicator at
    the ramp width Delta = r^2/(4N), with the parameters a build at
    resolution N takes, and no chart tables: its indicators read no
    coefficient.  N = 2 and 3, below a build's least N, give the wider
    ramps r^2/8 and r^2/12."""
    m = at.manifold
    B, D, Delta = m.box_bound, m.ambient_dim, at.r**2 / (4.0 * N)
    params = IndicatorParams(r=at.r, Delta=Delta, B=B, D=D)
    sqdist = build_sqdist_nets(at.centers, params.theta, B)
    return manifold.ManifoldApproximator(at, None, sqdist, (build_indicator(params), params), None, None, {})


@pytest.mark.parametrize("N", [2, 3, 4, 8, 16, 32])
@pytest.mark.parametrize("kit", ["circle-0.2", "circle-0.24", "sphere-0.2", "torus-0.16"])
def test_indicators_read_from_the_flat_ramp_equal_the_nets(weight_atlases, kit, N):
    """The chart sum's indicators, 1.0 read from the squared distance where
    the ramp is flat and the nets on the band pairs, have the bytes of the
    nets on every pair within 1.2 r, and the nets give +0.0 on the pairs at
    or above ``zero_above``, which the chart sum drops: at points off the
    manifold, radii 0.85 to 1.15, and at points a few ulps from either
    threshold, each on a ray from a chart's center.  Pairs below, in and
    above the band all occur."""
    at = weight_atlases[kit][0]
    ap, m = _indicator_approx(at, N), at.manifold
    rng = np.random.default_rng(N)
    off = m.embed(rng.uniform(0.0, 2.0 * math.pi, (300, m.intrinsic_dim)))
    off *= rng.uniform(0.85, 1.15, (300, 1))
    rays = rng.standard_normal((8, m.ambient_dim))
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    centers = at.centers[rng.choice(at.chart_count, 8, replace=False)]
    ulps = 1.0 + 2.0**-52 * np.arange(-4, 5)
    near = [c + math.sqrt(t) * s * u for t in (ap.one_below, ap.zero_above)
            for c, u in zip(centers, rays) for s in ulps]
    X = np.vstack([off, near])
    d2 = manifold._sqdist(X, at.centers)
    charts, points = np.nonzero((d2 <= 1.44 * at.r**2).T)
    d2, P = d2[points, charts], X[points]
    nets, above = ap.indicator_values(charts, P), d2 >= ap.zero_above
    assert ap._indicators(charts, P, d2).tobytes() == nets.tobytes()
    assert nets[above].tobytes() == np.zeros(np.count_nonzero(above)).tobytes()
    assert np.any(d2 <= ap.one_below) and np.any(above)
    assert np.any((d2 > ap.one_below) & (d2 < ap.zero_above))


# |g| = relu(g) + relu(-g) of a fold's running value g, read beside a
# column of ones: the fold's last step in place of the gate
_ABS_STEP = ScalarNet([(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2)), (np.ones((1, 2)), np.zeros(1))])


def _band_folds(at, coeffs, times_eta, one_below, zero_above, N):
    """At 2,000 (d = 1) or 400 (d = 2) points of M, the sum of |g| over the
    kept terms (c != 0) of each pair (chart, point) on the indicator's band,
    one_below < d^2 < zero_above, and of each pair below it: the chart
    sum's fold with a table of ones where c != 0 and |g| as its last step."""
    m, d = at.manifold, at.manifold.intrinsic_dim
    kept = dataclasses.replace(coeffs, table=(coeffs.table != 0.0).astype(np.float64))
    X = m.embed(np.random.default_rng(N).uniform(0.0, 2.0 * math.pi, (2000 if d == 1 else 400, d)))
    d2 = manifold._sqdist(X, at.centers)

    def folds(pairs):
        charts, points = np.nonzero(pairs.T)
        Z = at.project(charts, X[points])
        offset = charts * (N + 1) ** d
        return taylor._stacked_fold(kept, Z, times_eta, _ABS_STEP, np.ones(len(Z)), offset=offset)

    return folds((d2 > one_below) & (d2 < zero_above)), folds(d2 <= one_below)


_BAND_KITS = ["circle-0.2", "circle-0.24", "sphere-0.24", "sphere-0.2", "torus-0.16"]


@pytest.mark.parametrize(
    "kit, N",
    [(kit, N) for kit in _BAND_KITS for N in (4, 5, 8)] + [("circle-0.2", 16), ("circle-0.24", 16)],
)
def test_every_kept_term_folds_to_zero_on_the_band_at_points_of_the_manifold(
    weight_atlases, sphere_atlas, kit, N
):
    """At points of M, each term a chart sum keeps (c != 0) folds to an
    exact 0.0 at every pair (chart, point) on its indicator's band
    (``_band_folds``), as ``chart_coefficients``' band property has it from
    N = 4 on.  So the gate, exact where the indicator is 1.0 or +0.0 and at
    g = +-0.0, gives g s at every pair the chart sum folds on M.  The same
    fold is nonzero at pairs below the band."""
    at = sphere_atlas if kit == "sphere-0.24" else weight_atlases[kit][0]
    m = at.manifold
    target = {"circle": get_manifold_target("circle-sin")[1],
              "sphere": get_manifold_target("sphere-harmonic")[1],
              "torus": lambda X: 2.0 * X[:, 0] * X[:, 2]}[m.name]
    ap = build_manifold_approx(target, m, N=N, atlas=at)
    band, below = _band_folds(at, ap.coeffs, ap.times_eta, ap.one_below, ap.zero_above, N)
    assert band.size >= 20
    assert band.tobytes() == np.zeros(band.size).tobytes()
    assert np.count_nonzero(below) > 0


def test_kept_terms_reach_the_band_on_the_sphere_at_N_3(sphere_atlas):
    """The control of the band property: on the r = 0.24 sphere at N = 3,
    below a build's least N, the table of ``chart_coefficients`` keeps
    terms whose bumps reach the band along their box's diagonal, and band
    pairs fold to nonzero values, so N = 4 is the least N that holds."""
    N, alpha, at = 3, 2, sphere_atlas
    target = get_manifold_target("sphere-harmonic", order=alpha)[1]
    coeffs = manifold.chart_coefficients(target, at, N, alpha, 1e-4 * at.r)
    ind = _indicator_approx(at, N)
    times_eta = build_product2(float(N) ** -alpha, alpha + 2 + 1.0)
    band, _ = _band_folds(at, coeffs, times_eta, ind.one_below, ind.zero_above, N)
    assert np.count_nonzero(band) > 0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=30))
def test_rho_weights_rows_match_one_point(circle, atlas, params):
    X = circle.embed(np.array(params)[:, None])
    W = all_chart_weights(atlas, X)
    for x, row in zip(X, W):
        assert np.array_equal(all_chart_weights(atlas, x), row)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 68), min_size=1, max_size=6),
    st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=20),
    st.integers(1, 60),
)
def test_pullback_rows_match_each_row_alone_and_per_point(
    atlas, circle_sin, charts, zs, chunk_rows
):
    """Each (chart, z) row of one pullback over interleaved charts has the
    value and mask of that row alone and the oracle's value, however many
    rows share a block of the weights."""
    f = circle_sin[1]
    owner = np.tile(charts, len(zs))
    Z = np.repeat(np.array(zs)[:, None], len(charts), axis=0)
    with mock.patch.object(netcore, "_BLOCK_CELLS", chunk_rows * atlas.chart_count):
        vals, ok = manifold._pullback(f, atlas, owner, Z)
    for t in range(len(Z)):
        one, one_ok = manifold._pullback(f, atlas, owner[t : t + 1], Z[t : t + 1])
        assert one[0] == vals[t] and one_ok[0] == ok[t]
    for i, col in zip(charts, vals.reshape(len(zs), len(charts)).T):
        assert np.array_equal(col, per_point_pullback(f, atlas, i)(np.array(zs)[:, None]))


def test_each_pullback_makes_one_inversion_call(circle, atlas, circle_sin):
    """A pullback inverts all its (chart, point) rows in one chart_invert
    call: one per pullback, so 1 in a circle alpha = 2 build (its 345 rows
    are one row block, whose three finite-difference point sets share one
    pullback) and 1 in a norm."""
    f = circle_sin[1]
    every = np.arange(atlas.chart_count)
    with mock.patch.object(manifold, "chart_invert", wraps=manifold.chart_invert) as spy:
        manifold._pullback(f, atlas, every, np.full((atlas.chart_count, 1), 0.5))
        assert spy.call_count == 1
        ap = build_manifold_approx(f, circle, N=4, atlas=atlas)
        assert spy.call_count == 1 + 1
        manifold_norm(lambda X: ap.eval(X) - f(X), atlas, 0, resolution=5)
        assert spy.call_count == 1 + 1 + 1


# the kits of the per-set property: each atlas of weight_atlases, its target,
# and a _BLOCK_CELLS that splits the build's coefficient rows into blocks
_PER_SET_KITS = {
    "circle-0.2": (lambda a: get_manifold_target("circle-sin", order=a)[1], 2**12),
    "circle-0.24": (lambda a: get_manifold_target("circle-sin", order=a)[1], 2**12),
    "sphere-0.2": (lambda a: get_manifold_target("sphere-harmonic", order=a)[1], 2**17),
    "torus-0.16": (lambda a: lambda X: 2.0 * X[:, 0] * X[:, 2], 2**17),
}


@pytest.mark.parametrize(
    "kit, alpha, N",
    [(kit, alpha, N) for kit in ("circle-0.2", "circle-0.24") for alpha in (2, 3) for N in (3, 4, 8, 16)]
    + [("sphere-0.2", 2, 4), ("sphere-0.2", 3, 4), ("torus-0.16", 2, 4)],
)
def test_chart_coefficients_equal_one_pullback_per_point_set(weight_atlases, kit, alpha, N):
    """The table of one pullback per row block, in blocks of a few rows,
    has the bytes of the recursive central differences with one pullback
    per point set over the rows of every chart."""
    at, make_target, cells = weight_atlases[kit][0], *_PER_SET_KITS[kit]
    target, fd_step = make_target(alpha), 1e-4 * at.r
    table = chart_coefficients_per_set(target, at, N, alpha, fd_step)
    with mock.patch.object(netcore, "_BLOCK_CELLS", cells), \
            mock.patch.object(manifold, "_pullback", wraps=manifold._pullback) as spy:
        coeffs = manifold.chart_coefficients(target, at, N, alpha, fd_step)
    assert spy.call_count > 1
    assert coeffs.table.tobytes() == table.tobytes()
    assert np.any(table != 0.0)


@pytest.mark.parametrize("alpha, N", [(2, 3), (2, 8), (3, 8)])
def test_circle_build_matches_per_chart_per_point_coefficients(atlas, alpha, N):
    """The one-call coefficients of all charts, at the build's step 1e-4 r,
    have the bits of the loop that pulled the target back chart by chart and
    point by point; at alpha = 3 the second differences run on the stacked
    rows too."""
    target = get_manifold_target("circle-sin", order=alpha)[1]
    coeffs = manifold.chart_coefficients(target, atlas, N, alpha, 1e-4 * atlas.r)
    tables = chart_coefficients_oracle(target, atlas, N, alpha, 1e-4 * atlas.r)
    assert np.array_equal(coeffs.table, np.concatenate(tables))
    assert any(np.any(t != 0.0) for t in tables)


def _per_point_norm(e_on_M, atlas, k, resolution, fd_step=1e-5):
    """Reference manifold_norm: every grid point and stencil point on its own."""
    d = atlas.manifold.intrinsic_dim
    axis = (np.arange(resolution) + 0.5) / resolution + math.sqrt(2.0) * 1e-7
    Zg = np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    total, skipped = 0.0, 0
    for i in range(atlas.chart_count):

        def F(z):
            x, ok = chart_invert(atlas, [i], z[None])
            if not ok[0]:
                return None
            w = all_chart_weights(atlas, x)[0, i]
            return 0.0 if w == 0.0 else float(e_on_M(x)[0]) * w

        best = 0.0
        for z in Zg:
            val = F(z)
            if val is None:
                skipped += 1
                continue
            best = max(best, abs(val))
            for j in range(d if k == 1 else 0):
                hi, lo = z.copy(), z.copy()
                hi[j] += fd_step
                lo[j] -= fd_step
                vh, vl = F(hi), F(lo)
                if vh is None or vl is None:
                    skipped += 1
                    continue
                best = max(best, abs(vh - vl) / (2.0 * fd_step))
        total += best
    return total, skipped


@pytest.mark.parametrize(
    "kit, k, resolution", [("circle", 0, 210), ("circle", 1, 210), ("sphere", 1, 3)]
)
def test_manifold_norm_matches_per_point(atlas, sphere_atlas, kit, k, resolution):
    """At resolution 210 the first and last grid points of every circle chart
    lie outside the chart ball, so the norm skips them, and at k = 1 their
    stencils are neither skipped nor read; the sphere case covers the
    two-direction stencils (at resolution 3 only the middle grid point lies
    where rho_i > 0)."""
    at = atlas if kit == "circle" else sphere_atlas
    e = lambda X: X[:, 0] * X[:, 1] + X[:, 2]
    val, skipped = manifold_norm(e, at, k, resolution=resolution)
    assert val > 0.0
    assert (val, skipped) == _per_point_norm(e, at, k, resolution)
    assert skipped == (2 * at.chart_count if kit == "circle" else 0)


@pytest.mark.parametrize("k", [0, 1])
def test_manifold_norm_of_an_approximation_error_matches_per_point(
    atlas, circle_sin, circle_sin_approx, k
):
    """The norm of a circle-sin approximation's error, whose pullback rows
    are chunked across charts, equals the one-point reference bit for bit,
    since every point evaluates as it does alone."""
    ap, target = circle_sin_approx[4], circle_sin[1]
    e = lambda X: ap.eval(X) - target(X)
    val, skipped = manifold_norm(e, atlas, k, resolution=10)
    assert val > 0.0
    assert (val, skipped) == _per_point_norm(e, atlas, k, 10)


def test_manifold_norms_take_both_norms_from_one_pullback(
    atlas, circle_sin, circle_sin_approx, monkeypatch
):
    ap, target = circle_sin_approx[4], circle_sin[1]
    e = lambda X: ap.eval(X) - target(X)
    want = [manifold_norm(e, atlas, k, resolution=10) for k in (0, 1)]
    calls, pullback = [], manifold._pullback
    monkeypatch.setattr(manifold, "_pullback", lambda *a: calls.append(1) or pullback(*a))
    assert manifold_norms(e, atlas, resolution=10) == want
    assert len(calls) == 1


def test_eval_is_nan_at_a_nonfinite_point_without_warnings(circle, atlas, circle_sin):
    ap = build_manifold_approx(circle_sin[1], circle, N=4, atlas=atlas)
    P = circle.sample_points(3)
    want = ap.eval(P)
    for bad in (np.nan, np.inf):
        Q = P.copy()
        Q[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, alone = ap.eval(Q), ap.eval(Q[1:2])
        assert np.isnan(got[1]) and np.isnan(alone[0])
        assert np.array_equal(got[[0, 2]], want[[0, 2]])


def test_per_chart_eval_is_nan_at_a_nonfinite_point_without_warnings(circle, atlas, circle_sin_approx):
    """A row with a nan or inf coordinate is nan in every chart's
    contribution, as in the chart sum, and the finite rows keep the bits of
    the per-term oracle."""
    ap = circle_sin_approx[8]
    P = circle.sample_points(5)
    for bad in (np.nan, np.inf):
        Q = P.copy()
        Q[2, 1] = bad
        for i in range(atlas.chart_count):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ap.per_chart_eval(i, Q)
            assert np.isnan(got[2])
            assert np.array_equal(got[[0, 1, 3, 4]], per_chart_eval_oracle(ap, i, P[[0, 1, 3, 4]]))


def test_a_norms_chart_sums_fold_only_pairs_below_zero_above(
    atlas, circle_sin, circle_sin_approx, monkeypatch
):
    """The chart sums of a circle k = 0 norm fold no pair at or above the
    indicator's zero threshold, whose indicator is +0.0, and the norm keeps
    the bits of the one-point reference."""
    ap, target = circle_sin_approx[4], circle_sin[1]
    folded, pair_values = [], ap._pair_values
    monkeypatch.setattr(ap, "_pair_values", lambda *args: folded.append(args[3]) or pair_values(*args))
    e = lambda X: ap.eval(X) - target(X)
    val, skipped = manifold_norm(e, atlas, 0, resolution=10)
    d2 = np.concatenate(folded)
    assert d2.size and np.all(d2 < ap.zero_above)
    assert (val, skipped) == _per_point_norm(e, atlas, 0, 10)


# --- the torus kit and the sphere-harmonic target ---------------------------


def test_torus_tangents_span_the_embeddings_velocity():
    torus = torus_manifold()
    U = torus.param_samples(400)
    X = torus.embed(U)
    h = 1e-6
    for u, x in zip(U, X):
        T = torus.tangent_basis(x)
        assert T.shape == (4, 2)
        assert np.max(np.abs(T.T @ T - np.eye(2))) <= 1e-12
        for e in h * np.eye(2):
            velocity = (torus.embed(u + e)[0] - torus.embed(u - e)[0]) / (2 * h)
            assert np.linalg.norm(velocity - T @ (T.T @ velocity)) <= 1e-8


def test_torus_solver_domain_needs_both_circles(torus_atlas):
    """A row is in the solver's domain when each plane's offset is within
    that plane's circle radius (both 1/sqrt(2) here), whatever the other."""
    at = torus_atlas
    P = np.array([[0.5, 0.5], [0.8, 0.0], [0.0, 0.8]])  # tangent offsets
    C, V = at.centers[[0, 0, 0]], at.frames[[0, 0, 0]]
    _, ok = at.manifold.chart_solver(at.scale * P + at.shift, C, V, at.scale, at.shift)
    assert ok.tolist() == [True, False, False]


def test_torus_atlas_builds_its_charts():
    """The 2,048-chart torus atlas at r 0.16, whose build traces a peak of
    at most 32 MB: its covering check holds one row block of (sample,
    center) differences at a time (320 MB when it held them all)."""
    torus = torus_manifold()
    at, peak = _traced(lambda: build_atlas(torus, 0.16))
    assert peak <= 32 * 2**20
    assert at.chart_count == 2048
    centers, frames = at.centers, at.frames
    # every center lies on the torus and every frame spans its tangent plane
    assert np.max(np.abs(np.hypot(centers[:, 0], centers[:, 1]) - 1 / math.sqrt(2))) <= 1e-12
    assert np.max(np.abs(np.hypot(centers[:, 2], centers[:, 3]) - 1 / math.sqrt(2))) <= 1e-12
    T = np.array([torus.tangent_basis(c) for c in centers])
    assert np.max(np.abs(frames @ (frames.transpose(0, 2, 1) @ T) - T)) <= 1e-12
    # frame column k lies in plane k, as the torus's solver needs
    assert not frames[:, 2:, 0].any() and not frames[:, :2, 1].any()
    # one inversion recovers every center
    every = np.arange(at.chart_count)
    X, ok = chart_invert(at, every, at.project(every, centers))
    assert ok.all() and np.max(np.abs(X - centers)) <= 1e-12


def test_sphere_harmonic_is_bounded_by_one_on_the_sphere():
    sphere, target = get_manifold_target("sphere-harmonic")
    assert sphere.name == "sphere"
    values = target(sphere.sample_points(5000))
    assert np.all(np.abs(values) <= 1.0)
    # its maximum 1 is reached at (1, 1, 1) / sqrt(3)
    assert np.max(np.abs(values)) >= 0.99
    assert target(np.ones((1, 3)) / math.sqrt(3.0))[0] == pytest.approx(1.0, abs=1e-12)
