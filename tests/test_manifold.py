import dataclasses
import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from boundary_oracle import chart_boundary_oracle
from build_oracle import (
    assert_same_bits,
    assert_same_layers,
    direct_manifold_nets,
    direct_model,
    direct_term_cnns,
)
from coeff_oracle import (
    all_chart_weights,
    band_kill,
    chart_coefficients_oracle,
    chart_coefficients_per_set,
    per_point_pullback,
)
from fold_oracle import chart_sum_oracle, per_chart_eval_oracle
from hypothesis import example, given, settings, strategies as st

from sobolev_forge import manifold, taylor
from sobolev_forge.manifold import (
    ChartError,
    IndicatorParams,
    build_atlas,
    build_indicator,
    build_manifold_approx,
    build_sqdist_net,
    chart_invert,
    circle_manifold,
    manifold_norm,
    manifold_norms,
    rho_weights,
    sphere_manifold,
    torus_manifold,
)
from sobolev_forge.netcore import audit_class
from sobolev_forge.scalarnets import ScalarNet
from sobolev_forge.targets import get_manifold_target
from sobolev_forge.taylor import CompileEqualityError, ConfigError, grid_nodes


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


@pytest.fixture(scope="module")
def weight_atlases(atlas):
    """Each atlas of the weight property, with its outer boundary images
    (``chart_boundary_data``) as the rims of its chart balls."""
    out = {}
    for name, at in [
        ("circle-0.2", atlas),
        ("circle-0.24", build_atlas(circle_manifold(3), 0.24)),
        ("sphere-0.2", build_atlas(sphere_manifold(), 0.2)),
        ("torus-0.16", build_atlas(torus_manifold(), 0.16)),
    ]:
        out[name] = at, manifold.chart_boundary_data(at, at.r**2 / 16.0)[0]
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
    about 1.4 r apart, a point 0.7 r from a center lies in no inner ball."""
    def at_distance(dist):  # the circle point at chord distance dist from center 0
        return circle.embed(np.array([[2.0 * math.asin(dist / 2.0)]]))

    assert rho_weights(atlas, [0], at_distance(atlas.r * (1 + 0.9e-6)))[0] == 0.0
    centers = atlas.centers[::3]
    gappy = dataclasses.replace(atlas, centers=centers, frames=atlas.frames[::3],
                                neighbours=manifold._chart_neighbours(centers, atlas.r))
    with pytest.raises(ChartError, match="point not covered by any inner ball"):
        rho_weights(gappy, [0], at_distance(0.7 * atlas.r))


def test_chart_neighbours_are_the_charts_within_1_5_r(weight_atlases):
    """Each chart's row of the neighbour table lists, in ascending order,
    the charts whose centers lie within 1.5 r (1 + 1e-6) (the margin takes
    in no other chart), padded with the chart itself, also when the
    distances are taken a few rows at a time."""
    at, _ = weight_atlases["sphere-0.2"]
    d = np.sqrt(manifold._sqdist(at.centers, at.centers))
    with mock.patch.object(manifold, "_PULLBACK_CELLS", 7 * at.chart_count):
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
    p = IndicatorParams(r=0.2, Delta=0.01, theta=0.01 / (16.0 * 3.0), B=1.0, D=3)
    net = build_indicator(p)
    assert net(0.0) == 1.0
    assert net(p.r**2) == 0.0
    mid = 0.5 * (p.one_threshold + p.A)
    assert abs(net(mid) - 0.5) <= 1e-10
    a = np.linspace(0, 0.08, 400)
    vals = net.forward(a[:, None])
    assert np.all(np.diff(vals) <= 1e-12)  # monotone nonincreasing
    assert net.depth <= p.w + 3 + 1


def test_indicator_params_guard():
    with pytest.raises(ValueError, match="8 B"):
        IndicatorParams(r=0.2, Delta=1e-4, theta=1e-3, B=1.0, D=3)


def test_indicator_band_slope(circle, atlas):
    p = IndicatorParams(r=0.2, Delta=0.005, theta=0.005 / (16.0 * 3.0), B=1.0, D=3)
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
    _, target = circle_sin
    with pytest.raises(ValueError, match="N"):
        build_manifold_approx(target, circle, N=1, atlas=atlas)


def test_chart_boundary_data_rejects_intrinsic_dimension_3(atlas):
    flat3 = dataclasses.replace(atlas, manifold=dataclasses.replace(atlas.manifold, intrinsic_dim=3))
    with pytest.raises(ChartError, match="intrinsic dimension 3"):
        manifold.chart_boundary_data(flat3, 0.01)


@pytest.mark.parametrize("N", [4, 32])
@pytest.mark.parametrize("kit", ["circle", "sphere", "torus", "uneven-torus"])
def test_chart_boundary_data_is_the_bisected_boundary(kit, N, atlases):
    """The atlas's closed-form boundary images and band width, found with no
    solver call, are within 1e-15 of every chart's, bisected along its rays
    through the kit's solver (``chart_boundary_oracle``), at the build's
    Delta = r^2/(4N)."""
    at = atlases[kit]
    Delta = at.r**2 / (4.0 * N)
    calls, solver = [], at.manifold.chart_solver
    counted = dataclasses.replace(at.manifold, chart_solver=lambda *args: calls.append(1) or solver(*args))
    z_outer, band = manifold.chart_boundary_data(dataclasses.replace(at, manifold=counted), Delta)
    assert calls == []
    z_ref, band_ref = chart_boundary_oracle(at, Delta)
    d = at.manifold.intrinsic_dim
    assert z_outer.shape == z_ref.shape[1:] == (2 if d == 1 else 32, d)
    assert np.max(np.abs(z_outer - z_ref)) <= 1e-15
    assert np.max(np.abs(band - band_ref)) <= 1e-15


@pytest.fixture(scope="module")
def build_kits(atlas, sphere_atlas, weight_atlases, circle_sin):
    """Each kit's atlas and a target on it.  The torus atlases take 4,096
    samples: on the 256-sample ones a build meets a point in no inner ball."""
    on_torus = lambda X: 2.0 * X[:, 0] * X[:, 2]
    return {
        "circle": (atlas, circle_sin[1]),
        "sphere": (sphere_atlas, get_manifold_target("sphere-harmonic", order=2)[1]),
        "torus": (weight_atlases["torus-0.16"][0], on_torus),
        "uneven-torus": (build_atlas(torus_manifold(0.6, 0.9), 0.14), on_torus),
    }


@pytest.mark.parametrize("N", [3, 4, 8])
@pytest.mark.parametrize("kit", ["circle", "sphere", "torus", "uneven-torus"])
def test_bisected_boundaries_kill_the_nodes_of_the_closed_form(kit, N, build_kits):
    """Tables killed chart by chart at each chart's own bisected boundary
    (``chart_boundary_oracle``) are the closed-form build's, byte for byte,
    and each chart zeroes as many nonzero rows.  From N = 4 on, the kill
    meets only rows the partition weight already zeroed; at N = 3 it zeroes
    nonzero rows."""
    at, target = build_kits[kit]
    ap = build_manifold_approx(target, at.manifold, N=N, atlas=at)
    d, alpha = at.manifold.intrinsic_dim, ap.record["alpha"]
    # the tables before the kill: no boundary image reaches a node
    raw, _ = manifold.chart_coefficients(target, at, N, alpha, 1e-4 * at.r, np.full((1, d), np.inf), 0.0)
    tables = list(raw.table.reshape(at.chart_count, (N + 1) ** d, -1))
    z_ref, band_ref = chart_boundary_oracle(at, ap.record["Delta"])
    nodes = grid_nodes(N, d) / N
    killed = [band_kill(table, nodes, N, z, b)[0] for table, z, b in zip(tables, z_ref, band_ref)]
    assert np.array_equal(ap.coeffs.table, np.concatenate(tables))
    assert [k["killed_nodes"] for k in ap.record["kill_info"]] == killed
    assert any(killed) == (N == 3)


@settings(max_examples=60, deadline=None)
@given(kit=st.sampled_from(["circle", "sphere", "torus"]),
       params=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, math.pi)),
       angle=st.floats(0.0, 2.0 * math.pi),
       r_frac=st.floats(0.01, 1.0), rho_frac=st.floats(0.0, 1.0, exclude_min=True),
       radii=st.tuples(st.floats(0.5, 1.0), st.floats(0.5, 1.0)))
def test_chord_offset_lifts_to_distance_rho(kit, params, angle, r_frac, rho_frac, radii):
    """On a random chart of radius r, the ray z = 1/2 + t u with t = scale *
    chord_offset(rho, u) lifts through the kit's solver to |x - c| = rho,
    rho in (0, r], within 1e-15; and t < 1/2, inside the chart's box."""
    m = {"circle": lambda: circle_manifold(3), "sphere": sphere_manifold,
         "torus": lambda: torus_manifold(*radii)}[kit]()
    d = m.intrinsic_dim
    c = m.embed(np.array([params[:d]]))
    V = np.linalg.qr(m.tangent_basis(c[0]))[0][None, :, :d]
    r = r_frac * 0.96 * m.reach / 4.0
    rho, scale = rho_frac * r, 1.0 / (2.0 * r)
    if d == 1:
        u = np.array([[math.copysign(1.0, angle - math.pi)]])
    else:
        u = np.array([[math.cos(angle), math.sin(angle)]])
    t = scale * m.chord_offset(rho, u)[0]
    X, ok = m.chart_solver(0.5 + t * u, c, V, scale, 0.5)
    assert ok[0]
    assert abs(np.linalg.norm(X[0] - c[0]) - rho) <= 1e-15
    assert t < 0.5


def _outer_boundary_distances(at, charts, z_outer):
    """Distances from their centers of the outer boundary images z_outer,
    inverted in each of charts."""
    owner = np.repeat(charts, len(z_outer))
    X, ok = chart_invert(at, owner, np.tile(z_outer, (len(charts), 1)))
    assert ok.all()
    return np.linalg.norm(X - at.centers[owner], axis=1)


@pytest.mark.parametrize("kit", ["circle", "sphere", "torus", "uneven-torus"])
def test_outer_boundary_images_invert_to_distance_r(kit, atlases):
    at = atlases[kit]
    z_outer, band = manifold.chart_boundary_data(at, at.r**2 / 16.0)
    distances = _outer_boundary_distances(at, np.arange(at.chart_count), z_outer)
    assert np.max(np.abs(distances - at.r)) <= 1e-12
    assert band > 0.0


def test_sphere_boundary_succeeds_at_the_poles():
    """The charts of the r = 0.2 sphere atlas centered within 0.1 rad of a
    pole, where parameter-space rays once found no boundary, have their
    boundary at distance r."""
    at = build_atlas(sphere_manifold(), 0.2)
    z_outer, band = manifold.chart_boundary_data(at, 0.2**2 / 16.0)
    poles = np.flatnonzero(np.abs(at.centers[:, 2]) >= math.cos(0.1))
    assert poles.size >= 5
    distances = _outer_boundary_distances(at, poles, z_outer)
    assert np.max(np.abs(distances - at.r)) <= 1e-12
    assert band > 0.0


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
    table and at check points where both are nonzero (at N=2 the boundary
    kill zeroes every coefficient, so the gap there compares zeros)."""
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
    assert ap.class_params.first_row_only
    assert ap.class_params.K <= mspec.ambient_dim


def test_a_compiled_manifold_model_holds_only_live_terms(circle_sin):
    """A term with c = 0 adds c * 0 = +-0, so the model holds one block per
    nonzero coefficient; at N=2 the boundary kill zeroes every coefficient,
    and the model has no block and is 0 everywhere."""
    mspec, target = circle_sin
    atlas = build_atlas(mspec, 0.2, sample_count=1024)
    pts = mspec.sample_points(200)
    for N, live in ((4, True), (2, False)):
        ap = build_manifold_approx(target, mspec, N=N, atlas=atlas, compile_model=True, check_points=25)
        nonzero = np.count_nonzero(ap.coeffs.table)
        assert (nonzero > 0) == live
        assert len(ap.model.blocks) == ap.record["terms"] == nonzero
    assert np.all(ap.model_eval(pts) == 0.0)


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
    per-term loop, with killed (zeroed) nodes in every other chart."""
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


# a _PULLBACK_CELLS that splits every row-block pass of a kit's run below
# into several blocks other than the default ones (29 rows on the circle's
# 69 charts, 98 on the sphere's 1,020 at r 0.2), and the run's N and norm
# resolution
_SMALL_BLOCKS = {"circle-sin": (2**11, 16, 10), "sphere-harmonic": (10**5, 4, 1)}


def _block_rule_run(name, at):
    """The bytes of each row-block pass of the kit at r 0.2: the atlas
    arrays and T_d, a build's table and kill_info, its error's
    manifold_norms and its eval at 300 points off the manifold."""
    m, target = get_manifold_target(name)
    _, N, resolution = _SMALL_BLOCKS[name]
    at = build_atlas(m, 0.2) if at is None else at
    ap = build_manifold_approx(target, m, N=N, atlas=at)
    norms = manifold_norms(lambda X: ap.eval(X) - target(X), at, resolution=resolution)
    X = m.sample_points(300) * np.linspace(0.9, 1.1, 300)[:, None]
    parts = [at.centers, at.frames, at.neighbours, ap.coeffs.table, ap.eval(X)]
    return [a.tobytes() for a in parts] + [repr((at.T_d, ap.record["kill_info"], norms))]


@pytest.fixture(scope="module")
def block_rule_runs(weight_atlases):
    """Each kit's run in the default blocks (on the module's atlas) and in
    its small ones (on an atlas built in them)."""
    runs = []
    for name, kit in (("circle-sin", "circle-0.2"), ("sphere-harmonic", "sphere-0.2")):
        with mock.patch.object(manifold, "_PULLBACK_CELLS", _SMALL_BLOCKS[name][0]):
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
    neighbour table, the weights, the kill gap, the chart sum) gives the
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
    with mock.patch.object(manifold, "_PULLBACK_CELLS", 3 * atlas.chart_count):
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
    """The approximator a build at resolution N makes on the atlas, with its
    chart tables left out: its indicators read no coefficient."""
    no_tables = lambda *args: (SimpleNamespace(max_abs=0.0), [])
    with mock.patch.object(manifold, "chart_coefficients", no_tables):
        return build_manifold_approx(lambda X: X[:, 0], at.manifold, N=N, atlas=at)


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


@pytest.mark.parametrize("r", [0.2, None])
def test_band_kill_zeroes_every_table_below_N_4(circle_sin, r):
    """On the circle atlas, at r = 0.2 and at the default r, the kill radius
    band_width + 1/N reaches each chart's center node at N = 2 and 3, the
    only node where rho_i does not vanish, so every table row is 0 and the
    approximant is identically 0; N = 4 leaves nonzero rows."""
    m, target = circle_sin
    for N in (2, 3, 4):
        table = build_manifold_approx(target, m, N=N, r=r).coeffs.table
        assert np.any(table != 0.0) == (N == 4)


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
    with mock.patch.object(manifold, "_PULLBACK_CELLS", chunk_rows * atlas.chart_count):
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
# and a _PULLBACK_CELLS that splits the build's coefficient rows into blocks
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
    """The table and kill_info of one pullback per row block, in blocks of
    a few rows, have the bytes of the recursive central differences with
    one pullback per point set over the rows of every chart."""
    at, make_target, cells = weight_atlases[kit][0], *_PER_SET_KITS[kit]
    target, fd_step = make_target(alpha), 1e-4 * at.r
    boundary = manifold.chart_boundary_data(at, at.r**2 / (4.0 * N))
    table, kill_info = chart_coefficients_per_set(target, at, N, alpha, fd_step, *boundary)
    with mock.patch.object(manifold, "_PULLBACK_CELLS", cells), \
            mock.patch.object(manifold, "_pullback", wraps=manifold._pullback) as spy:
        coeffs, info = manifold.chart_coefficients(target, at, N, alpha, fd_step, *boundary)
    assert spy.call_count > 1
    assert coeffs.table.tobytes() == table.tobytes()
    assert repr(info) == repr(kill_info)
    assert np.any(table != 0.0) or any(i["killed_nodes"] for i in kill_info)


@pytest.mark.parametrize("alpha, N", [(2, 3), (2, 8), (3, 8)])
def test_circle_build_matches_per_chart_per_point_coefficients(atlas, alpha, N):
    """The one-call coefficients of all charts have the bits of the loop that
    pulled the target back chart by chart and point by point; at alpha = 3
    the second differences run on the stacked rows too, and at N = 3 the
    boundary-band kill zeroes nodes of every chart."""
    m, target = get_manifold_target("circle-sin", order=alpha)
    ap = build_manifold_approx(target, m, N=N, atlas=atlas)
    rec = ap.record
    z_bound, band = manifold.chart_boundary_data(atlas, rec["Delta"])
    tables, kill_info = chart_coefficients_oracle(
        target, atlas, N, alpha, 1e-4 * atlas.r, z_bound, band
    )
    assert np.array_equal(ap.coeffs.table, np.concatenate(tables))
    assert rec["kill_info"] == kill_info
    assert any(np.any(t != 0.0) for t in tables) or any(i["killed_nodes"] for i in kill_info)


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
