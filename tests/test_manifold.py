import dataclasses
import math
import warnings

import numpy as np
import pytest
from fold_oracle import per_chart_eval_oracle
from hypothesis import given, settings, strategies as st

from sobolev_forge import manifold
from sobolev_forge.manifold import (
    ChartError,
    IndicatorParams,
    build_atlas,
    build_indicator,
    build_manifold_approx,
    build_sqdist_net,
    chart_invert,
    chart_invert_batch,
    chart_project,
    circle_manifold,
    manifold_norm,
    pullback_evaluator,
    rho_weights,
    sphere_manifold,
    torus_manifold,
)
from sobolev_forge.targets import get_manifold_target


@pytest.fixture(scope="module")
def circle():
    return circle_manifold(3)


@pytest.fixture(scope="module")
def atlas(circle):
    return build_atlas(circle, 0.2)


@pytest.fixture(scope="module")
def circle_sin():
    m, t = get_manifold_target("circle-sin")
    return m, t


def test_atlas_chart_count_and_coverage(circle, atlas):
    assert 32 <= atlas.chart_count <= 80
    pts = circle.sample_points(10000)
    centers = np.array([c.center for c in atlas.charts])
    d = np.linalg.norm(pts[:, None, :] - centers[None], axis=2).min(axis=1)
    assert np.max(d) < atlas.r_tilde


def test_atlas_radius_guard():
    sphere = sphere_manifold()
    with pytest.raises(ChartError, match="reach"):
        build_atlas(sphere, 0.3)  # reach 1 demands r < 0.25


def test_atlas_chart_count_bound(circle, atlas):
    bound = math.ceil(circle.surface_area / atlas.r_tilde**1 * max(atlas.T_d, 1.0))
    assert atlas.chart_count <= bound


def test_chart_images_inside_unit_box(circle, atlas):
    pts = circle.sample_points(4000)
    for ch in atlas.charts[::7]:
        near = pts[np.linalg.norm(pts - ch.center, axis=1) < ch.radius]
        Z = chart_project(ch, near)
        assert Z.min() >= 0.0 and Z.max() <= 1.0


def test_chart_project_center_and_contraction(atlas, rng):
    ch = atlas.charts[0]
    assert np.allclose(chart_project(ch, ch.center), 0.5)
    pts = atlas.samples[np.linalg.norm(atlas.samples - ch.center, axis=1) < ch.radius]
    Z = chart_project(ch, pts)
    i, j = 3, 11
    dz = np.linalg.norm(Z[i] - Z[j])
    dx = np.linalg.norm(pts[i] - pts[j])
    assert dz <= ch.scale * dx + 1e-12


def test_chart_project_outside_error(atlas):
    ch = atlas.charts[0]
    far = ch.center + 3 * ch.radius * np.array([0.0, 0.0, 1.0])
    with pytest.raises(ChartError, match="outside"):
        chart_project(ch, far)


def test_chart_project_circle_formula(circle, atlas):
    """Near the center the tangent coordinate is sin(dt)/(2r) + 1/2."""
    ch = atlas.charts[0]
    t0 = circle.param_of_point(ch.center)[0]
    for dt in (0.01, -0.02, 0.05):
        x = circle.embed(np.array([[t0 + dt]]))[0]
        z = chart_project(ch, x)[0]
        assert z == pytest.approx(0.5 + math.sin(dt) / (2 * atlas.r), abs=1e-12)


def test_chart_invert_roundtrip(circle, atlas):
    ch = atlas.charts[2]
    pts = circle.sample_points(4000)
    near = pts[np.linalg.norm(pts - ch.center, axis=1) < 0.95 * ch.radius][:500]
    for x in near:
        z = chart_project(ch, x)
        x2 = chart_invert(ch, circle, z)
        assert np.max(np.abs(chart_project(ch, x2) - z)) <= 1e-8


def test_chart_invert_center(circle, atlas):
    ch = atlas.charts[1]
    x = chart_invert(ch, circle, ch.shift)
    assert np.max(np.abs(x - ch.center)) <= 1e-10


def test_chart_invert_analytic_vs_newton(circle, atlas):
    import dataclasses

    generic = dataclasses.replace(circle, chart_solver=None)
    ch = atlas.charts[5]
    for z in (0.31, 0.5, 0.77):
        xa = chart_invert(ch, circle, np.array([z]))
        xn = chart_invert(ch, generic, np.array([z]))
        assert np.max(np.abs(xa - xn)) <= 1e-10


def test_rho_weights_sum_and_support(circle, atlas, rng):
    pts = circle.sample_points(10000)
    W = rho_weights(atlas, pts)
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(W >= 0.0)
    d = np.linalg.norm(pts[:, None, :] - np.array([c.center for c in atlas.charts])[None], axis=2)
    assert np.all(W[d >= atlas.r_tilde] == 0.0)


def test_rho_weights_center_dominance(atlas):
    ch = atlas.charts[0]
    w = rho_weights(atlas, ch.center[None])[0]
    assert w[0] == np.max(w) and w[0] > 0.9


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
    for i in (0, len(atlas.charts) // 2):
        ch = atlas.charts[i]
        d2 = np.sum((pts - ch.center) ** 2, axis=1)
        ind = ap.indicator_values(i, pts)
        assert np.all(ind[d2 <= ch.radius**2 - Delta] == 1.0)
        assert np.all(ind[d2 >= ch.radius**2] == 0.0)


def test_per_chart_vanishes_on_boundary_band(circle, atlas, const_one_approx):
    """The zeroed-coefficient band makes each per-chart net exactly zero on
    the indicator's transition region."""
    ap, _ = const_one_approx
    Delta = ap.record["Delta"]
    t_all = np.linspace(0, 2 * math.pi, 200000)
    pts = circle.embed(t_all[:, None])
    hits = 0
    for i in (0, 3, len(atlas.charts) // 2):
        ch = atlas.charts[i]
        d2 = np.sum((pts - ch.center) ** 2, axis=1)
        band = (d2 >= ch.radius**2 - Delta) & (d2 <= ch.radius**2)
        band_pts = pts[band][:1000]
        if len(band_pts) == 0:
            continue
        hits += len(band_pts)
        vals = ap.per_chart_eval(i, band_pts)
        assert np.all(vals == 0.0)
    assert hits >= 300


def test_pou_pullback_sum(circle, atlas, rng):
    pts = circle.sample_points(500)
    W = rho_weights(atlas, pts)
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
    with pytest.raises(ValueError, match="spacing|Delta"):
        build_manifold_approx(target, circle, N=4, atlas=atlas, parameters="paper")


def test_chart_boundary_data_rejects_intrinsic_dimension_3(atlas):
    flat3 = dataclasses.replace(atlas, manifold=dataclasses.replace(atlas.manifold, intrinsic_dim=3))
    with pytest.raises(ChartError, match="intrinsic dimension 3"):
        manifold.chart_boundary_data(flat3, 0, 0.01)


def test_manifold_compile_equality(circle, circle_sin):
    """Small compiled manifold model agrees with the functional path."""
    mspec, target = circle_sin
    atlas = build_atlas(mspec, 0.2, sample_count=1024)
    ap = build_manifold_approx(
        target, mspec, N=2, atlas=atlas, compile_model=True, check_points=25
    )
    assert ap.record["compile_gap"] <= 1e-8
    assert ap.class_params.first_row_only
    assert ap.class_params.K <= mspec.ambient_dim


def test_atlas_serialization_roundtrip(circle, atlas):
    import json

    from sobolev_forge.manifold import atlas_from_dict, atlas_to_dict

    doc = json.loads(json.dumps(atlas_to_dict(atlas)))
    back = atlas_from_dict(doc, circle)
    assert back.chart_count == atlas.chart_count
    assert back.r == atlas.r
    for a, b in zip(atlas.charts, back.charts):
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.frame, b.frame)
        assert a.scale == b.scale
    pts = circle.sample_points(200)
    assert np.array_equal(rho_weights(atlas, pts), rho_weights(back, pts))


def test_atlas_from_dict_guards(circle, atlas):
    from sobolev_forge.manifold import atlas_from_dict, atlas_to_dict

    doc = atlas_to_dict(atlas)
    doc["manifold"] = "sphere"
    with pytest.raises(ChartError, match="sphere"):
        atlas_from_dict(doc, circle)


@pytest.fixture(scope="module")
def sphere_atlas():
    return build_atlas(sphere_manifold(), 0.24, sample_count=2400)


@pytest.mark.parametrize("make, r, count", [(circle_manifold, 0.2, 4096), (sphere_manifold, 0.24, 1200)])
def test_atlas_centers_match_per_center_first_fit(make, r, count):
    m = make()
    centers = []
    for x in m.sample_points(count):
        if not centers or min(np.linalg.norm(x - c) for c in centers) > 0.45 * r:
            centers.append(x)
    assert np.array_equal(build_atlas(m, r, sample_count=count).centers, np.array(centers))


@pytest.mark.parametrize("kit, newton", [("circle", False), ("circle", True),
                                         ("sphere", False), ("sphere", True)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_chart_invert_batch_matches_one_point(kit, newton, atlas, sphere_atlas, data):
    """Row t of the batch is the one-point inversion of z_t, including the
    points with no preimage in the chart ball (z beyond [0, 1] mostly)."""
    at = atlas if kit == "circle" else sphere_atlas
    m = dataclasses.replace(at.manifold, chart_solver=None) if newton else at.manifold
    d = m.intrinsic_dim
    ch = at.charts[data.draw(st.integers(0, at.chart_count - 1))]
    coord = st.floats(-3.0, 4.0) | st.floats(0.0, 1.0)
    Z = np.array(data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=12)))
    X, ok = chart_invert_batch(ch, m, Z)
    for t, z in enumerate(Z):
        try:
            x = chart_invert(ch, m, z)
        except ChartError:
            assert not ok[t] and np.all(np.isnan(X[t]))
            continue
        assert ok[t]
        if newton:  # the batch projects in one multi-row product, which rounds by row count
            assert np.max(np.abs(X[t] - x)) <= 1e-12
        else:
            assert np.array_equal(X[t], x)


def test_newton_singular_jacobian_fails_only_its_row(circle, atlas):
    """Parametrized by u^2 around the first center (parameter 0), the circle's
    Newton Jacobian there is exactly 0; the center itself still inverts."""
    m = dataclasses.replace(circle, chart_solver=None, param_of_point=lambda x: np.zeros(1),
                            embed=lambda U: circle.embed(np.atleast_2d(U) ** 2))
    ch = atlas.charts[0]
    X, ok = chart_invert_batch(ch, m, np.array([ch.shift, [0.6]]))
    assert ok.tolist() == [True, False]
    assert np.array_equal(X[0], ch.center)


def test_newton_rejects_a_nan_coordinate_without_warnings(circle, atlas):
    m = dataclasses.replace(circle, chart_solver=None)
    ch = atlas.charts[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, ok = chart_invert_batch(ch, m, np.array([ch.shift, [np.nan]]))
    assert ok.tolist() == [True, False]
    assert np.isnan(X[1]).all()


def test_per_chart_eval_matches_per_term_oracle(circle, atlas, circle_sin):
    """The stacked fold with the indicator as its last step equals the
    per-term loop, with killed (zeroed) nodes in every other chart."""
    m, target = circle_sin
    ap = build_manifold_approx(target, m, N=8, atlas=atlas)
    rng = np.random.default_rng(4)
    for c in ap.per_chart[::2]:
        c.table = np.where(rng.random((len(c.table), 1)) < 0.3, 0.0, c.table)
    pts = circle.sample_points(600)
    for i in range(atlas.chart_count):
        vals = ap.per_chart_eval(i, pts)
        assert np.array_equal(vals, per_chart_eval_oracle(ap, i, pts))
        assert all(ap.per_chart_eval(i, pts[j : j + 1])[0] == vals[j] for j in range(0, 600, 50))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=30))
def test_rho_weights_rows_match_one_point(circle, atlas, params):
    X = circle.embed(np.array(params)[:, None])
    W = rho_weights(atlas, X)
    for x, row in zip(X, W):
        assert np.array_equal(rho_weights(atlas, x), row)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 68), st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=20))
def test_pullback_evaluator_batch_matches_one_point(atlas, circle_sin, i, zs):
    F = pullback_evaluator(circle_sin[1], atlas, i % atlas.chart_count)
    Z = np.array(zs)[:, None]
    assert np.array_equal(F(Z), [F(z[None])[0] for z in Z])


def _per_point_pullback(f_on_M, atlas, i):
    """Reference pullback: one inversion, one weight row and one target call
    per point."""
    chart = atlas.charts[i]

    def F(Z):
        out = np.zeros(len(Z))
        for t, z in enumerate(Z):
            try:
                x = chart_invert(chart, atlas.manifold, z)
            except ChartError:
                continue
            w = rho_weights(atlas, x)[i]
            if w != 0.0:
                out[t] = float(f_on_M(x[None])[0]) * w
        return out

    return F


def test_circle_build_matches_per_point_pullback(circle, atlas, circle_sin, monkeypatch):
    target = circle_sin[1]
    ap = build_manifold_approx(target, circle, N=8, atlas=atlas)
    monkeypatch.setattr(manifold, "pullback_evaluator", _per_point_pullback)
    ref = build_manifold_approx(target, circle, N=8, atlas=atlas)
    for a, b in zip(ap.per_chart, ref.per_chart):
        assert np.array_equal(a.table, b.table)
    assert ap.record["kill_info"] == ref.record["kill_info"]
    assert any(np.any(c.table != 0.0) for c in ap.per_chart)


def _per_point_norm(e_on_M, atlas, k, resolution, fd_step=1e-5):
    """Reference manifold_norm: every grid point and stencil point on its own."""
    d = atlas.manifold.intrinsic_dim
    axis = (np.arange(resolution) + 0.5) / resolution + math.sqrt(2.0) * 1e-7
    Zg = np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    total, skipped = 0.0, 0
    for i, chart in enumerate(atlas.charts):

        def F(z):
            try:
                x = chart_invert(chart, atlas.manifold, z)
            except ChartError:
                return None
            w = rho_weights(atlas, x)[i]
            return 0.0 if w == 0.0 else float(e_on_M(x[None])[0]) * w

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


@pytest.mark.parametrize("kit, k, resolution", [("circle", 0, 210), ("sphere", 1, 3)])
def test_manifold_norm_matches_per_point(atlas, sphere_atlas, kit, k, resolution):
    """At resolution 210 the first and last grid points of every circle chart
    lie outside the chart ball, so the norm skips them; the sphere case
    covers the two-direction stencils (at resolution 3 only the middle grid
    point lies where rho_i > 0)."""
    at = atlas if kit == "circle" else sphere_atlas
    e = lambda X: X[:, 0] * X[:, 1] + X[:, 2]
    val, skipped = manifold_norm(e, at, k, resolution=resolution)
    assert val > 0.0
    assert (val, skipped) == _per_point_norm(e, at, k, resolution)
    assert skipped == (2 * at.chart_count if kit == "circle" else 0)


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
