import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from build_oracle import (
    assert_same_bits,
    assert_same_layers,
    direct_model,
    direct_nets,
    direct_term_cnns,
)
from fold_oracle import eval_oracle, max_intermediate_oracle, unkeyed_fold_rows
from forward_oracle import fd_consistency
from hypothesis import given, settings, strategies as st

from sobolev_forge import netcore, scalarnets, taylor
from sobolev_forge.metrics import EvalGrid, grid_norm, lipschitz_estimate, sample_pairs
from sobolev_forge.netcore import audit_class
from sobolev_forge.scalarnets import monomial_bump_template
from sobolev_forge.targets import get_target
from sobolev_forge.taylor import (
    ConfigError,
    TargetFunction,
    _bump_terms,
    build_euclidean,
    bump_weight,
    grid_resolution,
    surrogate_eval,
    taylor_coeffs,
    term_cnns,
)


def _const_target(value, dim=2, order=3):
    zeros = lambda X: np.zeros(len(np.atleast_2d(X)))
    derivs = {}
    from sobolev_forge.taylor import multi_indices

    for a in multi_indices(dim, order - 1):
        if sum(a) > 0:
            derivs[a] = zeros
    return TargetFunction(dim, order, lambda X: np.full(len(np.atleast_2d(X)), value), derivs)


def test_partition_of_unity(rng):
    for D in (1, 2, 3):
        X = rng.uniform(0, 1, (10000, D))
        for N in (1, 2, 4, 8):
            total = np.zeros(len(X))
            for m in np.ndindex(*([N + 1] * D)):
                total += bump_weight(m, N, X)
            assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_bump_center_and_edge():
    assert bump_weight((1, 1), 2, np.array([0.5, 0.5])) == 1.0
    # |x1 - m1/N| = 1/N puts the point outside the support
    assert bump_weight((1, 1), 2, np.array([0.0, 0.5])) == 0.0
    v = bump_weight((0, 0), 4, np.array([0.01, 0.02]))
    assert 0.0 < v <= 1.0


def test_taylor_exact_on_polynomials(rng):
    f = TargetFunction(
        2,
        3,
        lambda X: X[:, 0] ** 2,
        {
            (1, 0): lambda X: 2 * X[:, 0],
            (0, 1): lambda X: np.zeros(len(X)),
            (2, 0): lambda X: np.full(len(X), 2.0),
            (1, 1): lambda X: np.zeros(len(X)),
            (0, 2): lambda X: np.zeros(len(X)),
        },
    )
    co = taylor_coeffs(f, 3)
    X = rng.uniform(0, 1, (300, 2))
    assert np.max(np.abs(surrogate_eval(co, X) - X[:, 0] ** 2)) <= 1e-10


def test_taylor_constant_coefficients():
    f = _const_target(1.0)
    co = taylor_coeffs(f, 2)
    zero_idx = co.v_list.index((0, 0))
    assert np.allclose(co.table[:, zero_idx], 1.0)
    others = [j for j in range(len(co.v_list)) if j != zero_idx]
    assert np.all(co.table[:, others] == 0.0)


def test_sin_taylor_error_constant_stable():
    t = get_target("sin2", alpha=2, dim=2)
    grid = EvalGrid(2, 41)
    consts = []
    for N in (4, 8, 16):
        co = taylor_coeffs(t, N)
        err = grid_norm(lambda X: surrogate_eval(co, X) - t(X), 0, math.inf, grid)
        consts.append(err * N**2)
    assert max(consts) / min(consts) < 4.0


def test_coefficient_bound(sinprod2):
    co = taylor_coeffs(sinprod2, 8)
    # p = inf: |c| <= C1 * norm_bound with a moderate measured constant
    assert co.max_abs <= 10.0 * sinprod2.norm_bound


def test_surrogate_outside_all_supports():
    f = _const_target(1.0)
    co = taylor_coeffs(f, 2)
    co.table[:] = 0.0
    co.table[0, :] = 1.0  # only the bump at the origin corner is active
    val = surrogate_eval(co, np.array([[0.9, 0.9]]))
    assert val[0] == 0.0


def test_build_zero_target():
    f = _const_target(0.0)
    ap = build_euclidean(f, s=0, p=math.inf, N=2, compile_model=True, check_points=20)
    X = np.random.default_rng(0).uniform(0, 1, (50, 2))
    assert np.all(ap.eval(X) == 0.0)
    assert np.all(ap.coeffs.table == 0.0)
    assert np.all(ap.model_eval(X) == 0.0)


def test_build_requires_resolution():
    f = _const_target(1.0)
    with pytest.raises(ValueError):
        build_euclidean(f, s=0, p=math.inf)
    with pytest.raises(ValueError):
        build_euclidean(f, s=0, p=math.inf, Mt=1, Jt=2)  # Mt * Jt < 2^D


def test_build_resolution_from_mt_jt(sinprod2):
    ap = build_euclidean(sinprod2, s=0, p=math.inf, Mt=5, Jt=5, compile_model=False)
    assert ap.N == 5  # floor(sqrt(25))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_resolution_is_the_exact_integer_root(d):
    for budget in range(2**d, 5000):
        N = grid_resolution(None, budget, 1, d)
        assert N**d <= budget < (N + 1) ** d, (budget, N)
    assert grid_resolution(None, 8, 8, 3) == 4  # the float root of 64 is 3.9999999999999996


def test_polynomial_target_pure_network_error(polyxy3, rng):
    """Surrogate is exact for x1 x2 at alpha = 3, so the whole error is the
    network error and stays within a small multiple of eta."""
    ap = build_euclidean(polyxy3, s=0, p=math.inf, N=4, compile_model=False)
    X = rng.uniform(0, 1, (2000, 2))
    surro_err = np.max(np.abs(ap.surrogate(X) - polyxy3(X)))
    assert surro_err <= 1e-10
    total = np.max(np.abs(ap.eval(X) - polyxy3(X)))
    assert total <= 10.0 * ap.eta


def test_network_vs_surrogate_gap_scaling(sinprod2):
    """W0 gap between functional approximator and surrogate is <= c*eta and
    the W1 gap <= c*N*eta with c stable across N."""
    grid = EvalGrid(2, 31)
    c0s, c1s = [], []
    for N in (2, 4, 8):
        ap = build_euclidean(sinprod2, s=0, p=math.inf, N=N, compile_model=False)
        gap = lambda X: ap.eval(X) - ap.surrogate(X)
        c0s.append(grid_norm(gap, 0, math.inf, grid) / ap.eta)
        c1s.append(grid_norm(gap, 1, math.inf, grid) / (N * ap.eta))
    # stability of the constant means it stays bounded across N (at coarse N
    # the gap can degenerate to 0 when all coefficients vanish on sine zeros)
    assert max(c0s) <= 20.0
    assert max(c1s) <= 20.0


def test_compile_equality_random_points(sinprod2, rng):
    ap = build_euclidean(sinprod2, s=0, p=math.inf, N=3, compile_model=True, check_points=100)
    X = rng.uniform(0, 1, (100, 2))
    gap = np.max(np.abs(ap.eval(X) - ap.model_eval(X)))
    assert gap <= 1e-9
    assert ap.record["compile_gap"] <= 1e-9


def test_a_compiled_build_constructs_its_model_once(sinprod2, monkeypatch):
    """compile_terms assembles the model with its support, so the model's
    pool is computed once per build."""
    made = []
    pool = netcore._pool
    monkeypatch.setattr(netcore, "_pool", lambda net: made.append(net) or pool(net))
    ap = build_euclidean(sinprod2, s=0, p=math.inf, N=4, check_points=4)
    assert len(made) == 1 and made[0] is ap.model and ap.model.support is not None


def test_non_finite_coordinates_evaluate_to_nan(sinprod2, rng):
    ap = build_euclidean(sinprod2, s=0, p=math.inf, N=4, compile_model=True, check_points=10)
    X = rng.uniform(0, 1, (6, 2))
    finite_eval, finite_surrogate = ap.eval(X), ap.surrogate(X)
    X[1, 0], X[4, 1] = np.nan, np.nan
    bad = np.array([False, True, False, False, True, False])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = ap.model_eval(X)
        for evaluate, finite in ((ap.eval, finite_eval), (ap.surrogate, finite_surrogate)):
            got = evaluate(X)
            assert np.array_equal(np.isnan(got), bad)
            assert np.array_equal(np.isnan(model), bad)
            assert np.array_equal(got[~bad], finite[~bad])  # finite rows keep their bits
            assert np.isnan(evaluate([[np.nan, 0.5]])[0])
            assert np.all(np.isnan(evaluate([[np.inf, 0.5], [0.5, -np.inf]])))
        assert math.isnan(ap([0.3, np.nan]))


def test_lipschitz_bound_invariant(sinprod2, rng):
    """Lipschitz estimate of the approximator stays within the target's
    Lipschitz scale plus the derivative-error allowance."""
    N = 8
    ap = build_euclidean(sinprod2, s=0, p=math.inf, N=N, compile_model=False)
    pairs = sample_pairs(rng, 2, 20000)
    probes = rng.uniform(0.02, 0.98, (2000, 2))
    lip_f = lipschitz_estimate(sinprod2, pairs=pairs, probes=probes, fd_step=1e-4)
    lip_ap = lipschitz_estimate(ap.eval, pairs=pairs, probes=probes)
    slack = math.sqrt(2.0) * 2.0 * N ** (-1.0)
    assert lip_ap <= lip_f + slack + 0.1


def test_pairwise_interpolation_inequality(sinprod2, rng):
    """|f(x)-f(y)| / ||x-y||^s <= (2 sup|f|)^(1-s) * (max pairwise slope)^s
    holds for every sampled pair."""
    ap = build_euclidean(sinprod2, s=0, p=math.inf, N=4, compile_model=False)
    X, Y = sample_pairs(rng, 2, 5000)
    fx, fy = ap.eval(X), ap.eval(Y)
    dist = np.linalg.norm(X - Y, axis=1)
    sup = np.max(np.abs(np.concatenate([fx, fy])))
    lip = np.max(np.abs(fx - fy) / dist)
    s = 0.5
    lhs = np.abs(fx - fy) / dist**s
    rhs = (2 * sup) ** (1 - s) * lip**s
    assert np.all(lhs <= rhs + 1e-12)


def test_target_fd_consistency(sinprod2, rng):
    assert fd_consistency(sinprod2, rng) <= 1e-4


def test_intermediate_magnitudes_within_box(sinprod2, rng):
    ap = build_euclidean(sinprod2, s=0, p=math.inf, N=4, compile_model=False)
    audit = ap.audit_intermediate_magnitudes(rng.uniform(0, 1, (200, 2)))
    assert audit["ok"]
    assert audit["max_intermediate"] <= audit["box"]


@functools.cache
def _approx(name, dim, alpha, N):
    target = get_target(name, alpha=alpha, dim=dim)
    return build_euclidean(target, s=0, p=math.inf, N=N, compile_model=False)


@st.composite
def _fold_cases(draw):
    dim, alpha, N = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(2, 9))
    coord = st.one_of(
        st.floats(0.0, 1.0),
        st.integers(0, N).map(lambda k: k / N),  # node-aligned
        st.sampled_from([0.0, 1.0]),  # faces of the cube
    )
    points = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=2, max_size=40))
    return _approx("sinprod", dim, alpha, N), np.array(points)


@settings(max_examples=80, deadline=None)
@given(_fold_cases())
def test_stacked_fold_matches_per_term_oracle(case):
    ap, X = case
    batch = ap.eval(X)
    assert np.array_equal(batch, eval_oracle(ap, X))
    # a point alone is folded as a padded pair: its value inside the batch
    assert all(ap.eval(x[None])[0] == y for x, y in zip(X, batch))


def test_stacked_fold_chunks_and_lone_rows(rng):
    ap = _approx("sinprod", 3, 3, 4)
    X = rng.uniform(0.0, 1.0, (3000, 3))  # > 4096 rows in a fold group
    assert np.array_equal(ap.eval(X), eval_oracle(ap, X))
    # the node-aligned point leaves one row of fold length 3, the point past
    # the cube none: a lone row, padded to a pair, inside a two-point batch
    ap = _approx("sinprod", 1, 3, 4)
    X = np.array([[0.25], [2.0]])
    assert np.array_equal(ap.eval(X), eval_oracle(ap, X))


@st.composite
def _fold_stacks(draw):
    """(A, nets): fold operands with planted repeats, trapezoid plateau rows
    (1.0), signed zeros, rows one ulp apart and lone rows, some stacks
    longer than _FOLD_ROWS."""
    steps = draw(st.integers(1, 4))
    approxes = st.sampled_from([_approx("sinprod", 2, 2, 4), _approx("sinprod", 3, 3, 8)])
    nets = [draw(approxes).times_net for _ in range(steps)]
    value = st.one_of(st.floats(-6.0, 6.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]))
    pool = np.array(draw(st.lists(st.lists(value, min_size=steps + 1, max_size=steps + 1),
                                  min_size=1, max_size=12)))
    if draw(st.booleans()):  # each row with a twin one ulp up in one column
        twin, col = pool.copy(), draw(st.integers(0, steps))
        twin[:, col] = np.nextafter(twin[:, col], np.inf)
        pool = np.concatenate([pool, twin])
    long = st.integers(taylor._FOLD_ROWS - 2, taylor._FOLD_ROWS + 700)
    n = draw(st.one_of(st.integers(1, 400), long))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = pool[rng.integers(0, len(pool), n)]
    lone = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    A[lone] = rng.uniform(-6.0, 6.0, (np.count_nonzero(lone), steps + 1))
    return A, nets


@settings(max_examples=60, deadline=None)
@given(_fold_stacks())
def test_keyed_fold_equals_the_unkeyed_fold_bit_for_bit(case):
    A, nets = case
    keyed, unkeyed = [0.0], [0.0]
    got = taylor._fold_rows(A, nets, keyed)
    want = unkeyed_fold_rows(A, nets, unkeyed)
    assert got.tobytes() == want.tobytes()  # keeps +0.0 and -0.0 apart
    assert keyed == unkeyed


def test_a_grid_runs_fewer_product_net_rows_than_fold_operand_rows(monkeypatch):
    # grid points share coordinates, the candidate offsets share their first
    # factor and plateau factors read exactly 1.0: most operand rows repeat
    ap = _approx("sinprod", 2, 2, 8)
    operand, run = [], []
    fold, forward = taylor._fold_rows, scalarnets.ScalarNet.forward
    monkeypatch.setattr(taylor, "_fold_rows",
                        lambda A, nets, t: operand.append(len(A) * len(nets)) or fold(A, nets, t))
    monkeypatch.setattr(scalarnets.ScalarNet, "forward",
                        lambda net, X: run.append(len(X)) or forward(net, X))
    ap.eval(EvalGrid(2, 21).points)
    assert 0 < sum(run) < sum(operand) / 2


@pytest.mark.parametrize("name, dim, alpha", [("sinprod", 1, 3), ("sinprod", 2, 2),
                                              ("sinprod", 3, 3), ("poly-xy", 2, 3)])
def test_single_point_differs_from_one_row_products_by_rounding(rng, name, dim, alpha):
    """The per-term loop ran one point through one-row products, which round
    differently from the padded pair the stacked fold uses."""
    for N in (2, 4, 7):
        ap = _approx(name, dim, alpha, N)
        X = rng.uniform(0.0, 1.0, (40, dim))
        single = np.array([ap.eval(x[None])[0] for x in X])
        one_row = np.array([eval_oracle(ap, x[None])[0] for x in X])
        assert np.max(np.abs(single - one_row)) <= 512 * np.finfo(float).eps * ap.coeffs.max_abs


@pytest.mark.parametrize("dim, alpha, N", [(1, 3, 3), (2, 2, 4), (2, 3, 5), (3, 3, 2)])
def test_audit_max_intermediate_matches_oracle(rng, dim, alpha, N):
    """Every row is folded for the audit, also rows whose later trapezoid
    factor is 0; points past the cube push products above 1."""
    ap = _approx("sinprod", dim, alpha, N)
    X = rng.uniform(-0.4, 1.4, (60, dim))
    audit = ap.audit_intermediate_magnitudes(X)
    assert audit["max_intermediate"] == max_intermediate_oracle(ap, X)
    assert audit["max_intermediate"] > 1.0


# --- template-stamped build vs the per-term oracle ---------------------------

# (D, alpha, N): every D and alpha with N up to 8, D = 3 only up to N = 3
# (at N = 8 and alpha = 3 a D = 3 build has 7290 terms)
_TEMPLATE_CASES = [(D, a, N) for D in (1, 2) for a in (2, 3) for N in range(2, 9)] + [
    (3, a, N) for a in (2, 3) for N in range(2, 4)
]


@pytest.mark.parametrize("D", [1, 2, 3])
def test_jt_below_one_terms_width_is_a_config_error(D):
    """The width check before the build agrees with the width parallel_sum
    measures: Jt equal to it builds, one less is rejected."""
    target = get_target("sinprod", alpha=2, dim=D)
    width = build_euclidean(target, s=0, p=math.inf, N=2, check_points=4).record["Jt"]
    assert build_euclidean(target, s=0, p=math.inf, N=2, Jt=width, check_points=4).record["Jt"] == width
    with pytest.raises(ConfigError, match=f"below the width {width} "):
        build_euclidean(target, s=0, p=math.inf, N=2, Jt=width - 1, check_points=4)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(_TEMPLATE_CASES), st.sampled_from([None, 40, 64]))
def test_stamped_build_equals_the_per_term_oracle(case, Jt):
    """Stamped nets, their CNNs and the assembled model equal the direct
    per-term build bit for bit, with and without Jt grouping."""
    D, alpha, N = case
    target = get_target("sinprod", alpha=alpha, dim=D)
    ap = build_euclidean(target, s=0, p=math.inf, N=N, Jt=Jt, check_points=4)
    nets = direct_nets(ap.coeffs, ap.eta, ap.record["box"])
    templates = [monomial_bump_template(v, N, ap.times_net) for v in ap.coeffs.v_list]
    terms = list(_bump_terms(ap.coeffs, templates))
    for (net, first, m, c), (m_direct, _, direct, c_direct) in zip(terms, nets, strict=True):
        assert m == m_direct and c == c_direct
        assert_same_layers([first] + net.layers[1:], direct.layers)

    want = direct_term_cnns(nets)
    for got, cnn in zip(term_cnns(terms), want, strict=True):
        assert_same_layers(got.conv_stack, cnn.conv_stack)
        assert_same_bits(got.fc_weight, cnn.fc_weight)
        assert got.fc_bias == cnn.fc_bias

    model = direct_model(want, ap.record["Jt"])
    assert len(ap.model.blocks) == len(model.blocks)
    for got, blk in zip(ap.model.blocks, model.blocks):
        assert_same_layers(list(zip(got.filters, got.biases)), list(zip(blk.filters, blk.biases)))
    assert_same_bits(ap.model.fc_weight, model.fc_weight)
    assert ap.model.fc_bias == model.fc_bias
    assert ap.class_params == audit_class(model)


@pytest.mark.parametrize("D, alpha", [(1, 2), (2, 3)])
def test_a_compiled_build_makes_one_product_net(D, alpha):
    """build_euclidean makes its product net once and hands it to every
    template; no template or term net builds one of its own, and each
    template builds its net once, at node 0."""
    target = get_target("sinprod", alpha=alpha, dim=D)
    spies = [
        mock.patch.object(module, name, wraps=getattr(module, name))
        for module, name in [
            (taylor, "build_product2"),
            (scalarnets, "build_product2"),
            (taylor, "monomial_bump_template"),
            (scalarnets, "build_monomial_bump"),
        ]
    ]
    with spies[0] as build, spies[1] as own, spies[2] as template, spies[3] as bump:
        ap = build_euclidean(target, s=0, p=math.inf, N=2, check_points=4)
    assert build.call_count == 1 and own.call_count == 0
    assert template.call_count == len(ap.coeffs.v_list)
    assert all(call.args[2] is ap.times_net for call in template.call_args_list)
    assert [call.args[:2] for call in bump.call_args_list] == [((0,) * D, v) for v in ap.coeffs.v_list]
