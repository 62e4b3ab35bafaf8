import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_forge import kernels, netcore
from sobolev_forge.algebra import assemble_resnet, mlp_to_cnn
from sobolev_forge.netcore import (
    ConvResNetModel,
    FilterTensor,
    MlpModel,
    ResidualBlockSpec,
    ShapeError,
    audit_class,
    block_forward,
    conv_forward,
    mlp_forward,
    resnet_forward,
    resnet_forward_batch,
    resnet_forward_dense,
    resnet_forward_reference,
)
from sobolev_forge.scalarnets import build_trapezoid, reference_psi_mlp
from sobolev_forge.targets import get_target
from sobolev_forge.taylor import CompileEqualityError, build_euclidean


def test_conv_hand_example():
    w = FilterTensor(np.array([[[1.0], [-1.0]]]))  # Cout=1, K=2, Cin=1
    Z = np.array([[3.0], [1.0], [2.0]])
    Y = conv_forward(w, Z)
    assert np.array_equal(Y, np.array([[2.0], [-1.0], [2.0]]))


def test_conv_zero_filter(rng):
    w = FilterTensor(np.zeros((3, 2, 2)))
    Z = rng.standard_normal((5, 2))
    assert np.all(conv_forward(w, Z) == 0.0)


def test_conv_identity_tap(rng):
    w = FilterTensor(np.array([[[1.0]]]))
    Z = rng.standard_normal((4, 1))
    assert np.array_equal(conv_forward(w, Z), Z)


def test_conv_shape_error():
    w = FilterTensor(np.ones((1, 2, 3)))
    with pytest.raises(ShapeError, match="3"):
        conv_forward(w, np.ones((4, 2)))


@settings(max_examples=25, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_conv_linearity(a, b):
    rng = np.random.default_rng(7)
    w = FilterTensor(rng.standard_normal((2, 2, 3)))
    Z1 = rng.standard_normal((4, 3))
    Z2 = rng.standard_normal((4, 3))
    lhs = conv_forward(w, a * Z1 + b * Z2)
    rhs = a * conv_forward(w, Z1) + b * conv_forward(w, Z2)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_block_zero_params_is_identity(rng):
    blk = ResidualBlockSpec([FilterTensor(np.zeros((2, 2, 2)))], [np.zeros((4, 2))])
    Z = rng.standard_normal((4, 2))
    assert np.array_equal(block_forward(blk, Z), Z)


def test_block_identity_filter_doubles_nonnegative(rng):
    blk = ResidualBlockSpec([FilterTensor(np.eye(2)[:, None, :])], [np.zeros((4, 2))])
    Z = np.abs(rng.standard_normal((4, 2)))
    assert np.allclose(block_forward(blk, Z), 2 * Z)


def test_block_large_negative_bias_passes_input(rng):
    blk = ResidualBlockSpec(
        [FilterTensor(np.eye(2)[:, None, :])], [np.full((4, 2), -10.0)]
    )
    Z = rng.uniform(0, 1, (4, 2))
    assert np.array_equal(block_forward(blk, Z), Z)


def test_resnet_zero_blocks_readout():
    fc = np.zeros((3, 2))
    fc[0, 0] = 1.0
    net = ConvResNetModel(3, 2, [], fc, 0.5)
    assert resnet_forward(net, np.array([0.3, -1.0, 2.0])) == pytest.approx(0.8)


def test_resnet_compiled_trapezoid_at_zero():
    cnn = mlp_to_cnn(build_trapezoid(0, 1).as_mlp(), 2)
    net = assemble_resnet([cnn])
    assert resnet_forward(net, np.array([0.0])) == pytest.approx(1.0, abs=1e-12)
    # functional cross-check on a grid
    xs = np.linspace(-3, 3, 101)[:, None]
    assert np.max(np.abs(resnet_forward_batch(net, xs) - build_trapezoid(0, 1).forward(xs))) < 1e-9


def test_resnet_piecewise_linear_along_line(rng):
    cnn = mlp_to_cnn(build_trapezoid(1, 2).as_mlp(), 2)
    net = assemble_resnet([cnn])
    x0, u = rng.uniform(0, 1), rng.uniform(0.5, 1.0)
    ts = np.linspace(-1, 1, 801)
    vals = resnet_forward_batch(net, (x0 + ts * u)[:, None])
    second = np.abs(np.diff(vals, 2))
    kinks = second > 1e-7
    assert np.all(second[~kinks] < 1e-9)
    assert kinks.sum() <= 8  # a trapezoid has four kinks


def test_mlp_psi_values():
    psi = reference_psi_mlp()
    assert mlp_forward(psi, np.array([1.5]))[0] == pytest.approx(0.5)
    assert mlp_forward(psi, np.array([3.0]))[0] == 0.0
    ident = MlpModel([np.eye(3)], [np.zeros(3)])
    x = np.array([0.2, -0.7, 1.5])
    assert np.array_equal(mlp_forward(ident, x), x)


def test_mlp_shape_errors():
    with pytest.raises(ShapeError):
        MlpModel([np.ones((2, 3)), np.ones((2, 4))], [np.zeros(2), np.zeros(2)])
    mlp = MlpModel([np.ones((2, 3))], [np.zeros(2)])
    with pytest.raises(ShapeError):
        mlp_forward(mlp, np.ones(4))


def test_audit_hand_built():
    w = np.array([[[1.0], [-1.0]], [[-1.0], [1.0]], [[1.0], [1.0]]])  # (3,2,1) all +-1
    blk = ResidualBlockSpec(
        [FilterTensor(w), FilterTensor(np.ones((1, 2, 3)))],
        [np.zeros((4, 3)), np.zeros((4, 1))],
    )
    fc = np.zeros((4, 1))
    fc[0, 0] = 0.5
    net = ConvResNetModel(4, 1, [blk], fc, 0.0, first_row_only=True)
    params = audit_class(net)
    assert (params.M, params.K, params.kappa1) == (1, 2, 1.0)
    assert params.L == 2 and params.J == 3
    assert params.kappa2 == 0.5 and params.first_row_only


def test_audit_zero_network():
    net = ConvResNetModel(2, 1, [], np.zeros((2, 1)), 0.0)
    params = audit_class(net)
    assert params.kappa1 == 0.0 and params.kappa2 == 0.0 and params.M == 0


def test_audit_monotone(rng):
    cnn = mlp_to_cnn(build_trapezoid(0, 2).as_mlp(), 2)
    one = assemble_resnet([cnn])
    two = assemble_resnet([cnn, cnn])
    assert audit_class(two).M > audit_class(one).M
    # zeroing a weight never increases kappa1
    import copy

    damped = copy.deepcopy(one)
    damped.blocks[0].filters[0].entries[0, 0, 0] = 0.0
    assert audit_class(damped).kappa1 <= audit_class(one).kappa1


# --- execution plan vs the sequential reference ----------------------------


@functools.lru_cache(maxsize=None)
def _built_model(D, alpha, N, Jt=None):
    target = get_target("sinprod", alpha=alpha, dim=D)
    return build_euclidean(target, s=0, p=math.inf, N=N, Jt=Jt, check_points=4).model


def _plan_matches_reference(net, X):
    assert net._plan is not None
    assert np.array_equal(resnet_forward_batch(net, X), resnet_forward_reference(net, X))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.sampled_from([2, 3]),
    st.integers(2, 4),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_plan_matches_reference_on_built_models(D, alpha, N, n, seed):
    net = _built_model(D, alpha, N)
    X = np.random.default_rng(seed).uniform(-0.25, 1.25, (n, D))
    _plan_matches_reference(net, X)


@pytest.mark.parametrize("D, alpha, N, Jt", [(2, 2, 3, 28), (1, 2, 4, 40), (1, 3, 3, 64)])
def test_plan_matches_reference_on_grouped_models(D, alpha, N, Jt, rng):
    net = _built_model(D, alpha, N, Jt)
    assert any(f.in_channels > 16 for blk in net.blocks for f in blk.filters)  # grouped
    for n in (1, 2, 7, 300):
        _plan_matches_reference(net, rng.uniform(0.0, 1.0, (n, D)))


@pytest.mark.parametrize("alpha, N, Jt", [(2, 3, 64), (3, 2, 32)])
def test_plan_on_wide_layers_agrees_to_rounding(alpha, N, Jt, rng):
    # With D >= 2 the plan multiplies all (block, point) rows at once, the
    # reference D rows at a time.  For inner dimensions of 32 and more some
    # BLAS builds round such products differently by row count, so grouped
    # models that wide agree to rounding only.
    net = _built_model(2, alpha, N, Jt)
    X = rng.uniform(0.0, 1.0, (200, 2))
    ref = resnet_forward_reference(net, X)
    assert np.max(np.abs(resnet_forward_batch(net, X) - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def test_plan_chunks_a_batch_larger_than_the_row_budget(rng):
    net = _built_model(2, 2, 2)
    assert net._plan.step * len(net.blocks) <= netcore._PLAN_ROW_BUDGET
    _plan_matches_reference(net, rng.uniform(0.0, 1.0, (2 * net._plan.step + 3, 2)))


def test_plan_is_lowered_once_and_calls_the_kernel_per_layer_at_most(monkeypatch, rng):
    net = _built_model(2, 2, 2)
    assert net._plan is net._plan
    calls = []
    conv = kernels.conv_layer
    monkeypatch.setattr(kernels, "conv_layer", lambda *a: calls.append(1) or conv(*a))
    resnet_forward(net, np.array([0.3, 0.6]))
    assert 0 < len(calls) <= max(blk.depth for blk in net.blocks)


# --- the support-sparse forward vs the dense one ------------------------------

# (D, alpha, N, Jt): every D and alpha with N up to 8 where a build takes a
# few seconds at most (D = 3 stops at N = 3: at N = 8 and alpha = 3 a model
# has 7290 blocks), plus Jt-grouped models whose blocks hold several nodes,
# some with layers 64 channels wide
_SPARSE_CASES = (
    [(1, a, N, None) for a in (2, 3) for N in range(2, 9)]
    + [(2, 2, N, None) for N in range(2, 9)]
    + [(2, 3, N, None) for N in (2, 3, 5, 8)]
    + [(3, 2, 2, None), (3, 2, 3, None), (3, 3, 2, None)]
    + [(2, 2, 3, 28), (2, 2, 4, 64), (2, 3, 3, 64), (1, 2, 4, 40), (1, 3, 3, 64), (3, 2, 2, 32)]
)


def _sparse_points(rng, D, N, n):
    """Random points in [-0.5, 1.5]^D, breakpoints k/(3N) of the trapezoids
    with their neighbouring doubles, and rows with a non-finite coordinate."""
    X = rng.uniform(-0.5, 1.5, (n, D))
    K = rng.integers(-3 * N // 2, 9 * N // 2 + 1, (n, D)) / (3.0 * N)
    bad = rng.uniform(0.0, 1.0, (3, D))
    bad[np.arange(3), rng.integers(0, D, 3)] = [np.nan, np.inf, -np.inf]
    return np.concatenate([X, K, np.nextafter(K, np.inf), np.nextafter(K, -np.inf), bad])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SPARSE_CASES), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_sparse_forward_equals_dense(case, n, seed):
    D, alpha, N, Jt = case
    net = _built_model(D, alpha, N, Jt)
    assert net.support is not None and net._plan.cover is not None
    X = _sparse_points(np.random.default_rng(seed), D, N, n)
    sparse, dense = resnet_forward_batch(net, X), resnet_forward_dense(net, X)
    assert np.array_equal(sparse, dense, equal_nan=True)
    assert np.isnan(sparse[-3:]).all()
    for x, y in zip(X[:3], sparse):  # a point alone gets its value inside a batch
        assert resnet_forward(net, x) == y


def test_nonfinite_rows_give_nan_without_warnings_and_keep_the_finite_bits(rng):
    net = _built_model(2, 2, 3)
    X = rng.uniform(0.0, 1.0, (7, 2))
    bad = X.copy()
    bad[[1, 3, 4, 6], [0, 1, 0, 1]] = [np.nan, np.inf, -np.inf, np.nan]
    finite = np.all(np.isfinite(bad), axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for forward in (resnet_forward_batch, resnet_forward_dense):
            got = forward(net, bad)
            assert np.isnan(got[~finite]).all()
            assert np.array_equal(got[finite], forward(net, X)[finite])


def test_sparse_forward_chunks_a_batch_larger_than_its_step(rng):
    net = _built_model(2, 2, 2)
    X = rng.uniform(-0.2, 1.2, (2 * net._plan.cover.step + 3, 2))
    assert np.array_equal(resnet_forward_batch(net, X), resnet_forward_dense(net, X))


def test_cover_keeps_every_nonzero_block_and_at_most_2_to_the_D_nodes(rng):
    N = 6
    net = _built_model(2, 2, N)
    X = _sparse_points(rng, 2, N, 40)[:-3]
    points, blocks = net._plan.cover.rows(X, len(net.blocks))
    live = np.zeros((len(X), len(net.blocks)), dtype=bool)
    live[points, blocks] = True
    Z = netcore.pad_input(X, net.padding_channels)
    for b, blk in enumerate(net.blocks):
        nonzero = np.any(netcore.block_stack(blk, Z)[:, 0, 1:] != 0.0, axis=1)
        assert not np.any(nonzero & ~live[:, b])
    assert live.sum(axis=1).max() <= 2**2 * 3  # 2^D nodes, n_v = 3 blocks each


def test_build_fails_when_the_cover_misses_a_block(monkeypatch):
    monkeypatch.setattr(netcore, "_COVER_REACH", 0.5)  # narrower than a bump's 2/3
    target = get_target("sinprod", alpha=2, dim=2)
    with pytest.raises(CompileEqualityError, match="support-sparse"):
        build_euclidean(target, s=0, p=math.inf, N=3, check_points=20)


def test_plan_matches_reference_on_distinct_two_tap_layers(rng):
    # D = 3 blocks that share their first layer and differ in a 2-tap middle
    # layer: the plan's tap-k > 0 step on rows packed by filter
    D, C, H = 3, 3, 4
    first = np.zeros((H, 1, C))
    first[:, 0, 0] = rng.standard_normal(H)
    b0 = np.tile(rng.standard_normal(H), (D, 1))
    middles = [rng.standard_normal((H, 2, H)) for _ in range(2)]
    blocks = []
    for middle in (middles[0], middles[1], middles[0]):
        last = np.zeros((C, 1, H))
        last[1:, 0] = rng.standard_normal((C - 1, H))
        blocks.append(ResidualBlockSpec(
            [FilterTensor(first), FilterTensor(middle), FilterTensor(last)],
            [b0, rng.standard_normal((D, H)), np.zeros((D, C))],
        ))
    fc = np.zeros((D, C))
    fc[0, 1:] = [1.0, -1.0]
    net = ConvResNetModel(D, C, blocks, fc, 0.25, first_row_only=True)
    assert net._plan.groups[0].prefix == 1
    for n in (1, 5, 70):
        _plan_matches_reference(net, rng.uniform(0.0, 1.0, (n, D)))


def _trapezoid_net():
    return assemble_resnet([mlp_to_cnn(build_trapezoid(1, 2).as_mlp(), 2)] * 2)


def _edited(net, edit):
    """A fresh model from copies of ``net``'s parameters, changed by ``edit``."""
    blocks = [
        ResidualBlockSpec([FilterTensor(f.entries.copy()) for f in b.filters], [x.copy() for x in b.biases])
        for b in net.blocks
    ]
    fields = dict(blocks=blocks, fc_weight=net.fc_weight.copy(), first_row_only=net.first_row_only)
    edit(fields)
    return ConvResNetModel(net.input_dim, net.padding_channels, fc_bias=net.fc_bias, **fields)


def _set_first_filter_channel_1(f):
    f["blocks"][1].filters[0].entries[0, 0, 1] = 0.5


def _set_last_filter_channel_0(f):
    f["blocks"][0].filters[-1].entries[0, 0, 0] = 0.5


def _set_last_bias_channel_0(f):
    f["blocks"][1].biases[-1][0, 0] = 0.25


def _clear_first_row_only(f):
    f["first_row_only"] = False


def _drop_blocks(f):
    f["blocks"] = []


def _set_nonfinite_bias(f):
    f["blocks"][0].biases[1][0, 0] = np.inf


def _set_readout_channel_0(f):
    f["fc_weight"][0, 0] = 0.5


@pytest.mark.parametrize(
    "edit",
    [
        _set_first_filter_channel_1,
        _set_last_filter_channel_0,
        _set_last_bias_channel_0,
        _clear_first_row_only,
        _drop_blocks,
        _set_nonfinite_bias,
        _set_readout_channel_0,
    ],
)
def test_models_outside_the_plan_fall_back_to_the_reference(edit):
    assert _trapezoid_net()._plan is not None
    net = _edited(_trapezoid_net(), edit)
    assert net._plan is None
    X = np.linspace(-1.0, 2.0, 41)[:, None]
    with np.errstate(invalid="ignore"):  # the inf bias makes 0 * inf in the reference
        got, ref = resnet_forward_batch(net, X), resnet_forward_reference(net, X)
    assert np.array_equal(got, ref, equal_nan=True)
