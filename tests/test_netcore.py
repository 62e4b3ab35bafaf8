import copy
import functools
import math
import warnings

import numpy as np
import pytest
from forward_oracle import block_forward, conv_forward, reference_psi_mlp, resnet_forward_reference
from hypothesis import given, settings, strategies as st

from sobolev_forge import kernels, netcore, taylor
from sobolev_forge.algebra import assemble_resnet, mlp_to_cnn
from sobolev_forge.netcore import (
    BlockSupport,
    ConvResNetModel,
    FilterTensor,
    ResidualBlockSpec,
    ShapeError,
    BlockSupport,
    audit_class,
    resnet_forward,
    resnet_forward_batch,
    resnet_forward_dense,
)
from sobolev_forge.scalarnets import ScalarNet, build_trapezoid
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
    fc[0, 1] = 1.0
    net = ConvResNetModel(3, 2, [], fc, 0.5)
    assert resnet_forward(net, np.array([0.3, -1.0, 2.0])) == 0.5


def test_resnet_compiled_trapezoid_at_zero():
    cnn = mlp_to_cnn(build_trapezoid(0, 1))
    net = assemble_resnet([cnn])
    assert resnet_forward(net, np.array([0.0])) == pytest.approx(1.0, abs=1e-12)
    # functional cross-check on a grid
    xs = np.linspace(-3, 3, 101)[:, None]
    assert np.max(np.abs(resnet_forward_batch(net, xs) - build_trapezoid(0, 1).forward(xs))) < 1e-9


def test_resnet_piecewise_linear_along_line(rng):
    cnn = mlp_to_cnn(build_trapezoid(1, 2))
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
    assert psi(1.5) == pytest.approx(0.5)
    assert psi(3.0) == 0.0
    ident = ScalarNet([(np.eye(3), np.zeros(3))])
    x = np.array([0.2, -0.7, 1.5])
    assert np.array_equal(ident.forward(x)[0], x)


def test_audit_hand_built():
    # C = 2: the first filter reads channel 0, the last writes channel 1
    first = np.zeros((3, 2, 2))
    first[:, :, 0] = [[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]  # all +-1
    last = np.zeros((2, 2, 3))
    last[1] = 1.0
    blk = ResidualBlockSpec(
        [FilterTensor(first), FilterTensor(last)],
        [np.zeros((4, 3)), np.zeros((4, 2))],
    )
    fc = np.zeros((4, 2))
    fc[0, 1] = 0.5
    net = ConvResNetModel(4, 2, [blk], fc, 0.0)
    params = audit_class(net)
    assert (params.M, params.K, params.kappa1) == (1, 2, 1.0)
    assert params.L == 2 and params.J == 3
    assert params.kappa2 == 0.5


def test_audit_zero_network():
    net = ConvResNetModel(2, 1, [], np.zeros((2, 1)), 0.0)
    params = audit_class(net)
    assert params.kappa1 == 0.0 and params.kappa2 == 0.0 and params.M == 0


def test_audit_monotone(rng):
    cnn = mlp_to_cnn(build_trapezoid(0, 2))
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
    ref = resnet_forward_reference(net, X)
    assert np.array_equal(resnet_forward_batch(net, X), ref)
    assert np.array_equal(resnet_forward_dense(net, X), ref)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.sampled_from([2, 3]),
    st.integers(2, 4),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_plan_matches_reference_on_built_models(D, alpha, N, n, seed):
    # random points, trapezoid breakpoints k/(3N) and repeats of both: the
    # dense forward's rows repeat most there
    net = _built_model(D, alpha, N)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.25, 1.25, (n, D))
    K = rng.integers(-N // 2, 3 * N + N // 2 + 1, (n, D)) / (3.0 * N)
    X = np.concatenate([X, K])
    _plan_matches_reference(net, np.concatenate([X, X[rng.integers(0, 2 * n, n)]]))


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
    step = netcore._BLOCK_CELLS // net._plan.cells
    assert 16 * step * len(net.blocks) <= netcore._BLOCK_CELLS
    _plan_matches_reference(net, rng.uniform(0.0, 1.0, (2 * step + 3, 2)))


def test_plan_is_lowered_once_and_calls_the_kernel_per_layer_at_most(monkeypatch, rng):
    net = _built_model(2, 2, 2)
    assert net._plan is net._plan
    calls = []
    conv = kernels.conv_layer
    monkeypatch.setattr(kernels, "conv_layer", lambda *a: calls.append(1) or conv(*a))
    resnet_forward(net, np.array([0.3, 0.6]))
    assert 0 < len(calls) <= max(blk.depth for blk in net.blocks)


def test_dense_forward_runs_the_layers_after_a_narrowing_one_on_distinct_rows(monkeypatch):
    # after the first shared layer with fewer output than input channels most
    # (block, point) rows are the same row, since a trapezoid factor is exactly
    # 0 away from its node, and the shared layers that follow run each once
    net = _built_model(2, 2, 4)
    (g,) = net._plan.groups
    X = np.random.default_rng(0).uniform(0.0, 1.0, (100, 2))
    assert netcore._BLOCK_CELLS // net._plan.cells >= len(X)
    assert all(layer.rows_in == 1 for layer in g.layers[g.prefix :])
    calls = []
    conv = kernels.conv_layer
    spy = lambda w, b, z: calls.append((w.shape, len(z) * z.shape[1])) or conv(w, b, z)
    monkeypatch.setattr(kernels, "conv_layer", spy)
    resnet_forward_dense(net, X)
    # one call per shared layer; past the prefix, z holds whole tiles of one-row activations
    assert [w for w, _ in calls] == [layer.filters.shape[1:] for layer in g.layers if layer.shared]
    tail = calls[g.prefix :]
    narrow = next(i for i, (w, _) in enumerate(tail) if w[0] < w[2])
    rows = len(X) * len(net.blocks)
    assert all(r >= rows for _, r in tail[: narrow + 1])
    assert all(r < rows for _, r in tail[narrow + 1 :])


@pytest.mark.parametrize("alpha, N, Jt, wide", [(2, 3, None, False), (3, 2, None, True), (2, 3, 28, True)])
def test_one_tap_layers_read_row_major_filters_below_the_width_where_layouts_round_apart(alpha, N, Jt, wide):
    # with D = 2 every product of a 1-tap layer runs in whole tiles; one with
    # an inner dimension below _ROW_MAJOR_WIDTH reads its filter row-major (a
    # C-contiguous w[:, 0, :].T), a wider one in the filter's own layout
    net = _built_model(2, alpha, N, Jt)
    width = netcore._ROW_MAJOR_WIDTH
    row_major = lambda w: w[:, 0, :].T.flags.c_contiguous
    layers = [layer for g in net._plan.groups for layer in g.layers if layer.filters.shape[2] == 1]
    assert all(row_major(w) == (w.shape[2] < width) for layer in layers for w in layer.filters)
    assert any(not layer.shared for layer in layers)  # the per-block layers too
    assert any(layer.filters.shape[3] >= width for layer in layers) == wide
    seen = []
    conv = kernels.conv_layer

    def spy(w, b, z):
        if w.shape[1] == 1:
            assert z.shape[1] % netcore._TILE_ROWS == 0
            seen.append(w)
        return conv(w, b, z)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "conv_layer", spy)
        resnet_forward_batch(net, np.random.default_rng(0).uniform(0.0, 1.0, (5, 2)))
    assert seen and all(row_major(w) == (w.shape[2] < width) for w in seen)


def test_row_major_and_column_major_operands_round_alike_below_the_layout_width(rng):
    # the layout rule keeps every output bit only where this holds
    for cin in range(2, netcore._ROW_MAJOR_WIDTH):
        for cout in (2, 7, cin, 14):
            w = rng.standard_normal((cout, 1, cin))
            b = rng.standard_normal((netcore._TILE_ROWS, cout))
            z = rng.standard_normal((3, netcore._TILE_ROWS, cin))
            own, row_major = kernels.conv_layer(w, b, z), kernels.conv_layer(np.asfortranarray(w), b, z)
            assert np.array_equal(own, row_major), (
                f"this BLAS rounds a {netcore._TILE_ROWS}-row product with inner dimension {cin} "
                "differently when its filter operand is row-major: lower netcore._ROW_MAJOR_WIDTH "
                f"to {cin} or below, or the plan no longer reproduces the sequential forward bit for bit"
            )


def test_build_fails_when_a_stamped_bias_entry_is_off_by_one(monkeypatch):
    # the dense gate, with its shared layers on distinct rows, sees one block
    # whose first layer is stamped wrong: the 16th term, node (1, 1), v = (0, 0)
    restamp, calls = taylor.restamp, []

    def off_by_one(cnn, w, bias, scale):
        calls.append(1)
        if len(calls) == 16:
            bias = bias.copy()
            bias[0] += 1.0
        return restamp(cnn, w, bias, scale)

    monkeypatch.setattr(taylor, "restamp", off_by_one)
    with pytest.raises(CompileEqualityError, match="deviates from functional path"):
        build_euclidean(get_target("sinprod", alpha=2, dim=2), s=0, p=math.inf, N=3)
    assert len(calls) == 48


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


def test_row_blocks_join_the_blocks_and_hand_a_lone_block_through(monkeypatch):
    """_row_blocks calls fun on blocks of _BLOCK_CELLS // cells_per_row rows,
    each None array passed as None, and joins the results, or each part of
    tuple results; a lone block, also of no rows, is the arrays themselves,
    and its result comes back uncopied."""
    monkeypatch.setattr(netcore, "_BLOCK_CELLS", 12)
    A, B, calls = np.arange(10.0), np.arange(10, 20), []

    def fun(a, none, b):
        calls.append((a, none, b))
        return 2.0 * a, b
    doubled, same = netcore._row_blocks(fun, 3, A, None, B)
    assert [len(a) for a, _, _ in calls] == [4, 4, 2] and all(n is None for _, n, _ in calls)
    assert np.array_equal(doubled, 2.0 * A) and np.array_equal(same, B)
    assert np.array_equal(netcore._row_blocks(lambda a: a + 1.0, 5, A), A + 1.0)
    for lone in (A[:4], np.empty((0, 2))):
        calls, out = [], np.zeros(3)
        got = netcore._row_blocks(lambda a, none: calls.append((a, none)) or out, 3, lone, None)
        assert got is out and len(calls) == 1 and calls[0][0] is lone and calls[0][1] is None


def test_sparse_forward_chunks_a_batch_larger_than_its_step(rng):
    net = _built_model(2, 2, 2)
    X = rng.uniform(-0.2, 1.2, (2 * (netcore._BLOCK_CELLS // net._plan.cover.cells) + 3, 2))
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


def _cover_oracle(net, X):
    """Every (point, block) with a node m where |N x_k - m_k| < the cover's
    reach on every axis, sorted by point and then block, each pair once."""
    N, reach = net.support.grid, netcore._COVER_REACH
    near = [np.any(np.all(np.abs(N * X[:, None] - m) < reach, axis=2), axis=1) for m in net.support.nodes]
    return np.nonzero(np.array(near).T)  # row-major: by point, then block


def _cover_points(rng, D, N, n):
    """Points of the safe box [-1, 2]^D: random ones, the trapezoid breakpoints
    k/(3N) and one ulp either side of them, and points with coordinates on
    the box's edges."""
    X = rng.uniform(-1.0, 2.0, (n, D))
    K = rng.integers(-3 * N, 6 * N + 1, (n, D)) / (3.0 * N)
    E = rng.uniform(-1.0, 2.0, (n, D))
    edge = rng.random((n, D)) < 0.5
    E[edge] = rng.choice([-1.0, 2.0], int(edge.sum()))
    X = np.concatenate([X, K, np.nextafter(K, np.inf), np.nextafter(K, -np.inf), E])
    return np.clip(X, -1.0, 2.0)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(1, 2, 4, None), (2, 2, 3, None), (2, 3, 2, None), (3, 2, 2, None), (2, 2, 3, 28)]),
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
)
def test_cover_rows_equal_the_brute_force_oracle(case, n, seed):
    D, alpha, N, Jt = case
    net = _built_model(D, alpha, N, Jt)
    X = _cover_points(np.random.default_rng(seed), D, N, n)
    points, blocks = net._plan.cover.rows(X, len(net.blocks))
    want = _cover_oracle(net, X)
    assert np.array_equal(points, want[0]) and np.array_equal(blocks, want[1])


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
    net = ConvResNetModel(D, C, blocks, fc, 0.25)
    assert net._plan.groups[0].prefix == 1
    for n in (1, 5, 70):
        _plan_matches_reference(net, rng.uniform(0.0, 1.0, (n, D)))


def _random_model(rng):
    """A random model that meets the plan's conditions: D in 1..3, C in 2..3;
    0-5 blocks of two kinds (depths 1-4, hidden widths 1-6) whose layers are
    each drawn from two candidate filters (widths 1-3) and biases, so blocks
    share some layers and not others; and a random row-0 readout with a zero
    channel-0 weight."""
    D, C, n_blocks = int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(0, 6))
    kinds = []
    for _ in range(2):
        depth = int(rng.integers(1, 5))
        widths = [C] + [int(w) for w in rng.integers(1, 7, depth - 1)] + [C]
        candidates = []
        for ell in range(depth):
            filters, biases = [], []
            for _ in range(2):
                w = rng.standard_normal((widths[ell + 1], int(rng.integers(1, 4)), widths[ell]))
                b = rng.standard_normal((D, widths[ell + 1]))
                if ell == 0:
                    w[:, :, 1:] = 0.0
                if ell == depth - 1:
                    w[0], b[:, 0] = 0.0, 0.0
                filters.append(FilterTensor(w))
                biases.append(b)
            candidates.append((filters, biases))
        kinds.append(candidates)
    blocks = []
    for _ in range(n_blocks):
        picks = [(fs[rng.integers(2)], bs[rng.integers(2)]) for fs, bs in kinds[rng.integers(2)]]
        blocks.append(ResidualBlockSpec([f for f, _ in picks], [b for _, b in picks]))
    fc = np.zeros((D, C))
    fc[0, 1:] = rng.standard_normal(C - 1)
    return ConvResNetModel(D, C, blocks, fc, float(rng.standard_normal()))


def _trapezoid_net():
    return assemble_resnet([mlp_to_cnn(build_trapezoid(1, 2))] * 2)


def _edited(net, edit):
    """A fresh model from copies of ``net``'s parameters, changed by ``edit``."""
    blocks = [
        ResidualBlockSpec([FilterTensor(f.entries.copy()) for f in b.filters], [x.copy() for x in b.biases])
        for b in net.blocks
    ]
    fields = dict(blocks=blocks, fc_weight=net.fc_weight.copy())
    edit(fields)
    return ConvResNetModel(net.input_dim, net.padding_channels, fc_bias=net.fc_bias, **fields)


def _set_first_filter_channel_1(f):
    f["blocks"][1].filters[0].entries[0, 0, 1] = 0.5


def _set_last_filter_channel_0(f):
    f["blocks"][0].filters[-1].entries[0, 0, 0] = 0.5


def _set_last_bias_channel_0(f):
    f["blocks"][1].biases[-1][0, 0] = 0.25


def _set_nonfinite_bias(f):
    f["blocks"][0].biases[1][0, 0] = np.inf


def _set_readout_channel_0(f):
    f["fc_weight"][0, 0] = 0.5


# the plan's conditions and the messages that name them
_MESSAGES = {
    "finite": "filters and biases must be finite",
    "readout": "the readout must read only row 0 and give channel 0 a zero weight",
    "first": "a block's first filter must read only channel 0",
    "last": "a block's last filter and last bias must leave channel 0 at zero",
}
# the condition each edit breaks
_CONDITIONS = {
    _set_first_filter_channel_1: "first",
    _set_last_filter_channel_0: "last",
    _set_last_bias_channel_0: "last",
    _set_nonfinite_bias: "finite",
    _set_readout_channel_0: "readout",
}


@pytest.mark.parametrize("edit", list(_CONDITIONS))
def test_models_outside_the_plan_fall_back_to_the_reference(edit):
    # no model falls back: one outside the plan's conditions is rejected when
    # it is constructed, with a message that names the condition
    _edited(_trapezoid_net(), lambda f: None)  # the unedited copy is valid
    with pytest.raises(ShapeError, match=_MESSAGES[_CONDITIONS[edit]]):
        _edited(_trapezoid_net(), edit)


def test_a_model_without_blocks_is_the_constant_fc_bias():
    net = _edited(_trapezoid_net(), lambda f: f.update(blocks=[]))
    X = np.array([[-1.0], [0.25], [3.0], [np.nan]])
    assert np.array_equal(resnet_forward_batch(net, X), [0.0, 0.0, 0.0, np.nan], equal_nan=True)
    assert np.array_equal(resnet_forward_batch(net, X[:3]), resnet_forward_reference(net, X[:3]))
    fc = np.zeros((3, 2))
    fc[0, 1] = -2.0
    net = ConvResNetModel(3, 2, [], fc, 0.75, support=BlockSupport(4, []))
    X = np.random.default_rng(3).uniform(-0.5, 1.5, (9, 3))
    for forward in (resnet_forward_batch, resnet_forward_dense):
        assert np.array_equal(forward(net, X), np.full(9, 0.75))
    fc[1, 1] = 1.0  # a readout below row 0 is outside the plan
    with pytest.raises(ShapeError, match="the readout must read only row 0"):
        ConvResNetModel(3, 2, [], fc, 0.75)


# a few percent of these models have a product whose rounding depends on its
# row count (see "Bits" in netcore), hence the many examples
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_MESSAGES)), st.integers(0, 2**32 - 1))
def test_plan_matches_reference_on_random_models_and_rejects_any_broken_condition(broken, seed):
    rng = np.random.default_rng(seed)
    net = _random_model(rng)
    D, n_blocks = net.input_dim, len(net.blocks)
    X = rng.uniform(-1.0, 2.0, (int(rng.integers(1, 20)), D))
    ref = resnet_forward_reference(net, X)
    assert np.array_equal(resnet_forward_batch(net, X), ref)
    assert np.array_equal(resnet_forward_dense(net, X), ref)
    # break one condition in a copy; a model without blocks has only the readout
    broken = broken if n_blocks else "readout"
    blocks, fc = copy.deepcopy(net.blocks), net.fc_weight.copy()
    blk = blocks[rng.integers(n_blocks)] if n_blocks else None
    if broken == "finite":
        blk.biases[rng.integers(blk.depth)][-1, -1] = rng.choice([np.inf, -np.inf, np.nan])
    elif broken == "readout":
        r = rng.integers(D)  # channel 0 of row 0, or any channel below it
        fc[r, 0 if r == 0 else rng.integers(net.padding_channels)] = 0.5
    elif broken == "first":
        w = blk.filters[0].entries
        w[rng.integers(w.shape[0]), rng.integers(w.shape[1]), rng.integers(1, w.shape[2])] = 0.5
    elif rng.integers(2):  # input channel 0 keeps a one-layer block's first filter valid
        blk.filters[-1].entries[0, rng.integers(blk.filters[-1].width), 0] = 0.5
    else:
        blk.biases[-1][rng.integers(D), 0] = 0.5
    with pytest.raises(ShapeError, match=_MESSAGES[broken]):
        ConvResNetModel(D, net.padding_channels, blocks, fc, net.fc_bias)
