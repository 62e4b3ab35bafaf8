import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from build_oracle import chained_pad, laid_product2, laid_square
from fold_oracle import padded_forward, plain_forward
from sobolev_forge import scalarnets
from sobolev_forge.netcore import ShapeError
from sobolev_forge.scalarnets import (
    _TILE_ROWS,
    ScalarNet,
    build_gate,
    build_monomial_bump,
    build_product2,
    build_square,
    build_trapezoid,
    bump_weight,
    sn_pad,
    sn_parallel,
    trapezoid_value,
)

KINK_OFF = math.sqrt(2.0) * 1e-7


def test_trapezoid_spec_values():
    assert build_trapezoid(0, 1)(0.0) == 1.0
    assert build_trapezoid(0, 1)(0.5) == 0.5
    assert build_trapezoid(2, 4)(0.5) == 1.0


def test_trapezoid_matches_formula_everywhere():
    for m, N in [(0, 1), (1, 2), (3, 4), (8, 8)]:
        net = build_trapezoid(m, N)
        xs = np.linspace(-1, 2, 1501) + KINK_OFF
        got = net.forward(xs[:, None])
        want = trapezoid_value(m, N, xs)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert got.min() >= 0.0 and got.max() <= 1.0


def test_trapezoid_derivative_bound():
    for N in (1, 4, 8):
        net = build_trapezoid(1 if N > 1 else 0, N)
        xs = np.linspace(-0.5, 1.5, 4001) + KINK_OFF
        h = 1e-6
        fd = (net.forward((xs + h)[:, None]) - net.forward((xs - h)[:, None])) / (2 * h)
        assert np.max(np.abs(fd)) <= 3 * N + 1e-6


def test_trapezoid_guards():
    with pytest.raises(ValueError):
        build_trapezoid(3, 2)


def test_square_exact_points():
    sq = build_square(1e-3, 1.0)
    assert sq(0.0) == 0.0
    assert sq(0.5) == 0.25
    assert sq(-0.5) == 0.25


def test_square_grid_accuracy():
    theta = 1e-3
    sq = build_square(theta, 1.0)
    xs = np.linspace(-1, 1, 10000)
    errs = np.abs(sq.forward(xs[:, None]) - xs**2)
    assert errs.max() <= theta


def test_square_depth_logarithmic():
    for theta in (1e-2, 1e-3, 1e-4):
        sq = build_square(theta, 1.0)
        assert sq.depth <= 3 * math.log2(1.0 / theta) + 10


def test_square_derivative_accuracy():
    theta = 1e-3
    sq = build_square(theta, 2.0)
    xs = np.linspace(-1.9, 1.9, 3001) + KINK_OFF
    h = 1e-7
    fd = (sq.forward((xs + h)[:, None]) - sq.forward((xs - h)[:, None])) / (2 * h)
    assert np.max(np.abs(fd - 2 * xs)) <= theta + 1e-4


def test_square_guards():
    with pytest.raises(ValueError):
        build_square(0.7, 1.0)
    with pytest.raises(ValueError):
        build_square(1e-3, -1.0)


def test_product_exact_annihilation(rng):
    times = build_product2(1e-3, 1.0)
    assert times(0.37, 0.0) == 0.0
    assert times(0.0, 0.0) == 0.0
    xs = rng.uniform(-1, 1, 1000)
    v1 = times.forward(np.stack([xs, np.zeros_like(xs)], axis=1))
    v2 = times.forward(np.stack([np.zeros_like(xs), xs], axis=1))
    assert np.all(v1 == 0.0) and np.all(v2 == 0.0)


def test_product_accuracy_and_example():
    eta = 1e-3
    times = build_product2(eta, 1.0)
    assert abs(times(0.7, -0.3) - (-0.21)) <= eta
    g = np.linspace(-1, 1, 201)
    XX, YY = np.meshgrid(g, g)
    pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
    errs = np.abs(times.forward(pts) - pts[:, 0] * pts[:, 1])
    assert errs.max() <= eta


def test_product_w1_magnitude():
    B = 3.0
    times = build_product2(1e-2, B)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-B, B, (2000, 2)) + KINK_OFF
    h = 1e-6
    for j in (0, 1):
        hi, lo = pts.copy(), pts.copy()
        hi[:, j] += h
        lo[:, j] -= h
        fd = (times.forward(hi) - times.forward(lo)) / (2 * h)
        assert np.max(np.abs(fd)) <= 3.0 * B  # derivative of xy is bounded by B


def test_product_accuracy_monotone():
    g = np.linspace(-1, 1, 101)
    XX, YY = np.meshgrid(g, g)
    pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
    prev = math.inf
    for eta in (1e-1, 1e-2, 1e-3, 1e-4):
        times = build_product2(eta, 1.0)
        err = float(np.max(np.abs(times.forward(pts) - pts[:, 0] * pts[:, 1])))
        assert err <= prev + 1e-15
        prev = err


def test_product_guards():
    with pytest.raises(ValueError):
        build_product2(0.9, 1.0)


@st.composite
def _gated_values(draw):
    """A box B and values g with |g| <= B, among them +-0.0, +-B and
    subnormals, with indicators s in [0, 1]."""
    B = draw(st.floats(0.5, 16.0))
    g = draw(st.lists(st.floats(-B, B) | st.sampled_from([0.0, -0.0, B, -B, 5e-324, -5e-324]),
                      min_size=1, max_size=24))
    s = draw(st.lists(st.floats(0.0, 1.0), min_size=len(g), max_size=len(g)))
    return B, np.array(g), np.array(s)


@settings(max_examples=80, deadline=None)
@given(_gated_values())
@example((4.0, np.array([4.0, -4.0, 0.0, -0.0, 1.0 / 3.0]), np.array([0.0, 1.0, 0.5, 0.5, 1.0])))
def test_gate_is_exact_at_indicator_one_and_zero_and_at_a_zero_term(values):
    """For |g| <= B: gate(g, 1.0) is g bit for bit (+0.0 at g = -0.0),
    gate(g, +0.0) is +0.0, and gate(+-0.0, s) is +0.0 at every s in [0, 1];
    in a batch and each row alone."""
    B, g, s = values
    gate = build_gate(B)
    zero = np.zeros_like(g)
    cases = [(g, np.ones_like(g), np.where(g == 0.0, 0.0, g)), (g, zero, zero), (np.copysign(zero, g), s, zero)]
    for a, b, want in cases:
        rows = np.stack([a, b], axis=1)
        assert gate.forward(rows).tobytes() == want.tobytes()
        assert np.array([gate(*row) for row in rows]).tobytes() == want.tobytes()


def test_gate_clips_g_between_indicator_zero_and_one():
    """On the ramp band the gate cuts |g| down by B (1 - s), which is not g s."""
    gate = build_gate(4.0)
    got = gate.forward(np.array([[3.0, 0.75], [-3.0, 0.75], [1.0, 0.5], [-1.0, 0.5]]))
    assert got.tolist() == [2.0, -2.0, 0.0, 0.0]
    assert [w.shape for w, _ in gate.layers] == [(3, 2), (2, 3), (1, 2)]


def test_bump_outside_support_exact_zero(rng):
    N = 2
    g = build_monomial_bump((1, 0), (1, 0), N, build_product2(1e-2, 5.0))
    X = rng.uniform(0, 1, (2000, 2))
    outside = bump_weight((1, 0), N, X) == 0.0
    vals = g.forward(X)
    assert outside.sum() > 100
    assert np.all(vals[outside] == 0.0)


def test_bump_center_value():
    eps = 1e-3
    g = build_monomial_bump((1, 2), (0, 0), 2, build_product2(eps, 5.0))
    val = g(0.5, 1.0)
    assert abs(val - 1.0) <= 10 * eps


def test_bump_one_dim_example():
    eps = 1e-3
    g = build_monomial_bump((0,), (1,), 1, build_product2(eps, 4.0))
    # psi(3 * 0.2) = psi(0.6) = 1, so the target value is 0.2
    assert abs(g(0.2) - 0.2) <= 10 * eps


def test_zero_annihilation_cascade_random(rng):
    N = 4
    for _ in range(5):
        m = tuple(rng.integers(0, N + 1, 2))
        v = tuple(rng.integers(0, 2, 2))
        g = build_monomial_bump(m, v, N, build_product2(1e-2, max(sum(v) + 1, 2) + 3.0))
        X = rng.uniform(0, 1, (500, 2))
        dead = bump_weight(m, N, X) == 0.0
        if dead.any():
            assert np.all(g.forward(X)[dead] == 0.0)


def test_partial_product_error_grows_linearly():
    """Sup error of the running product grows at most linearly in the number
    of multiplied factors at fixed accuracy."""
    eps, B = 1e-3, 4.0
    times = build_product2(eps, B)
    rng = np.random.default_rng(2)
    factors = rng.uniform(0.2, 1.0, (2000, 5))
    running = factors[:, 0].copy()
    exact = factors[:, 0].copy()
    for n in range(1, 5):
        running = times.forward(np.stack([running, factors[:, n]], axis=1))
        exact = exact * factors[:, n]
        err = float(np.max(np.abs(running - exact)))
        assert err <= 3.0 * (n + 1) * eps


def _net_and_inputs(kind, eta, B, n, rng):
    """A product, stamped product, trapezoid or monomial-bump net and n
    inputs in its box, some of them exact zeros or grid nodes.  The stamped
    product net gives each input row a first-layer bias of its own."""
    if kind in ("product", "stamped"):
        X = rng.uniform(-B, B, (n, 2))
        X[rng.random((n, 2)) < 0.1] = 0.0
        net = build_product2(eta, B)
        if kind == "stamped":
            net = net.with_first_bias(rng.uniform(-0.5, 0.5, (n, 6)))
        return net, X
    N = int(rng.integers(1, 9))
    if kind == "trapezoid":
        X = rng.uniform(-0.2, 1.2, (n, 1))
        X[rng.random(n) < 0.2] = rng.integers(0, N + 1) / N
        return build_trapezoid(int(rng.integers(0, N + 1)), N), X
    m, v = rng.integers(0, N + 1, 2), rng.integers(0, 2, 2)
    X = rng.uniform(0.0, 1.0, (n, 2))
    return build_monomial_bump(m, v, N, build_product2(eta, B)), X


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["product", "stamped", "trapezoid", "monomial-bump"]),
    st.sampled_from([0.25, 1.0 / 16, 1.0 / 256, 1e-5]),
    st.sampled_from([1.0, 3.0, 6.0]),
    st.one_of(st.integers(1, 40), st.sampled_from([_TILE_ROWS, _TILE_ROWS + 1, 5000])),
    st.integers(0, 2**32 - 1),
)
@example("product", 1.0 / 256, 6.0, 1, 0)  # a lone row is padded to two
@example("stamped", 1.0 / 256, 6.0, 1, 0)  # and reads the one bias row twice
@example("stamped", 1.0 / 16, 3.0, 5000, 0)
@example("monomial-bump", 1.0 / 16, 3.0, 2, 0)
def test_forward_equals_the_plain_layer_loop(kind, eta, B, n, seed):
    """ScalarNet.forward, with its weight copies and bias tiles, gives the
    bits of relu(x @ w.T + b) per layer on the layers as built, from one
    row, padded to two, to more than a tile, per-row biases too."""
    net, X = _net_and_inputs(kind, eta, B, n, np.random.default_rng(seed))
    assert np.array_equal(net.forward(X), padded_forward(net, X))


def test_product_nets_of_every_eta_and_box_share_six_bias_tiles(monkeypatch):
    """Every product net has the same six biases, so the alpha = 2 and 3
    nets of N = 2 to 16, as the rate studies build them, and nets of other
    boxes hold the same six tile objects, the map's only entries."""
    monkeypatch.setattr(scalarnets, "_tiles", {})
    shapes = [(float(N) ** -alpha, alpha + 3.0) for alpha in (2, 3) for N in range(2, 17)]
    nets = [build_product2(eta, B) for eta, B in shapes + [(0.25, 1.0), (1e-5, 0.5)]]
    X = np.random.default_rng(0).uniform(-0.5, 0.5, (5, 2))
    for net in nets:
        assert net.forward(X).tobytes() == plain_forward(net, X).tobytes()
    tiles = {id(tile) for tile in scalarnets._tiles.values()}
    assert len(tiles) == 6
    assert all({id(b) for _, b in net._batch_layers} == tiles for net in nets)


def test_biases_that_differ_in_the_sign_of_a_zero_get_their_own_tiles(monkeypatch):
    """Tiles are keyed by a bias's bytes, so +0.0 and -0.0 get a tile each,
    each holding its own zero (a key by value would give the second net
    the first one's); past the byte bound a bias is added as it is, to the
    same bits."""
    monkeypatch.setattr(scalarnets, "_tiles", {})
    X = np.linspace(-1.0, 1.0, 7)[:, None]
    W = np.array([[1.0], [-1.0]])
    nets = [ScalarNet([(W, np.array([zero, 0.5])), (np.ones((1, 2)), np.array([zero]))])
            for zero in (0.0, -0.0)]
    for net in nets:
        assert net.forward(X).tobytes() == plain_forward(net, X).tobytes()
        for (_, b), (_, tile) in zip(net.layers, net._batch_layers):
            assert tile.shape == (scalarnets._TILE_ROWS, len(b)) and not tile.flags.writeable
            assert tile.tobytes() == np.tile(b, (scalarnets._TILE_ROWS, 1)).tobytes()
    assert len(scalarnets._tiles) == 4
    monkeypatch.setattr(scalarnets, "_TILE_BYTES", 0)
    net = ScalarNet([(W, np.array([0.25, -0.0]))])
    assert net._batch_layers[0][1] is net.layers[0][1]
    assert net.forward(X).tobytes() == plain_forward(net, X).tobytes()
    assert len(scalarnets._tiles) == 4


def _same_layers(got, want):
    assert got.depth == want.depth
    for (gw, gb), (ww, wb) in zip(got.layers, want.layers):
        assert gw.shape == ww.shape and gw.tobytes() == ww.tobytes()
        assert gb.shape == wb.shape and gb.tobytes() == wb.tobytes()


def _signed_layer(rng, rows, cols):
    """A random layer whose weights and bias hold +0.0 and -0.0 too."""
    W, b = rng.uniform(-2.0, 2.0, (rows, cols)), rng.uniform(-2.0, 2.0, rows)
    for a in (W, b):
        a[rng.random(a.shape) < 0.3] = 0.0
        a[rng.random(a.shape) < 0.3] = -0.0
    return W, b


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 1, 0, 0)
def test_pad_equals_the_chained_identity_loop(in_dim, out_dim, depth, gap, seed):
    """sn_pad writes the layers of the chained identity loop bit for bit,
    signed zeros included, and refuses to pad down."""
    rng = np.random.default_rng(seed)
    widths = [in_dim] + rng.integers(1, 5, depth - 1).tolist() + [out_dim]
    f = ScalarNet([_signed_layer(rng, r, c) for c, r in zip(widths, widths[1:])])
    got = sn_pad(f, depth + gap)
    assert got.depth == depth + gap
    _same_layers(got, chained_pad(f, depth + gap))
    with pytest.raises(ShapeError, match="cannot pad down"):
        sn_pad(f, depth - 1)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, 0.49), st.floats(0.05, 12.0))
@example(0.25, 0.5)  # q = 0 for both nets: B^2 and 2B^2 are at most 1
@example(1e-3, math.sqrt(0.5))  # 2B^2 rounds to just above 1
@example(1.0 / 256, 3.0)  # q > 0 for both nets
def test_square_and_product_equal_the_hand_laid_layers(eta, B):
    """The square and product nets put together from the sawtooth net,
    ``sn_parallel`` and the shared readout have the layers once laid out by
    hand, bit for bit, signed zeros included, with and without doubling
    layers."""
    _same_layers(build_square(eta, B), laid_square(eta, B))
    _same_layers(build_product2(eta, B), laid_product2(eta, B))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
@example([1, 3], 0)
def test_parallel_pads_its_parts_to_the_deepest(depths, seed):
    """sn_parallel of parts of unequal depths equals sn_parallel of the parts
    padded first by the chained identity loop, bit for bit."""
    rng = np.random.default_rng(seed)
    parts = []
    for depth in depths:
        widths = rng.integers(1, 4, depth + 1).tolist()
        net = ScalarNet([_signed_layer(rng, r, c) for c, r in zip(widths, widths[1:])])
        parts.append((net, rng.choice(5, widths[0], replace=False).tolist()))
    padded = [(chained_pad(net, max(depths)), cols) for net, cols in parts]
    _same_layers(sn_parallel(parts), sn_parallel(padded))
