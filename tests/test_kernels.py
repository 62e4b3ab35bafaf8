import numpy as np
from forward_oracle import conv_forward
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sobolev_forge import kernels
from sobolev_forge.netcore import FilterTensor
from sobolev_forge.scalarnets import _TILE_ROWS

T = _TILE_ROWS


def test_backends_agree_conv(rng):
    # conv_layer agrees with the reference convolution of each sample, plus
    # bias, then ReLU; K > D covers taps that read only past the last row
    outputs = []
    for n, D, C, Cp, K in [(7, 4, 5, 3, 2), (3, 2, 2, 4, 5), (1, 1, 3, 2, 3)]:
        w = rng.standard_normal((Cp, K, C))
        b = rng.standard_normal((D, Cp))
        z = rng.standard_normal((n, D, C))
        got = kernels.conv_layer(w, b, z)
        want = np.stack([np.maximum(conv_forward(FilterTensor(w), zi) + b, 0.0) for zi in z])
        assert got.shape == (n, D, Cp)
        assert np.max(np.abs(got - want)) <= 1e-12
        outputs.append(got.ravel())
    outputs = np.concatenate(outputs)
    assert np.any(outputs == 0.0) and np.any(outputs > 0.0)  # ReLU is exercised


def test_backends_agree_mlp(rng):
    # mlp_layer agrees with the affine map x @ w.T + b, with and without ReLU
    w = rng.standard_normal((6, 9))
    b = rng.standard_normal(6)
    x = rng.standard_normal((50, 9))
    affine = x @ w.T + b
    assert np.array_equal(kernels.mlp_layer(w, b, x, relu=False), affine)
    assert np.array_equal(kernels.mlp_layer(w, b, x, relu=True), np.maximum(affine, 0.0))
    assert np.any(affine < 0.0)
    assert kernels.backend_name() == "numpy"


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([0, 1, 2, T - 1, T, T + 1, 2 * T + 3]),
    st.integers(1, 12),
    st.integers(1, 6),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(0, 3, 2, True, True, 0)  # no rows, and a per-row bias of no rows
@example(2 * T + 3, 12, 4, False, False, 0)  # three adds of the tile
def test_a_tiled_or_per_row_bias_adds_as_the_plain_affine_map(n, cout, cin, per_row, relu, seed):
    """mlp_layer gives the bits of x @ w.T + b, signed zeros included, with
    b as its tile of T rows or as a per-row bias, at row counts from none
    to past two tiles."""
    rng = np.random.default_rng(seed)
    w, x = rng.standard_normal((cout, cin)), rng.standard_normal((n, cin))
    b = rng.standard_normal((n, cout) if per_row else cout)
    for a in (x, b):
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.2] = -0.0
    want = x @ w.T + b
    if relu:
        want = np.maximum(want, 0.0)
    got = kernels.mlp_layer(w, b if per_row else np.tile(b, (T, 1)), x, relu=relu)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_conv_tail_zero_padding():
    w = np.zeros((1, 3, 1))
    w[0, 2, 0] = 1.0  # reads two rows ahead
    z = np.arange(1.0, 5.0)[None, :, None]
    y = kernels.conv_layer(w, np.zeros((4, 1)), z)
    assert np.array_equal(y[0, :, 0], [3.0, 4.0, 0.0, 0.0])
