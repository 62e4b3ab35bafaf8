"""Exact piecewise-linear scalar building blocks and their ReLU-net realizations.

Everything here is a plain affine/ReLU stack, a ``ScalarNet``: the package's
one feed-forward ReLU net type, which ``algebra.mlp_to_cnn`` realizes as a
CNN.  The nets are put together with the combinators (``sn_chain``,
``sn_parallel``, ``sn_pad``, ...) from four primitives:

* ``build_trapezoid`` -- the unit trapezoid bump rescaled to grid node m/N,
  realized exactly;
* ``build_square`` -- dyadic sawtooth interpolation of x^2 on [-B, B], exact
  at 0 and at dyadic breakpoints;
* ``build_product2`` -- approximate multiplication via the polarization
  identity 2B^2*(sq((x+y)/2B) - sq(x/2B) - sq(y/2B)): three square branches
  of one sawtooth net side by side, with the exact annihilation property
  net(x, 0) = net(0, y) = 0;
* ``build_monomial_bump`` -- the bump-times-monomial nets obtained by folding
  the product net over monomial factors first, then the per-axis trapezoids.

For a fixed monomial these nets differ from node to node only in the
trapezoids' first-layer biases 2 - 3 m_k, which the fold leaves as the last
D rows of the net's first layer, so ``monomial_bump_template`` builds the
net once, at node 0, and stamps every other node there.  Every term of a
build folds the build's one product net.  Arrays are shared
between layers and between nets (the combinators reuse the layers they are
given), so no array is edited once it is in a net.

Two float-level guarantees are load-bearing and deliberately engineered:

1. off-support trapezoid values are exactly 0.0 (the hinge cancellation
   y - (y-1) - (y-3) + (y-4) stays on a shared binade grid), and
2. the product net annihilates exact zeros bit-exactly, because the two
   sawtooth branches that must cancel receive bitwise-identical inputs and
   branch wire blocks are laid out identically.

Large fixed scalings (2B^2 and the 2^w style factors) are spread over
doubling layers with weights <= 4, never stored as single big weights, so a
class audit of any compiled construction reports kappa_1 <= max(3N, 4).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .netcore import ShapeError


# Rows of a bias tile: the 4096 rows of a fold pass (taylor._FOLD_ROWS) in
# one add.  On 4096 x 12 that add took 18-19 us, four adds of a 1024-row
# tile 21-24 us and the broadcast 1-D bias 50-54 us (2-core Xeon VM).
_TILE_ROWS = 4096
# Bytes the tiles may hold; past them a bias is added from its 1-D array, to
# the same bits.  The studies stay far below: every product net, at every
# eta and B, has the same 6 biases (30 columns, 0.98 MB of tiles), and the
# rate studies at alpha 2 and 3 for N 2-16 with a circle study for N 4-32
# hold 12 (41 columns, 1.3 MB).
_TILE_BYTES = 16 << 20
_tiles = {}  # (dtype, shape, bytes) of a 1-D bias -> its tile, for the process's life


def bias_tile(b):
    """The (_TILE_ROWS, len(b)) read-only tile of a 1-D bias b, one per
    distinct bias (by shape and bytes, so +0.0 and -0.0 differ) for the
    whole process, so that nets built anew share it; b itself once the
    tiles hold _TILE_BYTES, and a 2-D bias as it is."""
    if b.ndim != 1:
        return b
    key = (b.dtype.str, b.shape, b.tobytes())
    tile = _tiles.get(key)
    if tile is None:
        if sum(t.nbytes for t in _tiles.values()) + _TILE_ROWS * b.nbytes > _TILE_BYTES:
            return b
        tile = _tiles[key] = np.tile(b, (_TILE_ROWS, 1))
        tile.flags.writeable = False
    return tile


@dataclass
class ScalarNet:
    """Affine/ReLU stack: the package's one feed-forward ReLU net type.

    ``layers`` is an ordered list of (weight matrix, bias vector); the forward
    pass applies ReLU after every layer except the last.  Layer shapes are
    not checked here, since a build makes hundreds of nets;
    ``algebra.mlp_to_cnn`` checks them once per conversion.

    A forward runs the net's prepared layers (``_batch_layers``), made once
    per net object at its first forward: a column-major copy of each
    weight, so that x @ w.T hands BLAS a row-major (Cin, Cout) operand, and
    each 1-D bias as its tile from ``bias_tile``, which ``kernels.mlp_layer``
    adds in contiguous slabs.  Both round as the weight and the bias
    themselves.  A net's arrays are shared between its layers and with other
    nets, and are never edited: an edit would reach every net holding them.
    """

    layers: list

    @property
    def depth(self):
        return len(self.layers)

    @property
    def in_dim(self):
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self):
        return self.layers[-1][0].shape[0]

    @property
    def width(self):
        return max(w.shape[0] for w, _ in self.layers)

    @property
    def kappa(self):
        return max(
            max(np.max(np.abs(w)), np.max(np.abs(b)) if b.size else 0.0)
            for w, b in self.layers
        )

    @cached_property
    def _batch_layers(self):
        return [(np.asfortranarray(w), bias_tile(b)) for w, b in self.layers]

    def with_first_bias(self, bias):
        """This net with its first-layer bias replaced by ``bias``, every
        other array shared, and so are its prepared layers past the first; a
        (rows, width) bias gives each input row its own."""
        net = ScalarNet([(self.layers[0][0], bias)] + self.layers[1:])
        net._batch_layers = [(self._batch_layers[0][0], bias)] + self._batch_layers[1:]
        return net

    def forward(self, X):
        """Batch forward: (n, in_dim) -> (n,) for scalar nets, else (n, out).

        A lone row is padded to two: numpy multiplies one row by a
        matrix-vector product, which rounds unlike a row of a batch, so a
        row gets the same bits alone as beside other rows."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.repeat(X, 2, axis=0) if len(X) == 1 else X
        last = self.depth - 1
        for i, (w, b) in enumerate(self._batch_layers):
            out = kernels.mlp_layer(w, b, out, relu=(i != last))
        out = out[: len(X)]
        return out[:, 0] if self.out_dim == 1 else out

    def __call__(self, *xs):
        x = np.asarray(xs, dtype=np.float64).reshape(1, -1)
        y = self.forward(x)
        return float(y[0])


# ---------------------------------------------------------------------------
# combinators (pair-boundary composition keeps weight magnitudes from
# multiplying and keeps exact zeros exact: y = relu(y) - relu(-y) bit-exactly)
# ---------------------------------------------------------------------------


def sn_affine(W, b):
    """Depth-1 net computing an affine map (no ReLU: it is the final layer)."""
    W = np.atleast_2d(np.asarray(W, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    return ScalarNet([(W, b)])


def sn_select(d_in, cols):
    """Depth-1 net extracting input coordinates ``cols`` from R^d_in."""
    cols = list(cols)
    return ScalarNet([(np.eye(d_in)[cols], np.zeros(len(cols)))])


def sn_const(d_in, value):
    """Depth-1 net with constant output."""
    return ScalarNet([(np.zeros((1, d_in)), np.array([float(value)]))])


def sn_chain(f: ScalarNet, g: ScalarNet) -> ScalarNet:
    """g after f.  Depth adds exactly: f's final affine becomes a +/- pair
    layer and g's first layer reads the pairs, so no weight products appear."""
    if g.in_dim != f.out_dim:
        raise ShapeError(f"cannot chain: f out_dim {f.out_dim} != g in_dim {g.in_dim}")
    Wg, bg = g.layers[0]
    g0 = (np.hstack([Wg, -Wg]), bg)
    return ScalarNet(f.layers[:-1] + [_pm(*f.layers[-1]), g0] + g.layers[1:])


def _pm(W, b):
    """The layer (W, b) as a +/- pair: rows W then -W, bias b then -b."""
    return np.vstack([W, -W]), np.concatenate([b, -b])


def sn_pad(f: ScalarNet, depth: int) -> ScalarNet:
    """Append identity pair layers until the net has the requested depth:
    f's last layer as a +/- pair, one layer [[I, -I], [-I, I]] with bias
    [0, -0] for every middle layer, then [I, -I].  These are the layers of
    chaining the identity net on once per missing layer, zero signs too."""
    gap = depth - f.depth
    if gap < 0:
        raise ShapeError(f"cannot pad down: depth {f.depth} > requested {depth}")
    if gap == 0:
        return f
    eye = np.eye(f.out_dim)
    read = np.hstack([eye, -eye])
    zero = np.zeros(f.out_dim)
    middle = _pm(read, zero)
    return ScalarNet(f.layers[:-1] + [_pm(*f.layers[-1])] + [middle] * (gap - 1) + [(read, zero)])


def sn_parallel(parts) -> ScalarNet:
    """Run nets side by side on a shared input; outputs concatenate.

    ``parts`` is a list of (net, cols) where ``cols`` maps the net's input
    coordinates into the shared input space.  Each net is padded to the
    depth of the deepest (``sn_pad``); the shared input dimension is
    max(cols)+1.
    """
    depth = max(net.depth for net, _ in parts)
    nets = [sn_pad(net, depth) for net, _ in parts]
    d_in = max(max(cols) for _, cols in parts) + 1
    # part i's rows of layer ell are starts[ell][i]:ends[ell][i] of the
    # joined layer, and so are its columns of layer ell + 1
    rows = np.array([[w.shape[0] for w, _ in net.layers] for net in nets])
    ends = np.cumsum(rows, axis=0)
    starts, ends = (ends - rows).T.tolist(), ends.T.tolist()
    layers = []
    for ell, at in enumerate(zip(*(net.layers for net in nets))):
        W = np.zeros((ends[ell][-1], d_in if ell == 0 else ends[ell - 1][-1]))
        for i, (w, _) in enumerate(at):
            if ell == 0:
                for j, c in enumerate(parts[i][1]):
                    W[starts[0][i] : ends[0][i], c] += w[:, j]
            else:
                W[starts[ell][i] : ends[ell][i], starts[ell - 1][i] : ends[ell - 1][i]] = w
        layers.append((W, np.concatenate([b for _, b in at])))
    return ScalarNet(layers)


def sn_input_affine(f: ScalarNet, A, c) -> ScalarNet:
    """Pre-compose the input with x -> A x + c."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    W0, b0 = f.layers[0]
    return ScalarNet([(W0 @ A, b0 + W0 @ c)] + f.layers[1:])


# ---------------------------------------------------------------------------
# exact trapezoid bump
# ---------------------------------------------------------------------------


def psi_value(t):
    """Unit trapezoid: 1 on |t|<1, 2-|t| on 1<=|t|<=2, 0 beyond (exact)."""
    t = np.abs(np.asarray(t, dtype=np.float64))
    return np.where(t >= 2.0, 0.0, np.where(t <= 1.0, 1.0, 2.0 - t))


def trapezoid_value(m, N, x):
    """psi(3N(x - m/N)), evaluated exactly from the piecewise formula."""
    x = np.asarray(x, dtype=np.float64)
    return psi_value(3.0 * N * x - 3.0 * m)


def bump_weight(m, N, x):
    """Product of per-axis trapezoids phi_m(x); x is (D,) or (n, D)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    out = np.ones(X.shape[0])
    for k, mk in enumerate(m):
        out = out * trapezoid_value(mk, N, X[:, k])
    return float(out[0]) if single else out


def _hinge_bias(m):
    """The first-layer biases 2 - 3 m_k of the trapezoids of node m, exact."""
    return 2.0 - 3.0 * np.asarray(m, dtype=np.float64)


def build_trapezoid(m: int, N: int) -> ScalarNet:
    """Net computing psi(3N(x - m/N)) exactly.

    Three layers instead of the classic two: the single shifted hinge
    y = relu(3N x - (3m - 2)) keeps every parameter magnitude <= max(3N, 4),
    whereas folding the shift into four hinges needs biases up to 3N + 2.
    """
    if not 0 <= m <= N:
        raise ValueError(f"need 0 <= m <= N, got m={m}, N={N}")
    l1 = (np.array([[3.0 * N]]), _hinge_bias([m]))
    l2 = (np.ones((4, 1)), np.array([0.0, -1.0, -3.0, -4.0]))
    l3 = (np.array([[1.0, -1.0, -1.0, 1.0]]), np.array([0.0]))
    return ScalarNet([l1, l2, l3])


# ---------------------------------------------------------------------------
# sawtooth square and polarization product
# ---------------------------------------------------------------------------


def _sawtooth(m_depth):
    """Net computing s_m(u) >= 0 from the pair wires (u+, u-) of u = |x|.

    Its hidden layers are (u, a0), then the sawtooth steps on wires
    (u, g_t, a_t, S_t); the value layer is relu(u - S_m) = s_m(u), with
    |s_m(u) - u^2| <= 4^-(m+1) and |s_m'(u) - 2u| <= 2^-m on [0, 1].
    """
    # (u, a0) from (x+, x-)
    layers = [(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([0.0, -0.5]))]
    # first sawtooth step: wires (u, g1, a1, S1)
    W = np.array(
        [
            [1.0, 0.0],
            [2.0, -4.0],
            [2.0, -4.0],
            [0.5, -1.0],
        ]
    )
    layers.append((W, np.array([0.0, 0.0, -0.5, 0.0])))
    for t in range(2, m_depth + 1):
        c = 4.0 ** (-t)
        W = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 2.0, -4.0, 0.0],
                [0.0, 2.0, -4.0, 0.0],
                [0.0, 2.0 * c, -4.0 * c, 1.0],
            ]
        )
        layers.append((W, np.array([0.0, 0.0, -0.5, 0.0])))
    return ScalarNet(layers + [(np.array([[1.0, 0.0, 0.0, -1.0]]), np.zeros(1))])


def _rescale(scale, signs):
    """Readout of nonnegative wires times ``scale``: doubling layers by 4
    (weights stay <= 4), then scale / 4^q times ``signs``."""
    width = len(signs)
    q = max(0, math.ceil(math.log(scale, 4.0))) if scale > 1.0 else 0
    doubling = [(4.0 * np.eye(width), np.zeros(width)) for _ in range(q)]
    return doubling + [(scale / 4.0**q * np.array([signs]), np.zeros(1))]


def square_depth(theta, B):
    """Sawtooth depth so value error B^2 4^-(m+1) and slope error B 2^-m <= theta."""
    return max(1, math.ceil(math.log2(max(B, 1.0) / theta)))


def build_square(theta: float, B: float) -> ScalarNet:
    """Net approximating x^2 on [-B, B] within theta in W^{1,inf}; net(0) = 0.

    Dyadic sawtooth interpolation: the input layer gives the pair wires of
    x/B, the sawtooth net s_m interpolates u^2 on the 2^-m grid as
    u - sum_j g_j(u)/4^j with composed tent maps g_j, and the readout
    rescales by B^2 through doubling layers so that no weight exceeds 4.
    """
    if not 0.0 < theta < 0.5:
        raise ValueError(f"theta must be in (0, 1/2), got {theta}")
    if B <= 0:
        raise ValueError(f"box bound must be positive, got {B}")
    invB = 1.0 / B
    pair = (np.array([[invB], [-invB]]), np.zeros(2))
    return ScalarNet([pair] + _sawtooth(square_depth(theta, B)).layers + _rescale(B * B, [1.0]))


def product_depth(eta, B):
    return max(1, math.ceil(math.log2(2.0 * max(B, 1.0) / eta)) + 1)


def build_product2(eta: float, B: float) -> ScalarNet:
    """Net approximating x*y on [-B, B]^2 within eta in W^{1,inf}.

    Polarization: 2B^2 (s(|x+y|/2B) - s(|x|/2B) - s(|y|/2B)).  The input
    layer gives the pair wires of (x+y)/2B, x/2B and y/2B; one sawtooth net
    runs on each pair side by side (``sn_parallel``); the signed combination
    s_c - s_a - s_b is a +/- pair, rescaled by 2B^2.  net(x, 0) = net(0, y)
    = 0 holds bit-exactly: the two branches that must cancel see
    bitwise-identical inputs through identical wire blocks, and the zero
    branch is exactly zero, so the three-term combination is exact under any
    summation order.
    """
    if not 0.0 < eta < 0.5:
        raise ValueError(f"eta must be in (0, 1/2), got {eta}")
    if B <= 0:
        raise ValueError(f"box bound must be positive, got {B}")
    saw = _sawtooth(product_depth(eta, B))
    branches = sn_parallel([(saw, [0, 1]), (saw, [2, 3]), (saw, [4, 5])])
    h = 0.5 / B
    W1 = np.array([[h, h], [-h, -h], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    signed = (np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]]), np.zeros(2))
    layers = [(W1, np.zeros(6))] + branches.layers + [signed]
    return ScalarNet(layers + _rescale(2.0 * B * B, [1.0, -1.0]))


# ---------------------------------------------------------------------------
# bump-times-monomial nets
# ---------------------------------------------------------------------------


def monomial_factors(v):
    """Expand a multi-index into its list of coordinate factors."""
    out = []
    for k, vk in enumerate(v):
        out.extend([k] * int(vk))
    return out


def build_monomial_bump(m, v, N: int, times: ScalarNet) -> ScalarNet:
    """Net approximating phi_m(x) * x^v on (0,1)^D, each product by ``times``.

    Folds the product net ``times`` over the monomial coordinate factors
    first, then over the D per-axis trapezoids, matching the nesting
    x(...x(p_v, psi_1)..., psi_D).  Whenever some trapezoid factor vanishes at
    x the whole net output is exactly 0 (annihilation cascades through every
    later product stage).  Each fold stage puts the running net's first layer
    before the factor's, and a trapezoid's first layer is one row, so the
    first layer's last D rows are the trapezoids' shifted hinges, in axis
    order, with biases 2 - 3 m_k.
    """
    m = tuple(int(t) for t in m)
    v = tuple(int(t) for t in v)
    D = len(m)
    if len(v) != D:
        raise ShapeError(f"multi-index lengths differ: m has {D}, v has {len(v)}")

    coords = monomial_factors(v)
    running = sn_select(D, coords[:1]) if coords else sn_const(D, 1.0)
    stages = [(sn_select(1, [0]), [j]) for j in coords[1:]]
    stages += [(build_trapezoid(m[k], N), [k]) for k in range(D)]

    for factor, cols in stages:
        running = sn_chain(sn_parallel([(running, list(range(D))), (factor, cols)]), times)
    return running


@dataclass
class NodeTemplate:
    """A net built at grid node 0, and the rows of its first layer whose
    bias moves with the node: the net of node m is ``net`` with its first
    layer replaced by ``first(m)``, whose biases at the trapezoid rows
    ``rows[k]`` are 2 - 3 m_k."""

    net: ScalarNet
    rows: np.ndarray

    def first(self, m):
        """The first layer (W, b) of the net of node m; W is the net's own."""
        W, b = self.net.layers[0]
        b = b.copy()
        b[self.rows] = _hinge_bias(m)
        return W, b


def monomial_bump_template(v, N: int, times: ScalarNet) -> NodeTemplate:
    """The nets phi_m(x) * x^v of every node m in [0, N]^D as one template.

    ``times`` is the build's product net, which every term folds.  The net
    is built once, at node 0; its first layer's last D rows are the
    trapezoids' hinges (``build_monomial_bump``), the only entries that move
    with the node.
    """
    net = build_monomial_bump((0,) * len(v), v, N, times=times)
    n = len(net.layers[0][1])
    return NodeTemplate(net, np.arange(n - len(v), n))
