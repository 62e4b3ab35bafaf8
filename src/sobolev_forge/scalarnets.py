"""Exact piecewise-linear scalar building blocks and their ReLU-net realizations.

Everything here is a plain affine/ReLU stack (``ScalarNet``) built from four
primitives:

* ``build_trapezoid`` -- the unit trapezoid bump rescaled to grid node m/N,
  realized exactly;
* ``build_square`` -- dyadic sawtooth interpolation of x^2 on [-B, B], exact
  at 0 and at dyadic breakpoints;
* ``build_product2`` -- approximate multiplication via the polarization
  identity 2B^2*(sq((x+y)/2B) - sq(x/2B) - sq(y/2B)), with the exact
  annihilation property net(x, 0) = net(0, y) = 0;
* ``build_monomial_bump`` -- the bump-times-monomial nets obtained by folding
  the product net over monomial factors first, then the per-axis trapezoids.

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
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .netcore import MlpModel, ShapeError


@dataclass
class ScalarNet:
    """Affine/ReLU stack with declared accuracy and box-bound metadata.

    ``layers`` is an ordered list of (weight matrix, bias vector); the forward
    pass applies ReLU after every layer except the last.  ``eta`` is the
    declared sup-norm accuracy of whatever the net approximates (0.0 for exact
    realizations) and ``box`` the input box bound the accuracy refers to.
    """

    layers: list
    eta: float = 0.0
    box: float | None = None
    tags: dict = field(default_factory=dict)

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

    def forward(self, X):
        """Batch forward: (n, in_dim) -> (n,) for scalar nets, else (n, out)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = X
        last = self.depth - 1
        for i, (w, b) in enumerate(self.layers):
            out = kernels.mlp_layer(w, b, out, relu=(i != last))
        return out[:, 0] if self.out_dim == 1 else out

    def __call__(self, *xs):
        x = np.asarray(xs, dtype=np.float64).reshape(1, -1)
        y = self.forward(x)
        return float(y[0])

    def as_mlp(self):
        return MlpModel([w for w, _ in self.layers], [b for _, b in self.layers])


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
    W = np.zeros((len(cols), d_in))
    for r, c in enumerate(cols):
        W[r, c] = 1.0
    return ScalarNet([(W, np.zeros(len(cols)))])


def sn_const(d_in, value):
    """Depth-1 net with constant output."""
    return ScalarNet([(np.zeros((1, d_in)), np.array([float(value)]))])


def sn_chain(f: ScalarNet, g: ScalarNet) -> ScalarNet:
    """g after f.  Depth adds exactly: f's final affine becomes a +/- pair
    layer and g's first layer reads the pairs, so no weight products appear."""
    if g.in_dim != f.out_dim:
        raise ShapeError(f"cannot chain: f out_dim {f.out_dim} != g in_dim {g.in_dim}")
    Wf, bf = f.layers[-1]
    pair = (np.vstack([Wf, -Wf]), np.concatenate([bf, -bf]))
    Wg, bg = g.layers[0]
    g0 = (np.hstack([Wg, -Wg]), bg)
    return ScalarNet(f.layers[:-1] + [pair, g0] + g.layers[1:])


def sn_pad(f: ScalarNet, depth: int) -> ScalarNet:
    """Append identity pair layers until the net has the requested depth."""
    eye = sn_affine(np.eye(f.out_dim), np.zeros(f.out_dim))
    while f.depth < depth:
        f = sn_chain(f, eye)
    if f.depth != depth:
        raise ShapeError(f"cannot pad down: depth {f.depth} > requested {depth}")
    return f


def sn_parallel(parts) -> ScalarNet:
    """Run nets side by side on a shared input; outputs concatenate.

    ``parts`` is a list of (net, cols) where ``cols`` maps the net's input
    coordinates into the shared input space.  All nets must have equal depth
    (pad first); the shared input dimension is inferred as max(cols)+1 unless
    all parts agree already.
    """
    depth = parts[0][0].depth
    if any(net.depth != depth for net, _ in parts):
        raise ShapeError("parallel parts must share depth; pad first")
    d_in = max(max(cols) for _, cols in parts) + 1
    layers = []
    for ell in range(depth):
        if ell == 0:
            rows = sum(net.layers[0][0].shape[0] for net, _ in parts)
            W = np.zeros((rows, d_in))
            bs = []
            r0 = 0
            for net, cols in parts:
                W0, b0 = net.layers[0]
                for j, c in enumerate(cols):
                    W[r0 : r0 + W0.shape[0], c] += W0[:, j]
                bs.append(b0)
                r0 += W0.shape[0]
            layers.append((W, np.concatenate(bs)))
        else:
            Ws = [net.layers[ell][0] for net, _ in parts]
            bs = [net.layers[ell][1] for net, _ in parts]
            rows = sum(w.shape[0] for w in Ws)
            cols_n = sum(w.shape[1] for w in Ws)
            W = np.zeros((rows, cols_n))
            r0 = c0 = 0
            for w in Ws:
                W[r0 : r0 + w.shape[0], c0 : c0 + w.shape[1]] = w
                r0 += w.shape[0]
                c0 += w.shape[1]
            layers.append((W, np.concatenate(bs)))
    return ScalarNet(layers)


def sn_input_affine(f: ScalarNet, A, c) -> ScalarNet:
    """Pre-compose the input with x -> A x + c."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    W0, b0 = f.layers[0]
    return ScalarNet(
        [(W0 @ A, b0 + W0 @ c)] + f.layers[1:], eta=f.eta, box=f.box, tags=dict(f.tags)
    )


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


def reference_psi_mlp() -> MlpModel:
    """The classic two-layer realization of the unit trapezoid."""
    return MlpModel(
        [np.array([[1.0], [1.0], [1.0], [1.0]]), np.array([[1.0, -1.0, -1.0, 1.0]])],
        [np.array([2.0, 1.0, -1.0, -2.0]), np.array([0.0])],
    )


def build_trapezoid(m: int, N: int) -> ScalarNet:
    """Net computing psi(3N(x - m/N)) exactly.

    Three layers instead of the classic two: the single shifted hinge
    y = relu(3N x - (3m - 2)) keeps every parameter magnitude <= max(3N, 4),
    whereas folding the shift into four hinges needs biases up to 3N + 2.
    """
    if not 0 <= m <= N:
        raise ValueError(f"need 0 <= m <= N, got m={m}, N={N}")
    l1 = (np.array([[3.0 * N]]), np.array([2.0 - 3.0 * m]))
    l2 = (np.ones((4, 1)), np.array([0.0, -1.0, -3.0, -4.0]))
    l3 = (np.array([[1.0, -1.0, -1.0, 1.0]]), np.array([0.0]))
    return ScalarNet([l1, l2, l3], eta=0.0, box=None, tags={"m": m, "N": N})


# ---------------------------------------------------------------------------
# sawtooth square and polarization product
# ---------------------------------------------------------------------------


def _square_layers(m_depth):
    """Sawtooth layers computing s_m(u) from pair wires (u+, u-) of u=|x|.

    Returns (layers, out_row) where the final hidden layer exposes wires
    (u, g_m, a_m, S_m) and s_m(u) = u - S_m with |s_m(u) - u^2| <= 4^-(m+1)
    and |s_m'(u) - 2u| <= 2^-m on [0, 1].
    """
    layers = []
    # (u, a0) from (x+, x-)
    layers.append((np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([0.0, -0.5])))
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
    return layers


def _doubling_layers(pair_width, q):
    """q layers multiplying nonnegative wires by 4 each (weights stay <= 4)."""
    return [(4.0 * np.eye(pair_width), np.zeros(pair_width)) for _ in range(q)]


def square_depth(theta, B):
    """Sawtooth depth so value error B^2 4^-(m+1) and slope error B 2^-m <= theta."""
    return max(1, math.ceil(math.log2(max(B, 1.0) / theta)))


def build_square(theta: float, B: float) -> ScalarNet:
    """Net approximating x^2 on [-B, B] within theta in W^{1,inf}; net(0) = 0.

    Dyadic sawtooth interpolation: s_m is the piecewise-linear interpolant of
    u^2 on the 2^-m grid, realized as u - sum_j g_j(u)/4^j with composed tent
    maps g_j, then rescaled by B^2 through doubling layers so that no single
    weight exceeds 4.
    """
    if not 0.0 < theta < 0.5:
        raise ValueError(f"theta must be in (0, 1/2), got {theta}")
    if B <= 0:
        raise ValueError(f"box bound must be positive, got {B}")
    m = square_depth(theta, B)
    invB = 1.0 / B
    layers = [(np.array([[invB], [-invB]]), np.zeros(2))]
    layers += _square_layers(m)
    scale = B * B
    q = max(0, math.ceil(math.log(scale, 4.0))) if scale > 1.0 else 0
    # v0 = relu(u - S_m) = s_m(u) >= 0
    layers.append((np.array([[1.0, 0.0, 0.0, -1.0]]), np.zeros(1)))
    layers += _doubling_layers(1, q)
    layers.append((np.array([[scale / 4.0**q]]), np.zeros(1)))
    return ScalarNet(layers, eta=theta, box=B, tags={"m": m, "q": q})


def product_depth(eta, B):
    return max(1, math.ceil(math.log2(2.0 * max(B, 1.0) / eta)) + 1)


def build_product2(eta: float, B: float) -> ScalarNet:
    """Net approximating x*y on [-B, B]^2 within eta in W^{1,inf}.

    Polarization: 2B^2 (s(|x+y|/2B) - s(|x|/2B) - s(|y|/2B)) with a shared
    sawtooth depth.  net(x, 0) = net(0, y) = 0 holds bit-exactly: the two
    branches that must cancel see bitwise-identical inputs, and the zero
    branch is exactly zero, so the three-term combination is exact under any
    summation order.
    """
    if not 0.0 < eta < 0.5:
        raise ValueError(f"eta must be in (0, 1/2), got {eta}")
    if B <= 0:
        raise ValueError(f"box bound must be positive, got {B}")
    m = product_depth(eta, B)
    h = 0.5 / B
    # L1: pair wires for (x+y), x, y, each scaled by 1/(2B): blocks of 2
    W1 = np.array(
        [
            [h, h],
            [-h, -h],
            [h, 0.0],
            [-h, 0.0],
            [0.0, h],
            [0.0, -h],
        ]
    )
    layers = [(W1, np.zeros(6))]
    # L2: per-branch (u, a0), 2-wire blocks
    u_a0 = np.array([[1.0, 1.0], [1.0, 1.0]])
    W2 = np.zeros((6, 6))
    for br in range(3):
        W2[2 * br : 2 * br + 2, 2 * br : 2 * br + 2] = u_a0
    layers.append((W2, np.tile([0.0, -0.5], 3)))
    # sawtooth chains, 4-wire blocks per branch
    saw = _square_layers(m)[1:]  # skip the (u, a0) layer already emitted
    first = saw[0]
    W = np.zeros((12, 6))
    b = np.zeros(12)
    for br in range(3):
        W[4 * br : 4 * br + 4, 2 * br : 2 * br + 2] = first[0]
        b[4 * br : 4 * br + 4] = first[1]
    layers.append((W, b))
    for Wt, bt in saw[1:]:
        W = np.zeros((12, 12))
        b = np.zeros(12)
        for br in range(3):
            W[4 * br : 4 * br + 4, 4 * br : 4 * br + 4] = Wt
            b[4 * br : 4 * br + 4] = bt
        layers.append((W, b))
    # per-branch values v_br = relu(u - S) = s(u_br) >= 0
    Wv = np.zeros((3, 12))
    for br in range(3):
        Wv[br, 4 * br] = 1.0
        Wv[br, 4 * br + 3] = -1.0
    layers.append((Wv, np.zeros(3)))
    # signed combination s_c - s_a - s_b as a +/- pair, then doubling
    Wpn = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]])
    layers.append((Wpn, np.zeros(2)))
    scale = 2.0 * B * B
    q = max(0, math.ceil(math.log(scale, 4.0))) if scale > 1.0 else 0
    layers += _doubling_layers(2, q)
    c = scale / 4.0**q
    layers.append((np.array([[c, -c]]), np.zeros(1)))
    return ScalarNet(layers, eta=eta, box=B, tags={"m": m, "q": q})


# ---------------------------------------------------------------------------
# bump-times-monomial nets
# ---------------------------------------------------------------------------


def monomial_factors(v):
    """Expand a multi-index into its list of coordinate factors."""
    out = []
    for k, vk in enumerate(v):
        out.extend([k] * int(vk))
    return out


def build_monomial_bump(m, v, N: int, eps: float, alpha=None, box=None) -> ScalarNet:
    """Net approximating phi_m(x) * x^v on (0,1)^D within O(eps).

    Folds the shared product net over the monomial coordinate factors first,
    then over the D per-axis trapezoids, matching the nesting
    x(...x(p_v, psi_1)..., psi_D).  Whenever some trapezoid factor vanishes at
    x the whole net output is exactly 0 (annihilation cascades through every
    later product stage).
    """
    m = tuple(int(t) for t in m)
    v = tuple(int(t) for t in v)
    D = len(m)
    if len(v) != D:
        raise ShapeError(f"multi-index lengths differ: m has {D}, v has {len(v)}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if alpha is not None and sum(v) >= alpha:
        raise ValueError(f"|v| = {sum(v)} must be < alpha = {alpha}")
    a_eff = alpha if alpha is not None else max(sum(v) + 1, 2)
    B = box if box is not None else a_eff + D + 1.0
    times = build_product2(eps, B)

    coords = monomial_factors(v)
    if coords:
        running = sn_select(D, [coords[0]])
        rest = coords[1:]
    else:
        running = sn_const(D, 1.0)
        rest = []
    stages = [(sn_select(1, [0]), [j]) for j in rest]
    stages += [(build_trapezoid(m[k], N), [k]) for k in range(D)]

    for factor, cols in stages:
        depth = max(running.depth, factor.depth)
        pair = sn_parallel(
            [(sn_pad(running, depth), list(range(D))), (sn_pad(factor, depth), cols)]
        )
        running = sn_chain(pair, times)
    running.eta = eps
    running.box = B
    running.tags = {"m": m, "v": v, "N": N}
    return running
