"""Tensor and network arithmetic for convolutional residual networks.

Conventions fixed here and relied on by every other module:

* a filter ``W`` of shape (Cout, K, Cin) acts on ``Z`` of shape (D, Cin) by
  the one-sided stride-one convolution ``Y[i, j] = sum_{k,l} W[j,k,l] *
  Z[i+k, l]`` (0-based taps), reading zeros past row D-1;
* a residual block applies ReLU after every conv layer, including the last,
  and then adds the identity shortcut;
* a full model pads x into column 0 of a D x C matrix, runs the blocks in
  order, and finishes with the fully-connected readout
  ``sum(fc_weight * Z) + fc_bias``.

All arithmetic is float64.  Models are immutable after construction; forward
evaluation is pure.

Execution plan.  ``resnet_forward_batch`` lowers a model once into a plan,
cached on the model (the cache is sound only because models are never
mutated after construction).  The plan applies when the weights show that

* the readout is first-row-only and gives channel 0 a zero weight,
* each block's first filter reads only channel 0, and
* each block's last filter and last bias leave channel 0 at zero.

Then every block reads only the padded input and writes only channels
1..C-1, and only row 0 reaches the readout, so the blocks are independent
and each layer needs only the rows that feed row 0 through the filter widths
behind it.  The plan works on (block, point) rows.  Blocks are grouped by
their layer shapes; a group's leading layers whose filter and bias are the
same in every block (the gather prefix) run once per point, and every later
layer runs over the group's live rows: a shared layer as one product over
them, a layer with distinct weights as one product per distinct filter
present.  The block summands of a point are added in block order.  Points
are taken in chunks so the stacked activations stay under
``_PLAN_ROW_BUDGET`` rows.  A point with a non-finite coordinate gets nan
without running any block: the readout multiplies x, in channel 0, by a zero
weight, so its value is nan whatever the blocks give.

Support index.  A Euclidean build attaches a ``BlockSupport``: the grid N
and each block's nodes m.  Lowering turns it into a node -> blocks index,
and per chunk the plan keeps only the rows whose node can cover the point,
by the rule of ``taylor._cover`` (per axis, m_lo = floor(N x - 2/3) + 1 and
m_lo + 1 when it is within reach) with the reach 2/3 widened by a margin of
2^-20 grid units.  The margin rests on a rounding argument.  Node m's
trapezoid on axis k is exactly 0 unless the network's y = 3N x_k + 2 - 3m_k
lies in (0, 4); x_k reaches that layer exactly (the gather layers copy it)
and y takes one product and one sum.  In the safe box [-1, 2]^D the two
roundings move y by less than 2^-52 (9N + 2), so a nonzero factor needs
|N x_k - m_k| < 2/3 + 2^-52 (3N + 1), while the cover computes N x_k with an
error below 2^-52 (2N + 1) grid units.  For N < 2^20 both errors are below
2^-30, far inside the margin, and a margin under 1/3 still leaves at most
two candidates per axis.  A block that is kept but vanishes adds an exact
0.0, and the product nets annihilate a zero factor bit for bit, so a
skipped block's summand is 0.0 and skipping it changes no sum.

Dense rows.  The same code with every (block, point) row live serves a
model without a support (a file written without one, or a compiled manifold
model, whose charts are not grid-indexed in x), any point outside the safe
box, and ``resnet_forward_dense``, which the build's equality check runs:
only it can see a block that fails to annihilate.

Bits.  Each matrix product of a 1-tap layer with D >= 2 runs in tiles of
``_TILE_ROWS`` rows, one shape whatever the number of live rows, so a row's
value does not depend on which other rows are live, and the support-sparse
forward reproduces the dense one bit for bit.  The plan makes the kind of
product the reference makes: matrix-matrix for D >= 2 and one row at a time
for D = 1.  With finite parameters it therefore reproduces the sequential
loop ``resnet_forward_reference`` bit for bit, provided BLAS rounds a row of
a matrix product the same whatever the row count.  Some BLAS builds do not
for inner dimensions of 16 and more (wide ``Jt``-grouped models); there the
two agree to rounding.  Models that fail a condition, including models
without blocks, run the sequential loop.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iter_product

import numpy as np

from . import kernels


class ShapeError(ValueError):
    """Raised when tensor shapes do not compose."""


def _as_f64(a):
    return np.asarray(a, dtype=np.float64)


@dataclass
class FilterTensor:
    """Convolution filter with entries indexed (out-channel, tap, in-channel)."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = _as_f64(self.entries)
        if self.entries.ndim != 3:
            raise ShapeError(f"filter must be 3-d, got shape {self.entries.shape}")
        if self.entries.shape[1] < 1:
            raise ShapeError(f"filter width must be >= 1, got shape {self.entries.shape}")

    @property
    def out_channels(self):
        return self.entries.shape[0]

    @property
    def width(self):
        return self.entries.shape[1]

    @property
    def in_channels(self):
        return self.entries.shape[2]


@dataclass
class ResidualBlockSpec:
    """One residual block: an ordered conv stack plus the implicit shortcut.

    ``biases[l]`` is a full D x Cout matrix (builders emit channel-constant
    biases, but the representation does not require it).  The first layer's
    input channel count must equal the last layer's output channel count so
    the identity shortcut is well-typed.
    """

    filters: list
    biases: list

    def __post_init__(self):
        self.biases = [_as_f64(b) for b in self.biases]
        if len(self.filters) != len(self.biases) or len(self.filters) < 1:
            raise ShapeError(
                f"block needs matching filter/bias lists, got {len(self.filters)} filters "
                f"and {len(self.biases)} biases"
            )
        for f, b in zip(self.filters, self.biases):
            if b.ndim != 2 or b.shape[1] != f.out_channels:
                raise ShapeError(
                    f"bias shape {b.shape} does not match filter out-channels {f.out_channels}"
                )
        for prev, nxt in zip(self.filters, self.filters[1:]):
            if nxt.in_channels != prev.out_channels:
                raise ShapeError(
                    f"layer shapes do not compose: {prev.entries.shape} then {nxt.entries.shape}"
                )
        if self.filters[0].in_channels != self.filters[-1].out_channels:
            raise ShapeError(
                "block must map D x C to D x C: first input channels "
                f"{self.filters[0].in_channels} != last output channels "
                f"{self.filters[-1].out_channels}"
            )

    @property
    def depth(self):
        return len(self.filters)


@dataclass
class BlockSupport:
    """The grid nodes of each block's bump-times-monomial terms.

    ``nodes[b]`` is a non-empty integer array (k, D) of nodes in
    [0, grid]^D: block b's summand is exactly 0 at every x that no bump of
    those nodes covers.  A block that groups several terms lists the union
    of their nodes.
    """

    grid: int
    nodes: list

    def __post_init__(self):
        if isinstance(self.grid, bool) or not isinstance(self.grid, (int, np.integer)) or self.grid < 1:
            raise ShapeError(f"support grid must be an integer >= 1, got {self.grid!r}")
        if not isinstance(self.nodes, (list, tuple)):
            raise ShapeError("support nodes must be a list with one entry per block")
        self.grid = int(self.grid)
        nodes = []
        for b, a in enumerate(self.nodes):
            try:
                a = np.asarray(a)
            except ValueError:
                a = np.empty(0)
            if a.dtype.kind not in "iu" or a.ndim != 2 or not a.size:
                raise ShapeError(f"support of block {b} is not a non-empty list of integer nodes")
            if a.min() < 0 or a.max() > self.grid:
                raise ShapeError(f"support of block {b} has a node outside [0, {self.grid}]")
            nodes.append(a.astype(np.int64))
        self.nodes = nodes


@dataclass
class ConvResNetModel:
    """Padding layer + residual blocks + fully-connected readout, with an
    optional BlockSupport that lets the forward skip blocks."""

    input_dim: int
    padding_channels: int
    blocks: list
    fc_weight: np.ndarray
    fc_bias: float
    first_row_only: bool = False
    support: BlockSupport = None

    def __post_init__(self):
        self.fc_weight = _as_f64(self.fc_weight)
        self.fc_bias = float(self.fc_bias)
        D, C = self.input_dim, self.padding_channels
        if self.fc_weight.shape != (D, C):
            raise ShapeError(f"fc weight shape {self.fc_weight.shape} != ({D}, {C})")
        for blk in self.blocks:
            if blk.filters[0].in_channels != C:
                raise ShapeError(
                    f"block input channels {blk.filters[0].in_channels} != padding channels {C}"
                )
            for b in blk.biases:
                if b.shape[0] != D:
                    raise ShapeError(f"bias rows {b.shape[0]} != input dim {D}")
        if self.first_row_only and np.any(self.fc_weight[1:, :] != 0.0):
            raise ShapeError("first_row_only model has nonzero fc entries below row 1")
        if self.support is not None and (
            len(self.support.nodes) != len(self.blocks)
            or any(a.shape[1] != D for a in self.support.nodes)
        ):
            raise ShapeError(f"support must list {D}-d nodes for each of the {len(self.blocks)} blocks")

    @cached_property
    def _plan(self):
        return _lower(self)


@dataclass
class MlpModel:
    """Plain ReLU MLP: alternating affine/ReLU with a final affine layer."""

    weights: list
    biases: list

    def __post_init__(self):
        self.weights = [_as_f64(w) for w in self.weights]
        self.biases = [_as_f64(b) for b in self.biases]
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ShapeError("weights and biases must be equal-length, nonempty lists")
        for w, b in zip(self.weights, self.biases):
            if b.shape != (w.shape[0],):
                raise ShapeError(f"bias shape {b.shape} != ({w.shape[0]},)")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ShapeError(f"layer shapes do not compose: {prev.shape} then {nxt.shape}")

    @property
    def depth(self):
        return len(self.weights)

    @property
    def in_dim(self):
        return self.weights[0].shape[1]

    @property
    def out_dim(self):
        return self.weights[-1].shape[0]

    @property
    def width(self):
        return max(w.shape[0] for w in self.weights)

    @property
    def kappa(self):
        return max(max(np.max(np.abs(w)), np.max(np.abs(b))) for w, b in zip(self.weights, self.biases))


@dataclass
class NetClassParams:
    """Measured architecture-class membership of a concrete model."""

    M: int
    L: int
    J: int
    K: int
    kappa1: float
    kappa2: float
    first_row_only: bool = field(default=False)


def conv_forward(filt: FilterTensor, Z: np.ndarray) -> np.ndarray:
    """Bare one-sided stride-one convolution (no bias, no ReLU)."""
    Z = _as_f64(Z)
    if Z.ndim != 2 or Z.shape[1] != filt.in_channels:
        raise ShapeError(
            f"input shape {Z.shape} does not match filter in-channels "
            f"{filt.entries.shape} (expected D x {filt.in_channels})"
        )
    D = Z.shape[0]
    w = filt.entries
    Y = np.zeros((D, filt.out_channels))
    for k in range(min(filt.width, D)):
        if k == 0:
            Y += Z @ w[:, 0, :].T
        else:
            Y[: D - k, :] += Z[k:, :] @ w[:, k, :].T
    return Y


def block_stack(block: ResidualBlockSpec, Z_batch: np.ndarray) -> np.ndarray:
    """Conv stack of a block over a batch (n, D, C): ReLU after every layer."""
    out = Z_batch
    for f, b in zip(block.filters, block.biases):
        out = kernels.conv_layer(f.entries, b, out)
    return out


def block_forward(block: ResidualBlockSpec, Z: np.ndarray) -> np.ndarray:
    """Residual block: conv stack plus identity shortcut."""
    Z = _as_f64(Z)
    if Z.ndim != 2 or Z.shape[1] != block.filters[0].in_channels:
        raise ShapeError(
            f"input shape {Z.shape} does not match block input channels "
            f"{block.filters[0].in_channels}"
        )
    return block_stack(block, Z[None])[0] + Z


def pad_input(x_batch: np.ndarray, channels: int) -> np.ndarray:
    """P(x): place x in column 0 of a D x C matrix, zeros elsewhere."""
    n, D = x_batch.shape
    Z = np.zeros((n, D, channels))
    Z[:, :, 0] = x_batch
    return Z


def _check_batch(net, X):
    X = _as_f64(X)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ShapeError(f"input shape {X.shape} != (n, {net.input_dim})")
    return X


def resnet_forward_reference(net: ConvResNetModel, X: np.ndarray) -> np.ndarray:
    """Sequential forward pass, block by block over full D x C activations.

    The reference semantics, and the path of models the plan does not cover.
    """
    X = _check_batch(net, X)
    Z = pad_input(X, net.padding_channels)
    for blk in net.blocks:
        Z = Z + block_stack(blk, Z)
    return _readout(net, Z)


def _readout(net, Z):
    return np.tensordot(Z, net.fc_weight, axes=([1, 2], [0, 1])) + net.fc_bias


def resnet_forward_batch(net: ConvResNetModel, X: np.ndarray) -> np.ndarray:
    """Forward pass over a batch of inputs, shape (n, D) -> (n,), through the
    model's execution plan when it has one: with a support, each point in
    the safe box runs only the blocks that can cover it."""
    return _forward(net, X, sparse=True)


def resnet_forward_dense(net: ConvResNetModel, X: np.ndarray) -> np.ndarray:
    """The same forward with every block at every point.  Only this pass can
    see a block that fails to vanish off its support, so the build's
    equality check runs it."""
    return _forward(net, X, sparse=False)


def _forward(net, X, sparse):
    X = _check_batch(net, X)
    plan = net._plan
    if plan is None:
        return resnet_forward_reference(net, X)
    return _on_finite_rows(lambda Y: plan.forward(net, Y, sparse), X)


def _on_finite_rows(evaluate, X):
    """evaluate(X) over the rows of X whose coordinates are all finite; the
    other rows get nan without a call."""
    if np.isfinite(X).all():
        return evaluate(X)
    finite = np.all(np.isfinite(X), axis=1)
    out = np.full(X.shape[0], np.nan)
    out[finite] = evaluate(X[finite])
    return out


def resnet_forward(net: ConvResNetModel, x: np.ndarray) -> float:
    """Forward pass at a single input vector of length D."""
    x = _as_f64(x)
    if x.shape != (net.input_dim,):
        raise ShapeError(f"input shape {x.shape} != ({net.input_dim},)")
    return float(resnet_forward_batch(net, x[None])[0])


def mlp_forward_batch(mlp: MlpModel, X: np.ndarray) -> np.ndarray:
    """MLP forward over a batch, shape (n, in) -> (n, out)."""
    X = _as_f64(X)
    if X.ndim != 2 or X.shape[1] != mlp.in_dim:
        raise ShapeError(f"input shape {X.shape} != (n, {mlp.in_dim})")
    out = X
    last = mlp.depth - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out = kernels.mlp_layer(w, b, out, relu=(i != last))
    return out


def mlp_forward(mlp: MlpModel, x: np.ndarray) -> np.ndarray:
    """MLP forward at a single input vector."""
    x = _as_f64(x)
    if x.ndim == 0:
        x = x[None]
    if x.shape != (mlp.in_dim,):
        raise ShapeError(f"input shape {x.shape} != ({mlp.in_dim},)")
    return mlp_forward_batch(mlp, x[None])[0]


def audit_class(net: ConvResNetModel) -> NetClassParams:
    """Measure (M, L, J, K, kappa1, kappa2) of a concrete model.

    J is the maximum channel count seen anywhere (padding included); kappa2
    covers both the fc weight and the fc bias.
    """
    M = len(net.blocks)
    L = max((blk.depth for blk in net.blocks), default=0)
    J = net.padding_channels
    K = 0
    kappa1 = 0.0
    for blk in net.blocks:
        for f, b in zip(blk.filters, blk.biases):
            J = max(J, f.in_channels, f.out_channels)
            K = max(K, f.width)
            kappa1 = max(kappa1, float(np.max(np.abs(f.entries))), float(np.max(np.abs(b))))
    kappa2 = max(float(np.max(np.abs(net.fc_weight))), abs(net.fc_bias))
    fro = bool(np.all(net.fc_weight[1:, :] == 0.0)) if net.input_dim > 1 else True
    return NetClassParams(M=M, L=L, J=J, K=K, kappa1=kappa1, kappa2=kappa2, first_row_only=fro)


# Stacked activations of one chunk of points stay under this many rows,
# counted over (block, point, row).
_PLAN_ROW_BUDGET = 1 << 14
# Rows of every matrix product of a 1-tap layer (D >= 2), whatever the number
# of live rows; a multiple of 16, so no row of a tile falls in the remainder
# path of a BLAS kernel.
_TILE_ROWS = 64
# Points that run only their covering blocks: finite and inside this box.
_SAFE_BOX = (-1.0, 2.0)
# The cover's reach in grid units: a bump's 2/3 plus the margin of the
# rounding argument in the module docstring.
_COVER_REACH = 2.0 / 3.0 + 2.0**-20


@dataclass
class _PlanLayer:
    """One conv layer of a block group, with one copy of each distinct weight.

    ``filters`` is (U, Cout, K, Cin) and ``biases`` (V, rows_in, Cout); the
    index arrays give each block's filter and bias, or are None when the
    whole group shares one.
    """

    filters: np.ndarray
    filter_index: object
    biases: np.ndarray
    bias_index: object
    rows_in: int
    rows_out: int

    @property
    def shared(self):
        return self.filter_index is None and self.bias_index is None


@dataclass
class _PlanGroup:
    """Blocks with one layer-shape signature, by position in the model; the
    first ``prefix`` layers are shared by all of them."""

    blocks: np.ndarray
    layers: list
    prefix: int


@dataclass
class _Cover:
    """The node -> blocks index of a model's BlockSupport: the blocks of the
    raveled node i are blocks[starts[i] : starts[i + 1]]."""

    grid: int
    starts: np.ndarray
    blocks: np.ndarray
    step: int  # points per chunk

    def rows(self, X, n_blocks):
        """The (point, block) rows that can be nonzero at the points X (all
        in the safe box), sorted by point and then block."""
        N, D = self.grid, X.shape[1]
        lo = np.floor(N * X - _COVER_REACH).astype(np.int64) + 1
        hi = N * X + _COVER_REACH
        keys = []
        for off in iter_product((0, 1), repeat=D):
            m = lo + np.array(off)
            p = np.flatnonzero(np.all((m >= 0) & (m <= N) & (m < hi), axis=1))
            node = np.ravel_multi_index(tuple(m[p].T), (N + 1,) * D)
            first = self.starts[node]
            count = self.starts[node + 1] - first
            at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
            keys.append(np.repeat(p, count) * n_blocks + self.blocks[at])
        keys = np.sort(np.concatenate(keys))
        new = np.ones(len(keys), dtype=bool)
        new[1:] = keys[1:] != keys[:-1]  # a grouped block once
        keys = keys[new]
        return keys // n_blocks, keys % n_blocks


@dataclass
class _Plan:
    """Execution plan of one model; see the module docstring."""

    groups: list
    n_blocks: int
    block_group: np.ndarray  # each block's group
    block_pos: np.ndarray  # and its position there
    step: int  # points per chunk when every row is live
    cover: object  # a _Cover, or None for a model without a support

    def forward(self, net, X, sparse):
        n = len(X)
        acc = np.empty((n, net.padding_channels - 1))
        covered = np.zeros(n, dtype=bool)
        if sparse and self.cover is not None:
            covered = np.all((X >= _SAFE_BOX[0]) & (X <= _SAFE_BOX[1]), axis=1)
        for rows, cover in ((np.flatnonzero(~covered), None), (np.flatnonzero(covered), self.cover)):
            step = self.step if cover is None else cover.step
            for a in range(0, len(rows), step):
                at = rows[a : a + step]
                acc[at] = self._block_sum(X[at], cover, acc.shape[1])
        Z = pad_input(X, net.padding_channels)
        Z[:, 0, 1:] = acc
        return _readout(net, Z)

    def _block_sum(self, X, cover, width):
        """Row 0 of channels 1..C-1 summed over the live (block, point) rows:
        those of the cover, or every row when ``cover`` is None."""
        D = X.shape[1]
        if cover is None:
            points = np.repeat(np.arange(len(X)), self.n_blocks)
            blocks = np.tile(np.arange(self.n_blocks), len(X))
        else:
            points, blocks = cover.rows(X, self.n_blocks)
        S = np.empty((len(points), width))
        group = self.block_group[blocks]
        for i, g in enumerate(self.groups):
            sel = np.flatnonzero(group == i)
            if sel.size:
                S[sel] = _group_summands(g, X, points[sel], self.block_pos[blocks[sel]], D)
        # the reference adds the summands one block after another; a skipped
        # block's summand is an exact 0.0, which changes no sum
        count = np.bincount(points, minlength=len(X))
        rank = np.arange(len(points)) - (np.cumsum(count) - count)[points]
        P = np.zeros((len(X), max(1, int(count.max(initial=0))), width))
        P[points, rank] = S
        return np.cumsum(P, axis=1)[:, -1]


def _distinct(arrays):
    """One copy of each distinct array, and each input's index among them
    (None when all inputs are equal)."""
    position, unique, index = {}, [], []
    for a in arrays:
        key = a.tobytes()
        if key not in position:
            position[key] = len(unique)
            unique.append(a)
        index.append(position[key])
    return np.stack(unique), (np.array(index) if len(unique) > 1 else None)


def _lower(net):
    """The execution plan of ``net``, or None when a condition fails."""
    if not net.blocks or not net.first_row_only or net.fc_weight[0, 0] != 0.0:
        return None
    for blk in net.blocks:
        if np.any(blk.filters[0].entries[:, :, 1:] != 0.0):
            return None
        if np.any(blk.filters[-1].entries[0] != 0.0) or np.any(blk.biases[-1][:, 0] != 0.0):
            return None
    groups = {}
    for i, blk in enumerate(net.blocks):
        groups.setdefault(tuple(f.entries.shape for f in blk.filters), []).append(i)
    plan = [_lower_group(net, idx) for idx in groups.values()]
    for g in plan:
        for layer in g.layers:
            if not (np.all(np.isfinite(layer.filters)) and np.all(np.isfinite(layer.biases))):
                return None
    n_blocks = len(net.blocks)
    block_group = np.empty(n_blocks, dtype=np.int64)
    block_pos = np.empty(n_blocks, dtype=np.int64)
    for i, g in enumerate(plan):
        block_group[g.blocks] = i
        block_pos[g.blocks] = np.arange(len(g.blocks))
    rows = max(layer.rows_in for g in plan for layer in g.layers)
    per_point = max(len(g.blocks) * max(layer.rows_in for layer in g.layers) for g in plan)
    step = max(1, _PLAN_ROW_BUDGET // max(n_blocks, per_point))
    cover = _lower_cover(net.support, rows) if net.support is not None else None
    return _Plan(plan, n_blocks, block_group, block_pos, step, cover)


def _lower_cover(support, rows):
    N, D = support.grid, support.nodes[0].shape[1]
    node = np.concatenate([np.ravel_multi_index(tuple(a.T), (N + 1,) * D) for a in support.nodes])
    block = np.repeat(np.arange(len(support.nodes)), [len(a) for a in support.nodes])
    count = np.bincount(node, minlength=(N + 1) ** D)
    starts = np.concatenate([[0], np.cumsum(count)])
    # at most two candidate nodes per axis
    live = min(len(support.nodes), 2**D * int(count.max()))
    step = max(1, _PLAN_ROW_BUDGET // (live * rows))
    return _Cover(N, starts, block[np.lexsort((block, node))], step)


def _lower_group(net, index):
    blocks = [net.blocks[i] for i in index]
    depth = blocks[0].depth
    # rows[l]: rows of layer l's input that row 0 of the block output needs
    rows = [1] * (depth + 1)
    for ell in reversed(range(depth)):
        rows[ell] = min(net.input_dim, rows[ell + 1] + blocks[0].filters[ell].width - 1)
    layers = []
    for ell in range(depth):
        filters = [b.filters[ell].entries for b in blocks]
        if ell == 0:
            filters = [w[:, :, :1] for w in filters]
        biases = [b.biases[ell][: rows[ell]] for b in blocks]
        layers.append(_PlanLayer(*_distinct(filters), *_distinct(biases), rows[ell], rows[ell + 1]))
    prefix = next((ell for ell, layer in enumerate(layers) if not layer.shared), depth)
    return _PlanGroup(np.array(index), layers, prefix)


def _group_summands(g, X, points, pos, D):
    """Row 0 of channels 1..C-1 of the conv stacks of the rows (points[i],
    block pos[i] of the group): (rows, C-1).  The shared prefix runs once per
    point; the rows are then padded to whole tiles with copies of the first."""
    H = X[:, : g.layers[0].rows_in, None]  # channel 0 of the padded input
    for layer in g.layers[: g.prefix]:
        H = _plan_layer(layer, H, D, None)
    R = len(points)
    pad = np.zeros(-R % _TILE_ROWS, dtype=np.int64)
    H = H[np.concatenate([points, pad + points[0]])]
    pos = np.concatenate([pos, pad + pos[0]])
    for layer in g.layers[g.prefix :]:
        H = _plan_layer(layer, H, D, pos)
    return H[:R, 0, 1:]


def _plan_layer(layer, H, D, pos):
    """Apply one layer to the activations H (rows, rows_in, Cin); ``pos``
    gives each row's block in the group (None while the rows are points)."""
    R, r_in, cin = H.shape
    W, r, T = layer.filters, layer.rows_out, _TILE_ROWS
    cout, K = W.shape[1], W.shape[2]
    if layer.shared and (D == 1 or K > 1):
        # each row's own rows_in x Cin products, as in the reference
        return kernels.conv_layer(W[0], layer.biases[0], H)[:, :r]
    if layer.shared:
        # one product per tile of rows
        b = layer.biases[0] if r == 1 else np.tile(layer.biases[0], (T, 1))
        Z = np.concatenate([H, np.zeros((-R % T, r, cin))]) if R % T else H
        return kernels.conv_layer(W[0], b, Z.reshape(-1, T * r, cin)).reshape(-1, r, cout)[:R]
    bias = layer.biases[:, :r]
    bias = bias[layer.bias_index[pos]] if layer.bias_index is not None else bias[0]
    f = layer.filter_index[pos] if layer.filter_index is not None else np.zeros(R, np.int64)
    slot, tile_filter = _tiles(f, len(W))
    Ht = np.zeros((len(tile_filter) * T, r_in, cin))
    Ht[slot] = H
    Wt = W[tile_filter]
    # as in kernels.conv_layer: bias plus the first tap, then the other taps in order
    for k in range(min(K, D)):
        rk = min(r, D - k)
        Z = Ht[:, k : k + rk]
        Wk = Wt[:, :, k, :].swapaxes(1, 2)
        if D == 1:
            P = Z.reshape(-1, T, rk, cin) @ Wk[:, None]  # single-row products, as in the reference
        else:
            P = Z.reshape(-1, T * rk, cin) @ Wk  # one product per tile
        P = P.reshape(-1, rk, cout)[slot]
        if k == 0:
            y = P + bias
        else:
            y[:, :rk] += P
    np.maximum(y, 0.0, out=y)
    return y


def _tiles(f, U):
    """Pack rows by filter: the rows whose filter is f[i] = u fill whole
    tiles of _TILE_ROWS rows (zero-padded) that all use filter u.  Returns
    each row's slot and each tile's filter."""
    T = _TILE_ROWS
    count = np.bincount(f, minlength=U)
    tiles = -(-count // T)
    order = np.argsort(f, kind="stable")
    fo = f[order]
    slot = np.empty(len(f), dtype=np.int64)
    slot[order] = (np.cumsum(tiles) - tiles)[fo] * T + np.arange(len(f)) - (np.cumsum(count) - count)[fo]
    return slot, np.repeat(np.arange(U), tiles)
