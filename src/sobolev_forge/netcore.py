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

Pool.  The blocks of one monomial share all layers but the stamped first
bias and the readout: an alpha=2, N=16 model names 81,498 arrays, 909 of them
distinct.  Constructing a model makes one pass over its blocks that lists
each distinct array once, with each block's indices into that list
(``_pool``), and checks each distinct array and block layout (filter and bias
shapes) once.  The check of the plan's conditions, the plan, ``audit_class``
and the file writer read this pool.

Execution plan.  Every model meets the plan's conditions; the constructor
checks them once (``_check_plan``) and raises a PlanError (a ShapeError)
that names the one that fails:

* every filter and bias is finite,
* the readout reads only row 0 and gives channel 0 a zero weight,
* each block's first filter reads only channel 0, and
* each block's last filter and last bias leave channel 0 at zero.

Then every block reads only the padded input and writes only channels
1..C-1, and only row 0 reaches the readout, so the blocks are independent
and each layer needs only the rows that feed row 0 through the filter widths
behind it.  ``resnet_forward_batch`` lowers a model once into its plan,
cached on the model (the cache, like the pool, is sound only because models
are never mutated after construction).  The plan works on (block, point)
rows.  Blocks are grouped by their layout; a group's leading layers whose
filter and bias are the same in every block (the gather prefix) run once per
point, and every later layer runs over the group's live rows: a shared layer
as one product over them, a layer with distinct weights as one product per
distinct filter present.  The block summands of a point are added from +0.0
in block order, one ``np.add.at`` per accumulator channel.  Points are taken
in chunks so the stacked activations stay under ``_PLAN_ROW_BUDGET`` rows.  A
point with a non-finite coordinate gets nan without running any block: the
readout multiplies x, in channel 0, by a zero weight, so its value is nan
whatever the blocks give.  A model without blocks is the constant ``fc_bias``.

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
only it can see a block that fails to annihilate.  Most dense rows are one
and the same row, because a trapezoid factor is exactly 0 away from its
node.  So on dense rows, after each shared layer that narrows (fewer output
than input channels), the rows are keyed by their bytes
(``_distinct_rows``), the layers that follow run on one row per key,
padded to whole tiles, and the rows are expanded back before the next
layer with distinct weights, the per-block readout.  The functional
evaluator keys the steps of its product-net fold with the same function
(``taylor._fold_rows``).  At the build's 100 check points the alpha=2 N=4
model's 7,500 rows are 1,332 distinct rows after the first such layer.
This is exact: by "Bits" below, a row's value depends only on its own input
row and the layer, not on which or how many other rows run with it, as the
sparse == dense gate relies on too.  Sparse rows are not keyed; few of them
repeat.

Bits.  Each matrix product of a 1-tap layer with D >= 2 runs in tiles of
``_TILE_ROWS`` rows, one shape whatever the number of live rows, so a row's
value does not depend on which other rows are live, and the support-sparse
forward reproduces the dense one bit for bit.  A sequential loop over full
D x C activations (``block_stack`` block by block) multiplies D - k rows at
tap k.  The plan makes a one-row product exactly where that loop does, at
tap D - 1, and a layer wider than one tap reads all D rows; every other
product of either has two rows or more.  (OpenBLAS 0.3, for one, rounds a
one-row product with an inner dimension of 4 or more unlike a row of a
taller one.)  The plan therefore reproduces the loop bit for bit, provided
BLAS rounds a row of a product of two or more rows the same whatever the
row count.  Some BLAS builds do not for inner dimensions of 16 and more
(wide ``Jt``-grouped models); there the two agree to rounding.  The loop
itself is a test oracle, in ``tests/forward_oracle.py``.

Lowering lays out the filters of those 1-tap layers once for BLAS to read
row-major (``w[:, 0, :].T`` C-contiguous), and tiles a shared one's bias.
With OpenBLAS 0.3.31 (Haswell kernels) on a Xeon VM a 64-row tile of a 14 x
14 layer takes 2.7 us laid out so and 4.0 us in the filter's own layout,
and the two layouts round alike for inner dimensions up to 15 and apart
from 16 on.  So from ``_ROW_MAJOR_WIDTH`` = 16 on a filter keeps its own
layout, and the layout changes no bit; a test checks the agreement below.
Both forward paths tile shared biases: the functional path's
``ScalarNet`` adds each 1-D bias from a tile of 4096 rows shared by every
net with that bias (``scalarnets.bias_tile``).
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product

import numpy as np

from . import kernels


class ShapeError(ValueError):
    """Raised when tensor shapes do not compose."""


class PlanError(ShapeError):
    """Raised when a model breaks one of the plan's conditions."""


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

    ``biases[l]`` is a full D x Cout float64 matrix (builders emit
    channel-constant biases, but the representation does not require it).
    The first layer's input channel count must equal the last layer's output
    channel count so the identity shortcut is well-typed.  A block is a
    plain holder: the model that holds it checks these shapes.
    """

    filters: list
    biases: list

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


_Pool = namedtuple("_Pool", "arrays index starts depths layouts")  # see _pool


def _pool(net):
    """The pool of ``net``.  ``arrays`` holds each distinct filter entry array
    and bias once (by object, then by shape and bytes, so 0.0 and -0.0 stay
    apart), in the order the blocks first name them, a block's filters before
    its biases.  Block b's names are ``index[starts[b]:]``: its ``depths[b]``
    filters, then as many biases.  ``layouts[b]`` numbers its filter and bias
    shapes, in the order the blocks first show them."""
    refs = [a for blk in net.blocks for a in [t.entries for t in blk.filters] + blk.biases]
    ids = np.fromiter(map(id, refs), np.uintp, len(refs))  # the blocks keep each id's array alive
    _, first, name = np.unique(ids, return_index=True, return_inverse=True)
    pooled, by_bytes, by_shape = np.empty(len(first), dtype=np.int64), {}, {}
    for k in np.argsort(first).tolist():  # each object once, first met first
        a = refs[first[k]]
        if not isinstance(a, np.ndarray) or a.dtype != np.float64:
            got = a.dtype if isinstance(a, np.ndarray) else type(a).__name__
            raise ShapeError(f"filters and biases must be float64 ndarrays, got {got}")
        pooled[k] = by_bytes.setdefault((a.shape, a.tobytes()), (len(by_bytes), a))[0]
    arrays = [a for _, a in by_bytes.values()]
    index = pooled[name]
    kind = np.array([by_shape.setdefault(a.shape, len(by_shape)) for a in arrays], dtype=np.int64)[index]
    shapes = list(by_shape)  # kind[j] numbers the shape of name j
    counts = [(len(blk.filters), len(blk.biases)) for blk in net.blocks]
    starts = np.cumsum([0] + [nf + nb for nf, nb in counts], dtype=np.int64)[:-1]
    layouts, layout_of = {}, []
    for s, (nf, nb) in zip(starts.tolist(), counts):
        key = (nf, kind[s : s + nf + nb].tobytes())
        if key not in layouts:
            layout = [shapes[k] for k in kind[s : s + nf + nb]]
            _check_layout(layout[:nf], layout[nf:], net.input_dim, net.padding_channels)
            layouts[key] = len(layouts)
        layout_of.append(layouts[key])
    depths = np.array([nf for nf, _ in counts], dtype=np.int64)
    return _Pool(arrays, index, starts, depths, np.array(layout_of, dtype=np.int64))


def _check_layout(filters, biases, D, C):
    """ShapeError unless blocks of these filter and bias shapes map D x C to D x C."""
    if len(filters) != len(biases) or not filters:
        raise ShapeError(
            f"block needs matching filter/bias lists, got {len(filters)} filters "
            f"and {len(biases)} biases"
        )
    for f, b in zip(filters, biases):
        if len(b) != 2 or b[1] != f[0]:
            raise ShapeError(f"bias shape {b} does not match filter out-channels {f[0]}")
        if b[0] != D:
            raise ShapeError(f"bias rows {b[0]} != input dim {D}")
    for prev, nxt in zip(filters, filters[1:]):
        if nxt[2] != prev[0]:
            raise ShapeError(f"layer shapes do not compose: {prev} then {nxt}")
    if filters[0][2] != filters[-1][0]:
        raise ShapeError(
            f"block must map D x C to D x C: first input channels {filters[0][2]} "
            f"!= last output channels {filters[-1][0]}"
        )
    if filters[0][2] != C:
        raise ShapeError(f"block input channels {filters[0][2]} != padding channels {C}")


@dataclass
class ConvResNetModel:
    """Padding layer + residual blocks + fully-connected readout, with an
    optional BlockSupport that lets the forward skip blocks."""

    input_dim: int
    padding_channels: int
    blocks: list
    fc_weight: np.ndarray
    fc_bias: float
    support: BlockSupport = None

    def __post_init__(self):
        self.fc_weight = _as_f64(self.fc_weight)
        self.fc_bias = float(self.fc_bias)
        D, C = self.input_dim, self.padding_channels
        if self.fc_weight.shape != (D, C):
            raise ShapeError(f"fc weight shape {self.fc_weight.shape} != ({D}, {C})")
        self._pool = _pool(self)
        _check_plan(self)
        if self.support is not None and (
            len(self.support.nodes) != len(self.blocks)
            or any(a.shape[1] != D for a in self.support.nodes)
        ):
            raise ShapeError(f"support must list {D}-d nodes for each of the {len(self.blocks)} blocks")

    @cached_property
    def _plan(self):
        return _lower(self)


@dataclass
class NetClassParams:
    """Measured architecture-class membership of a concrete model."""

    M: int
    L: int
    J: int
    K: int
    kappa1: float
    kappa2: float
    first_row_only: bool = True  # not measured: a plan condition every model meets


def block_stack(block: ResidualBlockSpec, Z_batch: np.ndarray) -> np.ndarray:
    """Conv stack of a block over a batch (n, D, C): ReLU after every layer."""
    out = Z_batch
    for f, b in zip(block.filters, block.biases):
        out = kernels.conv_layer(f.entries, b, out)
    return out


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


def _readout(net, Z):
    # the product np.tensordot(Z, net.fc_weight, 2) makes, without its overhead
    return np.dot(Z.reshape(len(Z), -1), net.fc_weight.reshape(-1, 1))[:, 0] + net.fc_bias


def resnet_forward_batch(net: ConvResNetModel, X: np.ndarray) -> np.ndarray:
    """Forward pass over a batch of inputs, shape (n, D) -> (n,), through the
    model's execution plan: with a support, each point in the safe box runs
    only the blocks that can cover it."""
    return _forward(net, X, sparse=True)


def resnet_forward_dense(net: ConvResNetModel, X: np.ndarray) -> np.ndarray:
    """The same forward with every block at every point.  Only this pass can
    see a block that fails to vanish off its support, so the build's
    equality check runs it."""
    return _forward(net, X, sparse=False)


def _forward(net, X, sparse):
    X = _check_batch(net, X)
    return _on_finite_rows(lambda Y: net._plan.forward(net, Y, sparse), X)


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


def _max_abs(arrays):
    """The largest |entry| over the arrays (0.0 for none), as one reduction
    in which an array held several times counts once."""
    arrays = list(arrays)
    distinct = dict(zip(map(id, arrays), arrays))
    if not distinct:
        return 0.0
    return float(np.max(np.abs(np.concatenate([np.ravel(a) for a in distinct.values()]))))


def audit_class(net: ConvResNetModel) -> NetClassParams:
    """Measure (M, L, J, K, kappa1, kappa2) of a concrete model from its pool.

    J is the maximum channel count seen anywhere (padding included); kappa2
    covers both the fc weight and the fc bias.
    """
    pool = net._pool
    M = len(net.blocks)
    L = int(pool.depths.max(initial=0))
    shapes = {a.shape for a in pool.arrays if a.ndim == 3}
    J = max([net.padding_channels] + [max(cout, cin) for cout, _, cin in shapes])
    K = max((k for _, k, _ in shapes), default=0)
    kappa1 = _max_abs(pool.arrays)
    kappa2 = max(float(np.max(np.abs(net.fc_weight))), abs(net.fc_bias))
    return NetClassParams(M=M, L=L, J=J, K=K, kappa1=kappa1, kappa2=kappa2)


# Stacked activations of one chunk of points stay under this many rows,
# counted over (block, point, row).
_PLAN_ROW_BUDGET = 1 << 14
# Rows of every matrix product of a 1-tap layer (D >= 2), whatever the number
# of live rows; a multiple of 16, so no row of a tile falls in the remainder
# path of a BLAS kernel.
_TILE_ROWS = 64
# The filters of a 1-tap layer with D >= 2 are laid out so that BLAS reads
# them row-major (the faster operand here) when their inner dimension is
# below this width; see "Bits" in the module docstring.
_ROW_MAJOR_WIDTH = 16
# An odd multiplier of the row hash of _distinct_rows.
_ROW_HASH = np.uint64(0x9E3779B97F4A7C15)
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
    whole group shares one.  A ``tiled`` layer (shared, one tap, D >= 2)
    runs in whole tiles: its bias is (1, _TILE_ROWS * rows_in, Cout).
    """

    filters: np.ndarray
    filter_index: object
    biases: np.ndarray
    bias_index: object
    rows_in: int
    rows_out: int
    tiled: bool = False

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
    offsets: np.ndarray  # (2^D, 1, D): the candidate offsets {0, 1}^D

    def rows(self, X, n_blocks):
        """The (point, block) rows that can be nonzero at the points X (all
        in the safe box), sorted by point and then block.  The 2^D candidate
        nodes of all points are found at once, as in ``taylor._cover``."""
        N, D = self.grid, X.shape[1]
        m = np.floor(N * X - _COVER_REACH).astype(np.int64) + 1 + self.offsets
        off, p = np.nonzero(np.all((m >= 0) & (m <= N) & (m < N * X + _COVER_REACH), axis=2))
        node = np.ravel_multi_index(tuple(m[off, p].T), (N + 1,) * D)
        first = self.starts[node]
        count = self.starts[node + 1] - first
        at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        keys = np.unique(np.repeat(p, count) * n_blocks + self.blocks[at])  # a grouped block once
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
        Z = pad_input(X, net.padding_channels)
        covered = np.zeros(len(X), dtype=bool)
        if sparse and self.cover is not None:
            covered = np.all((X >= _SAFE_BOX[0]) & (X <= _SAFE_BOX[1]), axis=1)
        for rows, cover in ((np.flatnonzero(~covered), None), (np.flatnonzero(covered), self.cover)):
            step = self.step if cover is None else cover.step
            for a in range(0, len(rows), step):
                at = rows[a : a + step]
                Z[at, 0, 1:] = self._block_sum(X[at], cover, Z.shape[2] - 1)
        return _readout(net, Z)

    def _block_sum(self, X, cover, width):
        """Row 0 of channels 1..C-1 summed over the live (block, point) rows:
        those of the cover, or every row when ``cover`` is None."""
        D, dense = X.shape[1], cover is None
        if dense:
            points = np.repeat(np.arange(len(X)), self.n_blocks)
            blocks = np.tile(np.arange(self.n_blocks), len(X))
        else:
            points, blocks = cover.rows(X, self.n_blocks)
        S = np.empty((len(points), width))
        group = self.block_group[blocks]
        for i, g in enumerate(self.groups):
            sel = np.flatnonzero(group == i)
            if sel.size:
                S[sel] = _group_summands(g, X, points[sel], self.block_pos[blocks[sel]], D, dense)
        # the rows are sorted by point and then block, so add.at adds each
        # point's summands from +0.0 one block after another, as the sequential
        # loop does; a skipped block's summand is an exact 0.0, which changes no sum
        out = np.zeros((len(X), width))
        for c in range(width):
            np.add.at(out[:, c], points, S[:, c])
        return out


def _check_plan(net):
    """PlanError, naming the condition, unless ``net`` meets the plan's
    conditions (see the module docstring).  Reads each distinct array once."""
    pool = net._pool
    arrays, last = pool.arrays, pool.starts + pool.depths - 1  # each block's last filter
    if arrays and not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
        raise PlanError("filters and biases must be finite")
    if net.fc_weight[0, 0] != 0.0 or np.any(net.fc_weight[1:] != 0.0):
        raise PlanError("the readout must read only row 0 and give channel 0 a zero weight")
    if any(np.any(arrays[i][:, :, 1:] != 0.0) for i in np.unique(pool.index[pool.starts])):
        raise PlanError("a block's first filter must read only channel 0")
    if any(np.any(arrays[i][0] != 0.0) for i in np.unique(pool.index[last])) or any(
        np.any(arrays[i][:, 0] != 0.0) for i in np.unique(pool.index[last + pool.depths])
    ):
        raise PlanError("a block's last filter and last bias must leave channel 0 at zero")


def _lower(net):
    """The execution plan of ``net``."""
    pool = net._pool
    # a group per block layout, in the order the blocks first show them
    layouts = range(pool.layouts.max(initial=-1) + 1)
    plan = [_lower_group(net, np.flatnonzero(pool.layouts == g)) for g in layouts]
    n_blocks = len(net.blocks)
    block_pos = np.empty(n_blocks, dtype=np.int64)
    for g in plan:
        block_pos[g.blocks] = np.arange(len(g.blocks))
    rows = max((layer.rows_in for g in plan for layer in g.layers), default=1)
    per_point = max((len(g.blocks) * max(layer.rows_in for layer in g.layers) for g in plan), default=1)
    step = max(1, _PLAN_ROW_BUDGET // max(n_blocks, per_point))
    cover = _lower_cover(net.support, rows) if net.support is not None and n_blocks else None
    return _Plan(plan, n_blocks, pool.layouts, block_pos, step, cover)


def _lower_cover(support, rows):
    N, D = support.grid, support.nodes[0].shape[1]
    node = np.concatenate([np.ravel_multi_index(tuple(a.T), (N + 1,) * D) for a in support.nodes])
    block = np.repeat(np.arange(len(support.nodes)), [len(a) for a in support.nodes])
    count = np.bincount(node, minlength=(N + 1) ** D)
    starts = np.concatenate([[0], np.cumsum(count)])
    # at most two candidate nodes per axis
    live = min(len(support.nodes), 2**D * int(count.max()))
    step = max(1, _PLAN_ROW_BUDGET // (live * rows))
    offsets = np.array(list(iter_product((0, 1), repeat=D)), dtype=np.int64)[:, None]
    return _Cover(N, starts, block[np.lexsort((block, node))], step, offsets)


def _lower_group(net, index):
    pool = net._pool
    depth = int(pool.depths[index[0]])
    F = pool.index[pool.starts[index, None] + np.arange(depth)]  # (blocks, depth) names
    B = pool.index[pool.starts[index, None] + np.arange(depth, 2 * depth)]
    # rows[l]: rows of layer l's input that row 0 of the block output needs;
    # a layer wider than one tap reads all D, so each tap multiplies as many
    # rows as the sequential loop's does (see "Bits" in the module docstring)
    rows = [1] * (depth + 1)
    for ell in reversed(range(depth)):
        rows[ell] = rows[ell + 1] if pool.arrays[F[0, ell]].shape[1] == 1 else net.input_dim
    layers = []
    for ell in range(depth):
        # the first layer reads channel 0 only; row 0 needs rows[ell] rows
        first = (lambda w: w[:, :, :1]) if ell == 0 else (lambda w: w)
        filters = _stacked(pool.arrays, F[:, ell], first)
        biases = _stacked(pool.arrays, B[:, ell], lambda b: b[: rows[ell]])
        layer = _PlanLayer(*filters, *biases, rows[ell], rows[ell + 1])
        W = layer.filters
        if net.input_dim > 1 and W.shape[2] == 1:
            # products in whole tiles, laid out once (see "Bits" in the module docstring)
            if W.shape[3] < _ROW_MAJOR_WIDTH:  # each W[u, :, 0, :].T C-contiguous
                layer.filters = np.ascontiguousarray(W.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
            if layer.shared:  # the bias of a whole tile: (1, _TILE_ROWS * rows, Cout)
                b = layer.biases[:, None].repeat(_TILE_ROWS, axis=1)
                layer.biases, layer.tiled = b.reshape(1, -1, b.shape[3]), True
        layers.append(layer)
    prefix = next((ell for ell, layer in enumerate(layers) if not layer.shared), depth)
    return _PlanGroup(index, layers, prefix)


def _stacked(arrays, index, view):
    """The stack of view(a) over the pooled arrays a that ``index`` names, one
    name per block, and each block's place in it (None when all name one)."""
    if (index == index[0]).all():
        return view(arrays[index[0]])[None], None
    named, position = np.unique(index, return_inverse=True)
    return np.stack([view(arrays[i]) for i in named]), position


def _group_summands(g, X, points, pos, D, dense):
    """Row 0 of channels 1..C-1 of the conv stacks of the rows (points[i],
    block pos[i] of the group): (rows, C-1).  The shared prefix runs once per
    point; the rows are then padded to whole tiles with copies of the first.
    When the rows are ``dense``, the shared layers after one that narrows
    run on each distinct row once, up to the next layer with distinct
    weights."""
    H = X[:, : g.layers[0].rows_in, None]  # channel 0 of the padded input
    for layer in g.layers[: g.prefix]:
        H = _plan_layer(layer, H, D, None)
    R = len(points)
    pad = np.zeros(-R % _TILE_ROWS, dtype=np.int64)
    H = H[np.concatenate([points, pad + points[0]])]
    pos = np.concatenate([pos, pad + pos[0]])
    place = None  # while set, row i's activations are H[place[i]]
    for layer in g.layers[g.prefix :]:
        w, b = layer.filters[0], layer.biases[0]
        if layer.tiled:  # whole tiles: (tiles, _TILE_ROWS * rows, Cin)
            H = kernels.conv_layer(w, b, H.reshape(-1, len(b), w.shape[2]))
        else:
            H = H.reshape(-1, layer.rows_in, w.shape[2])
            if place is not None and not layer.shared:
                H, place = H[place], None
            H = _plan_layer(layer, H, D, pos)
        if dense and layer.shared and w.shape[0] < w.shape[2]:
            H = H.reshape(-1, layer.rows_out, w.shape[0])
            first, distinct = _distinct_rows(H)
            pad = np.zeros(-len(first) % _TILE_ROWS, dtype=np.int64)
            H = H.take(np.concatenate([first, pad + first[0]]), axis=0)
            place = distinct if place is None else distinct[place]
    H = H.reshape(-1, H.shape[-1])  # the last layer has one output row
    return (H if place is None else H[place])[:R, 1:]


def _distinct_rows(H):
    """(first, place): the index of one row of H per distinct row, by their
    bytes, and each row's place among them, so H[first][place] is H.  The
    rows are sorted by a hash of their bytes, and a row starts a new
    distinct row where its bytes differ from the row before: a hash
    collision can only keep equal rows apart, never join different ones."""
    R = len(H)
    A = np.ascontiguousarray(H).reshape(R, -1).view(np.uint64)
    key = A[:, 0].copy()
    for a in A.T[1:]:
        key *= _ROW_HASH  # wraps around
        key += a
    order = np.argsort(key)
    S = A.take(order, axis=0)
    new = np.zeros(R, dtype=bool)
    new[0] = True
    for s in S.T:
        new[1:] |= s[1:] != s[:-1]
    place = np.empty(R, dtype=np.int64)
    place[order] = np.cumsum(new) - 1
    return order[new], place


def _plan_layer(layer, H, D, pos):
    """Apply one layer to the activations H (rows, rows_in, Cin); ``pos``
    gives each row's block in the group (None while the rows are points).  A
    shared layer does not read it."""
    R, r_in, cin = H.shape
    W, r, T = layer.filters, layer.rows_out, _TILE_ROWS
    cout, K = W.shape[1], W.shape[2]
    if layer.tiled:
        # one product per tile of rows
        Z = np.concatenate([H, np.zeros((-R % T, r, cin))]) if R % T else H
        return kernels.conv_layer(W[0], layer.biases[0], Z.reshape(-1, T * r, cin)).reshape(-1, r, cout)[:R]
    if layer.shared:
        # each row's own rows_in x Cin products, as in the sequential loop
        return kernels.conv_layer(W[0], layer.biases[0], H)[:, :r]
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
        if D - k == 1:
            P = Z.reshape(-1, T, rk, cin) @ Wk[:, None]  # single-row products, as in the loop
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
