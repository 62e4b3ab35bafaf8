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

* the readout is first-row-only,
* each block's first filter reads only channel 0, and
* each block's last filter and last bias leave channel 0 at zero.

Then every block reads only the padded input and writes only channels
1..C-1, and only row 0 reaches the readout, so the blocks are independent
and each layer needs only the rows that feed row 0 through the filter widths
behind it.  Blocks are grouped by their layer shapes; within a group, a
layer whose filter and bias are the same in every block runs as one product
over all (block, point) rows, and any other layer as one stacked batched
product holding one copy of each distinct filter and bias.  Points are taken
in chunks so the stacked activations stay under ``_PLAN_ROW_BUDGET`` rows.

The plan adds the block summands in block order and makes the kind of
product the reference makes: matrix-matrix for D >= 2 and one row at a time
for D = 1.  With finite parameters it therefore reproduces the sequential
loop ``resnet_forward_reference`` bit for bit, provided BLAS rounds a row of
a matrix product the same whatever the row count.  Some BLAS builds do not
for inner dimensions of 32 and more (wide ``Jt``-grouped models); there the
two agree to rounding.  Models that fail a condition, including models
without blocks, run the sequential loop.
"""

from dataclasses import dataclass, field
from functools import cached_property

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
class ConvResNetModel:
    """Padding layer + residual blocks + fully-connected readout."""

    input_dim: int
    padding_channels: int
    blocks: list
    fc_weight: np.ndarray
    fc_bias: float
    first_row_only: bool = False

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
    model's execution plan when it has one."""
    X = _check_batch(net, X)
    plan = net._plan
    if plan is None:
        return resnet_forward_reference(net, X)
    return plan.forward(net, X)


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


@dataclass
class _PlanGroup:
    """Blocks with one layer-shape signature, by position in the model."""

    blocks: np.ndarray
    layers: list


@dataclass
class _Plan:
    """Execution plan of one model; see the module docstring."""

    groups: list
    n_blocks: int
    step: int  # points per chunk

    def forward(self, net, X):
        n, D = X.shape
        acc = np.empty((n, net.padding_channels - 1))
        for a in range(0, n, self.step):
            Xc = X[a : a + self.step]
            m = len(Xc)
            if D > 1 and m == 1:
                # evaluate a lone point twice so every product stays
                # matrix-matrix, as in the reference (BLAS rounds a
                # vector-matrix product differently)
                Xc = np.repeat(Xc, 2, axis=0)
            S = np.empty((self.n_blocks, len(Xc), net.padding_channels - 1))
            for g in self.groups:
                S[g.blocks] = _group_summands(g, Xc, D)
            # the reference adds the summands one block after another
            acc[a : a + m] = np.cumsum(S, axis=0)[-1, :m]
        Z = pad_input(X, net.padding_channels)
        Z[:, 0, 1:] = acc
        return _readout(net, Z)


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
    if not net.blocks or not net.first_row_only:
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
    per_point = max(len(g.blocks) * max(layer.rows_in for layer in g.layers) for g in plan)
    step = max(1, _PLAN_ROW_BUDGET // max(len(net.blocks), per_point))
    return _Plan(plan, len(net.blocks), step)


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
    return _PlanGroup(np.array(index), layers)


def _group_summands(g, X, D):
    """Row 0 of channels 1..C-1 of every block's conv stack: (blocks, n, C-1)."""
    H = X[None, :, : g.layers[0].rows_in, None]  # channel 0 of the padded input
    for layer in g.layers:
        H = _plan_layer(layer, H, D)
    return H[:, :, 0, 1:]


def _plan_layer(layer, H, D):
    """Apply one layer to activations H of shape (B, n, rows_in, Cin), where
    B is 1 while every block still holds the same values."""
    B, n, r_in, cin = H.shape
    W, r = layer.filters, layer.rows_out
    cout, K = W.shape[1], W.shape[2]
    if layer.filter_index is None and layer.bias_index is None:
        if D > 1 and K == 1:
            # one matrix product over all (block, point) rows
            rows = B * n * r
            b = np.broadcast_to(layer.biases[0][None], (B * n, r, cout)).reshape(rows, cout)
            y = kernels.conv_layer(W[0], b, H.reshape(1, rows, cin))
        else:
            y = kernels.conv_layer(W[0], layer.biases[0], H.reshape(B * n, r_in, cin))[:, :r]
        return y.reshape(B, n, r, cout)
    bias = layer.biases[:, None, :r]
    if layer.bias_index is not None:
        bias = bias[layer.bias_index]
    fi = layer.filter_index
    if fi is not None and B > 1:
        W = W[fi]
    # as in kernels.conv_layer: bias plus the first tap, then the other taps in order
    for k in range(min(K, D)):
        rk = min(r, D - k)
        Z = H[:, :, k : k + rk]
        Wk = W[:, :, k, :].swapaxes(1, 2)
        if D == 1:
            P = Z @ Wk[:, None]  # single-row products, as in the reference
        elif len(Wk) == 1:
            P = (Z.reshape(-1, cin) @ Wk[0]).reshape(B, n, rk, cout)
        else:
            P = (Z.reshape(B, n * rk, cin) @ Wk).reshape(-1, n, rk, cout)
        if fi is not None and B == 1:
            P = P[fi]
        if k == 0:
            y = P + bias
        else:
            y[:, :, :rk] += P
    np.maximum(y, 0.0, out=y)
    return y
