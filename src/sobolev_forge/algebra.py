"""Structural transformations: realization of a feed-forward ReLU net
(``scalarnets.ScalarNet``, the package's one such type) as a CNN,
channel-parallel grouping of sums, and assembly of a list of CNNs into one
convolutional residual network.

A ``CnnFunction`` is a scalar-valued map R^D -> R given by a padding of x
into a single input channel, a conv stack (ReLU after every layer), and a
fully-connected readout whose weight lives in the first row only.  The
realization ``mlp_to_cnn`` checks the net's layer shapes once and works in
two phases, with filters of width at most 2:

* gather: max(1, D-1) shift layers move x_0..x_{D-1} into row 0 as
  positive/negative channel pairs (signed values cannot live in a single
  post-ReLU channel);
* compute: each layer of the net becomes a 1-tap conv layer acting row-wise, so
  garbage rows never contaminate row 0; the final affine is emitted as a
  +/- pair read by the fc layer with weights +-1.

The ResNet assembly reserves two accumulator channels holding the positive
and negative parts of the running sum; each block computes its summand,
splits it, and adds it through the identity shortcut.  Member fc weights are
rescaled by s = min(1, kappa1/kappa2) before entering conv filters and the
model fc multiplies by 1/s, so conv magnitudes never exceed kappa1 and the
model fc stays within kappa2 * max(1, 1/kappa1).
"""

from dataclasses import dataclass

import numpy as np

from .netcore import ConvResNetModel, FilterTensor, ResidualBlockSpec, ShapeError, _max_abs
from .scalarnets import ScalarNet


@dataclass
class CnnFunction:
    """Scalar CNN f(x) = fc . ConvStack(P(x)) with a readout of row 0 only."""

    input_dim: int
    conv_stack: list  # ordered (FilterTensor, bias matrix (rows, Cout))
    fc_weight: np.ndarray
    fc_bias: float

    def __post_init__(self):
        self.fc_weight = np.asarray(self.fc_weight, dtype=np.float64)
        self.fc_bias = float(self.fc_bias)
        if np.any(self.fc_weight[1:, :] != 0.0):
            raise ShapeError("CnnFunction readout has nonzero fc rows below row 0")

    @property
    def depth(self):
        return len(self.conv_stack)

    @property
    def width(self):
        return max(max(f.out_channels, f.in_channels) for f, _ in self.conv_stack)

    @property
    def kappa1(self):
        return _max_abs(a for f, b in self.conv_stack for a in (f.entries, b))

    @property
    def kappa2(self):
        return max(float(np.max(np.abs(self.fc_weight))), abs(self.fc_bias))


def _const_bias(D, per_channel):
    return np.tile(np.asarray(per_channel, dtype=np.float64), (D, 1))


def _check_layers(layers):
    """ShapeError unless each bias has its weight's row count and the layers
    compose."""
    if not layers:
        raise ShapeError("a net needs at least one layer")
    for w, b in layers:
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ShapeError(f"bias shape {b.shape} does not fit weight shape {w.shape}")
    for (prev, _), (nxt, _) in zip(layers, layers[1:]):
        if nxt.shape[1] != prev.shape[0]:
            raise ShapeError(f"layer shapes do not compose: {prev.shape} then {nxt.shape}")


def mlp_to_cnn(net: ScalarNet) -> CnnFunction:
    """Realize a scalar-output ScalarNet as a CnnFunction; its filters have
    width at most 2.

    Depth grows by the gather phase only (max(1, D-1) layers <= D), channels
    stay within max(2D, net widths) <= 4J, and conv weight magnitudes equal
    the net's.  Output agrees with ``net.forward`` pointwise (exactly, up to
    float reassociation).
    """
    layers = net.layers
    _check_layers(layers)
    D = net.in_dim
    if net.out_dim != 1:
        raise ShapeError(f"CNN realization needs scalar output, got {net.out_dim}")
    stack = []
    if D == 1:
        w = np.zeros((2, 1, 1))
        w[0, 0, 0] = 1.0
        w[1, 0, 0] = -1.0
        stack.append((FilterTensor(w), np.zeros((1, 2))))
    else:
        # gather layer 1: pair 0 stays, pairs 1..D-1 shift up once
        w = np.zeros((2 * D, 2, 1))
        w[0, 0, 0] = 1.0
        w[1, 0, 0] = -1.0
        for d in range(1, D):
            w[2 * d, 1, 0] = 1.0
            w[2 * d + 1, 1, 0] = -1.0
        stack.append((FilterTensor(w), np.zeros((D, 2 * D))))
        for tau in range(2, D):
            w = np.zeros((2 * D, 2, 2 * D))
            for d in range(D):
                tap = 0 if d <= tau - 1 else 1
                w[2 * d, tap, 2 * d] = 1.0
                w[2 * d + 1, tap, 2 * d + 1] = 1.0
            stack.append((FilterTensor(w), np.zeros((D, 2 * D))))

    rows = 1 if D == 1 else D
    for t, (Wt, bt) in enumerate(layers):
        w = first_filter(Wt) if t == 0 else FilterTensor(Wt[:, None, :].copy())
        if t == len(layers) - 1:  # the final affine as a +/- pair
            w, bt = FilterTensor(np.concatenate([w.entries, -w.entries])), [bt[0], -bt[0]]
        stack.append((w, _const_bias(rows, bt)))

    fc = np.zeros((D, 2))
    fc[0, 0] = 1.0
    fc[0, 1] = -1.0
    return CnnFunction(D, stack, fc, 0.0)


def first_filter(W) -> FilterTensor:
    """The filter of ``mlp_to_cnn`` realizing a net's first layer W (unless
    it is the last): one tap, whose columns read the gathered +/- pair of
    each input coordinate."""
    w = np.zeros((W.shape[0], 1, 2 * W.shape[1]))
    w[:, 0, 0::2] = W
    w[:, 0, 1::2] = -W
    return FilterTensor(w)


def restamp(f: CnnFunction, w: FilterTensor, bias, scale) -> CnnFunction:
    """f, as mlp_to_cnn realized it, with the layer realizing the net's first
    (not last) layer replaced by the filter ``w`` (a ``first_filter``) and
    the bias vector ``bias``, and the readout scaled by ``scale``.  Every
    other layer is f's own."""
    t = max(1, f.input_dim - 1)  # the gather layers come first
    want = f.conv_stack[t][0].entries.shape
    if w.entries.shape != want or len(bias) != w.out_channels:
        raise ShapeError(f"first layer {w.entries.shape} with {len(bias)} biases for {want}")
    stack = f.conv_stack[:t] + [(w, _const_bias(f.input_dim, bias))] + f.conv_stack[t + 1 :]
    return CnnFunction(f.input_dim, stack, scale * f.fc_weight, f.fc_bias)


def extend_cnn_depth(f: CnnFunction, depth: int) -> CnnFunction:
    """Append exact identity conv layers (all channels are post-ReLU, hence
    nonnegative) until the stack has the requested depth."""
    if f.depth > depth:
        raise ShapeError(f"cannot shrink stack: depth {f.depth} > {depth}")
    stack = list(f.conv_stack)
    rows = stack[-1][1].shape[0]
    while len(stack) < depth:
        C = stack[-1][0].out_channels
        stack.append((FilterTensor(np.eye(C)[:, None, :]), np.zeros((rows, C))))
    return CnnFunction(f.input_dim, stack, f.fc_weight, f.fc_bias)


def _check_shared(cnns):
    depth = cnns[0].depth
    D = cnns[0].input_dim
    for g in cnns:
        if g.depth != depth or g.input_dim != D:
            raise ShapeError(
                f"heterogeneous architectures: depth/dim ({g.depth}, {g.input_dim}) "
                f"vs ({depth}, {D})"
            )


def widest(cnns):
    """The largest width of the CNNs, reading a layer they share once."""
    filters = [f for g in cnns for f, _ in g.conv_stack]
    shapes = {f.entries.shape for f in dict(zip(map(id, filters), filters)).values()}
    return max(max(cout, cin) for cout, _, cin in shapes)


def _group_filter(member_filters, first):
    """Member filters side by side: disjoint output channels, and disjoint
    input channels except in the first layer, where all read the input."""
    K = max(fe.shape[1] for fe in member_filters)
    cout = sum(fe.shape[0] for fe in member_filters)
    cin = 1 if first else sum(fe.shape[2] for fe in member_filters)
    w = np.zeros((cout, K, cin))
    r0 = c0 = 0
    for fe in member_filters:
        co, k, ci = fe.shape
        w[r0 : r0 + co, :k, c0 : c0 + ci] = fe
        r0 += co
        c0 += 0 if first else ci
    return FilterTensor(w)


def parallel_sum(cnns, group_width: int):
    """Group n0 same-architecture CNNs into ceil(n0/c) wider CNNs, c = floor(Jt/J0),
    whose sum equals the sum of the inputs (up to float reassociation).

    Members of a group run in disjoint channel blocks reading the shared
    input channel; the group fc concatenates member readouts, so grouping
    preserves kappa.
    """
    _check_shared(cnns)
    J0 = widest(cnns)
    if group_width < J0:
        raise ValueError(f"group width {group_width} < member width {J0}")
    c = group_width // J0
    # groups whose members share their layers share the group layers
    filters, biases, groups = {}, {}, []
    for i0 in range(0, len(cnns), c):
        members = cnns[i0 : i0 + c]
        if len(members) == 1:
            groups.append(members[0])
            continue
        stack = []
        for ell in range(members[0].depth):
            layers = [g.conv_stack[ell] for g in members]
            key = tuple(id(f) for f, _ in layers)
            if key not in filters:
                filters[key] = _group_filter([f.entries for f, _ in layers], ell == 0)
            key_b = tuple(id(b) for _, b in layers)
            if key_b not in biases:
                biases[key_b] = np.hstack([b for _, b in layers])
            stack.append((filters[key], biases[key_b]))
        D = members[0].input_dim
        fc = np.zeros((D, stack[-1][0].out_channels))
        fc[0, :] = np.concatenate([g.fc_weight[0, :] for g in members])
        groups.append(CnnFunction(D, stack, fc, sum(g.fc_bias for g in members)))
    return groups


def assemble_resnet(cnns, support=None) -> ConvResNetModel:
    """Realize sum_i f_i as a ConvResNet: one residual block per CNN, with two
    accumulator channels carrying the positive/negative parts of the partial
    sum through the identity shortcuts, and the BlockSupport ``support``.

    A block holds its member's layers and bias matrices themselves, so
    members that share a layer give blocks that share it; kappa1 reads each
    distinct array once."""
    _check_shared(cnns)
    D = cnns[0].input_dim
    C = 3  # channel 0: padded input, channels 1-2: accumulator pair
    kappa1 = _max_abs([a for g in cnns for f, b in g.conv_stack for a in (f.entries, b)])
    kappa2 = max(g.kappa2 for g in cnns)
    s = min(1.0, kappa1 / kappa2) if (kappa2 > 0 and kappa1 > 0) else 1.0
    firsts, readout_biases, blocks = {}, {}, []
    for g in cnns:
        f0 = g.conv_stack[0][0]
        if id(f0) not in firsts:
            w = np.zeros((f0.out_channels, f0.width, C))
            w[:, :, 0] = f0.entries[:, :, 0]
            firsts[id(f0)] = FilterTensor(w)
        filters = [firsts[id(f0)]] + [f for f, _ in g.conv_stack[1:]]
        biases = [b for _, b in g.conv_stack]
        last_w = g.conv_stack[-1][0].out_channels
        w = np.zeros((C, 1, last_w))
        w[1, 0, :] = s * g.fc_weight[0, :]
        w[2, 0, :] = -s * g.fc_weight[0, :]
        filters.append(FilterTensor(w))
        key = np.float64(g.fc_bias).tobytes()  # +0.0 and -0.0 apart
        if key not in readout_biases:
            readout_bias = np.zeros((D, C))
            readout_bias[:, 1] = s * g.fc_bias
            readout_bias[:, 2] = -s * g.fc_bias
            readout_biases[key] = readout_bias
        biases.append(readout_biases[key])
        blocks.append(ResidualBlockSpec(filters, biases))
    fc = np.zeros((D, C))
    fc[0, 1] = 1.0 / s
    fc[0, 2] = -1.0 / s
    return ConvResNetModel(D, C, blocks, fc, 0.0, support=support)
