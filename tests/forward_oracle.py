"""Forward loops and helpers that only the tests read.

The package runs every model through its execution plan
(``netcore.resnet_forward_batch``).  The loops here are written the plain
way, one layer and one block after another over full D x C activations, so
the tests can hold the plan and the builders against them:

* ``conv_forward`` and ``block_forward``: one bare convolution and one
  residual block on a single D x C input;
* ``resnet_forward_reference``: the sequential forward of a whole model;
* ``cnn_forward``: the forward of a ``CnnFunction``;
* ``compose_cnn``: f2 . f1 as one ``CnnFunction``, which criterion 3 checks;
* ``reference_psi_mlp``: the classic two-layer trapezoid net;
* ``fd_consistency``: a target's first partials against central differences.
"""

import numpy as np

from sobolev_forge import kernels
from sobolev_forge.algebra import CnnFunction, _const_bias
from sobolev_forge.metrics import fd_gradient_batch
from sobolev_forge.netcore import FilterTensor, ShapeError, block_stack, pad_input
from sobolev_forge.scalarnets import ScalarNet


def conv_forward(filt: FilterTensor, Z):
    """Bare one-sided stride-one convolution (no bias, no ReLU)."""
    Z = np.asarray(Z, dtype=np.float64)
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


def block_forward(block, Z):
    """Residual block: conv stack plus identity shortcut."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != block.filters[0].in_channels:
        raise ShapeError(
            f"input shape {Z.shape} does not match block input channels "
            f"{block.filters[0].in_channels}"
        )
    return block_stack(block, Z[None])[0] + Z


def resnet_forward_reference(net, X):
    """Sequential forward pass, block by block over full D x C activations."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ShapeError(f"input shape {X.shape} != (n, {net.input_dim})")
    Z = pad_input(X, net.padding_channels)
    for blk in net.blocks:
        Z = Z + block_stack(blk, Z)
    return np.tensordot(Z, net.fc_weight, axes=([1, 2], [0, 1])) + net.fc_bias


def cnn_forward(f: CnnFunction, X):
    """Batch forward of a CnnFunction: (n, D) -> (n,)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != f.input_dim:
        raise ShapeError(f"input shape {X.shape} != (n, {f.input_dim})")
    Z = X[:, :, None]
    for filt, b in f.conv_stack:
        Z = kernels.conv_layer(filt.entries, b, Z)
    return np.tensordot(Z, f.fc_weight, axes=([1, 2], [0, 1])) + f.fc_bias


def compose_cnn(f1: CnnFunction, f2: CnnFunction) -> CnnFunction:
    """Realize f2 . f1 as one CnnFunction; depth adds exactly.

    f1 maps R^D -> R and f2, as ``mlp_to_cnn`` realizes a net on R, maps
    R -> R through an input layer that encodes x as a +/- pair.  A bridge
    layer evaluates f1's readout into that pair, replacing f2's input layer.
    """
    if f2.input_dim != 1:
        raise ShapeError("f2 must be a scalar-input CNN")
    D = f1.input_dim
    last_w = f1.conv_stack[-1][0].out_channels
    w = np.zeros((2, 1, last_w))
    w[0, 0, :] = f1.fc_weight[0, :]
    w[1, 0, :] = -f1.fc_weight[0, :]
    bridge = (FilterTensor(w), _const_bias(D, [f1.fc_bias, -f1.fc_bias]))
    stack = list(f1.conv_stack) + [bridge]
    for f, b in f2.conv_stack[1:]:
        stack.append((f, _const_bias(D, b[0])))
    fc = np.zeros((D, f2.fc_weight.shape[1]))
    fc[0, :] = f2.fc_weight[0, :]
    return CnnFunction(D, stack, fc, f2.fc_bias)


def reference_psi_mlp() -> ScalarNet:
    """The classic two-layer realization of the unit trapezoid."""
    l1 = (np.ones((4, 1)), np.array([2.0, 1.0, -1.0, -2.0]))
    return ScalarNet([l1, (np.array([[1.0, -1.0, -1.0, 1.0]]), np.array([0.0]))])


def fd_consistency(target, rng, n=50, h=1e-5):
    """Max relative gap between a target's analytic first partials and
    central differences."""
    X = rng.uniform(0.05, 0.95, size=(n, target.dim))
    fd = fd_gradient_batch(target, X, h)
    worst = 0.0
    for j in range(target.dim):
        a = tuple(1 if k == j else 0 for k in range(target.dim))
        if a not in target.derivs:
            continue
        an = target.deriv(a, X)
        scale = np.maximum(np.abs(an), 1.0)
        worst = max(worst, float(np.max(np.abs(fd[:, j] - an) / scale)))
    return worst
