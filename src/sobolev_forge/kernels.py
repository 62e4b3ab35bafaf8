"""Forward kernels: one convolutional and one affine layer over a batch.

Every forward pass of the package runs through these two numpy functions.
"""

import numpy as np


def backend_name():
    return "numpy"


def conv_layer(w, b, z):
    """One-sided stride-one convolution + bias + ReLU over a batch of inputs.

    w: (Cout, K, Cin), b: (D, Cout), z: (n, D, Cin) -> (n, D, Cout).
    Rows past the end of the input read as zero.
    """
    D = z.shape[1]
    K = w.shape[1]
    y = z @ w[:, 0, :].T
    y += b  # the bias and the first tap, added in either order, round the same
    for k in range(1, min(K, D)):
        y[:, : D - k, :] += z[:, k:, :] @ w[:, k, :].T
    np.maximum(y, 0.0, out=y)
    return y


def mlp_layer(w, b, x, relu=True):
    """Affine layer over a batch: x (n, Cin) -> (n, Cout), optional ReLU.

    The bias is added in place into the product, which rounds as x @ w.T + b
    does without allocating a second (n, Cout) array."""
    y = x @ w.T
    y += b
    if relu:
        np.maximum(y, 0.0, out=y)
    return y
