"""Grid-based estimators of the norms the studies are stated in.

All infinity-norms of piecewise-linear networks are estimated on grids whose
points carry an irrational offset (sqrt(2)*1e-7), keeping them off the
construction breakpoints k/(3N) for N <= 64; estimates are lower bounds of
the true (essential) suprema.
"""

import math
from dataclasses import dataclass, field

import numpy as np

KINK_OFFSET = math.sqrt(2.0) * 1e-7
FD_STEP_NET = 1e-6  # piecewise-linear evaluators: exact slopes off kinks
FD_STEP_SMOOTH = 1e-4  # smooth analytic targets: truncation/rounding balance


@dataclass
class EvalGrid:
    """Cartesian midpoint grid strictly inside (0,1)^D with kink offset."""

    dim: int
    resolution: int
    offset: float = KINK_OFFSET
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        axis = (np.arange(self.resolution) + 0.5) / self.resolution + self.offset
        mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
        self.points = np.stack([m.ravel() for m in mesh], axis=1)

    @property
    def cell_volume(self):
        return (1.0 / self.resolution) ** self.dim


def _eval_batch(g, X):
    return np.asarray(g(X), dtype=np.float64).ravel()


def fd_gradient_batch(g, X, h):
    """Central-difference gradients at a batch of points, shape (n, D)."""
    X = np.atleast_2d(X)
    n, D = X.shape
    grads = np.empty((n, D))
    for j in range(D):
        hi = X.copy()
        lo = X.copy()
        hi[:, j] += h
        lo[:, j] -= h
        grads[:, j] = (_eval_batch(g, hi) - _eval_batch(g, lo)) / (2.0 * h)
    return grads


def grid_norm(g, k, p, grid: EvalGrid, fd_step=FD_STEP_NET):
    """W^{k,p} norm estimate of a batch evaluator g on the grid, k in {0, 1}.

    p = inf takes maxima; finite p uses midpoint Riemann sums.  The k = 1
    norm combines the value norm with all first-order central-difference
    partials, following the ell^p-over-multi-indices definition.
    """
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    vals = np.abs(_eval_batch(g, grid.points))
    if k == 0:
        if p == math.inf:
            return float(np.max(vals))
        return float((np.sum(vals**p) * grid.cell_volume) ** (1.0 / p))
    grads = np.abs(fd_gradient_batch(g, grid.points, fd_step))
    if p == math.inf:
        return float(max(np.max(vals), np.max(grads)))
    total = np.sum(vals**p) * grid.cell_volume
    total += np.sum(grads**p) * grid.cell_volume
    return float(total ** (1.0 / p))


def sample_pairs(rng, dim, count, domain=(0.0, 1.0)):
    """Random point pairs in the domain box for the Lipschitz estimate."""
    lo, hi = domain
    X = rng.uniform(lo, hi, size=(count, dim))
    Y = rng.uniform(lo, hi, size=(count, dim))
    keep = np.linalg.norm(X - Y, axis=1) > 1e-12
    return X[keep], Y[keep]


def lipschitz_estimate(g, pairs=None, probes=None, fd_step=FD_STEP_NET):
    """Lower bound of the Lipschitz constant: max over pairwise slopes and
    finite-difference gradient ell_2 norms at probe points."""
    best = 0.0
    if pairs is not None:
        X, Y = pairs
        num = np.abs(_eval_batch(g, X) - _eval_batch(g, Y))
        den = np.linalg.norm(X - Y, axis=1)
        best = float(np.max(num / den))
    if probes is not None:
        grads = fd_gradient_batch(g, np.atleast_2d(probes), fd_step)
        best = max(best, float(np.max(np.linalg.norm(grads, axis=1))))
    return best


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(coef[0]), float(coef[1])
