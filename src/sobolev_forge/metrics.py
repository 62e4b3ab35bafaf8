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


def _stencil(X, h):
    """The central-difference points of X (n, D): X + h e_j, then X - h e_j,
    for each axis j in turn, stacked into (2 D n, D)."""
    n, D = X.shape
    S = np.tile(X, (2 * D, 1)).reshape(D, 2, n, D)
    for j in range(D):
        S[j, 0, :, j] += h
        S[j, 1, :, j] -= h
    return S.reshape(-1, D)


def _fd_gradients(vals, D, h):
    """Central-difference gradients (n, D) from the values at _stencil(X, h)."""
    V = vals.reshape(D, 2, -1)
    grads = np.empty((V.shape[2], D))
    for j in range(D):
        grads[:, j] = (V[j, 0] - V[j, 1]) / (2.0 * h)
    return grads


def fd_gradient_batch(g, X, h):
    """Central-difference gradients at a batch of points, shape (n, D), from
    one call of g on their stencil."""
    X = np.atleast_2d(X)
    return _fd_gradients(_eval_batch(g, _stencil(X, h)), X.shape[1], h)


def _norm(vals, grads, p, grid):
    """The W^{0,p} norm of |values| on the grid, or with |gradients| the
    W^{1,p} norm."""
    if p == math.inf:
        return float(np.max(vals) if grads is None else max(np.max(vals), np.max(grads)))
    total = np.sum(vals**p) * grid.cell_volume
    if grads is not None:
        total += np.sum(grads**p) * grid.cell_volume
    return float(total ** (1.0 / p))


def grid_norms(g, p, grid: EvalGrid, fd_step=FD_STEP_NET):
    """The W^{0,p} and W^{1,p} norm estimates of ``grid_norm``, from one call
    of g on the grid and its central-difference stencil."""
    n, D = grid.points.shape
    vals = _eval_batch(g, np.concatenate([grid.points, _stencil(grid.points, fd_step)]))
    absv = np.abs(vals[:n])
    grads = np.abs(_fd_gradients(vals[n:], D, fd_step))
    return _norm(absv, None, p, grid), _norm(absv, grads, p, grid)


def grid_norm(g, k, p, grid: EvalGrid, fd_step=FD_STEP_NET):
    """W^{k,p} norm estimate of a batch evaluator g on the grid, k in {0, 1}.

    p = inf takes maxima; finite p uses midpoint Riemann sums.  The k = 1
    norm combines the value norm with all first-order central-difference
    partials, following the ell^p-over-multi-indices definition.
    """
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    if k == 0:
        return _norm(np.abs(_eval_batch(g, grid.points)), None, p, grid)
    return grid_norms(g, p, grid, fd_step)[1]


def sample_pairs(rng, dim, count, domain=(0.0, 1.0)):
    """Random point pairs in the domain box for the Lipschitz estimate."""
    lo, hi = domain
    X = rng.uniform(lo, hi, size=(count, dim))
    Y = rng.uniform(lo, hi, size=(count, dim))
    keep = np.linalg.norm(X - Y, axis=1) > 1e-12
    return X[keep], Y[keep]


def lipschitz_estimate(g, pairs=None, probes=None, fd_step=FD_STEP_NET):
    """Lower bound of the Lipschitz constant: max over pairwise slopes and
    finite-difference gradient ell_2 norms at probe points, from one call of
    g on the pairs and the probes' central-difference stencil."""
    sets = list(pairs) if pairs is not None else []
    if probes is not None:
        probes = np.atleast_2d(probes)
        sets.append(_stencil(probes, fd_step))
    if not sets:
        return 0.0
    vals = _eval_batch(g, np.concatenate(sets))
    best, n = 0.0, 0
    if pairs is not None:
        X, Y = pairs
        n = 2 * len(X)
        num = np.abs(vals[: len(X)] - vals[len(X) : n])
        den = np.linalg.norm(X - Y, axis=1)
        best = float(np.max(num / den))
    if probes is not None:
        grads = _fd_gradients(vals[n:], probes.shape[1], fd_step)
        best = max(best, float(np.max(np.linalg.norm(grads, axis=1))))
    return best


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(coef[0]), float(coef[1])
