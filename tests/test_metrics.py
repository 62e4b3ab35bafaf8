import math

import numpy as np
import pytest

from sobolev_forge.metrics import (
    EvalGrid,
    fd_gradient_batch,
    fit_loglog_slope,
    grid_norm,
    grid_norms,
    lipschitz_estimate,
    sample_pairs,
)
from sobolev_forge.scalarnets import build_trapezoid


def test_grid_norm_linear():
    grid = EvalGrid(2, 51)
    g = lambda X: X[:, 0]
    w0 = grid_norm(g, 0, math.inf, grid)
    assert w0 == pytest.approx(1.0 - 0.5 / 51, abs=1e-6)  # midpoint grid margin
    w1 = grid_norm(g, 1, math.inf, grid)
    assert w1 == pytest.approx(1.0, abs=1e-9)


def test_grid_norm_constant():
    grid = EvalGrid(2, 21)
    g = lambda X: np.full(len(X), -0.7)
    for k in (0, 1):
        assert grid_norm(g, k, math.inf, grid) == pytest.approx(0.7, abs=1e-9)
    assert grid_norm(g, 0, 2, grid) == pytest.approx(0.7, rel=1e-6)


def test_grid_norm_sin_peak():
    grid = EvalGrid(1, 201)
    g = lambda X: np.sin(2 * np.pi * X[:, 0])
    assert abs(grid_norm(g, 0, math.inf, grid) - 1.0) <= 1e-3


def test_grid_norm_rejects_bad_k():
    with pytest.raises(ValueError):
        grid_norm(lambda X: X[:, 0], 2, math.inf, EvalGrid(1, 11))


def test_grid_norm_k1_contains_k0():
    grid = EvalGrid(2, 31)
    g = lambda X: np.sin(2 * np.pi * X[:, 0]) * X[:, 1]
    assert grid_norm(g, 1, math.inf, grid) >= grid_norm(g, 0, math.inf, grid)
    assert grid_norm(g, 1, 2, grid) >= grid_norm(g, 0, 2, grid)


def test_grid_refinement_consistency():
    net = build_trapezoid(1, 4)
    g = lambda X: net.forward(X)
    coarse = grid_norm(g, 0, math.inf, EvalGrid(1, 50))
    fine = grid_norm(g, 0, math.inf, EvalGrid(1, 200))
    assert fine >= coarse - 1e-9


def test_lipschitz_linear(rng):
    a = np.array([0.6, -0.8, 0.1])
    g = lambda X: X @ a
    pairs = sample_pairs(rng, 3, 50000)
    probes = rng.uniform(0.1, 0.9, (500, 3))
    est = lipschitz_estimate(g, pairs=pairs, probes=probes)
    assert est == pytest.approx(np.linalg.norm(a), abs=1e-6)


def test_lipschitz_constant_zero(rng):
    g = lambda X: np.full(len(X), 3.3)
    pairs = sample_pairs(rng, 2, 1000)
    assert lipschitz_estimate(g, pairs=pairs) == 0.0


def test_fd_gradient_quadratic_exact():
    g = lambda X: X[:, 0] ** 2
    for h in (1e-2, 1e-4):
        slope = fd_gradient_batch(g, np.array([[0.3, 0.5]]), h)[0, 0]
        assert slope == pytest.approx(0.6, abs=1e-9)


def test_fd_gradient_linear_exact():
    g = lambda X: 2.5 * X[:, 1]
    assert fd_gradient_batch(g, np.array([[0.3, 0.5]]), 1e-5)[0, 1] == pytest.approx(2.5, abs=1e-9)


def test_fd_gradient_trapezoid_slopes():
    N = 2
    net = build_trapezoid(1, N)
    g = lambda X: net.forward(X)
    offs = math.sqrt(2) * 1e-7
    X = np.linspace(0, 1, 37)[:, None] + offs
    slopes = [fd_gradient_batch(g, x[None], 1e-8)[0, 0] for x in X]
    for s in slopes:
        assert min(abs(s), abs(s - 3 * N), abs(s + 3 * N)) <= 1e-4


def _two_norms(g, p, grid, h):
    """Both norms of grid_norms, with g called on the grid and on each of
    its 2D stencil sets in turn."""
    X = grid.points
    vals = np.abs(g(X))
    grads = np.empty(X.shape)
    for j in range(X.shape[1]):
        hi, lo = X.copy(), X.copy()
        hi[:, j] += h
        lo[:, j] -= h
        grads[:, j] = (g(hi) - g(lo)) / (2.0 * h)
    grads = np.abs(grads)
    if p == math.inf:
        return float(np.max(vals)), float(max(np.max(vals), np.max(grads)))
    w0 = np.sum(vals**p) * grid.cell_volume
    return float(w0 ** (1.0 / p)), float((w0 + np.sum(grads**p) * grid.cell_volume) ** (1.0 / p))


@pytest.mark.parametrize("p", [math.inf, 2, 3])
def test_grid_norms_take_one_call_and_match_separate_calls(p):
    grid = EvalGrid(2, 17)
    g = lambda X: np.sin(7.0 * X[:, 0]) * np.abs(X[:, 1] - 0.4)
    calls = []
    norms = grid_norms(lambda X: calls.append(len(X)) or g(X), p, grid)
    assert calls == [5 * 17**2]
    assert norms == _two_norms(g, p, grid, 1e-6)
    assert norms == (grid_norm(g, 0, p, grid), grid_norm(g, 1, p, grid))


def test_lipschitz_estimate_takes_one_call(rng):
    g = lambda X: np.sin(5.0 * X[:, 0]) + X[:, 1] ** 2
    pairs = sample_pairs(rng, 2, 300)
    probes = rng.uniform(0.1, 0.9, (40, 2))
    calls = []
    est = lipschitz_estimate(lambda X: calls.append(len(X)) or g(X), pairs=pairs, probes=probes)
    assert calls == [2 * len(pairs[0]) + 4 * len(probes)]
    assert est == max(lipschitz_estimate(g, pairs=pairs), lipschitz_estimate(g, probes=probes))


def test_fit_loglog_slope():
    xs = [2, 4, 8, 16]
    ys = [x**-2.0 * 5.0 for x in xs]
    slope, intercept = fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert math.exp(intercept) == pytest.approx(5.0, rel=1e-9)
