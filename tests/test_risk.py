import math

import numpy as np
import pytest

from sobolev_forge.metrics import EvalGrid, grid_norm, lipschitz_estimate, sample_pairs
from sobolev_forge.risk import (
    RiskConfig,
    adversarial_gap_check,
    adversarial_risk,
    bernstein_floor,
    empirical_residual_study,
)
from sobolev_forge.taylor import build_euclidean


@pytest.fixture(scope="module")
def approx(sinprod2):
    return build_euclidean(sinprod2, s=0, p=math.inf, N=8, compile_model=False)


def test_noise_free_residual(sinprod2, approx):
    grid = EvalGrid(2, 41)
    eps = grid_norm(lambda X: approx.eval(X) - sinprod2(X), 0, math.inf, grid) * 1.2
    cfg = RiskConfig(n=500, sigma=0.0, eps=eps, reps=20, seed=7)
    report = empirical_residual_study(cfg, sinprod2, approx)
    assert report["max_residual"] <= eps**2
    assert report["success_fraction"] == 1.0


def test_bernstein_event(sinprod2, approx):
    cfg = RiskConfig(n=1000, sigma=0.2, eps=0.1, reps=25, seed=3)
    report = empirical_residual_study(cfg, sinprod2, approx)
    assert report["success_fraction"] >= report["theoretical_floor"]
    assert report["population_sq_risk"] <= report["population_sq_bound"]


def test_bernstein_guard(sinprod2, approx):
    with pytest.raises(ValueError, match="eps"):
        empirical_residual_study(RiskConfig(sigma=0.05, eps=0.1), sinprod2, approx)


def test_floor_monotone_in_n():
    floors = [bernstein_floor(n, 0.1, 0.2) for n in (10, 100, 1000, 10000)]
    assert all(b >= a for a, b in zip(floors, floors[1:]))


def test_adversarial_delta_zero_is_empirical(rng):
    g = lambda X: np.sin(X[:, 0]) + X[:, 1]
    X = rng.uniform(0, 1, (50, 2))
    y = g(X) + 0.1
    risks = adversarial_risk(g, X, y, [0.0], seed=1)
    assert risks[0.0] == pytest.approx(float(np.mean(np.abs(g(X) - y))), abs=0)


def test_adversarial_monotone(rng):
    g = lambda X: np.sin(3 * X[:, 0]) * np.cos(2 * X[:, 1])
    X = rng.uniform(0, 1, (60, 2))
    y = g(X) - 0.05
    risks = adversarial_risk(g, X, y, [0.0, 0.05, 0.1], seed=5)
    assert risks[0.0] <= risks[0.05] <= risks[0.1]


def test_adversarial_sound(rng):
    g = lambda X: X[:, 0] ** 2
    X = rng.uniform(0, 1, (40, 2))
    y = np.zeros(40)
    risks = adversarial_risk(g, X, y, [0.0, 0.02], seed=2)
    assert risks[0.02] >= risks[0.0]


def test_adversarial_linear_analytic(rng):
    a = np.array([1.3, -0.6])
    g = lambda X: np.atleast_2d(X) @ a
    X = rng.uniform(0, 1, (120, 2))
    y = g(X) - 0.2
    delta = 0.07
    risks = adversarial_risk(g, X, y, [0.0, delta], seed=0)
    exact = float(np.mean(np.abs(g(X) - y))) + delta * np.linalg.norm(a)
    assert risks[delta] == pytest.approx(exact, rel=0.01)


def test_adversarial_radial_candidates_of_a_delta_take_one_call(approx, rng):
    X = rng.uniform(0, 1, (30, 2))
    calls = []
    g = lambda Z: calls.append(len(Z)) or approx.eval(Z)
    adversarial_risk(g, X, approx.eval(X) + 0.1, [0.0, 0.01, 0.02], directions=5, ascent_steps=0)
    assert calls == [30, 4 * 5 * 30, 4 * 5 * 30]


def test_adversarial_determinism(rng):
    g = lambda X: np.sin(X[:, 0] * 2)
    X = rng.uniform(0, 1, (30, 2))
    y = g(X)
    r1 = adversarial_risk(g, X, y, [0.0, 0.05], seed=9)
    r2 = adversarial_risk(g, X, y, [0.0, 0.05], seed=9)
    assert r1 == r2


def test_gap_check(sinprod2, approx):
    grid = EvalGrid(2, 41)
    eps = grid_norm(lambda X: approx.eval(X) - sinprod2(X), 0, math.inf, grid) * 1.2
    cfg = RiskConfig(eps=max(eps, 0.02), deltas=(0.01, 0.05), seed=4)
    report = adversarial_gap_check(cfg, sinprod2, approx, n_data=100)
    assert report["all_ok"]
    assert report["gap_table"][0]["delta"] == 0.01


def test_gap_slope_bounded_by_lipschitz(sinprod2, approx, rng):
    cfg = RiskConfig(eps=0.05, deltas=(0.005, 0.01), seed=6)
    report = adversarial_gap_check(cfg, sinprod2, approx, n_data=150)
    pairs = sample_pairs(rng, 2, 20000)
    probes = rng.uniform(0.02, 0.98, (1000, 2))
    lip = lipschitz_estimate(approx.eval, pairs=pairs, probes=probes)
    for row in report["gap_table"]:
        assert row["gap"] / row["delta"] <= lip * 1.05 + 1e-9


def test_study_determinism(sinprod2, approx):
    cfg = RiskConfig(n=200, sigma=0.2, eps=0.1, reps=5, seed=11)
    r1 = empirical_residual_study(cfg, sinprod2, approx)
    r2 = empirical_residual_study(cfg, sinprod2, approx)
    assert r1 == r2
