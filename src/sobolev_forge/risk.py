"""Empirical risk studies: the Bernstein-style residual event and the
adversarial-risk gap.

The inner maximization of the adversarial risk is a projected random search
(shared directions at scaled radii) plus per-sample coordinate ascent inside
the Euclidean ball.  It underestimates the true sup, which only makes the
gap check conservative.  Radii are processed in increasing order and each
sample inherits its running best, so the reported risk is monotone in delta
by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .metrics import lipschitz_estimate, sample_pairs

# Lipschitz constant of the loss |g(x) - y| in g
LOSS_LIPSCHITZ = 1.0
# slack the residual study's Lipschitz line allows above 1 + sqrt(D) eps^((alpha-1)/alpha)
LIP_SLACK = 0.5
# the adversarial inner max: random search directions, then coordinate-ascent rounds
SEARCH_DIRECTIONS = 64
ASCENT_STEPS = 20


@dataclass
class RiskConfig:
    n: int = 2000
    sigma: float = 0.2
    eps: float = 0.1
    deltas: tuple = (0.01, 0.02, 0.05)
    reps: int = 200
    seed: int = 0


def bernstein_floor(n, eps, sigma):
    """1 - exp(-3 n eps^2 / (104 sigma^4)); monotone increasing in n.

    The noise-free limit sigma -> 0 sends the exponent to -inf, so the floor
    is 1 (the event must hold in every repetition).
    """
    if sigma == 0.0:
        return 1.0
    return 1.0 - math.exp(-3.0 * n * eps * eps / (104.0 * sigma**4))


def empirical_residual_study(cfg: RiskConfig, target, approx) -> dict:
    """Check, over repetitions, the event {mean residual <= 2 eps^2 + sigma^2
    and Lipschitz estimate below the smoothness line}.

    Noise is uniform on [-sigma, sigma] (mean zero, bounded); inputs are
    uniform on the unit cube.  The Lipschitz estimate of the fixed
    approximator is computed once.
    """
    if not (cfg.sigma == 0.0 or 0.0 < cfg.eps < min(cfg.sigma, 1.0)):
        raise ValueError(f"need 0 < eps < min(sigma, 1), got eps={cfg.eps}, sigma={cfg.sigma}")
    D = target.dim
    alpha = target.order
    rng = np.random.default_rng(cfg.seed)
    pairs = sample_pairs(rng, D, 20000)
    probes = rng.uniform(0.02, 0.98, size=(2000, D))
    lip = lipschitz_estimate(approx.eval, pairs=pairs, probes=probes)
    lip_line = 1.0 + math.sqrt(D) * cfg.eps ** ((alpha - 1.0) / alpha) + LIP_SLACK
    lip_ok = lip <= lip_line

    threshold = 2.0 * cfg.eps**2 + cfg.sigma**2

    def one_rep(r):
        rr = np.random.default_rng([cfg.seed, r])
        X = rr.uniform(0.0, 1.0, size=(cfg.n, D))
        xi = rr.uniform(-cfg.sigma, cfg.sigma, size=cfg.n) if cfg.sigma > 0 else np.zeros(cfg.n)
        y = target(X) + xi
        return float(np.mean((approx.eval(X) - y) ** 2))

    residuals = np.array([one_rep(r) for r in range(cfg.reps)])
    successes = (residuals <= threshold) & lip_ok

    big = np.random.default_rng([cfg.seed, 10**6]).uniform(0.0, 1.0, size=(100000, D))
    xi = np.random.default_rng([cfg.seed, 10**6 + 1]).uniform(-cfg.sigma, cfg.sigma, 100000)
    pop_sq = float(np.mean((approx.eval(big) - target(big) - xi) ** 2))

    return {
        "success_fraction": float(np.mean(successes)),
        "theoretical_floor": bernstein_floor(cfg.n, cfg.eps, cfg.sigma),
        "residual_threshold": threshold,
        "mean_residual": float(np.mean(residuals)),
        "max_residual": float(np.max(residuals)),
        "lip_estimate": lip,
        "lip_line": lip_line,
        "population_sq_risk": pop_sq,
        "population_sq_bound": cfg.eps**2 + cfg.sigma**2,
        "reps": cfg.reps,
    }


def _unit_directions(rng, count, dim):
    U = rng.standard_normal((count, dim))
    return U / np.linalg.norm(U, axis=1, keepdims=True)


def adversarial_risk(
    g, X, y, deltas, seed=0, directions=SEARCH_DIRECTIONS, ascent_steps=ASCENT_STEPS
):
    """Mean over samples of an inner-max estimate of loss |g(x') - y| over
    the Euclidean delta-ball; returns {delta: risk} for the sorted deltas.

    delta = 0 is always evaluated first and equals the plain empirical risk;
    larger radii reuse every candidate found at smaller radii.  The radial
    candidates of a delta are evaluated in one call of g; the ascent steps
    that follow depend on each other and call g one by one.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    n, D = X.shape
    rng = np.random.default_rng(seed)
    dirs = _unit_directions(rng, directions, D)

    best = np.abs(np.asarray(g(X)).ravel() - y)  # x itself is always a candidate
    best_pt = X.copy()
    out = {}
    for delta in sorted(set(float(d) for d in deltas)):
        if delta == 0.0:
            out[0.0] = float(np.mean(best))
            continue
        # every radius and direction in one call, then taken in that order
        rads = np.array([frac * delta for frac in (0.25, 0.5, 0.75, 1.0)])
        cands = X + (rads[:, None, None] * dirs).reshape(-1, 1, D)
        all_losses = np.abs(np.asarray(g(cands.reshape(-1, D))).reshape(len(cands), n) - y)
        for cand, losses in zip(cands, all_losses):
            take = losses > best
            best = np.where(take, losses, best)
            best_pt[take] = cand[take]
        step = delta / 8.0
        for _ in range(ascent_steps):
            improved = False
            for j in range(D):
                for sign in (1.0, -1.0):
                    cand = best_pt.copy()
                    cand[:, j] += sign * step
                    off = cand - X
                    norms = np.linalg.norm(off, axis=1)
                    scale = np.minimum(1.0, delta / np.maximum(norms, 1e-300))
                    cand = X + off * scale[:, None]
                    losses = np.abs(np.asarray(g(cand)).ravel() - y)
                    take = losses > best
                    if np.any(take):
                        improved = True
                        best = np.where(take, losses, best)
                        best_pt[take] = cand[take]
            if not improved:
                break
        out[delta] = float(np.mean(best))
    return out


def adversarial_gap_check(cfg: RiskConfig, target, approx, n_data=200) -> dict:
    """Estimate R(f, delta) - R(f, 0) over the delta grid and compare to the
    smoothness line L_lip (1 + sqrt(D) eps^((alpha-1)/alpha)) delta."""
    D, alpha = target.dim, target.order
    rng = np.random.default_rng(cfg.seed)
    X = rng.uniform(0.0, 1.0, size=(n_data, D))
    y = target(X)
    risks = adversarial_risk(approx.eval, X, y, [0.0] + list(cfg.deltas), seed=cfg.seed)
    base = risks[0.0]
    line = LOSS_LIPSCHITZ * (1.0 + math.sqrt(D) * cfg.eps ** ((alpha - 1.0) / alpha))
    table = []
    for d in sorted(cfg.deltas):
        gap = risks[float(d)] - base
        table.append(
            {"delta": float(d), "gap": gap, "bound": line * float(d), "ok": gap <= line * d + 1e-12}
        )
    return {
        "base_risk": base,
        "lip_line": line,
        "gap_table": table,
        "all_ok": all(row["ok"] for row in table),
    }
