"""Per-term reference for the stacked functional fold.

The evaluator once ran the shared product net over every point for each
(candidate offset, v) term in turn, and the manifold evaluator visited the
charts one by one; these functions keep those loops as the oracles the
stacked, compacted fold and the stacked chart sum are compared against.
``unkeyed_fold_rows`` keeps the fold of a stack as it ran before its steps
were keyed: every row through every step.  The oracles run every net
through ``plain_forward``, a loop of their own over the net's layers, so a
fault of ``ScalarNet.forward`` or ``kernels.mlp_layer`` does not reach them.
"""

from dataclasses import replace
from itertools import product as iter_product

import numpy as np

from sobolev_forge.scalarnets import ScalarNet, monomial_factors, psi_value


def _covering_terms(coeffs, X):
    """(valid, c_rows, psis) per candidate offset, psis at the clipped node."""
    N, D = coeffs.N, X.shape[1]
    m_lo = np.floor(N * X - 2.0 / 3.0).astype(np.int64) + 1
    for off in iter_product((0, 1), repeat=D):
        m = m_lo + np.array(off, dtype=np.int64)
        valid = np.all((m >= 0) & (m <= N), axis=1)
        mc = np.clip(m, 0, N)
        idx = np.zeros(X.shape[0], dtype=np.int64)
        for k in range(D):
            idx = idx * (N + 1) + mc[:, k]
        psis = [psi_value(3.0 * N * X[:, k] - 3.0 * mc[:, k]) for k in range(D)]
        yield valid, coeffs.table[idx], psis


def fold_term(times, X, psis, v, tracker=None):
    coords = monomial_factors(v)
    if coords:
        running = X[:, coords[0]].copy()
        factors = [X[:, j] for j in coords[1:]] + psis
    else:
        running = np.ones(X.shape[0])
        factors = list(psis)
    for fac in factors:
        if tracker is not None:
            tracker[0] = max(tracker[0], float(np.max(np.abs(running))))
        running = _forward2(times, running, fac)
    return running


def plain_forward(net, X):
    """The net's output at the rows of X: relu(x @ w.T + b) per layer and no
    ReLU after the last, read from net.layers as they are."""
    x = np.asarray(X, dtype=np.float64)
    for w, b in net.layers[:-1]:
        x = np.maximum(x @ w.T + b, 0.0)
    w, b = net.layers[-1]
    x = x @ w.T + b
    return x[:, 0] if x.shape[1] == 1 else x


def padded_forward(net, X):
    """plain_forward with a lone row padded to two, as ScalarNet.forward
    pads it, since a one-row product takes another BLAS path."""
    return plain_forward(net, np.repeat(X, 2, axis=0) if len(X) == 1 else X)[: len(X)]


def _forward2(net, a, b):
    """net over the rows (a, b)."""
    return padded_forward(net, np.stack([a, b], axis=1))


def unkeyed_fold_rows(A, nets, tracker):
    """taylor._fold_rows without keying: r = A[:, 0], then r = nets[s](r,
    A[:, s + 1]) for each step s, over 4096 rows at a time, every row
    through every step; tracker[0] records the largest |r| entering a step."""
    out = np.empty(len(A))
    for a in range(0, len(A), 4096):
        rows = A[a : a + 4096]
        run = rows[:, 0]
        for s, net in enumerate(nets, 1):
            if tracker is not None:
                tracker[0] = max(tracker[0], float(np.max(np.abs(run))))
            run = _forward2(net, run, rows[:, s])
        out[a : a + 4096] = run
    return out


def _sum_terms(coeffs, X, times, term_value):
    out = np.zeros(X.shape[0])
    for valid, c_rows, psis in _covering_terms(coeffs, X):
        if not np.any(valid):
            continue
        for j, v in enumerate(coeffs.v_list):
            cj = np.where(valid, c_rows[:, j], 0.0)
            if not np.any(cj != 0.0):
                continue
            out += cj * term_value(fold_term(times, X, psis, v))
    return out


def eval_oracle(ap, X):
    """ConstructedApproximator.eval, one product-net pass per term and step."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return _sum_terms(ap.coeffs, X, ap.times_net, lambda g: g)


def max_intermediate_oracle(ap, X):
    """audit_intermediate_magnitudes()["max_intermediate"], every row folded."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    tracker = [0.0]
    for _, _, psis in _covering_terms(ap.coeffs, X):
        for v in ap.coeffs.v_list:
            fold_term(ap.times_net, X, psis, v, tracker=tracker)
    return tracker[0]


def per_chart_eval_oracle(ap, i, X):
    """ManifoldApproximator.per_chart_eval, one pass per term and step, with
    the indicator through chart i's own squared-distance net."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Z = ap.atlas.project(np.full(len(X), i), X)
    (W0, _), *rest = ap.sqdist_net.layers
    sqdist = ScalarNet([(W0, ap.sqdist_biases[i])] + rest)
    ind = plain_forward(ap.indicator_net, plain_forward(sqdist, X)[:, None])
    rows = (ap.coeffs.N + 1) ** ap.coeffs.dim
    return _sum_terms(
        replace(ap.coeffs, table=ap.coeffs.table[i * rows : (i + 1) * rows]), Z, ap.times_eta,
        lambda g: _forward2(ap.gate, g, ind),
    )


def chart_sum_oracle(ap, X):
    """ManifoldApproximator.eval as the loop over charts it once ran: each
    chart within 1.2 r of some point adds its contribution at those points,
    chart after chart in ascending order; nan at a point with a non-finite
    coordinate."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    finite = np.all(np.isfinite(X), axis=1)
    Y = X[finite]
    total = np.zeros(len(Y))
    near = np.sum((Y[:, None, :] - ap.atlas.centers[None]) ** 2, axis=2) <= 1.44 * ap.atlas.r**2
    for i in np.flatnonzero(near.any(axis=0)):
        total[near[:, i]] += per_chart_eval_oracle(ap, i, Y[near[:, i]])
    out = np.full(len(X), np.nan)
    out[finite] = total
    return out
