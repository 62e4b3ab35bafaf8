"""Partition of unity on (0,1)^D, local Taylor surrogates, and the compile
step both pipelines share.

The surrogate is f_hat(x) = sum_m sum_{|v| <= alpha-1} c_{m,v} phi_m(x) x^v
with coefficients from the Taylor polynomial of order alpha at each grid node
m/N (classical derivatives for analytic targets; a quadrature-averaged
variant over the ball of radius 1/(3N) is available for targets without nice
pointwise derivatives).  The compiled object realizes every bump-times-
monomial term as a CNN and assembles the weighted sum into a ConvResNet.
``compile_terms`` does this for both pipelines: the Euclidean build passes it
the terms of the grid nodes, the manifold build the gated terms of each chart.

Evaluation is sparse: at any x only the <= 2^D bumps whose support contains
x contribute; all other terms are exactly zero by the annihilation property
of the product nets, so the sparse functional path equals the full compiled
sum up to float reassociation.  ``_cover`` finds the covering bumps, and the
functional evaluator folds the shared product net over all of them as one
stack: it keeps only the (point, term) rows whose node lies in the grid,
whose coefficient is nonzero and whose fold factors are all nonzero (any
other row contributes c * 0 = +-0 exactly), groups the terms by fold
length and runs one product-net pass per fold step over the rows of a
group, in chunks of ``_FOLD_ROWS``.  A lone row is padded to two, so every
product is matrix-matrix and a point gets the same value alone as inside
any batch.
"""

import math
from dataclasses import dataclass, replace
from itertools import product as iter_product

import numpy as np

from .algebra import assemble_resnet, extend_cnn_depth, mlp_to_cnn, parallel_sum
from .metrics import fd_gradient_batch
from .netcore import (
    BlockSupport,
    ShapeError,
    _on_finite_rows,
    audit_class,
    resnet_forward_batch,
    resnet_forward_dense,
)
from .scalarnets import (
    build_monomial_bump,
    build_product2,
    monomial_factors,
    psi_value,
)
from .scalarnets import bump_weight  # noqa: F401  (re-exported here: it belongs to this surface)


class CompileEqualityError(RuntimeError):
    """Compiled network disagrees with the functional evaluator."""


@dataclass
class TargetFunction:
    """Evaluator bundle: f, its partial derivatives, and a declared norm bound.

    ``derivs`` maps multi-index tuples to batch evaluators; the zero
    multi-index entry is optional (``f`` is used).  ``norm_bound`` declares
    an upper bound for the W^{alpha,p} norm of f.
    """

    dim: int
    order: int
    f: callable
    derivs: dict
    norm_bound: float = 1.0
    name: str = ""

    def __call__(self, X):
        return np.asarray(self.f(np.atleast_2d(X)), dtype=np.float64).ravel()

    def deriv(self, a, X):
        a = tuple(int(t) for t in a)
        if sum(a) == 0:
            return self(X)
        if a not in self.derivs:
            raise KeyError(f"derivative {a} not available for target {self.name!r}")
        return np.asarray(self.derivs[a](np.atleast_2d(X)), dtype=np.float64).ravel()

    def fd_consistency(self, rng, n=50, h=1e-5):
        """Max relative gap between analytic first partials and central FD."""
        X = rng.uniform(0.05, 0.95, size=(n, self.dim))
        fd = fd_gradient_batch(self, X, h)
        worst = 0.0
        for j in range(self.dim):
            a = tuple(1 if k == j else 0 for k in range(self.dim))
            if a not in self.derivs:
                continue
            an = self.deriv(a, X)
            scale = np.maximum(np.abs(an), 1.0)
            worst = max(worst, float(np.max(np.abs(fd[:, j] - an) / scale)))
        return worst


def multi_indices(dim, max_total):
    """All multi-indices v in N^dim with |v| <= max_total, lexicographic."""
    out = [v for v in iter_product(range(max_total + 1), repeat=dim) if sum(v) <= max_total]
    out.sort()
    return out


def grid_nodes(N, d):
    """The grid nodes m in {0..N}^d as rows of an integer array, in the
    raveled order (last axis fastest) of every table indexed by node."""
    return np.array(list(iter_product(range(N + 1), repeat=d)))


def grid_resolution(N, Mt, Jt, d, least=1):
    """The grid N of a build: as given, or else floor((Mt * Jt)^(1/d)); a
    ValueError when it is below ``least``."""
    if N is None:
        if Mt is None or Jt is None:
            raise ValueError("need either N or both Mt and Jt")
        if Mt * Jt < 2**d:
            raise ValueError(f"Mt*Jt = {Mt * Jt} < 2^d = {2**d}")
        N = int(math.floor((Mt * Jt) ** (1.0 / d)))
    if N < least:
        raise ValueError(f"resolution N must be >= {least}, got {N}")
    return N


def _factorial_multi(a):
    out = 1
    for t in a:
        out *= math.factorial(t)
    return out


@dataclass
class SurrogateCoefficients:
    """Dense table of c_{m,v} indexed by raveled node and v position."""

    dim: int
    N: int
    alpha: int
    v_list: list
    table: np.ndarray  # ((N+1)^D, n_v)

    @property
    def max_abs(self):
        return float(np.max(np.abs(self.table)))

    def to_json_dict(self):
        keys = {}
        for i, m in enumerate(grid_nodes(self.N, self.dim).tolist()):
            for j, v in enumerate(self.v_list):
                val = self.table[i, j]
                if val != 0.0:
                    keys["%s|%s" % (",".join(map(str, m)), ",".join(map(str, v)))] = val
        return {"dim": self.dim, "N": self.N, "alpha": self.alpha, "coeffs": keys}


def _monomial_expansion_rows(x0, derivs_at_x0, v_list):
    """Expand the Taylor polynomial at x0 into monomial-basis coefficients.

    (x - x0)^a = sum_{v <= a} prod_k C(a_k, v_k) (-x0_k)^(a_k - v_k) x^v, so
    c_v = sum_{a >= v} D^a f(x0)/a! * prod_k C(a_k, v_k) (-x0_k)^(a_k - v_k).
    x0 has shape (n, dim) and derivs_at_x0[a] shape (n,); returns (n, n_v).
    """
    n = x0.shape[0]
    out = np.zeros((n, len(v_list)))
    v_pos = {v: j for j, v in enumerate(v_list)}
    for a, da in derivs_at_x0.items():
        base = da / _factorial_multi(a)
        for v in iter_product(*[range(ak + 1) for ak in a]):
            factor = np.ones(n)
            for k, (ak, vk) in enumerate(zip(a, v)):
                if ak > vk:
                    factor = factor * math.comb(ak, vk) * (-x0[:, k]) ** (ak - vk)
                else:
                    factor = factor * math.comb(ak, vk)
            out[:, v_pos[v]] += base * factor
    return out


def taylor_coeffs(f: TargetFunction, N: int, averaged=False, quad_points=6) -> SurrogateCoefficients:
    """Monomial-basis coefficients of the order-alpha Taylor surrogate at all
    grid nodes m/N.

    With ``averaged=True`` the pointwise derivatives are replaced by the
    polynomial-bump-weighted average over the ball of radius 1/(3N) around
    each node (midpoint quadrature, numerically normalized); for targets with
    continuous derivatives both variants agree to the same error order.
    """
    D, alpha = f.dim, f.order
    v_list = multi_indices(D, alpha - 1)
    nodes = grid_nodes(N, D) / N
    if not averaged:
        derivs = {tuple(a): f.deriv(a, nodes) for a in v_list}
        table = _monomial_expansion_rows(nodes, derivs, v_list)
        return SurrogateCoefficients(D, N, alpha, v_list, table)

    r = 1.0 / (3.0 * N)
    axis = (np.arange(quad_points) + 0.5) / quad_points * 2.0 - 1.0  # midpoints of [-1,1]
    offsets = np.array(list(iter_product(axis, repeat=D))) * r
    cutoff = np.maximum(0.0, 1.0 - np.sum((offsets / r) ** 2, axis=1)) ** (alpha + 2)
    weights = cutoff / np.sum(cutoff)
    table = np.zeros((nodes.shape[0], len(v_list)))
    for off, wq in zip(offsets, weights):
        if wq == 0.0:
            continue
        z = nodes + off
        derivs = {tuple(a): f.deriv(a, z) for a in v_list}
        table += wq * _monomial_expansion_rows(z, derivs, v_list)
    return SurrogateCoefficients(D, N, alpha, v_list, table)


def _cover(N, X):
    """The bumps that can cover the points X (n, D): per axis, the integers m
    with |x - m/N| < 2/(3N) are m_lo + {0, 1} intersected with [0, N].  For
    each of the 2^D candidate offsets yield (valid, idx, psi): the rows whose
    node lies in [0, N]^D, the raveled index of the node clipped into the
    grid, and the D trapezoid factors psi(3N x_k - 3 m_k) of that clipped node
    as an (n, D) array."""
    m_lo = np.floor(N * X - 2.0 / 3.0).astype(np.int64) + 1
    for off in iter_product((0, 1), repeat=X.shape[1]):
        m = m_lo + np.array(off, dtype=np.int64)
        valid = np.all((m >= 0) & (m <= N), axis=1)
        mc = np.clip(m, 0, N)
        idx = np.zeros(X.shape[0], dtype=np.int64)
        for k in range(X.shape[1]):
            idx = idx * (N + 1) + mc[:, k]
        yield valid, idx, psi_value(3.0 * N * X - 3.0 * mc)


def surrogate_eval(coeffs: SurrogateCoefficients, X) -> np.ndarray:
    """Evaluate f_hat = sum c_{m,v} phi_m x^v, touching only covering bumps;
    nan at a point with a non-finite coordinate."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != coeffs.dim:
        raise ShapeError(f"points have dim {X.shape[1]}, coefficients dim {coeffs.dim}")
    return _on_finite_rows(lambda Y: _surrogate_sum(coeffs, Y), X)


def _surrogate_sum(coeffs, X):
    n, D = X.shape
    out = np.zeros(n)
    monos = np.stack(
        [np.prod(X ** np.array(v, dtype=np.float64), axis=1) for v in coeffs.v_list],
        axis=1,
    )
    for valid, idx, psi in _cover(coeffs.N, X):
        phi = np.ones(n)
        for k in range(D):
            phi = phi * psi[:, k]
        out += np.where(valid, phi * np.sum(coeffs.table[idx] * monos, axis=1), 0.0)
    return out


# rows per product-net pass: a 12-wide layer over 4096 rows stays in cache,
# while one pass over a 26k-row stack ran 2x slower per row (2-core Xeon VM)
_FOLD_ROWS = 4096


def _fold_rows(A, nets, tracker):
    """Fold along the columns of A: r = A[:, 0], then r = nets[s](r, A[:, s + 1])
    for each step s, over _FOLD_ROWS rows at a time.  A lone row is padded to
    two, so every product is matrix-matrix and a row's value does not depend
    on the rows beside it."""
    out = np.empty(len(A))
    for a in range(0, len(A), _FOLD_ROWS):
        chunk = out[a : a + _FOLD_ROWS]
        rows = A[a : a + _FOLD_ROWS] if len(chunk) > 1 else np.repeat(A[a:], 2, axis=0)
        run = rows[:, 0]
        for s, net in enumerate(nets, 1):
            if tracker is not None:
                tracker[0] = max(tracker[0], float(np.max(np.abs(run))))
            run = net.forward(np.stack([run, rows[:, s]], axis=1))
        chunk[:] = run[: len(chunk)]
    return out


def _stacked_fold(coeffs, X, times, tail=None, tracker=None):
    """sum_{m, v} c_{m,v} fold_v(x) over the bumps covering the points X.

    fold_v folds ``times`` over the monomial factors of x^v and then the D
    trapezoid factors of node m; with ``tail = (net, col)`` it takes one more
    step, net(fold, col).  Only rows with an in-grid node, a nonzero
    coefficient and nonzero fold factors are folded, since any other row
    contributes c * 0 = +-0 exactly; terms of one fold length are stacked
    into one pass per fold step, and the contributions are added in the
    per-term order (candidate offset, then v).  With a ``tracker`` every row
    is folded, and tracker[0] records the largest |running product| entering
    a step.
    """
    n = X.shape[0]
    tail_nets, tail_cols = ([tail[0]], [tail[1]]) if tail is not None else ([], [])
    every = tracker is not None
    terms, groups, sizes = [], {}, {}
    for valid, idx, psi in _cover(coeffs.N, X):
        F = np.column_stack([psi] + tail_cols)
        rows = np.arange(n) if every else np.flatnonzero(valid & np.all(F != 0.0, axis=1))
        if not rows.size:
            continue
        c = np.where(valid[rows, None], coeffs.table[idx[rows]], 0.0)
        Xr, Fr = X[rows], F[rows]
        for j, v in enumerate(coeffs.v_list):
            coords = monomial_factors(v)
            start = Xr[:, coords[:1]] if coords else np.ones((rows.size, 1))
            A = np.hstack([start, Xr[:, coords[1:]], Fr])
            keep = slice(None) if every else (c[:, j] != 0.0) & np.all(A != 0.0, axis=1)
            A = A[keep]
            if not len(A):
                continue
            width = A.shape[1]
            groups.setdefault(width, []).append(A)
            terms.append((rows[keep], c[keep, j], width, sizes.get(width, 0)))
            sizes[width] = sizes.get(width, 0) + len(A)
    values = {}
    for width, parts in groups.items():
        nets = [times] * (width - 1 - len(tail_nets)) + tail_nets
        values[width] = _fold_rows(np.concatenate(parts), nets, tracker)
    out = np.zeros(n)
    for rows, c, width, at in terms:
        out[rows] += c * values[width][at : at + len(rows)]
    return out


@dataclass
class ConstructedApproximator:
    """Bundle of functional evaluator, compiled model, and the build record."""

    target: TargetFunction
    coeffs: SurrogateCoefficients
    times_net: object
    record: dict
    model: object = None
    class_params: object = None

    @property
    def N(self):
        return self.record["N"]

    @property
    def eta(self):
        return self.record["eta"]

    def eval(self, X) -> np.ndarray:
        """Functional path: the stacked sparse fold of the shared product net;
        nan at a point with a non-finite coordinate."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return _on_finite_rows(lambda Y: _stacked_fold(self.coeffs, Y, self.times_net), X)

    def audit_intermediate_magnitudes(self, X):
        """Largest intermediate product magnitude versus the declared box
        bound of the shared product net; a violation means the accuracy
        guarantee of the fold no longer applies (flagged, never clipped)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        tracker = [0.0]
        _stacked_fold(self.coeffs, X, self.times_net, tracker=tracker)
        box = self.record["box"]
        return {"max_intermediate": tracker[0], "box": box, "ok": tracker[0] <= box}

    def __call__(self, x):
        return float(self.eval(np.atleast_1d(x)[None])[0])

    def surrogate(self, X):
        return surrogate_eval(self.coeffs, X)

    def model_eval(self, X):
        if self.model is None:
            raise RuntimeError("approximator was built without compilation")
        return resnet_forward_batch(self.model, np.atleast_2d(X))


def _bump_terms(coeffs: SurrogateCoefficients, eta, box):
    """(net of phi_m x^v, c_{m,v}) for every term of the table, in (m, v)
    order."""
    for m, row in zip(grid_nodes(coeffs.N, coeffs.dim).tolist(), coeffs.table):
        for v, c in zip(coeffs.v_list, row):
            yield build_monomial_bump(m, v, coeffs.N, eta, box=box), c


def _block_support(coeffs: SurrogateCoefficients, per_block):
    """The nodes of each block: the terms come in (m, v) order, and
    parallel_sum packs per_block consecutive terms into one block."""
    nodes = grid_nodes(coeffs.N, coeffs.dim)
    term_node = np.repeat(np.arange(len(nodes)), len(coeffs.v_list))
    return BlockSupport(
        coeffs.N,
        [nodes[np.unique(term_node[a : a + per_block])] for a in range(0, len(term_node), per_block)],
    )


def compile_terms(approx, terms, X, support=None):
    """Compile ordered (ScalarNet, c) terms into approx.model: each term a
    CNN with its readout scaled by c, one depth for all, grouped
    record["Jt"] channels wide (one term per block when None), assembled,
    with the BlockSupport support(terms per block) when given.  Fills
    approx.class_params and the record keys terms, Mt, Jt and compile_gap,
    then gates the build at the points X: the dense forward within 1e-8 of
    approx.eval, then the support-sparse forward equal to the dense one bit
    for bit (CompileEqualityError otherwise)."""
    cnns = []
    for net, c in terms:
        cnn = mlp_to_cnn(net.as_mlp(), 2)
        cnn.fc_weight = c * cnn.fc_weight
        cnns.append(cnn)
    depth = max(cnn.depth for cnn in cnns)
    cnns = [extend_cnn_depth(cnn, depth) for cnn in cnns]
    record = approx.record
    J0 = max(cnn.width for cnn in cnns)
    width = record["Jt"] if record["Jt"] is not None else J0
    groups = parallel_sum(cnns, width)
    model = assemble_resnet(groups)
    if support is not None:
        model = replace(model, support=support(width // J0))
    approx.model = model
    approx.class_params = audit_class(model)
    record["terms"] = len(cnns)
    record["Mt"] = record["Mt"] if record["Mt"] is not None else len(groups)
    record["Jt"] = width

    dense = resnet_forward_dense(model, X)
    gaps = np.abs(approx.eval(X) - dense)
    record["compile_gap"] = float(np.max(gaps))
    if not record["compile_gap"] <= 1e-8:  # a nan gap fails too
        raise CompileEqualityError(
            f"compiled model deviates from functional path by {record['compile_gap']:.3e} "
            f"at {X[np.argmax(gaps)]}"
        )
    miss = np.flatnonzero(resnet_forward_batch(model, X) != dense)
    if miss.size:
        raise CompileEqualityError(
            f"support-sparse forward differs from the dense forward at {X[miss[0]]}"
        )


def build_euclidean(
    f: TargetFunction,
    s: float,
    p,
    Mt: int = None,
    Jt: int = None,
    N: int = None,
    compile_model: bool = True,
    check_points: int = 100,
    seed: int = 0,
) -> ConstructedApproximator:
    """Compile the target into a ConvResNet with resolution N = (Mt*Jt)^(1/D).

    Pass N directly (study mode) to pin the resolution; Mt/Jt then default to
    the term count and the single-term width.  eta = N^-alpha balances the
    surrogate and network error terms.  When ``compile_model`` is set, the
    terms go through ``compile_terms``: the compiled network carries each
    block's grid nodes, and at ``check_points`` random points its dense
    forward is checked against the functional evaluator (tolerance 1e-8) and
    its support-sparse forward against the dense one (bit for bit); the build
    aborts on either disagreement.
    """
    D, alpha = f.dim, f.order
    N = grid_resolution(N, Mt, Jt, D)
    eta = float(N) ** (-float(alpha))
    box = alpha + D + 1.0
    coeffs = taylor_coeffs(f, N)
    times = build_product2(eta, box)
    record = {
        "N": N,
        "eta": eta,
        "eps": eta,
        "alpha": alpha,
        "s": s,
        "p": p,
        "Mt": Mt,
        "Jt": Jt,
        "box": box,
        "coeff_bound": coeffs.max_abs,
    }
    approx = ConstructedApproximator(f, coeffs, times, record)
    if not compile_model:
        return approx

    X = np.random.default_rng(seed).uniform(0.0, 1.0, size=(check_points, D))
    record["intermediate_magnitude"] = approx.audit_intermediate_magnitudes(X[:50])
    compile_terms(approx, _bump_terms(coeffs, eta, box), X, lambda k: _block_support(coeffs, k))
    return approx
