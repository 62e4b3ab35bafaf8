"""Partition of unity on (0,1)^D, local Taylor surrogates, and the compile
step both pipelines share.

The surrogate is f_hat(x) = sum_m sum_{|v| <= alpha-1} c_{m,v} phi_m(x) x^v
with coefficients from the Taylor polynomial of order alpha at each grid node
m/N, from the target's classical derivatives.  The compiled object
realizes every bump-times-monomial term as a CNN and assembles the weighted
sum into a ConvResNet.
``compile_terms`` does this for both pipelines: the Euclidean build passes it
the terms of the grid nodes, the manifold build the gated terms of each chart.
Terms arrive as (net, first, node, coefficient): the terms of one monomial
share one net in every layer but the first, and ``first`` is a term's own
first layer, which moves with the node (and on the manifold with the chart).
So each distinct net is built and converted once, each distinct first-layer
weight realized once, and the terms' layers stay shared objects through
grouping, assembly, the class audit and the file writer.

Evaluation is sparse: at any x only the <= 2^D bumps whose support contains
x contribute; all other terms are exactly zero by the annihilation property
of the product nets, so the sparse functional path equals the full compiled
sum up to float reassociation.  ``_cover`` finds the covering bumps of all
2^D candidate offsets at once, as arrays stacked offset-major, and the
functional evaluator folds the shared product net over all of them as one
stack: each v builds its fold operand once over every (offset, point) row,
it keeps only the rows whose node lies in the grid, whose coefficient is
nonzero and whose fold factors are all nonzero (any other row contributes
c * 0 = +-0 exactly), groups the terms by fold length and folds the rows of
a group one step at a time (``_fold_rows``).
Most rows of a step repeat: grid points share coordinates, the candidate
offsets share their first factor, and plateau factors read exactly 1.0.
So a step of ``_KEY_ROWS`` rows or more keys its operand rows (running
product, next factor) by their bytes, with ``netcore._distinct_rows``, runs
the product net once per distinct row and gives each row the value of its
key; a smaller step runs every row.  Each net pass takes ``_FOLD_ROWS``
rows at a time, and ``ScalarNet.forward`` pads a lone row to two.  A row's
value depends only on that row, so keying and chunking change no bit, and a
point gets the same value alone as inside any batch.  The points are taken
``_STACK_ROWS`` >> D at a time, which bounds the memory of a pass.
Each point's terms are added in the per-term order, candidate offset and
then v, so the stacking changes no bit of the sum.
"""

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .algebra import assemble_resnet, extend_cnn_depth, first_filter, mlp_to_cnn
from .algebra import parallel_sum, restamp, widest
from .netcore import (
    BlockSupport,
    ConvResNetModel,
    ShapeError,
    _distinct_rows,
    _on_finite_rows,
    audit_class,
    resnet_forward_batch,
    resnet_forward_dense,
)
from .scalarnets import (
    build_product2,
    monomial_bump_template,
    monomial_factors,
    psi_value,
)
# re-exported here: they belong to this surface
from .scalarnets import build_monomial_bump, bump_weight  # noqa: F401


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


def multi_indices(dim, max_total):
    """All multi-indices v in N^dim with |v| <= max_total, lexicographic."""
    out = [v for v in iter_product(range(max_total + 1), repeat=dim) if sum(v) <= max_total]
    out.sort()
    return out


def grid_nodes(N, d):
    """The grid nodes m in {0..N}^d as rows of an integer array, in the
    raveled order (last axis fastest) of every table indexed by node."""
    return np.array(list(iter_product(range(N + 1), repeat=d)))


class ConfigError(ValueError):
    """Raised for a build or study configuration that cannot run (CLI exit
    code 2), before any work is done."""


def grid_resolution(N, Mt, Jt, d, least=1):
    """The grid N of a build: as given, or else the integer d-th root
    floor((Mt * Jt)^(1/d)), exact for every product; a ConfigError when
    neither is given or N is below ``least``."""
    if N is None:
        if Mt is None or Jt is None:
            raise ConfigError("need either N or both Mt and Jt")
        budget = Mt * Jt
        if budget < 2**d:
            raise ConfigError(f"Mt*Jt = {budget} < 2^d = {2**d}")
        N = round(budget ** (1.0 / d))  # the float root, within one of the integer root
        N -= N**d > budget
        N += (N + 1) ** d <= budget
    if N < least:
        raise ConfigError(f"resolution N must be >= {least}, got {N}")
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


def taylor_coeffs(f: TargetFunction, N: int) -> SurrogateCoefficients:
    """Monomial-basis coefficients of the order-alpha Taylor surrogate at all
    grid nodes m/N."""
    D, alpha = f.dim, f.order
    v_list = multi_indices(D, alpha - 1)
    nodes = grid_nodes(N, D) / N
    derivs = {tuple(a): f.deriv(a, nodes) for a in v_list}
    table = _monomial_expansion_rows(nodes, derivs, v_list)
    return SurrogateCoefficients(D, N, alpha, v_list, table)


def _cover(N, X):
    """The bumps that can cover the points X (n, D): per axis, the integers m
    with |x - m/N| < 2/(3N) are m_lo + {0, 1} intersected with [0, N].  For
    the 2^D candidate offsets at once, stacked offset-major (offsets in
    iter_product((0, 1), repeat=D) order), return (valid, idx, psi): valid
    (2^D, n) marks the rows whose node lies in [0, N]^D, idx (2^D, n) holds
    the raveled index of the node clipped into the grid, and psi (2^D, n, D)
    the D trapezoid factors psi(3N x_k - 3 m_k) of that clipped node."""
    D = X.shape[1]
    m_lo = np.floor(N * X - 2.0 / 3.0).astype(np.int64) + 1
    m = m_lo + np.array(list(iter_product((0, 1), repeat=D)), dtype=np.int64)[:, None, :]
    valid = np.all((m >= 0) & (m <= N), axis=2)
    mc = np.clip(m, 0, N)
    idx = np.zeros(valid.shape, dtype=np.int64)
    for k in range(D):
        idx = idx * (N + 1) + mc[..., k]
    return valid, idx, psi_value(3.0 * N * X - 3.0 * mc)


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
    for valid, idx, psi in zip(*_cover(coeffs.N, X)):
        phi = np.ones(n)
        for k in range(D):
            phi = phi * psi[:, k]
        out += np.where(valid, phi * np.sum(coeffs.table[idx] * monos, axis=1), 0.0)
    return out


# rows per product-net pass: a 12-wide layer over 4096 rows stays in cache,
# while one pass over a 26k-row stack ran 2x slower per row (2-core Xeon VM)
_FOLD_ROWS = 4096
# Fold steps of fewer rows run every row.  Keying a step's rows
# (_distinct_rows on two columns) costs about 27 us plus 0.035 us a row, and
# each repeated row it drops saves 0.30 us of the alpha=2 product net, whose
# pass costs 106 us plus 0.30 us a row with bias tiles (2-core Xeon VM,
# OpenBLAS; 0.47 us a row before them).  So below 27 / (0.30 - 0.035) = 102
# rows keying cannot pay even when every row repeats; at 128 rows it pays
# only once 82% of the rows repeat, and at 256 once 47% do.
_KEY_ROWS = 256
# (candidate offset, point) rows of one stacked pass, which bounds its
# memory: 2^14 rows (4096 points at D = 2) hold about 4 MB of operands, and
# one pass over the 12,000 points of a Lipschitz estimate held 12 MB
_STACK_ROWS = 1 << 14


def _fold_rows(A, nets, tracker):
    """Fold along the columns of A: r = A[:, 0], then r = nets[s](r, A[:, s + 1])
    for each step s.  A step of _KEY_ROWS rows or more runs its net once per
    distinct operand row (r, A[:, s + 1]), keyed by the bytes
    (``netcore._distinct_rows``), and gives each row the value of its key;
    each net pass takes _FOLD_ROWS rows at a time."""
    run = A[:, 0]
    for s, net in enumerate(nets, 1):
        if tracker is not None:
            tracker[0] = max(tracker[0], float(np.max(np.abs(run))))
        rows, place = np.stack([run, A[:, s]], axis=1), None
        if len(rows) >= _KEY_ROWS:
            first, place = _distinct_rows(rows)
            rows = rows[first]
        run = np.concatenate([net.forward(rows[a : a + _FOLD_ROWS])
                              for a in range(0, len(rows), _FOLD_ROWS)])
        if place is not None:
            run = run[place]
    return run


def _stacked_fold(coeffs, X, times, tail=None, tracker=None, offset=None):
    """``_fold_points`` over the points X, _STACK_ROWS >> D points at a time
    (with their tail columns and offsets), so that one pass over 2^D
    candidate offsets holds at most _STACK_ROWS (offset, point) rows."""
    n, D = X.shape
    step = max(1, _STACK_ROWS >> D)
    if n <= step:
        return _fold_points(coeffs, X, times, tail, tracker, offset)
    cut = lambda v, a: None if v is None else v[a : a + step]
    return np.concatenate([
        _fold_points(coeffs, X[a : a + step], times,
                     None if tail is None else (tail[0], cut(tail[1], a)), tracker, cut(offset, a))
        for a in range(0, n, step)
    ])


def _fold_points(coeffs, X, times, tail, tracker, offset):
    """sum_{m, v} c_{m,v} fold_v(x) over the bumps covering the points X.

    fold_v folds ``times`` over the monomial factors of x^v and then the D
    trapezoid factors of node m; with ``tail = (net, col)`` it takes one more
    step, net(fold, col).  With an ``offset`` per row, row x reads its
    coefficients at table row offset[x] + (raveled node), so one pass folds
    rows of several tables stacked into coeffs.table.  The rows are the
    (candidate offset, point) pairs of ``_cover``, stacked offset-major, and
    each v builds its fold operand over all of them at once.  Only rows with
    an in-grid node, a nonzero coefficient and nonzero fold factors are
    folded, since any other row contributes c * 0 = +-0 exactly; the v of one
    fold length are stacked into one pass per fold step, and the
    contributions are added in the per-term order (candidate offset, then
    v).  With a ``tracker`` every row is folded, and tracker[0] records the
    largest |running product| entering a step.
    """
    n, D = X.shape
    every = tracker is not None
    valid, idx, psi = _cover(coeffs.N, X)
    K, n_v = len(valid), len(coeffs.v_list)
    if offset is not None:
        idx = idx + offset
    F = psi.reshape(K * n, D)  # the factors folded after the monomial's
    if tail is not None:
        F = np.column_stack([F, np.tile(tail[1], K)])
    valid = valid.ravel()
    rows = np.arange(K * n) if every else np.flatnonzero(valid & np.all(F != 0.0, axis=1))
    c = np.where(valid[rows, None], coeffs.table[idx.ravel()[rows]], 0.0)
    Xr, Fr = X[rows % n], F[rows]
    terms, groups, sizes = [], {}, {}
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
        terms.append((rows[keep], j, c[keep, j], width, sizes.get(width, 0)))
        sizes[width] = sizes.get(width, 0) + len(A)
    tail_nets = [tail[0]] if tail is not None else []
    values = {}
    for width, parts in groups.items():
        nets = [times] * (width - 1 - len(tail_nets)) + tail_nets
        values[width] = _fold_rows(np.concatenate(parts), nets, tracker)
    # the term (offset o, v_j) of point x at [o * n_v + j, x], +0.0 where no
    # row was folded: adding +0.0 leaves a sum that starts at +0.0 as it is
    contrib = np.zeros((K * n_v, n))
    for r, j, cj, width, at in terms:
        contrib[r // n * n_v + j, r % n] = cj * values[width][at : at + len(r)]
    out = np.zeros(n)
    for term in contrib:
        out += term
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


def _bump_terms(coeffs: SurrogateCoefficients, templates):
    """(net, first, m, c_{m,v}) for every term phi_m x^v of the table, in
    (m, v) order: the net of v's NodeTemplate (``templates``, in the order of
    coeffs.v_list) and its first layer at node m."""
    for m, row in zip(grid_nodes(coeffs.N, coeffs.dim).tolist(), coeffs.table):
        for template, c in zip(templates, row):
            yield template.net, template.first(m), m, c


def check_term_width(Jt, D, nets):
    """A ConfigError when Jt is below the width of one term's CNN: mlp_to_cnn
    keeps the widths of the term nets and gathers the input into 2D channels."""
    width = max([2 * D] + [net.width for net in nets])
    if Jt is not None and Jt < width:
        raise ConfigError(f"Jt = {Jt} is below the width {width} of one term's network")


def term_cnns(terms):
    """The CNNs of ordered (net, first, m, c) terms, all of one depth.

    A term's net is ``net`` with its first layer replaced by first = (W, b).
    Each distinct net is converted and deepened once, and each distinct W
    realized once (``first_filter``).  A term's CNN shares every layer with
    its net's but the one realizing the first layer, which takes the term's
    W and b (``restamp``), and the readout, scaled by c."""
    nets, filters, members = {}, {}, []
    for net, (W, b), _, c in terms:
        if id(net) not in nets:  # the dict keeps the net alive
            nets[id(net)] = (net, mlp_to_cnn(net))
        key = (W.shape, W.tobytes())
        if key not in filters:
            filters[key] = first_filter(W)
        members.append((id(net), filters[key], b, c))
    depth = max(cnn.depth for _, cnn in nets.values())
    deep = {k: extend_cnn_depth(cnn, depth) for k, (_, cnn) in nets.items()}
    return [restamp(deep[k], w, b, c) for k, w, b, c in members]


def compile_terms(approx, terms, X, grid=None):
    """Compile ordered (net, first, m, c) terms into approx.model: each term
    a CNN with its readout scaled by c (``term_cnns``), one depth for all,
    grouped record["Jt"] channels wide (one term per block when None) and
    assembled; with a ``grid`` N, the model carries the BlockSupport whose
    block b lists the nodes m of the terms packed into it.  No terms give
    the model without blocks, whose value is its fc bias 0.
    Fills approx.class_params and the record keys terms, Mt, Jt and
    compile_gap, then gates the build at the points X: the dense forward
    within 1e-8 of approx.eval, then, for a model with a support, the
    support-sparse forward equal to the dense one bit for bit
    (CompileEqualityError otherwise); without a support both are one pass."""
    terms = list(terms)
    record = approx.record
    D, width, groups, support = X.shape[1], record["Jt"], [], None
    if terms:
        cnns = term_cnns(terms)
        J0 = widest(cnns)
        width = width if width is not None else J0
        groups = parallel_sum(cnns, width)
        if grid is not None:  # block b packs the k terms from b * k on
            k = width // J0
            nodes = [sorted({tuple(m) for _, _, m, _ in terms[a : a + k]}) for a in range(0, len(terms), k)]
            support = BlockSupport(grid, [np.array(a) for a in nodes])
        model = assemble_resnet(groups, support)
    else:
        model = ConvResNetModel(D, 3, [], np.zeros((D, 3)), 0.0)
    approx.model = model
    approx.class_params = audit_class(model)
    record["terms"] = len(terms)
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
    if support is not None:
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
    N = grid_resolution(N, Mt, Jt, D, least=2)  # N = 1 makes eta = 1
    eta = float(N) ** (-float(alpha))
    box = alpha + D + 1.0
    times = build_product2(eta, box)
    if compile_model:
        v_list = multi_indices(D, alpha - 1)
        templates = [monomial_bump_template(v, N, times) for v in v_list]
        check_term_width(Jt, D, [t.net for t in templates])
    coeffs = taylor_coeffs(f, N)
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
    compile_terms(approx, _bump_terms(coeffs, templates), X, grid=N)
    return approx
