"""Per-term reference for the template-stamped build.

The build once made every term directly: ``build_monomial_bump`` at each
node, ``mlp_to_cnn`` and ``extend_cnn_depth`` per term, grouping that built
every group's layers anew and an assembly that re-tiled every bias into a
fresh matrix.  These functions keep that path as the oracle the stamped
templates and the shared-layer model are compared against, and
``chained_pad`` keeps the padding of that build.  ``laid_square`` and
``laid_product2`` keep the square and product nets as they were once laid
out by hand, block by block, before they were put together from the
``scalarnets`` combinators.

The manifold build once made every chart term's net whole, the chart map
and the chart's squared-distance net folded in term by term;
``direct_manifold_nets`` keeps that construction as the oracle of the
terms that share their monomial's net in every layer but the first.
"""

import math

import numpy as np

from sobolev_forge.algebra import CnnFunction, extend_cnn_depth, mlp_to_cnn
from sobolev_forge.netcore import ConvResNetModel, FilterTensor, ResidualBlockSpec
from sobolev_forge.scalarnets import (
    ScalarNet,
    build_monomial_bump,
    build_product2,
    product_depth,
    sn_affine,
    sn_chain,
    sn_input_affine,
    sn_parallel,
    square_depth,
)
from sobolev_forge.taylor import grid_nodes


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # the sign of every zero too


def assert_same_layers(got, want):
    """Equal (weight or filter, bias) layers, bit for bit."""
    assert len(got) == len(want)
    for (fa, ba), (fb, bb) in zip(got, want):
        assert_same_bits(getattr(fa, "entries", fa), getattr(fb, "entries", fb))
        assert_same_bits(ba, bb)


def chained_pad(f, depth):
    """``sn_pad`` as it once was: the identity net chained on once per
    missing layer."""
    eye = sn_affine(np.eye(f.out_dim), np.zeros(f.out_dim))
    while f.depth < depth:
        f = sn_chain(f, eye)
    return f


def _square_layers(m_depth):
    layers = [(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([0.0, -0.5]))]
    W = np.array([[1.0, 0.0], [2.0, -4.0], [2.0, -4.0], [0.5, -1.0]])
    layers.append((W, np.array([0.0, 0.0, -0.5, 0.0])))
    for t in range(2, m_depth + 1):
        c = 4.0 ** (-t)
        W = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 2.0, -4.0, 0.0],
                [0.0, 2.0, -4.0, 0.0],
                [0.0, 2.0 * c, -4.0 * c, 1.0],
            ]
        )
        layers.append((W, np.array([0.0, 0.0, -0.5, 0.0])))
    return layers


def _doubling_layers(pair_width, q):
    return [(4.0 * np.eye(pair_width), np.zeros(pair_width)) for _ in range(q)]


def laid_square(theta, B):
    """``build_square`` as it was once laid out by hand."""
    m = square_depth(theta, B)
    invB = 1.0 / B
    layers = [(np.array([[invB], [-invB]]), np.zeros(2))]
    layers += _square_layers(m)
    scale = B * B
    q = max(0, math.ceil(math.log(scale, 4.0))) if scale > 1.0 else 0
    layers.append((np.array([[1.0, 0.0, 0.0, -1.0]]), np.zeros(1)))
    layers += _doubling_layers(1, q)
    layers.append((np.array([[scale / 4.0**q]]), np.zeros(1)))
    return ScalarNet(layers)


def laid_product2(eta, B):
    """``build_product2`` as it was once laid out by hand: the three sawtooth
    branches written block by block into 6- and 12-wire layers."""
    m = product_depth(eta, B)
    h = 0.5 / B
    W1 = np.array([[h, h], [-h, -h], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    layers = [(W1, np.zeros(6))]
    W2 = np.zeros((6, 6))
    for br in range(3):
        W2[2 * br : 2 * br + 2, 2 * br : 2 * br + 2] = np.array([[1.0, 1.0], [1.0, 1.0]])
    layers.append((W2, np.tile([0.0, -0.5], 3)))
    saw = _square_layers(m)[1:]
    W, b = np.zeros((12, 6)), np.zeros(12)
    for br in range(3):
        W[4 * br : 4 * br + 4, 2 * br : 2 * br + 2] = saw[0][0]
        b[4 * br : 4 * br + 4] = saw[0][1]
    layers.append((W, b))
    for Wt, bt in saw[1:]:
        W, b = np.zeros((12, 12)), np.zeros(12)
        for br in range(3):
            W[4 * br : 4 * br + 4, 4 * br : 4 * br + 4] = Wt
            b[4 * br : 4 * br + 4] = bt
        layers.append((W, b))
    Wv = np.zeros((3, 12))
    for br in range(3):
        Wv[br, 4 * br] = 1.0
        Wv[br, 4 * br + 3] = -1.0
    layers.append((Wv, np.zeros(3)))
    layers.append((np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]]), np.zeros(2)))
    scale = 2.0 * B * B
    q = max(0, math.ceil(math.log(scale, 4.0))) if scale > 1.0 else 0
    layers += _doubling_layers(2, q)
    c = scale / 4.0**q
    layers.append((np.array([[c, -c]]), np.zeros(1)))
    return ScalarNet(layers)


def direct_nets(coeffs, eta, box):
    """(m, v, net of phi_m x^v built at m, c_{m,v}) for every term, (m, v) order."""
    times = build_product2(eta, box)
    return [
        (m, v, build_monomial_bump(m, v, coeffs.N, times), c)
        for m, row in zip(grid_nodes(coeffs.N, coeffs.dim).tolist(), coeffs.table)
        for v, c in zip(coeffs.v_list, row)
    ]


def direct_manifold_nets(ap):
    """(m, v, net, c_{m,v}) for every term of the ManifoldApproximator ``ap``
    with c != 0, chart by chart and in (m, v) order within a chart: the net
    on the ambient space gate(g(phi_i(x)), indicator_i(x)), with g built at
    node m and read through chart i's map, and chart i's squared-distance
    net before the indicator."""
    atlas, coeffs = ap.atlas, ap.coeffs
    cols = list(range(atlas.manifold.ambient_dim))
    (W_sq, _), *rest = ap.sqdist_net.layers
    tables = coeffs.table.reshape(atlas.chart_count, -1, len(coeffs.v_list))
    nets = []
    for center, frame, table, bias in zip(atlas.centers, atlas.frames, tables, ap.sqdist_biases):
        A = atlas.scale * frame.T
        cvec = atlas.shift - A @ center
        ind_chain = sn_chain(ScalarNet([(W_sq, bias)] + rest), ap.indicator_net)
        for m, row in zip(grid_nodes(coeffs.N, coeffs.dim).tolist(), table):
            for v, c in zip(coeffs.v_list, row):
                if c != 0.0:
                    g_x = sn_input_affine(build_monomial_bump(m, v, coeffs.N, ap.times_eta), A, cvec)
                    pair = sn_parallel([(g_x, cols), (ind_chain, cols)])
                    nets.append((m, v, sn_chain(pair, ap.gate), c))
    return nets


def direct_term_cnns(nets):
    """Each term's CNN converted from its own net, readout scaled by c, all of
    one depth."""
    cnns = []
    for _, _, net, c in nets:
        cnn = mlp_to_cnn(net)
        cnn.fc_weight = c * cnn.fc_weight
        cnns.append(cnn)
    depth = max(cnn.depth for cnn in cnns)
    return [extend_cnn_depth(cnn, depth) for cnn in cnns]


def _tile(D, row):
    return np.tile(np.asarray(row, dtype=np.float64), (D, 1))


def _group(members):
    stack = []
    for ell in range(members[0].depth):
        fes = [g.conv_stack[ell][0].entries for g in members]
        K = max(fe.shape[1] for fe in fes)
        cin = 1 if ell == 0 else sum(fe.shape[2] for fe in fes)
        w = np.zeros((sum(fe.shape[0] for fe in fes), K, cin))
        r0 = c0 = 0
        for fe in fes:
            w[r0 : r0 + fe.shape[0], : fe.shape[1], c0 : c0 + fe.shape[2]] = fe
            r0 += fe.shape[0]
            c0 += 0 if ell == 0 else fe.shape[2]
        stack.append((FilterTensor(w), np.hstack([g.conv_stack[ell][1] for g in members])))
    D = members[0].input_dim
    fc = np.zeros((D, stack[-1][0].out_channels))
    fc[0, :] = np.concatenate([g.fc_weight[0, :] for g in members])
    return CnnFunction(D, stack, fc, sum(g.fc_bias for g in members))


def direct_model(cnns, width):
    """Group the CNNs width // J0 to a block and assemble them, every layer
    built anew."""
    J0 = max(g.width for g in cnns)
    c = width // J0
    groups = [
        cnns[i] if c == 1 or i + 1 == len(cnns) else _group(cnns[i : i + c])
        for i in range(0, len(cnns), c)
    ]
    D, C = groups[0].input_dim, 3
    kappa1 = max(g.kappa1 for g in groups)
    kappa2 = max(g.kappa2 for g in groups)
    s = min(1.0, kappa1 / kappa2) if (kappa2 > 0 and kappa1 > 0) else 1.0
    blocks = []
    for g in groups:
        f0, b0 = g.conv_stack[0]
        w = np.zeros((f0.out_channels, f0.width, C))
        w[:, :, 0] = f0.entries[:, :, 0]
        filters = [FilterTensor(w)] + [f for f, _ in g.conv_stack[1:]]
        biases = [_tile(D, b[0]) for _, b in g.conv_stack]
        w = np.zeros((C, 1, g.conv_stack[-1][0].out_channels))
        w[1, 0, :] = s * g.fc_weight[0, :]
        w[2, 0, :] = -s * g.fc_weight[0, :]
        filters.append(FilterTensor(w))
        biases.append(_tile(D, [0.0, s * g.fc_bias, -s * g.fc_bias]))
        blocks.append(ResidualBlockSpec(filters, biases))
    fc = np.zeros((D, C))
    fc[0, 1] = 1.0 / s
    fc[0, 2] = -1.0 / s
    return ConvResNetModel(D, C, blocks, fc, 0.0)
