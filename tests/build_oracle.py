"""Per-term reference for the template-stamped build.

The build once made every term directly: ``build_monomial_bump`` at each
node, ``mlp_to_cnn`` and ``extend_cnn_depth`` per term, grouping that built
every group's layers anew and an assembly that re-tiled every bias into a
fresh matrix.  These functions keep that path as the oracle the stamped
templates and the shared-layer model are compared against, and
``chained_pad`` keeps the padding of that build.
"""

import numpy as np

from sobolev_forge.algebra import CnnFunction, extend_cnn_depth, mlp_to_cnn
from sobolev_forge.netcore import ConvResNetModel, FilterTensor, ResidualBlockSpec
from sobolev_forge.scalarnets import build_monomial_bump, sn_affine, sn_chain
from sobolev_forge.taylor import grid_nodes


def chained_pad(f, depth):
    """``sn_pad`` as it once was: the identity net chained on once per
    missing layer."""
    eye = sn_affine(np.eye(f.out_dim), np.zeros(f.out_dim))
    while f.depth < depth:
        f = sn_chain(f, eye)
    return f


def direct_nets(coeffs, eta, box):
    """(m, v, net of phi_m x^v built at m, c_{m,v}) for every term, (m, v) order."""
    return [
        (m, v, build_monomial_bump(m, v, coeffs.N, eta, box=box), c)
        for m, row in zip(grid_nodes(coeffs.N, coeffs.dim).tolist(), coeffs.table)
        for v, c in zip(coeffs.v_list, row)
    ]


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
    return ConvResNetModel(D, C, blocks, fc, 0.0, first_row_only=True)
