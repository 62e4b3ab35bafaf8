import numpy as np
import pytest
from forward_oracle import cnn_forward, compose_cnn, reference_psi_mlp

from sobolev_forge.algebra import (
    assemble_resnet,
    extend_cnn_depth,
    mlp_to_cnn,
    parallel_sum,
)
from sobolev_forge.netcore import ShapeError, audit_class, resnet_forward_batch
from sobolev_forge.scalarnets import (
    ScalarNet,
    build_monomial_bump,
    build_product2,
    build_square,
    build_trapezoid,
)


@pytest.fixture(scope="module")
def psi_cnn():
    return mlp_to_cnn(reference_psi_mlp())


def test_mlp_to_cnn_psi_grid(psi_cnn):
    mlp = reference_psi_mlp()
    xs = np.linspace(-3, 3, 1001)[:, None]
    gap = np.abs(cnn_forward(psi_cnn, xs) - mlp.forward(xs))
    assert gap.max() <= 1e-9


def test_mlp_to_cnn_zero_mlp(rng):
    zero = ScalarNet([(np.zeros((3, 2)), np.zeros(3)), (np.zeros((1, 3)), np.zeros(1))])
    cnn = mlp_to_cnn(zero)
    X = rng.standard_normal((100, 2))
    assert np.all(cnn_forward(cnn, X) == 0.0)


def test_mlp_to_cnn_size_bounds(rng):
    for D in (1, 2, 4):
        mlp = ScalarNet(
            [
                (rng.standard_normal((6, D)), rng.standard_normal(6)),
                (rng.standard_normal((5, 6)), rng.standard_normal(5)),
                (rng.standard_normal((1, 5)), rng.standard_normal(1)),
            ]
        )
        cnn = mlp_to_cnn(mlp)
        X = rng.standard_normal((200, D))
        assert np.max(np.abs(cnn_forward(cnn, X) - mlp.forward(X))) <= 1e-9
        J_mlp = max(D, 6, 5, 1)
        assert cnn.depth <= mlp.depth + D
        assert cnn.width <= 4 * J_mlp
        assert cnn.kappa1 <= mlp.kappa
        assert not np.any(cnn.fc_weight[1:])


def test_mlp_to_cnn_rejects_vector_output():
    with pytest.raises(ShapeError, match="scalar"):
        mlp_to_cnn(ScalarNet([(np.eye(2), np.zeros(2))]))


@pytest.mark.parametrize(
    "layers, message",
    [
        ([], "at least one layer"),
        ([(np.ones((2, 3)), np.zeros(3))], "bias shape"),
        ([(np.ones((2, 3)), np.zeros((2, 1)))], "bias shape"),
        ([(np.ones((2, 3)), np.zeros(2)), (np.ones((1, 4)), np.zeros(1))], "do not compose"),
    ],
    ids=["empty", "bias-length", "bias-2d", "layers-do-not-compose"],
)
def test_mlp_to_cnn_rejects_layers_that_do_not_fit(layers, message):
    with pytest.raises(ShapeError, match=message):
        mlp_to_cnn(ScalarNet(layers))


def test_compose_psi_square(psi_cnn):
    sq = build_square(1e-3, 1.0)
    sq_cnn = mlp_to_cnn(sq)
    composed = compose_cnn(psi_cnn, sq_cnn)
    xs = np.linspace(-3, 3, 301)[:, None]
    want = sq.forward(reference_psi_mlp().forward(xs)[:, None])
    assert np.max(np.abs(cnn_forward(composed, xs) - want)) <= 1e-9
    assert composed.depth == psi_cnn.depth + sq_cnn.depth


def test_compose_identity_readout(psi_cnn):
    ident = mlp_to_cnn(ScalarNet([(np.eye(1), np.zeros(1))]))
    composed = compose_cnn(psi_cnn, ident)
    xs = np.linspace(-3, 3, 301)[:, None]
    assert np.max(np.abs(cnn_forward(composed, xs) - cnn_forward(psi_cnn, xs))) <= 1e-12
    assert composed.depth == psi_cnn.depth + ident.depth
    assert not np.any(composed.fc_weight[1:])


def test_parallel_sum_grouping(psi_cnn):
    xs = np.linspace(-3, 3, 301)[:, None]
    base = cnn_forward(psi_cnn, xs)
    groups = parallel_sum([psi_cnn] * 4, 2 * psi_cnn.width)
    assert len(groups) == 2
    total = sum(cnn_forward(g, xs) for g in groups)
    assert np.max(np.abs(total - 4 * base)) <= 1e-9
    assert max(g.kappa1 for g in groups) == psi_cnn.kappa1
    assert all(g.width <= 2 * psi_cnn.width for g in groups)


def test_parallel_sum_single(psi_cnn):
    (only,) = parallel_sum([psi_cnn], psi_cnn.width)
    xs = np.linspace(-3, 3, 101)[:, None]
    assert np.array_equal(cnn_forward(only, xs), cnn_forward(psi_cnn, xs))


def test_parallel_sum_width_guard(psi_cnn):
    with pytest.raises(ValueError, match="width"):
        parallel_sum([psi_cnn] * 2, psi_cnn.width - 1)


def test_assemble_two_trapezoids():
    t0 = mlp_to_cnn(build_trapezoid(0, 2))
    t1 = mlp_to_cnn(build_trapezoid(1, 2))
    net = assemble_resnet([t0, t1])
    xs = np.linspace(0, 1, 201)[:, None]
    want = cnn_forward(t0, xs) + cnn_forward(t1, xs)
    assert np.max(np.abs(resnet_forward_batch(net, xs) - want)) <= 1e-9


def test_assemble_single_and_kappa2_bound(psi_cnn):
    net = assemble_resnet([psi_cnn])
    assert audit_class(net).M == 1
    params = audit_class(net)
    k1, k2 = psi_cnn.kappa1, psi_cnn.kappa2
    assert params.kappa2 <= k2 * max(1.0, 1.0 / k1) + 1e-12
    assert params.first_row_only


def test_assemble_rejects_heterogeneous(psi_cnn):
    deeper = extend_cnn_depth(psi_cnn, psi_cnn.depth + 2)
    with pytest.raises(ShapeError, match="heterogeneous"):
        assemble_resnet([psi_cnn, deeper])


def test_end_to_end_pipeline_equality(rng):
    """parallel_sum then assemble_resnet agrees with the plain sum of the
    functional forwards at 1000 random inputs."""
    times = build_product2(1e-2, 5.0)
    nets = [build_monomial_bump((m1, m2), (v1, v2), 2, times)
            for m1, m2 in [(0, 1), (1, 1), (2, 0)]
            for v1, v2 in [(0, 0), (1, 0)]]
    cnns = [mlp_to_cnn(n) for n in nets]
    depth = max(c.depth for c in cnns)
    cnns = [extend_cnn_depth(c, depth) for c in cnns]
    X = rng.uniform(0, 1, (1000, 2))
    want = sum(n.forward(X) for n in nets)
    groups = parallel_sum(cnns, 2 * max(c.width for c in cnns))
    got_groups = sum(cnn_forward(g, X) for g in groups)
    assert np.max(np.abs(got_groups - want)) <= 1e-8
    net = assemble_resnet(groups)
    got_model = resnet_forward_batch(net, X)
    assert np.max(np.abs(got_model - want)) <= 1e-8
