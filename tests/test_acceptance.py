"""Acceptance suite: ten criteria, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expensive intermediate results (rate tables, builds) are
shared through module-scoped fixtures.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from forward_oracle import cnn_forward, compose_cnn, reference_psi_mlp

from sobolev_forge.algebra import assemble_resnet, mlp_to_cnn, parallel_sum
from sobolev_forge.manifold import (
    IndicatorParams,
    build_atlas,
    build_indicator,
    build_manifold_approx,
    build_sqdist_net,
    manifold_norms,
)
from sobolev_forge.metrics import (
    EvalGrid,
    fit_loglog_slope,
    grid_norms,
    lipschitz_estimate,
    sample_pairs,
)
from sobolev_forge.netcore import FilterTensor, ResidualBlockSpec, audit_class, resnet_forward_batch
from sobolev_forge.risk import RiskConfig, adversarial_gap_check, empirical_residual_study
from sobolev_forge.scalarnets import (
    ScalarNet,
    build_monomial_bump,
    build_product2,
    build_square,
    build_trapezoid,
    bump_weight,
    trapezoid_value,
)
from sobolev_forge.targets import get_manifold_target, get_target
from sobolev_forge.taylor import build_euclidean

KINK_OFF = math.sqrt(2.0) * 1e-7


def _report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {detail} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sinprod():
    return get_target("sinprod", alpha=2, dim=2)


@pytest.fixture(scope="module")
def euclid_rate_data(sinprod):
    """Criterion 4 measurements, reused by criterion 7."""
    grid = EvalGrid(2, 61)
    Ns = [2, 4, 8, 16]
    errs = {0: [], 1: []}
    approxes = {}
    for N in Ns:
        ap = build_euclidean(sinprod, s=0, p=math.inf, N=N, compile_model=False)
        approxes[N] = ap
        diff = lambda X: ap.eval(X) - sinprod(X)
        for k, val in enumerate(grid_norms(diff, math.inf, grid)):
            errs[k].append(val)
    return {"Ns": Ns, "errs": errs, "approxes": approxes, "grid": grid}


@pytest.fixture(scope="module")
def circle_study():
    """Criterion 8 builds and norms, reused by criterion 9."""
    mspec, target = get_manifold_target("circle-sin", ambient_dim=3, order=2)
    atlas = build_atlas(mspec, 0.2)
    Ns = [4, 8, 16, 32]
    errs = {0: [], 1: []}
    approxes = {}
    for N in Ns:
        ap = build_manifold_approx(target, mspec, N=N, atlas=atlas)
        approxes[N] = ap
        diff = lambda X: ap.eval(X) - target(X)
        for k, (val, _) in enumerate(manifold_norms(diff, atlas, resolution=40)):
            errs[k].append(val)
    return {
        "mspec": mspec,
        "target": target,
        "atlas": atlas,
        "Ns": Ns,
        "errs": errs,
        "approxes": approxes,
    }


def test_criterion_1_exact_construction(rng):
    t0 = time.time()
    worst_psi = 0.0
    for N in (1, 2, 4, 8):
        xs = np.linspace(-0.5, 1.5, 1001) + KINK_OFF
        for m in range(N + 1):
            net = build_trapezoid(m, N)
            dev = np.max(np.abs(net.forward(xs[:, None]) - trapezoid_value(m, N, xs)))
            worst_psi = max(worst_psi, float(dev))
    worst_pou = 0.0
    for D in (1, 2, 3):
        X = rng.uniform(0.0, 1.0, (10000, D))
        for N in (1, 2, 4, 8):
            total = np.zeros(len(X))
            for m in np.ndindex(*([N + 1] * D)):
                total += bump_weight(m, N, X)
            worst_pou = max(worst_pou, float(np.max(np.abs(total - 1.0))))
    ok = worst_psi <= 1e-12 and worst_pou <= 1e-12
    _report(1, ok, f"psi dev {worst_psi:.2e}, partition dev {worst_pou:.2e}", t0)


def _criterion_2(rng, build=build_product2):
    t0 = time.time()
    alpha, D = 2, 2
    worst = {}
    annihilation_ok = True
    for B in (1.0, alpha + D + 1.0):
        g = np.linspace(-B, B, 201)
        XX, YY = np.meshgrid(g, g)
        pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
        for eta in (1e-2, 1e-3, 1e-4):
            net = build(eta, B)
            err = float(np.max(np.abs(net.forward(pts) - pts[:, 0] * pts[:, 1])))
            worst[(eta, B)] = err
            xs = rng.uniform(-B, B, 1000)
            zero1 = net.forward(np.stack([xs, np.zeros(1000)], axis=1))
            zero2 = net.forward(np.stack([np.zeros(1000), xs], axis=1))
            annihilation_ok &= bool(np.all(zero1 == 0.0) and np.all(zero2 == 0.0))
    ok = annihilation_ok and all(err <= eta for (eta, _), err in worst.items())
    margin = max(err / eta for (eta, _), err in worst.items())
    _report(2, ok, f"sup-error/eta worst ratio {margin:.3f}, exact annihilation {annihilation_ok}", t0)


def test_criterion_2_multiplication_oracle(rng):
    _criterion_2(rng)


def test_criterion_2_fails_for_a_product_net_that_maps_a_zero_factor_off_zero(rng, capsys):
    # a readout bias of 1e-12 keeps every product within eta, so only the
    # annihilation check can fail
    def shifted(eta, B):
        net = build_product2(eta, B)
        w, b = net.layers[-1]
        return ScalarNet(net.layers[:-1] + [(w, b + 1e-12)])

    with pytest.raises(AssertionError, match="criterion 2: .* exact annihilation False"):
        _criterion_2(rng, shifted)
    assert "ACCEPTANCE  2 [FAIL]" in capsys.readouterr().out


def test_criterion_3_compilation_equivalence(sinprod, rng):
    t0 = time.time()
    gaps = {}

    xs1 = rng.uniform(-3.0, 3.0, (1000, 1))
    psi = build_trapezoid(1, 2)
    gaps["trapezoid"] = np.max(np.abs(cnn_forward(mlp_to_cnn(psi), xs1) - psi.forward(xs1)))

    sq = build_square(1e-3, 1.0)
    sq_cnn = mlp_to_cnn(sq)
    gaps["square"] = np.max(np.abs(cnn_forward(sq_cnn, xs1 / 3.0) - sq.forward(xs1 / 3.0)))

    times = build_product2(1e-3, 1.0)
    xs2 = rng.uniform(-1.0, 1.0, (1000, 2))
    gaps["product"] = np.max(np.abs(cnn_forward(mlp_to_cnn(times), xs2) - times.forward(xs2)))

    g = build_monomial_bump((1, 1), (1, 0), 2, build_product2(1e-2, 5.0))
    xg = rng.uniform(0.0, 1.0, (1000, 2))
    gaps["monomial_bump"] = np.max(np.abs(cnn_forward(mlp_to_cnn(g), xg) - g.forward(xg)))

    mlp = reference_psi_mlp()
    psi_cnn = mlp_to_cnn(mlp)
    gaps["mlp_to_cnn"] = np.max(np.abs(cnn_forward(psi_cnn, xs1) - mlp.forward(xs1)))

    composed = compose_cnn(psi_cnn, sq_cnn)
    want = sq.forward(mlp.forward(xs1)[:, None])
    gaps["compose_cnn"] = np.max(np.abs(cnn_forward(composed, xs1) - want))

    members = [mlp_to_cnn(build_trapezoid(m, 4)) for m in range(4)]
    want = sum(cnn_forward(c, xs1) for c in members)
    groups = parallel_sum(members, 2 * max(c.width for c in members))
    gaps["parallel_sum"] = np.max(np.abs(sum(cnn_forward(gr, xs1) for gr in groups) - want))

    net = assemble_resnet(groups)
    gaps["assemble_resnet"] = np.max(np.abs(resnet_forward_batch(net, xs1) - want))

    ap = build_euclidean(sinprod, s=0, p=math.inf, N=4, compile_model=True, check_points=100)
    Xe = rng.uniform(0.0, 1.0, (1000, 2))
    gaps["build_euclidean"] = np.max(np.abs(ap.eval(Xe) - ap.model_eval(Xe)))

    worst = max(float(v) for v in gaps.values())
    ok = worst <= 1e-8
    _report(3, ok, f"max compiled-vs-functional gap {worst:.2e} over {len(gaps)} builders", t0)


def test_criterion_4_euclidean_rate(euclid_rate_data):
    t0 = time.time()
    Ns, errs = euclid_rate_data["Ns"], euclid_rate_data["errs"]
    slope0, _ = fit_loglog_slope(Ns, errs[0])
    slope1, _ = fit_loglog_slope(Ns, errs[1])
    ok = -2.6 <= slope0 <= -1.4 and -1.6 <= slope1 <= -0.4
    _report(4, ok, f"W0 slope {slope0:.2f} in [-2.6,-1.4], W1 slope {slope1:.2f} in [-1.6,-0.4]", t0)


def test_criterion_5_polynomial_exactness(rng):
    t0 = time.time()
    poly = get_target("poly-xy", alpha=3, dim=2)
    ap = build_euclidean(poly, s=0, p=math.inf, N=4, compile_model=False)
    X = rng.uniform(0.0, 1.0, (4000, 2))
    surro = float(np.max(np.abs(ap.surrogate(X) - poly(X))))
    total = float(np.max(np.abs(ap.eval(X) - poly(X))))
    c = total / ap.eta
    ok = surro <= 1e-10 and c <= 10.0
    _report(5, ok, f"surrogate err {surro:.2e}, network error c = {c:.3f} (<= 10)", t0)


def _criterion_6(sinprod, build=build_euclidean):
    t0 = time.time()
    stats = {}
    for N in (4, 8):
        Jt = 40
        ap = build(sinprod, s=0, p=math.inf, N=N, Jt=Jt, compile_model=True, check_points=50)
        params = ap.class_params
        terms = ap.record["terms"]
        stats[N] = {
            "K": params.K,
            "kappa1": params.kappa1,
            "J_ratio": params.J / Jt,
            "M_ratio": params.M / terms,  # grouping factor relative to the term count
            "kappa_ok": params.kappa1 <= 3 * N + 1,
            "K_ok": params.K <= 2,
        }
        del ap
    drift_J = stats[8]["J_ratio"] / stats[4]["J_ratio"]
    drift_M = stats[8]["M_ratio"] / stats[4]["M_ratio"]
    sizes_ok = all(s["kappa_ok"] and s["K_ok"] for s in stats.values())
    ok = sizes_ok and 0.5 < drift_J < 2.0 and 0.5 < drift_M < 2.0
    detail = (
        f"K<=D ok, kappa1 {stats[4]['kappa1']:.0f}/{stats[8]['kappa1']:.0f} vs 3N+1 "
        f"{all(s['kappa_ok'] for s in stats.values())}, "
        f"J/Jt drift {drift_J:.2f}x, M/terms drift {drift_M:.2f}x"
    )
    _report(6, ok, detail, t0)


def test_criterion_6_class_audit(sinprod):
    _criterion_6(sinprod)


def test_criterion_6_fails_for_a_model_whose_readout_is_scaled_past_kappa1(sinprod, capsys):
    # the built model's last block gets a copy of its readout filter scaled
    # so that its largest weight is 3N + 2, and the audit runs on the copy;
    # shapes, and so K, J and M, stay as built, so only the kappa1 check fails
    def scaled(target, N, **kwargs):
        ap = build_euclidean(target, N=N, **kwargs)
        last = ap.model.blocks[-1]
        w = last.filters[-1].entries
        readout = FilterTensor(w * ((3 * N + 2) / np.max(np.abs(w))))
        blocks = ap.model.blocks[:-1] + [ResidualBlockSpec(last.filters[:-1] + [readout], last.biases)]
        ap.model = dataclasses.replace(ap.model, blocks=blocks)
        ap.class_params = audit_class(ap.model)
        return ap

    with pytest.raises(AssertionError, match=r"criterion 6: .*kappa1 14/26 vs 3N\+1 False"):
        _criterion_6(sinprod, scaled)
    assert "ACCEPTANCE  6 [FAIL]" in capsys.readouterr().out


def test_criterion_7_lipschitz_bound(sinprod, euclid_rate_data, rng):
    t0 = time.time()
    Ns, errs = euclid_rate_data["Ns"], euclid_rate_data["errs"]
    alpha = 2
    c = max(e * N ** (alpha - 1) for N, e in zip(Ns, errs[1]))
    N = 8
    ap = euclid_rate_data["approxes"][N]
    pairs = sample_pairs(rng, 2, 30000)
    probes = rng.uniform(0.02, 0.98, (3000, 2))
    lip_f = lipschitz_estimate(sinprod, pairs=pairs, probes=probes, fd_step=1e-4)
    lip_ap = lipschitz_estimate(ap.eval, pairs=pairs, probes=probes)
    bound = lip_f + 2.0 * math.sqrt(2.0) * c * N ** (-(alpha - 1))
    ok = lip_ap <= bound
    _report(7, ok, f"Lip(f~) {lip_ap:.3f} <= {bound:.3f} (Lip(f) {lip_f:.3f} + rate-fit slack)", t0)


def test_criterion_8_manifold_rate(circle_study):
    t0 = time.time()
    Ns, errs = circle_study["Ns"], circle_study["errs"]
    slope0, _ = fit_loglog_slope(Ns, errs[0])
    slope1, _ = fit_loglog_slope(Ns, errs[1])
    ok = -2.6 <= slope0 <= -1.4 and -1.6 <= slope1 <= -0.4 and slope0 < -1.2
    _report(
        8,
        ok,
        f"W0(M) slope {slope0:.2f}, W1(M) slope {slope1:.2f}, intrinsic-rate separation "
        f"{slope0:.2f} < -1.2",
        t0,
    )


def test_criterion_9_chart_machinery(circle_study, rng):
    t0 = time.time()
    mspec, atlas = circle_study["mspec"], circle_study["atlas"]
    ap = circle_study["approxes"][8]
    rec = ap.record

    # indicator branches, exactly per the three-branch formula
    p = IndicatorParams(r=rec["r"], Delta=rec["Delta"], theta=rec["theta"], B=1.0, D=3)
    net = build_indicator(p)
    a_lo = rng.uniform(0.0, p.one_threshold, 400)
    a_hi = rng.uniform(p.A, 2.0 * p.r**2, 400)
    a_mid = rng.uniform(p.one_threshold, p.A, 200)
    ind_ok = bool(
        np.all(net.forward(a_lo[:, None]) == 1.0)
        and np.all(net.forward(a_hi[:, None]) == 0.0)
        and np.max(np.abs(net.forward(a_mid[:, None]) - (p.A - a_mid) / (p.A - p.one_threshold)))
        <= 1e-10
    )

    # squared-distance error bound on 1e4 samples
    B, D = 1.0, 3
    theta = rec["theta"]
    c0 = atlas.centers[0]
    sq = build_sqdist_net(c0, theta, B)
    pts = rng.uniform(-B, B, (10000, 3))
    derr = float(np.max(np.abs(sq.forward(pts) - np.sum((pts - c0) ** 2, axis=1))))
    dist_ok = derr <= 4.0 * B * B * D * theta

    # per-chart nets vanish on the indicator transition band
    tt = np.linspace(0.0, 2.0 * math.pi, 400000)
    ring = mspec.embed(tt[:, None])
    band_hits, band_ok = 0, True
    for i, c in enumerate(atlas.centers):
        d2 = np.sum((ring - c) ** 2, axis=1)
        sel = (d2 >= atlas.r**2 - rec["Delta"]) & (d2 <= atlas.r**2)
        if not np.any(sel):
            continue
        take = ring[sel][:50]
        vals = ap.per_chart_eval(i, take)
        band_ok &= bool(np.all(vals == 0.0))
        band_hits += len(take)
        if band_hits >= 1000:
            break
    ok = ind_ok and dist_ok and band_ok and band_hits >= 1000
    _report(
        9,
        ok,
        f"indicator branches exact {ind_ok}, dist err {derr:.2e} <= {4*B*B*D*theta:.2e}, "
        f"band zeros at {band_hits} samples {band_ok}",
        t0,
    )


def test_criterion_10_risk_suite(sinprod):
    t0 = time.time()
    ap = build_euclidean(sinprod, s=0, p=math.inf, N=8, compile_model=False)
    cfg = RiskConfig(n=2000, sigma=0.2, eps=0.1, reps=200, seed=42)
    bern = empirical_residual_study(cfg, sinprod, ap)
    bern_ok = bern["success_fraction"] >= bern["theoretical_floor"]

    gap_cfg = RiskConfig(eps=0.1, deltas=(0.01, 0.02, 0.05), seed=42)
    gaps = adversarial_gap_check(gap_cfg, sinprod, ap, n_data=200)
    ok = bern_ok and gaps["all_ok"]
    _report(
        10,
        ok,
        f"Bernstein fraction {bern['success_fraction']:.3f} >= floor "
        f"{bern['theoretical_floor']:.3f}; adversarial gaps within bound {gaps['all_ok']}",
        t0,
    )
