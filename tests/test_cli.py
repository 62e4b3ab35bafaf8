import hashlib
import json

import numpy as np
import pytest

from sobolev_forge import cli, serialize, taylor
from sobolev_forge.algebra import assemble_resnet, mlp_to_cnn
from sobolev_forge.cli import main
from sobolev_forge.netcore import audit_class
from sobolev_forge.scalarnets import build_trapezoid
from sobolev_forge.studies import ConfigError, validate_config, run_study


def _write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        validate_config(
            {"kind": "euclidean-rate", "target": "sinprod", "alpha": 2, "N_list": [2], "bogus": 1}
        )


def test_validate_names_missing_field():
    with pytest.raises(ConfigError, match="alpha"):
        validate_config({"kind": "euclidean-rate", "target": "sinprod", "N_list": [2]})


def test_validate_unknown_kind():
    with pytest.raises(ConfigError, match="kind"):
        validate_config({"kind": "nope"})


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"target": "sinprod", "N_list": [2, 4]})
    code = main(["--out", str(tmp_path / "out"), "rate-study", "--config", cfg])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_rate_study_mini(tmp_path):
    cfg = {
        "kind": "euclidean-rate",
        "target": "sinprod",
        "alpha": 2,
        "N_list": [2, 4],
        "grid": 21,
        "slope_window_k0": [-4.0, 0.0],
        "slope_window_k1": [-4.0, 1.0],
    }
    out = tmp_path / "out"
    code, summary = run_study(cfg, out)
    assert code == 0
    csv = (out / "rates.csv").read_text().strip().splitlines()
    assert csv[0].split(",")[0] == "target"
    assert len(csv) == 1 + 2 * 2  # two N values x k in {0, 1}
    assert (out / "summary.json").exists() and (out / "rates.svg").exists()
    assert summary["slope_k0"] < -0.5


def test_rate_study_determinism(tmp_path):
    cfg = {
        "kind": "euclidean-rate",
        "target": "sinprod",
        "alpha": 2,
        "N_list": [2, 4],
        "grid": 21,
        "slope_window_k0": [-4.0, 0.0],
        "slope_window_k1": [-4.0, 1.0],
    }
    run_study(cfg, tmp_path / "a")
    run_study(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "rates.csv").read_bytes() == (tmp_path / "b" / "rates.csv").read_bytes()
    # through the CLI, --seed overrides the config's seed; without window
    # keys the summary records the default windows -(alpha - k) +- 0.6
    doc = {key: cfg[key] for key in ("target", "alpha", "N_list", "grid")}
    path = _write_cfg(tmp_path, {**doc, "seed": 7})
    main(["--seed", "0", "--out", str(tmp_path / "c"), "rate-study", "--config", path])
    assert (tmp_path / "a" / "rates.csv").read_bytes() == (tmp_path / "c" / "rates.csv").read_bytes()
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["window_k0"] == [-2.0 - 0.6, -2.0 + 0.6]
    assert summary["window_k1"] == [-1.0 - 0.6, -1.0 + 0.6]


# The CI job's two-N rate study, a finite-p rate at alpha = 3, and the CI
# package job's sphere manifold study, which exits 1 on its pre-asymptotic
# slope gates; the exit code and the sha256 of rates.csv and summary.json
# (numpy 2.4.6, OpenBLAS 0.3.31, x86-64: another BLAS or libm may round the
# values otherwise)
_RATE_PINS = {
    "ci-two-N": (
        {"kind": "euclidean-rate", "target": "sinprod", "alpha": 2, "N_list": [2, 4], "grid": 5,
         "slope_window_k0": [-6.0, 0.0], "slope_window_k1": [-6.0, 1.0]},
        0,
        "db37f9dac45ec0bb0b7cda11c5a2ac0587880d3b7a727355bcebf7bb6da43fe0",
        "3b3f6c9a96fc79b32403ebb09b89965bb18c7c4085b69bd945ee8070b6191be4",
    ),
    "alpha3-p2": (
        {"kind": "euclidean-rate", "target": "sinprod", "alpha": 3, "p": 2, "N_list": [2, 4, 8],
         "grid": 31},
        0,
        "c650e5bef3db26176fd5053fc1b1579961f0cf9c56d6673c219a680ea7dc4481",
        "5b552262c2bead5a3e763fb74fe874f8dc211dd7ce641dca8daa598207912462",
    ),
    "ci-sphere": (
        {"kind": "manifold-rate", "target": "sphere-harmonic", "alpha": 2, "N_list": [2, 4],
         "resolution": 4, "r": 0.24},
        1,
        "956d7741f2c3a3c703176681a3ad252212874553364ef40b3539af0aca2cc9cf",
        "53d54cb80e0650914fee4d3ab5c161d00d2b037dfcd6f044586416d72c4da269",
    ),
}


@pytest.mark.parametrize("name", sorted(_RATE_PINS))
def test_rate_study_outputs_keep_their_bytes(tmp_path, name):
    cfg, code, rates, summary = _RATE_PINS[name]
    assert run_study(cfg, tmp_path)[0] == code
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
    assert (digest("rates.csv"), digest("summary.json")) == (rates, summary)


def test_rate_study_makes_one_evaluator_call_per_N(tmp_path, monkeypatch):
    # both norms of an N come from one call on the grid and its 2D stencils
    calls, ev = [], taylor.ConstructedApproximator.eval
    monkeypatch.setattr(taylor.ConstructedApproximator, "eval",
                        lambda ap, X: calls.append(len(X)) or ev(ap, X))
    run_study(_RATE_PINS["ci-two-N"][0], tmp_path)
    assert calls == [5 * 5**2] * 2


@pytest.mark.parametrize(
    "command, doc, csv_name, header",
    [
        ("risk-study", {"n": 200, "reps": 5}, "risk.csv",
         "n,sigma,eps,reps,success_fraction,theoretical_floor"),
        ("adv-study", {"n_data": 20, "deltas": [0.02]}, "gaps.csv", "delta,gap,bound"),
    ],
    ids=["risk", "adversarial"],
)
def test_risk_and_adversarial_studies_through_cli(tmp_path, capsys, command, doc, csv_name, header):
    cfg = _write_cfg(tmp_path, {"target": "sinprod", "alpha": 2, "N": 4, **doc})
    csvs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["--out", str(out), command, "--config", cfg])
        summary = json.loads((out / "summary.json").read_text())
        assert code == (0 if summary["pass"] else 1)
        assert f"[{'PASS' if summary['pass'] else 'FAIL'}]" in capsys.readouterr().out
        csvs.append((out / csv_name).read_bytes())
    lines = csvs[0].decode().splitlines()
    assert lines[0] == header and len(lines) == 2
    assert csvs[0] == csvs[1]


def test_build_eval_audit_netio_flow(tmp_path, capsys):
    build_cfg = _write_cfg(
        tmp_path, {"target": "poly-xy", "alpha": 3, "N": 2, "compile": True}, "build.json"
    )
    out = tmp_path / "art"
    assert main(["--out", str(out), "build", "--config", build_cfg]) == 0
    model_path = out / "model.json"
    assert model_path.exists()
    capsys.readouterr()

    assert main(["--out", str(tmp_path / "audit"), "audit", "--net", str(model_path)]) == 0
    doc = json.loads(capsys.readouterr().out)

    net = serialize.load(model_path)
    params = audit_class(net)
    assert doc.get("M") == params.M and doc.get("kappa1") == params.kappa1

    assert main(["net-io", "check", "--net", str(model_path)]) == 0
    dest = tmp_path / "copy.json"
    assert main(["net-io", "copy", "--net", str(model_path), "--dest", str(dest)]) == 0
    assert serialize.to_dict(serialize.load(dest)) == serialize.to_dict(net)
    assert main(["net-io", "copy", "--net", str(model_path)]) == 2
    assert "needs --dest" in capsys.readouterr().err

    code = main(["eval", "--net", str(model_path), "--at", "0.3,0.4", "--at", "0.5,0.5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x0,x1,value"
    assert len(lines) == 3

    # without --at: the 3 x 3 midpoint grid, written to eval.csv under --out
    assert main(["eval", "--net", str(model_path), "--grid", "3", "--out", str(tmp_path / "ev")]) == 0
    lines = (tmp_path / "ev" / "eval.csv").read_text().splitlines()
    assert lines[0] == "x0,x1,value" and len(lines) == 1 + 9
    assert lines[1].startswith(f"{1 / 6!r},{1 / 6!r},")


def test_net_io_check_and_copy_keep_the_support(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"target": "sinprod", "alpha": 2, "N": 2}, "build.json")
    assert main(["--out", str(tmp_path / "art"), "build", "--config", cfg]) == 0
    model_path = tmp_path / "art" / "model.json"
    support = json.loads(model_path.read_text())["support"]
    assert support["N"] == 2 and len(support["nodes"]) == 27
    assert main(["net-io", "check", "--net", str(model_path)]) == 0
    dest = tmp_path / "copy.json"
    assert main(["net-io", "copy", "--net", str(model_path), "--dest", str(dest)]) == 0
    assert json.loads(dest.read_text())["support"] == support


def test_unexpected_exception_exits_3_with_a_traceback(monkeypatch, tmp_path, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_audit", crash)
    assert main(["audit", "--net", str(tmp_path / "any.json")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_audit_json_matches_audit_class(tmp_path):
    net = assemble_resnet([mlp_to_cnn(build_trapezoid(1, 4))])
    path = tmp_path / "psi.json"
    serialize.save(path, net)
    assert main(["audit", "--net", str(path), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "audit.json").read_text())
    params = audit_class(net)
    assert (doc["M"], doc["L"], doc["J"], doc["K"]) == (params.M, params.L, params.J, params.K)
    assert doc["kappa1"] == params.kappa1


def test_saved_trapezoid_reload_identical(tmp_path):
    net = assemble_resnet([mlp_to_cnn(build_trapezoid(0, 1))])
    path = tmp_path / "t.json"
    serialize.save(path, net)
    back = serialize.load(path)
    from sobolev_forge.netcore import resnet_forward_batch

    xs = np.linspace(-3, 3, 1001)[:, None]
    assert np.array_equal(resnet_forward_batch(net, xs), resnet_forward_batch(back, xs))


def test_bad_network_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["audit", "--net", str(path)]) == 2


def test_manifold_study_mini(tmp_path):
    cfg = {
        "kind": "manifold-rate",
        "target": "circle-sin",
        "alpha": 2,
        "N_list": [4, 8],
        "r": 0.2,
        "resolution": 20,
        "slope_window_k0": [-6.0, 0.0],
        "slope_window_k1": [-6.0, 1.0],
        "separation_slope": -0.5,
    }
    out = tmp_path / "m"
    code, summary = run_study(cfg, out)
    assert code == 0
    lines = (out / "rates.csv").read_text().strip().splitlines()
    assert lines[0] == "manifold,D,d,N,k,error,charts"
    assert len(lines) == 1 + 2 * 2
    assert summary["chart_count"] >= 32
    assert summary["slope_k0"] < -1.0


def test_manifold_rate_study_determinism(tmp_path):
    """The CI package job's circle study, run twice, writes the same bytes."""
    cfg = {
        "kind": "manifold-rate",
        "target": "circle-sin",
        "alpha": 2,
        "N_list": [2, 4],
        "resolution": 8,
        "slope_window_k0": [-6.0, 0.0],
        "slope_window_k1": [-6.0, 1.0],
        "separation_slope": -0.5,
    }
    assert run_study(cfg, tmp_path / "a")[0] == 0
    assert run_study(cfg, tmp_path / "b")[0] == 0
    for name in ("rates.csv", "summary.json", "rates.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_eval_rejects_a_nan_model_with_exit_2(tmp_path, capsys):
    doc = serialize.to_dict(assemble_resnet([mlp_to_cnn(build_trapezoid(0, 1))]))
    doc["fc"]["bias"] = float("nan")
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--net", str(path), "--at", "0.5"]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("point, message", [
    ("0.3", "has 1 coordinates"),
    ("a,b", "must be numbers"),
    ("1.5,0.5", "outside the domain"),
    ("0.5,nan", "outside the domain"),
])
def test_eval_rejects_bad_points_with_exit_2(tmp_path, capsys, point, message):
    build_cfg = _write_cfg(tmp_path, {"target": "sinprod", "alpha": 2, "N": 2}, "build.json")
    assert main(["--out", str(tmp_path / "art"), "build", "--config", build_cfg]) == 0
    capsys.readouterr()
    assert main(["eval", "--net", str(tmp_path / "art" / "model.json"), "--at", point]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize(
    "kind, change, message",
    [
        ("euclidean-rate", {"N_list": [4]}, "2 distinct"),
        ("euclidean-rate", {"N_list": [4, 4]}, "2 distinct"),
        ("euclidean-rate", {"N_list": [0, 4]}, "integers >= 2"),
        ("euclidean-rate", {"N_list": [2.5, 4]}, "integers >= 2"),
        ("euclidean-rate", {"N_list": "4"}, "list"),
        ("euclidean-rate", {"alpha": 2.5}, "alpha"),
        ("euclidean-rate", {"target": "nope"}, "unknown target"),
        ("manifold-rate", {"N_list": [1, 4]}, "integers >= 2"),
        ("manifold-rate", {"target": "sinprod"}, "unknown target"),
        ("risk", {"N": 0}, "N must be"),
        ("euclidean-rate", {"N_list": [2, 1]}, "integers >= 2"),
        ("risk", {"N": 1}, "N must be an integer >= 2"),
        ("adversarial", {"N": 1}, "N must be an integer >= 2"),
        ("adversarial", {"N": None}, "N must be an integer >= 2"),
    ],
)
def test_validate_rejects_bad_values(kind, change, message):
    base = {
        "euclidean-rate": {"target": "sinprod", "alpha": 2, "N_list": [2, 4]},
        "manifold-rate": {"target": "circle-sin", "alpha": 2, "N_list": [4, 8]},
        "risk": {"target": "sinprod", "alpha": 2, "N": 4},
        "adversarial": {"target": "sinprod", "alpha": 2, "N": 4},
    }[kind]
    with pytest.raises(ConfigError, match=message):
        validate_config({"kind": kind, **base, **change})


@pytest.mark.parametrize(
    "change",
    [{"N_list": [4]}, {"N_list": [0, 4]}, {"target": "nope"}, {"kind": "risk"},
     pytest.param("{", id="malformed-json"), pytest.param("[2, 4]", id="json-list"),
     pytest.param(None, id="missing-file")],
)
def test_rate_study_bad_values_exit_2(tmp_path, capsys, change):
    """A dict is merged into a valid config, a string is the whole config
    file, and None leaves the config file missing."""
    cfg = tmp_path / "cfg.json"
    if isinstance(change, dict):
        cfg.write_text(json.dumps({"target": "sinprod", "alpha": 2, "N_list": [2, 4], **change}))
    elif change is not None:
        cfg.write_text(change)
    assert main(["--out", str(tmp_path / "out"), "rate-study", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"target": "sinprod", "alpha": 2, "N": "4"}, "N must be an integer"),
        ({"target": "nope", "alpha": 2, "N": 2}, "unknown target"),
        ({"target": "gauss-bump", "alpha": 5, "N": 2}, "not available"),
        ([{"target": "sinprod", "alpha": 2, "N": 2}], "must be a JSON object"),
        ({"target": "sinprod", "alpha": 2, "N": 2, "bogus": 1}, "unknown build config keys"),
        ({"alpha": 2, "N": 2}, "missing required key 'target'"),
        ({"target": "sinprod", "alpha": 2, "N": 2, "seed": "x"}, "seed must be an integer >= 0"),
        ({"target": "sinprod", "alpha": 2, "N": 2, "seed": -1}, "seed must be an integer >= 0"),
        ({"target": "sinprod", "alpha": 2, "N": 2, "compile": "no"}, "compile must be true or false"),
    ],
)
def test_build_bad_config_exit_2(tmp_path, capsys, doc, message):
    cfg = _write_cfg(tmp_path, doc, "build.json")
    assert main(["--out", str(tmp_path / "art"), "build", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("command", [["eval"], ["audit"], ["net-io", "check"]])
def test_missing_network_file_exit_2(tmp_path, capsys, command):
    assert main(command + ["--net", str(tmp_path / "absent.json")]) == 2
    assert "cannot read network file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"Mt": 5, "Jt": 5}, "Jt = 5 is below the width 14 of one term's network"),
        ({"Mt": 1, "Jt": 2}, "Mt*Jt = 2 < 2^d = 4"),
        ({"Mt": 3}, "need either N or both Mt and Jt"),
        ({"N": 1}, "N must be an integer >= 2, got 1"),
    ],
)
def test_build_rejects_a_config_that_cannot_compile_with_exit_2(
    tmp_path, capsys, monkeypatch, change, message
):
    def no_coefficients(*args, **kwargs):
        raise AssertionError("coefficients computed for a config that cannot compile")

    monkeypatch.setattr(taylor, "taylor_coeffs", no_coefficients)
    cfg = _write_cfg(tmp_path, {"target": "sinprod", "alpha": 2, **change})
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("rate-study", {"N_list": [2, 1]}, "N_list must be a list of integers >= 2"),
        ("risk-study", {"N": 1}, "N must be an integer >= 2"),
        ("adv-study", {"N": 1}, "N must be an integer >= 2"),
    ],
)
def test_study_rejects_N_below_2_before_any_build(
    tmp_path, capsys, monkeypatch, command, change, message
):
    """N = 1 is rejected up front; a study that computed coefficients first
    would reach the patched taylor_coeffs and exit 3."""

    def no_coefficients(*args, **kwargs):
        raise AssertionError("coefficients computed for a study that cannot build")

    monkeypatch.setattr(taylor, "taylor_coeffs", no_coefficients)
    cfg = _write_cfg(tmp_path, {"target": "sinprod", "alpha": 2, **change})
    assert main(["--out", str(tmp_path / "out"), command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("risk-study", {"reps": 0}, "reps must be an integer >= 1, got 0"),
        ("risk-study", {"n": "x"}, "n must be an integer >= 1, got 'x'"),
        ("risk-study", {"sigma": "a"}, "sigma must be a number >= 0, got 'a'"),
        ("adv-study", {"deltas": 0.1}, "deltas must be a non-empty list of numbers >= 0"),
        ("adv-study", {"deltas": ["a"]}, "deltas must be a non-empty list of numbers >= 0"),
        ("adv-study", {"n_data": 0}, "n_data must be an integer >= 1, got 0"),
        ("risk-study", {"eps": 0.5}, "eps must be below min(sigma, 1) = 0.2"),
        ("manifold-study", {"r": 0.5}, "r must be below reach/4 = 0.25"),
    ],
)
def test_study_rejects_a_malformed_value_with_exit_2(tmp_path, capsys, command, change, message):
    if command == "manifold-study":
        base = {"target": "circle-sin", "alpha": 2, "N_list": [2, 4]}
    else:
        base = {"target": "sinprod", "alpha": 2, "N": 2}
    cfg = _write_cfg(tmp_path, {**base, **change})
    assert main(["--out", str(tmp_path / "out"), command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and "Traceback" not in err


# A CNN document as the writer once produced for a CnnFunction: one block,
# C = 1, a pair input layer and a first-row readout.
_CNN_DOC = {
    "version": 2,
    "kind": "cnn",
    "D": 1,
    "C": 1,
    "blocks": [{"filters": [0, 1], "biases": [2, 3]}],
    "fc": {"weight": [1.0, -1.0], "bias": 0.0},
    "first_row_only": True,
    "input_pair_layer": True,
    "arrays": [
        {"dims": [2, 1, 1], "data": [1.0, -1.0]},
        {"dims": [2, 1, 2], "data": [1.0, -1.0, -1.0, 1.0]},
        {"dims": [1, 2], "data": [0.0, 0.0]},
        {"dims": [1, 2], "data": [0.5, -0.5]},
    ],
}


@pytest.mark.parametrize(
    "command", [["eval", "--at", "0.3"], ["audit"], ["net-io", "check"]], ids=["eval", "audit", "net-io"]
)
def test_a_cnn_document_is_a_network_file_error(tmp_path, capsys, command):
    path = tmp_path / "cnn.json"
    path.write_text(json.dumps(_CNN_DOC))
    assert main(command[:1] + ["--net", str(path)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("network file error:") and "'cnn'" in err and "Traceback" not in err


def _psi_file(tmp_path):
    path = tmp_path / "net.json"
    serialize.save(path, assemble_resnet([mlp_to_cnn(build_trapezoid(1, 4))]))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--config", "{build}", "--out", "{file}"],
        ["eval", "--net", "{net}", "--at", "0.5", "--out", "{file}"],
        ["audit", "--net", "{net}", "--out", "{file}"],
        ["rate-study", "--config", "{study}", "--out", "{file}"],
        ["net-io", "copy", "--net", "{net}", "--dest", "{dir}"],
    ],
    ids=["build", "eval", "audit", "rate-study", "net-io-copy"],
)
def test_an_output_path_that_cannot_be_written_exits_2(tmp_path, capsys, argv):
    (tmp_path / "dir").mkdir()
    paths = {
        "build": _write_cfg(tmp_path, {"target": "sinprod", "alpha": 2, "N": 2}, "build.json"),
        "study": _write_cfg(tmp_path, {"target": "sinprod", "alpha": 2, "N_list": [2, 4]}, "study.json"),
        "net": _psi_file(tmp_path),
        "file": str(tmp_path / "build.json"),  # a file where the output directory must go
        "dir": str(tmp_path / "dir"),  # a directory where the output file must go
    }
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_a_write_error_names_the_destination_not_the_temporary_file(tmp_path, capsys):
    dest = tmp_path / "smoke"
    dest.mkdir()
    assert main(["net-io", "copy", "--net", _psi_file(tmp_path), "--dest", str(dest)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: cannot write output:") and ".tmp" not in err
    assert err.endswith(f"Is a directory: {str(dest)!r}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "smoke"]  # no temporary left


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_eval_rejects_a_grid_below_1_with_exit_2(tmp_path, capsys, grid):
    assert main(["eval", "--net", _psi_file(tmp_path), "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --grid must be an integer >= 1") and not captured.out
