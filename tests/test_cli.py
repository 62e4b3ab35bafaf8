import json

import numpy as np
import pytest

from sobolev_forge import cli, serialize
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
    net = assemble_resnet([mlp_to_cnn(build_trapezoid(1, 4).as_mlp(), 2)])
    path = tmp_path / "psi.json"
    serialize.save(path, net)
    code, doc = run_study({"kind": "audit", "net": str(path)}, tmp_path / "out")
    params = audit_class(net)
    assert code == 0
    assert (doc["M"], doc["L"], doc["J"], doc["K"]) == (params.M, params.L, params.J, params.K)
    assert doc["kappa1"] == params.kappa1


def test_saved_trapezoid_reload_identical(tmp_path):
    net = assemble_resnet([mlp_to_cnn(build_trapezoid(0, 1).as_mlp(), 2)])
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


def test_eval_rejects_a_nan_model_with_exit_2(tmp_path, capsys):
    doc = serialize.model_to_dict(assemble_resnet([mlp_to_cnn(build_trapezoid(0, 1).as_mlp(), 2)]))
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
        ("euclidean-rate", {"N_list": [0, 4]}, "integers >= 1"),
        ("euclidean-rate", {"N_list": [2.5, 4]}, "integers >= 1"),
        ("euclidean-rate", {"N_list": "4"}, "list"),
        ("euclidean-rate", {"alpha": 2.5}, "alpha"),
        ("euclidean-rate", {"target": "nope"}, "unknown target"),
        ("manifold-rate", {"N_list": [1, 4]}, "integers >= 2"),
        ("manifold-rate", {"target": "sinprod"}, "unknown target"),
        ("risk", {"N": 0}, "N must be"),
    ],
)
def test_validate_rejects_bad_values(kind, change, message):
    base = {
        "euclidean-rate": {"target": "sinprod", "alpha": 2, "N_list": [2, 4]},
        "manifold-rate": {"target": "circle-sin", "alpha": 2, "N_list": [4, 8]},
        "risk": {"target": "sinprod", "alpha": 2, "N": 4},
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
