"""Tests of the benchmark itself: smoke runs at tiny size and the tracer.

    python3 -m pytest perfbench -q        (from the repository root)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from run import tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {  # at the tiny size
    "build": ("build_a2n2_s", "build_a2n4_s", "build_a3n2_s", "model_a2n4_mb"),
    "serve": ("fwd1_ms_p50", "fwd1_ms_tail", "fwd_n3_pts_per_s", "fwd_n2_pts_per_s"),
    "studies": ("rate_study_s", "lipschitz_s", "adv_risk_s"),
    "manifold": ("manifold_build_s", "manifold_norm_s", "manifold_eval1_s"),
}
COMMON = ("setup_s", "peak_rss_mb", "failed_frac")


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        assert result["metrics"]["cli.main.self_s"]["value"] > 0 or workload != "build"
        return
    text = "\n".join(lines[:-1])
    for name in NAMED[workload] + COMMON:
        assert f"{workload}: {name} = " in text, name


def test_conv_calls_of_a_build_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = _run("build", 1)
        assert proc.returncode == 0, proc.stderr
        roots = next(json.loads(x) for x in proc.stdout.splitlines() if x.startswith('{"trace_roots'))
        counts.append(roots["trace_roots"]["a2n4"]["conv_layer_calls"])
    assert counts[0] > 0 and counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("build", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def installed():
    t = tracer_mod.Tracer(extra_modules=[workloads]).install()
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_rebinds_every_alias(installed):
    import sobolev_forge
    from sobolev_forge import cli, manifold, scalarnets, studies, taylor

    assert installed.missed_aliases() == []
    assert all(n > 0 for n in installed.rebound.values())
    for owner, attr in [
        (taylor, "build_monomial_bump"),
        (studies, "build_euclidean"),
        (cli, "build_euclidean"),
        (sobolev_forge, "build_euclidean"),
        (taylor, "resnet_forward_batch"),
        (manifold, "resnet_forward_batch"),
        (scalarnets.ScalarNet, "forward"),
        (workloads, "cli"),
    ]:
        value = getattr(owner, attr)
        if owner is workloads:
            value = value.main
        assert hasattr(value, "__wrapped__"), f"{owner.__name__}.{attr}"


def test_an_alias_out_of_reach_is_reported():
    from sobolev_forge import scalarnets

    held = [scalarnets.psi_value]  # a reference install() cannot rebind
    t = tracer_mod.Tracer().install()
    try:
        assert "list -> scalarnets.psi_value" in t.missed_aliases()
    finally:
        t.uninstall()
    assert held[0] is scalarnets.psi_value


def test_uninstall_restores_the_originals():
    from sobolev_forge import kernels, taylor

    before = (kernels.conv_layer, taylor.build_monomial_bump, taylor.ConstructedApproximator.eval)
    t = tracer_mod.Tracer().install()
    assert kernels.conv_layer is not before[0]
    t.uninstall()
    after = (kernels.conv_layer, taylor.build_monomial_bump, taylor.ConstructedApproximator.eval)
    assert after == before


def test_spans_self_time_and_kernel_counters(installed):
    import numpy as np
    from sobolev_forge import scalarnets

    net = scalarnets.build_product2(1e-2, 2.0)
    net.forward(np.full((5, 2), 0.5))
    m = installed.layer_metrics()
    assert m["scalarnets.build_product2.calls"] == 1
    assert m["scalarnets.ScalarNet.forward.calls"] == 1
    assert m["kernels.mlp_layer.calls"] == net.depth
    assert m["kernels.mlp_layer.rows_per_call"] == 5
    assert 0 <= m["scalarnets.ScalarNet.forward.self_s"]
    assert m["trace.spans"] == sum(installed.calls.values())


def test_tail_keeps_ten_samples_beyond_it():
    pct, value, n = tail(list(range(100)))
    assert (pct, value, n) == (90.0, 89, 100)
    assert sum(v > value for v in range(100)) == 10


def test_compare_holds_numbers_to_the_pinned_tolerance():
    pinned = {"a": [1.0, {"b": True}], "c": "x"}
    assert workloads.compare({"a": [1.0 + 1e-13, {"b": True}], "c": "x"}, pinned) == []
    assert workloads.compare({"a": [1.0 + 1e-11, {"b": True}], "c": "x"}, pinned)
    assert workloads.compare({"a": [1.0, {"b": False}], "c": "x"}, pinned)
    assert workloads.compare({"z": 2.7e-17}, {"z": 0.0}) == []
