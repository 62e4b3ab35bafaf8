#!/usr/bin/env python3
"""sobolev-forge benchmark: build, serve, studies and manifold workloads.

    python3 perfbench/run.py --workload build --seed 0 --seconds 25 --trace 0

runs one workload in this process against the package in ./src and prints,
as its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Lines before it give provenance and
the workload's named metrics.  Without ``--workload`` (or with ``all``) every
workload runs in a fresh child process, untraced and then traced, and a
summary table is printed.

Run from the repository root.  BLAS threads are pinned to 1.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# Set-up repeats: at least 3, more while they take under SETUP_SECONDS, at most 9.
SETUP_SECONDS = 2.0
# Stop starting rounds once another would end past this share of --seconds.
ROUND_SLACK = 1.1


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"no BENCHMARK.json in {ROOT}; run from the repository root")
    return json.loads(path.read_text())


def _import_package():
    src = ROOT / "src"
    if not (src / "sobolev_forge" / "__init__.py").is_file():
        _fail(f"no sobolev_forge sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import sobolev_forge

    if Path(sobolev_forge.__file__).resolve().parent != (src / "sobolev_forge").resolve():
        _fail(f"imported sobolev_forge from {sobolev_forge.__file__}, not from {src}")


def provenance(seed):
    import numpy
    from sobolev_forge import kernels

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "backend": kernels.backend_name(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def tail(samples):
    """(percentile, value, n): the highest percentile with >= 10 samples
    beyond it, or the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return 100.0, s[-1], n
    return 100.0 * (n - 10) / n, s[n - 11], n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def named_metrics(w, parts, setup_s, ctx):
    """The workload's own metrics, by the names users know them by: medians
    of the run's samples (and the tail of the single-point forwards)."""
    import workloads

    med = [statistics.median(p) for p in parts]
    labels = {
        "build": [f"build_{label}_s" for label, _, _ in workloads.BUILDS[ctx.size]],
        "studies": ["rate_study_s", "lipschitz_s", "adv_risk_s"],
        "manifold": ["manifold_build_s", "manifold_norm_s", "manifold_eval1_s"],
    }
    out = {"setup_s": (setup_s, "s")}
    if w.name == "serve":
        pct, value, n = tail(parts[0])
        cfg = workloads.SERVE[ctx.size]
        out.update({
            "fwd1_ms_p50": (1e3 * med[0], "ms"),
            "fwd1_ms_tail": (1e3 * value, f"ms (p{pct:.1f} of {n})"),
        })
        for N, size, m in zip(cfg["models"], cfg["batches"], med[1:]):
            out[f"fwd_n{N}_pts_per_s"] = (size / m, "1/s")
    else:
        out.update({name: (m, "s") for name, m in zip(labels[w.name], med)})
    if w.name == "build":
        label = workloads.BUILDS[ctx.size][1][0]
        out[f"model_{label}_mb"] = (w.model_mb[label], "MB")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out["failed_frac"] = (ctx.failed / max(ctx.attempted, 1), "frac")
    return out


def timed_round(w, index):
    start = time.perf_counter()
    parts, outputs = w.round(index)
    return parts, outputs, time.perf_counter() - start


def run_workload(args, spec):
    import workloads

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    ctx = workloads.Context(ROOT, args.seed, args.size, tmp)
    w = workloads.WORKLOADS[args.workload](ctx)
    metrics = {}
    try:
        print(json.dumps({"provenance": provenance(args.seed), "workload": w.name,
                          "size": args.size, "trace": args.trace}))
        w.prepare()
        if args.trace:
            metrics = traced(w, args, spec)
        else:
            metrics = untraced(w, args, spec)
    except Exception as e:  # the program under test failed: report it as a failed check
        traceback.print_exc()
        ctx.check(False, f"exception: {e!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp_root.exists() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()
    for what in ctx.failures[:20]:
        print(f"FAILED: {what}")
    return ctx, metrics


def untraced(w, args, spec):
    import workloads

    ctx = w.ctx
    setups = []
    while len(setups) < 3 or (sum(s[0] for s in setups) < SETUP_SECONDS and len(setups) < 9):
        setups.append(workloads.timed(w.setup)[0])
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(timed_round(w, len(rounds)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r[2] for r in rounds)
        if elapsed >= args.seconds or elapsed + typical > ROUND_SLACK * args.seconds:
            break
    # samples are (seconds, normalized seconds) pairs
    parts = [[v for r in rounds for v in r[0][i]] for i in range(3)]
    raw = [[v[0] for v in p] for p in parts]
    norm = [[v[1] for v in p] for p in parts]
    named = named_metrics(w, raw, statistics.median(s[0] for s in setups), ctx)
    for name, (value, unit) in named.items():
        print(f"{w.name}: {name} = {value:.6g} {unit}")
    print(json.dumps({"setup_samples": setups, "round_samples": [r[2] for r in rounds],
                      "part_samples": parts}))
    # the gated timings are contention-normalized medians: see README.md
    values = {
        "setup_s": statistics.median(s[1] for s in setups),
        "part1_norm_s": statistics.median(norm[0]),
        "part2_norm_s": statistics.median(norm[1]),
        "part3_norm_s": statistics.median(norm[2]),
        "peak_rss_mb": named["peak_rss_mb"][0],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def traced(w, args, spec):
    import workloads
    from tracer import Tracer

    ctx = w.ctx
    w.setup()
    _, reference, plain_s = timed_round(w, 0)
    tracer = Tracer(extra_modules=[workloads])
    tracer.install()
    try:
        missed = tracer.missed_aliases()
        ctx.check(not missed, f"tracer missed aliases: {missed[:5]}")
        w.label_root, w.untraced = tracer.label_next_root, tracer.paused
        _, outputs, traced_s = timed_round(w, 0)
    finally:
        tracer.uninstall()
    ctx.check(outputs == reference, "traced round outputs differ from the untraced round")
    values = tracer.layer_metrics()
    values.update(w.layer_extras())
    evals = values["manifold.ManifoldApproximator.eval.calls"]
    values["manifold.charts_per_eval"] = (
        values["manifold.ManifoldApproximator.per_chart_eval.calls"] / evals if evals else 0.0
    )
    values["trace_overhead_frac"] = traced_s / plain_s - 1.0
    print(json.dumps({"trace_roots": tracer.root_summary(), "untraced_round_s": plain_s,
                      "traced_round_s": traced_s}))
    print(f"{w.name}: trace_overhead_frac = {values['trace_overhead_frac']:.4f}")
    values.setdefault("netcore.active_block_frac", 0.0)  # only served models have one
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def run_all(args):
    """Every workload in a fresh child process, untraced then traced."""
    names = ("build", "serve", "studies", "manifold")
    results, ok = {}, True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if not line.startswith("{"):
                    print(line)
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            results[(name, trace)] = result
    for name in names:
        if (name, 1) in results:
            top = sorted(
                ((k, v["value"]) for k, v in results[(name, 1)]["metrics"].items()
                 if k.endswith(".self_s") and k.count(".") == 1),
                key=lambda kv: -kv[1],
            )
            print(f"{name}: layer self time " + ", ".join(f"{k[:-7]} {v:.2f}s" for k, v in top[:6]))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", "build", "serve", "studies", "manifold"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smallest inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    spec = _spec()
    _import_package()
    if args.workload == "all":
        return run_all(args)
    ctx, metrics = run_workload(args, spec)
    correct = ctx.failed == 0 and ctx.attempted > 0
    print(json.dumps({"correct": correct, "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
