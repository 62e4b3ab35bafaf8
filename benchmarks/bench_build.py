#!/usr/bin/env python3
"""Time a compiled build stage by stage, and the forwards of the built model.

For sinprod (D=2) at alpha=2, N = 4, 8, 16 and alpha=3, N = 16 this script
runs ``build_euclidean`` and ``serialize.save`` and splits their wall time
into stages, by wrapping the functions the compile step calls through the
``taylor`` module:

* ``term_nets``: the scalar term nets (``monomial_bump_template``, or
  ``build_monomial_bump`` in a tree that builds every term directly);
* ``cnn_conversion``: ``mlp_to_cnn``, ``extend_cnn_depth`` and ``restamp``;
* ``grouping_assembly``: ``parallel_sum`` and ``assemble_resnet``;
* ``audit``: ``audit_class``;
* ``equality_check``: the compiled forwards of the build gates
  (``resnet_forward_dense`` and ``resnet_forward_batch``);
* ``save``: ``serialize.save`` of the model;
* ``other``: the rest (Taylor coefficients, the functional evaluator of the
  gates, the intermediate-magnitude audit).

A wrapped call inside another counts toward its own stage only.  Each build
runs ``--reps`` times and every figure is the median.  The model's array
count, its distinct arrays (same shape and bytes) and its file size are
reported too, and so is the time to read the file back: ``load_s`` for
``serialize.load`` and ``first_forward_s`` for the first compiled forward
of the loaded model at one point, which lowers it.

For the alpha=2 builds it then times three forwards at 1, 200 and 2000
uniform points of the unit square (``forward`` in the results):

* ``dense``: ``resnet_forward_dense``, every block at every point;
* ``sparse``: ``resnet_forward_batch``, each point through only the blocks
  whose bump can cover it;
* ``functional``: ``ConstructedApproximator.eval``.

Each forward timing is the median of at least ``--reps`` calls after a
warm-up, more while they take under a second.  BLAS threads are pinned to
1, as in perfbench.  ``BENCH_sparse_forward.json`` holds the forward
timings of the support-sparse change, as a separate earlier script wrote
them.

``--src`` times the package in another source tree (a checkout of an
earlier commit, say); the wrapping names that tree lacks are skipped.  The
results are stored under ``--label`` in ``BENCH_template_build.json`` at the
repository root, next to the labels already there.

Usage: python benchmarks/bench_build.py [--src DIR] [--label NAME] [--reps R]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILDS = ((2, 4), (2, 8), (2, 16), (3, 16))
FORWARD_ALPHA = 2
POINTS = (1, 200, 2000)
STAGES = {
    "term_nets": ("monomial_bump_template", "build_monomial_bump"),
    "cnn_conversion": ("mlp_to_cnn", "extend_cnn_depth", "restamp"),
    "grouping_assembly": ("parallel_sum", "assemble_resnet"),
    "audit": ("audit_class",),
    "equality_check": ("resnet_forward_dense", "resnet_forward_batch"),
}


class StageClock:
    """Self time per stage of the wrapped functions."""

    def __init__(self):
        self.seconds = {}
        self.stack = []  # [stage, start, time of nested wrapped calls]

    def wrap(self, stage, fn):
        def timed(*args, **kwargs):
            self.stack.append([stage, time.perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                _, start, nested = self.stack.pop()
                spent = time.perf_counter() - start
                self.seconds[stage] = self.seconds.get(stage, 0.0) + spent - nested
                if self.stack:
                    self.stack[-1][2] += spent

        return timed


def _median_seconds(fn, reps, min_seconds=1.0, max_reps=51):
    fn()  # warm-up
    times = []
    while len(times) < reps or (sum(times) < min_seconds and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _forwards(modules, approx, reps):
    """Median seconds of the dense, sparse and functional forward at each
    count of POINTS uniform points."""
    np, netcore = modules[:2]
    rng = np.random.default_rng(0)
    rows = []
    for n in POINTS:
        X = rng.uniform(0.0, 1.0, (n, 2))
        row = {"points": n}
        for name, fn in (
            ("dense", lambda: netcore.resnet_forward_dense(approx.model, X)),
            ("sparse", lambda: netcore.resnet_forward_batch(approx.model, X)),
            ("functional", lambda: approx.eval(X)),
        ):
            row[f"{name}_s"] = _median_seconds(fn, reps)
        rows.append(row)
    return rows


def _machine(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": 1,
    }


def _read_back(modules, path):
    np, netcore, serialize = modules[:3]
    start = time.perf_counter()
    model = serialize.load(path)
    loaded = time.perf_counter()
    netcore.resnet_forward(model, np.full(2, 0.5))
    return {"load_s": loaded - start, "first_forward_s": time.perf_counter() - loaded}


def _one_build(modules, alpha, N, directory):
    np, netcore, serialize, targets, taylor = modules
    clock = StageClock()
    originals = {}
    for stage, names in STAGES.items():
        for name in names:
            if hasattr(taylor, name):
                originals[name] = getattr(taylor, name)
                setattr(taylor, name, clock.wrap(stage, originals[name]))
    save = clock.wrap("save", serialize.save)
    target = targets.get_target("sinprod", alpha=alpha, dim=2)
    path = Path(directory) / "model.json"
    try:
        start = time.perf_counter()
        approx = taylor.build_euclidean(target, s=0, p=math.inf, N=N)
        save(path, approx.model)
        total = time.perf_counter() - start
    finally:
        for name, fn in originals.items():
            setattr(taylor, name, fn)
    seconds = {stage: clock.seconds.get(stage, 0.0) for stage in [*STAGES, "save"]}
    seconds["other"] = total - sum(seconds.values())
    seconds["total"] = total
    model = approx.model
    arrays = [a for blk in model.blocks for a in [f.entries for f in blk.filters] + blk.biases]
    counts = {
        "blocks": len(model.blocks),
        "arrays": len(arrays),
        "distinct_arrays": len({(a.shape, a.tobytes()) for a in arrays}),
        "model_mb": path.stat().st_size / 1e6,
    }
    return seconds, counts, _read_back(modules, path), approx


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="package source tree to time")
    parser.add_argument("--label", default="change", help="key of the results in the JSON file")
    parser.add_argument("--reps", type=int, default=3, help="builds per configuration")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from sobolev_forge import netcore, serialize, targets, taylor

    modules = (np, netcore, serialize, targets, taylor)
    rows = []
    with tempfile.TemporaryDirectory() as directory:
        for alpha, N in BUILDS:
            runs = [_one_build(modules, alpha, N, directory) for _ in range(args.reps)]
            seconds = {k: statistics.median(r[0][k] for r in runs) for k in runs[0][0]}
            read = {k: statistics.median(r[2][k] for r in runs) for k in runs[0][2]}
            row = {"alpha": alpha, "N": N, "reps": args.reps, "seconds": seconds}
            row.update(runs[0][1], **read)
            split = "  ".join(f"{k} {v:.3f}" for k, v in {**seconds, **read}.items())
            print(f"alpha={alpha} N={N:>2} ({runs[0][1]['blocks']} blocks, "
                  f"{runs[0][1]['model_mb']:.2f} MB): {split}", flush=True)
            if alpha == FORWARD_ALPHA:
                row["forward"] = _forwards(modules, runs[0][3], args.reps)
                for f in row["forward"]:
                    ms = "  ".join(f"{k[:-2]} {f[k] * 1e3:.2f} ms" for k in list(f)[1:])
                    print(f"  forward at {f['points']:>4} points: {ms}", flush=True)
            rows.append(row)
    path = ROOT / "BENCH_template_build.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["what"] = (
        "median seconds per stage of build_euclidean + serialize.save, then of "
        "serialize.load and the first forward of the loaded model, and (alpha=2, "
        "under forward) of the dense, sparse and functional forward; sinprod D=2; "
        "see benchmarks/bench_build.py"
    )
    doc["machine"] = _machine(np)
    doc.setdefault("results", {})[args.label] = rows
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path} [{args.label}]")


if __name__ == "__main__":
    main()
