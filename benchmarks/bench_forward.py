#!/usr/bin/env python3
"""Benchmark the compiled forward, dense and support-sparse, against the
functional path.

For the sinprod target (alpha=2, D=2) at N = 4, 8 and 16 this script builds
the compiled model and the functional approximant, and times, at 1, 200 and
2000 uniform points of the unit square:

* ``dense``: ``resnet_forward_dense``, every block at every point;
* ``sparse``: ``resnet_forward_batch``, each point through only the blocks
  whose bump can cover it;
* ``functional``: ``ConstructedApproximator.eval``.

Each timing is the median of at least 3 calls, more while they take under a
second.  BLAS threads are pinned to 1, as in perfbench.  The results, with
machine, numpy and BLAS information, go to ``BENCH_sparse_forward.json`` at
the repository root.

Usage: python benchmarks/bench_forward.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sobolev_forge.netcore import resnet_forward_batch, resnet_forward_dense  # noqa: E402
from sobolev_forge.targets import get_target  # noqa: E402
from sobolev_forge.taylor import build_euclidean  # noqa: E402

GRIDS = (4, 8, 16)
POINTS = (1, 200, 2000)


def _median_seconds(fn, min_reps=3, min_seconds=1.0, max_reps=51):
    fn()  # warm-up
    times = []
    while len(times) < min_reps or (sum(times) < min_seconds and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times)


def _machine():
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


def main():
    target = get_target("sinprod", alpha=2, dim=2)
    rng = np.random.default_rng(0)
    rows = []
    for N in GRIDS:
        approx = build_euclidean(target, s=0, p=math.inf, N=N, check_points=10)
        model = approx.model
        for n in POINTS:
            X = rng.uniform(0.0, 1.0, (n, 2))
            row = {"N": N, "blocks": len(model.blocks), "points": n}
            for name, fn in (
                ("dense", lambda: resnet_forward_dense(model, X)),
                ("sparse", lambda: resnet_forward_batch(model, X)),
                ("functional", lambda: approx.eval(X)),
            ):
                row[f"{name}_s"], row[f"{name}_reps"] = _median_seconds(fn)
            row["sparse_over_functional"] = row["sparse_s"] / row["functional_s"]
            row["dense_over_sparse"] = row["dense_s"] / row["sparse_s"]
            rows.append(row)
            print(
                f"N={N:>2} ({row['blocks']:>3} blocks) {n:>4} points: "
                f"dense {row['dense_s'] * 1e3:9.2f} ms  sparse {row['sparse_s'] * 1e3:7.2f} ms  "
                f"functional {row['functional_s'] * 1e3:7.2f} ms  "
                f"sparse/functional {row['sparse_over_functional']:5.2f}"
            )
    doc = {
        "what": "median seconds per forward call; sinprod alpha=2 D=2, uniform points in [0,1]^2",
        "machine": _machine(),
        "results": rows,
    }
    path = ROOT / "BENCH_sparse_forward.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
