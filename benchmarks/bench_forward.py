#!/usr/bin/env python3
"""Benchmark the compiled-model forward and the functional path.

The forward pass of compiled networks is the hot loop of every study (rate
grids, Lipschitz probing, adversarial search).  This script times

* model evaluation at a single point (adversarial coordinate-ascent pattern)
  and on a batch (rate-study grid pattern), through the execution plan of
  ``resnet_forward_batch`` against the sequential reference
  ``resnet_forward_reference``;
* the functional path ``ConstructedApproximator.eval`` of the N=8 model at
  1, 200 and 5000 points, the evaluator the studies run.

Usage: python benchmarks/bench_forward.py
"""

import math
import time

import numpy as np

from sobolev_forge.netcore import resnet_forward_batch, resnet_forward_reference
from sobolev_forge.targets import get_target
from sobolev_forge.taylor import build_euclidean


def _time(fn, min_seconds=0.5):
    fn()  # warmup
    reps, elapsed = 0, 0.0
    t0 = time.perf_counter()
    while elapsed < min_seconds:
        fn()
        reps += 1
        elapsed = time.perf_counter() - t0
    return elapsed / reps


def _table(title, columns, rows):
    width = max(len(label) for label in rows)
    speedup = f"{'speedup':>10}" if len(columns) > 1 else ""
    print(f"{title:<{width}}  " + "".join(f"{c:>12}" for c in columns) + speedup)
    for label, times in rows.items():
        cells = "".join(f"{t * 1e3:>10.3f}ms" for t in times)
        speedup = f"{times[0] / times[-1]:>9.2f}x" if len(times) > 1 else ""
        print(f"{label:<{width}}  {cells}{speedup}")


def main():
    target = get_target("sinprod", alpha=2, dim=2)
    approx = build_euclidean(target, s=0, p=math.inf, N=4, compile_model=True, check_points=10)
    model = approx.model
    rng = np.random.default_rng(0)
    points = {
        "model single point": rng.uniform(0, 1, (1, 2)),
        "model batch 1000": rng.uniform(0, 1, (1000, 2)),
    }
    _table(
        "forward",
        ["reference", "plan"],
        {
            label: [_time(lambda: fwd(model, X)) for fwd in (resnet_forward_reference, resnet_forward_batch)]
            for label, X in points.items()
        },
    )

    functional = build_euclidean(target, s=0, p=math.inf, N=8, compile_model=False)
    _table(
        "functional",
        ["eval"],
        {
            f"N=8, {n} points": [_time(lambda: functional.eval(X))]
            for n, X in ((n, rng.uniform(0, 1, (n, 2))) for n in (1, 200, 5000))
        },
    )


if __name__ == "__main__":
    main()
