#!/usr/bin/env python3
"""Regenerate perfbench/pinned.json, the reference values the benchmark
checks: the exit codes and summaries of its studies at the default seed, and
its manifold norms, for the full and tiny sizes.

    python3 perfbench/pin.py        (from the repository root)

Regenerate them only when a change is meant to alter these results, and say so.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import PINS, reference_values  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {size: reference_values(size, tmp) for size in ("full", "tiny")}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
