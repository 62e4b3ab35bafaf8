#!/usr/bin/env python3
"""Time a compiled build stage by stage, and the forwards of the built model.

For sinprod (D=2) at alpha=2, N = 2, 4, 8, 16 and alpha=3, N = 2, 16 this
script runs ``build_euclidean`` and ``serialize.save`` and splits their wall
time into stages, by wrapping the functions the compile step calls through
the ``taylor`` module, and ``netcore._lower``.  The N = 2 sizes and alpha=2
N=4 are the builds of perfbench's ``build`` workload.

* ``term_nets``: the scalar term nets (``monomial_bump_template``, or
  ``build_monomial_bump`` in a tree that builds every term directly);
* ``cnn_conversion``: ``mlp_to_cnn``, ``extend_cnn_depth`` and ``restamp``;
* ``grouping_assembly``: ``parallel_sum`` and ``assemble_resnet``;
* ``audit``: ``audit_class``;
* ``equality_check``: the compiled forwards of the build gates
  (``resnet_forward_dense`` and ``resnet_forward_batch``), less their
  lowering;
* ``lowering``: ``netcore._lower``, which makes the execution plan of the
  model at its first compiled forward;
* ``save``: ``serialize.save`` of the model;
* ``other``: the rest (Taylor coefficients, the functional evaluator of the
  gates, the intermediate-magnitude audit).

A wrapped call inside another counts toward its own stage only.  Each build
runs ``--reps`` times and every figure is the median.  Two counts come from
the dense equality gate (``resnet_forward_dense`` as ``taylor`` calls it),
by wrapping ``netcore._group_summands`` and ``kernels.conv_layer``:

* ``dense_rows``: its (block, point) rows;
* ``shared_rows``: the rows its shared layers past the gather prefix ran,
  summed over those layers, counted at their ``kernels.conv_layer`` calls
  (one per shared layer).  A tree that runs every row through every such
  layer reads ``dense_rows`` (padded to whole tiles) times their number;
  one that runs each distinct row once reads less.

The model's array count, its distinct arrays (same shape and bytes) and
its file size are reported too, and so is the time to read the file back:
``load_s`` for ``serialize.load`` and ``first_forward_s`` for the first
compiled forward of the loaded model at one point, which lowers it.

For the alpha=2 builds it then times three forwards at 1, 200 and 2000
uniform points of the unit square (``forward`` in the results):

* ``dense``: ``resnet_forward_dense``, every block at every point;
* ``sparse``: ``resnet_forward_batch``, each point through only the blocks
  whose bump can cover it;
* ``functional``: ``ConstructedApproximator.eval``.

Each forward timing is the median of at least ``--reps`` calls after a
warm-up, more while they take under a second.  BLAS threads are pinned to
1, as in perfbench.

For the alpha=2 N=8 build it also splits the single-point
``resnet_forward`` (perfbench ``serve``'s first part) by network part
(``forward_parts`` in the results), over 200 uniform points taken one at
a time, ``--reps`` times (at least three), by wrapping functions of
``netcore``:

* ``cover``: ``_Cover.rows``, the (point, block) rows of the support index;
* ``gather_prefix``: the layers every block of a group shares before its
  first layer with per-block weights, run once per point;
* ``body``: the shared layers after the prefix, one ``kernels.conv_layer``
  call each;
* ``stamped_readout``: the two layers with per-block weights, the stamped
  first layer and the readout;
* ``accumulation_readout``: the rest of the call, the block sum, the fc
  readout and the row gathers and padding between layers.

Each part is the median over the calls of its self time in one call
(wrapped, so each call of a part adds its wrapper's cost to it), and
``total_s`` the median of the same calls unwrapped.

``BENCH_sparse_forward.json`` holds the forward timings of the
support-sparse change, as a separate earlier script wrote them.

Then it times the circle manifold build (circle-sin in R^3, alpha=2,
r=0.2, 69 charts) at N = 4 and then N = 8 on one atlas, as a manifold rate
study builds them, and splits each build by wrapping functions of the
``manifold`` module:

* ``boundary``: ``chart_boundary_data``, the atlas's closed-form boundary
  images and band width;
* ``coefficients``: ``chart_coefficients``, the pullback Taylor
  coefficients of all charts and the boundary-band kill, one call per
  build (a chart at a time in trees before it), less its weights;
* ``rho_weights``: ``rho_weights``, the partition-of-unity weights of the
  pullback rows;
* ``sqdist_nets``: ``build_sqdist_nets`` and ``build_sqdist_net``;
* ``other``: the rest (the indicator and product nets, the record).

Each rep builds a fresh atlas, untimed, and every figure is the median.
Each build row also holds ``table_sha256``, the sha256 of its coefficient
table's bytes alone (with its ``kill_info`` too in labels before
``one-pullback-parent``), so runs of two trees show whether they built the
same tables; ``killed_nodes``, the nodes the boundary-band kill zeroed,
summed over the charts; and ``pullback_calls``, the build's
``manifold._pullback`` calls.
In the same way it times the compiled circle build
(``compile_model=True``, 30 check points) at N = 4 and then N = 8
(``compiled`` in the results), split by wrapping functions of the
``taylor`` module and ``ManifoldApproximator._terms``:

* ``terms``: ``_terms``, the chart terms' nets or first layers (its
  stream is listed under the wrap, so its work counts here);
* ``conversion``: ``mlp_to_cnn``, ``first_filter``, ``extend_cnn_depth``
  and ``restamp``;
* ``grouping_assembly``: ``parallel_sum`` and ``assemble_resnet``;
* ``equality_gates``: ``resnet_forward_dense`` and
  ``resnet_forward_batch``, the model's lowering included (from
  ``one-path-change`` on, a model without a support, as every manifold
  model is, runs the dense gate only);
* ``other``: the rest (the coefficients, the boundary data, the nets of
  the build, the class audit, the functional path of the gates).

with the model's blocks, the ``mlp_to_cnn`` calls of the build, the
model's distinct arrays (same shape and bytes), the compile gap and the
sha256 of
``json.dumps(serialize.to_dict(model))``, so runs of two trees show
whether they wrote the same model.
On one more atlas it then times, at each N, what a manifold rate study
does with the built approximator (``evaluation`` in the results):

* ``norm_k0_s``, ``norm_k1_s``: ``manifold_norm`` of the error
  approximator minus target at k = 0 and k = 1, resolution 40;
* ``evals_s``: ``ManifoldApproximator.eval`` at 10 points of the circle,
  one point per call, as a served request makes them.

Each of these is the median of at least ``--reps`` calls after a warm-up,
more while they take under a second.  Beside them, for the k = 0 norm and
the 10 evals, ``norm_k0_pairs`` and ``evals_pairs`` count the (chart,
point) pairs of their chart sums (``_pair_values``: the pairs within
1.2 r of the chart's center in trees before ``one-path-change``, those
below the indicator's ``zero_above`` after it), and
``norm_k0_net_pairs`` and ``evals_net_pairs`` the pairs among them that
ran the indicator nets (``indicator_values``: every pair in trees before
``flat-ramp-change``, the band pairs after it).

Last come the sphere rows (``manifold: sphere``): sphere-harmonic on the
round sphere at r=0.2 (1,020 charts), the N = 4 build, split into the same
stages (``--reps`` builds on one atlas, the median of each), and the k = 0
``manifold_norm`` of its error at resolution 8 (``norm_k0_s``, timed as
above), with the norm's value and skip count.  The torus row (``manifold:
torus``) is the N = 4 build of the target 2 x0 x2 on the flat torus in R^4
at r=0.16 (2,048 charts), split and timed as the sphere build.

The peak row (``manifold: peaks``) gives, in MiB, the peak that
tracemalloc traces (``peak_mb``) while each pass that measures rows
against every chart runs: ``torus_atlas``, ``build_atlas`` of the flat
torus at r=0.16 (2,048 charts); ``circle_eval``, ``eval`` of the N = 4
circle approximator above at 40,000 points of the circle;
``sphere_coefficients``, ``chart_coefficients`` of the sphere-harmonic
target at r=0.2, N = 8 (its boundary data computed beforehand); and
``sphere_eval``, ``eval`` of the sphere N = 4 approximator at 20,000
points of the sphere, whose median seconds untraced are ``sphere_eval_s``.
Each approximator evaluates one point before it is traced.

``--only functional`` times the functional path of the studies,
``ConstructedApproximator.eval`` of sinprod (D=2, alpha=2), without
compiling:

* ``rate_grid_s`` at N = 4, 8 and 16: the evals of a k = 1 grid norm of a
  rate study at grid 21, each call on one of the five point sets of its
  central-difference stencil (the grid, then the grid -+ h e_j), 441
  points each;
* ``lipschitz_s``: ``metrics.lipschitz_estimate`` at N = 8 over 5000
  pairs and 500 probes;
* ``adversarial_s``: ``risk.adversarial_risk`` at N = 8 at 200 points,
  deltas 0 and 0.02, 8 directions and 4 ascent steps;
* ``rate_study_s``: ``studies.run_study`` of the rate study of
  perfbench's ``studies`` workload (N = 2, 4, 8, 16, grid 21), its
  norms and its files.

Under ``kernel_split`` it splits the forward of the alpha=2 N=8 product
net (eta = 1/64, box 5, as the evaluator folds it) at 3, 200 and 4096
uniform rows by part of ``kernels.mlp_layer``, on the net's prepared
layers: ``product_s`` (x @ w.T), ``bias_add_s`` (the bias added as the
kernel adds it: a 1-D bias broadcast over the rows, a tile's first rows in
one add) and ``relu_s``, each the median over the reps of its mean seconds
per layer (the ReLU over the layers that have one), each op repeated to
about 4096 rows a timing; ``forward_s`` is the median of the whole
forward.  ``tiles`` and ``tile_mb`` give the number and size (MiB) of the
bias tiles (``scalarnets._tiles``) once every request above has run.

The sizes and the seed of the inputs are those of perfbench's ``studies``
workload.  Each figure is the median of at least ``--reps`` calls after a
warm-up, more while they take under a second, and ``sha256`` digests the
bytes of every value computed (of the study, its ``rates.csv`` and
``summary.json``), so runs of two trees show whether their outputs are
identical.  Then, under ``fold_steps``, it counts for each request the rows
of each step of the product-net fold and how many of them are distinct (by
their bytes), summed over the request's ``taylor._fold_rows`` calls: the
share of distinct rows is what keying a step can save.  The requests are
the rate study, the Lipschitz estimate, the adversarial risk, the check
points of a compiled alpha=3 N=2 build (its audit and its equality gate)
and 10 one-point evals of the circle-sin approximant at N=4.

``--src`` times the package in another source tree (a checkout of an
earlier commit, say); the wrapping names that tree lacks are skipped.  The
results are stored under ``--label`` in ``BENCH_template_build.json``,
``BENCH_manifold_build.json`` and ``BENCH_functional_fold.json`` at the
repository root, next to the labels already there; ``--only`` runs one of
the three.

Usage: python benchmarks/bench_build.py [--src DIR] [--label NAME] [--reps R]
                                        [--only build|manifold|functional]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILDS = ((2, 2), (2, 4), (3, 2), (2, 8), (2, 16), (3, 16))
FORWARD_ALPHA = 2
PARTS_BUILD = (2, 8)  # (alpha, N) of the model whose forward is split by part
PARTS_POINTS = 200
POINTS = (1, 200, 2000)
STAGES = {
    "term_nets": ("monomial_bump_template", "build_monomial_bump"),
    "cnn_conversion": ("mlp_to_cnn", "extend_cnn_depth", "restamp"),
    "grouping_assembly": ("parallel_sum", "assemble_resnet"),
    "audit": ("audit_class",),
    "equality_check": ("resnet_forward_dense", "resnet_forward_batch"),
}
LOWERING = {"lowering": ("_lower",)}  # wrapped in netcore
MANIFOLD_R = 0.2
MANIFOLD_NS = (4, 8)
MANIFOLD_RESOLUTION = 40
MANIFOLD_POINTS = 10
SPHERE = {"target": "sphere-harmonic", "r": 0.2, "N": 4, "resolution": 8}
TORUS = {"target": "2*x0*x2", "r": 0.16, "N": 4}
PEAKS = {"torus_r": 0.16, "circle_eval_points": 40000, "sphere_coefficients_N": 8, "sphere_eval_points": 20000}
FUNCTIONAL_NS = (4, 8, 16)
FUNCTIONAL_GRID = 21
FUNCTIONAL_N = 8
FUNCTIONAL_SIZES = {"pairs": 5000, "probes": 500, "points": 200, "directions": 8, "steps": 4}
FUNCTIONAL_DELTAS = (0.0, 0.02)
FUNCTIONAL_RATE = {"kind": "euclidean-rate", "target": "sinprod", "alpha": 2, "N_list": [2, 4, 8, 16],
                   "grid": 21}  # perfbench's rate study
FUNCTIONAL_BUILD = (3, 2)  # (alpha, N) of the compiled build whose check points are counted
KERNEL_ROWS = (3, 200, 4096)  # rows of the product-net forwards split by kernel part
MANIFOLD_STAGES = {
    "boundary": ("chart_boundary_data",),
    "coefficients": ("chart_coefficients",),
    "rho_weights": ("rho_weights",),
    "sqdist_nets": ("build_sqdist_nets", "build_sqdist_net"),
}
COMPILED_STAGES = {  # wrapped in taylor, and "terms" on ManifoldApproximator._terms
    "conversion": ("mlp_to_cnn", "first_filter", "extend_cnn_depth", "restamp"),
    "grouping_assembly": ("parallel_sum", "assemble_resnet"),
    "equality_gates": ("resnet_forward_dense", "resnet_forward_batch"),
}


class StageClock:
    """Self time per stage of the wrapped functions."""

    def __init__(self):
        self.seconds = {}
        self.stack = []  # [stage, start, time of nested wrapped calls]

    def wrap(self, stage, fn):
        """fn timed as ``stage``, or as ``stage(*args)`` when it is callable."""

        def timed(*args, **kwargs):
            self.stack.append([stage(*args) if callable(stage) else stage, time.perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                name, start, nested = self.stack.pop()
                spent = time.perf_counter() - start
                self.seconds[name] = self.seconds.get(name, 0.0) + spent - nested
                if self.stack:
                    self.stack[-1][2] += spent

        return timed

    @contextmanager
    def wrapping(self, module, stages):
        """Wrap the functions of module that stages names, for the block."""
        with self.wrapping_each([(module, name, stage) for stage, names in stages.items() for name in names]):
            yield

    @contextmanager
    def wrapping_each(self, targets):
        """Wrap attribute ``name`` of ``owner`` as ``stage`` for each (owner,
        name, stage) of targets that exists, for the block."""
        originals = []
        for owner, name, stage in targets:
            if hasattr(owner, name):
                originals.append((owner, name, getattr(owner, name)))
                setattr(owner, name, self.wrap(stage, originals[-1][2]))
        try:
            yield
        finally:
            for owner, name, fn in originals:
                setattr(owner, name, fn)

    def split(self, stages, total):
        """Self seconds per stage, ``other`` for the rest of total."""
        seconds = {stage: self.seconds.get(stage, 0.0) for stage in stages}
        seconds["other"] = total - sum(seconds.values())
        seconds["total"] = total
        return seconds


class RowCount:
    """The rows of the dense equality gate: see ``dense_rows`` and
    ``shared_rows`` in the module docstring."""

    def __init__(self):
        self.counts = {"dense_rows": 0, "shared_rows": 0}
        self.dense = False
        self.shared = []  # the shared layers of the group the dense gate runs, in order

    @contextmanager
    def wrapping(self, taylor, netcore):
        gate, summands = taylor.resnet_forward_dense, netcore._group_summands
        conv = netcore.kernels.conv_layer

        def dense_gate(*args):
            self.dense = True
            try:
                return gate(*args)
            finally:
                self.dense = False

        def counted_summands(g, X, points, *args):
            if not self.dense:
                return summands(g, X, points, *args)
            self.counts["dense_rows"] += len(points)
            # one conv_layer call per shared layer, the prefix first
            self.shared, self.calls, self.prefix = [la for la in g.layers if la.shared], 0, g.prefix
            try:
                return summands(g, X, points, *args)
            finally:
                self.shared = []

        def counted_conv(w, b, z):
            if self.shared:
                if self.calls >= self.prefix:
                    self.counts["shared_rows"] += len(z) * z.shape[1] // self.shared[self.calls].rows_in
                self.calls += 1
            return conv(w, b, z)

        taylor.resnet_forward_dense = dense_gate
        netcore._group_summands, netcore.kernels.conv_layer = counted_summands, counted_conv
        try:
            yield
        finally:
            taylor.resnet_forward_dense = gate
            netcore._group_summands, netcore.kernels.conv_layer = summands, conv


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


def _forward_parts(modules, model, reps):
    """Median seconds of the single-point forward of ``model``, in total and
    by network part: see ``forward_parts`` in the module docstring."""
    np, netcore = modules[:2]
    X = np.random.default_rng(0).uniform(0.0, 1.0, (PARTS_POINTS, 2))
    times = []
    for _ in range(max(reps, 3)):
        for x in X:
            start = time.perf_counter()
            netcore.resnet_forward(model, x)
            times.append(time.perf_counter() - start)
    clock, splits = StageClock(), []
    layer_part = lambda layer, H, D, pos: (
        "gather_prefix" if pos is None else "body" if layer.shared else "stamped_readout")
    # a conv_layer call inside _plan_layer counts toward that layer's part
    conv_part = lambda *args: clock.stack[-1][0] if clock.stack else "body"
    parts = ("cover", "gather_prefix", "body", "stamped_readout")
    with clock.wrapping_each([(netcore._Cover, "rows", "cover"), (netcore, "_plan_layer", layer_part),
                              (netcore.kernels, "conv_layer", conv_part)]):
        for _ in range(max(reps, 3)):
            for x in X:
                clock.seconds = {}
                start = time.perf_counter()
                netcore.resnet_forward(model, x)
                splits.append(clock.split(parts, time.perf_counter() - start))
    row = {"points": PARTS_POINTS, "total_s": statistics.median(times)}
    for part in parts:
        row[f"{part}_s"] = statistics.median(s[part] for s in splits)
    row["accumulation_readout_s"] = statistics.median(s["other"] for s in splits)
    return row


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
    clock, rows = StageClock(), RowCount()
    save = clock.wrap("save", serialize.save)
    target = targets.get_target("sinprod", alpha=alpha, dim=2)
    path = Path(directory) / "model.json"
    with (
        rows.wrapping(taylor, netcore),
        clock.wrapping(taylor, STAGES),
        clock.wrapping(netcore, LOWERING),
    ):
        start = time.perf_counter()
        approx = taylor.build_euclidean(target, s=0, p=math.inf, N=N)
        save(path, approx.model)
        total = time.perf_counter() - start
    seconds = clock.split([*STAGES, *LOWERING, "save"], total)
    model = approx.model
    arrays = [a for blk in model.blocks for a in [f.entries for f in blk.filters] + blk.biases]
    counts = {
        "blocks": len(model.blocks),
        "arrays": len(arrays),
        "distinct_arrays": len({(a.shape, a.tobytes()) for a in arrays}),
        "model_mb": path.stat().st_size / 1e6,
        **rows.counts,
    }
    return seconds, counts, _read_back(modules, path), approx


def _staged_build(manifold, target, mspec, N, atlas):
    """Stage seconds of one build, the approximator and its facts: the
    sha256 of its table's bytes, its killed nodes and its ``_pullback``
    calls."""
    clock, pullback, calls = StageClock(), manifold._pullback, [0]

    def counted(*args):
        calls[0] += 1
        return pullback(*args)

    manifold._pullback = counted
    try:
        with clock.wrapping(manifold, MANIFOLD_STAGES):
            start = time.perf_counter()
            approx = manifold.build_manifold_approx(target, mspec, N=N, atlas=atlas)
            total = time.perf_counter() - start
    finally:
        manifold._pullback = pullback
    facts = {"table_sha256": hashlib.sha256(approx.coeffs.table.tobytes()).hexdigest(),
             "killed_nodes": sum(info["killed_nodes"] for info in approx.record["kill_info"]),
             "pullback_calls": calls[0]}
    return clock.split(MANIFOLD_STAGES, total), approx, facts


def _manifold_builds(manifold, targets):
    """Stage seconds and facts of one circle build at each N of MANIFOLD_NS,
    in turn on one fresh atlas, and the atlas's chart count."""
    mspec, target = targets.get_manifold_target("circle-sin", 3, order=2)
    atlas = manifold.build_atlas(mspec, MANIFOLD_R)
    builds = [_staged_build(manifold, target, mspec, N, atlas) for N in MANIFOLD_NS]
    return [(seconds, facts) for seconds, _, facts in builds], atlas.chart_count


def _kit_builds(manifold, mspec, target, kit, reps):
    """``reps`` builds at kit's N on one atlas of radius kit's r, split by
    stage: the row (median seconds per stage), the first build's
    approximator and the atlas."""
    atlas = manifold.build_atlas(mspec, kit["r"])
    builds = [_staged_build(manifold, target, mspec, kit["N"], atlas) for _ in range(reps)]
    row = {"charts": atlas.chart_count, "reps": reps,
           "seconds": {k: statistics.median(b[0][k] for b in builds) for k in builds[0][0]},
           **builds[0][2]}
    return row, builds[0][1], atlas


def _sphere_rows(manifold, targets, reps):
    """The sphere build and its error's k = 0 norm: see the sphere rows in
    the module docstring."""
    mspec, target = targets.get_manifold_target(SPHERE["target"], order=2)
    row, approx, atlas = _kit_builds(manifold, mspec, target, SPHERE, reps)
    error = lambda X: approx.eval(X) - target(X)
    norm = lambda: manifold.manifold_norm(error, atlas, 0, resolution=SPHERE["resolution"])
    value, skipped = norm()
    return {"manifold": "sphere", **SPHERE, **row,
            "evaluation": {"norm_k0_s": _median_seconds(norm, reps), "norm_k0": value, "skipped": skipped}}


def _torus_row(manifold, reps):
    """The torus build: see the torus row in the module docstring."""
    target = lambda X: 2.0 * X[:, 0] * X[:, 2]
    row = _kit_builds(manifold, manifold.torus_manifold(), target, TORUS, reps)[0]
    return {"manifold": "torus", **TORUS, **row}


def _traced_mb(fn):
    """MiB of the peak tracemalloc traces while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _peak_row(manifold, targets, reps):
    """The traced peaks of the passes over rows and charts, and the seconds
    of the sphere eval: see the peak row in the module docstring."""
    circle, on_circle = targets.get_manifold_target("circle-sin", 3, order=2)
    circle_approx = manifold.build_manifold_approx(
        on_circle, circle, N=MANIFOLD_NS[0], atlas=manifold.build_atlas(circle, MANIFOLD_R))
    sphere, on_sphere = targets.get_manifold_target(SPHERE["target"], order=2)
    atlas = manifold.build_atlas(sphere, SPHERE["r"])
    sphere_approx = manifold.build_manifold_approx(on_sphere, sphere, N=SPHERE["N"], atlas=atlas)
    X, Y = circle.sample_points(PEAKS["circle_eval_points"]), sphere.sample_points(PEAKS["sphere_eval_points"])
    for approx, P in ((circle_approx, X), (sphere_approx, Y)):
        approx.eval(P[:1])  # warm-up
    N = PEAKS["sphere_coefficients_N"]
    boundary = manifold.chart_boundary_data(atlas, atlas.r**2 / (4.0 * N))
    peaks = {
        "torus_atlas": lambda: manifold.build_atlas(manifold.torus_manifold(), PEAKS["torus_r"]),
        "circle_eval": lambda: circle_approx.eval(X),
        "sphere_coefficients": lambda: manifold.chart_coefficients(
            on_sphere, atlas, N, 2, 1e-4 * atlas.r, *boundary),
        "sphere_eval": lambda: sphere_approx.eval(Y),
    }
    return {"manifold": "peaks", **PEAKS, "peak_mb": {k: _traced_mb(fn) for k, fn in peaks.items()},
            "sphere_eval_s": _median_seconds(peaks["sphere_eval"], reps)}


def _compiled_manifold_builds(manifold, serialize, targets, taylor):
    """Stage seconds and counts of one compiled circle build at each N of
    MANIFOLD_NS, in turn on one fresh atlas: see ``compiled`` in the module
    docstring."""
    mspec, target = targets.get_manifold_target("circle-sin", 3, order=2)
    atlas = manifold.build_atlas(mspec, MANIFOLD_R)
    owner, convert = manifold.ManifoldApproximator, taylor.mlp_to_cnn
    terms, calls, rows = owner._terms, [0], []

    def counted(net):
        calls[0] += 1
        return convert(net)

    owner._terms = lambda self, *args: list(terms(self, *args))
    taylor.mlp_to_cnn = counted
    try:
        for N in MANIFOLD_NS:
            clock, calls[0] = StageClock(), 0
            with clock.wrapping(taylor, COMPILED_STAGES), clock.wrapping_each([(owner, "_terms", "terms")]):
                start = time.perf_counter()
                approx = manifold.build_manifold_approx(target, mspec, N=N, atlas=atlas, compile_model=True)
                total = time.perf_counter() - start
            model = approx.model
            arrays = [a for blk in model.blocks for a in [f.entries for f in blk.filters] + blk.biases]
            doc = json.dumps(serialize.to_dict(model)).encode()
            rows.append({
                "seconds": clock.split(["terms", *COMPILED_STAGES], total),
                "blocks": len(model.blocks),
                "mlp_to_cnn_calls": calls[0],
                "distinct_arrays": len({(a.shape, a.tobytes()) for a in arrays}),
                "compile_gap": approx.record["compile_gap"],
                "sha256": hashlib.sha256(doc).hexdigest(),
            })
    finally:
        owner._terms, taylor.mlp_to_cnn = terms, convert
    return rows


def _manifold_evaluation(manifold, targets, reps):
    """Median seconds of the norms and the one-point evals of the circle
    approximator at each N of MANIFOLD_NS, on one atlas."""
    mspec, target = targets.get_manifold_target("circle-sin", 3, order=2)
    atlas = manifold.build_atlas(mspec, MANIFOLD_R)
    points = mspec.sample_points(MANIFOLD_POINTS)
    rows = []
    for N in MANIFOLD_NS:
        approx = manifold.build_manifold_approx(target, mspec, N=N, atlas=atlas)
        error = lambda X: approx.eval(X) - target(X)
        row = {
            f"norm_k{k}_s": _median_seconds(
                lambda: manifold.manifold_norm(error, atlas, k, resolution=MANIFOLD_RESOLUTION),
                reps,
            )
            for k in (0, 1)
        }
        row["evals_s"] = _median_seconds(lambda: [approx.eval(x[None]) for x in points], reps)
        row.update(_pair_counts(manifold, {
            "norm_k0": lambda: manifold.manifold_norm(error, atlas, 0, resolution=MANIFOLD_RESOLUTION),
            "evals": lambda: [approx.eval(x[None]) for x in points],
        }))
        rows.append(row)
    return rows


def _pair_counts(manifold, requests):
    """``<name>_pairs``, the (chart, point) pairs of the chart sums of each
    request, and ``<name>_net_pairs``, the pairs among them that ran the
    indicator nets (``indicator_values``), once each request has run."""
    owner, counts = manifold.ManifoldApproximator, {}
    originals = {name: getattr(owner, name) for name in ("_pair_values", "indicator_values")}

    def counting(name, key):
        def counted(self, *args):
            counts[key] += len(args[1])  # the pairs' charts, or their points
            return originals[name](self, *args)
        return counted

    try:
        for request, run in requests.items():
            counts[f"{request}_pairs"] = counts[f"{request}_net_pairs"] = 0
            owner._pair_values = counting("_pair_values", f"{request}_pairs")
            owner.indicator_values = counting("indicator_values", f"{request}_net_pairs")
            run()
    finally:
        for name, fn in originals.items():
            setattr(owner, name, fn)
    return counts


def _fold_steps(np, taylor, requests):
    """Rows and distinct rows (by their bytes) of each fold step, summed
    over the ``taylor._fold_rows`` calls of each request.  The wrapper runs
    the steps of a call once more, every row through every step, to count
    them, and then the call itself."""
    fold, counts = taylor._fold_rows, {}

    def counting(A, nets, tracker):
        run = A[:, 0]
        for s, net in enumerate(nets):
            rows = np.ascontiguousarray(np.stack([run, A[:, s + 1]], axis=1))
            distinct = len(np.unique(rows.view(np.dtype((np.void, rows.itemsize * 2)))))
            while len(steps) <= s:
                steps.append({"rows": 0, "distinct": 0})
            steps[s]["rows"] += len(rows)
            steps[s]["distinct"] += distinct
            run = net.forward(rows)
        return fold(A, nets, tracker)

    taylor._fold_rows = counting
    try:
        for name, request in requests.items():
            counts[name] = steps = []
            request()
    finally:
        taylor._fold_rows = fold
    return counts


def _kernel_split(np, kernels, scalarnets, reps):
    """Per-layer median seconds of the product net's forward by kernel part
    at each count of KERNEL_ROWS rows, and the bias tiles of the process
    (see ``kernel_split`` in the module docstring)."""
    net = scalarnets.build_product2(float(FUNCTIONAL_N) ** -2, 5.0)
    rng = np.random.default_rng(0)
    split = []
    for n in KERNEL_ROWS:
        X = rng.uniform(-5.0, 5.0, (n, 2))
        forward_s = _median_seconds(lambda: net.forward(X), reps)
        layers, inputs = net._batch_layers, [X]
        for w, b in layers[:-1]:
            inputs.append(kernels.mlp_layer(w, b, inputs[-1]))
        loops = -(-4096 // n)
        times = {"product_s": [], "bias_add_s": [], "relu_s": []}
        for _ in range(max(reps, 5)):
            spent = dict.fromkeys(times, 0.0)
            for i, (x, (w, b)) in enumerate(zip(inputs, layers)):
                y = x @ w.T
                bias = b if b.ndim == 1 else b[:n]
                ops = {"product_s": lambda: x @ w.T, "bias_add_s": lambda: np.add(y, bias, out=y)}
                if i < len(layers) - 1:
                    ops["relu_s"] = lambda: np.maximum(y, 0.0, out=y)
                for part, op in ops.items():
                    start = time.perf_counter()
                    for _ in range(loops):
                        op()
                    spent[part] += (time.perf_counter() - start) / loops
            for part in times:
                times[part].append(spent[part] / (len(layers) - (part == "relu_s")))
        split.append({"rows": n, "layers": len(layers), "forward_s": forward_s,
                      **{part: statistics.median(t) for part, t in times.items()}})
    tiles = getattr(scalarnets, "_tiles", {})
    return {"kernel_split": split, "tiles": len(tiles),
            "tile_mb": sum(t.nbytes for t in tiles.values()) / 2**20}


def _bench_functional(modules, reps):
    """Median seconds of the functional evaluator on the rate study's stencil
    at each N of FUNCTIONAL_NS, then of the Lipschitz estimate and the
    adversarial risk at N = FUNCTIONAL_N, and of the rate study
    FUNCTIONAL_RATE, with a digest of the values; then the fold's rows and
    distinct rows per step in each request."""
    np, kernels, manifold, metrics, risk, scalarnets, studies, targets, taylor = modules
    target = targets.get_target("sinprod", alpha=2, dim=2)
    build = lambda N: taylor.build_euclidean(target, s=0, p=math.inf, N=N, compile_model=False)
    grid = metrics.EvalGrid(2, FUNCTIONAL_GRID).points
    stencil = [grid]
    for j in range(2):
        step = np.zeros(2)
        step[j] = metrics.FD_STEP_NET
        stencil += [grid + step, grid - step]
    rows = []
    for N in FUNCTIONAL_NS:
        approx = build(N)
        values = np.concatenate([approx.eval(P) for P in stencil])
        rows.append({"N": N, "points": [len(P) for P in stencil],
                     "rate_grid_s": _median_seconds(lambda: [approx.eval(P) for P in stencil], reps),
                     "sha256": hashlib.sha256(values.tobytes()).hexdigest()})
    sizes = FUNCTIONAL_SIZES
    rng = np.random.default_rng([0, 1])
    pairs = metrics.sample_pairs(rng, 2, sizes["pairs"])
    probes = rng.uniform(0.02, 0.98, (sizes["probes"], 2))
    X = rng.uniform(0.0, 1.0, (sizes["points"], 2))
    approx = build(FUNCTIONAL_N)
    lipschitz = lambda: metrics.lipschitz_estimate(approx.eval, pairs=pairs, probes=probes)
    adversarial = lambda: risk.adversarial_risk(
        approx.eval, X, target(X), FUNCTIONAL_DELTAS, seed=0,
        directions=sizes["directions"], ascent_steps=sizes["steps"])
    values = np.array([lipschitz(), *adversarial().values()])
    rows.append({"N": FUNCTIONAL_N, **sizes, "deltas": list(FUNCTIONAL_DELTAS),
                 "lipschitz_s": _median_seconds(lipschitz, reps),
                 "adversarial_s": _median_seconds(adversarial, reps),
                 "sha256": hashlib.sha256(values.tobytes()).hexdigest()})
    with tempfile.TemporaryDirectory() as directory:
        study = lambda: studies.run_study(FUNCTIONAL_RATE, directory)
        seconds = _median_seconds(study, reps)
        written = b"".join((Path(directory) / f).read_bytes() for f in ("rates.csv", "summary.json"))
        rows.append({"rate_study": FUNCTIONAL_RATE, "rate_study_s": seconds,
                     "sha256": hashlib.sha256(written).hexdigest()})
        mspec, on_circle = targets.get_manifold_target("circle-sin", 3, order=2)
        circle = manifold.build_manifold_approx(
            on_circle, mspec, N=MANIFOLD_NS[0], atlas=manifold.build_atlas(mspec, MANIFOLD_R))
        alpha, N = FUNCTIONAL_BUILD
        deep = targets.get_target("sinprod", alpha=alpha, dim=2)
        rows.append({"fold_steps": _fold_steps(np, taylor, {
            "rate_study": study,
            "lipschitz": lipschitz,
            "adversarial": adversarial,
            f"build_a{alpha}n{N}_check_points": lambda: taylor.build_euclidean(deep, s=0, p=math.inf, N=N),
            "manifold_one_point_evals": lambda: [circle.eval(x[None]) for x in
                                                 mspec.sample_points(MANIFOLD_POINTS)],
        })})
    rows.append(_kernel_split(np, kernels, scalarnets, reps))
    for row in rows[:-2]:
        times = "  ".join(f"{k} {v * 1e3:.2f} ms" for k, v in row.items() if k.endswith("_s"))
        print(f"functional {row.get('N', 'study')}: {times}  sha256 {row['sha256'][:12]}", flush=True)
    for name, steps in rows[-2]["fold_steps"].items():
        shares = ", ".join(f"{s['distinct'] / s['rows']:.0%} of {s['rows']}" for s in steps)
        print(f"  fold steps of {name}, distinct rows: {shares}", flush=True)
    for row in rows[-1]["kernel_split"]:
        us = "  ".join(f"{k[:-2]} {row[k] * 1e6:.2f} us" for k in ("product_s", "bias_add_s", "relu_s"))
        print(f"  product net at {row['rows']:>4} rows, per layer: {us}; "
              f"forward {row['forward_s'] * 1e6:.1f} us", flush=True)
    print(f"  bias tiles: {rows[-1]['tiles']}, {rows[-1]['tile_mb']:.2f} MiB", flush=True)
    return rows


def _store(name, what, np, label, rows):
    path = ROOT / name
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["what"] = what
    doc["machine"] = _machine(np)
    doc.setdefault("results", {})[label] = rows
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path} [{label}]")


def _bench_builds(modules, reps):
    np = modules[0]
    rows = []
    with tempfile.TemporaryDirectory() as directory:
        for alpha, N in BUILDS:
            runs = [_one_build(modules, alpha, N, directory) for _ in range(reps)]
            seconds = {k: statistics.median(r[0][k] for r in runs) for k in runs[0][0]}
            read = {k: statistics.median(r[2][k] for r in runs) for k in runs[0][2]}
            row = {"alpha": alpha, "N": N, "reps": reps, "seconds": seconds}
            row.update(runs[0][1], **read)
            split = "  ".join(f"{k} {v:.3f}" for k, v in {**seconds, **read}.items())
            counts = runs[0][1]
            print(f"alpha={alpha} N={N:>2} ({counts['blocks']} blocks, {counts['model_mb']:.2f} MB, "
                  f"dense gate rows {counts['dense_rows']}, its shared layers ran "
                  f"{counts['shared_rows']}): {split}", flush=True)
            if alpha == FORWARD_ALPHA:
                row["forward"] = _forwards(modules, runs[0][3], reps)
                for f in row["forward"]:
                    ms = "  ".join(f"{k[:-2]} {f[k] * 1e3:.2f} ms" for k in list(f)[1:])
                    print(f"  forward at {f['points']:>4} points: {ms}", flush=True)
            if (alpha, N) == PARTS_BUILD:
                row["forward_parts"] = _forward_parts(modules, runs[0][3].model, reps)
                parts = list(row["forward_parts"].items())[1:]
                us = "  ".join(f"{k[:-2]} {v * 1e6:.1f} us" for k, v in parts)
                print(f"  single-point forward by part: {us}", flush=True)
            rows.append(row)
    return rows


def _facts(row):
    """A build row's facts, as its printed line shows them."""
    return (f"table sha256 {row['table_sha256'][:12]}, {row['killed_nodes']} killed nodes, "
            f"{row['pullback_calls']} pullbacks")


def _bench_manifold(manifold, serialize, targets, taylor, reps):
    runs = [_manifold_builds(manifold, targets) for _ in range(reps)]
    compiled = [_compiled_manifold_builds(manifold, serialize, targets, taylor) for _ in range(reps)]
    evaluation = _manifold_evaluation(manifold, targets, reps)
    rows = []
    for t, N in enumerate(MANIFOLD_NS):
        seconds = {k: statistics.median(r[0][t][0][k] for r in runs) for k in runs[0][0][t][0]}
        built = {**compiled[0][t], "seconds": {
            k: statistics.median(r[t]["seconds"][k] for r in compiled) for k in compiled[0][t]["seconds"]}}
        rows.append({"manifold": "circle", "N": N, "r": MANIFOLD_R, "charts": runs[0][1], "reps": reps,
                     "seconds": seconds, **runs[0][0][t][1], "compiled": built,
                     "evaluation": evaluation[t]})
        split = "  ".join(f"{k} {v:.4f}" if isinstance(v, float) else f"{k} {v}"
                          for k, v in {**seconds, **evaluation[t]}.items())
        print(f"circle r={MANIFOLD_R} N={N} ({runs[0][1]} charts, {_facts(rows[-1])}): {split}",
              flush=True)
        split = "  ".join(f"{k} {v:.4f}" for k, v in built["seconds"].items())
        print(f"  compiled ({built['blocks']} blocks, {built['mlp_to_cnn_calls']} mlp_to_cnn calls, "
              f"{built['distinct_arrays']} distinct arrays, sha256 {built['sha256'][:12]}): {split}",
              flush=True)
    sphere = _sphere_rows(manifold, targets, reps)
    rows.append(sphere)
    split = "  ".join(f"{k} {v:.4f}" for k, v in sphere["seconds"].items())
    ev = sphere["evaluation"]
    print(f"sphere r={sphere['r']} N={sphere['N']} ({sphere['charts']} charts, {_facts(sphere)}): "
          f"{split}  norm_k0_s {ev['norm_k0_s']:.4f} "
          f"(norm {ev['norm_k0']!r}, {ev['skipped']} skipped)", flush=True)
    torus = _torus_row(manifold, reps)
    rows.append(torus)
    split = "  ".join(f"{k} {v:.4f}" for k, v in torus["seconds"].items())
    print(f"torus r={torus['r']} N={torus['N']} ({torus['charts']} charts, {_facts(torus)}): {split}",
          flush=True)
    peaks = _peak_row(manifold, targets, reps)
    rows.append(peaks)
    split = "  ".join(f"{k} {v:.1f}" for k, v in peaks["peak_mb"].items())
    print(f"traced peaks (MiB): {split}  sphere_eval_s {peaks['sphere_eval_s']:.4f}", flush=True)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="package source tree to time")
    parser.add_argument("--label", default="change", help="key of the results in the JSON files")
    parser.add_argument("--reps", type=int, default=3, help="builds per configuration")
    parser.add_argument("--only", choices=("build", "manifold", "functional"),
                        help="run one benchmark")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from sobolev_forge import kernels, manifold, metrics, netcore, risk, scalarnets, serialize, studies
    from sobolev_forge import targets, taylor

    if args.only in (None, "build"):
        rows = _bench_builds((np, netcore, serialize, targets, taylor), args.reps)
        what = (
            "median seconds per stage of build_euclidean + serialize.save, then of "
            "serialize.load and the first forward of the loaded model, and (alpha=2, "
            "under forward) of the dense, sparse and functional forward, and (alpha=2 N=8, under "
            "forward_parts) of the single-point forward by network part; sinprod D=2; "
            "dense_rows and shared_rows count the rows of the dense equality gate; "
            "see benchmarks/bench_build.py"
        )
        _store("BENCH_template_build.json", what, np, args.label, rows)
    if args.only in (None, "manifold"):
        rows = _bench_manifold(manifold, serialize, targets, taylor, args.reps)
        what = (
            "median seconds per stage of build_manifold_approx on the circle-sin atlas "
            "(R^3, alpha=2, r=0.2), N=4 then N=8 on one fresh atlas per rep, (under "
            "compiled) of the compiled build, with its blocks, mlp_to_cnn calls, distinct "
            "arrays and the sha256 of the model document, and (under "
            "evaluation) of manifold_norm of the error at k=0 and k=1, resolution 40, and "
            "of 10 one-point evals, with the chart-sum pairs of the k=0 norm and of the evals "
            "and the pairs among them that ran the indicator nets (norm_k0_pairs, "
            "norm_k0_net_pairs, evals_pairs, evals_net_pairs); table_sha256 digests each build's coefficient table bytes "
            "(with kill_info before one-pullback-parent), killed_nodes sums its kill_info and "
            "pullback_calls counts its manifold._pullback calls; the sphere row (manifold: sphere) is the sphere-harmonic build at r=0.2, "
            "N=4, by stage, and its error's k=0 norm at resolution 8; the torus row (manifold: torus) "
            "is the build of 2*x0*x2 on the flat torus at r=0.16, N=4, by stage; the peak row "
            "(manifold: peaks) "
            "holds the tracemalloc peaks in MiB of the torus atlas at r=0.16, a 40,000-point circle "
            "eval, the sphere N=8 chart_coefficients and a 20,000-point sphere eval, and that eval's "
            "median seconds; see benchmarks/bench_build.py"
        )
        _store("BENCH_manifold_build.json", what, np, args.label, rows)
    if args.only in (None, "functional"):
        rows = _bench_functional(
            (np, kernels, manifold, metrics, risk, scalarnets, studies, targets, taylor), args.reps)
        what = (
            "median seconds of ConstructedApproximator.eval of sinprod (D=2, alpha=2) on "
            "the five 441-point sets of a k=1 grid norm at grid 21 (N=4, 8, 16), one call "
            "per set, at N=8 of lipschitz_estimate (5000 pairs, 500 probes) and "
            "adversarial_risk (200 points, deltas 0 and 0.02, 8 directions, 4 steps), and "
            "of run_study of the rate study under rate_study; sha256 of the values and of "
            "the study's rates.csv and summary.json; under fold_steps, the rows and "
            "distinct rows of each fold step of the rate study, the two risk requests, "
            "the check points of a compiled alpha=3 N=2 build and 10 one-point evals of "
            "the circle-sin approximant at N=4; under kernel_split, the median seconds per "
            "layer of the product, bias add and ReLU of the alpha=2 N=8 product net's forward "
            "at 3, 200 and 4096 rows, and the number and MiB of the bias tiles; see "
            "benchmarks/bench_build.py"
        )
        _store("BENCH_functional_fold.json", what, np, args.label, rows)


if __name__ == "__main__":
    main()
