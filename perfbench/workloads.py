"""The four benchmark workloads, each a closed loop with one client.

A workload has an untimed ``prepare`` (inputs the program needs first), a
timed ``setup`` (what a fresh process pays before its first request) and a
``round``: the requests of one loop iteration, issued one after the other.
A round returns, for each of its three parts, the list of (seconds,
normalized seconds) samples, with the outputs it produced (compared between
untraced and traced rounds), and records its correctness checks on the
context.

Every program call goes through a module attribute (``cli.main``,
``netcore.resnet_forward_batch``, ...), so the tracer's rebinding sees it.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from sobolev_forge import cli, manifold, metrics, netcore, risk, serialize, studies, targets, taylor

PINS = Path(__file__).with_name("pinned.json")
DEFAULT_SEED = 0

# Every request is kept to a few tenths of a second, so that a run of
# --seconds holds many samples of each: see README.md on contention.
BUILDS = {  # label -> (alpha, N); D = 2, target sinprod
    "full": (("a2n2", 2, 2), ("a2n4", 2, 4), ("a3n2", 3, 2)),
    "tiny": (("a2n2", 2, 2), ("a2n4", 2, 3), ("a3n2", 3, 2)),
}
SERVE = {  # alpha=2 models: single points and a batch on the first, a batch on the second
    "full": {"models": (8, 4), "singles": 2, "batches": (100, 500)},
    "tiny": {"models": (3, 2), "singles": 3, "batches": (20, 50)},
}
STUDIES = {  # the rate study, then the risk and adversarial studies' inner requests
    "full": {"rate": {"kind": "euclidean-rate", "target": "sinprod", "alpha": 2,
                      "N_list": [2, 4, 8, 16], "grid": 21},
             "N": 8, "pairs": 5000, "probes": 500, "points": 200, "directions": 8, "steps": 4},
    "tiny": {"rate": {"kind": "euclidean-rate", "target": "sinprod", "alpha": 2,
                      "N_list": [2, 3, 4], "grid": 11},
             "N": 2, "pairs": 200, "probes": 20, "points": 20, "directions": 4, "steps": 2},
}
ADV_DELTAS = (0.0, 0.02)
# Build and value norm of a manifold-rate study at one N, then one-point evals.
# N=4: at N=2 and 3 the boundary-band kill zeroes every coefficient.
MANIFOLD = {
    "full": {"target": "circle-sin", "ambient_dim": 3, "alpha": 2, "N": 4, "resolution": 3,
             "points": 10},
    "tiny": {"target": "circle-sin", "ambient_dim": 3, "alpha": 2, "N": 4, "resolution": 1,
             "points": 3},
}
GAP_TOL = 1e-8
PIN_RTOL = 1e-12
PIN_ATOL = 1e-15  # for values at rounding level, e.g. an approximant at a zero of its target
# The calibration probe's time on an uncontended core of the machine the
# benchmark was built on (2-core Xeon VM, numpy backend): see README.md.
PROBE_REF_S = 2.4e-3
_PROBE_A = np.arange(900.0).reshape(30, 30) / 900.0


def probe():
    """Seconds of a fixed loop of small numpy products; it slows with the
    core's contention as the program's own requests do."""
    start = time.perf_counter()
    for _ in range(1000):
        float((_PROBE_A @ _PROBE_A[:, :1]).sum())
    return time.perf_counter() - start


def timed(fn, *args, **kwargs):
    """Call fn between two probes: ((seconds, normalized seconds), result).
    Normalized seconds scale by the probe's slowdown around the call."""
    before = probe()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    slowdown = (before + probe()) / (2.0 * PROBE_REF_S)
    return (seconds, seconds / slowdown), result


class Context:
    """Run-wide state: seed, size, scratch directory and the check tally."""

    def __init__(self, root, seed, size, tmp):
        self.root = Path(root)
        self.seed = seed
        self.size = size
        self.tmp = Path(tmp)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _quiet(fn, *args):
    """Call fn with the program's stdout captured (the last line is ours)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def import_cli(root):
    """Import the CLI in a fresh interpreter, as every ``sobolev-forge``
    invocation does."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import sobolev_forge.cli"
    subprocess.run([sys.executable, "-c", code, str(Path(root) / "src")], check=True,
                   env=os.environ.copy(), timeout=120)


def compare(got, want, path="$"):
    """Mismatches between two JSON-like values; numbers within PIN_RTOL
    relative (or PIN_ATOL absolute)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        if abs(got - want) > max(PIN_RTOL * max(abs(got), abs(want)), PIN_ATOL):
            return [f"{path}: {got!r} != pinned {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _jsonable(doc):
    return json.loads(json.dumps(doc))


class Workload:
    name = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.round_count = 0
        # set by a traced run: label_root names the next request's root
        # span, and checks run under untraced() so they are not recorded
        self.label_root = lambda label: None
        self.untraced = contextlib.nullcontext

    def prepare(self):
        pass

    def setup(self):
        import_cli(self.ctx.root)
        self.setup_work()

    def setup_work(self):
        pass

    def round(self, index):
        raise NotImplementedError

    def layer_extras(self):
        return {}

    def _timed(self, label, fn, *args, **kwargs):
        self.label_root(label)
        return timed(fn, *args, **kwargs)

    def _round_dir(self, index):
        self.round_count += 1
        return self.ctx.tmp / f"{self.name}-{index}-{self.round_count}"


class Build(Workload):
    """`sobolev-forge build` of sinprod, D=2, at three (alpha, N)."""

    name = "build"

    def setup_work(self):
        self.configs = {}
        for label, alpha, N in BUILDS[self.ctx.size]:
            targets.get_target("sinprod", alpha=alpha, dim=2)
            path = self.ctx.tmp / f"build-{label}.json"
            path.write_text(json.dumps({"target": "sinprod", "alpha": alpha, "dim": 2, "N": N}))
            self.configs[label] = path

    def round(self, index):
        ctx = self.ctx
        base = self._round_dir(index)
        parts, outputs, self.model_mb = [], {}, {}
        for label, alpha, N in BUILDS[ctx.size]:
            out = base / label
            argv = ["build", "--config", str(self.configs[label]), "--out", str(out),
                    "--seed", str(ctx.seed)]
            sample, code = self._timed(label, _quiet, cli.main, argv)
            parts.append([sample])
            ctx.check(code == 0, f"build {label}: exit code {code}")
            record = json.loads((out / "record.json").read_text())
            gap = record.get("compile_gap", math.inf)
            ctx.check(gap <= GAP_TOL, f"build {label}: compile_gap {gap}")
            terms = (N + 1) ** 2 * math.comb(alpha + 1, 2)
            ctx.check(record.get("terms") == terms, f"build {label}: {record.get('terms')} terms, want {terms}")
            model = (out / "model.json").read_bytes()
            self.model_mb[label] = len(model) / 1e6
            outputs[label] = (code, record, hashlib.sha256(model).hexdigest())
        shutil.rmtree(base)
        return parts, outputs


class Serve(Workload):
    """Saved alpha=2 models answering single-point and batch requests."""

    name = "serve"

    def prepare(self):
        target = targets.get_target("sinprod", alpha=2, dim=2)
        self.paths, self.refs = [], []
        for N in SERVE[self.ctx.size]["models"]:
            conf = self.ctx.tmp / f"serve-{N}.json"
            conf.write_text(json.dumps({"target": "sinprod", "alpha": 2, "dim": 2, "N": N}))
            out = self.ctx.tmp / f"serve-model-{N}"
            code = _quiet(cli.main, ["build", "--config", str(conf), "--out", str(out)])
            self.ctx.check(code == 0, f"serve: build N={N} exit code {code}")
            self.paths.append(out / "model.json")
            # the reference: the functional evaluator, independent of the compiled forward
            self.refs.append(taylor.build_euclidean(target, s=0, p=math.inf, N=N, compile_model=False))

    def setup_work(self):
        self.models = [serialize.load(path) for path in self.paths]
        for model in self.models:
            netcore.resnet_forward(model, np.full(2, 0.5))

    def round(self, index):
        ctx, cfg = self.ctx, SERVE[self.ctx.size]
        rng = np.random.default_rng([ctx.seed, index])
        singles = rng.uniform(0.0, 1.0, (cfg["singles"], 2))
        batches = [rng.uniform(0.0, 1.0, (n, 2)) for n in cfg["batches"]]
        single_s, single_vals = [], []
        for x in singles:
            sample, value = self._timed("single", netcore.resnet_forward, self.models[0], x)
            single_s.append(sample)
            single_vals.append(value)
        parts, outputs = [single_s], [single_vals]
        for i, X in enumerate(batches):
            sample, y = self._timed(f"batch{i}", netcore.resnet_forward_batch, self.models[i], X)
            parts.append([sample])
            outputs.append(y.tolist())
        with self.untraced():
            for i, (X, y) in enumerate(zip(batches, outputs[1:])):
                gap = float(np.max(np.abs(np.array(y) - self.refs[i].eval(X))))
                ctx.check(gap <= GAP_TOL, f"serve batch {i}: gap {gap}")
            for i, (v, r) in enumerate(zip(single_vals, self.refs[0].eval(singles))):
                ctx.check(abs(v - r) <= GAP_TOL, f"serve single {i}: {v!r} vs reference {r!r}")
        self.served = batches[0]
        return parts, outputs

    def layer_extras(self):
        """Share of (block, point) pairs whose block summand is nonzero, over
        up to 64 served points of the first model."""
        model = self.models[0]
        X = self.served[:64]
        Z = netcore.pad_input(X, model.padding_channels)
        active = 0
        for blk in model.blocks:
            S = netcore.block_stack(blk, Z)
            active += int(np.count_nonzero(np.any(S != 0.0, axis=(1, 2))))
            Z = Z + S
        return {"netcore.active_block_frac": active / (len(model.blocks) * len(X))}


def _pinned(ctx, workload):
    return json.loads(PINS.read_text())[ctx.size][workload]


class Pinned(Workload):
    """A workload whose outputs are checked against pinned.json."""

    def round(self, index):
        parts, outputs = self.requests()
        self.check(outputs)
        return parts, outputs


class Studies(Pinned):
    """Functional-path study requests: a rate study through `run_study`, the
    risk study's Lipschitz estimate over large batches and the adversarial
    study's search over many small ones."""

    name = "studies"

    def setup_work(self):
        cfg = STUDIES[self.ctx.size]
        self.rate = dict(cfg["rate"], seed=self.ctx.seed)
        studies.validate_config(self.rate)
        self.target = targets.get_target("sinprod", alpha=2, dim=2)
        self.ap = taylor.build_euclidean(self.target, s=0, p=math.inf, N=cfg["N"],
                                         compile_model=False)
        rng = np.random.default_rng([self.ctx.seed, 1])
        self.pairs = metrics.sample_pairs(rng, 2, cfg["pairs"])
        self.probes = rng.uniform(0.02, 0.98, (cfg["probes"], 2))
        self.X = rng.uniform(0.0, 1.0, (cfg["points"], 2))

    def requests(self):
        cfg = STUDIES[self.ctx.size]
        base = self._round_dir(0)
        t_rate, (code, summary) = self._timed("rate", _quiet, studies.run_study, self.rate, base)
        shutil.rmtree(base)
        t_lip, lip = self._timed("lipschitz", metrics.lipschitz_estimate, self.ap.eval,
                                 pairs=self.pairs, probes=self.probes)
        t_adv, adv = self._timed("adversarial", risk.adversarial_risk, self.ap.eval, self.X,
                                 self.target(self.X), ADV_DELTAS, seed=self.ctx.seed,
                                 directions=cfg["directions"], ascent_steps=cfg["steps"])
        outputs = {"rate": {"code": code, "summary": _jsonable(summary)}, "lipschitz": lip,
                   "adversarial": [adv[d] for d in ADV_DELTAS]}
        return [[t_rate], [t_lip], [t_adv]], outputs

    def check(self, outputs):
        check, pins = self.ctx.check, _pinned(self.ctx, self.name)
        rate, pin = outputs["rate"], pins["rate"]
        check(rate["code"] == pin["code"], f"rate: exit code {rate['code']}, pinned {pin['code']}")
        bad = compare(rate["summary"], pin["summary"])  # the rate study ignores the seed
        check(not bad, f"rate: {'; '.join(bad[:3])}")
        if self.ctx.seed == DEFAULT_SEED:
            bad = compare({k: outputs[k] for k in ("lipschitz", "adversarial")},
                          {k: pins[k] for k in ("lipschitz", "adversarial")})
            check(not bad, f"risk requests: {'; '.join(bad[:3])}")
        else:
            check(math.isfinite(outputs["lipschitz"]) and outputs["lipschitz"] > 0,
                  f"lipschitz estimate {outputs['lipschitz']}")
            adv = outputs["adversarial"]
            check(all(math.isfinite(a) for a in adv) and adv == sorted(adv),
                  f"adversarial risk not monotone in delta: {adv}")


class Manifold(Pinned):
    """Manifold requests of the circle manifold-rate study at one N: build
    the chart-sum approximator, take its value norm, and evaluate it at
    single points (the norm's inner pattern)."""

    name = "manifold"

    def setup_work(self):
        cfg = MANIFOLD[self.ctx.size]
        self.mspec, self.target = targets.get_manifold_target(
            cfg["target"], cfg["ambient_dim"], order=cfg["alpha"])
        # the radius the study uses when its config leaves r unset
        self.atlas = manifold.build_atlas(self.mspec, 0.8 * self.mspec.reach / 4.0)
        self.points = self.mspec.sample_points(cfg["points"])

    def requests(self):
        cfg = MANIFOLD[self.ctx.size]
        t_build, ap = self._timed("build", manifold.build_manifold_approx, self.target,
                                  self.mspec, N=cfg["N"], atlas=self.atlas)
        error = lambda X: ap.eval(X) - self.target(X)
        t_norm, (value, skipped) = self._timed("norm", manifold.manifold_norm, error,
                                               self.atlas, 0, resolution=cfg["resolution"])
        evals, values = [], []
        for x in self.points:
            t, y = self._timed("eval", ap.eval, x[None])
            evals.append(t)
            values.append(float(y[0]))
        outputs = {"norm": {"value": float(value), "skipped": skipped}, "eval": values}
        return [[t_build], [t_norm], evals], outputs

    def check(self, outputs):
        bad = compare(outputs, _pinned(self.ctx, self.name))  # no input depends on the seed
        self.ctx.check(not bad, f"manifold: {'; '.join(bad[:3])}")


WORKLOADS = {w.name: w for w in (Build, Serve, Studies, Manifold)}


def reference_values(size, tmp):
    """The pins: outputs of the pinned workloads at the default seed."""
    pins = {}
    for cls in (Studies, Manifold):
        w = cls(Context(Path(__file__).resolve().parents[1], DEFAULT_SEED, size, tmp))
        w.setup_work()
        pins[cls.name] = w.requests()[1]
    return pins
