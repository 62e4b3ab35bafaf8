"""Outside-in tracer for the sobolev_forge layers.

The tracer wraps every public function and public method of each package
module (the layers) and rebinds every alias of it: the defining module, each
module that imported it by name, the package namespace and module-level
registries.  Nothing inside the package changes; the wrappers live here.

A call of a wrapped function is one span (name, start, end, parent, root),
kept in flat arrays.  The kernels are called millions of times, so their
calls are not spans: they add to per-parent aggregate counters instead
(calls, seconds, flops, bytes, rows).  A span's self time is its duration
minus the time of the wrapped calls it made.
"""

import contextlib
import gc
import inspect
import os
import sys
import time
import types
from array import array

LAYERS = (
    "kernels",
    "netcore",
    "algebra",
    "scalarnets",
    "taylor",
    "metrics",
    "manifold",
    "risk",
    "serialize",
    "studies",
    "targets",
    "cli",
)
KERNELS = ("kernels.conv_layer", "kernels.mlp_layer")
PACKAGE = "sobolev_forge"


def _conv_cost(w, b, z):
    """(flops, bytes) of kernels.conv_layer from its operand shapes."""
    n, D, cin = z.shape
    cout, K = w.shape[0], w.shape[1]
    taps = sum(D - k for k in range(min(K, D)))
    flops = 2 * n * taps * cin * cout
    nbytes = 8 * (w.size + b.size + z.size + n * D * cout)
    return flops, nbytes


def _mlp_cost(w, b, x):
    n = x.shape[0]
    cout, cin = w.shape
    return 2 * n * cin * cout, 8 * (w.size + b.size + x.size + n * cout)


def _points(args, result):
    x = args[-1]
    return (("points", x.shape[0] if getattr(x, "ndim", 1) == 2 else 1),)


# Counters beyond calls and time, per function: name -> (keys, recorder).
EXTRAS = {
    "netcore.resnet_forward_batch": (("points",), _points),
    "taylor.ConstructedApproximator.eval": (("points",), _points),
    "manifold.ManifoldApproximator.eval": (("points",), _points),
    "manifold.manifold_norm": (("skipped",), lambda args, result: (("skipped", result[1]),)),
    "serialize.save": (("mb",), lambda args, result: (("mb", os.path.getsize(args[0]) / 1e6),)),
}


def layer_targets(package_modules):
    """Map qualified name -> (owner, attribute, function) for every public
    function and public method defined in the layer modules."""
    out = {}
    for layer in LAYERS:
        mod = package_modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            # a function of the module or of its private submodules (kernel backends)
            if inspect.isfunction(obj) and obj.__module__.startswith(mod.__name__):
                out[f"{layer}.{attr}"] = (mod, attr, obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, meth in vars(obj).items():
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        out[f"{layer}.{attr}.{mname}"] = (obj, mname, meth)
    return out


def _alias_sites(modules):
    """Yield (container, key, value) for every module global, every value of
    a module-level dict, and every class attribute of the given modules."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            yield mod, key, value
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    yield value, k, v
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for k, v in list(vars(value).items()):
                    yield value, k, v


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Spans and counters for one traced run; install() to start, uninstall()
    to restore every rebound name."""

    def __init__(self, extra_modules=()):
        self.names = []
        self._name_idx = {}
        # span columns
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_root = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # per-name totals
        self.calls = {}
        self.self_s = {}
        self.failed = {}
        self.extra = {}
        # kernel aggregates per parent span: [calls, seconds, flops, bytes, rows]
        self.kernel_agg = {}
        self._stack = []
        self._labels = {}
        self._pending_label = None
        self._extra_modules = list(extra_modules)
        self._restore = []
        self._wrappers = []
        self.targets = {}
        self.rebound = {}
        self.enabled = True

    # -- installation -------------------------------------------------------

    def _modules(self):
        pkg = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        return pkg + self._extra_modules

    def install(self):
        pkg = {n: m for n, m in sys.modules.items() if n.startswith(PACKAGE)}
        self.targets = layer_targets(pkg)
        wrappers = {}
        for name, (owner, attr, fn) in self.targets.items():
            wrapper = self._wrap_kernel(name, fn) if name in KERNELS else self._wrap(name, fn)
            wrappers[id(fn)] = (fn, wrapper, name)
            self._wrappers.append(wrapper)
            self.rebound[name] = 0
        for container, key, value in _alias_sites(self._modules()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                _set(container, key, hit[1])
                self._restore.append((container, key, value))
                self.rebound[hit[2]] += 1
        return self

    def uninstall(self):
        for container, key, value in reversed(self._restore):
            _set(container, key, value)
        self._restore.clear()

    def missed_aliases(self):
        """Every object other than the tracer's own that still holds an
        original function, found through the garbage collector rather than
        the scan install() used; calls through it would go unrecorded."""
        gc.collect()  # drop garbage, e.g. parsers of earlier cli.main calls
        ours = {id(t) for t in self.targets.values()}
        ours |= {id(r) for r in self._restore}
        ours |= {id(w.__dict__) for w in self._wrappers}
        missed = []
        for name, (_, _, fn) in self.targets.items():
            for ref in gc.get_referrers(fn):
                if id(ref) in ours or isinstance(ref, (types.CellType, types.FrameType)):
                    continue
                missed.append(f"{type(ref).__name__} -> {name}")
        return missed

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside pass through unrecorded (the benchmark's checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def label_next_root(self, label):
        """Attach a label to the next root span (e.g. which build it is)."""
        self._pending_label = label

    def _index(self, name):
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.failed[name] = 0
        return idx

    def _wrap(self, name, fn):
        idx = self._index(name)
        keys, record = EXTRAS.get(name, ((), None))
        for key in keys:
            self.extra[(name, key)] = 0
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = len(self.span_name)
            parent = stack[-1][0] if stack else -1
            root = self.span_root[parent] if stack else span
            if not stack and self._pending_label is not None:
                self._labels[span] = self._pending_label
                self._pending_label = None
            self.span_name.append(idx)
            self.span_parent.append(parent)
            self.span_root.append(root)
            self.span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.span_end[span] = end
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not ok:
                    self.failed[name] += 1
            if record is not None:
                for key, amount in record(args, result):
                    self.extra[(name, key)] += amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_kernel(self, name, fn):
        k = KERNELS.index(name)
        self._index(name)
        cost = _conv_cost if k == 0 else _mlp_cost
        stack = self._stack
        agg = self.kernel_agg
        clock = time.perf_counter

        def kernel(w, b, z, *args, **kwargs):
            if not self.enabled:
                return fn(w, b, z, *args, **kwargs)
            start = clock()
            out = fn(w, b, z, *args, **kwargs)
            dur = clock() - start
            parent = stack[-1][0] if stack else -1
            if stack:
                stack[-1][1] += dur
            flops, nbytes = cost(w, b, z)
            row = agg.get((parent, k))
            if row is None:
                row = agg[(parent, k)] = [0, 0.0, 0, 0, 0]
            row[0] += 1
            row[1] += dur
            row[2] += flops
            row[3] += nbytes
            row[4] += z.shape[0]
            return out

        kernel.__wrapped__ = fn
        kernel.__name__ = fn.__name__
        kernel.__qualname__ = fn.__qualname__
        kernel.__doc__ = fn.__doc__
        return kernel

    # -- summaries ----------------------------------------------------------

    def kernel_totals(self, name, roots=None):
        """[calls, seconds, flops, bytes, rows] of one kernel, optionally only
        under the given root spans."""
        k = KERNELS.index(name)
        tot = [0, 0.0, 0, 0, 0]
        for (parent, kk), row in self.kernel_agg.items():
            if kk != k:
                continue
            if roots is not None and (parent < 0 or self.span_root[parent] not in roots):
                continue
            for i, v in enumerate(row):
                tot[i] += v
        return tot

    def root_summary(self):
        """Per root label: root count, seconds and kernel calls under them."""
        by_label = {}
        for span, label in self._labels.items():
            by_label.setdefault(label, set()).add(span)
        out = {}
        for label, roots in by_label.items():
            out[label] = {
                "roots": len(roots),
                "seconds": sum(self.span_end[s] - self.span_start[s] for s in roots),
                "conv_layer_calls": self.kernel_totals("kernels.conv_layer", roots)[0],
                "mlp_layer_calls": self.kernel_totals("kernels.mlp_layer", roots)[0],
            }
        return out

    def layer_metrics(self):
        """Flat name -> value map: per-function calls/self_s/failed/extras,
        kernel totals and per-module self time.  A method whose metric names
        would pass 64 characters is named without its class."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name in self.names:
            layer, *_, last = name.split(".")
            key = name if len(name) + len(".self_s") <= 64 else f"{layer}.{last}"
            if name in KERNELS:
                calls, secs, flops, nbytes, rows = self.kernel_totals(name)
                out[f"{key}.gflop"] = flops / 1e9
                out[f"{key}.mb"] = nbytes / 1e6
                out[f"{key}.rows_per_call"] = rows / calls if calls else 0.0
            else:
                calls, secs = self.calls[name], self.self_s[name]
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = secs
            out[f"{key}.failed"] = self.failed[name]
            out[f"{layer}.self_s"] += secs
        for (name, key), value in self.extra.items():
            out[f"{name}.{key}"] = value
        out["trace.spans"] = len(self.span_name)
        return out
