"""Forward-pass kernels with a compiled core and a pure-numpy fallback.

The compiled extension (Cython) is picked at import time when it built
successfully; set SOBOLEV_FORGE_PURE=1 to force the numpy backend.  Both
backends implement identical semantics; benchmarks/bench_forward.py times
them on a scalar-net batch.
"""

import os

import numpy as np

from . import _core_numpy

_pure = os.environ.get("SOBOLEV_FORGE_PURE", "") in ("1", "true", "yes")
_compiled = None
if not _pure:
    try:
        from . import _core_c as _compiled
    except ImportError:
        _compiled = None


def backend_name():
    return "compiled" if _compiled is not None else "numpy"


def _c3(a):
    return np.ascontiguousarray(a, dtype=np.float64)


if _compiled is not None:

    def conv_layer(w, b, z):
        z = _c3(z)
        out = np.empty((z.shape[0], z.shape[1], w.shape[0]))
        _compiled.conv_layer_into(_c3(w), _c3(b), z, out)
        return out

    def mlp_layer(w, b, x, relu=True):
        x = _c3(x)
        out = np.empty((x.shape[0], w.shape[0]))
        _compiled.mlp_layer_into(_c3(w), _c3(b), x, out, relu)
        return out

else:
    conv_layer = _core_numpy.conv_layer
    mlp_layer = _core_numpy.mlp_layer
