"""JSON serialization of models.

A model file holds one ConvResNetModel, of kind ``"convresnet"``; the
writer accepts nothing else and loading rejects any other kind.
Round-trips are bit-exact for finite doubles: floats are emitted through
Python's shortest-roundtrip repr.

A document of schema version 2 holds the model's pool (see ``netcore``):
``"arrays": [{"dims": [...], "data": [...]}, ...]`` lists each distinct
array once, and every filter and bias of ``"blocks"`` is an integer index
into it.  The writer emits the pool the model computed when it was built.
Loading builds each pooled array once and hands it, and for a filter one
FilterTensor, to every block that names it, so a loaded model shares its
arrays as a built one does.  Version-1 documents, which hold the record
inline at every occurrence, still load; each record is resolved where it
stands.

Loading raises SerializationError for an unknown version, missing keys
(``"arrays"`` in a version-2 document too), an index that is not an
integer in range, a malformed array record, inconsistent shapes, a
non-finite parameter, or a model outside the plan's conditions (see
``netcore``), whose message is the condition's own.  ``"first_row_only"``
is written ``true`` and read only for its type: every model reads out row
0 alone.

A model with a BlockSupport carries it under the optional key
``"support": {"N": grid, "nodes": [[node, ...] per block]}``; a file without
it loads as a model whose forward runs every block.  Loading checks the key
as strictly as the weights: integer nodes in [0, N]^D, one non-empty list
per block.
"""

import itertools
import json
import os
import tempfile

import numpy as np

from .netcore import BlockSupport, ConvResNetModel, FilterTensor, PlanError, ResidualBlockSpec, ShapeError

SCHEMA_VERSION = 2
_READABLE = (1, 2)
_REFS = ("filters", "biases")


class SerializationError(ValueError):
    """Raised for version mismatches or malformed network files."""


def _arr(a):
    return {"dims": list(a.shape), "data": a.ravel().tolist()}


def _unarr(d):
    try:
        dims = d["dims"]
        if not all(type(n) is int and n >= 0 for n in dims):
            raise ValueError(f"dims {dims!r} are not non-negative integers")
        return np.array(d["data"], dtype=np.float64).reshape(dims)
    except (KeyError, TypeError, ValueError) as e:
        raise SerializationError(f"malformed array record: {e}") from e


def _finite(arrays, what):
    # one pass over all of them: a call per array would dominate loading
    if arrays and not np.isfinite(np.concatenate([np.ravel(a) for a in arrays])).all():
        raise SerializationError(f"non-finite value in {what}")


def _require(doc, keys, what):
    missing = [k for k in keys if not isinstance(doc, dict) or k not in doc]
    if missing:
        raise SerializationError(f"{what} is missing required keys {missing}")


def _fc(doc, D):
    _require(doc, ("fc",), "network document")
    _require(doc["fc"], ("weight", "bias"), "fc record")
    try:
        weight = np.array(doc["fc"]["weight"], dtype=np.float64).reshape(D, -1)
        bias = float(doc["fc"]["bias"])
    except (TypeError, ValueError) as e:
        raise SerializationError(f"malformed fc record: {e}") from e
    _finite([weight, bias], "fc record")
    return weight, bias


def to_dict(obj):
    """The version-2 document of a ConvResNetModel."""
    if not isinstance(obj, ConvResNetModel):
        raise SerializationError(f"cannot serialize {type(obj).__name__}")
    pool = obj._pool
    index = pool.index.tolist()
    doc = {
        "version": SCHEMA_VERSION,
        "kind": "convresnet",
        "D": obj.input_dim,
        "C": obj.padding_channels,
        "blocks": [
            {"filters": index[s : s + L], "biases": index[s + L : s + 2 * L]}
            for s, L in zip(pool.starts.tolist(), pool.depths.tolist())
        ],
        "fc": {"weight": obj.fc_weight.ravel().tolist(), "bias": obj.fc_bias},
        "first_row_only": True,
    }
    if obj.support is not None:
        doc["support"] = {"N": obj.support.grid, "nodes": [a.tolist() for a in obj.support.nodes]}
    doc["arrays"] = [_arr(a) for a in pool.arrays]
    return doc


def _stacks(doc):
    """Each block's (FilterTensors, bias arrays).  A version-1 document's
    inline records become a pool of their own, one entry per occurrence."""
    blocks = doc["blocks"]
    if not isinstance(blocks, list):
        raise SerializationError("blocks must be a list of block records")
    for block in blocks:
        _require(block, _REFS, "block record")
        if not all(isinstance(block[k], list) for k in _REFS):
            raise SerializationError("a block's filters and biases must be lists")
    if doc["version"] == 1:
        records = [r for block in blocks for k in _REFS for r in block[k]]
        at = itertools.count()
        blocks = [{k: [next(at) for _ in block[k]] for k in _REFS} for block in blocks]
    else:
        _require(doc, ("arrays",), "network document")
        records = doc["arrays"]
        if not isinstance(records, list):
            raise SerializationError("arrays must be a list of array records")
    pool = [_unarr(r) for r in records]
    _finite(pool, "network parameters")
    refs = [i for block in blocks for k in _REFS for i in block[k]]
    bad = [i for i in refs if type(i) is not int or not 0 <= i < len(pool)]
    if bad:
        raise SerializationError(
            f"array reference {bad[0]!r} is not an index into the {len(pool)} arrays"
        )
    # one FilterTensor per index, so blocks that name one array share it
    tensors = dict.fromkeys(i for block in blocks for i in block["filters"])
    for i in tensors:
        tensors[i] = FilterTensor(pool[i])
    return [([tensors[i] for i in b["filters"]], [pool[i] for i in b["biases"]]) for b in blocks]


def from_dict(doc):
    """The model of a version-1 or version-2 document."""
    if not isinstance(doc, dict) or "version" not in doc:
        raise SerializationError("not a network document (missing version)")
    version, kind = doc["version"], doc.get("kind")
    if type(version) is not int or version not in _READABLE:
        raise SerializationError(
            f"unsupported schema version {version!r}, expected one of {_READABLE}"
        )
    if kind != "convresnet":
        raise SerializationError(f"unknown document kind {kind!r}")
    _require(doc, ("D", "C", "blocks"), "network document")
    D, C = doc["D"], doc["C"]
    if not all(type(n) is int and n >= 1 for n in (D, C)):
        raise SerializationError(f"D and C must be integers >= 1, got {D!r} and {C!r}")
    fc, fc_bias = _fc(doc, D)
    first_row_only = doc.get("first_row_only", False)
    if type(first_row_only) is not bool:
        raise SerializationError(f"first_row_only must be true or false, got {first_row_only!r}")
    try:
        stacks = _stacks(doc)
        support = doc.get("support")
        if support is not None:
            _require(support, ("N", "nodes"), "support record")
            support = BlockSupport(support["N"], support["nodes"])
        blocks = [ResidualBlockSpec(fs, bs) for fs, bs in stacks]
        return ConvResNetModel(D, C, blocks, fc, fc_bias, support)
    except PlanError as e:  # the message names the condition
        raise SerializationError(str(e)) from e
    except ShapeError as e:
        raise SerializationError(f"inconsistent network shapes: {e}") from e


def atomic_write_text(path, text):
    """Write via temp file + rename so partial files never appear.  An
    OSError names path, not the temporary file."""
    tmp = None
    try:
        d = os.path.dirname(os.path.abspath(path))
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as e:
        raise OSError(e.errno, e.strerror, os.fspath(path)) from e
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def save(path, obj):
    atomic_write_text(path, json.dumps(to_dict(obj)))


def load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise SerializationError(f"corrupt network file {path}: {e}") from e
    except OSError as e:
        raise SerializationError(f"cannot read network file {path}: {e}") from e
    return from_dict(doc)
