"""JSON serialization of models.

Round-trips are bit-exact for finite doubles: floats are emitted through
Python's shortest-roundtrip repr.  Files carry a schema version; loading an
unknown version, a document with missing keys, inconsistent shapes or a
non-finite parameter raises SerializationError.

``save`` writes the text of ``json.dumps(to_dict(obj))``, but encodes each
distinct array (same shape, same bytes) once and splices its text wherever
the array occurs: a compiled model holds thousands of arrays and only a few
hundred distinct ones.

A model with a BlockSupport carries it under the optional key
``"support": {"N": grid, "nodes": [[node, ...] per block]}``; a file without
it loads as a model whose forward runs every block.  Loading checks the key
as strictly as the weights: integer nodes in [0, N]^D, one non-empty list
per block.
"""

import json
import os
import tempfile

import numpy as np

from .algebra import CnnFunction
from .netcore import BlockSupport, ConvResNetModel, FilterTensor, ResidualBlockSpec, ShapeError

SCHEMA_VERSION = 1


class SerializationError(ValueError):
    """Raised for version mismatches or malformed network files."""


def _arr(a):
    a = np.asarray(a, dtype=np.float64)
    return {"dims": list(a.shape), "data": a.ravel().tolist()}


def _unarr(d):
    try:
        return np.array(d["data"], dtype=np.float64).reshape(d["dims"])
    except (KeyError, TypeError, ValueError) as e:
        raise SerializationError(f"malformed array record: {e}") from e


def _finite(arrays, what):
    # one pass per block: a call per array would dominate loading
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


def _block_from_dict(block):
    _require(block, ("filters", "biases"), "block record")
    filters = [_unarr(f) for f in block["filters"]]
    biases = [_unarr(b) for b in block["biases"]]
    _finite(filters + biases, "block parameters")
    return filters, biases


def _block_to_dict(filters, biases, arr=_arr):
    return {
        "filters": [arr(f.entries) for f in filters],
        "biases": [arr(b) for b in biases],
    }


def model_to_dict(net: ConvResNetModel, arr=_arr) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "kind": "convresnet",
        "D": net.input_dim,
        "C": net.padding_channels,
        "blocks": [_block_to_dict(b.filters, b.biases, arr) for b in net.blocks],
        "fc": {"weight": net.fc_weight.ravel().tolist(), "bias": net.fc_bias},
        "first_row_only": net.first_row_only,
    }
    if net.support is not None:
        doc["support"] = {"N": net.support.grid, "nodes": [a.tolist() for a in net.support.nodes]}
    return doc


def model_from_dict(doc: dict) -> ConvResNetModel:
    _check_version(doc, "convresnet")
    _require(doc, ("D", "C", "blocks"), "network document")
    D, C = int(doc["D"]), int(doc["C"])
    fc, fc_bias = _fc(doc, D)
    stacks = [_block_from_dict(b) for b in doc["blocks"]]
    support = doc.get("support")
    if support is not None:
        _require(support, ("N", "nodes"), "support record")
    try:
        blocks = [ResidualBlockSpec([FilterTensor(f) for f in fs], bs) for fs, bs in stacks]
        if support is not None:
            support = BlockSupport(support["N"], support["nodes"])
        return ConvResNetModel(
            D, C, blocks, fc, fc_bias, bool(doc.get("first_row_only", False)), support
        )
    except ShapeError as e:
        raise SerializationError(f"inconsistent network shapes: {e}") from e


def cnn_to_dict(f: CnnFunction, arr=_arr) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "kind": "cnn",
        "D": f.input_dim,
        "C": 1,
        "blocks": [
            _block_to_dict([w for w, _ in f.conv_stack], [b for _, b in f.conv_stack], arr)
        ],
        "fc": {"weight": f.fc_weight.ravel().tolist(), "bias": f.fc_bias},
        "first_row_only": f.first_row_only,
        "input_pair_layer": f.input_pair_layer,
    }


def cnn_from_dict(doc: dict) -> CnnFunction:
    _check_version(doc, "cnn")
    _require(doc, ("D", "blocks"), "network document")
    D = int(doc["D"])
    fc, fc_bias = _fc(doc, D)
    if not isinstance(doc["blocks"], list) or len(doc["blocks"]) != 1:
        raise SerializationError("a cnn document holds exactly one block")
    filters, biases = _block_from_dict(doc["blocks"][0])
    try:
        return CnnFunction(
            D,
            list(zip(map(FilterTensor, filters), biases)),
            fc,
            fc_bias,
            first_row_only=bool(doc.get("first_row_only", True)),
            input_pair_layer=bool(doc.get("input_pair_layer", False)),
        )
    except ShapeError as e:
        raise SerializationError(f"inconsistent network shapes: {e}") from e


def _check_version(doc, kind):
    if not isinstance(doc, dict) or "version" not in doc:
        raise SerializationError("not a network document (missing version)")
    if doc["version"] != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported schema version {doc['version']!r}, expected {SCHEMA_VERSION}"
        )
    if doc.get("kind", kind) != kind:
        raise SerializationError(f"expected kind {kind!r}, got {doc.get('kind')!r}")


def to_dict(obj, arr=_arr):
    """The document of a model or CnnFunction; ``arr`` encodes each array."""
    if isinstance(obj, ConvResNetModel):
        return model_to_dict(obj, arr)
    if isinstance(obj, CnnFunction):
        return cnn_to_dict(obj, arr)
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


def from_dict(doc):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "convresnet":
        return model_from_dict(doc)
    if kind == "cnn":
        return cnn_from_dict(doc)
    raise SerializationError(f"unknown document kind {kind!r}")


def atomic_write_text(path, text):
    """Write via temp file + rename so partial files never appear."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# an array's place in the skeleton document: a string no document holds
_SLOT = "\0"


def dumps(obj):
    """json.dumps(to_dict(obj)), encoding each distinct array once.

    The document is dumped with a slot string in place of each array; the
    slots appear in the text in the order the arrays were met, and each is
    replaced by its array's text."""
    texts, by_bytes, by_id, order = [], {}, {}, []

    def arr(a):
        seen = by_id.get(id(a))
        if seen is None:  # the entry keeps a alive, so its id stays its own
            a64 = np.asarray(a, dtype=np.float64)
            key = (a64.shape, a64.tobytes())  # +0.0 and -0.0 differ in bytes
            if key not in by_bytes:
                by_bytes[key] = len(texts)
                texts.append(json.dumps(_arr(a64)))
            seen = by_id[id(a)] = (a, by_bytes[key])
        order.append(seen[1])
        return _SLOT

    parts = json.dumps(to_dict(obj, arr)).split(json.dumps(_SLOT))
    if len(parts) != len(order) + 1:
        raise SerializationError("array slots do not match the arrays of the document")
    out = [parts[0]]
    for i, part in zip(order, parts[1:]):
        out += (texts[i], part)
    return "".join(out)


def save(path, obj):
    atomic_write_text(path, dumps(obj))


def load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise SerializationError(f"corrupt network file {path}: {e}") from e
    except OSError as e:
        raise SerializationError(f"cannot read network file {path}: {e}") from e
    return from_dict(doc)
