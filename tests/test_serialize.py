import copy
import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_forge import netcore, serialize
from sobolev_forge.algebra import assemble_resnet, mlp_to_cnn
from sobolev_forge.cli import main
from sobolev_forge.manifold import build_atlas, build_manifold_approx
from sobolev_forge.netcore import ConvResNetModel, ResidualBlockSpec, audit_class, resnet_forward_batch
from sobolev_forge.scalarnets import build_trapezoid
from sobolev_forge.targets import get_manifold_target, get_target
from sobolev_forge.taylor import build_euclidean


def _psi_model(m=1, N=2):
    return assemble_resnet([mlp_to_cnn(build_trapezoid(m, N))])


def test_model_roundtrip_bit_exact(tmp_path):
    net = _psi_model()
    path = tmp_path / "net.json"
    serialize.save(path, net)
    back = serialize.load(path)
    for b1, b2 in zip(net.blocks, back.blocks):
        for f1, f2 in zip(b1.filters, b2.filters):
            assert np.array_equal(f1.entries, f2.entries)
        for x1, x2 in zip(b1.biases, b2.biases):
            assert np.array_equal(x1, x2)
    assert np.array_equal(net.fc_weight, back.fc_weight)
    assert net.fc_bias == back.fc_bias
    xs = np.linspace(-1, 2, 1001)[:, None]
    assert np.array_equal(resnet_forward_batch(net, xs), resnet_forward_batch(back, xs))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300, allow_nan=False, width=64), min_size=4, max_size=4))
def test_roundtrip_survives_extreme_finite_doubles(vals):
    net = _psi_model()
    net.blocks[0].filters[0].entries[0, 0, 0] = vals[0]
    net.blocks[0].biases[0][0, 0] = vals[1]
    doc = json.loads(json.dumps(serialize.to_dict(net)))
    back = serialize.from_dict(doc)
    assert np.array_equal(
        back.blocks[0].filters[0].entries, net.blocks[0].filters[0].entries
    )


@pytest.mark.parametrize(
    "make",
    [lambda: mlp_to_cnn(build_trapezoid(0, 4)), lambda: build_trapezoid(0, 4)],
    ids=["CnnFunction", "ScalarNet"],
)
def test_only_a_convresnet_model_is_written(make, tmp_path):
    with pytest.raises(serialize.SerializationError, match="cannot serialize"):
        serialize.save(tmp_path / "net.json", make())
    assert not (tmp_path / "net.json").exists()


def test_version_mismatch(tmp_path):
    net = _psi_model()
    doc = serialize.to_dict(net)
    doc["version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(serialize.SerializationError, match="version"):
        serialize.load(path)


def test_corrupt_file(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json")
    with pytest.raises(serialize.SerializationError, match="corrupt"):
        serialize.load(path)


def test_unknown_kind(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"version": 1, "kind": "mystery"}))
    with pytest.raises(serialize.SerializationError, match="kind"):
        serialize.load(path)


def test_atomic_write_no_partial(tmp_path):
    path = tmp_path / "x.txt"
    serialize.atomic_write_text(path, "hello")
    assert path.read_text() == "hello"
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def _v1(doc):
    """The version-1 document of a version-2 one: the array record inline at
    every occurrence, as version-1 writers emitted it."""
    pool = doc["arrays"]
    v1 = {k: v for k, v in doc.items() if k != "arrays"}
    v1["version"] = 1
    v1["blocks"] = [{k: [pool[i] for i in b[k]] for k in ("filters", "biases")} for b in doc["blocks"]]
    return v1


def _psi_doc():
    return json.loads(json.dumps(serialize.to_dict(_psi_model())))


def test_nan_fc_bias_rejected(tmp_path):
    doc = _psi_doc()
    doc["fc"]["bias"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # json writes the literal NaN, as a stray tool would
    with pytest.raises(serialize.SerializationError, match="non-finite"):
        serialize.load(path)


def test_inf_filter_entry_rejected():
    doc = _psi_doc()
    doc["arrays"][doc["blocks"][0]["filters"][1]]["data"][0] = float("inf")
    with pytest.raises(serialize.SerializationError, match="non-finite"):
        serialize.from_dict(doc)


def test_inf_filter_entry_rejected_in_a_v1_document():
    doc = _v1(_psi_doc())
    doc["blocks"][0]["filters"][1]["data"][0] = float("inf")
    with pytest.raises(serialize.SerializationError, match="non-finite"):
        serialize.from_dict(doc)


def test_missing_fc_rejected():
    doc = _psi_doc()
    del doc["fc"]
    with pytest.raises(serialize.SerializationError, match="fc"):
        serialize.from_dict(doc)


def test_inconsistent_shapes_rejected():
    doc = _psi_doc()
    doc["C"] = 4
    with pytest.raises(serialize.SerializationError, match="shapes"):
        serialize.from_dict(doc)


# --- the block-support key ---------------------------------------------------


@pytest.fixture(scope="module")
def built_doc():
    """model.json of a sinprod build, alpha=2, D=2, N=2 (27 blocks)."""
    target = get_target("sinprod", alpha=2, dim=2)
    model = build_euclidean(target, s=0, p=math.inf, N=2, check_points=4).model
    return json.loads(json.dumps(serialize.to_dict(model)))


def _node_outside_grid(s):
    s["nodes"][3][0] = [0, 3]


def _one_block_short(s):
    s["nodes"].pop()


def _non_integer_node(s):
    s["nodes"][0][0] = [0.5, 0]


def _node_of_wrong_dimension(s):
    s["nodes"][5][0] = [1, 1, 1]


def _ragged_nodes(s):
    s["nodes"][5].append([1])


def _empty_block(s):
    s["nodes"][2] = []


def _non_integer_grid(s):
    s["N"] = 2.0


def _missing_grid(s):
    del s["N"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_node_outside_grid, "outside"),
        (_one_block_short, "each of the 27 blocks"),
        (_non_integer_node, "integer nodes"),
        (_node_of_wrong_dimension, "2-d nodes"),
        (_ragged_nodes, "integer nodes"),
        (_empty_block, "non-empty"),
        (_non_integer_grid, "grid must be an integer"),
        (_missing_grid, "missing required keys"),
    ],
)
def test_bad_support_is_rejected_and_eval_exits_2(built_doc, edit, message, tmp_path, capsys):
    doc = copy.deepcopy(built_doc)
    edit(doc["support"])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(serialize.SerializationError, match=message):
        serialize.load(path)
    assert main(["eval", "--net", str(path), "--at", "0.3,0.4"]) == 2
    err = capsys.readouterr().err
    assert "network file error" in err and "Traceback" not in err


def test_model_without_support_runs_dense_with_the_same_bits(built_doc):
    net = serialize.from_dict(built_doc)
    doc = copy.deepcopy(built_doc)
    del doc["support"]
    dense = serialize.from_dict(doc)
    assert net._plan.cover is not None and dense.support is None and dense._plan.cover is None
    axis = np.linspace(-0.5, 1.5, 49)
    X = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    assert np.array_equal(resnet_forward_batch(dense, X), resnet_forward_batch(net, X))
    assert "support" not in serialize.to_dict(dense)


# --- the writer: each distinct array encoded once -----------------------------


def _signed_zero_model():
    """Two blocks alike but for one bias matrix, all 0.0 in the first and all
    -0.0 in the second: same shape, different bytes."""
    blk = _psi_model().blocks[0]
    zero = blk.biases[0]
    assert zero.shape == (1, 2) and not np.any(zero) and not np.any(np.signbit(zero))
    minus = ResidualBlockSpec(blk.filters, [np.full(zero.shape, -0.0)] + blk.biases[1:])
    fc = np.array([[0.0, 1.0, -1.0]])
    return ConvResNetModel(1, 3, [blk, minus], fc, 0.0)


@functools.lru_cache(maxsize=None)
def _written(name):
    """Objects the writer must encode as json.dumps(to_dict(obj)) would.  A
    cache rather than a fixture: a failing test then shows only the name."""
    sinprod = get_target("sinprod", alpha=2, dim=2)
    if name in ("plain", "grouped"):
        Jt = 40 if name == "grouped" else None
        return build_euclidean(sinprod, s=0, p=math.inf, N=3, Jt=Jt, check_points=4).model
    if name == "manifold":
        mspec, target = get_manifold_target("circle-sin")
        atlas = build_atlas(mspec, 0.2, sample_count=1024)
        return build_manifold_approx(
            target, mspec, N=2, atlas=atlas, compile_model=True, check_points=4
        ).model
    if name == "loaded":
        with tempfile.TemporaryDirectory() as d:
            serialize.save(Path(d) / "plain.json", _written("plain"))
            return serialize.load(Path(d) / "plain.json")
    return _signed_zero_model()


@pytest.mark.parametrize("name", ["plain", "grouped", "manifold", "loaded", "signed_zero"])
def test_save_writes_the_text_of_json_dumps(name, tmp_path):
    obj = _written(name)
    path = tmp_path / "out.json"
    serialize.save(path, obj)
    got, want = path.read_text(), json.dumps(serialize.to_dict(obj))
    same = got == want  # a bool, so a failure does not diff megabytes of text
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert same, f"texts differ from character {at}: {got[at:at + 60]!r} vs {want[at:at + 60]!r}"


def test_each_model_computes_its_pool_once(monkeypatch):
    """The checks, the plan, the audit and the writer of a model all read the
    pool that its construction computed."""
    made = []  # the models themselves, so no id is reused
    pool = netcore._pool
    monkeypatch.setattr(netcore, "_pool", lambda net: made.append(net) or pool(net))
    sinprod = get_target("sinprod", alpha=2, dim=2)
    built = build_euclidean(sinprod, s=0, p=math.inf, N=3, check_points=4).model  # forwards in its gates
    doc = serialize.to_dict(built)
    audit_class(built)
    loaded = serialize.from_dict(json.loads(json.dumps(doc)))
    resnet_forward_batch(loaded, np.full((3, 2), 0.5))  # the first forward lowers the model
    audit_class(loaded)
    assert serialize.to_dict(loaded) == doc
    assert len({id(net) for net in made}) == len(made)
    assert sum(net is built for net in made) == 1 and sum(net is loaded for net in made) == 1


def test_signed_zeros_keep_their_sign_through_save(tmp_path):
    path = tmp_path / "out.json"
    serialize.save(path, _signed_zero_model())
    back = serialize.load(path)
    assert not np.any(np.signbit(back.blocks[0].biases[0]))
    assert np.all(np.signbit(back.blocks[1].biases[0]))


# --- schema 2: each distinct array once, named by index -----------------------


def _arrays(model):
    return [a for blk in model.blocks for a in [f.entries for f in blk.filters] + blk.biases]


@functools.lru_cache(maxsize=None)
def _build(D, alpha, N, Jt):
    target = get_target("sinprod", alpha=alpha, dim=D)
    return build_euclidean(target, s=0, p=math.inf, N=N, Jt=Jt, check_points=4)


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from([1, 2, 3]), st.sampled_from([2, 3]), st.integers(2, 4), st.sampled_from([None, 40])
)
def test_v1_and_v2_documents_load_to_the_built_model(D, alpha, N, Jt):
    ap = _build(D, alpha, N, Jt)
    built, doc = ap.model, serialize.to_dict(ap.model)
    X = np.random.default_rng(N).uniform(-0.2, 1.2, (64, D))
    want = resnet_forward_batch(built, X)
    # the v1 document goes in as a dict: its text is megabytes, and a JSON
    # round trip of lists of floats and ints gives the same lists
    for back in (serialize.from_dict(_v1(doc)), serialize.from_dict(json.loads(json.dumps(doc)))):
        for a, b in zip(_arrays(built), _arrays(back), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.array_equal(back.fc_weight, built.fc_weight) and back.fc_bias == built.fc_bias
        assert back.support.grid == built.support.grid
        for a, b in zip(back.support.nodes, built.support.nodes, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(resnet_forward_batch(back, X), want)
        assert audit_class(back) == ap.class_params


@pytest.mark.parametrize("name", ["plain", "grouped", "manifold"])
def test_a_loaded_model_holds_one_object_per_pooled_array(name):
    doc = serialize.to_dict(_written(name))
    back = serialize.from_dict(json.loads(json.dumps(doc)))
    assert len({id(a) for a in _arrays(back)}) == len(doc["arrays"])
    filters = [f for blk in back.blocks for f in blk.filters]
    assert len({id(f) for f in filters}) == len({i for b in doc["blocks"] for i in b["filters"]})


def test_eval_of_a_v1_file_prints_what_the_v2_file_prints(built_doc, tmp_path, capsys):
    out = []
    for name, doc in (("v1", _v1(built_doc)), ("v2", built_doc)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--net", str(path), "--grid", "5"]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1] and len(out[0].splitlines()) == 26


def _index_out_of_range(doc):
    doc["blocks"][0]["filters"][0] = len(doc["arrays"])


def _negative_index(doc):
    doc["blocks"][0]["biases"][1] = -1


def _float_index(doc):
    doc["blocks"][1]["filters"][2] = float(doc["blocks"][1]["filters"][2])


def _bool_index(doc):
    doc["blocks"][0]["biases"][0] = True


def _nan_pool_entry(doc):
    doc["arrays"][-1]["data"][0] = float("nan")


def _short_pool_record(doc):
    doc["arrays"][0]["data"].pop()


def _no_pool(doc):
    del doc["arrays"]


def _bool_version(doc):
    doc["version"] = True


def _string_dimension(doc):
    doc["D"] = "2"


def _string_first_row_only(doc):
    doc["first_row_only"] = "false"


def _readout_of_channel_0(doc):
    doc["fc"]["weight"][0] = 0.5  # row 0, channel 0: x would reach the value


# Block 0 of built_doc has 35 layers; its filters are (4, 2, 3), (10, 1, 4),
# (4, 1, 4), ... and the last two (2, 1, 2), (3, 1, 2), each with a (2, Cout) bias.


def _bias_of_another_width(doc):
    block = doc["blocks"][0]
    block["biases"][2] = block["biases"][1]


def _layers_swapped(doc):
    block = doc["blocks"][0]
    for k in ("filters", "biases"):
        block[k][1], block[k][2] = block[k][2], block[k][1]


def _readout_layer_dropped(doc):
    block = doc["blocks"][0]
    del block["filters"][-1], block["biases"][-1]


def _bias_of_one_row(doc):
    doc["arrays"].append({"dims": [1, 3], "data": [0.0, 0.0, 0.0]})
    doc["blocks"][0]["biases"][-1] = len(doc["arrays"]) - 1


def _bias_dropped(doc):
    doc["blocks"][0]["biases"].pop()


def _no_version(doc):
    del doc["version"]


def _blocks_not_a_list(doc):
    doc["blocks"] = doc["blocks"][0]


def _filters_not_a_list(doc):
    doc["blocks"][0]["filters"] = doc["blocks"][0]["filters"][0]


def _biases_not_a_list(doc):
    doc["blocks"][1]["biases"] = {"0": doc["blocks"][1]["biases"][0]}


def _pool_not_a_list(doc):
    doc["arrays"] = {"0": doc["arrays"][0]}


def _fc_weight_of_strings(doc):
    doc["fc"]["weight"] = ["w"] * len(doc["fc"]["weight"])


def _negative_dims(doc):
    doc["arrays"][0]["dims"][0] = -doc["arrays"][0]["dims"][0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_index_out_of_range, "not an index"),
        (_negative_index, "not an index"),
        (_float_index, "not an index"),
        (_bool_index, "not an index"),
        (_nan_pool_entry, "non-finite"),
        (_short_pool_record, "malformed array record"),
        (_no_pool, r"missing required keys \['arrays'\]"),
        (_bool_version, "version"),
        (_string_dimension, "D and C must be integers"),
        (_string_first_row_only, "first_row_only must be true or false"),
        (_bias_of_another_width, r"shapes: bias shape \(2, 4\) does not match filter out-channels 10"),
        (_layers_swapped, r"shapes: layer shapes do not compose: \(10, 1, 4\) then \(4, 1, 4\)"),
        (_readout_layer_dropped, "shapes: block must map D x C to D x C: .* 3 != last output channels 2"),
        (_bias_of_one_row, "shapes: bias rows 1 != input dim 2"),
        (_bias_dropped, "shapes: block needs matching filter/bias lists, got 35 filters and 34 biases"),
        (_no_version, r"not a network document \(missing version\)"),
        (_blocks_not_a_list, "blocks must be a list of block records"),
        (_filters_not_a_list, "a block's filters and biases must be lists"),
        (_biases_not_a_list, "a block's filters and biases must be lists"),
        (_pool_not_a_list, "arrays must be a list of array records"),
        (_fc_weight_of_strings, "malformed fc record"),
        (_negative_dims, r"malformed array record: dims \[-4, 2, 3\] are not non-negative integers"),
    ],
)
def test_malformed_document_is_rejected_and_eval_exits_2(built_doc, edit, message, tmp_path, capsys):
    doc = copy.deepcopy(built_doc)
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(serialize.SerializationError, match=message):
        serialize.load(path)
    assert main(["eval", "--net", str(path), "--at", "0.3,0.4"]) == 2
    err = capsys.readouterr().err
    assert "network file error" in err and "Traceback" not in err


def _first_filter_reads_channel_1(doc):
    doc["arrays"][doc["blocks"][0]["filters"][0]]["data"][1] = 0.5  # (0, 0, 1) of (4, 2, 3)


def _last_filter_writes_channel_0(doc):
    doc["arrays"][doc["blocks"][0]["filters"][-1]]["data"][0] = 0.5  # (0, 0, 0) of (3, 1, 2)


def _last_bias_writes_channel_0(doc):
    doc["arrays"][doc["blocks"][0]["biases"][-1]]["data"][0] = 0.5  # (0, 0) of (2, 3)


# the plan's condition each edit breaks, as the model constructor names it
_PLAN_CONDITIONS = {
    _readout_of_channel_0: "the readout must read only row 0 and give channel 0 a zero weight",
    _first_filter_reads_channel_1: "a block's first filter must read only channel 0",
    _last_filter_writes_channel_0: "a block's last filter and last bias must leave channel 0 at zero",
    _last_bias_writes_channel_0: "a block's last filter and last bias must leave channel 0 at zero",
}


@pytest.mark.parametrize("edit", list(_PLAN_CONDITIONS))
def test_off_plan_file_names_its_condition(built_doc, edit, tmp_path, capsys):
    condition = _PLAN_CONDITIONS[edit]
    # the message is the condition alone, not an "inconsistent network shapes"
    doc = copy.deepcopy(built_doc)
    edit(doc)
    with pytest.raises(serialize.SerializationError) as raised:
        serialize.from_dict(doc)
    assert str(raised.value) == condition
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--net", str(path), "--at", "0.3,0.4"]) == 2
    err = capsys.readouterr().err
    assert condition in err and "shapes" not in err and "Traceback" not in err


def test_first_row_only_is_read_for_its_type_only(built_doc, tmp_path, capsys):
    # the writer emits true; false, or no key at all, loads the same model
    assert built_doc["first_row_only"] is True
    axis = np.linspace(-0.5, 1.5, 21)
    X = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    want = resnet_forward_batch(serialize.from_dict(built_doc), X)
    printed = []
    for edit in (lambda d: None, lambda d: d.update(first_row_only=False), lambda d: d.pop("first_row_only")):
        doc = copy.deepcopy(built_doc)
        edit(doc)
        assert np.array_equal(resnet_forward_batch(serialize.from_dict(doc), X), want)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--net", str(path), "--at", "0.3,0.4"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[1:] == printed[:1] * 2
