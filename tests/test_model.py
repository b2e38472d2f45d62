"""Binary model format: bit-exact round trips and loud failures."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_detector, random_fern_arrays
from warpdet import pipeline
from warpdet.ferns import NUM_PARTITIONS, NUM_SPLITS, CascadeModel
from warpdet.model import FORMAT_VERSION, MAGIC, ModelFormatError, load_model, save_model


def _cascade(rng, n_ferns=3):
    return CascadeModel(*random_fern_arrays(rng, n_ferns), rng.standard_normal(n_ferns))


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    model = pipeline.build_detector(pipeline.TrainConfig(seed=3))
    model.cascade = _cascade(np.random.default_rng(42))
    path = tmp_path_factory.mktemp("model") / "model.wcnn"
    save_model(model, path)
    return path.read_bytes()


def _load_bytes(tmp_path, data):
    path = tmp_path / "probe.wcnn"
    path.write_bytes(data)
    return load_model(path)


@pytest.mark.parametrize("supervised_transform", [True, False])
def test_round_trip_is_bit_exact(tmp_path, rng, supervised_transform):
    model = pipeline.build_detector(
        pipeline.TrainConfig(seed=3), multitask=False, use_concat=False,
        supervised_transform=supervised_transform,
    )
    # move every parameter off its initial value, biases included
    for p in model.params():
        p += rng.standard_normal(p.shape)
    model.canonical.points += rng.uniform(-1, 1, model.canonical.points.shape)
    model.cascade = _cascade(rng)
    path = tmp_path / "model.wcnn"
    save_model(model, path)
    loaded = load_model(path)

    assert len(loaded.params()) == len(model.params())
    for a, b in zip(model.params(), loaded.params()):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert np.array_equal(loaded.canonical.points, model.canonical.points)
    assert loaded.supervised_transform is supervised_transform
    assert (loaded.multitask, loaded.use_concat) == (False, False)
    assert loaded.rect_size == model.rect_size
    assert loaded.cascade.patch_size == model.cascade.patch_size
    for attr in ("coords", "thresholds", "scores", "stage_thresholds"):
        a, b = getattr(model.cascade, attr), getattr(loaded.cascade, attr)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), attr


def test_the_cascade_closes_the_file_in_its_format_4_layout(model_bytes):
    """The cascade's four arrays end the header and the body in this order,
    with these dtypes and shapes, as format 4 has always stored them."""
    header, body = _split(model_bytes)
    cascade = _cascade(np.random.default_rng(42))  # the fixture's
    assert header["arrays"][-4:] == [
        ["cascade.coords", "<i8", [3, NUM_SPLITS, 4]],
        ["cascade.thresholds", "<f8", [3, NUM_SPLITS]],
        ["cascade.scores", "<f8", [3, NUM_PARTITIONS]],
        ["cascade.stage_thresholds", "<f8", [3]],
    ]
    arrays = (cascade.coords, cascade.thresholds, cascade.scores, cascade.stage_thresholds)
    tail = b"".join(a.tobytes() for a in arrays)
    assert body.endswith(tail)


@pytest.mark.parametrize("keep", [0, 3, 6, 11, 14, 200, 0.5, -9, -1])
def test_truncated_file_raises_model_format_error(tmp_path, model_bytes, keep):
    if isinstance(keep, float):
        keep = int(len(model_bytes) * keep)
    with pytest.raises(ModelFormatError):
        _load_bytes(tmp_path, model_bytes[:keep])


@pytest.mark.parametrize("extra", [b"\x00", b"trailing junk"])
def test_appended_bytes_raise_model_format_error(tmp_path, model_bytes, extra):
    _load_bytes(tmp_path, model_bytes)  # the untouched file loads
    with pytest.raises(ModelFormatError, match="after the last record"):
        _load_bytes(tmp_path, model_bytes + extra)


def test_round_trip_without_cascade(tmp_path):
    model = pipeline.build_detector(pipeline.TrainConfig(seed=5))
    path = tmp_path / "model.wcnn"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.cascade is None
    for a, b in zip(model.params(), loaded.params(), strict=True):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert (loaded.multitask, loaded.use_concat, loaded.supervised_transform) == (
        True, True, True
    )


def _split(data):
    (header_len,) = struct.unpack_from("<I", data, 8)
    return json.loads(data[12 : 12 + header_len]), data[12 + header_len :]


def _rebuild(header, body, magic=MAGIC, version=FORMAT_VERSION, header_bytes=None):
    if header_bytes is None:
        header_bytes = json.dumps(header).encode("utf-8")
    return magic + struct.pack("<II", version, len(header_bytes)) + header_bytes + body


def _edit_entry(name, field, edit):
    """Corruption that edits field 1 (dtype) or 2 (shape) of one array entry."""
    def corrupt(header, body):
        (entry,) = [e for e in header["arrays"] if e[0] == name]
        entry[field] = edit(entry[field])
        return _rebuild(header, body)
    return corrupt


def _edit_header(edit):
    """Corruption that edits the decoded header in place."""
    def corrupt(header, body):
        edit(header)
        return _rebuild(header, body)
    return corrupt


def _span(header, name):
    """Byte offset and byte length of one array in the body."""
    start = 0
    for entry, _, shape in header["arrays"]:
        size = 8 * math.prod(shape)
        if entry == name:
            return start, size
        start += size
    raise KeyError(name)


def _overwrite_first(name, value, fmt="<d"):
    """Corruption that overwrites the first element of one array, a float
    one unless fmt is "<q"."""
    def corrupt(header, body):
        start, _ = _span(header, name)
        return _rebuild(header, body[:start] + struct.pack(fmt, value) + body[start + 8 :])
    return corrupt


def _fill(name, value):
    """Corruption that sets every element of one float array to value."""
    def corrupt(header, body):
        start, size = _span(header, name)
        filled = struct.pack("<d", value) * (size // 8)
        return _rebuild(header, body[:start] + filled + body[start + size :])
    return corrupt


def _reshape(header, body, shapes):
    """The file with each named array given a new shape, its bytes cut or
    zero-padded to the new size."""
    for name, shape in shapes.items():
        start, size = _span(header, name)
        new_size = 8 * math.prod(shape)
        data = body[start : start + min(size, new_size)].ljust(new_size, b"\0")
        body = body[:start] + data + body[start + size :]
        (entry,) = [e for e in header["arrays"] if e[0] == name]
        entry[2] = list(shape)
    return _rebuild(header, body)


def _reshaped(shapes):
    """Corruption that gives the named arrays new shapes."""
    return lambda h, b: _reshape(h, b, shapes)


def _drop_last_array(header, body):
    _, _, shape = header["arrays"].pop()
    return _rebuild(header, body[: -8 * int(np.prod(shape))])


# Each corruption keeps the file as long as its header says, so the length
# check alone cannot reject it.
CORRUPTIONS = {
    "bad magic": lambda h, b: _rebuild(h, b, magic=b"WCNX"),
    "format version 1": lambda h, b: _rebuild(h, b, version=1),
    "format version 2": lambda h, b: _rebuild(h, b, version=2),
    # a format-3 file: the same arrays, and point_scale among the flags
    "format version 3": lambda h, b: _rebuild(
        {**h, "flags": {**h["flags"], "point_scale": 48.0}}, b, version=3
    ),
    "negative shape": _edit_entry("rcnn.fc.weight", 2, lambda s: [-n for n in s]),
    "non-integer shape": _edit_entry("verdict.bias", 2, lambda s: [float(n) for n in s]),
    "object dtype": _edit_entry("verdict.bias", 1, lambda d: "|O"),
    "big-endian dtype": _edit_entry("verdict.bias", 1, lambda d: ">f8"),
    "unknown flag": lambda h, b: _rebuild(
        {**h, "flags": {**h["flags"], "colour": True}}, b
    ),
    "missing flag": lambda h, b: _rebuild(
        {**h, "flags": {k: v for k, v in h["flags"].items() if k != "rect_size"}}, b
    ),
    "missing array": _drop_last_array,
    "array listed twice": lambda h, b: _rebuild(
        {**h, "arrays": h["arrays"] + [["verdict.bias", "<f8", [2]]]}, b + bytes(16)
    ),
    "unknown array": lambda h, b: _rebuild(
        {**h, "arrays": h["arrays"] + [["extra", "<f8", [1]]]}, b + bytes(8)
    ),
    "header not JSON": lambda h, b: _rebuild(h, b, header_bytes=b"{not json"),
    # files that parse but disagree with the detector
    "kernel 5 over 7x7 filters": _reshaped({"rpn.conv1.filters": [8, 1, 5, 5]}),
    "input channels disagree with filters": _reshaped({"rpn.conv2.filters": [12, 9, 7, 7]}),
    "string flag": _edit_header(lambda h: h["flags"].update(multitask="yes")),
    "rect_size 65": _edit_header(lambda h: h["flags"].update(rect_size=65)),
    # consistent arrays, but no room for the canonical layout inside its margin
    "rect_size 5 with its rcnn.fc width": lambda h, b: _reshape(
        {**h, "flags": {**h["flags"], "rect_size": 5}}, b, {"rcnn.fc.weight": [48, 16]}
    ),
    "zero-width rpn.conv1 and rpn.conv2": _reshaped(
        {"rpn.conv1.filters": [0, 1, 7, 7], "rpn.conv2.filters": [0, 0, 7, 7]}
    ),
    # widths whose skeleton would not fit in memory, or rect_size in a float
    "rect_size 100000": _edit_header(lambda h: h["flags"].update(rect_size=100_000)),
    "rect_size 10**400": _edit_header(lambda h: h["flags"].update(rect_size=10**400)),
    "empty filters 2**40 wide": _reshaped({"rpn.conv1.filters": [2**40, 0, 7, 7]}),
    "float coords": _edit_entry("cascade.coords", 1, lambda d: "<f8"),
    "stage thresholds (3, 2)": _reshaped({"cascade.stage_thresholds": [3, 2]}),
    # the model_bytes cascade has 3 ferns
    "cascade.scores one fern short": _reshaped({"cascade.scores": [2, NUM_PARTITIONS]}),
    "split coordinate 32": _overwrite_first("cascade.coords", 32, "<q"),
    "cascade.thresholds (3, 7)": _reshaped({"cascade.thresholds": [3, NUM_SPLITS - 1]}),
    "zero ferns": _reshaped({
        "cascade.coords": [0, NUM_SPLITS, 4], "cascade.thresholds": [0, NUM_SPLITS],
        "cascade.scores": [0, NUM_PARTITIONS], "cascade.stage_thresholds": [0],
    }),
    "NaN weight": _overwrite_first("rpn.conv2.filters", math.nan),
    "infinite canonical point": _overwrite_first("canonical.points", math.inf),
    # every similarity fit onto this layout would divide by zero
    "coincident canonical points": _fill("canonical.points", 31.5),
}


def test_header_carries_four_flags(model_bytes):
    header, _ = _split(model_bytes)
    assert sorted(header["flags"]) == [
        "multitask", "rect_size", "supervised_transform", "use_concat"
    ]


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_header_raises_model_format_error(tmp_path, model_bytes, corruption):
    header, body = _split(model_bytes)
    _load_bytes(tmp_path, _rebuild(header, body))  # the rebuilt file loads
    with pytest.raises(ModelFormatError):
        _load_bytes(tmp_path, CORRUPTIONS[corruption](header, body))


def test_zero_width_layer_is_rejected_at_build():
    with pytest.raises(ValueError, match="invalid conv spec"):
        make_detector(0, rpn_channels=(0, 0, 4))


def test_rect_size_without_room_for_the_canonical_layout_is_rejected_at_build():
    """CanonicalShape.clamp keeps points 2 px inside the crop, which a
    rect_size of 5 or less squeezes to at most one point; 6 leaves two."""
    for rect_size in (1, 5):
        with pytest.raises(ValueError, match="rect_size"):
            make_detector(0, rect_size=rect_size)
    assert make_detector(0, rect_size=6).rect_size == 6


@pytest.mark.parametrize("flag", ["multitask", "use_concat", "supervised_transform"])
@pytest.mark.parametrize("value", ["yes", None, 1, np.bool_(True)])
def test_a_switch_that_is_no_bool_is_rejected_at_build(flag, value):
    """build_detector(config, multitask="yes") used to build a detector
    that detected, and that save_model wrote to a file load_model rejects."""
    with pytest.raises(ValueError, match=f"^{flag} must be a bool"):
        pipeline.build_detector(pipeline.TrainConfig(), **{flag: value})


@pytest.mark.parametrize("rect_size", [64.0, True, "64", None])
def test_a_rect_size_that_is_no_int_is_rejected_at_build(rect_size):
    with pytest.raises(ValueError, match="^rect_size must be an int >= 6"):
        make_detector(0, rect_size=rect_size)


def test_skeleton_costs_no_memory_of_its_widths(tmp_path, model_bytes):
    """A rect_size of 1200 asks for a 138 MB rcnn.fc; the loader must reject
    the file without allocating it."""
    header, body = _split(model_bytes)
    header["flags"]["rect_size"] = 1200
    data = _rebuild(header, body)
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match="disagree"):
            _load_bytes(tmp_path, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(data)


LEAF_VALUES = [None, True, 0, -1, 1.5, "x", [], {}, [0], 2**63]


def _leaf_paths(node, path=()):
    """Key paths of every non-container value in a decoded JSON header."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in _leaf_paths(child, path + (key,))]


@pytest.fixture(scope="module")
def probe_path(tmp_path_factory):
    return tmp_path_factory.mktemp("probe") / "probe.wcnn"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_edited_file_loads_or_raises_model_format_error(model_bytes, probe_path, data):
    """One header leaf replaced, or one array reshaped with its bytes
    resized: the loader returns a model or raises ModelFormatError."""
    header, body = _split(model_bytes)
    if data.draw(st.booleans(), label="edit a leaf"):
        *parents, key = data.draw(st.sampled_from(_leaf_paths(header)), label="leaf")
        node = header
        for parent in parents:
            node = node[parent]
        node[key] = data.draw(st.sampled_from(LEAF_VALUES), label="value")
        edited = _rebuild(header, body)
    else:
        name, _, shape = data.draw(st.sampled_from(header["arrays"]), label="array")
        resized = st.builds(
            lambda i, n: shape[:i] + [n] + shape[i + 1 :],
            st.integers(0, max(0, len(shape) - 1)), st.integers(0, 2 * max(shape, default=1)),
        )
        arbitrary = st.lists(st.integers(0, 12), max_size=4)
        new_shape = data.draw(st.one_of(resized, arbitrary), label="shape")
        edited = _reshape(header, body, {name: new_shape})
    probe_path.write_bytes(edited)
    try:
        load_model(probe_path)
    except ModelFormatError:
        pass
