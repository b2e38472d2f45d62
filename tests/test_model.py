"""Binary model format: bit-exact round trips and loud failures."""

import json
import math
import struct

import numpy as np
import pytest

from warpdet import pipeline
from warpdet.ferns import NUM_PARTITIONS, NUM_SPLITS, CascadeModel, Fern
from warpdet.model import FORMAT_VERSION, MAGIC, ModelFormatError, load_model, save_model


def _cascade(rng, n_ferns=3):
    ferns = [
        Fern(
            rng.integers(0, 32, size=(NUM_SPLITS, 4)),
            rng.standard_normal(NUM_SPLITS),
            rng.standard_normal(NUM_PARTITIONS),
        )
        for _ in range(n_ferns)
    ]
    return CascadeModel(ferns, rng.standard_normal(n_ferns))


@pytest.fixture
def model_bytes(tmp_path, rng):
    model = pipeline.build_detector(pipeline.TrainConfig(seed=3))
    model.cascade = _cascade(rng)
    path = tmp_path / "model.wcnn"
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
    assert loaded.canonical.trainable == model.canonical.trainable
    assert loaded.supervised_transform is supervised_transform
    assert (loaded.multitask, loaded.use_concat) == (False, False)
    assert (loaded.rect_size, loaded.point_scale) == (model.rect_size, model.point_scale)
    assert loaded.cascade.patch_size == model.cascade.patch_size
    assert np.array_equal(loaded.cascade.stage_thresholds, model.cascade.stage_thresholds)
    for a, b in zip(model.cascade.ferns, loaded.cascade.ferns, strict=True):
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.thresholds, b.thresholds)
        assert np.array_equal(a.scores, b.scores)


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


def _overwrite_first(name, value):
    """Corruption that overwrites the first element of one float array."""
    def corrupt(header, body):
        start = 0
        for entry, _, shape in header["arrays"]:
            if entry == name:
                break
            start += 8 * math.prod(shape)
        return _rebuild(header, body[:start] + struct.pack("<d", value) + body[start + 8 :])
    return corrupt


def _drop_last_array(header, body):
    _, _, shape = header["arrays"].pop()
    return _rebuild(header, body[: -8 * int(np.prod(shape))])


# Each corruption keeps the file as long as its header says, so the length
# check alone cannot reject it.
CORRUPTIONS = {
    "bad magic": lambda h, b: _rebuild(h, b, magic=b"WCNX"),
    "format version 1": lambda h, b: _rebuild(h, b, version=1),
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
    "unknown array": lambda h, b: _rebuild(
        {**h, "arrays": h["arrays"] + [["extra", "<f8", [1]]]}, b + bytes(8)
    ),
    "header not JSON": lambda h, b: _rebuild(h, b, header_bytes=b"{not json"),
    # headers that parse but disagree with the arrays or with the detector
    "kernel 5 over 7x7 filters": _edit_header(lambda h: h["conv"]["rpn.conv1"].update(kernel=5)),
    "float kernel": _edit_header(lambda h: h["conv"]["rpn.conv1"].update(kernel=7.0)),
    "stride 2 in rpn.conv2": _edit_header(lambda h: h["conv"]["rpn.conv2"].update(stride=2)),
    "input channels disagree with filters": _edit_header(
        lambda h: h["conv"]["rpn.conv2"].update(in_channels=9)
    ),
    "float patch size": _edit_header(lambda h: h.update({"cascade.patch_size": 32.0})),
    "patch size 16": _edit_header(lambda h: h.update({"cascade.patch_size": 16})),
    "string flag": _edit_header(lambda h: h["flags"].update(multitask="yes")),
    "integer trainable": _edit_header(lambda h: h.update({"canonical.trainable": 1})),
    "rect_size 65": _edit_header(lambda h: h["flags"].update(rect_size=65)),
    "float coords": _edit_entry("cascade.coords", 1, lambda d: "<f8"),
    "NaN weight": _overwrite_first("rpn.conv2.filters", math.nan),
    "infinite canonical point": _overwrite_first("canonical.points", math.inf),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_header_raises_model_format_error(tmp_path, model_bytes, corruption):
    (header_len,) = struct.unpack_from("<I", model_bytes, 8)
    header = json.loads(model_bytes[12 : 12 + header_len])
    body = model_bytes[12 + header_len :]
    _load_bytes(tmp_path, _rebuild(header, body))  # the rebuilt file loads
    with pytest.raises(ModelFormatError):
        _load_bytes(tmp_path, CORRUPTIONS[corruption](header, body))
