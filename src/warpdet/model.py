"""Detector model structures, their one constructor, and versioned
serialization.

create_detector builds the detector from its layer widths and flags;
pipeline.build_detector and load_model both call it.

A model file (format 4) is one container of named arrays:

- the magic b"WCNN", then two little-endian u32 fields: the format version
  and the byte length of the header;
- a UTF-8 JSON header {"flags": {...}, "arrays": [[name, dtype, shape], ...]};
- the raw little-endian bytes of each array, in header order.

Every array name is an attribute path ("rpn.score_head.filters",
"canonical.points", "cascade.coords", "cascade.stage_thresholds"). Every
array is "<f8" except the "<i8" cascade.coords, and none is read through
pickle. Round trips are bit-exact. The loader takes the layer widths from the
leading extents of the conv filters and rcnn.fc.weight, builds a skeleton
from them, the flags and the file's cascade arrays, and requires the file's
array names and shapes to equal the skeleton's. It raises ModelFormatError on
a corrupt header, a file cut short or running on past its last array, an
array listed twice, a non-finite array, flags create_detector or cascade
arrays CascadeModel rejects, arrays unlike the skeleton's, or canonical
points that coincide, onto which no candidate could be aligned.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .align import CANONICAL_MARGIN, CanonicalShape, estimate_similarity
from .ferns import CascadeModel, check_int
from .nn import ConvSpec, uniform_init
from .synthetic import GLYPH_LANDMARKS

MAGIC = b"WCNN"
FORMAT_VERSION = 4

# Kernel, stride and padding of each conv role; only the channel counts vary.
# The model file stores no geometry, so every loaded model has this one: the
# proposal net's stride 8 and receptive field 85 rest on it.
CONV_GEOMETRY = {
    "rpn.conv1": (7, 2, 3),
    "rpn.conv2": (7, 1, 3),
    "rpn.conv3": (7, 1, 3),
    "rpn.score_head": (1, 1, 0),
    "rpn.point_head": (1, 1, 0),
    "rcnn.conv1": (5, 2, 2),
    "rcnn.conv2": (3, 1, 1),
}
_FC_ROLES = ("rcnn.fc", "verdict")
_BOOL_FLAGS = ("multitask", "use_concat", "supervised_transform")
_FLAGS = _BOOL_FLAGS + ("rect_size",)
_CASCADE_ARRAYS = ("coords", "thresholds", "scores", "stage_thresholds")


class ModelFormatError(ValueError):
    pass


@dataclass
class ConvLayer:
    spec: ConvSpec
    filters: np.ndarray
    bias: np.ndarray

    def params(self):
        return [self.filters, self.bias]


@dataclass
class FcLayer:
    weight: np.ndarray
    bias: np.ndarray

    def params(self):
        return [self.weight, self.bias]


@dataclass
class RpnNet:
    """Proposal trunk: three 7x7 convolutions with two poolings (stride 8,
    receptive field 85), a face/non-face scoring head and a per-cell
    regression head (landmarks, or a box when multitask is off)."""

    conv1: ConvLayer
    conv2: ConvLayer
    conv3: ConvLayer
    score_head: ConvLayer
    point_head: ConvLayer

    def trunk(self):
        """The (conv, pooled) blocks of the trunk in order: conv -> relu,
        then a 2x2 max-pool where pooled is set."""
        return [(self.conv1, True), (self.conv2, True), (self.conv3, False)]

    def params(self):
        layers = [layer for layer, _ in self.trunk()] + [self.score_head, self.point_head]
        return [p for layer in layers for p in layer.params()]


@dataclass
class RcnnNet:
    """Verification net over 64x64 rectified crops: two convolutions with
    poolings, then a fully connected feature layer."""

    conv1: ConvLayer
    conv2: ConvLayer
    fc: FcLayer

    def trunk(self):
        """The (conv, pooled) blocks of the trunk in order, as RpnNet.trunk."""
        return [(self.conv1, True), (self.conv2, True)]

    def params(self):
        return [p for layer, _ in self.trunk() for p in layer.params()] + self.fc.params()


@dataclass
class DetectorModel:
    rpn: RpnNet
    rcnn: RcnnNet
    verdict: FcLayer
    canonical: CanonicalShape
    multitask: bool
    use_concat: bool
    rect_size: int
    # whether joint training sends the verdict loss through the warp into the
    # landmarks and trains the canonical shape
    supervised_transform: bool
    cascade: CascadeModel | None = None

    def params(self):
        ps = self.rpn.params() + self.rcnn.params() + self.verdict.params()
        if self.supervised_transform:
            ps.append(self.canonical.points)
        return ps


def verification_width(rect_size: int, trunk) -> int:
    """Length of the flattened map a verification trunk (RcnnNet.trunk)
    computes on a rect_size crop, which is rcnn.fc's input width; a 2x2
    pooling rounds odd extents up."""
    side = rect_size
    for layer, pooled in trunk:
        side = layer.spec.out_size(side, side)[0]
        if pooled:
            side = -(-side // 2)
    return trunk[-1][0].spec.out_channels * side * side


def create_detector(rng, rpn_channels, rcnn_channels, rcnn_feature: int, *,
                    multitask: bool, use_concat: bool, supervised_transform: bool,
                    rect_size: int) -> DetectorModel:
    """The detector with the given layer widths and flags. Weights draw from
    rng in the order rpn conv1-3, score head, point head, rcnn conv1-2, fc,
    verdict; biases start at zero and the canonical shape at the glyph's
    landmark layout, scaled to the rect_size crop."""
    for key, flag in zip(_BOOL_FLAGS, (multitask, use_concat, supervised_transform)):
        if type(flag) is not bool:
            raise ValueError(f"{key} must be a bool, got {flag!r}")
    # CanonicalShape.clamp needs 2 px of room for the layout
    check_int("rect_size", rect_size, 2 * CANONICAL_MARGIN + 2)
    f1, f2, f3 = rpn_channels
    r1, r2 = rcnn_channels

    def conv(role, in_channels, out_channels):
        spec = ConvSpec(in_channels, out_channels, *CONV_GEOMETRY[role])
        k = spec.kernel
        filters = uniform_init(rng, (out_channels, in_channels, k, k),
                               in_channels * k * k, out_channels * k * k)
        return ConvLayer(spec, filters, np.zeros(out_channels))

    def fc(n_in, n_out):
        return FcLayer(uniform_init(rng, (n_out, n_in), n_in, n_out), np.zeros(n_out))

    rpn = RpnNet(
        conv1=conv("rpn.conv1", 1, f1),
        conv2=conv("rpn.conv2", f1, f2),
        conv3=conv("rpn.conv3", f2, f3),
        score_head=conv("rpn.score_head", f3, 2),
        point_head=conv("rpn.point_head", f3, 10 if multitask else 3),
    )
    rcnn = RcnnNet(conv1=conv("rcnn.conv1", 1, r1), conv2=conv("rcnn.conv2", r1, r2),
                   fc=None)
    rcnn.fc = fc(verification_width(rect_size, rcnn.trunk()), rcnn_feature)
    verdict = fc(rcnn_feature + (f3 if use_concat else 0), 2)
    center = (rect_size - 1) / 2.0
    return DetectorModel(
        rpn=rpn,
        rcnn=rcnn,
        verdict=verdict,
        canonical=CanonicalShape(center + 0.68 * rect_size * GLYPH_LANDMARKS),
        multitask=multitask,
        use_concat=use_concat,
        rect_size=rect_size,
        supervised_transform=supervised_transform,
    )


def _named_arrays(model: DetectorModel) -> dict[str, np.ndarray]:
    """Every array the model file stores, keyed by its attribute path."""
    arrays = {}
    for role in CONV_GEOMETRY:
        layer = attrgetter(role)(model)
        arrays[role + ".filters"] = layer.filters
        arrays[role + ".bias"] = layer.bias
    for role in _FC_ROLES:
        layer = attrgetter(role)(model)
        arrays[role + ".weight"] = layer.weight
        arrays[role + ".bias"] = layer.bias
    arrays["canonical.points"] = model.canonical.points
    if model.cascade is not None:
        for attr in _CASCADE_ARRAYS:
            arrays["cascade." + attr] = getattr(model.cascade, attr)
    return arrays


def save_model(model: DetectorModel, path) -> None:
    arrays = {
        name: np.asarray(a, dtype="<i8" if a.dtype.kind == "i" else "<f8")
        for name, a in _named_arrays(model).items()
    }
    header = {
        "flags": {key: getattr(model, key) for key in _FLAGS},
        "arrays": [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()],
    }
    header_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for a in arrays.values():
            fh.write(a.tobytes())


def load_model(path) -> DetectorModel:
    """Read a model file; any truncation, trailing bytes, malformed header or
    model that detect could not run raises ModelFormatError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _parse_model(buf)
    except ModelFormatError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError, MemoryError,
            struct.error) as exc:
        raise ModelFormatError(f"corrupt model file: {exc!r}") from exc


class _ShapeOnly:
    """Stands in for the rng when the loader builds its skeleton, whose
    weights are only compared by shape and then replaced. Each weight is a
    zero-stride view, so a crafted file's widths cost memory only for the
    zero biases; load_model reports a MemoryError there as a corrupt file."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def _parse_model(buf: bytes) -> DetectorModel:
    if buf[:4] != MAGIC:
        raise ModelFormatError(f"bad magic {buf[:4]!r}")
    version, header_len = struct.unpack_from("<II", buf, 4)
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    header = json.loads(buf[12 : 12 + header_len])

    entries = header["arrays"]
    starts = []
    end = 12 + header_len
    for name, dtype, shape in entries:
        want = "<i8" if name == "cascade.coords" else "<f8"
        if dtype != want or not all(type(n) is int and n >= 0 for n in shape):
            raise ModelFormatError(f"bad array entry {name!r}: {dtype!r} {shape!r}")
        starts.append(end)
        end += 8 * math.prod(shape)
    if end != len(buf):
        raise ModelFormatError(
            f"file is {len(buf)} bytes, its header ends at byte {end}: "
            "truncated, or bytes after the last record"
        )
    arrays = {}
    for (name, dtype, shape), start in zip(entries, starts):
        if name in arrays:
            raise ModelFormatError(f"array {name!r} is listed twice")
        a = np.frombuffer(buf, dtype, math.prod(shape), start).reshape(shape).copy()
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            raise ModelFormatError(f"array {name!r} has non-finite values")
        arrays[name] = a

    flags = header["flags"]
    if sorted(flags) != sorted(_FLAGS):
        raise ModelFormatError(f"model flags {sorted(flags)}, expected {sorted(_FLAGS)}")
    model = create_detector(
        _ShapeOnly(),
        [len(arrays[f"rpn.conv{i}.filters"]) for i in (1, 2, 3)],
        [len(arrays[f"rcnn.conv{i}.filters"]) for i in (1, 2)],
        len(arrays["rcnn.fc.weight"]),
        **flags,
    )
    if "cascade.coords" in arrays:
        model.cascade = CascadeModel(*(arrays["cascade." + attr] for attr in _CASCADE_ARRAYS))
    expected = {name: a.shape for name, a in _named_arrays(model).items()}
    found = {name: a.shape for name, a in arrays.items()}
    if found != expected:
        differ = sorted(set(found.items()) ^ set(expected.items()), key=str)
        raise ModelFormatError(
            f"arrays disagree with the detector their widths and flags build: {differ}"
        )
    for name, a in arrays.items():
        owner, attr = name.rsplit(".", 1)
        setattr(attrgetter(owner)(model), attr, a)
    # a coincident layout raises SingularTransformError, a ValueError
    estimate_similarity(model.canonical.points, model.canonical.points)
    return model

