"""Detector model structures and versioned serialization.

A model file is one container of named arrays:

- the magic b"WCNN", then two little-endian u32 fields: the format version
  and the byte length of the header;
- a UTF-8 JSON header holding the conv geometry keyed by role, the model
  flags, whether the canonical shape is trainable, the cascade patch size
  (null without a cascade), and a [name, dtype, shape] entry per array;
- the raw little-endian bytes of each array, in header order.

Array names are attribute paths ("rpn.score_head.filters", "rcnn.fc.weight",
"canonical.points"); the fern cascade is stored as stacked arrays
("cascade.coords" (F, 8, 4) int64, "cascade.scores" (F, 256), ...). Every
array is "<f8" except the "<i8" cascade.coords, and none is read through
pickle. Round trips are bit-exact. The loader raises ModelFormatError on a
corrupt header, a file cut short or running on past its last array, a
non-finite array, and a header or array that disagrees with the detector
build_detector creates: its conv geometry, the layer widths that chain one
layer into the next, the flag types and the fern patch size.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from operator import attrgetter

import numpy as np

from .align import CanonicalShape
from .ferns import PATCH_SIZE, CascadeModel, Fern
from .nn import ConvSpec, uniform_init

MAGIC = b"WCNN"
FORMAT_VERSION = 2

# Kernel, stride and padding of each conv role; TrainConfig sets only the
# channel counts. build_detector creates this geometry and the loader accepts
# no other: the proposal net's stride 8 and receptive field 85 rest on it.
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
_FLAGS = _BOOL_FLAGS + ("rect_size", "point_scale")


class ModelFormatError(ValueError):
    pass


@dataclass
class ConvLayer:
    spec: ConvSpec
    filters: np.ndarray
    bias: np.ndarray

    @classmethod
    def create(cls, rng, spec: ConvSpec) -> "ConvLayer":
        k = spec.kernel
        fan_in = spec.in_channels * k * k
        fan_out = spec.out_channels * k * k
        filters = uniform_init(
            rng, (spec.out_channels, spec.in_channels, k, k), fan_in, fan_out
        )
        return cls(spec, filters, np.zeros(spec.out_channels))

    def params(self):
        return [self.filters, self.bias]


@dataclass
class FcLayer:
    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def create(cls, rng, n_in: int, n_out: int) -> "FcLayer":
        return cls(uniform_init(rng, (n_out, n_in), n_in, n_out), np.zeros(n_out))

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
    cascade: CascadeModel | None = None
    multitask: bool = True
    use_concat: bool = True
    rect_size: int = 64
    point_scale: float = 48.0
    # whether joint training sends the verdict loss through the warp into the
    # landmarks and the canonical shape
    supervised_transform: bool = True

    def params(self):
        ps = self.rpn.params() + self.rcnn.params() + self.verdict.params()
        if self.canonical.trainable:
            ps.append(self.canonical.points)
        return ps


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
        for attr in ("coords", "thresholds", "scores"):
            arrays["cascade." + attr] = np.array(
                [getattr(fern, attr) for fern in model.cascade.ferns]
            )
        arrays["cascade.stage_thresholds"] = model.cascade.stage_thresholds
    return arrays


def save_model(model: DetectorModel, path) -> None:
    arrays = {
        name: np.asarray(a, dtype="<i8" if a.dtype.kind == "i" else "<f8")
        for name, a in _named_arrays(model).items()
    }
    header = {
        "conv": {role: asdict(attrgetter(role)(model).spec) for role in CONV_GEOMETRY},
        "flags": {key: getattr(model, key) for key in _FLAGS},
        "canonical.trainable": model.canonical.trainable,
        "cascade.patch_size": None if model.cascade is None else model.cascade.patch_size,
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
    except (ValueError, KeyError, TypeError, struct.error) as exc:
        raise ModelFormatError(f"corrupt model file: {exc!r}") from exc


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
    arrays = {
        name: np.frombuffer(buf, dtype, math.prod(shape), start).reshape(shape).copy()
        for (name, dtype, shape), start in zip(entries, starts)
    }
    for name, a in arrays.items():
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            raise ModelFormatError(f"array {name!r} has non-finite values")

    flags = header["flags"]
    _check_flags(flags, header["canonical.trainable"], header["cascade.patch_size"])

    def conv(role):
        spec = ConvSpec(**header["conv"][role])
        if not all(type(v) is int for v in asdict(spec).values()):
            raise ModelFormatError(f"{role} geometry {spec} is not all integers")
        return ConvLayer(spec, arrays.pop(role + ".filters"), arrays.pop(role + ".bias"))

    def fc(role):
        return FcLayer(arrays.pop(role + ".weight"), arrays.pop(role + ".bias"))

    cascade = None
    if header["cascade.patch_size"] is not None:
        parts = zip(
            arrays.pop("cascade.coords"),
            arrays.pop("cascade.thresholds"),
            arrays.pop("cascade.scores"),
            strict=True,
        )
        cascade = CascadeModel(
            [Fern(*p) for p in parts],
            arrays.pop("cascade.stage_thresholds"),
            header["cascade.patch_size"],
        )
    model = DetectorModel(
        rpn=RpnNet(conv("rpn.conv1"), conv("rpn.conv2"), conv("rpn.conv3"),
                   conv("rpn.score_head"), conv("rpn.point_head")),
        rcnn=RcnnNet(conv("rcnn.conv1"), conv("rcnn.conv2"), fc("rcnn.fc")),
        verdict=fc("verdict"),
        canonical=CanonicalShape(
            arrays.pop("canonical.points"), header["canonical.trainable"]
        ),
        cascade=cascade,
        **flags,
    )
    if arrays:
        raise ModelFormatError(f"unknown arrays {sorted(arrays)}")
    _check_layers(model)
    return model


def _check_flags(flags, trainable, patch_size) -> None:
    if sorted(flags) != sorted(_FLAGS):
        raise ModelFormatError(f"model flags {sorted(flags)}, expected {sorted(_FLAGS)}")
    bools = {key: flags[key] for key in _BOOL_FLAGS}
    bools["canonical.trainable"] = trainable
    for key, value in bools.items():
        if type(value) is not bool:
            raise ModelFormatError(f"{key} must be true or false, got {value!r}")
    rect_size, point_scale = flags["rect_size"], flags["point_scale"]
    if type(rect_size) is not int or rect_size < 1:
        raise ModelFormatError(f"rect_size must be a positive integer, got {rect_size!r}")
    if type(point_scale) not in (int, float) or not 0 < point_scale < math.inf:
        raise ModelFormatError(f"point_scale must be positive and finite, got {point_scale!r}")
    if patch_size is not None and (type(patch_size) is not int or patch_size != PATCH_SIZE):
        raise ModelFormatError(f"cascade.patch_size {patch_size!r}, expected {PATCH_SIZE}")


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


def _check_layers(model: DetectorModel) -> None:
    """Reject conv geometry other than CONV_GEOMETRY, arrays whose shapes
    disagree with their layer, and layer widths that do not chain."""
    for role, geometry in CONV_GEOMETRY.items():
        layer = attrgetter(role)(model)
        spec = layer.spec
        if (spec.kernel, spec.stride, spec.padding) != geometry:
            raise ModelFormatError(
                f"{role} has kernel, stride, padding {spec.kernel}, {spec.stride}, "
                f"{spec.padding}; the detector uses {geometry}"
            )
        want = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
        if layer.filters.shape != want or layer.bias.shape != (spec.out_channels,):
            raise ModelFormatError(
                f"{role} filters {layer.filters.shape} and bias {layer.bias.shape} "
                f"disagree with its spec {spec}"
            )
    for role in _FC_ROLES:
        layer = attrgetter(role)(model)
        if layer.weight.ndim != 2 or layer.bias.shape != layer.weight.shape[:1]:
            raise ModelFormatError(
                f"{role} weight {layer.weight.shape} and bias {layer.bias.shape} disagree"
            )
    rpn, rcnn = model.rpn, model.rcnn
    feat = rpn.conv3.spec.out_channels
    widths = {  # what: (found, expected)
        "rpn.conv1 input channels": (rpn.conv1.spec.in_channels, 1),
        "rpn.conv2 input channels": (rpn.conv2.spec.in_channels, rpn.conv1.spec.out_channels),
        "rpn.conv3 input channels": (rpn.conv3.spec.in_channels, rpn.conv2.spec.out_channels),
        "rpn.score_head input channels": (rpn.score_head.spec.in_channels, feat),
        "rpn.point_head input channels": (rpn.point_head.spec.in_channels, feat),
        "rpn.score_head outputs": (rpn.score_head.spec.out_channels, 2),
        "rpn.point_head outputs": (rpn.point_head.spec.out_channels,
                                   10 if model.multitask else 3),
        "rcnn.conv1 input channels": (rcnn.conv1.spec.in_channels, 1),
        "rcnn.conv2 input channels": (rcnn.conv2.spec.in_channels, rcnn.conv1.spec.out_channels),
        "rcnn.fc input width": (rcnn.fc.weight.shape[1],
                                verification_width(model.rect_size, rcnn.trunk())),
        "verdict input width": (model.verdict.weight.shape[1],
                                rcnn.fc.weight.shape[0] + (feat if model.use_concat else 0)),
        "verdict outputs": (model.verdict.weight.shape[0], 2),
        "canonical points": (model.canonical.points.shape, (5, 2)),
    }
    for what, (found, expected) in widths.items():
        if found != expected:
            raise ModelFormatError(f"{what}: {found}, expected {expected}")
