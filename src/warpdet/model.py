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
("cascade.coords" (F, 8, 4) int64, "cascade.scores" (F, 256), ...). Only
"<f8" and "<i8" arrays are read, never through pickle. Round trips are
bit-exact; a corrupt header, a file cut short or running on past its last
array raise ModelFormatError.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from operator import attrgetter

import numpy as np

from .align import CanonicalShape
from .ferns import CascadeModel, Fern
from .nn import ConvSpec, uniform_init

MAGIC = b"WCNN"
FORMAT_VERSION = 2

_CONV_ROLES = ("rpn.conv1", "rpn.conv2", "rpn.conv3", "rpn.score_head",
               "rpn.point_head", "rcnn.conv1", "rcnn.conv2")
_FC_ROLES = ("rcnn.fc", "verdict")
_FLAGS = ("multitask", "use_concat", "rect_size", "point_scale", "supervised_transform")
_DTYPES = ("<f8", "<i8")


class ModelFormatError(ValueError):
    pass


@dataclass
class ConvLayer:
    spec: ConvSpec
    filters: np.ndarray
    bias: np.ndarray | None = None

    @classmethod
    def create(cls, rng, spec: ConvSpec, bias: bool = True) -> "ConvLayer":
        k = spec.kernel
        fan_in = spec.in_channels * k * k
        fan_out = spec.out_channels * k * k
        filters = uniform_init(
            rng, (spec.out_channels, spec.in_channels, k, k), fan_in, fan_out
        )
        return cls(spec, filters, np.zeros(spec.out_channels) if bias else None)

    def params(self):
        return [self.filters] + ([self.bias] if self.bias is not None else [])


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

    def layers(self):
        return [self.conv1, self.conv2, self.conv3, self.score_head, self.point_head]

    def params(self):
        return [p for layer in self.layers() for p in layer.params()]


@dataclass
class RcnnNet:
    """Verification net over 64x64 rectified crops: two convolutions with
    poolings, then a fully connected feature layer."""

    conv1: ConvLayer
    conv2: ConvLayer
    fc: FcLayer

    def params(self):
        return self.conv1.params() + self.conv2.params() + self.fc.params()


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

    def save(self, path) -> None:
        save_model(self, path)

    @classmethod
    def load(cls, path) -> "DetectorModel":
        return load_model(path)


def _named_arrays(model: DetectorModel) -> dict[str, np.ndarray]:
    """Every array the model file stores, keyed by its attribute path."""
    arrays = {}
    for role in _CONV_ROLES:
        layer = attrgetter(role)(model)
        arrays[role + ".filters"] = layer.filters
        if layer.bias is not None:
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
        "conv": {role: asdict(attrgetter(role)(model).spec) for role in _CONV_ROLES},
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
    """Read a model file; any truncation, trailing bytes or malformed header
    raises ModelFormatError."""
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
        if dtype not in _DTYPES or not all(type(n) is int and n >= 0 for n in shape):
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

    flags = header["flags"]
    if sorted(flags) != sorted(_FLAGS):
        raise ModelFormatError(f"model flags {sorted(flags)}, expected {sorted(_FLAGS)}")

    def conv(role):
        spec = ConvSpec(**header["conv"][role])
        return ConvLayer(spec, arrays.pop(role + ".filters"), arrays.pop(role + ".bias", None))

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
    return model
