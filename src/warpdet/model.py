"""Detector model structures and versioned binary serialization.

The model file is little-endian throughout: a "WCNN" magic and a u32 format
version, then typed records (layer kind byte, role tag, spec integers, raw
float64 parameter arrays). The fern cascade is embedded as one record holding
a "WFRN" block: fern count, patch size, then per fern eight splits of four
int16 coordinates plus a float64 threshold, 256 float64 partition scores, and
the float64 stage threshold. Round-trips are bit-exact; a file cut short or
running on past its last record is rejected with ModelFormatError.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .align import CanonicalShape
from .ferns import NUM_PARTITIONS, NUM_SPLITS, CascadeModel, Fern
from .nn import ConvSpec, uniform_init

MAGIC = b"WCNN"
CASCADE_MAGIC = b"WFRN"
FORMAT_VERSION = 1

_KIND_CONV = 1
_KIND_FC = 2
_KIND_CANONICAL = 3
_KIND_CASCADE = 4
_KIND_META = 5


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


def _pack_array(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype="<f8")
    header = struct.pack("<B", arr.ndim) + struct.pack(
        f"<{arr.ndim}I", *arr.shape
    )
    return header + arr.tobytes()


def _unpack_array(buf: memoryview, offset: int):
    (ndim,) = struct.unpack_from("<B", buf, offset)
    offset += 1
    shape = struct.unpack_from(f"<{ndim}I", buf, offset)
    offset += 4 * ndim
    count = int(np.prod(shape)) if ndim else 1
    arr = np.frombuffer(buf, dtype="<f8", count=count, offset=offset).reshape(shape)
    return arr.astype(np.float64), offset + 8 * count


def cascade_to_bytes(model: CascadeModel) -> bytes:
    out = [CASCADE_MAGIC, struct.pack("<II", len(model.ferns), model.patch_size)]
    for fern, threshold in zip(model.ferns, model.stage_thresholds):
        for i in range(NUM_SPLITS):
            out.append(struct.pack("<4h", *(int(v) for v in fern.coords[i])))
            out.append(struct.pack("<d", fern.thresholds[i]))
        out.append(np.asarray(fern.scores, dtype="<f8").tobytes())
        out.append(struct.pack("<d", threshold))
    return b"".join(out)


def cascade_from_bytes(buf: bytes) -> CascadeModel:
    view = memoryview(buf)
    if bytes(view[:4]) != CASCADE_MAGIC:
        raise ModelFormatError("bad cascade magic")
    n_ferns, patch_size = struct.unpack_from("<II", view, 4)
    offset = 12
    ferns = []
    stage_thresholds = np.empty(n_ferns)
    for f in range(n_ferns):
        coords = np.empty((NUM_SPLITS, 4), dtype=np.int64)
        thresholds = np.empty(NUM_SPLITS)
        for i in range(NUM_SPLITS):
            coords[i] = struct.unpack_from("<4h", view, offset)
            offset += 8
            (thresholds[i],) = struct.unpack_from("<d", view, offset)
            offset += 8
        scores = np.frombuffer(
            view, dtype="<f8", count=NUM_PARTITIONS, offset=offset
        ).astype(np.float64)
        offset += 8 * NUM_PARTITIONS
        (stage_thresholds[f],) = struct.unpack_from("<d", view, offset)
        offset += 8
        ferns.append(Fern(coords, thresholds, scores))
    return CascadeModel(ferns, stage_thresholds, patch_size)


def _record(kind: int, role: str, payload: bytes) -> bytes:
    role_b = role.encode("ascii")
    return struct.pack("<BH", kind, len(role_b)) + role_b + payload


def _conv_payload(layer: ConvLayer) -> bytes:
    s = layer.spec
    head = struct.pack(
        "<5IB",
        s.in_channels,
        s.out_channels,
        s.kernel,
        s.stride,
        s.padding,
        1 if layer.bias is not None else 0,
    )
    body = _pack_array(layer.filters)
    if layer.bias is not None:
        body += _pack_array(layer.bias)
    return head + body


def save_model(model: DetectorModel, path) -> None:
    records = []
    rpn_roles = ["rpn.conv1", "rpn.conv2", "rpn.conv3", "rpn.score", "rpn.point"]
    for role, layer in zip(rpn_roles, model.rpn.layers()):
        records.append(_record(_KIND_CONV, role, _conv_payload(layer)))
    records.append(_record(_KIND_CONV, "rcnn.conv1", _conv_payload(model.rcnn.conv1)))
    records.append(_record(_KIND_CONV, "rcnn.conv2", _conv_payload(model.rcnn.conv2)))
    records.append(
        _record(
            _KIND_FC,
            "rcnn.fc",
            _pack_array(model.rcnn.fc.weight) + _pack_array(model.rcnn.fc.bias),
        )
    )
    records.append(
        _record(
            _KIND_FC,
            "verdict",
            _pack_array(model.verdict.weight) + _pack_array(model.verdict.bias),
        )
    )
    records.append(
        _record(
            _KIND_CANONICAL,
            "canonical",
            struct.pack("<B", 1 if model.canonical.trainable else 0)
            + _pack_array(model.canonical.points),
        )
    )
    meta = {
        "multitask": float(model.multitask),
        "use_concat": float(model.use_concat),
        "rect_size": float(model.rect_size),
        "point_scale": float(model.point_scale),
        "supervised_transform": float(model.supervised_transform),
    }
    meta_payload = struct.pack("<H", len(meta))
    for key, value in meta.items():
        kb = key.encode("ascii")
        meta_payload += struct.pack("<H", len(kb)) + kb + struct.pack("<d", value)
    records.append(_record(_KIND_META, "meta", meta_payload))
    if model.cascade is not None:
        blob = cascade_to_bytes(model.cascade)
        records.append(
            _record(_KIND_CASCADE, "cascade", struct.pack("<Q", len(blob)) + blob)
        )

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(records)))
        for rec in records:
            fh.write(rec)


def _parse_conv(view, offset):
    in_c, out_c, k, stride, pad, has_bias = struct.unpack_from("<5IB", view, offset)
    offset += 21
    filters, offset = _unpack_array(view, offset)
    bias = None
    if has_bias:
        bias, offset = _unpack_array(view, offset)
    return ConvLayer(ConvSpec(in_c, out_c, k, stride, pad), filters, bias), offset


def load_model(path) -> DetectorModel:
    """Read a model file; any truncation, trailing bytes or malformed record
    raises ModelFormatError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        model, end = _parse_model(memoryview(buf))
    except ModelFormatError:
        raise
    except (struct.error, ValueError) as exc:
        raise ModelFormatError(f"truncated or corrupt model file: {exc}") from exc
    if end != len(buf):
        raise ModelFormatError(f"{len(buf) - end} unexpected bytes after the last record")
    return model


def _parse_model(view: memoryview):
    """(model, offset just past the last record) from a model file's bytes."""
    if bytes(view[:4]) != MAGIC:
        raise ModelFormatError(f"bad magic {bytes(view[:4])!r}")
    (version,) = struct.unpack_from("<I", view, 4)
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    (n_records,) = struct.unpack_from("<I", view, 8)
    offset = 12

    convs: dict[str, ConvLayer] = {}
    fcs: dict[str, FcLayer] = {}
    canonical = None
    cascade = None
    meta: dict[str, float] = {}
    for _ in range(n_records):
        kind, role_len = struct.unpack_from("<BH", view, offset)
        offset += 3
        role = bytes(view[offset : offset + role_len]).decode("ascii")
        offset += role_len
        if kind == _KIND_CONV:
            convs[role], offset = _parse_conv(view, offset)
        elif kind == _KIND_FC:
            weight, offset = _unpack_array(view, offset)
            bias, offset = _unpack_array(view, offset)
            fcs[role] = FcLayer(weight, bias)
        elif kind == _KIND_CANONICAL:
            (trainable,) = struct.unpack_from("<B", view, offset)
            offset += 1
            points, offset = _unpack_array(view, offset)
            canonical = CanonicalShape(points, bool(trainable))
        elif kind == _KIND_CASCADE:
            (length,) = struct.unpack_from("<Q", view, offset)
            offset += 8
            cascade = cascade_from_bytes(bytes(view[offset : offset + length]))
            offset += length
        elif kind == _KIND_META:
            (n_items,) = struct.unpack_from("<H", view, offset)
            offset += 2
            for _ in range(n_items):
                (klen,) = struct.unpack_from("<H", view, offset)
                offset += 2
                key = bytes(view[offset : offset + klen]).decode("ascii")
                offset += klen
                (meta[key],) = struct.unpack_from("<d", view, offset)
                offset += 8
        else:
            raise ModelFormatError(f"unknown record kind {kind}")

    required = {
        "rpn.conv1",
        "rpn.conv2",
        "rpn.conv3",
        "rpn.score",
        "rpn.point",
        "rcnn.conv1",
        "rcnn.conv2",
    }
    if not required <= set(convs) or "rcnn.fc" not in fcs or "verdict" not in fcs:
        raise ModelFormatError("model file is missing required records")
    if canonical is None:
        raise ModelFormatError("model file is missing the canonical shape")
    model = DetectorModel(
        rpn=RpnNet(
            convs["rpn.conv1"],
            convs["rpn.conv2"],
            convs["rpn.conv3"],
            convs["rpn.score"],
            convs["rpn.point"],
        ),
        rcnn=RcnnNet(convs["rcnn.conv1"], convs["rcnn.conv2"], fcs["rcnn.fc"]),
        verdict=fcs["verdict"],
        canonical=canonical,
        cascade=cascade,
        multitask=bool(meta.get("multitask", 1.0)),
        use_concat=bool(meta.get("use_concat", 1.0)),
        rect_size=int(meta.get("rect_size", 64)),
        point_scale=float(meta.get("point_scale", 48.0)),
        supervised_transform=bool(meta.get("supervised_transform", 1.0)),
    )
    return model, offset
