"""Minimal deterministic CNN kernel: im2col convolution, pooling, dense and
softmax layers, all with hand-written backward passes.

The forward convolution has two lowerings. One function, _patch_blocks,
reads the rule that picks one, the byte size of the input's patch matrix,
C*K*K*out_h*out_w elements of the input's dtype, and returns that matrix
as row blocks for the lowering it picks:

- im2col, while that matrix fits in IM2COL_BUDGET_BYTES (512 KB, a quarter
  of a 2 MB L2 cache): the patches are gathered into a (C*K*K, P) matrix,
  one row per kernel tap and one column per output position, so the gather
  copies along output rows, and one GEMM (O, C*K*K) @ (C*K*K, P) writes the
  output;
- kernel rows, above the budget: each row phase of the padded input is
  copied once, without the K row taps (about K/s times smaller than the
  patch matrix), and the output is the sum over kernel rows of K GEMMs
  (O, C*K) @ (C*K, P), each reading a unit-stride view of that copy in
  place. A large patch matrix spills out of the cache, and its GEMM then
  runs at half speed or less; this lowering's copy stays in it. Its sums
  run per kernel row, so its output agrees with im2col's to rounding, not
  bit for bit.

Either way the output is C-contiguous CHW, which relu and max-pool read
without another copy. The rule reads only the input's geometry and dtype:
no caller picks a lowering. The masked convolution of roiconv runs on the
same rule: it lowers each band of its mask as this forward lowers a whole
input.

The backward pass runs on the same rule. The filter gradient takes its
blocks from _patch_blocks too: one GEMM of the output gradient with each
block's transpose, the whole patch matrix below the budget and each kernel
row's view of the row-phase copies above it. The input gradient of a conv
of any stride s is itself one stride-1 convolution, with no scatter: the
forward product of the output gradient with the filters split into their
s*s stride phases of ceil(K/s) taps a side, flipped in both kernel axes
and transposed, whose C*s*s output planes are interleaved depth to space
and cropped to the input. At s = 1 that is the flipped filters at padding
K-1-p.

Forward kernels compute only what the forward result needs. Max-pool
returns the pooled values and no argmax, taking each block's maximum in two
np.maximum calls, over column pairs and then over row pairs: its backward
re-derives each block's winner from the stored input and output, so
detection, which never runs a backward pass, pays nothing for one.

Softmax cross-entropy scores one (K,) row with an int label as it is, with
no batch around it, and a (B, K) batch with (B,) integer labels; a label
that is not an integer in [0, K) is rejected on either form.

Conventions used throughout the package:

- images and feature maps are numpy arrays in CHW layout (channels, rows,
  cols), row-major;
- the package builds float64 models, and every kernel computes in the
  dtype of its input: a convolution casts its filters and bias to a
  floating input's dtype, so a float32 map runs float32 GEMMs on the
  float64 model, and on a float64 map the cast moves no byte;
- a point is (x, y) = (column, row);
- all operations are pure functions over their inputs and are deterministic
  in a single-threaded run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# Largest im2col patch matrix, in bytes, that _patch_blocks builds: a
# quarter of a 2 MB L2 cache, so the matrix, the filters and the output stay
# in it while the GEMM reads them.
IM2COL_BUDGET_BYTES = 512 * 1024


class ShapeError(ValueError):
    """Raised when an operation receives incompatibly shaped arrays."""


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a square-kernel 2-D convolution."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if (min(self.in_channels, self.out_channels, self.kernel, self.stride) < 1
                or self.padding < 0):
            raise ValueError(f"invalid conv spec: {self}")

    def out_size(self, height: int, width: int) -> tuple[int, int]:
        k, s, p = self.kernel, self.stride, self.padding
        oh = (height + 2 * p - k) // s + 1
        ow = (width + 2 * p - k) // s + 1
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"{height}x{width} input too small for kernel {k}, "
                f"stride {s}, padding {p}"
            )
        return oh, ow


def _pad_chw(x: np.ndarray, padding: int) -> np.ndarray:
    """x zero-padded by padding pixels on each side, C-contiguous."""
    if padding == 0:
        return np.ascontiguousarray(x)
    c, h, w = x.shape
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, padding : padding + h, padding : padding + w] = x
    return xp


def _check_input(x: np.ndarray, spec: ConvSpec) -> None:
    if x.ndim != 3:
        raise ShapeError(f"expected CHW input, got shape {x.shape}")
    if x.shape[0] != spec.in_channels:
        raise ShapeError(
            f"input has {x.shape[0]} channels, spec expects {spec.in_channels}"
        )


def _read_only_view(base: np.ndarray, shape, strides, offset: int = 0) -> np.ndarray:
    """Read-only view of a C-contiguous array's buffer, starting offset
    bytes in. The ndarray constructor refuses a view that reaches past the
    buffer, and costs a fraction of as_strided's Python wrapper."""
    view = np.ndarray(shape, base.dtype, base, offset, strides)
    view.flags.writeable = False
    return view


def _padded_input(x: np.ndarray, spec: ConvSpec):
    """(zero-padded C-contiguous input, out_h, out_w), after the shape
    checks. out_size rejects inputs smaller than a window, which keeps every
    view of the padded input in bounds."""
    _check_input(x, spec)
    out_h, out_w = spec.out_size(x.shape[1], x.shape[2])
    return _pad_chw(x, spec.padding), out_h, out_w


def _windows(xp: np.ndarray, spec: ConvSpec, out_h: int, out_w: int) -> np.ndarray:
    k, s = spec.kernel, spec.stride
    sc, sy, sx = xp.strides
    return _read_only_view(xp, (xp.shape[0], k, k, out_h, out_w),
                           (sc, sy, sx, s * sy, s * sx))


def _patch_matrix(xp: np.ndarray, spec: ConvSpec, out_h: int, out_w: int) -> np.ndarray:
    """im2col of the padded input xp: one C-contiguous copy of its windows."""
    cols = np.ascontiguousarray(_windows(xp, spec, out_h, out_w))
    return cols.reshape(-1, out_h * out_w)


def as_input_dtype(param: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A conv parameter in the dtype of a floating input x, the same array
    when it already has it; a non-floating input leaves it as it is, so
    numpy promotes the product as before."""
    if x.dtype.kind != "f":
        return param
    return param.astype(x.dtype, copy=False)


def _filters_matrix(filters: np.ndarray, spec: ConvSpec) -> np.ndarray:
    expected = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
    if filters.shape != expected:
        raise ShapeError(f"filters shape {filters.shape}, expected {expected}")
    return filters.reshape(spec.out_channels, -1)


def conv2d_forward(
    x: np.ndarray,
    filters: np.ndarray,
    spec: ConvSpec,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Convolve a CHW input with (N, C, K, K) filters in the input's
    floating dtype: one im2col GEMM while the patch matrix fits in
    IM2COL_BUDGET_BYTES, one GEMM per kernel row above it."""
    fmat = as_input_dtype(_filters_matrix(filters, spec), x)
    xp, out_h, out_w = _padded_input(x, spec)
    out = _conv_product(xp, fmat, spec, out_h, out_w)
    if bias is not None:
        out += as_input_dtype(bias, x)[:, None]
    return out.reshape(spec.out_channels, out_h, out_w)


def _patch_blocks(xp: np.ndarray, spec: ConvSpec, out_h: int,
                  out_w: int) -> list[np.ndarray]:
    """The patch matrix of the padded input xp as B row blocks, under the
    lowering rule: with the matrix's rows split (C, B, K*K/B), block b
    holds rows (c, b, j).

    While the matrix, C*K*K*out_h*out_w elements of xp's dtype, fits in
    IM2COL_BUDGET_BYTES, B = 1 and the block is the matrix. Above it B = K:
    each row phase ph < min(s, K) of xp is copied once as the C-contiguous
    (C, K, rows, out_w) array L_ph[c, kx, r, ox] = xp[c, s*r + ph, kx + s*ox],
    about K/s times smaller than the matrix, and kernel row ky = s*q + ph's
    block is the (C*K, out_h*out_w) view of rows q .. q + out_h of L_ph,
    with unit inner stride, which BLAS reads in place."""
    c, k, s = spec.in_channels, spec.kernel, spec.stride
    if c * k * k * out_h * out_w * xp.itemsize <= IM2COL_BUDGET_BYTES:
        return [_patch_matrix(xp, spec, out_h, out_w)]
    sc, sy, sx = xp.strides
    phases = [
        np.ascontiguousarray(_read_only_view(
            xp, (c, k, (k - 1 - ph) // s + out_h, out_w),
            (sc, sx, s * sy, s * sx), ph * sy))
        for ph in range(min(s, k))
    ]
    return [phases[ky % s][:, :, ky // s : ky // s + out_h].reshape(c * k, -1)
            for ky in range(k)]


def _conv_product(xp: np.ndarray, fmat: np.ndarray, spec: ConvSpec,
                  out_h: int, out_w: int) -> np.ndarray:
    """fmat @ im2col of the padded input xp, the (N, out_h*out_w) product.
    One block is the whole patch matrix, and its product is one GEMM with
    fmat as it is. For B > 1 blocks, fmat's columns are regrouped as (B, N,
    C*K*K/B), a copy, so that each of _patch_blocks' blocks meets its own
    columns in one GEMM; the products are summed in block order, each
    written into one reused buffer. The forward, the input gradient and
    roiconv's bands all run on it."""
    blocks = _patch_blocks(xp, spec, out_h, out_w)
    if len(blocks) == 1:
        return fmat @ blocks[0]
    n, b = len(fmat), len(blocks)
    rows = (fmat.reshape(n, spec.in_channels, b, -1)
            .transpose(2, 0, 1, 3).reshape(b, n, -1))
    out = rows[0] @ blocks[0]
    term = np.empty_like(out)
    for row, block in zip(rows[1:], blocks[1:]):
        np.matmul(row, block, out=term)
        out += term
    return out


def _flipped_filter_product(grad_out: np.ndarray, filters: np.ndarray,
                            spec: ConvSpec, height: int, width: int) -> np.ndarray:
    """Input gradient of a conv on a (C, height, width) input, as one
    stride-1 forward product of grad_out (Shi et al. 2016).

    Padded-input pixel (s*a + r, s*b + q) takes its gradient from output
    position (a - t, b - u) through filter tap (s*t + r, s*u + q). So each
    filter is split into its s*s phases (r, q), zero-padded to T = ceil(K/s)
    taps a side, flipped in both kernel axes and transposed (N <-> C): one
    bank of C*s*s filters over grad_out, padded by T-1-floor(p/s) (at
    least 0) and, where the last phase row or column would fall short of
    the input, more at the bottom and right. The phases are interleaved
    depth to space and the padding p is cropped. At s = 1 this is the
    flipped filters at padding K-1-p; a padding p above K-1 runs unpadded
    and crops the p-(K-1) outer rings."""
    n, c, k, s, p = (spec.out_channels, spec.in_channels, spec.kernel,
                     spec.stride, spec.padding)
    taps = -(-k // s)
    phased = filters
    if s * taps != k:  # zero taps complete the last phase
        phased = np.zeros((n, c, s * taps, s * taps), filters.dtype)
        phased[:, :, :k, :k] = filters
    bank = phased.reshape(n, c, taps, s, taps, s)[:, :, ::-1, :, ::-1]
    fmat = as_input_dtype(
        bank.transpose(1, 3, 5, 0, 2, 4).reshape(c * s * s, -1), grad_out)
    pad = max(taps - 1 - p // s, 0)
    crop = p - s * (taps - 1 - pad)
    out_h, out_w = grad_out.shape[1:]
    # padded extents that reach input row crop + height and column crop + width
    ext_h, ext_w = (max(out + 2 * pad, -(-(crop + size) // s) + taps - 1)
                    for out, size in ((out_h, height), (out_w, width)))
    gp = np.zeros((n, ext_h, ext_w), grad_out.dtype)
    gp[:, pad : pad + out_h, pad : pad + out_w] = grad_out
    rows, cols = ext_h - taps + 1, ext_w - taps + 1
    grad = _conv_product(gp, fmat, ConvSpec(n, c * s * s, taps), rows, cols)
    grad = grad.reshape(c, s, s, rows, cols).transpose(0, 3, 1, 4, 2)
    grad = grad.reshape(c, s * rows, s * cols)
    return grad[:, crop : crop + height, crop : crop + width]


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    filters: np.ndarray,
    spec: ConvSpec,
    input_grad: bool = True,
):
    """Gradients of a scalar loss through conv2d_forward.

    Returns (grad_input, grad_filters, grad_bias); grad_input is None when
    input_grad is False, and then none of its work runs.

    The filter gradient is gmat @ im2col(x).T under the forward's rule:
    one GEMM with the transpose of each of _patch_blocks' blocks, put back
    together in the filters' shape (one block's product is that shape
    already, and is not copied). Its copy of the input is freed before the
    input gradient starts.

    The input gradient, at every stride, is the forward product of grad_out
    with the filters split into stride phases, flipped and transposed,
    under the same budget rule, with no scatter (_flipped_filter_product).
    It is formed in the dtype of that product, grad_out's when that is
    floating, whatever x's dtype.
    """
    xp, out_h, out_w = _padded_input(x, spec)
    _filters_matrix(filters, spec)  # rejects filters of another shape
    if grad_out.shape != (spec.out_channels, out_h, out_w):
        raise ShapeError(
            f"grad_out shape {grad_out.shape}, expected "
            f"{(spec.out_channels, out_h, out_w)}"
        )
    n, c = spec.out_channels, spec.in_channels
    gmat = grad_out.reshape(n, -1)  # (N, P)
    blocks = _patch_blocks(xp, spec, out_h, out_w)
    if len(blocks) == 1:
        grad_filters = (gmat @ blocks[0].T).reshape(filters.shape)
    else:
        grad_filters = np.concatenate(
            [(gmat @ block.T).reshape(n, c, 1, -1) for block in blocks], axis=2
        ).reshape(filters.shape)
    del xp, blocks  # the input's copies go before the input gradient's
    grad_bias = gmat.sum(axis=1)
    if not input_grad:
        return None, grad_filters, grad_bias
    grad_input = _flipped_filter_product(grad_out, filters, spec, *x.shape[1:])
    return grad_input, grad_filters, grad_bias


def _even_extents(x: np.ndarray) -> np.ndarray:
    """A CHW array with odd extents edge-replicated to even ones, so a 2x2
    block on the last row or column reads its source cell twice."""
    if x.ndim != 3:
        raise ShapeError(f"expected CHW input, got shape {x.shape}")
    _, h, w = x.shape
    if h % 2 or w % 2:
        x = np.pad(x, ((0, 0), (0, h % 2), (0, w % 2)), mode="edge")
    return x


def block_taps(x: np.ndarray):
    """The four (C, ceil(H/2), ceil(W/2)) taps of every 2x2 block of a CHW
    array, in tl, tr, bl, br order, as strided views of its even extents."""
    x = _even_extents(x)
    return x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]


@lru_cache(maxsize=32)
def _block_origins(c: int, h: int, w: int) -> np.ndarray:
    """Read-only (c, h/2, w/2) flat indices of the top-left cell of every
    2x2 block of a C-contiguous (c, h, w) array with even extents."""
    rows = np.arange(c)[:, None, None] * h + np.arange(0, h, 2)[:, None]
    origins = rows * w + np.arange(0, w, 2)
    origins.flags.writeable = False
    return origins


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max pooling of a CHW array; odd extents are
    edge-replicated first.

    Returns only the pooled values: the backward pass re-derives each
    block's winner from the input and this output, so detection stores
    nothing for it. The pairs are taken in two np.maximum calls, columns
    and then rows, which is the tree maximum(maximum(br, bl), maximum(tr,
    tl)). On a tie np.maximum returns its second argument, so the tree
    keeps the first tap in tl, tr, bl, br order, and with it the sign of a
    tied zero.
    """
    x = _even_extents(x)
    cols = np.maximum(x[:, :, 1::2], x[:, :, 0::2])
    return np.maximum(cols[:, 1::2], cols[:, 0::2])


def maxpool2x2_backward(grad_out: np.ndarray, x: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """Route pooled gradients back through maxpool2x2(x) == out.

    Each block's gradient goes to its first tap, in tl, tr, bl, br order,
    that equals the pooled value: the tap the forward kept, so a replicated
    edge cell never takes it from its source. One flat scatter into a
    zeroed edge-replicated input, cropped to x's shape.
    """
    c, h, w = x.shape
    tl, tr, bl, br = block_taps(x)
    he, we = 2 * tl.shape[1], 2 * tl.shape[2]
    bottom = ~((tl == out) | (tr == out))
    right = np.where(bottom, bl, tl) != out
    grad = np.zeros((c, he, we), dtype=grad_out.dtype)
    grad.reshape(-1)[_block_origins(c, he, we) + we * bottom + right] = grad_out
    return grad[:, :h, :w]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    return grad_out * (x > 0)


def fully_connected(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map weight @ x + bias for a flat input vector."""
    if x.ndim != 1 or weight.shape[1] != x.shape[0] or weight.shape[0] != bias.shape[0]:
        raise ShapeError(
            f"fc shapes incompatible: x {x.shape}, W {weight.shape}, b {bias.shape}"
        )
    return weight @ x + bias


def fully_connected_backward(grad_out: np.ndarray, x: np.ndarray, weight: np.ndarray):
    """Returns (grad_x, grad_weight, grad_bias)."""
    return weight.T @ grad_out, np.outer(grad_out, x), grad_out.copy()


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _class_labels(labels, shape):
    """labels as class indices for (K,) or (B, K) logits or probabilities
    of this shape: one int for a row, a (B,) integer array for a batch.
    Raises ShapeError on another rank, an empty class axis or a label count
    that does not match the rows, and ValueError on a label that is not an
    integer or lies outside [0, K)."""
    if len(shape) not in (1, 2):
        raise ShapeError(f"expected (K,) or (B, K) logits, got shape {shape}")
    k = shape[-1]
    if k == 0:
        raise ShapeError("softmax over an empty class axis")
    if len(shape) == 1:
        try:
            label = operator.index(labels)
        except TypeError:
            raise ValueError(f"label {labels!r} is not an integer") from None
        if not 0 <= label < k:
            raise ValueError(f"label {label} outside [0, {k})")
        return label
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels of dtype {labels.dtype} are not integers")
    if labels.shape != shape[:1]:
        raise ShapeError(f"{labels.shape} labels for {shape[0]} rows")
    if len(labels) and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels outside [0, {k})")
    return labels


def softmax_cross_entropy(
    logits: np.ndarray, labels, weights: np.ndarray | None = None
):
    """Softmax cross-entropy over the last axis.

    logits: (K,) with an int label, or (B, K) with (B,) integer labels,
    each in [0, K). weights: optional (B,) row weights of a batch; without
    them its rows are averaged. One row is scored as it is, with no batch
    around it: its loss is the bytes of the (1, K) batch's.
    Returns (loss, probs); pair with softmax_cross_entropy_backward.
    """
    logits = np.asarray(logits)
    labels = _class_labels(labels, logits.shape)
    logp = log_softmax(logits)
    probs = np.exp(logp)
    if logits.ndim == 1:
        if weights is not None:
            raise ShapeError("one row takes no row weights")
        # + 0.0 as the batch's mean sums from 0.0: a zero loss is +0.0
        return -logp[labels] + 0.0, probs
    per_row = -logp[np.arange(len(logp)), labels]
    if weights is None:
        loss = per_row.mean()
    else:
        loss = float(np.dot(per_row, weights))
    return loss, probs


def softmax_cross_entropy_backward(
    probs: np.ndarray, labels, weights: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of softmax_cross_entropy's loss with respect to the logits."""
    labels = _class_labels(labels, probs.shape)
    grad = probs.copy()
    if probs.ndim == 1:
        if weights is not None:
            raise ShapeError("one row takes no row weights")
        grad[labels] -= 1.0
        return grad
    grad[np.arange(len(grad)), labels] -= 1.0
    if weights is None:
        grad /= len(grad)
    else:
        grad *= np.asarray(weights).reshape(-1, 1)
    return grad


def uniform_init(rng: np.random.Generator, shape, fan_in: int,
                 fan_out: int) -> np.ndarray:
    """Seeded float64 uniform init on [-s, s] with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def sgd_step(params, grads, velocities, learning_rate: float, momentum: float):
    """One in-place SGD update with classical momentum.

    v <- momentum * v + g;  p <- p - learning_rate * v.
    Rejects non-finite gradients instead of silently corrupting parameters.
    """
    if len(params) != len(grads) or len(params) != len(velocities):
        raise ShapeError("params, grads and velocities must align")
    for i, (p, g, v) in enumerate(zip(params, grads, velocities)):
        if p.shape != g.shape or p.shape != v.shape:
            raise ShapeError(
                f"entry {i}: param {p.shape}, grad {g.shape}, velocity {v.shape}"
            )
        if not np.isfinite(g).all():
            raise FloatingPointError(
                f"non-finite gradient in entry {i} (max abs "
                f"{np.max(np.abs(g[np.isfinite(g)]), initial=0.0):g})"
            )
        v *= momentum
        v += g
        p -= learning_rate * v
    return params
