"""Reference forms of the strided-view kernels in ``warpdet.nn`` and of
``roiconv.downsample_image``, kept in the tests as oracles: a fancy-index
patch gather, an ``np.add.at`` gradient scatter, an ``argmax`` max-pool, a
``put_along_axis`` max-pool backward and a block-``mean`` half-sampling.
They pad with ``np.pad`` and share no helper with the code they check."""

import numpy as np

from warpdet.nn import ConvSpec


def pad_chw(x: np.ndarray, padding: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (padding, padding), (padding, padding)))


def patch_indices(spec: ConvSpec, out_h: int, out_w: int):
    """Index arrays mapping (out position, patch element) into the padded input.

    Returns (chan, row, col), each shaped (C*K*K,) x (out_h*out_w,) compatible,
    so that padded[chan, row, col] has shape (C*K*K, out_h*out_w).
    """
    c, k, s = spec.in_channels, spec.kernel, spec.stride
    chan = np.repeat(np.arange(c), k * k).reshape(-1, 1)
    ky = np.tile(np.repeat(np.arange(k), k), c).reshape(-1, 1)
    kx = np.tile(np.tile(np.arange(k), k), c).reshape(-1, 1)
    oy = s * np.repeat(np.arange(out_h), out_w).reshape(1, -1)
    ox = s * np.tile(np.arange(out_w), out_h).reshape(1, -1)
    return chan, ky + oy, kx + ox


def im2col(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Oracle of the patch matrix, the layout of nn.conv_windows: gather
    every patch by fancy indexing into a (C*K*K, out_h*out_w) matrix, one
    column per output position."""
    out_h, out_w = spec.out_size(x.shape[1], x.shape[2])
    chan, row, col = patch_indices(spec, out_h, out_w)
    return pad_chw(x, spec.padding)[chan, row, col]


def conv2d_forward(x, filters, spec: ConvSpec, bias=None) -> np.ndarray:
    """Oracle of nn.conv2d_forward on the fancy-index gather."""
    out_h, out_w = spec.out_size(x.shape[1], x.shape[2])
    out = filters.reshape(spec.out_channels, -1) @ im2col(x, spec)
    if bias is not None:
        out += bias[:, None]
    return out.reshape(spec.out_channels, out_h, out_w)


def conv2d_backward(grad_out, x, filters, spec: ConvSpec):
    """Oracle of nn.conv2d_backward: the column gradients are
    scattered into the padded input with np.add.at, in their own dtype,
    so an integer input's gradient is not truncated to the input's."""
    out_h, out_w = spec.out_size(x.shape[1], x.shape[2])
    gmat = grad_out.reshape(spec.out_channels, -1)
    grad_filters = (gmat @ im2col(x, spec).T).reshape(filters.shape)
    grad_cols = filters.reshape(spec.out_channels, -1).T @ gmat
    p = spec.padding
    grad_padded = np.zeros(
        (x.shape[0], x.shape[1] + 2 * p, x.shape[2] + 2 * p), dtype=grad_cols.dtype
    )
    chan, row, col = patch_indices(spec, out_h, out_w)
    np.add.at(grad_padded, (chan, row, col), grad_cols)
    grad_input = grad_padded[:, p : p + x.shape[1], p : p + x.shape[2]]
    return grad_input, grad_filters, gmat.sum(axis=1)


def maxpool2x2(x: np.ndarray):
    """Oracle of nn.maxpool2x2: edge-replicate odd extents, gather each 2x2
    block into a trailing axis, take its argmax (first index on ties)."""
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, h % 2), (0, w % 2)), mode="edge")
    c, h, w = xp.shape
    blocks = xp.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4)
    blocks = blocks.reshape(c, h // 2, w // 2, 4)
    argmax = blocks.argmax(axis=3)
    out = np.take_along_axis(blocks, argmax[..., None], axis=3)[..., 0]
    return out, argmax


def maxpool2x2_backward(grad_out, argmax, in_shape):
    """Oracle of nn.maxpool2x2_backward: put each gradient at its argmax slot
    of a (C, H/2, W/2, 4) block array, then undo the block gather."""
    c, h, w = in_shape
    he, we = h + h % 2, w + w % 2
    grad = np.zeros((c, he // 2, we // 2, 4), dtype=grad_out.dtype)
    np.put_along_axis(grad, argmax[..., None], grad_out[..., None], axis=3)
    grad = grad.reshape(c, he // 2, we // 2, 2, 2).transpose(0, 1, 3, 2, 4)
    return grad.reshape(c, he, we)[:, :h, :w]


def downsample_image(image: np.ndarray) -> np.ndarray:
    """Oracle of roiconv.downsample_image: edge-replicate odd extents, then
    np.mean over the two axes of each 2x2 block."""
    c, h, w = image.shape
    padded = np.pad(image, ((0, 0), (0, h % 2), (0, w % 2)), mode="edge")
    blocks = padded.reshape(c, padded.shape[1] // 2, 2, padded.shape[2] // 2, 2)
    return blocks.mean(axis=(2, 4))
