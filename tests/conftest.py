"""Shared fixtures and numeric oracles for the test suite."""

import os

# Pin BLAS to one thread before numpy loads anywhere, overriding any
# inherited setting: keeps timing-sensitive tests stable and matches the
# single-thread benchmark protocol.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import numpy as np
import pytest

from warpdet import pipeline, synthetic
from warpdet.ferns import NUM_PARTITIONS, NUM_SPLITS, PATCH_SIZE, CascadeModel
from warpdet.model import create_detector

TINY_SEED = 5


def conv2d_reference(x, filters, stride=1, padding=0):
    """Nested-loop convolution oracle, deliberately independent of im2col."""
    n, c, k, _ = filters.shape
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h, w = x.shape[1], x.shape[2]
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    out = np.zeros((n, oh, ow), dtype=x.dtype)
    for f in range(n):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ch in range(c):
                    for ky in range(k):
                        for kx in range(k):
                            acc += (
                                x[ch, oy * stride + ky, ox * stride + kx]
                                * filters[f, ch, ky, kx]
                            )
                out[f, oy, ox] = acc
    return out


def central_diff(fn, x, step=1e-5):
    """Central finite-difference gradient of scalar fn at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def rel_err(analytic, numeric):
    """Max relative error with an absolute floor for near-zero entries."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_fern_arrays(rng, n_ferns):
    """Stacked coords, thresholds and scores of n_ferns random ferns, drawn
    one fern at a time."""
    rows = [
        (
            rng.integers(0, PATCH_SIZE, size=(NUM_SPLITS, 4)),
            rng.standard_normal(NUM_SPLITS),
            rng.standard_normal(NUM_PARTITIONS),
        )
        for _ in range(n_ferns)
    ]
    return [np.array(stack) for stack in zip(*rows)]


def open_cascade(rng, n_ferns=4):
    """Random ferns whose stage thresholds let every window through."""
    return CascadeModel(*random_fern_arrays(rng, n_ferns), np.full(n_ferns, -1e9))


def make_detector(seed, rpn_channels=pipeline.RPN_CHANNELS,
                  rcnn_channels=pipeline.RCNN_CHANNELS, rcnn_feature=pipeline.RCNN_FEATURE,
                  rect_size=pipeline.RECT_SIZE):
    """The detector build_detector draws from seed, all three switches on, at
    the given widths and crop side."""
    return create_detector(np.random.default_rng(seed), rpn_channels, rcnn_channels,
                           rcnn_feature, multitask=True, use_concat=True,
                           supervised_transform=True, rect_size=rect_size)


def tiny_detector(seed):
    """The full detector at widths small enough for central differences:
    trunks of (2, 3, 4) and (2, 3) channels, a 6-wide feature, a 16-px crop."""
    return make_detector(seed, (2, 3, 4), (2, 3), 6, 16)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def train_tiny(**variant):
    """RPN for one epoch, then one joint epoch, on 12 images of 96 px.
    Returns (model, RPN history, joint history)."""
    corpus = synthetic.generate_synthetic_corpus(TINY_SEED, 12)
    config = pipeline.TrainConfig(epochs=1, seed=TINY_SEED)
    model = pipeline.build_detector(config, **variant)
    model, rpn_history = pipeline.train_rpn(corpus, config, model, epochs=1)
    model, joint_history = pipeline.train_end_to_end(corpus, model, config)
    return model, rpn_history, joint_history


@pytest.fixture(scope="session")
def tiny_run():
    """The seeded tiny training run; tests that change the model copy it."""
    return train_tiny()


@pytest.fixture(scope="session")
def held_out():
    """Two 96-px images that the tiny run did not train on."""
    return synthetic.generate_synthetic_corpus(TINY_SEED + 1, 2)
