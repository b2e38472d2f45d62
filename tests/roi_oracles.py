"""Per-box reference forms of ``warpdet.roiconv``'s candidate grouping,
footprint masks and ROI pyramid, kept in the tests as oracles: each box is
bucketed, scaled and drawn on its own, in Python floats."""

import numpy as np

import conv_oracles
from warpdet.roiconv import (
    DEFAULT_RF_CAP,
    MAX_LEVELS,
    MIN_FACE,
    MIN_LEVEL_SIDE,
)


def group_candidates(candidates):
    """(octave, list of (x, y, w, h)) pairs in octave order, from boxes given
    one at a time; boxes under MIN_FACE join octave 0."""
    groups = {}
    for x, y, w, h in candidates:
        size = max(w, h)
        k = max(0, int(np.floor(np.log2(size / MIN_FACE))))
        groups.setdefault(k, []).append((x, y, w, h))
    return sorted(groups.items())


def build_mask(scaled_candidates, level_size):
    """Mask bits: each footprint drawn as one slice assignment."""
    height, width = level_size
    bits = np.zeros((height, width), dtype=bool)
    for x, y, w, h in scaled_candidates:
        cx, cy = x + w / 2.0, y + h / 2.0
        ww = min(2.0 * w, float(DEFAULT_RF_CAP))
        hh = min(2.0 * h, float(DEFAULT_RF_CAP))
        x0 = int(round(cx - ww / 2.0))
        y0 = int(round(cy - hh / 2.0))
        x1 = x0 + int(round(ww))
        y1 = y0 + int(round(hh))
        bits[max(0, y0) : max(0, min(y1, height)), max(0, x0) : max(0, min(x1, width))] = True
    return bits


def pyramid_levels(image, groups):
    """(octave, level image, mask bits) per group of group_candidates whose
    level the level rule admits (octave under MAX_LEVELS, shorter side at
    least MIN_LEVEL_SIDE): the image half-sampled octave times by the mean
    oracle, and the boxes scaled one coordinate at a time."""
    levels = []
    current = image
    depth = 0
    for octave, boxes in sorted(groups):
        while depth < octave:
            current = conv_oracles.downsample_image(current)
            depth += 1
        if octave >= MAX_LEVELS or min(current.shape[1:]) < MIN_LEVEL_SIDE:
            break
        s = 2.0 ** (-octave)
        scaled = [(x * s, y * s, w * s, h * s) for x, y, w, h in boxes]
        levels.append((octave, current, build_mask(scaled, current.shape[1:])))
    return levels
