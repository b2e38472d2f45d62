"""Face-detection pipeline toolkit: landmark-aligned differentiable warping,
ROI-masked convolution, a boosted-fern cascade pre-filter, and non-top-K
suppression, trained and run end to end on a synthetic glyph-face corpus."""

__version__ = "0.1.0"
