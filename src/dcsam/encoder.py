"""Deterministic stub feature extractors.

Stand-ins for the frozen vision and SAM backbones: each map is a fixed
random projection of cheap local image statistics, deterministic per
(seed, image), with no trainable state. Three maps per image:

  * ``mid``  - fusion input,
  * ``high`` - drives the prior mask (cosine similarity space),
  * ``sam``  - independent projection, consumed by fusion and the decoder.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .seeding import rng_for, tag
from .tensor import Tensor

_ROLE_MID = 0
_ROLE_HIGH = 1
_ROLE_SAM = 2

_DESC_DIM = 15


@dataclass(frozen=True)
class EncoderMaps:
    mid: Tensor   # [d_mid, H, W]
    high: Tensor  # [d_high, H, W]
    sam: Tensor   # [d_sam, H, W]

    def at(self, i: int) -> EncoderMaps:
        """Maps of image ``i`` of a stack encoded with ``batched=True``."""
        return EncoderMaps(*(Tensor(m.data[i]) for m in (self.mid, self.high, self.sam)))


class StubEncoder:
    """Frozen projections of local statistics, shared across all episodes."""

    def __init__(self, seed: int, d_mid: int = 6, d_high: int = 6, d_sam: int = 12,
                 stride: int = 1):
        if min(d_mid, d_high, d_sam) < 1 or stride < 1:
            raise ShapeMismatch("encoder widths and stride must be positive")
        self.seed = int(seed)
        self.d_mid = int(d_mid)
        self.d_high = int(d_high)
        self.d_sam = int(d_sam)
        self.stride = int(stride)
        self._w_mid = self._projection(_ROLE_MID, self.d_mid)
        self._w_high = self._projection(_ROLE_HIGH, self.d_high)
        self._w_sam = self._projection(_ROLE_SAM, self.d_sam)

    def _projection(self, role: int, width: int) -> np.ndarray:
        rng = rng_for(self.seed, tag("encoder"), role)
        return rng.normal(size=(_DESC_DIM, width)) / np.sqrt(_DESC_DIM)

    def encode(self, image: Tensor, batched: bool = False) -> EncoderMaps:
        """Maps of one image [H, W], or with ``batched`` of each image of a
        stack [B, H, W] (every map then gains the leading batch axis). The
        stack is opt-in so that a multi-channel image is still rejected."""
        if image.ndim != 2 + batched:
            shape = "a stack [B, H, W]" if batched else "a grayscale image [H, W]"
            raise ShapeMismatch(f"encoder expects {shape}, got {image.shape}")
        lead = image.shape[:-2]
        h, w = image.shape[-2:]
        if h % self.stride or w % self.stride:
            raise ShapeMismatch(f"image {image.shape} is not divisible by stride {self.stride}")
        desc = _descriptors(image.data)                       # [..., HW, 15]
        maps = []
        for width, proj in ((self.d_mid, self._w_mid), (self.d_high, self._w_high),
                            (self.d_sam, self._w_sam)):
            feat = np.tanh(desc @ proj)                       # [..., HW, d]
            feat = np.swapaxes(feat, -1, -2).reshape(lead + (width, h, w))
            if self.stride > 1:
                s = self.stride
                feat = feat.reshape(lead + (width, h // s, s, w // s, s)).mean(axis=(-3, -1))
            maps.append(Tensor(feat))
        return EncoderMaps(mid=maps[0], high=maps[1], sam=maps[2])


def _pad_spatial(img: np.ndarray, radius: int) -> np.ndarray:
    """Edge-pad the last two axes only."""
    return np.pad(img, [(0, 0)] * (img.ndim - 2) + [(radius, radius)] * 2, mode="edge")


def _window_stack(img: np.ndarray, radius: int) -> np.ndarray:
    h, w = img.shape[-2:]
    size = 2 * radius + 1
    padded = _pad_spatial(img, radius)
    return np.stack([padded[..., r:r + h, c:c + w] for r in range(size) for c in range(size)])


def _descriptors(img: np.ndarray) -> np.ndarray:
    """Per-pixel local statistics of an image [H, W] -> [HW, 15], or of a
    stack [B, H, W] -> [B, HW, 15].

    Intensity and window means separate figure from background; the window
    deviations respond to fill texture (stripes, checkering); gradients mark
    edges; coordinates let projections encode coarse position.
    """
    h, w = img.shape[-2:]
    near = _window_stack(img, 1)
    wide = _window_stack(img, 2)
    wider = _window_stack(img, 3)
    mean3 = near.mean(axis=0)
    max3 = near.max(axis=0)
    min3 = near.min(axis=0)
    std3 = near.std(axis=0)
    mean5 = wide.mean(axis=0)
    std5 = wide.std(axis=0)
    mean7 = wider.mean(axis=0)
    std7 = wider.std(axis=0)
    resid = np.abs(img - mean3)
    padded = _pad_spatial(img, 1)
    gx = padded[..., 1:-1, 2:] - padded[..., 1:-1, :-2]
    gy = padded[..., 2:, 1:-1] - padded[..., :-2, 1:-1]
    yy, xx = np.meshgrid(np.linspace(0.0, 1.0, h), np.linspace(0.0, 1.0, w), indexing="ij")
    ones = np.ones_like(img)
    desc = np.stack([img, mean3, max3, min3, std3, mean5, std5, mean7, std7,
                     resid, gx, gy, np.broadcast_to(yy, img.shape),
                     np.broadcast_to(xx, img.shape), ones], axis=-3)
    return np.swapaxes(desc.reshape(img.shape[:-2] + (_DESC_DIM, h * w)), -1, -2)
