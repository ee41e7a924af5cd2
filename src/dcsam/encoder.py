"""Deterministic stub feature extractors.

Stand-ins for the frozen vision and SAM backbones: each map is a fixed
random projection of cheap local image statistics, deterministic per
(seed, image), with no trainable state. Three maps per image:

  * ``mid``  - fusion input,
  * ``high`` - drives the prior mask (cosine similarity space),
  * ``sam``  - independent projection, consumed by fusion and the decoder.

Video frames after frame 0 only feed the decoder, so ``encode_frames``
projects them to ``sam`` alone.

The statistics are 15 per pixel: intensity, the 3x3 mean, max, min and
deviation, the 5x5 and 7x7 means and deviations, the residual from the 3x3
mean, two gradients, two coordinates and a constant. Windows are shifted
slices of one edge-padded copy of the image, reduced in place slice by
slice; ``oracles.descriptors_reference`` keeps the stacked form, and the
``encoder`` oracle suite holds the two to equal bytes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .seeding import rng_for, tag
from .tensor import Tensor, adopt

_ROLE_MID = 0
_ROLE_HIGH = 1
_ROLE_SAM = 2

_DESC_DIM = 15


@dataclass(frozen=True)
class EncoderMaps:
    mid: Tensor   # [d_mid, H, W]
    high: Tensor  # [d_high, H, W]
    sam: Tensor   # [d_sam, H, W]


class StubEncoder:
    """Frozen projections of local statistics, shared across all episodes."""

    def __init__(self, seed: int, d_mid: int, d_high: int, d_sam: int, stride: int):
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
        self._check(image.shape, batched)
        return self.project(_descriptors(image.data), image.shape)

    def encode_frames(self, frames: np.ndarray, first: bool) -> tuple[EncoderMaps | None, Tensor]:
        """Frame 0's three maps when ``first`` (else None) and the ``sam``
        maps [T, d_sam, ...] of a stack of finite video frames [T, H, W],
        from one descriptor pass. Later frames only feed the decoder, so
        their ``mid`` and ``high`` are never projected; stacked ``matmul``
        runs one product per image, so every map has ``encode``'s bits."""
        self._check(frames.shape, True)
        desc = _descriptors(frames)
        (sam,) = self._project(desc, frames.shape, ((self.d_sam, self._w_sam),))
        if not first:
            return None, sam
        mid, high = self._project(desc[0], frames.shape[1:], ((self.d_mid, self._w_mid),
                                                               (self.d_high, self._w_high)))
        return EncoderMaps(mid=mid, high=high, sam=adopt(sam.data[0])), sam

    def _check(self, shape: tuple[int, ...], batched: bool) -> None:
        if len(shape) != 2 + batched:
            want = "a stack [B, H, W]" if batched else "a grayscale image [H, W]"
            raise ShapeMismatch(f"encoder expects {want}, got {shape}")
        h, w = shape[-2:]
        if h % self.stride or w % self.stride:
            raise ShapeMismatch(f"image {shape} is not divisible by stride {self.stride}")

    def project(self, desc: np.ndarray, shape: tuple[int, ...]) -> EncoderMaps:
        """The three maps of images of ``shape`` ([H, W] or [B, H, W]) from
        their descriptors [..., HW, 15]."""
        mid, high, sam = self._project(desc, shape, ((self.d_mid, self._w_mid),
                                                     (self.d_high, self._w_high),
                                                     (self.d_sam, self._w_sam)))
        return EncoderMaps(mid=mid, high=high, sam=sam)

    def _project(self, desc: np.ndarray, shape: tuple[int, ...], projections) -> list[Tensor]:
        """One map per (width, projection) pair, in order."""
        lead = shape[:-2]
        h, w = shape[-2:]
        maps = []
        for width, proj in projections:
            feat = np.tanh(desc @ proj)                       # [..., HW, d]
            feat = np.swapaxes(feat, -1, -2).reshape(lead + (width, h, w))
            if self.stride > 1:
                s = self.stride
                feat = feat.reshape(lead + (width, h // s, s, w // s, s)).mean(axis=(-3, -1))
            maps.append(Tensor(feat))
        return maps


_PAD = 3  # the widest window's radius: every window is a set of slices of one pad


def _descriptors(img: np.ndarray) -> np.ndarray:
    """Per-pixel local statistics of an image [H, W] -> [HW, 15], or of a
    stack [B, H, W] -> [B, HW, 15].

    Intensity and window means separate figure from background; the window
    deviations respond to fill texture (stripes, checkering); gradients mark
    edges; coordinates let projections encode coarse position.

    Every window (radius 1, 2 or 3) is a set of shifted slices of one edge
    pad, flattened: a shift of (r, c) is an offset of ``r * padded_width +
    c``, so each slice is contiguous. Positions past an image's right or
    bottom edge are computed too and dropped at the end. A window's mean
    and deviation accumulate one slice at a time in (row, column) order,
    ending with ``/ n``: that is the order and rounding of ``mean`` and
    ``std`` over a stack of the slices, so the statistics are bit for bit
    those of ``oracles.descriptors_reference``.
    """
    h, w = img.shape[-2:]
    lead = img.shape[:-2]
    padded = np.pad(img, [(0, 0)] * len(lead) + [(_PAD, _PAD)] * 2, mode="edge")
    pw = w + 2 * _PAD
    flat = padded.reshape(-1)
    n = flat.size - 2 * _PAD * (pw + 1)  # positions whose widest window fits

    def window(radius):
        lo = _PAD - radius
        return [flat[(lo + r) * pw + lo + c:][:n]
                for r in range(2 * radius + 1) for c in range(2 * radius + 1)]

    def crop(buf):
        return buf.reshape(padded.shape)[..., :h, :w]

    desc = np.empty(lead + (_DESC_DIM, h, w))
    value, mean3, max3, min3, std3, mean5, std5, mean7, std7, resid, gx, gy, yy, xx, ones = (
        desc[..., k, :, :] for k in range(_DESC_DIM))
    value[...] = img
    # accumulators span the whole pad so that crop() can view them
    mean_buf, std_buf = np.empty(flat.size), np.empty(flat.size)
    mean, std, scratch = mean_buf[:n], std_buf[:n], np.empty(n)
    for radius, mean_out, std_out in ((1, mean3, std3), (2, mean5, std5), (3, mean7, std7)):
        views = window(radius)
        np.copyto(mean, views[0])
        for v in views[1:]:
            mean += v
        mean /= len(views)
        np.subtract(views[0], mean, out=std)
        std *= std
        for v in views[1:]:
            np.subtract(v, mean, out=scratch)
            scratch *= scratch
            std += scratch
        std /= len(views)
        np.sqrt(std, out=std)
        mean_out[...] = crop(mean_buf)
        std_out[...] = crop(std_buf)
    near = window(1)  # the same two buffers now hold the running max and min
    np.copyto(mean, near[0])
    np.copyto(std, near[0])
    for v in near[1:]:
        np.maximum(mean, v, out=mean)
        np.minimum(std, v, out=std)
    max3[...] = crop(mean_buf)
    min3[...] = crop(std_buf)
    np.subtract(img, mean3, out=resid)
    np.abs(resid, out=resid)
    np.subtract(padded[..., _PAD:_PAD + h, _PAD + 1:_PAD + 1 + w],
                padded[..., _PAD:_PAD + h, _PAD - 1:_PAD - 1 + w], out=gx)
    np.subtract(padded[..., _PAD + 1:_PAD + 1 + h, _PAD:_PAD + w],
                padded[..., _PAD - 1:_PAD - 1 + h, _PAD:_PAD + w], out=gy)
    yy[...], xx[...] = np.meshgrid(np.linspace(0.0, 1.0, h), np.linspace(0.0, 1.0, w),
                                   indexing="ij")
    ones[...] = 1.0
    return np.swapaxes(desc.reshape(lead + (_DESC_DIM, h * w)), -1, -2)
