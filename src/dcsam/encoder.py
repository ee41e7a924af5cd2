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
mean, two gradients, two coordinates and a constant. Windows are separable
row and column passes over one edge-padded copy of the image;
``oracles.descriptors_reference`` keeps the stacked form. The ``encoder``
oracle suite holds intensity, max, min, gradients, coordinates and the
constant to its bytes on every image, the means and the residual to its
bytes on grid images (exact window sums) and within
``oracles.DESCRIPTOR_ULPS`` elsewhere, and the deviations within that bound
on every image; the maps must have the bytes of the reference projection of
the same descriptors.
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
            raise ShapeMismatch(f"widths {(d_mid, d_high, d_sam)} and stride {stride} must be positive")
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


def _fold(op, terms, out: np.ndarray) -> None:
    """``op(...op(op(terms[0], terms[1]), terms[2])..., terms[-1])``, in place in ``out``."""
    op(terms[0], terms[1], out=out)
    for term in terms[2:]:
        op(out, term, out=out)


def _sum_sq_dev(terms, center: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """The sum of ``(term - center)**2`` over ``terms``, in order, in ``out``."""
    np.subtract(terms[0], center, out=out)
    np.square(out, out=out)
    for term in terms[1:]:
        np.subtract(term, center, out=scratch)
        np.square(scratch, out=scratch)
        out += scratch


def _descriptors(img: np.ndarray) -> np.ndarray:
    """Per-pixel local statistics of an image [H, W] -> [HW, 15], or of a
    stack [B, H, W] -> [B, HW, 15].

    Intensity and window means separate figure from background; the window
    deviations respond to fill texture (stripes, checkering); gradients mark
    edges; coordinates let projections encode coarse position.

    Every window (radius 1, 2 or 3, k = 2r + 1) is separable over one edge
    pad, flattened, so that a shift of (r, c) is an offset of ``r *
    padded_width + c`` and each shifted operand is a contiguous slice. A row
    pass gives each padded row's k-wide sum, mean and squared-deviation sum
    M2 (two-pass, about that row's own mean); a column pass then adds k row
    sums and divides by k**2 once, takes 3x3 max and min the same way, and
    merges k rows' moments (Chan, Golub & LeVeque, 1979):

        M2 = sum over rows of M2_row + k * sum over rows of (mean_row - mean)**2

    Every term is a square, so nothing cancels, with no offset and no
    special case for flat windows. Positions in the pad's margins are
    computed too and cropped at the end.
    """
    h, w = img.shape[-2:]
    lead = img.shape[:-2]
    padded = np.empty(lead + (h + 2 * _PAD, w + 2 * _PAD))  # the edge pad, as np.pad builds it
    padded[..., _PAD:-_PAD, _PAD:-_PAD] = img
    padded[..., _PAD:-_PAD, :_PAD] = img[..., :, :1]
    padded[..., _PAD:-_PAD, -_PAD:] = img[..., :, -1:]
    padded[..., :_PAD, :] = padded[..., _PAD:_PAD + 1, :]
    padded[..., -_PAD:, :] = padded[..., -_PAD - 1:-_PAD, :]
    pw = w + 2 * _PAD
    flat = padded.reshape(-1)
    n = flat.size - 2 * _PAD     # row pass: every position whose widest row window fits
    m = n - 2 * _PAD * pw        # column pass: every position whose widest window fits

    def row(a, shift=0):         # ``a`` at the row pass's positions, ``shift`` columns over
        return a[_PAD + shift:][:n]

    def col(a, shift=0):         # ``a`` at the column pass's positions, ``shift`` rows down
        return a[_PAD * (pw + 1) + shift * pw:][:m]

    def crop(a):
        return a.reshape(padded.shape)[..., _PAD:_PAD + h, _PAD:_PAD + w]

    desc = np.empty(lead + (_DESC_DIM, h, w))
    value, mean3, max3, min3, std3, mean5, std5, mean7, std7, resid, gx, gy, yy, xx, ones = (
        desc[..., k, :, :] for k in range(_DESC_DIM))
    value[...] = img
    # row statistics and column results span the whole pad so that col() and crop() can view them
    row_sum, row_mean, row_m2, mean_buf, m2_buf = np.empty((5, flat.size))
    scratch, between = np.empty(n), np.empty(m)
    rs, mean, m2 = row(row_sum), col(mean_buf), col(m2_buf)
    np.copyto(rs, row(flat))
    for radius, mean_out, std_out in ((1, mean3, std3), (2, mean5, std5), (3, mean7, std7)):
        k = 2 * radius + 1
        shifts = range(-radius, radius + 1)
        rs += row(flat, -radius)   # the row sum grows by the window's two new columns
        rs += row(flat, radius)
        np.multiply(rs, 1.0 / k, out=row(row_mean))   # feeds only the deviations
        _sum_sq_dev([row(flat, c) for c in shifts], row(row_mean), row(row_m2), scratch)
        _fold(np.add, [col(row_sum, r) for r in shifts], mean)
        mean /= k * k
        _fold(np.add, [col(row_m2, r) for r in shifts], m2)
        _sum_sq_dev([col(row_mean, r) for r in shifts], mean, between, scratch[:m])
        between *= k
        m2 += between
        m2 *= 1.0 / (k * k)
        np.sqrt(m2, out=m2)
        mean_out[...] = crop(mean_buf)
        std_out[...] = crop(m2_buf)
    for op, rows, out, dest in ((np.maximum, row_sum, mean_buf, max3),
                                (np.minimum, row_mean, m2_buf, min3)):
        _fold(op, [row(flat, c) for c in (-1, 0, 1)], row(rows))
        _fold(op, [col(rows, r) for r in (-1, 0, 1)], col(out))
        dest[...] = crop(out)
    np.subtract(img, mean3, out=resid)
    np.abs(resid, out=resid)
    np.subtract(padded[..., _PAD:_PAD + h, _PAD + 1:_PAD + 1 + w],
                padded[..., _PAD:_PAD + h, _PAD - 1:_PAD - 1 + w], out=gx)
    np.subtract(padded[..., _PAD + 1:_PAD + 1 + h, _PAD:_PAD + w],
                padded[..., _PAD - 1:_PAD - 1 + h, _PAD:_PAD + w], out=gy)
    yy[...] = np.linspace(0.0, 1.0, h)[:, None]
    xx[...] = np.linspace(0.0, 1.0, w)
    ones[...] = 1.0
    return np.swapaxes(desc.reshape(lead + (_DESC_DIM, h * w)), -1, -2)
