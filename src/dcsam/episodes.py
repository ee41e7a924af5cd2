"""Synthetic in-context segmentation episodes.

Sixteen classes: eight shape families, each in two texture variants
(class_id = family * 2 + variant). A scene is low background noise, one or
two distractor shapes from other classes, and one target instance painted
last; the mask covers the target instance only. Foreground area is kept
inside [2%, 50%] of the canvas and distractors may overlap the target by at
most 10% of the target's area. Everything is deterministic per
(class_id, seed, canvas).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import dcst
from .errors import IoError, NonDivisibleClassCount, ShapeMismatch, UnknownClass
from .seeding import rng_for, tag
from .tensor import Tensor
from .util import read_fields

CLASS_COUNT = 16
FAMILY_COUNT = 8
MIN_CANVAS = 8

FAMILY_NAMES = ("disk", "rectangle", "triangle", "ring", "cross", "bar", "lshape", "checkerblob")

MIN_AREA_FRAC = 0.02
MAX_AREA_FRAC = 0.5
MAX_OVERLAP_FRAC = 0.1

# Images are quantized to this grid so the on-disk float32 round trip is exact.
_QUANT = 1024.0


@dataclass(frozen=True)
class Episode:
    support_img: Tensor
    support_mask: Tensor
    query_img: Tensor
    query_mask: Tensor
    class_id: int
    seed: int

    def __post_init__(self):
        shapes = {self.support_img.shape, self.support_mask.shape,
                  self.query_img.shape, self.query_mask.shape}
        if len(shapes) != 1:
            raise ShapeMismatch(f"episode tensors disagree on shape: {shapes}")


@dataclass(frozen=True)
class FoldSplit:
    fold_count: int
    fold_index: int
    train_classes: tuple[int, ...]
    test_classes: tuple[int, ...]


def class_registry() -> tuple[int, ...]:
    return tuple(range(CLASS_COUNT))


def split_folds(classes: Sequence[int], fold: int, fold_count: int = 4) -> FoldSplit:
    """Contiguous class folds: fold k holds classes[k*C/n : (k+1)*C/n] for testing."""
    classes = tuple(int(c) for c in classes)
    if fold_count < 1:
        raise ValueError(f"fold_count must be positive, got {fold_count}")
    if len(classes) % fold_count != 0:
        raise NonDivisibleClassCount(
            f"{len(classes)} classes do not split into {fold_count} folds")
    if not 0 <= fold < fold_count:
        raise ValueError(f"fold index {fold} outside [0, {fold_count})")
    per = len(classes) // fold_count
    test = classes[fold * per:(fold + 1) * per]
    train = classes[:fold * per] + classes[(fold + 1) * per:]
    return FoldSplit(fold_count=fold_count, fold_index=fold,
                     train_classes=train, test_classes=test)


@functools.cache
def grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index grids of an h x w canvas ("ij" indexing),
    built once per canvas and read-only."""
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    rr.setflags(write=False)
    cc.setflags(write=False)
    return rr, cc


def _centered(rng: np.random.Generator, h: int, w: int, ry: int, rx: int) -> tuple[int, int]:
    """Center of a shape with half-extents (ry, rx), fully inside the canvas."""
    cy = int(rng.integers(ry, h - ry)) if h - ry > ry else ry
    cx = int(rng.integers(rx, w - rx)) if w - rx > rx else rx
    return cy, cx


def _disk(rng, h, w):
    m = min(h, w)
    r = int(rng.integers(max(1, m // 8), max(2, int(m / 3.2)) + 1))
    cy, cx = _centered(rng, h, w, r, r)
    rr, cc = grid(h, w)
    return (rr - cy) ** 2 + (cc - cx) ** 2 <= r * r


def _rectangle(rng, h, w):
    hy = int(rng.integers(1, max(2, h // 4) + 1))
    hx = int(rng.integers(1, max(2, w // 4) + 1))
    cy, cx = _centered(rng, h, w, hy, hx)
    rr, cc = grid(h, w)
    return (np.abs(rr - cy) <= hy) & (np.abs(cc - cx) <= hx)


def _triangle(rng, h, w):
    m = min(h, w)
    s = int(rng.integers(3, max(4, int(m * 0.66)) + 1))
    r0 = int(rng.integers(0, h - s + 1))
    c0 = int(rng.integers(0, w - s + 1))
    k = int(rng.integers(0, 4))
    rr, cc = grid(h, w)
    a, b = rr - r0, cc - c0
    box = (a >= 0) & (b >= 0) & (a < s) & (b < s)
    aa = np.where(k < 2, a, s - 1 - a)
    bb = np.where(k % 2 == 0, b, s - 1 - b)
    return box & (aa + bb < s)


def _ring(rng, h, w):
    m = min(h, w)
    r_out = int(rng.integers(max(2, m // 5), max(3, int(m / 2.6)) + 1))
    r_in = max(1, int(r_out * 0.5))
    cy, cx = _centered(rng, h, w, r_out, r_out)
    rr, cc = grid(h, w)
    d2 = (rr - cy) ** 2 + (cc - cx) ** 2
    return (d2 <= r_out * r_out) & (d2 > r_in * r_in)


def _cross(rng, h, w):
    m = min(h, w)
    a = int(rng.integers(max(2, m // 5), max(3, m // 2 - 1) + 1))
    t = int(rng.integers(0, max(1, m // 10) + 1))
    cy, cx = _centered(rng, h, w, a, a)
    rr, cc = grid(h, w)
    dy, dx = np.abs(rr - cy), np.abs(cc - cx)
    return ((dy <= t) & (dx <= a)) | ((dx <= t) & (dy <= a))


def _bar(rng, h, w):
    m = min(h, w)
    t = int(rng.integers(0, max(1, m // 10) + 1))
    if int(rng.integers(0, 2)) == 0:
        length = int(rng.integers(w // 2, w - 1))
        half = length // 2
        cy, cx = _centered(rng, h, w, t, half)
        rr, cc = grid(h, w)
        return (np.abs(rr - cy) <= t) & (np.abs(cc - cx) <= half)
    length = int(rng.integers(h // 2, h - 1))
    half = length // 2
    cy, cx = _centered(rng, h, w, half, t)
    rr, cc = grid(h, w)
    return (np.abs(rr - cy) <= half) & (np.abs(cc - cx) <= t)


def _lshape(rng, h, w):
    m = min(h, w)
    s1 = int(rng.integers(max(2, m // 3), max(3, int(m * 0.6)) + 1))
    s2 = int(rng.integers(max(2, m // 3), max(3, int(m * 0.6)) + 1))
    t = int(rng.integers(1, max(2, m // 6) + 1))
    r0 = int(rng.integers(0, h - s1))
    c0 = int(rng.integers(0, w - s2))
    k = int(rng.integers(0, 4))
    rr, cc = grid(h, w)
    a, b = rr - r0, cc - c0
    if k >= 2:
        a = (s1 - 1) - a
    if k % 2 == 1:
        b = (s2 - 1) - b
    vertical = (a >= 0) & (a < s1) & (b >= 0) & (b < t)
    horizontal = (a >= 0) & (a < t) & (b >= 0) & (b < s2)
    return vertical | horizontal


def _checkerblob(rng, h, w):
    m = min(h, w)
    r = int(rng.integers(max(1, m // 5), max(2, int(m / 2.4)) + 1))
    cy, cx = _centered(rng, h, w, r, r)
    rr, cc = grid(h, w)
    return np.abs(rr - cy) + np.abs(cc - cx) <= r


_FAMILIES: tuple[Callable, ...] = (
    _disk, _rectangle, _triangle, _ring, _cross, _bar, _lshape, _checkerblob)


def _area_bounds(h: int, w: int) -> tuple[int, int]:
    return max(2, int(math.ceil(MIN_AREA_FRAC * h * w))), int(math.floor(MAX_AREA_FRAC * h * w))


def _sample_footprint(class_id: int, rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    lo, hi = _area_bounds(h, w)
    draw = _FAMILIES[class_id // 2]
    for _ in range(200):
        fp = draw(rng, h, w)
        if lo <= fp.sum() <= hi:
            return fp
    # Degenerate canvas: fall back to a centered block with a legal area.
    side = max(1, int(math.sqrt(lo)))
    fp = np.zeros((h, w), dtype=bool)
    fp[(h - side) // 2:(h - side) // 2 + side, (w - side) // 2:(w - side) // 2 + side] = True
    return fp


def _paint(img: np.ndarray, footprint: np.ndarray, class_id: int,
           rng: np.random.Generator) -> None:
    h, w = img.shape
    base = float(rng.uniform(0.72, 0.95))
    fill = np.full((h, w), base)
    if class_id % 2 == 1:
        fill[1::2, :] *= 0.62
    if class_id // 2 == 7:
        rr, cc = grid(h, w)
        fill = np.where((rr + cc) % 2 == 0, fill, fill * 0.8)
    img[footprint] = fill[footprint]


def _draw_scene(class_id: int, rng: np.random.Generator, h: int, w: int):
    img = rng.uniform(0.0, 0.25, (h, w))
    target = _sample_footprint(class_id, rng, h, w)
    overlap_limit = MAX_OVERLAP_FRAC * target.sum()
    placed = []
    for _ in range(int(rng.integers(1, 3))):
        other = int(rng.integers(0, CLASS_COUNT - 1))
        if other >= class_id:
            other += 1
        for _attempt in range(50):
            fp = _sample_footprint(other, rng, h, w)
            if np.logical_and(fp, target).sum() <= overlap_limit:
                placed.append((other, fp))
                break
    for other, fp in placed:
        _paint(img, fp, other, rng)
    _paint(img, target, class_id, rng)
    img = np.round(img * _QUANT) / _QUANT
    return img, target.astype(np.float64)


def gen_episode(class_id: int, seed: int, canvas: tuple[int, int] = (16, 16)) -> Episode:
    """One support/query pair of the class, with fresh poses per side."""
    if not 0 <= int(class_id) < CLASS_COUNT:
        raise UnknownClass(f"class_id {class_id} outside [0, {CLASS_COUNT})")
    h, w = int(canvas[0]), int(canvas[1])
    if h < MIN_CANVAS or w < MIN_CANVAS:
        raise ShapeMismatch(f"canvas {h}x{w} below the {MIN_CANVAS}x{MIN_CANVAS} minimum")
    s_img, s_mask = _draw_scene(class_id, rng_for(seed, tag("support"), class_id), h, w)
    q_img, q_mask = _draw_scene(class_id, rng_for(seed, tag("query"), class_id), h, w)
    return Episode(support_img=Tensor(s_img), support_mask=Tensor(s_mask),
                   query_img=Tensor(q_img), query_mask=Tensor(q_mask),
                   class_id=int(class_id), seed=int(seed))


# On-disk episode bundles.

_BUNDLE_FILES = ("support.dcst", "support_mask.dcst", "query.dcst", "query_mask.dcst")
_META_KEYS = ("class_id", "seed")


def save_episode(directory: str | Path, ep: Episode) -> list[Path]:
    tensors = (ep.support_img, ep.support_mask, ep.query_img, ep.query_mask)
    return dcst.write_bundle(directory, dict(zip(_BUNDLE_FILES, tensors)),
                             {"meta.txt": f"class_id = {ep.class_id}\nseed = {ep.seed}\n"})


def load_episode(directory: str | Path) -> Episode:
    directory = Path(directory)
    tensors = [dcst.read_tensor(directory / name) for name in _BUNDLE_FILES]
    meta_path = directory / "meta.txt"
    fields = read_fields(meta_path, _META_KEYS)
    for key in _META_KEYS:
        if key not in fields:
            raise IoError(f"{meta_path}: missing key {key!r}")
    return Episode(support_img=tensors[0], support_mask=tensors[1],
                   query_img=tensors[2], query_mask=tensors[3],
                   class_id=fields["class_id"], seed=fields["seed"])
