"""Synthetic in-context segmentation episodes.

Sixteen classes: eight shape families, each in two texture variants
(class_id = family * 2 + variant). A scene is low background noise, one or
two distractor shapes from other classes, and one target instance painted
last; the mask covers the target instance only. Foreground area is kept
inside [2%, 50%] of the canvas and distractors may overlap the target by at
most 10% of the target's area. Everything is deterministic per
(class_id, seed, canvas).

A shape is a cached stamp of its own bounding box, placed on the canvas:
the area test reads the stamp's cached area, the overlap test and the paint
touch only the box, and the target mask is written once per scene.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import dcst
from .errors import NonDivisibleClassCount, ShapeMismatch, UnknownClass
from .seeding import rng_for, tag
from .tensor import Tensor, adopt
from .util import read_fields

CLASS_COUNT = 16
MIN_CANVAS = 8
# COCO-20^i and PASCAL-5^i both split their classes into four folds.
FOLD_COUNT = 4

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
    train_classes: tuple[int, ...]
    test_classes: tuple[int, ...]


def class_registry() -> tuple[int, ...]:
    return tuple(range(CLASS_COUNT))


def split_folds(classes: Sequence[int], fold: int) -> FoldSplit:
    """Contiguous class folds: of C classes in FOLD_COUNT folds, fold k holds
    classes[k*C/4 : (k+1)*C/4] for testing."""
    classes = tuple(int(c) for c in classes)
    if len(classes) % FOLD_COUNT != 0:
        raise NonDivisibleClassCount(
            f"{len(classes)} classes do not split into {FOLD_COUNT} folds")
    if not 0 <= fold < FOLD_COUNT:
        raise ValueError(f"fold index {fold} outside [0, {FOLD_COUNT})")
    per = len(classes) // FOLD_COUNT
    test = classes[fold * per:(fold + 1) * per]
    train = classes[:fold * per] + classes[(fold + 1) * per:]
    return FoldSplit(train_classes=train, test_classes=test)


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


# A stamp is a shape inside its own bounding box: (rows, area, pixels,
# shape), that is one integer per row (bit j is column j), the True count,
# the boolean pixels as bytes and the box's (height, width). Stamps depend on
# shape parameters only, so one cached stamp serves every position; each is
# what a raster of the whole canvas holds inside the box, and nothing of that
# raster lies outside it (``oracles.run_episodes_suite`` holds the two to
# equal bytes). A stamp is built of Python objects, not arrays: filling the
# cache mid-run then puts nothing long-lived on the C heap between a step's
# large temporaries, where it would change what the heap can return to the
# system and so how much memory later steps fault in.
Stamp = tuple[tuple[int, ...], int, bytes, tuple[int, int]]
# A footprint is a stamp and the canvas row and column of its box's corner;
# every family and the fallback block keep the box inside the canvas.
Footprint = tuple[Stamp, int, int]


# All 16 classes at 50 seeds on canvases 8, 16 and 32 use about 1,200
# distinct stamps; the bound keeps memory flat however many canvases a
# process draws on.
@functools.lru_cache(maxsize=4096)
def _stamp(shape: Callable[..., np.ndarray], *params: int) -> Stamp:
    """The stamp of the pixels ``shape(*params)``, built once."""
    pixels = shape(*params)
    rows = tuple(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                 for row in pixels)
    return rows, sum(r.bit_count() for r in rows), pixels.tobytes(), pixels.shape


def _pixels(stamp: Stamp) -> np.ndarray:
    """A stamp's pixels, a read-only view of its bytes."""
    return np.frombuffer(stamp[2], dtype=bool).reshape(stamp[3])


def _block_stamp(rows: int, cols: int) -> np.ndarray:
    return np.ones((rows, cols), dtype=bool)


def _disk_stamp(r: int) -> np.ndarray:
    rr, cc = np.ogrid[:2 * r + 1, :2 * r + 1]
    return (rr - r) ** 2 + (cc - r) ** 2 <= r * r


def _triangle_stamp(s: int, k: int) -> np.ndarray:
    a, b = np.ogrid[:s, :s]
    aa = a if k < 2 else s - 1 - a
    bb = b if k % 2 == 0 else s - 1 - b
    return aa + bb < s


def _ring_stamp(r_out: int) -> np.ndarray:
    r_in = max(1, int(r_out * 0.5))
    rr, cc = np.ogrid[:2 * r_out + 1, :2 * r_out + 1]
    d2 = (rr - r_out) ** 2 + (cc - r_out) ** 2
    return (d2 <= r_out * r_out) & (d2 > r_in * r_in)


def _cross_stamp(a: int, t: int) -> np.ndarray:
    # the arm half-width t never exceeds the arm length a, so the box is 2a + 1
    rr, cc = np.ogrid[:2 * a + 1, :2 * a + 1]
    return (np.abs(rr - a) <= t) | (np.abs(cc - a) <= t)


def _lshape_stamp(s1: int, s2: int, t: int, k: int) -> np.ndarray:
    # the arm thickness t never exceeds s1 or s2, so the box is s1 x s2
    a, b = np.ogrid[:s1, :s2]
    if k >= 2:
        a = (s1 - 1) - a
    if k % 2 == 1:
        b = (s2 - 1) - b
    return (b < t) | (a < t)


def _diamond_stamp(r: int) -> np.ndarray:
    rr, cc = np.ogrid[:2 * r + 1, :2 * r + 1]
    return np.abs(rr - r) + np.abs(cc - r) <= r


def _box(cy: int, cx: int, ry: int, rx: int) -> Footprint:
    return _stamp(_block_stamp, 2 * ry + 1, 2 * rx + 1), cy - ry, cx - rx


def _disk(rng, h, w):
    m = min(h, w)
    r = int(rng.integers(max(1, m // 8), max(2, int(m / 3.2)) + 1))
    cy, cx = _centered(rng, h, w, r, r)
    return _stamp(_disk_stamp, r), cy - r, cx - r


def _rectangle(rng, h, w):
    hy = int(rng.integers(1, max(2, h // 4) + 1))
    hx = int(rng.integers(1, max(2, w // 4) + 1))
    cy, cx = _centered(rng, h, w, hy, hx)
    return _box(cy, cx, hy, hx)


def _triangle(rng, h, w):
    m = min(h, w)
    s = int(rng.integers(3, max(4, int(m * 0.66)) + 1))
    r0 = int(rng.integers(0, h - s + 1))
    c0 = int(rng.integers(0, w - s + 1))
    k = int(rng.integers(0, 4))
    return _stamp(_triangle_stamp, s, k), r0, c0


def _ring(rng, h, w):
    m = min(h, w)
    r_out = int(rng.integers(max(2, m // 5), max(3, int(m / 2.6)) + 1))
    cy, cx = _centered(rng, h, w, r_out, r_out)
    return _stamp(_ring_stamp, r_out), cy - r_out, cx - r_out


def _cross(rng, h, w):
    m = min(h, w)
    a = int(rng.integers(max(2, m // 5), max(3, m // 2 - 1) + 1))
    t = int(rng.integers(0, max(1, m // 10) + 1))
    cy, cx = _centered(rng, h, w, a, a)
    return _stamp(_cross_stamp, a, t), cy - a, cx - a


def _bar(rng, h, w):
    m = min(h, w)
    t = int(rng.integers(0, max(1, m // 10) + 1))
    if int(rng.integers(0, 2)) == 0:
        half = int(rng.integers(w // 2, w - 1)) // 2
        cy, cx = _centered(rng, h, w, t, half)
        return _box(cy, cx, t, half)
    half = int(rng.integers(h // 2, h - 1)) // 2
    cy, cx = _centered(rng, h, w, half, t)
    return _box(cy, cx, half, t)


def _lshape(rng, h, w):
    m = min(h, w)
    s1 = int(rng.integers(max(2, m // 3), max(3, int(m * 0.6)) + 1))
    s2 = int(rng.integers(max(2, m // 3), max(3, int(m * 0.6)) + 1))
    t = int(rng.integers(1, max(2, m // 6) + 1))
    r0 = int(rng.integers(0, h - s1))
    c0 = int(rng.integers(0, w - s2))
    k = int(rng.integers(0, 4))
    return _stamp(_lshape_stamp, s1, s2, t, k), r0, c0


def _checkerblob(rng, h, w):
    m = min(h, w)
    r = int(rng.integers(max(1, m // 5), max(2, int(m / 2.4)) + 1))
    cy, cx = _centered(rng, h, w, r, r)
    return _stamp(_diamond_stamp, r), cy - r, cx - r


_FAMILIES: tuple[Callable, ...] = (
    _disk, _rectangle, _triangle, _ring, _cross, _bar, _lshape, _checkerblob)


def _area_bounds(h: int, w: int) -> tuple[int, int]:
    return max(2, int(math.ceil(MIN_AREA_FRAC * h * w))), int(math.floor(MAX_AREA_FRAC * h * w))


def _sample_footprint(class_id: int, rng: np.random.Generator, h: int, w: int,
                      lo: int, hi: int) -> Footprint:
    draw = _FAMILIES[class_id // 2]
    for _ in range(200):
        fp = draw(rng, h, w)
        if lo <= fp[0][1] <= hi:
            return fp
    # Degenerate canvas: fall back to a centered block of area in [lo, hi]
    # inside the canvas, square where the canvas is tall and wide enough;
    # otherwise it spans the short side and is as long as lo needs.
    side = math.isqrt(lo - 1) + 1  # the smallest side whose square reaches lo
    if h < side:
        rows, cols = h, -(-lo // h)
    elif w < side:
        rows, cols = -(-lo // w), w
    else:
        rows = cols = side
    return _stamp(_block_stamp, rows, cols), (h - rows) // 2, (w - cols) // 2


def _shared_pixels(fp: Footprint, target_rows: list[int]) -> int:
    """Pixels a footprint shares with the target, given as one integer per
    canvas row: only the footprint's rows are visited."""
    stamp, top, left = fp
    shared = 0
    for i, bits in enumerate(stamp[0], top):
        shared += ((bits << left) & target_rows[i]).bit_count()
    return shared


def _paint(img: np.ndarray, footprint: Footprint, class_id: int,
           rng: np.random.Generator) -> None:
    """Fill the footprint's pixels of ``img``. Texture follows canvas
    coordinates: variant 1 dims the canvas's odd rows, and the checkerblob
    family dims pixels whose row plus column is odd."""
    stamp, top, left = footprint
    pixels = _pixels(stamp)
    base = float(rng.uniform(0.72, 0.95))
    view = img[top:top + pixels.shape[0], left:left + pixels.shape[1]]
    np.copyto(view, base, where=pixels)
    if class_id % 2 == 1:
        odd = (top + 1) % 2  # the box's first row that is odd on the canvas
        np.copyto(view[odd::2], base * 0.62, where=pixels[odd::2])
    if class_id // 2 == 7:
        for r0 in (0, 1):  # box rows of each parity, where canvas row + column is odd
            c0 = (top + left + r0 + 1) % 2
            cells = view[r0::2, c0::2]
            np.copyto(cells, cells * 0.8, where=pixels[r0::2, c0::2])


def _draw_scene(class_id: int, rng: np.random.Generator, h: int, w: int):
    img = rng.uniform(0.0, 0.25, (h, w))
    lo, hi = _area_bounds(h, w)
    target = _sample_footprint(class_id, rng, h, w, lo, hi)
    (rows, area, _, _), top, left = target
    target_rows = [0] * h
    target_rows[top:top + len(rows)] = [bits << left for bits in rows]
    overlap_limit = MAX_OVERLAP_FRAC * area
    placed = []
    for _ in range(int(rng.integers(1, 3))):
        other = int(rng.integers(0, CLASS_COUNT - 1))
        if other >= class_id:
            other += 1
        for _attempt in range(50):
            fp = _sample_footprint(other, rng, h, w, lo, hi)
            if _shared_pixels(fp, target_rows) <= overlap_limit:
                placed.append((other, fp))
                break
    for other, fp in placed:
        _paint(img, fp, other, rng)
    _paint(img, target, class_id, rng)
    img *= _QUANT
    np.round(img, out=img)
    img /= _QUANT
    pixels = _pixels(target[0])
    mask = np.zeros((h, w))
    mask[top:top + pixels.shape[0], left:left + pixels.shape[1]] = pixels
    return img, mask


def gen_episode(class_id: int, seed: int, canvas: tuple[int, int] = (16, 16)) -> Episode:
    """One support/query pair of the class, with fresh poses per side."""
    if not 0 <= int(class_id) < CLASS_COUNT:
        raise UnknownClass(f"class_id {class_id} outside [0, {CLASS_COUNT})")
    h, w = int(canvas[0]), int(canvas[1])
    if h < MIN_CANVAS or w < MIN_CANVAS:
        raise ShapeMismatch(f"canvas {h}x{w} below the {MIN_CANVAS}x{MIN_CANVAS} minimum")
    s_img, s_mask = _draw_scene(class_id, rng_for(seed, tag("support"), class_id), h, w)
    q_img, q_mask = _draw_scene(class_id, rng_for(seed, tag("query"), class_id), h, w)
    # the scene arrays are fresh and finite by construction
    return Episode(support_img=adopt(s_img), support_mask=adopt(s_mask),
                   query_img=adopt(q_img), query_mask=adopt(q_mask),
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
    s_img, q_img, s_mask, q_mask = dcst.read_bundle(directory, _BUNDLE_FILES[::2], _BUNDLE_FILES[1::2])
    meta_path = directory / "meta.txt"
    fields = read_fields(meta_path, _META_KEYS)
    return Episode(support_img=s_img, support_mask=s_mask, query_img=q_img, query_mask=q_mask,
                   class_id=fields["class_id"], seed=fields["seed"])
