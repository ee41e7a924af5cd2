"""Mask tubes: synthetic video episodes and first-frame prompt propagation.

A tube is T frames with aligned binary masks. Synthetic tubes warp the base
frame (the episode's query) by a per-frame recorded transform; the walk is
smooth (translation steps of at most 2 px per frame, scale moving along a
fixed grid, flip fixed per tube) and frame 0 is always the identity.

Warp semantics (nearest neighbor, background fill 0): a destination pixel
pulls from ``inv(p) = unscale(unflip(p - translation))`` where scaling is
about the canvas center and flipping is horizontal. Masks warp with the
same map, so they stay binary. ``make_tube`` draws every transform first,
then pulls the image and the mask of frames 1.. through one stacked source
map; ``warp`` is the one-transform case of the same code.

Propagation (the in-context video setting) generates the prompts once, on
frame 0, and decodes every frame with them. Frames go through the encoder
and decoder in stacks of ``FRAME_CHUNK``. Only frame 0's ``mid`` and
``high`` maps are ever read (for the prompts and the prior), so every frame
is projected to ``sam`` and frame 0 alone, from the first stack's single
descriptor pass, to all three maps (``StubEncoder.encode_frames``). The
encoder is exact per image and shared-prompt decoding is exact per map, so
the predicted masks equal those of a frame-by-frame loop bit for bit, while
the chunk bounds the memory a long tube holds at once.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoder import StubEncoder
from .episodes import Episode
from . import dcst
from .errors import FrameCountMismatch, IoError, ShapeMismatch
from .config import TrainConfig
from .pipeline import ModelParams, downsample_mask, generate_prompts, upsample_map
from .decoder import decode
from .seeding import rng_for, tag
from .tensor import Tensor, adopt, binarize, is_binary
from .util import read_fields

IDENTITY_SCALE = 1.0
MAX_TRANSLATION_STEP = 2
DEFAULT_SCALE_GRID = (0.9, 1.0, 1.1)
# Frames encoded and decoded as one stack during propagation. With 32-frame
# tubes at canvas 32 (one thread, 15 s benchmark runs), stacks of 4, 8 and 16
# ran within noise of each other (raw p50 1.32-1.43, 1.29-1.42 and
# 1.28-1.34 ms per frame), while peak RSS grew by 1.0 and 2.4 MB at 8 and 16.
# A whole tube at once ran 1.64 ms per frame, faulted in about 3,400 fresh
# pages per tube and raised peak RSS by about 16 MB.
FRAME_CHUNK = 4


@dataclass(frozen=True)
class TransformSpec:
    dx: int
    dy: int
    flip: bool
    scale: float

    def is_identity(self) -> bool:
        return self.dx == 0 and self.dy == 0 and not self.flip and self.scale == IDENTITY_SCALE


@dataclass(frozen=True)
class MaskTube:
    """Aligned frames, masks, and the per-frame transforms of the frames.

    For synthetic tubes every mask is exactly the base mask warped by its
    frame's transform, by construction. Predicted tubes keep the source
    frames and transforms but carry model masks. ``validate`` checks the
    schema (counts, shapes, binary masks, identity frame 0, finite positive
    scales) where a tube is saved or propagated; ``load_tube`` checks the
    same of the files it reads.
    """

    frames: tuple[Tensor, ...]
    masks: tuple[Tensor, ...]
    transforms: tuple[TransformSpec, ...]
    class_id: int
    seed: int

    def __len__(self) -> int:
        return len(self.frames)

    def validate(self) -> None:
        if not (len(self.frames) == len(self.masks) == len(self.transforms)):
            raise FrameCountMismatch(
                f"{len(self.frames)} frames, {len(self.masks)} masks, "
                f"{len(self.transforms)} transforms")
        if len(self.frames) < 1:
            raise FrameCountMismatch("a tube needs at least one frame, got 0")
        shape = self.frames[0].shape
        if any(t.shape != shape for t in self.frames + self.masks):
            raise ShapeMismatch("tube frames and masks must share one shape")
        if not is_binary(np.stack([mk.data for mk in self.masks])):
            raise ValueError("tube masks must be binary")
        for t, spec in enumerate(self.transforms):
            if not 0.0 < spec.scale < math.inf:
                raise ValueError(f"frame {t} has scale {spec.scale}, not finite and positive")
        if not self.transforms[0].is_identity():
            raise ValueError("frame 0 must carry the identity transform")


def warp(array: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Nearest-neighbor warp of a 2-D array by (scale, flip, translate)."""
    return _pull(array, _source_map(array.shape, [spec]))[0]


def _source_map(shape: tuple[int, int], specs: Sequence[TransformSpec]):
    """Where each destination pixel of each spec's warp pulls from: the
    mask [K, H, W] of the destinations whose source lies on the canvas, and
    those sources' rows and columns. A warp is separable, so source rows are
    computed per destination row [K, H, 1] and source columns per column
    [K, 1, W]; the arithmetic is elementwise, so each warp has the bits it
    has alone. Sources are clipped to one pixel past the canvas before the
    integer cast, so a tiny scale's huge offsets stay off the canvas
    instead of overflowing the cast."""
    h, w = shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0

    def per_spec(field: str, dtype) -> np.ndarray:
        return np.array([getattr(spec, field) for spec in specs], dtype=dtype)[:, None, None]

    v = np.arange(h)[:, None] - per_spec("dy", np.int64)
    u = np.arange(w) - per_spec("dx", np.int64)
    u = np.where(per_spec("flip", bool), (w - 1) - u, u)
    scale = per_spec("scale", np.float64)
    src_r = np.clip(np.floor((v - cy) / scale + cy + 0.5), -1, h).astype(np.int64)
    src_c = np.clip(np.floor((u - cx) / scale + cx + 0.5), -1, w).astype(np.int64)
    inside = ((src_r >= 0) & (src_r < h)) & ((src_c >= 0) & (src_c < w))
    return (inside, np.broadcast_to(src_r, inside.shape)[inside],
            np.broadcast_to(src_c, inside.shape)[inside])


def _pull(array: np.ndarray, source_map) -> np.ndarray:
    """The warps [K, H, W] of one 2-D array through a source map."""
    inside, rows, cols = source_map
    out = np.zeros(inside.shape)
    out[inside] = array[rows, cols]
    return out


def make_tube(ep: Episode, t_frames: int, seed: int, *,
              scale_grid: Sequence[float] = DEFAULT_SCALE_GRID,
              allow_flip: bool = True) -> MaskTube:
    """Smooth random-walk tube over the episode's query frame.

    Frame 0 is the query unchanged. Translation drifts by at most
    ``MAX_TRANSLATION_STEP`` px per frame and per axis; scale walks at most
    one grid index per frame, over finite positive scales; a flip, when
    drawn, applies from frame 1 on.
    """
    if t_frames < 1:
        raise FrameCountMismatch(f"t_frames must be >= 1, got {t_frames}")
    scale_grid = tuple(float(s) for s in scale_grid)
    if not all(0.0 < s < math.inf for s in scale_grid):
        raise ValueError(f"scale grid {scale_grid} must hold finite positive scales")
    if IDENTITY_SCALE not in scale_grid:
        raise ValueError(f"scale grid {scale_grid} must contain 1.0 (frame 0 is unwarped)")
    rng = rng_for(seed, tag("tube"), ep.class_id)
    flip = bool(rng.integers(0, 2)) if allow_flip else False
    transforms = [TransformSpec(dx=0, dy=0, flip=False, scale=IDENTITY_SCALE)]
    dx = dy = 0
    scale_idx = scale_grid.index(IDENTITY_SCALE)
    for _ in range(1, t_frames):
        dx += int(rng.integers(-MAX_TRANSLATION_STEP, MAX_TRANSLATION_STEP + 1))
        dy += int(rng.integers(-MAX_TRANSLATION_STEP, MAX_TRANSLATION_STEP + 1))
        if len(scale_grid) > 1:
            scale_idx = min(max(scale_idx + int(rng.integers(-1, 2)), 0), len(scale_grid) - 1)
        transforms.append(TransformSpec(dx=dx, dy=dy, flip=flip, scale=scale_grid[scale_idx]))
    source = _source_map(ep.query_img.shape, transforms[1:])
    frames = (ep.query_img,) + tuple(adopt(f) for f in _pull(ep.query_img.data, source))
    masks = (ep.query_mask,) + tuple(adopt(m) for m in _pull(ep.query_mask.data, source))
    return MaskTube(frames=frames, masks=masks, transforms=tuple(transforms),
                    class_id=ep.class_id, seed=int(seed))


def propagate_first_frame(tube: MaskTube, support_img: Tensor, support_mask: Tensor,
                          params: ModelParams, cfg: TrainConfig,
                          encoder: StubEncoder) -> MaskTube:
    """Freeze the labeled prompts on frame 0, then decode every frame with them.

    The frames run through the encoder and the decoder in stacks of
    ``FRAME_CHUNK``, with the prompts shared by every frame of a stack; the
    prompts are generated from frame 0's maps in the first stack. A
    single-frame tube reduces exactly to image inference. Returns a tube
    with the source frames and transforms but predicted masks.
    """
    tube.validate()
    enc_s = encoder.encode(support_img)
    mask_feat = downsample_mask(support_mask, encoder.stride)
    prompts = None
    predicted: list[Tensor] = []
    for start in range(0, len(tube), FRAME_CHUNK):
        chunk = tube.frames[start:start + FRAME_CHUNK]
        first, sam = encoder.encode_frames(np.stack([f.data for f in chunk]),
                                            first=prompts is None)
        if prompts is None:
            prompts, _ = generate_prompts(enc_s, first, mask_feat, params, cfg)
        probs = decode(prompts.pos, prompts.neg, sam, cfg.tau)
        predicted.extend(adopt(m) for m in binarize(upsample_map(probs, encoder.stride)).data)
    return MaskTube(frames=tube.frames, masks=tuple(predicted), transforms=tube.transforms,
                    class_id=tube.class_id, seed=tube.seed)


# On-disk tube layout: frames/frame_%04d.dcst, masks/mask_%04d.dcst, meta.txt.

_META_KEYS = ("class_id", "seed", "frames")
# Scales are written with ``repr`` (exponent notation below 1e-4 and from
# 1e16); the reader parses that grammar, signed, and never inf or nan.
_META_TRANSFORM = re.compile(
    r"^(\d+)\s+(-?\d+)\s+(-?\d+)\s+([01])\s+(-?\d+(?:\.\d+)?(?:e[-+]\d+)?)$")


def save_tube(directory: str | Path, tube: MaskTube) -> None:
    tube.validate()
    tensors = {f"frames/frame_{t:04d}.dcst": frame for t, frame in enumerate(tube.frames)}
    tensors.update({f"masks/mask_{t:04d}.dcst": mask for t, mask in enumerate(tube.masks)})
    lines = [f"class_id = {tube.class_id}", f"seed = {tube.seed}", f"frames = {len(tube)}"]
    for t, spec in enumerate(tube.transforms):
        lines.append(f"{t} {spec.dx} {spec.dy} {int(spec.flip)} {spec.scale!r}")
    dcst.write_bundle(directory, tensors, {"meta.txt": "\n".join(lines) + "\n"})


def load_tube(directory: str | Path) -> MaskTube:
    directory = Path(directory)
    meta_path = directory / "meta.txt"
    transforms: dict[int, TransformSpec] = {}

    def transform_line(line: str) -> bool:
        m = _META_TRANSFORM.match(line)
        if m is None:
            return False
        index = int(m.group(1))
        if index in transforms:
            raise IoError(f"{meta_path}: repeated transform index {index}")
        scale = float(m.group(5))
        if not 0.0 < scale < math.inf:
            raise IoError(f"{meta_path}: frame {index} has scale {scale}, not finite and positive")
        transforms[index] = TransformSpec(dx=int(m.group(2)), dy=int(m.group(3)),
                                          flip=bool(int(m.group(4))), scale=scale)
        return True

    fields = read_fields(meta_path, _META_KEYS, transform_line)
    count = fields["frames"]
    if count < 1:
        raise IoError(f"{meta_path}: frame count {count} is below 1")
    # the log's length bounds the count before a list of that size is built
    if len(transforms) != count or sorted(transforms) != list(range(count)):
        raise IoError(f"{meta_path}: transform log does not cover frames 0..{count - 1}")
    if not transforms[0].is_identity():
        raise IoError(f"{meta_path}: frame 0 must carry the identity transform")
    tensors = dcst.read_bundle(directory, [f"frames/frame_{t:04d}.dcst" for t in range(count)],
                               [f"masks/mask_{t:04d}.dcst" for t in range(count)])
    return MaskTube(frames=tuple(tensors[:count]), masks=tuple(tensors[count:]),
                    transforms=tuple(transforms[t] for t in range(count)),
                    class_id=fields["class_id"], seed=fields["seed"])
