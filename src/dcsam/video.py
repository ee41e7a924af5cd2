"""Mask tubes: synthetic video episodes and first-frame prompt propagation.

A tube is T frames with aligned binary masks. Synthetic tubes warp the base
frame (the episode's query) by a per-frame recorded transform; the walk is
smooth (translation steps of at most 2 px per frame, scale moving along a
fixed grid, flip fixed per tube) and frame 0 is always the identity.

Warp semantics (nearest neighbor, background fill 0): a destination pixel
pulls from ``inv(p) = unscale(unflip(p - translation))`` where scaling is
about the canvas center and flipping is horizontal. Masks warp with the
same map, so they stay binary.

Propagation (the in-context video setting) generates the prompts once, on
frame 0, and decodes every frame with them. Frames go through the batched
encoder and decoder in stacks of ``FRAME_CHUNK``; frame 0's maps come from
the first stack, so no frame is encoded twice. The encoder is exact per
image and shared-prompt decoding is exact per map, so the predicted masks
equal those of a frame-by-frame loop bit for bit, while the chunk bounds
the memory a long tube holds at once.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoder import StubEncoder
from .episodes import Episode, grid
from . import dcst
from .errors import FrameCountMismatch, IoError, ShapeMismatch
from .pipeline import ModelParams, PipelineConfig, downsample_mask, generate_prompts, upsample_map
from .decoder import decode
from .seeding import rng_for, tag
from .tensor import Tensor, binarize
from .util import read_fields

IDENTITY_SCALE = 1.0
MAX_TRANSLATION_STEP = 2
DEFAULT_SCALE_GRID = (0.9, 1.0, 1.1)
# Frames encoded and decoded as one stack during propagation. At canvas 32,
# 4 frames ran as fast per frame as 8 or 16 with the smallest working set;
# a whole 32-frame tube at once faulted in fresh pages on every tube, ran
# slower and raised peak RSS by about 20 MB.
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
    schema (counts, shapes, binary masks, identity frame 0) where a tube
    enters from outside: loading, saving and propagation.
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
            raise FrameCountMismatch("a tube needs at least one frame")
        shape = self.frames[0].shape
        for fr, mk in zip(self.frames, self.masks):
            if fr.shape != shape or mk.shape != shape:
                raise ShapeMismatch("tube frames and masks must share one shape")
            if not np.isin(mk.data, (0.0, 1.0)).all():
                raise ValueError("tube masks must be binary")
        if not self.transforms[0].is_identity():
            raise ValueError("frame 0 must carry the identity transform")


def warp(array: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Nearest-neighbor warp of a 2-D array by (scale, flip, translate)."""
    return _pull(array, _source_map(array.shape, spec))


def _source_map(shape: tuple[int, int], spec: TransformSpec):
    """Where each destination pixel of a warp pulls from: the mask of the
    destinations whose source lies on the canvas, and those sources' rows
    and columns."""
    h, w = shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rr, cc = grid(h, w)
    v = rr - spec.dy
    u = cc - spec.dx
    if spec.flip:
        u = (w - 1) - u
    src_r = np.floor((v - cy) / spec.scale + cy + 0.5).astype(np.int64)
    src_c = np.floor((u - cx) / spec.scale + cx + 0.5).astype(np.int64)
    inside = (src_r >= 0) & (src_r < h) & (src_c >= 0) & (src_c < w)
    return inside, src_r[inside], src_c[inside]


def _pull(array: np.ndarray, source_map) -> np.ndarray:
    inside, rows, cols = source_map
    out = np.zeros(array.shape)
    out[inside] = array[rows, cols]
    return out


def make_tube(ep: Episode, t_frames: int, seed: int, *,
              max_step: int = MAX_TRANSLATION_STEP,
              scale_grid: Sequence[float] = DEFAULT_SCALE_GRID,
              allow_flip: bool = True) -> MaskTube:
    """Smooth random-walk tube over the episode's query frame.

    Frame 0 is the query unchanged. Translation drifts by at most
    ``max_step`` px per frame and per axis; scale walks at most one grid
    index per frame; a flip, when drawn, applies from frame 1 on.
    """
    if t_frames < 1:
        raise FrameCountMismatch(f"t_frames must be >= 1, got {t_frames}")
    scale_grid = tuple(float(s) for s in scale_grid)
    if IDENTITY_SCALE not in scale_grid:
        raise ValueError(f"scale grid {scale_grid} must contain 1.0 (frame 0 is unwarped)")
    rng = rng_for(seed, tag("tube"), ep.class_id)
    flip = bool(rng.integers(0, 2)) if allow_flip else False
    base_img = ep.query_img.data
    base_mask = ep.query_mask.data
    frames = [ep.query_img]
    masks = [ep.query_mask]
    transforms = [TransformSpec(dx=0, dy=0, flip=False, scale=IDENTITY_SCALE)]
    dx = dy = 0
    scale_idx = scale_grid.index(IDENTITY_SCALE)
    for _ in range(1, t_frames):
        dx += int(rng.integers(-max_step, max_step + 1))
        dy += int(rng.integers(-max_step, max_step + 1))
        if len(scale_grid) > 1:
            scale_idx = int(np.clip(scale_idx + rng.integers(-1, 2), 0, len(scale_grid) - 1))
        spec = TransformSpec(dx=dx, dy=dy, flip=flip, scale=scale_grid[scale_idx])
        source = _source_map(base_img.shape, spec)
        frames.append(Tensor(_pull(base_img, source)))
        masks.append(Tensor(_pull(base_mask, source)))
        transforms.append(spec)
    return MaskTube(frames=tuple(frames), masks=tuple(masks), transforms=tuple(transforms),
                    class_id=ep.class_id, seed=int(seed))


def propagate_first_frame(tube: MaskTube, support_img: Tensor, support_mask: Tensor,
                          params: ModelParams, cfg: PipelineConfig,
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
    dec_cfg = cfg.decoder_config()
    prompts = None
    predicted: list[Tensor] = []
    for start in range(0, len(tube), FRAME_CHUNK):
        chunk = tube.frames[start:start + FRAME_CHUNK]
        maps = encoder.encode(Tensor(np.stack([f.data for f in chunk])), batched=True)
        if prompts is None:
            prompts, _ = generate_prompts(enc_s, maps.at(0), mask_feat, params, cfg)
        probs = decode(prompts.pos, prompts.neg, maps.sam, dec_cfg)
        predicted.extend(Tensor(m) for m in binarize(upsample_map(probs, encoder.stride)).data)
    return MaskTube(frames=tube.frames, masks=tuple(predicted), transforms=tube.transforms,
                    class_id=tube.class_id, seed=tube.seed)


# On-disk tube layout: frames/frame_%04d.dcst, masks/mask_%04d.dcst, meta.txt.

_META_KEYS = ("class_id", "seed", "frames")
_META_TRANSFORM = re.compile(
    r"^(\d+)\s+(-?\d+)\s+(-?\d+)\s+([01])\s+(-?\d+(?:\.\d+)?)$")


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
        transforms[index] = TransformSpec(dx=int(m.group(2)), dy=int(m.group(3)),
                                          flip=bool(int(m.group(4))), scale=float(m.group(5)))
        return True

    fields = read_fields(meta_path, _META_KEYS, transform_line)
    for key in _META_KEYS:
        if key not in fields:
            raise IoError(f"{meta_path}: missing key {key!r}")
    count = fields["frames"]
    if count < 1:
        raise IoError(f"{meta_path}: frame count {count} is below 1")
    # the log's length bounds the count before a list of that size is built
    if len(transforms) != count or sorted(transforms) != list(range(count)):
        raise IoError(f"{meta_path}: transform log does not cover frames 0..{count - 1}")
    tube = MaskTube(
        frames=tuple(dcst.read_tensor(directory / "frames" / f"frame_{t:04d}.dcst")
                     for t in range(count)),
        masks=tuple(dcst.read_tensor(directory / "masks" / f"mask_{t:04d}.dcst")
                    for t in range(count)),
        transforms=tuple(transforms[t] for t in range(count)),
        class_id=fields["class_id"], seed=fields["seed"])
    tube.validate()
    return tube
