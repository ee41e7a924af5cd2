"""Region and boundary quality metrics.

All metrics operate on binary masks at the data level; nothing here is
differentiable. Empty-versus-empty comparisons count as perfect agreement.

The counts behind IoU and boundary F are taken over the last two axes, so
one implementation scores a single mask pair [H, W] (``iou``,
``boundary_f``) and a whole stack of pairs [T, H, W] in one pass
(``mask_scores``, which ``jf_score``, the tube command and evaluation use).
The counts are integers, so a stacked value equals the single-pair one bit
for bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyReport, FrameCountMismatch, ShapeMismatch
from .tensor import Tensor, is_binary
from .util import atomic_write_text


def _binary(arr: np.ndarray, op: str) -> np.ndarray:
    if not is_binary(arr):
        raise ValueError(f"{op}: masks must be binary")
    return arr.astype(bool)


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _mask_pairs(preds: Sequence, gts: Sequence, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Two equally long sequences of masks [H, W] as boolean stacks
    [T, H, W]. Shapes are checked mask by mask before stacking, binarity
    once per stack."""
    if len(preds) != len(gts):
        raise FrameCountMismatch(f"{op}: {len(preds)} predicted and {len(gts)} reference masks")
    if len(preds) == 0:
        raise EmptyReport(f"{op} over zero masks")
    stacks = []
    for masks in (preds, gts):
        arrays = [_as_array(m) for m in masks]
        for arr in arrays:
            if arr.ndim != 2 or arr.shape != arrays[0].shape:
                raise ShapeMismatch(f"{op}: masks must be 2-D of one shape, got {arr.shape} "
                                    f"after {arrays[0].shape}")
        stacks.append(_binary(np.stack(arrays), op))
    p, g = stacks
    if p.shape != g.shape:
        raise ShapeMismatch(f"{op}: shapes {p.shape[1:]} and {g.shape[1:]} differ")
    return p, g


def _iou_values(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """IoU over the last two axes of boolean masks; empty unions score 1."""
    inter = np.logical_and(p, g).sum(axis=(-2, -1))
    union = np.logical_or(p, g).sum(axis=(-2, -1))
    return np.where(union == 0, 1.0, inter / np.maximum(union, 1))


def iou(pred, gt) -> float:
    """Intersection over union; two empty masks agree perfectly (1.0)."""
    return float(_iou_values(*_mask_pairs([pred], [gt], "iou"))[0])


def miou(per_class_iou: Mapping[int, float]) -> float:
    """Mean of per-class IoU values."""
    if not per_class_iou:
        raise EmptyReport("miou over zero classes")
    return float(sum(per_class_iou.values()) / len(per_class_iou))


def default_boundary_tol(shape: tuple[int, int]) -> int:
    """Chebyshev match tolerance of boundary F: ceil of 0.8% of the image
    diagonal, the fixed DAVIS protocol tolerance. It is at least 1."""
    h, w = shape
    return int(math.ceil(0.008 * math.hypot(h, w)))


def _boundary(m: np.ndarray) -> np.ndarray:
    pad = [(0, 0)] * (m.ndim - 2) + [(1, 1), (1, 1)]
    padded = np.pad(m, pad, mode="constant", constant_values=False)
    up = padded[..., :-2, 1:-1]
    down = padded[..., 2:, 1:-1]
    left = padded[..., 1:-1, :-2]
    right = padded[..., 1:-1, 2:]
    return m & ~(up & down & left & right)


def boundary_pixels(mask) -> np.ndarray:
    """1-pixel boundary under 4-connectivity of a mask [H, W], or of each mask
    of a stack [T, H, W]; the image border counts as outside."""
    arr = _as_array(mask)
    if arr.ndim not in (2, 3):
        raise ShapeMismatch(f"boundary_pixels: expected [H, W] or [T, H, W], got {arr.shape}")
    return _boundary(_binary(arr, "boundary_pixels"))


def _dilate_chebyshev(b: np.ndarray, tol: int) -> np.ndarray:
    """Dilate over the last two axes by a (2 tol + 1)-square window."""
    h, w = b.shape[-2:]
    out = np.zeros_like(b)
    for dr in range(-tol, tol + 1):
        for dc in range(-tol, tol + 1):
            src_r = slice(max(0, -dr), h - max(0, dr))
            dst_r = slice(max(0, dr), h - max(0, -dr))
            src_c = slice(max(0, -dc), w - max(0, dc))
            dst_c = slice(max(0, dc), w - max(0, -dc))
            out[..., dst_r, dst_c] |= b[..., src_r, src_c]
    return out


def _boundary_f_values(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Boundary F over the last two axes of boolean masks (see ``boundary_f``)."""
    tol = default_boundary_tol(p.shape[-2:])
    pb, gb = _boundary(p), _boundary(g)
    p_count, g_count = pb.sum(axis=(-2, -1)), gb.sum(axis=(-2, -1))
    p_hits = (pb & _dilate_chebyshev(gb, tol)).sum(axis=(-2, -1))
    g_hits = (gb & _dilate_chebyshev(pb, tol)).sum(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = p_hits / p_count
        recall = g_hits / g_count
        f = 2.0 * precision * recall / (precision + recall)
    both_free = (p_count == 0) & (g_count == 0)
    unmatched = (p_count == 0) | (g_count == 0) | (precision + recall == 0.0)
    return np.select([both_free, unmatched], [1.0, 0.0], f)


def boundary_f(pred, gt) -> float:
    """Boundary F-measure with bipartite matching within the Chebyshev
    tolerance ``default_boundary_tol`` of the mask shape.

    Precision is the fraction of predicted boundary pixels within that tolerance
    of the reference boundary; recall is symmetric; F is their harmonic mean.
    Two boundary-free masks score 1; exactly one boundary-free mask scores 0.
    """
    p, g = _mask_pairs([pred], [gt], "boundary_f")
    return float(_boundary_f_values(p, g)[0])


def mask_scores(preds: Sequence, gts: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """IoU and boundary F of each pair of two equally long sequences of masks
    [H, W] (tube frames, or the episodes of an evaluation), as two
    float arrays [T]. The masks are validated and stacked once and every
    pair is scored in one pass; each value equals ``iou`` / ``boundary_f``
    of its pair."""
    p, g = _mask_pairs(preds, gts, "mask_scores")
    return _iou_values(p, g), _boundary_f_values(p, g)


@dataclass(frozen=True)
class MetricReport:
    """Evaluation summary: per-class IoU (empty for single-instance tube
    scoring), J and F; ``miou`` and ``jf`` are derived from them."""

    per_class_iou: dict[int, float]
    j: float
    f: float

    @property
    def miou(self) -> float:
        """The mean of ``per_class_iou``; a tube has no class map, so J."""
        return miou(self.per_class_iou) if self.per_class_iou else self.j

    @property
    def jf(self) -> float:
        return 0.5 * (self.j + self.f)

    @classmethod
    def from_classes(cls, per_class_iou: Mapping[int, float], j: float, f: float) -> "MetricReport":
        return cls(per_class_iou=dict(per_class_iou), j=j, f=f)

    @classmethod
    def from_tube(cls, j: float, f: float) -> "MetricReport":
        return cls(per_class_iou={}, j=j, f=f)

    @classmethod
    def from_frames(cls, js: np.ndarray, fs: np.ndarray) -> "MetricReport":
        """The tube report of per-frame J and F values (see ``mask_scores``)."""
        return cls.from_tube(j=float(np.mean(js)), f=float(np.mean(fs)))


def jf_score(tube_pred, tube_gt) -> MetricReport:
    """J&F for a pair of mask tubes: J is the mean per-frame IoU, F the mean
    per-frame boundary F-measure, J&F their arithmetic mean."""
    return MetricReport.from_frames(*mask_scores(getattr(tube_pred, "masks", tube_pred),
                                                 getattr(tube_gt, "masks", tube_gt)))


def report_csv_text(fold: int, report: MetricReport) -> str:
    lines = ["fold,class_id,iou"]
    for class_id in sorted(report.per_class_iou):
        lines.append(f"{fold},{class_id},{report.per_class_iou[class_id]!r}")
    lines.append(
        f"# summary fold={fold} miou={report.miou!r} j={report.j!r} f={report.f!r} jf={report.jf!r}")
    return "\n".join(lines) + "\n"


def write_report(path: str | Path, fold: int, report: MetricReport) -> None:
    """Emit the per-class CSV plus a JSON summary sidecar, both atomically."""
    if not report.per_class_iou:
        raise EmptyReport("report has no per-class rows")
    path = Path(path)
    atomic_write_text(path, report_csv_text(fold, report))
    summary = {"fold": fold, "miou": report.miou, "j": report.j, "f": report.f, "jf": report.jf}
    atomic_write_text(path.with_suffix(".json"), json.dumps(summary, indent=2) + "\n")
