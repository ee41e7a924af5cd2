"""Segmentation losses over probability maps.

Both losses take a prediction in (0, 1) and a binary target of the same
shape and reduce to a scalar, or with ``batched=True`` to one loss per
episode of a stack [B, ...] -> [B]. The combined loss is their plain sum.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeMismatch
from .tensor import Tensor

CLAMP_LO = 1e-7
CLAMP_HI = 1.0 - 1e-7
DICE_EPS = 1e-6


def _check_pair(pred: Tensor, target: Tensor, op: str) -> None:
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{op}: prediction {pred.shape} vs target {target.shape}")
    if not np.isin(target.data, (0.0, 1.0)).all():
        raise ValueError(f"{op}: target must be binary")


def bce_loss(pred: Tensor, target: Tensor, batched: bool = False) -> Tensor:
    """Mean binary cross-entropy; predictions are clamped to [1e-7, 1 - 1e-7]."""
    _check_pair(pred, target, "bce_loss")
    p = T.clamp(pred, CLAMP_LO, CLAMP_HI)
    y = Tensor(target.data)
    one_minus_y = Tensor(1.0 - target.data)
    pos_term = T.mul(T.log(p), y)
    neg_term = T.mul(T.log(T.add_scalar(T.neg(p), 1.0)), one_minus_y)
    total = T.sum_all(T.add(pos_term, neg_term), batched)
    per_episode = pred.size // pred.shape[0] if batched else pred.size
    return T.scale(total, -1.0 / per_episode)


def dice_loss(pred: Tensor, target: Tensor, batched: bool = False) -> Tensor:
    """Soft Dice: 1 - 2*sum(p*y) / (sum(p^2) + sum(y^2) + eps)."""
    _check_pair(pred, target, "dice_loss")
    y = Tensor(target.data)
    inter = T.sum_all(T.mul(pred, y), batched)
    pred_sq = T.sum_all(T.mul(pred, pred), batched)
    sq = target.data ** 2
    target_sq = sq.reshape(len(sq), -1).sum(axis=1) if batched else sq.sum()
    denom = T.add(pred_sq, Tensor(target_sq + DICE_EPS))
    return T.add_scalar(T.neg(T.div(T.scale(inter, 2.0), denom)), 1.0)


def total_loss(pred: Tensor, target: Tensor, batched: bool = False) -> Tensor:
    """Sum of BCE and Dice, exactly."""
    return T.add(bce_loss(pred, target, batched), dice_loss(pred, target, batched))
