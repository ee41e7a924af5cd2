"""Parameter-free similarity decoder.

Scores each feature-map position against the labeled prompts of a branch
with a temperature-smoothed maximum (logsumexp), then squashes the positive
and negative branch difference:

    s+(p) = tau * logsumexp_i(<pos_i, f_p> / tau)
    s-(p) = tau * logsumexp_i(<neg_i, f_p> / tau)
    out(p) = sigmoid(s+(p) - s-(p))

With the negative branch disabled (no negative prompts) the logit is s+
alone, thresholding at zero score.
"""
from __future__ import annotations

import math

from . import tensor as T
from .errors import ShapeMismatch
from .tensor import Tensor


def _branch_score(prompts: Tensor, flat_feats: Tensor, tau: float) -> Tensor:
    scores = T.matmul(prompts, flat_feats)            # [N, HW] or [B, N, HW]
    return T.scale(T.logsumexp0(T.scale(scores, 1.0 / tau)), tau)


def decode(pos_labeled: Tensor, neg_labeled: Tensor | None, feats: Tensor,
           tau: float) -> Tensor:
    """Decode labeled prompts against a feature map [d, H, W] into [H, W]
    probabilities, or per episode: [B, N, d] prompts against [B, d, H, W]
    maps into [B, H, W]. Prompts [N, d] against [B, d, H, W] maps are shared
    by every map of the stack, as a 2-D operand is in ``matmul``."""
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if feats.ndim not in (3, 4):
        raise ShapeMismatch(f"decoder features must be [d, H, W] or [B, d, H, W], got {feats.shape}")
    lead = feats.shape[:-3]
    d, h, w = feats.shape[-3:]
    flat = T.reshape(feats, lead + (d, h * w))
    logit = _branch_score(pos_labeled, flat, tau)
    if neg_labeled is not None:
        logit = T.sub(logit, _branch_score(neg_labeled, flat, tau))
    return T.reshape(T.sigmoid(logit), lead + (h, w))
