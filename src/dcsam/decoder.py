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

from dataclasses import dataclass

from . import tensor as T
from .errors import ShapeMismatch
from .tensor import Tensor


@dataclass(frozen=True)
class DecoderConfig:
    tau: float = 1.0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ShapeMismatch(f"tau must be positive, got {self.tau}")


def _branch_score(prompts: Tensor, flat_feats: Tensor, tau: float) -> Tensor:
    scores = T.matmul(prompts, flat_feats)            # [N, HW] or [B, N, HW]
    return T.scale(T.logsumexp0(T.scale(scores, 1.0 / tau)), tau)


def decode(pos_labeled: Tensor, neg_labeled: Tensor | None, feats: Tensor,
           cfg: DecoderConfig = DecoderConfig()) -> Tensor:
    """Decode labeled prompts against a feature map [d, H, W] into [H, W]
    probabilities, or per episode: [B, N, d] prompts against [B, d, H, W]
    maps into [B, H, W]."""
    if feats.ndim not in (3, 4):
        raise ShapeMismatch(f"decoder features must be [d, H, W] or [B, d, H, W], got {feats.shape}")
    lead = feats.shape[:-3]
    d, h, w = feats.shape[-3:]
    for name, prompts in (("positive", pos_labeled), ("negative", neg_labeled)):
        if prompts is not None and (prompts.ndim != len(lead) + 2 or prompts.shape[:-2] != lead
                                    or prompts.shape[-1] != d):
            raise ShapeMismatch(f"{name} prompts {prompts.shape} do not match features {feats.shape}")
    flat = T.reshape(feats, lead + (d, h * w))
    logit = _branch_score(pos_labeled, flat, cfg.tau)
    if neg_labeled is not None:
        logit = T.sub(logit, _branch_score(neg_labeled, flat, cfg.tau))
    return T.reshape(T.sigmoid(logit), lead + (h, w))
