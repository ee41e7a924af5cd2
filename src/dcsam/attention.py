"""Cross-attention with an optional cyclic-consistency bias.

``cross_attention`` is the one attention routine: given a support mask,
it adds the round-trip bias of ``cycle_bias`` to its scores, and self- and
cycle-consistent attention are calls of it. The bias walks each support
position through a query-and-back round trip over the affinity matrix:
support position j picks its strongest query i*, i* picks its strongest
support position j*, and j stays visible only when j and j* carry the same
mask label. The bias is a plain float64 array: 0 for a kept position and
-inf for an inconsistent one, whose attention weight is then exactly zero.
``masked_softmax_rows`` is the only consumer, and the only operation that
accepts -inf.

The round trip is an argmax chain, piecewise constant in the inputs, so the
bias is a constant: no gradient flows through it, only through the affinity
logits themselves.

Every function also takes a batch of episodes: features, masks and
affinities then carry a leading batch axis, each episode runs its own
argmax chain, and an unbatched operand (the learned queries) is shared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeMismatch
from .tensor import Tensor


@dataclass(frozen=True)
class AttentionBlock:
    """Projection weights of one single-head attention block."""

    wq: Tensor
    wk: Tensor
    wv: Tensor

    def __post_init__(self):
        d = self.wq.shape
        if len(d) != 2 or d[0] != d[1]:
            raise ShapeMismatch(f"wq must be square, got {d}")
        if self.wk.shape != d or self.wv.shape != d:
            raise ShapeMismatch("projection weights must share one square shape")


def affinity(q: Tensor, k: Tensor) -> Tensor:
    """Scaled dot-product affinity: [N, d] x [HW, d] -> [N, HW], batched when
    either operand is: -> [B, N, HW]. ``matmul`` checks the operands."""
    return T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(q.shape[-1]))


def cycle_bias(a: Tensor, mask: Tensor) -> np.ndarray:
    """Round-trip consistency bias for an affinity matrix ``a`` of [N, HW].

    For support position j: i* = argmax_i a[i, j], then j* = argmax_j' a[i*, j'];
    bias[j] is 0 when mask[j] == mask[j*], else -inf. Ties break toward the
    smallest index. A constant array computed from raw values, off the tape.
    A batch [B, N, HW] with masks [B, HW] gives one chain and one bias row
    per episode. The result is an additive softmax bias [HW] (or [B, HW]).
    The mask is binary: ``generate_prompts`` checks the support mask that
    both branch masks come from, and the pseudo mask is thresholded.
    """
    m = mask.data
    vals = a.data
    i_star = np.argmax(vals, axis=-2)         # per support position, first max
    row_best = np.argmax(vals, axis=-1)       # per query, first max
    j_star = np.take_along_axis(row_best, i_star, axis=-1)
    return np.where(m == np.take_along_axis(m, j_star, axis=-1), 0.0, -np.inf)


def cross_attention(block: AttentionBlock, queries: Tensor, feats: Tensor,
                    mask: Tensor | None = None) -> Tensor:
    """Project, score, softmax and aggregate values; with a support ``mask``
    over the feature positions, the scores carry its round-trip consistency
    bias (``cycle_bias``).

    queries: [N, d]; feats: [HW, d]; mask: [HW]; result: [N, d]. Batched
    feats [B, HW, d] give [B, N, d], with queries shared [N, d] or per
    episode [B, N, d] and one mask row per episode [B, HW]. With an
    all-equal mask the bias is all zeros, so the result equals the unbiased
    one exactly; a bias that masks a whole softmax row raises AllMasked.
    """
    weights = _attention_weights(block, queries, feats, mask)
    return T.matmul(weights, T.matmul(feats, block.wv))


def _attention_weights(block: AttentionBlock, queries: Tensor, feats: Tensor,
                       mask: Tensor | None) -> Tensor:
    # Separate from cross_attention so that, off the tape, keys and scores
    # are freed before the values are projected: a batch then holds one
    # [B, N, HW] array fewer at its peak.
    scores = affinity(T.matmul(queries, block.wq), T.matmul(feats, block.wk))
    bias = (np.zeros(scores.shape[:-2] + scores.shape[-1:]) if mask is None
            else cycle_bias(scores, mask))
    return T.masked_softmax_rows(scores, bias)


def cycle_consistent_attention(block: AttentionBlock, queries: Tensor, feats: Tensor,
                               mask: Tensor) -> Tensor:
    """``cross_attention`` under the round-trip bias of ``mask``."""
    return cross_attention(block, queries, feats, mask)


def self_attention(block: AttentionBlock, queries: Tensor) -> Tensor:
    """Unbiased attention of a prompt set over itself: [N, d] -> [N, d], or
    per episode [B, N, d] -> [B, N, d]."""
    return cross_attention(block, queries, queries)
