"""Cyclic-consistent cross-attention.

The bias construction walks each support position through a query-and-back
round trip over the affinity matrix: support position j picks its strongest
query i*, i* picks its strongest support position j*, and j stays visible
only when j and j* carry the same mask label. Inconsistent positions are
masked with the -inf sentinel, so their attention weight is exactly zero.

The round trip is an argmax chain, piecewise constant in the inputs, so the
bias is detached: no gradient flows through it, only through the affinity
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

    n_heads = 1

    def __post_init__(self):
        d = self.wq.shape
        if len(d) != 2 or d[0] != d[1]:
            raise ShapeMismatch(f"wq must be square, got {d}")
        if self.wk.shape != d or self.wv.shape != d:
            raise ShapeMismatch("projection weights must share one square shape")

    @property
    def width(self) -> int:
        return self.wq.shape[0]


@dataclass(frozen=True)
class CycleBias:
    """Additive attention bias over support positions: 0 or -inf per column,
    one row per episode when ``batched``."""

    values: Tensor  # [HW], or [B, HW] when batched; neg_inf_ok
    batched: bool = False

    def __post_init__(self):
        rank = 2 if self.batched else 1
        if self.values.ndim != rank:
            raise ShapeMismatch(f"cycle bias must be {rank}-D, got {self.values.shape}")


def affinity(q: Tensor, k: Tensor) -> Tensor:
    """Scaled dot-product affinity: [N, d] x [HW, d] -> [N, HW], batched when
    either operand is: -> [B, N, HW]."""
    if q.ndim not in (2, 3) or k.ndim not in (2, 3):
        raise ShapeMismatch(f"affinity needs 2-D or batched 3-D operands, got {q.shape} and {k.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeMismatch(f"affinity: widths differ ({q.shape} vs {k.shape})")
    return T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(q.shape[-1]))


def _validate_flat_mask(mask: Tensor, shape: tuple[int, ...], op: str) -> np.ndarray:
    if mask.shape != shape:
        raise ShapeMismatch(f"{op}: mask shape {mask.shape} does not match positions {shape}")
    m = mask.data
    if not np.isin(m, (0.0, 1.0)).all():
        raise ValueError(f"{op}: mask must be binary")
    return m


def cycle_bias(a: Tensor, mask: Tensor) -> CycleBias:
    """Round-trip consistency bias for an affinity matrix ``a`` of [N, HW].

    For support position j: i* = argmax_i a[i, j], then j* = argmax_j' a[i*, j'];
    bias[j] is 0 when mask[j] == mask[j*], else -inf. Ties break toward the
    smallest index. Detached by construction (operates on raw values). A
    batch [B, N, HW] with masks [B, HW] gives one chain and one bias row per
    episode.
    """
    if a.ndim not in (2, 3):
        raise ShapeMismatch(f"cycle_bias needs a 2-D or batched 3-D affinity, got {a.shape}")
    m = _validate_flat_mask(mask, a.shape[:-2] + a.shape[-1:], "cycle_bias")
    vals = a.data
    i_star = np.argmax(vals, axis=-2)         # per support position, first max
    row_best = np.argmax(vals, axis=-1)       # per query, first max
    j_star = np.take_along_axis(row_best, i_star, axis=-1)
    bias = np.where(m == np.take_along_axis(m, j_star, axis=-1), 0.0, -np.inf)
    return CycleBias(values=Tensor(bias, neg_inf_ok=True), batched=a.ndim == 3)


def cross_attention(block: AttentionBlock, queries: Tensor, feats: Tensor,
                    bias: CycleBias | None = None) -> Tensor:
    """Project, score, softmax (optionally biased), and aggregate values.

    queries: [N, d]; feats: [HW, d]; result: [N, d]. Batched feats [B, HW, d]
    give [B, N, d], with queries shared [N, d] or per episode [B, N, d].
    """
    def bias_of(scores: Tensor) -> Tensor:
        return T.zeros(scores.shape[:-2] + scores.shape[-1:]) if bias is None else bias.values

    return _attend(block, queries, feats, bias_of)


def cycle_consistent_attention(block: AttentionBlock, queries: Tensor, feats: Tensor,
                               mask: Tensor) -> Tensor:
    """Cross-attention with the round-trip consistency bias of ``mask``.

    With an all-equal mask the bias is all zeros and this reduces exactly to
    unbiased cross-attention. An all-inconsistent bias makes every softmax
    row empty and raises AllMasked. Batched as ``cross_attention``, with
    one mask row per episode [B, HW].
    """
    return _attend(block, queries, feats, lambda scores: cycle_bias(scores, mask).values)


def _attend(block: AttentionBlock, queries: Tensor, feats: Tensor, bias_of) -> Tensor:
    if queries.ndim not in (2, 3) or feats.ndim not in (2, 3):
        raise ShapeMismatch(f"attention needs 2-D or batched 3-D operands, got {queries.shape} and {feats.shape}")
    if queries.shape[-1] != block.width or feats.shape[-1] != block.width:
        raise ShapeMismatch(
            f"attention width {block.width} does not match inputs {queries.shape}, {feats.shape}")
    weights = _attention_weights(block, queries, feats, bias_of)
    return T.matmul(weights, T.matmul(feats, block.wv))


def _attention_weights(block: AttentionBlock, queries: Tensor, feats: Tensor, bias_of) -> Tensor:
    # Separate from _attend so that, off the tape, keys and scores are freed
    # before the values are projected: a batch then holds one [B, N, HW]
    # array fewer at its peak.
    scores = affinity(T.matmul(queries, block.wq), T.matmul(feats, block.wk))
    return T.masked_softmax_rows(scores, bias_of(scores))


def self_attention(block: AttentionBlock, queries: Tensor) -> Tensor:
    """Unbiased attention of a prompt set over itself: [N, d] -> [N, d], or
    per episode [B, N, d] -> [B, N, d]."""
    return cross_attention(block, queries, queries, bias=None)
