"""Dual-branch prompt generation.

One branch attends with the support foreground mask, the other with its
complement; both run the same machinery, so swapping the mask and the
branch parameters swaps the branch outputs exactly. Per branch:

  1. pool the support feature under the branch mask, fuse support and query
     features (pooled vector, SAM-like map, prior map on the query side),
  2. refine the branch's learned queries over the fused support features
     by cross-attention carrying the cycle bias of the branch mask (no
     bias when ``use_cyc_bias`` is off),
  3. decode a pseudo query mask from the labeled mediate prompts (threshold
     0.5, detached),
  4. refine again over the fused query features, biased by the branch's
     pseudo mask, then self-attend,
  5. add the branch's label embedding; a ``PromptSet`` holds the result.

Feature maps come from the stub encoders and are constants; gradients reach
the parameters through fusion, the attention projections, the learned
queries, and the label embeddings.

A batch of episodes runs the same code on stacked inputs: every map, mask
and result gains a leading batch axis, and the parameters are shared. The
trainer's ``batch_forward`` adds the decode and the loss to this forward.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionBlock, cross_attention, self_attention
from .config import TrainConfig
from .decoder import decode
from .encoder import EncoderMaps, StubEncoder
from .errors import EmptySupportMask, ShapeMismatch
from .seeding import rng_for, tag
from .tensor import GradTape, Tensor, binarize, is_binary

PSEUDO_THRESHOLD = 0.5


@dataclass(frozen=True)
class ModelParams:
    """Every trainable tensor of the generator."""

    fusion_w: Tensor
    fusion_b: Tensor
    attn_support: AttentionBlock
    attn_query: AttentionBlock
    attn_self: AttentionBlock
    q_pos: Tensor
    q_neg: Tensor
    e_pos: Tensor
    e_neg: Tensor

    def named(self) -> dict[str, Tensor]:
        out = {"fusion_w": self.fusion_w, "fusion_b": self.fusion_b}
        for block_name, block in (("attn_support", self.attn_support),
                                  ("attn_query", self.attn_query),
                                  ("attn_self", self.attn_self)):
            out[f"{block_name}_wq"] = block.wq
            out[f"{block_name}_wk"] = block.wk
            out[f"{block_name}_wv"] = block.wv
        out.update(q_pos=self.q_pos, q_neg=self.q_neg, e_pos=self.e_pos, e_neg=self.e_neg)
        return out

    @classmethod
    def from_named(cls, named: dict[str, Tensor]) -> "ModelParams":
        def block(prefix: str) -> AttentionBlock:
            return AttentionBlock(wq=named[f"{prefix}_wq"], wk=named[f"{prefix}_wk"],
                                  wv=named[f"{prefix}_wv"])
        return cls(fusion_w=named["fusion_w"], fusion_b=named["fusion_b"],
                   attn_support=block("attn_support"), attn_query=block("attn_query"),
                   attn_self=block("attn_self"), q_pos=named["q_pos"], q_neg=named["q_neg"],
                   e_pos=named["e_pos"], e_neg=named["e_neg"])


def init_params(cfg: TrainConfig, seed: int) -> ModelParams:
    """Weight matrices are unit-Gaussian draws scaled by 1/sqrt(fan-in); the
    query embeddings stay at unit scale so their attention patterns differ
    from the start (tiny queries collapse every prompt onto one mixture)."""
    d, n = cfg.embed_dim, cfg.n_queries
    # fusion input: feature + pooled broadcast + SAM channels + one reserved prior slot
    fusion_in = 2 * cfg.mid_channels + d + 1
    rng = rng_for(seed, tag("params"))
    scale_d = 1.0 / np.sqrt(d)

    def mat(rows, cols, fan):
        return Tensor(rng.normal(size=(rows, cols)) / np.sqrt(fan))

    def block():
        return AttentionBlock(wq=mat(d, d, d), wk=mat(d, d, d), wv=mat(d, d, d))

    return ModelParams(
        fusion_w=mat(d, fusion_in, fusion_in),
        fusion_b=Tensor(np.zeros(d)),
        attn_support=block(), attn_query=block(), attn_self=block(),
        q_pos=Tensor(rng.normal(size=(n, d))),
        q_neg=Tensor(rng.normal(size=(n, d))),
        e_pos=Tensor(rng.normal(size=d) * scale_d),
        e_neg=Tensor(rng.normal(size=d) * scale_d),
    )


def watch_params(tape: GradTape, params: ModelParams) -> tuple[ModelParams, dict[str, Tensor]]:
    """Tracked aliases of every parameter plus the name -> tracked-tensor map."""
    tracked = {name: tape.watch(t) for name, t in params.named().items()}
    return ModelParams.from_named(tracked), tracked


@dataclass(frozen=True)
class PromptSet:
    """Refined, labeled prompts per branch; ``neg`` is None without the
    negative branch."""

    pos: Tensor
    neg: Tensor | None


def mask_average(feat: Tensor, mask: Tensor) -> Tensor:
    """Masked global average pool: [C, H, W] with [H, W] -> [C], or per
    episode [B, C, H, W] with [B, H, W] -> [B, C]. Detached."""
    m = mask.data[..., None, :, :]
    pooled = (feat.data * m).sum(axis=(-2, -1)) / (m.sum(axis=(-2, -1)) + 1e-6)
    return Tensor(pooled)


# Query rows per block of ``max_cosine_map``: at canvas 32 (1,024 query
# rows, 717 support columns) a product and max of 128 rows at a time ran
# about 2.3x faster than one over the whole similarity matrix, and no block
# reaches the 4 MiB from which NumPy advises huge pages.
_COSINE_ROWS = 128


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` [..., n, C] scaled to unit length; a zero row stays
    zero. Dividing by the row's largest magnitude first keeps the squares
    of the norm from overflowing or underflowing."""
    peak = np.abs(v).max(axis=-1, keepdims=True)
    unit = v / np.where(peak > 0.0, peak, 1.0)
    # a nonzero row now has norm >= 1, a zero row norm 0
    unit /= np.maximum(np.linalg.norm(unit, axis=-1, keepdims=True), 1.0)
    return unit


def max_cosine_map(f_q: Tensor, f_s: Tensor, support_mask: Tensor) -> Tensor:
    """Per query position, the best cosine similarity to any masked support
    position: [C, H, W] x [C, H, W] x [H, W] -> [H, W], or per episode of a
    batch [B, C, H, W] x [B, C, H, W] x [B, H, W] -> [B, H, W]. Detached.

    The cosine is the dot product of unit vectors, each normalised once; a
    zero vector scores 0 against everything. Similarities are taken episode
    by episode against the masked support positions only, 128 query rows at
    a time, each block's maxima going straight into the result. Each mask
    needs a masked position, which ``generate_prompts`` checks per branch.
    """
    lead = f_s.shape[:-3]
    m = support_mask.data.reshape(lead + (-1,)).astype(bool)
    c, h, w = f_q.shape[-3:]
    q = _unit_rows(np.swapaxes(f_q.data.reshape(lead + (c, -1)), -1, -2))     # [..., HW, C]
    s = _unit_rows(np.swapaxes(f_s.data.reshape(lead + (c, -1)), -1, -2))
    best = np.empty(lead + (h * w,))
    for idx in np.ndindex(lead):
        s_keep_t = s[idx][m[idx]].T
        q_ep, out = q[idx], best[idx]
        for a in range(0, h * w, _COSINE_ROWS):
            rows = slice(a, a + _COSINE_ROWS)
            np.max(q_ep[rows] @ s_keep_t, axis=1, out=out[rows])
    return Tensor(best.reshape(lead + (h, w)))


def prior_mask(f_q: Tensor, f_s: Tensor, support_mask: Tensor) -> Tensor:
    """The mask prior: ``max_cosine_map`` min-max normalized to [0, 1] per
    episode of a batch; a map whose span is below 1e-12 becomes zeros."""
    raw = max_cosine_map(f_q, f_s, support_mask).data
    lo = raw.min(axis=(-2, -1), keepdims=True)
    span = raw.max(axis=(-2, -1), keepdims=True) - lo
    flat = span < 1e-12
    return Tensor(np.where(flat, 0.0, (raw - lo) / np.where(flat, 1.0, span)))


def fuse(feat: Tensor, pooled: Tensor, f_sam: Tensor, prior: Tensor | None,
         params: ModelParams) -> Tensor:
    """Channel-concatenate [feat; pooled broadcast; SAM map; prior slot] and
    project with the shared 1x1 conv. A missing prior feeds zeros into its
    reserved channel so support and query side share one weight shape.
    Batched inputs carry a leading batch axis on every argument."""
    lead = feat.shape[:-3]
    h, w = feat.shape[-2:]
    prior_chan = (T.zeros(lead + (1, h, w)) if prior is None
                  else T.reshape(prior, lead + (1, h, w)))
    stacked = T.concat_channels([feat, T.tile_spatial(pooled, h, w), f_sam, prior_chan])
    return T.conv1x1(stacked, params.fusion_w, params.fusion_b)


def label_prompts(pos: Tensor, neg: Tensor | None, params: ModelParams
                  ) -> tuple[Tensor, Tensor | None]:
    """Labeling adds the branch embedding to every prompt: P' = P + E."""
    pos_labeled = T.add_rowvec(pos, params.e_pos)
    neg_labeled = None if neg is None else T.add_rowvec(neg, params.e_neg)
    return pos_labeled, neg_labeled


def _flat_mask(mask: np.ndarray) -> Tensor:
    # [H, W] -> [HW], per episode of a batch
    return Tensor(mask.reshape(mask.shape[:-2] + (-1,)))


def _as_tokens(fused: Tensor, hw: int) -> Tensor:
    # [d, H, W] -> [HW, d], per episode of a batch
    return T.transpose(T.reshape(fused, fused.shape[:-2] + (hw,)))


def generate_prompts(support: EncoderMaps, query: EncoderMaps, support_mask: Tensor,
                     params: ModelParams, cfg: TrainConfig) -> tuple[PromptSet, Tensor]:
    """Run both branches and return (labeled prompt set, pseudo query mask).

    ``support_mask`` is binary at the feature resolution. The pseudo mask is
    the mediate-prompt decode thresholded at 0.5 (positive-branch view),
    detached: gradients reach the loss only through the final decode.

    A batch of episodes stacks the maps [B, C, H, W] and the support masks
    [B, H, W]; prompts and pseudo masks then come back stacked as well.
    """
    lead = support.mid.shape[:-3]
    h, w = support.mid.shape[-2:]
    if query.mid.shape[:-3] + query.mid.shape[-2:] != lead + (h, w):
        raise ShapeMismatch(f"query maps {query.mid.shape} do not match support maps {support.mid.shape}")
    if support_mask.shape != lead + (h, w):
        raise ShapeMismatch(f"support mask {support_mask.shape} does not match {h}x{w} features")
    mask = support_mask.data
    if not is_binary(mask):
        raise ValueError("support mask must be binary")

    branch_masks = {"pos": mask}
    if cfg.use_neg_branch:
        branch_masks["neg"] = 1.0 - mask
    for name, bm in branch_masks.items():
        if not bm.reshape(-1, h * w).any(axis=1).all():
            raise EmptySupportMask(f"{name} branch has no support pixels")

    hw = h * w
    sam_s = support.sam if cfg.use_sam_fusion else T.zeros(support.sam.shape)
    sam_q = query.sam if cfg.use_sam_fusion else T.zeros(query.sam.shape)

    def support_pass(branch: str) -> tuple[Tensor, Tensor]:
        bm = branch_masks[branch]
        bm_t = Tensor(bm)
        pooled = mask_average(support.mid, bm_t)
        prior = prior_mask(query.high, support.high, bm_t) if cfg.use_prior_mask else None
        # No fused map outlives its tokens, and the query tokens are made
        # after the attention: off the tape, a batch holds fewer arrays at once.
        tokens_s = _as_tokens(fuse(support.mid, pooled, sam_s, None, params), hw)
        q_init = params.q_pos if branch == "pos" else params.q_neg
        mediate = cross_attention(params.attn_support, q_init, tokens_s,
                                  _flat_mask(bm) if cfg.use_cyc_bias else None)
        return mediate, _as_tokens(fuse(query.mid, pooled, sam_q, prior, params), hw)

    med_pos, tokens_q_pos = support_pass("pos")
    med_neg, tokens_q_neg = (support_pass("neg") if cfg.use_neg_branch else (None, None))

    # The pseudo mask is thresholded, so no gradient reaches its decode; run
    # that decode off the tape.
    med_pos_labeled, med_neg_labeled = (None if p is None else T.detach(p)
                                        for p in label_prompts(med_pos, med_neg, params))
    pseudo_probs = decode(med_pos_labeled, med_neg_labeled, query.sam, cfg.tau)
    pseudo = binarize(pseudo_probs, PSEUDO_THRESHOLD)

    def query_pass(branch: str, mediate: Tensor, tokens_q: Tensor) -> Tensor:
        qm = pseudo.data if branch == "pos" else 1.0 - pseudo.data
        refined = cross_attention(params.attn_query, mediate, tokens_q,
                                  _flat_mask(qm) if cfg.use_cyc_bias else None)
        return self_attention(params.attn_self, refined)

    out_pos = query_pass("pos", med_pos, tokens_q_pos)
    out_neg = query_pass("neg", med_neg, tokens_q_neg) if cfg.use_neg_branch else None
    return PromptSet(*label_prompts(out_pos, out_neg, params)), pseudo


def downsample_mask(mask: Tensor, stride: int) -> Tensor:
    """Block-max pooling keeps a cell foreground if any covered pixel is.
    Pools the last two axes, so a stack [B, H, W] pools every mask."""
    if stride == 1:
        return mask
    h, w = mask.shape[-2:]
    if h % stride or w % stride:
        raise ShapeMismatch(f"mask {mask.shape} is not divisible by stride {stride}")
    blocks = mask.data.reshape(mask.shape[:-2] + (h // stride, stride, w // stride, stride))
    return Tensor(blocks.max(axis=(-3, -1)))


def upsample_map(t: Tensor, stride: int) -> Tensor:
    """Nearest-neighbor upsample of a 2-D map, or of each map of a stack
    [B, H, W]. Detached."""
    if stride == 1:
        return t
    return Tensor(t.data.repeat(stride, axis=-2).repeat(stride, axis=-1))


def infer_mask(support_img: Tensor, support_mask: Tensor, query_img: Tensor,
               params: ModelParams, cfg: TrainConfig, encoder: StubEncoder) -> Tensor:
    """Image-resolution probability map for one episode (inference path), or
    for each episode of stacked images and masks [B, H, W]."""
    batched = support_img.ndim == 3
    enc_s = encoder.encode(support_img, batched)
    enc_q = encoder.encode(query_img, batched)
    mask_feat = downsample_mask(support_mask, encoder.stride)
    prompts, _ = generate_prompts(enc_s, enc_q, mask_feat, params, cfg)
    probs = decode(prompts.pos, prompts.neg, enc_q.sam, cfg.tau)
    return upsample_map(probs, encoder.stride)
