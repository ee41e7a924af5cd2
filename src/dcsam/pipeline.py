"""Dual-branch prompt generation.

One branch attends with the support foreground mask, the other with its
complement; both run the same machinery, so swapping the mask and the
branch parameters swaps the branch outputs exactly. Per branch:

  1. pool the support feature under the branch mask, fuse support and query
     features (pooled vector, SAM-like map, prior map on the query side),
  2. refine the branch's learned queries over the fused support features
     with cyclic-consistent attention under the branch mask,
  3. decode a pseudo query mask from the labeled mediate prompts (threshold
     0.5, detached),
  4. refine again over the fused query features under the branch's pseudo
     mask, then self-attend,
  5. add the branch's label embedding.

Feature maps come from the stub encoders and are constants; gradients reach
the parameters through fusion, the attention projections, the learned
queries, and the label embeddings.

A batch of episodes runs the same code on stacked inputs: every map, mask
and result gains a leading batch axis, and the parameters are shared.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionBlock, cross_attention, cycle_consistent_attention, self_attention
from .decoder import DecoderConfig, decode
from .encoder import EncoderMaps, StubEncoder
from .errors import EmptySupportMask, ShapeMismatch
from .seeding import rng_for, tag
from .tensor import GradTape, Tensor, binarize

PSEUDO_THRESHOLD = 0.5


@dataclass(frozen=True)
class PipelineConfig:
    """Widths, query count, and ablation switches of the prompt generator."""

    embed_dim: int = 12
    n_queries: int = 25
    mid_channels: int = 6
    high_channels: int = 6
    stride: int = 1
    tau: float = 1.0
    use_neg_branch: bool = True
    use_sam_fusion: bool = True
    use_cyc_bias: bool = True
    use_prior_mask: bool = True

    @property
    def fusion_in(self) -> int:
        # feature + pooled broadcast + SAM channels + one reserved prior slot
        return 2 * self.mid_channels + self.embed_dim + 1

    def decoder_config(self) -> DecoderConfig:
        return DecoderConfig(tau=self.tau)

    def encoder(self, seed: int) -> StubEncoder:
        # The SAM-like width doubles as the prompt width: the decoder scores
        # prompts directly against that map.
        return StubEncoder(seed, d_mid=self.mid_channels, d_high=self.high_channels,
                           d_sam=self.embed_dim, stride=self.stride)


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


def init_params(cfg: PipelineConfig, seed: int) -> ModelParams:
    """Weight matrices are unit-Gaussian draws scaled by 1/sqrt(fan-in); the
    query embeddings stay at unit scale so their attention patterns differ
    from the start (tiny queries collapse every prompt onto one mixture)."""
    d, n = cfg.embed_dim, cfg.n_queries
    rng = rng_for(seed, tag("params"))
    scale_d = 1.0 / np.sqrt(d)

    def mat(rows, cols, fan):
        return Tensor(rng.normal(size=(rows, cols)) / np.sqrt(fan))

    def block():
        return AttentionBlock(wq=mat(d, d, d), wk=mat(d, d, d), wv=mat(d, d, d))

    return ModelParams(
        fusion_w=mat(cfg.embed_dim, cfg.fusion_in, cfg.fusion_in),
        fusion_b=Tensor(np.zeros(cfg.embed_dim)),
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
    """Refined prompts per branch, before and after label embedding."""

    pos: Tensor
    neg: Tensor | None
    pos_labeled: Tensor
    neg_labeled: Tensor | None


def mask_average(feat: Tensor, mask: Tensor) -> Tensor:
    """Masked global average pool: [C, H, W] with [H, W] -> [C], or per
    episode [B, C, H, W] with [B, H, W] -> [B, C]. Detached."""
    if (feat.ndim not in (3, 4) or mask.ndim != feat.ndim - 1
            or feat.shape[:-3] + feat.shape[-2:] != mask.shape):
        raise ShapeMismatch(f"mask_average: feature {feat.shape} vs mask {mask.shape}")
    m = mask.data
    if not np.isin(m, (0.0, 1.0)).all():
        raise ValueError("mask_average: mask must be binary")
    m = m[..., None, :, :]
    pooled = (feat.data * m).sum(axis=(-2, -1)) / (m.sum(axis=(-2, -1)) + 1e-6)
    return Tensor(pooled)


def max_cosine_map(f_q: Tensor, f_s: Tensor, support_mask: Tensor) -> Tensor:
    """Per query position, the best cosine similarity to any masked support
    position: [C, H, W] x [C, H, W] x [H, W] -> [H, W], or per episode of a
    batch [B, C, H, W] x [B, C, H, W] x [B, H, W] -> [B, H, W]. Detached.

    Similarities are taken episode by episode against the masked support
    positions only: selecting them first costs less than one batched
    matrix over every support position.
    """
    if (f_q.ndim not in (3, 4) or f_s.ndim != f_q.ndim
            or f_q.shape[:-2] != f_s.shape[:-2]):
        raise ShapeMismatch(f"max_cosine_map: features {f_q.shape} vs {f_s.shape}")
    lead = f_s.shape[:-3]
    if support_mask.shape != lead + f_s.shape[-2:]:
        raise ShapeMismatch(f"max_cosine_map: mask {support_mask.shape} vs {f_s.shape}")
    m = support_mask.data.reshape(lead + (-1,)).astype(bool)
    if not m.any(axis=-1).all():
        raise EmptySupportMask("prior mask needs at least one masked support position")
    c, h, w = f_q.shape[-3:]
    q = np.swapaxes(f_q.data.reshape(lead + (c, -1)), -1, -2)     # [..., HW, C]
    s = np.swapaxes(f_s.data.reshape(lead + (c, -1)), -1, -2)
    qn = np.linalg.norm(q, axis=-1)
    sn = np.linalg.norm(s, axis=-1)
    best = np.empty(lead + (h * w,))
    for idx in np.ndindex(lead):
        keep = m[idx]
        sims = (q[idx] @ s[idx][keep].T) / (qn[idx][:, None] * sn[idx][keep][None, :] + 1e-12)
        best[idx] = sims.max(axis=1)
    return Tensor(best.reshape(lead + (h, w)))


def prior_mask(f_q: Tensor, f_s: Tensor, support_mask: Tensor) -> Tensor:
    """Min-max normalized best-similarity map, per episode of a batch; a
    constant map becomes zeros."""
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
    if (feat.ndim not in (3, 4) or f_sam.ndim != feat.ndim
            or feat.shape[:-3] + feat.shape[-2:] != f_sam.shape[:-3] + f_sam.shape[-2:]):
        raise ShapeMismatch(f"fuse: feature {feat.shape} vs SAM map {f_sam.shape}")
    lead = feat.shape[:-3]
    h, w = feat.shape[-2:]
    if prior is None:
        prior_chan = T.zeros(lead + (1, h, w))
    else:
        if prior.shape != lead + (h, w):
            raise ShapeMismatch(f"fuse: prior {prior.shape} does not match {h}x{w}")
        prior_chan = T.reshape(prior, lead + (1, h, w))
    stacked = T.concat_channels([feat, T.tile_spatial(pooled, h, w), f_sam, prior_chan],
                                batched=bool(lead))
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
                     params: ModelParams, cfg: PipelineConfig) -> tuple[PromptSet, Tensor]:
    """Run both branches and return (labeled prompt set, pseudo query mask).

    ``support_mask`` is binary at the feature resolution. The pseudo mask is
    the mediate-prompt decode thresholded at 0.5 (positive-branch view),
    detached: gradients reach the loss only through the final decode.

    A batch of episodes stacks the maps [B, C, H, W] and the support masks
    [B, H, W]; prompts and pseudo masks then come back stacked as well.
    """
    if support.mid.ndim not in (3, 4):
        raise ShapeMismatch(f"support maps must be [C, H, W] or [B, C, H, W], got {support.mid.shape}")
    lead = support.mid.shape[:-3]
    h, w = support.mid.shape[-2:]
    for name, maps in (("support", support), ("query", query)):
        for m in (maps.mid, maps.high, maps.sam):
            if m.ndim != len(lead) + 3 or m.shape[:-3] + m.shape[-2:] != lead + (h, w):
                raise ShapeMismatch(f"{name} maps disagree on spatial size {m.shape}")
    if support_mask.shape != lead + (h, w):
        raise ShapeMismatch(f"support mask {support_mask.shape} does not match {h}x{w} features")
    mask = support_mask.data
    if not np.isin(mask, (0.0, 1.0)).all():
        raise ValueError("support mask must be binary")

    branch_masks = {"pos": mask}
    if cfg.use_neg_branch:
        branch_masks["neg"] = 1.0 - mask
    for name, bm in branch_masks.items():
        if not bm.reshape(-1, h * w).any(axis=1).all():
            raise EmptySupportMask(f"{name} branch has no support pixels")

    hw = h * w
    zeros_sam_s = zeros_sam_q = None
    if not cfg.use_sam_fusion:
        zeros_sam_s = T.zeros(support.sam.shape)
        zeros_sam_q = T.zeros(query.sam.shape)
    sam_s = support.sam if cfg.use_sam_fusion else zeros_sam_s
    sam_q = query.sam if cfg.use_sam_fusion else zeros_sam_q

    def support_pass(branch: str) -> tuple[Tensor, Tensor]:
        bm = branch_masks[branch]
        bm_t = Tensor(bm)
        pooled = mask_average(support.mid, bm_t)
        prior = prior_mask(query.high, support.high, bm_t) if cfg.use_prior_mask else None
        # No fused map outlives its tokens, and the query tokens are made
        # after the attention: off the tape, a batch holds fewer arrays at once.
        tokens_s = _as_tokens(fuse(support.mid, pooled, sam_s, None, params), hw)
        q_init = params.q_pos if branch == "pos" else params.q_neg
        block = params.attn_support
        if cfg.use_cyc_bias:
            mediate = cycle_consistent_attention(block, q_init, tokens_s, _flat_mask(bm))
        else:
            mediate = cross_attention(block, q_init, tokens_s)
        return mediate, _as_tokens(fuse(query.mid, pooled, sam_q, prior, params), hw)

    med_pos, tokens_q_pos = support_pass("pos")
    med_neg, tokens_q_neg = (support_pass("neg") if cfg.use_neg_branch else (None, None))

    # The pseudo mask is thresholded, so no gradient reaches its decode; run
    # that decode off the tape.
    med_pos_labeled, med_neg_labeled = (None if p is None else T.detach(p)
                                        for p in label_prompts(med_pos, med_neg, params))
    pseudo_probs = decode(med_pos_labeled, med_neg_labeled, query.sam, cfg.decoder_config())
    pseudo = binarize(pseudo_probs, PSEUDO_THRESHOLD)

    def query_pass(branch: str, mediate: Tensor, tokens_q: Tensor) -> Tensor:
        qm = pseudo.data if branch == "pos" else 1.0 - pseudo.data
        block = params.attn_query
        if cfg.use_cyc_bias:
            refined = cycle_consistent_attention(block, mediate, tokens_q, _flat_mask(qm))
        else:
            refined = cross_attention(block, mediate, tokens_q)
        return self_attention(params.attn_self, refined)

    out_pos = query_pass("pos", med_pos, tokens_q_pos)
    out_neg = query_pass("neg", med_neg, tokens_q_neg) if cfg.use_neg_branch else None
    pos_labeled, neg_labeled = label_prompts(out_pos, out_neg, params)
    prompts = PromptSet(pos=out_pos, neg=out_neg,
                        pos_labeled=pos_labeled, neg_labeled=neg_labeled)
    return prompts, pseudo


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
               params: ModelParams, cfg: PipelineConfig, encoder: StubEncoder) -> Tensor:
    """Image-resolution probability map for one episode (inference path), or
    for each episode of stacked images and masks [B, H, W]."""
    batched = support_img.ndim == 3
    enc_s = encoder.encode(support_img, batched)
    enc_q = encoder.encode(query_img, batched)
    mask_feat = downsample_mask(support_mask, encoder.stride)
    prompts, _ = generate_prompts(enc_s, enc_q, mask_feat, params, cfg)
    probs = decode(prompts.pos_labeled, prompts.neg_labeled, enc_q.sam, cfg.decoder_config())
    return upsample_map(probs, encoder.stride)
