"""The forward pass once more, in plain NumPy, one episode at a time.

An independent statement of what the production layers compute: it imports
nothing from ``tensor``, ``pipeline``, ``attention``, ``decoder`` or
``losses``, takes no batch axis, builds no tape and writes every step in
its most literal form. The cycle bias and the softmax run as scalar loops;
the prior mask is the cosine of each query position against each masked
support position, a row at a time. It is complex-safe (comparisons, maxima,
the clamp and thresholds read the real part), so ``complex_step`` gives its
exact gradients (Squire and Trapp, SIAM Review 40, 1998). The ``reference``
oracle suite holds production's forward to it, the ``batch`` suite the
tape's gradients and the ``tube`` suite propagation, so that a production
kernel may change its bits as long as it keeps these results.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

PSEUDO_THRESHOLD = 0.5
CLAMP_LO = 1e-7
CLAMP_HI = 1.0 - 1e-7
DICE_EPS = 1e-6
COMPLEX_STEP = 1e-30


def cycle_bias_reference(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Triple-loop round-trip bias, first max on ties, of the real part."""
    n, hw = a.shape
    a = a.real.tolist()
    bias = np.empty(hw)
    for j in range(hw):
        i_star = 0
        for i in range(1, n):
            if a[i][j] > a[i_star][j]:
                i_star = i
        j_star = 0
        for jp in range(1, hw):
            if a[i_star][jp] > a[i_star][j_star]:
                j_star = jp
        bias[j] = 0.0 if mask[j] == mask[j_star] else -np.inf
    return bias


def softmax_rows_reference(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Scalar-math row softmax; -inf bias entries contribute exactly zero."""
    rows, cols = x.shape
    out = np.zeros_like(x)
    exp = cmath.exp if np.iscomplexobj(x) else math.exp
    xs, bs = x.tolist(), bias.tolist()
    for r in range(rows):
        logits = [xs[r][c] + bs[c] for c in range(cols)]
        live = [c for c in range(cols) if logits[c].real != -math.inf]
        top = max(logits[c].real for c in live)
        weights = [exp(logits[c] - top) for c in live]
        total = sum(weights)
        for c, wgt in zip(live, weights):
            out[r, c] = wgt / total
    return out


def _prior(f_q: np.ndarray, f_s: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Best cosine of each query position against the masked support
    positions (a zero vector scores 0), min-max normalized to [0, 1]; a map
    whose span is below 1e-12 becomes zeros."""
    c, h, w = f_q.shape
    q = f_q.reshape(c, -1).T
    s = f_s.reshape(c, -1).T[mask.reshape(-1) == 1.0]
    s_norm = np.sqrt((s * s).sum(axis=1))
    raw = np.empty(h * w)
    for i, vec in enumerate(q):
        denom = math.sqrt(float(vec @ vec)) * s_norm
        cos = np.divide(s @ vec, denom, out=np.zeros(len(s)), where=denom > 0.0)
        raw[i] = cos.max()
    span = raw.max() - raw.min()
    if span < 1e-12:
        return np.zeros((h, w))
    return ((raw - raw.min()) / span).reshape(h, w)


def _fuse(feat, pooled, sam, prior, w, b):
    """[feat; pooled broadcast; SAM map; prior or zeros] through the 1x1
    conv, as tokens [HW, d]."""
    h, wd = feat.shape[1:]
    channels = np.concatenate([feat, np.broadcast_to(pooled[:, None, None], (len(pooled), h, wd)),
                               sam, np.zeros((1, h, wd)) if prior is None else prior[None]])
    fused = np.einsum("oc,chw->ohw", w, channels) + b[:, None, None]
    return fused.reshape(len(b), h * wd).T


def _attend(params, block, queries, feats, mask):
    """Single-head attention of ``queries`` [N, d] over ``feats`` [HW, d];
    with a mask [HW], under its round-trip bias."""
    q = queries @ params[f"{block}_wq"]
    k = feats @ params[f"{block}_wk"]
    scores = (q @ k.T) / math.sqrt(q.shape[1])
    bias = np.zeros(len(feats)) if mask is None else cycle_bias_reference(scores, mask)
    return softmax_rows_reference(scores, bias) @ (feats @ params[f"{block}_wv"])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    ahead = x.real >= 0.0
    e = np.exp(np.where(ahead, -x, x))
    return np.where(ahead, 1.0 / (1.0 + e), e / (1.0 + e))


def reference_decode(pos, neg, sam, tau):
    """sigmoid of the positive minus the negative branch score, each
    tau * logsumexp over the prompts of <prompt, feature> / tau."""
    d, h, w = sam.shape
    flat = sam.reshape(d, h * w)

    def score(prompts):
        x = (prompts @ flat) / tau
        top = x.real.max(axis=0)
        return tau * (top + np.log(np.exp(x - top).sum(axis=0)))

    logit = score(pos) if neg is None else score(pos) - score(neg)
    return _sigmoid(logit).reshape(h, w)


def _loss(p: np.ndarray, y: np.ndarray):
    """Mean BCE on predictions clamped to [1e-7, 1 - 1e-7], plus soft Dice."""
    inside = (p.real >= CLAMP_LO) & (p.real <= CLAMP_HI)
    pc = np.where(inside, p, np.clip(p.real, CLAMP_LO, CLAMP_HI))
    bce = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean()
    dice = 1.0 - 2.0 * (p * y).sum() / ((p * p).sum() + (y * y).sum() + DICE_EPS)
    return bce + dice


def reference_forward(support: tuple[np.ndarray, np.ndarray, np.ndarray],
                      query: tuple[np.ndarray, np.ndarray, np.ndarray],
                      support_mask: np.ndarray, query_mask: np.ndarray,
                      params: dict[str, np.ndarray], cfg) -> dict[str, np.ndarray]:
    """Prompts, pseudo mask, probabilities and loss of one episode.

    ``support`` and ``query`` are the encoder's (mid, high, sam) maps
    [C, h, w]; the masks are binary at the feature resolution [h, w];
    ``params`` maps every parameter name of ``ModelParams.named`` to its
    array; ``cfg`` is a ``TrainConfig``, read for its four ablation
    switches and ``tau``. Returns ``pos``, ``neg`` (with the negative
    branch), ``pseudo``, ``probs`` and the scalar ``loss``.
    """
    mid_s, high_s, sam_s = support
    mid_q, high_q, sam_q = query
    if not cfg.use_sam_fusion:
        sam_s, sam_q = np.zeros_like(sam_s), np.zeros_like(sam_q)
    branches = ("pos", "neg") if cfg.use_neg_branch else ("pos",)
    support_masks = {"pos": support_mask, "neg": 1.0 - support_mask}

    mediate, tokens_q = {}, {}
    for br in branches:
        m = support_masks[br]
        pooled = (mid_s * m).sum(axis=(1, 2)) / (m.sum() + 1e-6)
        prior = _prior(high_q, high_s, m) if cfg.use_prior_mask else None
        tokens_s = _fuse(mid_s, pooled, sam_s, None, params["fusion_w"], params["fusion_b"])
        mediate[br] = _attend(params, "attn_support", params[f"q_{br}"], tokens_s,
                              m.reshape(-1) if cfg.use_cyc_bias else None)
        tokens_q[br] = _fuse(mid_q, pooled, sam_q, prior, params["fusion_w"], params["fusion_b"])

    # the pseudo mask decodes the labeled mediate prompts against the
    # query's own SAM map, whatever the fusion switch says
    labeled = {br: mediate[br] + params[f"e_{br}"] for br in branches}
    pseudo_probs = reference_decode(labeled["pos"], labeled.get("neg"), query[2], cfg.tau)
    pseudo = (pseudo_probs.real >= PSEUDO_THRESHOLD).astype(np.float64)

    out = {"pseudo": pseudo}
    for br in branches:
        qm = pseudo if br == "pos" else 1.0 - pseudo
        refined = _attend(params, "attn_query", mediate[br], tokens_q[br],
                          qm.reshape(-1) if cfg.use_cyc_bias else None)
        out[br] = _attend(params, "attn_self", refined, refined, None) + params[f"e_{br}"]
    out["probs"] = reference_decode(out["pos"], out.get("neg"), query[2], cfg.tau)
    out["loss"] = np.asarray(_loss(out["probs"], query_mask))
    return out


def complex_step(f, params: dict[str, np.ndarray], direction: dict[str, np.ndarray]) -> float:
    """Derivative of ``f(params)`` along ``direction`` (parameter name ->
    array; absent names stay fixed): Im f(p + i h v) / h, no difference taken."""
    shifted = {name: p + 1j * COMPLEX_STEP * direction[name] if name in direction else p
               for name, p in params.items()}
    return float(np.imag(f(shifted))) / COMPLEX_STEP
