"""Independent references, in plain NumPy, for what the oracle suites check.

The module imports only ``numpy``, ``math``, ``cmath`` and ``dcsam.seeding``
(the random streams) and states, each in its most literal form:

- the forward pass, one episode at a time (``reference_forward``): the cycle
  bias and the softmax as scalar loops, no batch axis and no tape. It is
  complex-safe (comparisons, maxima, clamps and thresholds read the real
  part), so ``complex_step`` gives its exact gradients (Squire and Trapp,
  SIAM Review 40, 1998);
- the stub encoder's descriptors from stacked windows, and its projections;
- scenes and episodes, each footprint attempt a raster of its formula;
- its constants: the pseudo-mask threshold, the loss's clamps and epsilon,
  the complex step, and the episodes' class count, area and overlap bounds.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .seeding import rng_for, tag

PSEUDO_THRESHOLD = 0.5
CLAMP_LO = 1e-7
CLAMP_HI = 1.0 - 1e-7
DICE_EPS = 1e-6
COMPLEX_STEP = 1e-30
CLASS_COUNT = 16
MIN_AREA_FRAC = 0.02
MAX_AREA_FRAC = 0.5
MAX_OVERLAP_FRAC = 0.1


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


def _logit(pos, neg, sam, tau):
    """The positive minus the negative branch score, each tau * logsumexp
    over the prompts of <prompt, feature> / tau: [h, w]."""
    d, h, w = sam.shape
    flat = sam.reshape(d, h * w)

    def score(prompts):
        x = (prompts @ flat) / tau
        top = x.real.max(axis=0)
        return tau * (top + np.log(np.exp(x - top).sum(axis=0)))

    return (score(pos) if neg is None else score(pos) - score(neg)).reshape(h, w)


def reference_decode(pos, neg, sam, tau):
    """sigmoid of ``_logit``: the probability map [h, w]."""
    return _sigmoid(_logit(pos, neg, sam, tau))


def _loss(p: np.ndarray, q: np.ndarray, y: np.ndarray):
    """Mean BCE on predictions clamped to [1e-7, 1 - 1e-7], plus soft Dice.
    log(1 - p) is production's subtraction, which cancels as p nears 1, taken
    as log(q), q = 1 - p = sigmoid(-logit), plus that subtraction's rounding
    over q as a real constant: the complex step differentiates log(q) alone."""
    def clamp(x, lo, hi):
        return np.where((x.real >= lo) & (x.real <= hi), x, np.clip(x.real, lo, hi))

    pc, qc = clamp(p, CLAMP_LO, CLAMP_HI), clamp(q, 1.0 - CLAMP_HI, 1.0 - CLAMP_LO)
    log_1mp = np.log(qc) + ((1.0 - pc) - qc).real / qc.real
    bce = -(y * np.log(pc) + (1.0 - y) * log_1mp).mean()
    dice = 1.0 - 2.0 * (p * y).sum() / ((p * p).sum() + (y * y).sum() + DICE_EPS)
    return bce + dice


def reference_forward(support: tuple[np.ndarray, np.ndarray, np.ndarray],
                      query: tuple[np.ndarray, np.ndarray, np.ndarray],
                      support_mask: np.ndarray, query_mask: np.ndarray,
                      params: dict[str, np.ndarray], cfg) -> dict[str, np.ndarray]:
    """Prompts, pseudo mask, probabilities and loss of one episode:
    ``pos``, ``neg`` (with the negative branch), ``pseudo``, ``probs`` and
    the scalar ``loss``. ``support`` and ``query`` are the encoder's (mid,
    high, sam) maps [C, h, w]; the masks are binary at the feature
    resolution [h, w]; ``params`` maps every parameter name of
    ``ModelParams.named`` to its array; ``cfg`` is a ``TrainConfig``, read
    for its four ablation switches and ``tau``."""
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
    logit = _logit(out["pos"], out.get("neg"), query[2], cfg.tau)
    out["probs"] = _sigmoid(logit)
    out["loss"] = np.asarray(_loss(out["probs"], _sigmoid(-logit), query_mask))
    return out


def complex_step(f, params: dict[str, np.ndarray], direction: dict[str, np.ndarray]) -> float:
    """Derivative of ``f(params)`` along ``direction`` (parameter name ->
    array; absent names stay fixed): Im f(p + i h v) / h, no difference taken."""
    shifted = {name: p + 1j * COMPLEX_STEP * direction[name] if name in direction else p
               for name, p in params.items()}
    return float(np.imag(f(shifted))) / COMPLEX_STEP


def _window_stack(img: np.ndarray, radius: int) -> np.ndarray:
    """Every shifted copy of an edge-padded image under a square window,
    stacked in (row, column) order: [(2r + 1)**2, ..., H, W]."""
    h, w = img.shape[-2:]
    size = 2 * radius + 1
    padded = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(radius, radius)] * 2, mode="edge")
    return np.stack([padded[..., r:r + h, c:c + w] for r in range(size) for c in range(size)])


def descriptors_reference(img: np.ndarray) -> np.ndarray:
    """The stub encoder's 15 per-pixel statistics of an image [H, W] ->
    [HW, 15], or of a stack [B, H, W] -> [B, HW, 15], from stacked windows
    reduced by ``mean``, ``std``, ``max`` and ``min``, in the column order of
    ``oracles.DESCRIPTOR_COLUMNS``."""
    h, w = img.shape[-2:]
    near = _window_stack(img, 1)
    wide = _window_stack(img, 2)
    wider = _window_stack(img, 3)
    mean3 = near.mean(axis=0)
    padded = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(1, 1)] * 2, mode="edge")
    gx = padded[..., 1:-1, 2:] - padded[..., 1:-1, :-2]
    gy = padded[..., 2:, 1:-1] - padded[..., :-2, 1:-1]
    yy, xx = np.meshgrid(np.linspace(0.0, 1.0, h), np.linspace(0.0, 1.0, w), indexing="ij")
    desc = np.stack([img, mean3, near.max(axis=0), near.min(axis=0), near.std(axis=0),
                     wide.mean(axis=0), wide.std(axis=0), wider.mean(axis=0), wider.std(axis=0),
                     np.abs(img - mean3), gx, gy, np.broadcast_to(yy, img.shape),
                     np.broadcast_to(xx, img.shape), np.ones_like(img)], axis=-3)
    return np.swapaxes(desc.reshape(img.shape[:-2] + (desc.shape[-3], h * w)), -1, -2)


def project_reference(encoder, desc: np.ndarray, shape: tuple[int, ...]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mid, high and sam maps of images of ``shape`` ([H, W] or
    [B, H, W]) from their descriptors [..., HW, 15], as the stub encoder
    ``encoder`` makes them from its ``seed``, ``stride``, ``d_mid``,
    ``d_high`` and ``d_sam``: each projection, drawn again from the seed, is
    applied as ``tanh(desc @ proj)`` and swapped channel-major; with a stride
    s, each map is then averaged over the s x s cells of its strided view."""
    lead = shape[:-2]
    h, w = shape[-2:]
    dim = desc.shape[-1]
    s = encoder.stride
    maps = []
    for role, width in enumerate((encoder.d_mid, encoder.d_high, encoder.d_sam)):
        proj = rng_for(encoder.seed, tag("encoder"), role).normal(size=(dim, width)) / np.sqrt(dim)
        feat = np.swapaxes(np.tanh(desc @ proj), -1, -2).reshape(lead + (width, h, w))
        if s > 1:
            feat = feat.reshape(lead + (width, h // s, s, w // s, s)).mean(axis=(-3, -1))
        maps.append(feat)
    return maps[0], maps[1], maps[2]


# Reference scenes: each family draws its parameters and returns a box that
# holds its shape, (top, left, bottom, right) inclusive, and the shape's
# formula over row and column grids, rasterized over the box clipped to the
# canvas: the literal form of what ``episodes`` draws from cached stamps.

def _centered_reference(rng, h, w, ry, rx, inside, reach=0):
    """A shape of half-extents (ry, rx) (or ``reach``, if further) about a
    center that keeps (ry, rx) inside; ``inside`` takes offsets from it."""
    cy = int(rng.integers(ry, h - ry)) if h - ry > ry else ry
    cx = int(rng.integers(rx, w - rx)) if w - rx > rx else rx
    ey, ex = max(ry, reach), max(rx, reach)
    return (cy - ey, cx - ex, cy + ey, cx + ex), lambda rr, cc: inside(rr - cy, cc - cx)


def _disk_reference(rng, h, w):
    m = min(h, w)
    r = int(rng.integers(max(1, m // 8), max(2, int(m / 3.2)) + 1))
    return _centered_reference(rng, h, w, r, r, lambda dy, dx: dy ** 2 + dx ** 2 <= r * r)


def _rectangle_reference(rng, h, w):
    hy = int(rng.integers(1, max(2, h // 4) + 1))
    hx = int(rng.integers(1, max(2, w // 4) + 1))
    return _centered_reference(rng, h, w, hy, hx,
                               lambda dy, dx: (np.abs(dy) <= hy) & (np.abs(dx) <= hx))


def _triangle_reference(rng, h, w):
    m = min(h, w)
    s = int(rng.integers(3, max(4, int(m * 0.66)) + 1))
    r0 = int(rng.integers(0, h - s + 1))
    c0 = int(rng.integers(0, w - s + 1))
    k = int(rng.integers(0, 4))

    def inside(rr, cc):
        a, b = rr - r0, cc - c0
        box = (a >= 0) & (b >= 0) & (a < s) & (b < s)
        aa = np.where(k < 2, a, s - 1 - a)
        bb = np.where(k % 2 == 0, b, s - 1 - b)
        return box & (aa + bb < s)
    return (r0, c0, r0 + s - 1, c0 + s - 1), inside


def _ring_reference(rng, h, w):
    m = min(h, w)
    r_out = int(rng.integers(max(2, m // 5), max(3, int(m / 2.6)) + 1))
    r_in = max(1, int(r_out * 0.5))
    return _centered_reference(rng, h, w, r_out, r_out, lambda dy, dx: (
        (dy ** 2 + dx ** 2 <= r_out * r_out) & (dy ** 2 + dx ** 2 > r_in * r_in)))


def _cross_reference(rng, h, w):
    m = min(h, w)
    a = int(rng.integers(max(2, m // 5), max(3, m // 2 - 1) + 1))
    t = int(rng.integers(0, max(1, m // 10) + 1))
    return _centered_reference(rng, h, w, a, a, lambda dy, dx: (
        ((np.abs(dy) <= t) & (np.abs(dx) <= a)) | ((np.abs(dx) <= t) & (np.abs(dy) <= a))), t)


def _bar_reference(rng, h, w):
    m = min(h, w)
    t = int(rng.integers(0, max(1, m // 10) + 1))
    if int(rng.integers(0, 2)) == 0:
        ry, rx = t, int(rng.integers(w // 2, w - 1)) // 2
    else:
        ry, rx = int(rng.integers(h // 2, h - 1)) // 2, t
    return _centered_reference(rng, h, w, ry, rx,
                               lambda dy, dx: (np.abs(dy) <= ry) & (np.abs(dx) <= rx))


def _lshape_reference(rng, h, w):
    m = min(h, w)
    s1 = int(rng.integers(max(2, m // 3), max(3, int(m * 0.6)) + 1))
    s2 = int(rng.integers(max(2, m // 3), max(3, int(m * 0.6)) + 1))
    t = int(rng.integers(1, max(2, m // 6) + 1))
    r0 = int(rng.integers(0, h - s1))
    c0 = int(rng.integers(0, w - s2))
    k = int(rng.integers(0, 4))

    def inside(rr, cc):
        a, b = rr - r0, cc - c0
        if k >= 2:
            a = (s1 - 1) - a
        if k % 2 == 1:
            b = (s2 - 1) - b
        vertical = (a >= 0) & (a < s1) & (b >= 0) & (b < t)
        horizontal = (a >= 0) & (a < t) & (b >= 0) & (b < s2)
        return vertical | horizontal
    # both arms lie within t of the s1 x s2 box at (r0, c0), flipped or not
    return (r0 - t, c0 - t, r0 + s1 + t, c0 + s2 + t), inside


def _checkerblob_reference(rng, h, w):
    m = min(h, w)
    r = int(rng.integers(max(1, m // 5), max(2, int(m / 2.4)) + 1))
    return _centered_reference(rng, h, w, r, r, lambda dy, dx: np.abs(dy) + np.abs(dx) <= r)


_FAMILY_REFERENCES = (_disk_reference, _rectangle_reference, _triangle_reference,
                      _ring_reference, _cross_reference, _bar_reference, _lshape_reference,
                      _checkerblob_reference)


def _footprint_reference(class_id, rng, h, w):
    lo = max(2, int(math.ceil(MIN_AREA_FRAC * h * w)))
    hi = int(math.floor(MAX_AREA_FRAC * h * w))
    draw = _FAMILY_REFERENCES[class_id // 2]
    fp = np.zeros((h, w), dtype=bool)
    for _ in range(200):
        (top, left, bottom, right), inside = draw(rng, h, w)
        rr = np.arange(max(top, 0), min(bottom, h - 1) + 1)[:, None]
        cc = np.arange(max(left, 0), min(right, w - 1) + 1)
        # a shape covers at most its box, so a box under ``lo`` pixels fails unrastered
        if rr.size * cc.size >= lo and lo <= np.count_nonzero(pixels := inside(rr, cc)) <= hi:
            fp[rr, cc] = pixels
            return fp
    side = math.isqrt(lo - 1) + 1
    rows = h if h < side else side if w >= side else -(-lo // w)
    cols = w if w < side else side if h >= side else -(-lo // h)
    fp[(h - rows) // 2:(h - rows) // 2 + rows, (w - cols) // 2:(w - cols) // 2 + cols] = True
    return fp


def _paint_reference(img, footprint, class_id, rng):
    h, w = img.shape
    base = float(rng.uniform(0.72, 0.95))
    fill = np.full((h, w), base)
    if class_id % 2 == 1:
        fill[1::2, :] *= 0.62
    if class_id // 2 == 7:
        rr, cc = np.ogrid[:h, :w]
        fill = np.where((rr + cc) % 2 == 0, fill, fill * 0.8)
    img[footprint] = fill[footprint]


def scene_reference(class_id: int, rng: np.random.Generator, h: int, w: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Image and target mask of one scene, every footprint a raster of its
    formula: the draws, their order and the arithmetic of ``episodes``."""
    img = rng.uniform(0.0, 0.25, (h, w))
    target = _footprint_reference(class_id, rng, h, w)
    overlap_limit = MAX_OVERLAP_FRAC * target.sum()
    placed = []
    for _ in range(int(rng.integers(1, 3))):
        other = int(rng.integers(0, CLASS_COUNT - 1))
        if other >= class_id:
            other += 1
        for _attempt in range(50):
            fp = _footprint_reference(other, rng, h, w)
            if np.logical_and(fp, target).sum() <= overlap_limit:
                placed.append((other, fp))
                break
    for other, fp in placed:
        _paint_reference(img, fp, other, rng)
    _paint_reference(img, target, class_id, rng)
    img = np.round(img * 1024.0) / 1024.0  # the episodes' 1/1024 grid
    return img, target.astype(np.float64)


def episode_reference(class_id: int, seed: int, canvas: tuple[int, int]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``gen_episode``'s support image, support mask, query image and query
    mask, from ``scene_reference``."""
    support, query = (scene_reference(class_id, rng_for(seed, tag(side), class_id), *canvas)
                      for side in ("support", "query"))
    return *support, *query
