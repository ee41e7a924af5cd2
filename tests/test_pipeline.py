import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcsam import tensor as T
from dcsam.config import TrainConfig
from dcsam.decoder import decode
from dcsam.encoder import EncoderMaps, StubEncoder
from dcsam.episodes import gen_episode
from dcsam.errors import EmptySupportMask, ShapeMismatch
from dcsam.losses import total_loss
from dcsam.pipeline import (
    ModelParams,
    downsample_mask,
    fuse,
    generate_prompts,
    infer_mask,
    init_params,
    label_prompts,
    mask_average,
    max_cosine_map,
    prior_mask,
    upsample_map,
    watch_params,
)
from dcsam.tensor import GradTape, Tensor, grad


CFG = TrainConfig(seed=0, embed_dim=6, n_queries=4, mid_channels=3, high_channels=3)


def encode_episode(ep, cfg=CFG, seed=0):
    enc = cfg.encoder(seed)
    return enc.encode(ep.support_img), enc.encode(ep.query_img)


def test_init_params_deterministic_and_complete():
    a = init_params(CFG, seed=5)
    b = init_params(CFG, seed=5)
    c = init_params(CFG, seed=6)
    named = a.named()
    # 2 fusion tensors, 3 attention blocks of 3 matrices, 2 query sets, 2 labels
    assert len(named) == 15
    for name, t in named.items():
        assert np.array_equal(t.data, b.named()[name].data), name
    assert not np.array_equal(a.q_pos.data, c.q_pos.data)
    assert np.array_equal(a.fusion_b.data, np.zeros(CFG.embed_dim))


def test_named_from_named_round_trip():
    params = init_params(CFG, seed=1)
    back = ModelParams.from_named(params.named())
    for name, t in back.named().items():
        assert t is params.named()[name], name


def test_watch_params_gives_tracked_aliases():
    params = init_params(CFG, seed=2)
    tape = GradTape()
    tracked_params, tracked = watch_params(tape, params)
    assert set(tracked) == set(params.named())
    for name, t in tracked_params.named().items():
        assert np.array_equal(t.data, params.named()[name].data)
        assert t.tape is tape


def test_mask_average_hand_case():
    feat = Tensor(np.stack([np.arange(4.0).reshape(2, 2), np.ones((2, 2))]))
    mask = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    pooled = mask_average(feat, mask)
    # channel 0: (0 + 3) / 2, channel 1: 1; denominator carries +1e-6
    assert pooled.data[0] == pytest.approx(1.5, rel=1e-6)
    assert pooled.data[1] == pytest.approx(1.0, rel=1e-6)


def test_max_cosine_map_finds_identical_vector(rng):
    f_s = Tensor(rng.normal(size=(4, 3, 3)))
    f_q_data = rng.normal(size=(4, 3, 3))
    f_q_data[:, 1, 2] = f_s.data[:, 0, 0]  # plant an exact copy of a masked vector
    mask = np.zeros((3, 3))
    mask[0, 0] = 1.0
    out = max_cosine_map(Tensor(f_q_data), f_s, Tensor(mask))
    assert out.data[1, 2] == pytest.approx(1.0, abs=1e-9)
    assert out.data.max() <= 1.0 + 1e-9


def unit_cosine_pairwise(f_q, f_s, mask):
    """Best cosine per query position: each vector divided by its norm (a
    zero vector stays zero), then every pair's dot product, one query
    position against each masked support position at a time."""
    c, h, w = f_q.shape

    def unit(v):
        norm = np.linalg.norm(v, axis=1, keepdims=True)
        return np.divide(v, norm, out=np.zeros_like(v), where=norm > 0.0)

    q = unit(f_q.reshape(c, -1).T)
    s = unit(f_s.reshape(c, -1).T[mask.reshape(-1) == 1.0])
    return np.array([(s @ row).max() for row in q]).reshape(h, w)


@pytest.mark.parametrize("lead", [(), (5,)])
@pytest.mark.parametrize("c, h, w, frac", [(4, 6, 5, 0.3), (6, 32, 32, 0.7)])
def test_max_cosine_map_is_the_unit_vector_cosine(rng, lead, c, h, w, frac):
    # canvas 32 spans eight 128-row blocks
    f_q = rng.normal(size=lead + (c, h, w))
    f_s = rng.normal(size=lead + (c, h, w))
    mask = (rng.random(lead + (h, w)) < frac).astype(float)
    mask[..., 0, 0] = 1.0
    got = max_cosine_map(Tensor(f_q), Tensor(f_s), Tensor(mask)).data
    for idx in np.ndindex(lead):
        want = unit_cosine_pairwise(f_q[idx], f_s[idx], mask[idx])
        np.testing.assert_allclose(got[idx], want, rtol=0, atol=1e-14)


def test_max_cosine_map_scores_zero_vectors_zero(rng):
    f_q, f_s = rng.normal(size=(4, 3, 3)), rng.normal(size=(4, 3, 3))
    f_q[:, 0, 1] = 0.0
    f_s[:, 2, 2] = 0.0
    only_zero = np.zeros((3, 3))
    only_zero[2, 2] = 1.0
    out = max_cosine_map(Tensor(f_q), Tensor(f_s), Tensor(np.ones((3, 3)))).data
    assert out[0, 1] == 0.0
    assert np.array_equal(max_cosine_map(Tensor(f_q), Tensor(f_s), Tensor(only_zero)).data,
                          np.zeros((3, 3)))


@pytest.mark.parametrize("factor", [1e-200, 1e-150, 1e150, 1e200])
def test_max_cosine_map_is_scale_invariant(rng, factor):
    # at 1e-150 an epsilon of 1e-12 would swamp |q||s|; at 1e-200 and 1e200
    # the squares of a plain norm underflow or overflow
    f_q, f_s = rng.normal(size=(6, 8, 8)), rng.normal(size=(6, 8, 8))
    mask = Tensor((rng.random((8, 8)) < 0.5).astype(float))
    base = max_cosine_map(Tensor(f_q), Tensor(f_s), mask).data
    with np.errstate(all="raise"):
        scaled = max_cosine_map(Tensor(f_q * factor), Tensor(f_s * factor), mask).data
    np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-15)


# Counts the mappings NumPy advised for huge pages after three canvas-32
# prior maps (a whole similarity matrix would be 8 MiB), then after three
# plain NumPy arrays of that size.
HUGE_PAGE_PROBE = """
import numpy as np
from dcsam.pipeline import max_cosine_map
from dcsam.tensor import Tensor

def advised():
    with open("/proc/self/smaps") as f:
        return sum(line.startswith("VmFlags:") and " hg" in line for line in f)

rng = np.random.default_rng(0)
f_q, f_s = Tensor(rng.normal(size=(6, 32, 32))), Tensor(rng.normal(size=(6, 32, 32)))
for _ in range(3):
    max_cosine_map(f_q, f_s, Tensor(np.ones((32, 32))))
after_map = advised()
for _ in range(3):
    np.ones((1024, 1024)).sum()
print(after_map, advised())
"""


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="needs /proc/self/smaps")
def test_max_cosine_map_leaves_no_huge_page_advice_in_the_heap():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", HUGE_PAGE_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    after_map, after_plain = map(int, proc.stdout.split())
    if after_plain == 0:
        pytest.skip("NumPy does not advise huge pages on this system")
    assert after_map == 0


def test_prior_mask_normalized(rng):
    f_q = Tensor(rng.normal(size=(3, 4, 4)))
    f_s = Tensor(rng.normal(size=(3, 4, 4)))
    mask = (rng.random((4, 4)) > 0.5).astype(float)
    mask[0, 0] = 1.0
    out = prior_mask(f_q, f_s, Tensor(mask)).data
    assert out.min() == 0.0
    assert out.max() == 1.0


def test_prior_mask_constant_input_is_zeros():
    f = Tensor(np.ones((2, 3, 3)))
    mask = np.zeros((3, 3))
    mask[1, 1] = 1.0
    out = prior_mask(f, f, Tensor(mask))
    assert np.array_equal(out.data, np.zeros((3, 3)))


def test_fuse_missing_prior_equals_zero_prior(rng):
    params = init_params(CFG, seed=3)
    feat = Tensor(rng.normal(size=(CFG.mid_channels, 4, 4)))
    pooled = Tensor(rng.normal(size=CFG.mid_channels))
    sam = Tensor(rng.normal(size=(CFG.embed_dim, 4, 4)))
    none_prior = fuse(feat, pooled, sam, None, params)
    zero_prior = fuse(feat, pooled, sam, Tensor(np.zeros((4, 4))), params)
    assert np.array_equal(none_prior.data, zero_prior.data)
    assert none_prior.shape == (CFG.embed_dim, 4, 4)


def test_fuse_prior_channel_matters(rng):
    params = init_params(CFG, seed=3)
    feat = Tensor(rng.normal(size=(CFG.mid_channels, 4, 4)))
    pooled = Tensor(rng.normal(size=CFG.mid_channels))
    sam = Tensor(rng.normal(size=(CFG.embed_dim, 4, 4)))
    with_prior = fuse(feat, pooled, sam, Tensor(np.ones((4, 4))), params)
    without = fuse(feat, pooled, sam, None, params)
    assert not np.array_equal(with_prior.data, without.data)


def test_label_prompts_adds_embedding(rng):
    params = init_params(CFG, seed=4)
    raw_pos = Tensor(rng.normal(size=(CFG.n_queries, CFG.embed_dim)))
    raw_neg = Tensor(rng.normal(size=(CFG.n_queries, CFG.embed_dim)))
    pos_l, neg_l = label_prompts(raw_pos, raw_neg, params)
    assert np.allclose(pos_l.data - raw_pos.data, np.tile(params.e_pos.data, (CFG.n_queries, 1)))
    assert np.allclose(neg_l.data - raw_neg.data, np.tile(params.e_neg.data, (CFG.n_queries, 1)))
    pos_only, none_neg = label_prompts(raw_pos, None, params)
    assert none_neg is None


def test_generate_prompts_shapes_and_pseudo():
    ep = gen_episode(6, 3, (16, 16))
    enc_s, enc_q = encode_episode(ep)
    params = init_params(CFG, seed=7)
    prompts, pseudo = generate_prompts(enc_s, enc_q, ep.support_mask, params, CFG)
    n, d = CFG.n_queries, CFG.embed_dim
    assert prompts.pos.shape == (n, d)
    assert prompts.neg.shape == (n, d)
    assert pseudo.shape == (16, 16)
    assert np.isin(pseudo.data, (0.0, 1.0)).all()
    assert pseudo.tape is None  # thresholding detaches


def test_branch_swap_symmetry():
    # complementing the support mask while swapping the branch parameters
    # must swap the branch outputs exactly
    ep = gen_episode(9, 12, (16, 16))
    enc_s, enc_q = encode_episode(ep)
    params = init_params(CFG, seed=8)
    swapped = dataclasses.replace(params, q_pos=params.q_neg, q_neg=params.q_pos,
                                  e_pos=params.e_neg, e_neg=params.e_pos)
    flipped_mask = Tensor(1.0 - ep.support_mask.data)

    straight, pseudo_a = generate_prompts(enc_s, enc_q, ep.support_mask, params, CFG)
    crossed, pseudo_b = generate_prompts(enc_s, enc_q, flipped_mask, swapped, CFG)

    assert np.array_equal(pseudo_b.data, 1.0 - pseudo_a.data)
    assert np.array_equal(crossed.pos.data, straight.neg.data)
    assert np.array_equal(crossed.neg.data, straight.pos.data)


def test_empty_branch_masks_raise():
    ep = gen_episode(2, 1, (16, 16))
    enc_s, enc_q = encode_episode(ep)
    params = init_params(CFG, seed=1)
    with pytest.raises(EmptySupportMask):
        generate_prompts(enc_s, enc_q, Tensor(np.zeros((16, 16))), params, CFG)
    with pytest.raises(EmptySupportMask):
        generate_prompts(enc_s, enc_q, Tensor(np.ones((16, 16))), params, CFG)
    # without the negative branch an all-foreground support is legal
    solo = dataclasses.replace(CFG, use_neg_branch=False)
    prompts, _ = generate_prompts(enc_s, enc_q, Tensor(np.ones((16, 16))), params, solo)
    assert prompts.neg is None


def test_generate_prompts_validation(rng):
    ep = gen_episode(2, 1, (16, 16))
    enc_s, enc_q = encode_episode(ep)
    params = init_params(CFG, seed=1)
    with pytest.raises(ShapeMismatch):
        generate_prompts(enc_s, enc_q, Tensor(np.zeros((8, 8))), params, CFG)
    with pytest.raises(ValueError):
        generate_prompts(enc_s, enc_q, Tensor(np.full((16, 16), 0.5)), params, CFG)
    lop_sided = EncoderMaps(mid=enc_s.mid, high=enc_s.high,
                            sam=Tensor(rng.normal(size=(CFG.embed_dim, 8, 8))))
    with pytest.raises(ShapeMismatch):
        generate_prompts(lop_sided, enc_q, ep.support_mask, params, CFG)


def test_ablation_switches_change_outputs():
    ep = gen_episode(10, 4, (16, 16))
    enc_s, enc_q = encode_episode(ep)
    params = init_params(CFG, seed=9)
    base, _ = generate_prompts(enc_s, enc_q, ep.support_mask, params, CFG)
    for field in ("use_sam_fusion", "use_cyc_bias", "use_prior_mask"):
        ablated_cfg = dataclasses.replace(CFG, **{field: False})
        ablated, _ = generate_prompts(enc_s, enc_q, ep.support_mask, params, ablated_cfg)
        assert not np.array_equal(ablated.pos.data, base.pos.data), field


def test_every_parameter_receives_gradient():
    ep = gen_episode(8, 2, (16, 16))
    enc_s, enc_q = encode_episode(ep)
    params = init_params(CFG, seed=10)
    tape = GradTape()
    tracked_params, tracked = watch_params(tape, params)
    prompts, _ = generate_prompts(enc_s, enc_q, ep.support_mask, tracked_params, CFG)
    probs = decode(prompts.pos, prompts.neg, enc_q.sam, CFG.tau)
    loss = total_loss(probs, ep.query_mask)
    grads = grad(tape, loss)
    for name, t in tracked.items():
        g = grads[t].data
        assert np.abs(g).max() > 0, f"{name} got no gradient"


def test_downsample_mask_block_max():
    mask = Tensor(np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]))
    down = downsample_mask(mask, 2)
    assert np.array_equal(down.data, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert downsample_mask(mask, 1) is mask
    with pytest.raises(ShapeMismatch):
        downsample_mask(Tensor(np.zeros((5, 4))), 2)


def test_upsample_map_nearest():
    t = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    up = upsample_map(t, 2)
    assert up.shape == (4, 4)
    assert np.array_equal(up.data[:2, :2], np.full((2, 2), 1.0))
    assert np.array_equal(up.data[2:, 2:], np.full((2, 2), 4.0))
    assert upsample_map(t, 1) is t


def test_infer_mask_end_to_end():
    ep = gen_episode(14, 5, (16, 16))
    params = init_params(CFG, seed=11)
    encoder = CFG.encoder(seed=0)
    out = infer_mask(ep.support_img, ep.support_mask, ep.query_img, params, CFG, encoder)
    assert out.shape == (16, 16)
    assert (out.data > 0).all() and (out.data < 1).all()


def test_infer_mask_respects_stride():
    cfg = dataclasses.replace(CFG, stride=2)
    ep = gen_episode(14, 5, (16, 16))
    params = init_params(cfg, seed=11)
    encoder = cfg.encoder(seed=0)
    out = infer_mask(ep.support_img, ep.support_mask, ep.query_img, params, cfg, encoder)
    assert out.shape == (16, 16)
    # nearest-neighbor upsample repeats each feature cell over its 2x2 block
    assert np.array_equal(out.data[::2, ::2], out.data[1::2, 1::2])
