"""Batched episodes against the reference model and single-episode calls.

``dcsam.reference`` is the oracle for the batched gradients: along random
directions, the tape's derivative of a batch's mean loss must match the
complex step of the reference's batch-mean loss within 1e-12 (relative to
the larger of 1 and the reference magnitude), and every cycle-bias row the
batch computes must equal the reference bias of its episode exactly. The
``reference`` suite holds the batched forward to the same reference. A bad
episode inside a batch must fail as it does alone.
"""
import numpy as np
import pytest

import dcsam.attention as attention
from dcsam import pipeline
from dcsam import tensor as T
from dcsam.config import TrainConfig
from dcsam.episodes import CLASS_COUNT, gen_episode, split_folds, class_registry
from dcsam.errors import AllMasked, EmptySupportMask, ShapeMismatch
from dcsam.oracles import BATCH_TOL, BATCH_VARIANTS, batch_gradient_deviations, run_batch_suite
from dcsam.encoder import StubEncoder
from dcsam.pipeline import bulk_forward, generate_prompts, infer_mask, init_params
from dcsam.reference import cycle_bias_reference
from dcsam.tensor import GradTape, Tensor, grad
from dcsam.trainer import evaluate


def make_episodes(b, canvas=8, seed=0):
    return [gen_episode((seed + 5 * i) % CLASS_COUNT, 9000 + 31 * seed + i, (canvas, canvas))
            for i in range(b)]


def stacked(episodes, name):
    return Tensor(np.stack([getattr(ep, name).data for ep in episodes]))


def recorded_bias_calls(monkeypatch, run):
    """The affinity, mask and bias of every cycle-bias call made while
    ``run()`` executes, as arrays."""
    seen = []
    original = attention.cycle_bias

    def spy(a, mask):
        out = original(a, mask)
        seen.append((a.data, mask.data, out))
        return out

    monkeypatch.setattr(attention, "cycle_bias", spy)
    result = run()
    monkeypatch.setattr(attention, "cycle_bias", original)
    return result, seen


@pytest.mark.parametrize("b", [1, 3, 32])
@pytest.mark.parametrize("variant", BATCH_VARIANTS, ids=lambda v: ",".join(v) or "full")
def test_batched_matches_episode_loop(monkeypatch, b, variant):
    cfg = TrainConfig(seed=17, canvas=8, **variant)
    encoder = cfg.encoder(cfg.seed)
    params = init_params(cfg, cfg.seed)
    episodes = make_episodes(b, seed=b)
    # one direction per tensor for small batches; for 32 episodes, one over
    # every tensor at once, so the reference runs one complex forward each
    devs, calls = recorded_bias_calls(monkeypatch, lambda: batch_gradient_deviations(
        episodes, params, cfg, encoder, np.random.default_rng(b), per_tensor=b < 32))
    assert len(devs) == (15 if b < 32 else 1)
    assert max(devs.values()) <= BATCH_TOL, devs
    # the batch makes each call once for all episodes: per branch, the
    # support pass and the query pass
    assert len(calls) == (2 * (1 + cfg.use_neg_branch) if cfg.use_cyc_bias else 0)
    for a, mask, rows in calls:
        assert rows.shape == mask.shape == (b, a.shape[-1])
        for i in range(b):
            assert np.array_equal(rows[i], cycle_bias_reference(a[i], mask[i]))


def test_batch_suite_passes_and_catches_a_wrong_batched_gradient(monkeypatch):
    assert run_batch_suite(trials=6, seed=3).passed
    original = T._add_rowvec_vjp

    def dropped_last_episode(g):
        gm, gv = original(g)
        if g.ndim == 3 and g.shape[0] > 1:
            gv = original(g[:-1])[1]
        return gm, gv

    monkeypatch.setattr(T, "_add_rowvec_vjp", dropped_last_episode)
    result = run_batch_suite(trials=6, seed=3, max_batch=4)
    assert not result.passed
    assert any("grad e_" in line for line in result.detail)


def test_batch_suite_catches_a_matmul_gradient_off_by_one_part_in_a_billion(monkeypatch):
    original = T._matmul_vjp

    def scaled(g, a, b):
        ga, gb = original(g, a, b)
        return ga * (1.0 + 1e-9), gb

    monkeypatch.setattr(T, "_matmul_vjp", scaled)
    result = run_batch_suite(trials=6, seed=3, max_batch=3)
    assert result.failures == 6
    assert all("deviates by" in line for line in result.detail)


def test_episode_stacks_equal_np_stack_and_share_no_memory(monkeypatch):
    cfg = TrainConfig(seed=5, canvas=8)
    episodes = make_episodes(3)
    images = []
    original = StubEncoder.encode

    def spy(self, image, batched=False):
        images.append(image)
        return original(self, image, batched)

    monkeypatch.setattr(StubEncoder, "encode", spy)
    bulk_forward([ep.support_img for ep in episodes], [ep.support_mask for ep in episodes],
                 [ep.query_img for ep in episodes], None, init_params(cfg, cfg.seed), cfg,
                 cfg.encoder(cfg.seed))
    for name, t in zip(("support_img", "query_img"), images, strict=True):
        parts = [getattr(ep, name).data for ep in episodes]
        assert t.data.tobytes() == np.stack(parts).tobytes() and t.shape == (3, 8, 8)
        assert not t.data.flags.writeable
        assert not any(np.shares_memory(t.data, part) for part in parts)


def test_infer_mask_batched_matches_single():
    # a single episode shares its support with its one query; a stack runs
    # each episode with prompts of its own
    for canvas, stride, neg in ((8, 2, True), (16, 1, False), (32, 2, True), (32, 1, True)):
        cfg = TrainConfig(seed=5, canvas=canvas, stride=stride, use_neg_branch=neg)
        encoder = cfg.encoder(cfg.seed)
        params = init_params(cfg, cfg.seed)
        episodes = make_episodes(5, canvas)
        batched = infer_mask(*(stacked(episodes, name) for name in
                               ("support_img", "support_mask", "query_img")), params, cfg, encoder)
        for ep, probs in zip(episodes, batched.data):
            single = infer_mask(ep.support_img, ep.support_mask, ep.query_img, params, cfg,
                                encoder)
            assert single.data.tobytes() == probs.tobytes(), (canvas, stride, neg)


def test_evaluate_does_not_depend_on_the_chunk_size(monkeypatch):
    fold = split_folds(class_registry(), 1)
    cfg = TrainConfig(seed=3, canvas=8)
    params = init_params(cfg, seed=0)
    reports = []
    for episodes in (1, 5, 3 * len(fold.test_classes)):    # per stack
        monkeypatch.setattr(pipeline, "CHUNK_PIXELS", episodes * cfg.canvas ** 2)
        reports.append(evaluate(params, cfg, fold, episodes_per_class=3))
    assert reports[0] == reports[1] == reports[2]


# -- a bad episode inside a batch fails as it does alone -----------------------

def _prompt_inputs(b, canvas=8):
    cfg = TrainConfig(seed=2, canvas=canvas)
    encoder = cfg.encoder(cfg.seed)
    episodes = make_episodes(b)
    return (cfg, init_params(cfg, cfg.seed),
            encoder.encode(stacked(episodes, "support_img"), batched=True),
            encoder.encode(stacked(episodes, "query_img"), batched=True),
            stacked(episodes, "support_mask"))


def single_episode(enc_s, enc_q, masks, k):
    """Episode k of stacked encoder maps and masks, unbatched."""
    pick = lambda maps: type(maps)(mid=Tensor(maps.mid.data[k]), high=Tensor(maps.high.data[k]),
                                   sam=Tensor(maps.sam.data[k]))
    return pick(enc_s), pick(enc_q), Tensor(masks[k])


@pytest.mark.parametrize("fill", [0.0, 1.0], ids=["empty-positive", "empty-negative"])
def test_empty_support_mask_in_batch(fill):
    cfg, params, enc_s, enc_q, masks = _prompt_inputs(4)
    bad = masks.data.copy()
    bad[2] = fill
    alone = single_episode(enc_s, enc_q, bad, 2)
    with pytest.raises(EmptySupportMask):
        generate_prompts(*alone, params, cfg)
    with pytest.raises(EmptySupportMask):
        generate_prompts(enc_s, enc_q, Tensor(bad), params, cfg)


def test_non_binary_mask_in_batch():
    cfg, params, enc_s, enc_q, masks = _prompt_inputs(3)
    bad = masks.data.copy()
    bad[1, 0, 0] = 0.5
    with pytest.raises(ValueError):
        generate_prompts(*single_episode(enc_s, enc_q, bad, 1), params, cfg)
    with pytest.raises(ValueError):
        generate_prompts(enc_s, enc_q, Tensor(bad), params, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_value_in_one_episode_of_batch():
    cfg, params, enc_s, enc_q, masks = _prompt_inputs(3)
    sam = enc_q.sam.data.copy()
    sam[1] *= 1e306     # finite input, but the decoder's products overflow
    enc_q = type(enc_q)(mid=enc_q.mid, high=enc_q.high, sam=Tensor(sam))
    with pytest.raises(FloatingPointError):
        generate_prompts(*single_episode(enc_s, enc_q, masks.data, 1), params, cfg)
    with pytest.raises(FloatingPointError):
        generate_prompts(enc_s, enc_q, masks, params, cfg)


def test_all_masked_row_in_one_episode(rng):
    x = Tensor(rng.normal(size=(3, 2, 4)))
    bias = np.zeros((3, 4))
    bias[1] = -np.inf
    with pytest.raises(AllMasked):
        T.masked_softmax_rows(Tensor(x.data[1]), bias[1])
    with pytest.raises(AllMasked):
        T.masked_softmax_rows(x, bias)


def test_batched_shape_errors(rng):
    with pytest.raises(ShapeMismatch):
        T.matmul(Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(3, 4, 2))))
    with pytest.raises(ShapeMismatch):
        T.masked_softmax_rows(Tensor(rng.normal(size=(2, 3, 4))), np.zeros((3, 4)))
    with pytest.raises(ShapeMismatch):
        T.concat_channels([Tensor(np.ones((2, 1, 3, 3))), Tensor(np.ones((3, 1, 3, 3)))])


# -- finite differences of every batched op -------------------------------------

def fd_check(build, params, h=1e-5, tol=1e-4):
    """build(tracked_list) -> scalar Tensor; checks every coordinate."""
    tape = GradTape()
    tracked = [tape.watch(Tensor(p)) for p in params]
    grads = grad(tape, build(tracked))
    for idx, p in enumerate(params):
        ana = grads[tracked[idx]].data.reshape(-1)
        for c in range(p.size):
            def at(delta):
                bumped = [q.copy() for q in params]
                bumped[idx].reshape(-1)[c] += delta
                return build([Tensor(q) for q in bumped]).item()

            fd = (at(h) - at(-h)) / (2 * h)
            assert abs(ana[c] - fd) <= tol * max(abs(ana[c]), abs(fd), 1e-2), (
                f"param {idx} coord {c}: analytic {ana[c]} vs fd {fd}")


def test_fd_batched_matmul(rng):
    a3, b3 = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 2))
    a2, b2 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    for pair in ([a3, b2], [a2, b3], [a3, b3]):
        fd_check(lambda p: T.sum_all(T.sigmoid(T.matmul(p[0], p[1]))),
                 [x.copy() for x in pair])


def test_fd_batched_structural_ops(rng):
    a = rng.normal(size=(2, 3, 4))
    fd_check(lambda p: T.sum_all(T.mul(T.transpose(p[0]), T.transpose(p[0]))), [a.copy()])
    fd_check(lambda p: T.sum_all(T.exp(T.reshape(p[0], (2, 4, 3)))), [a.copy() * 0.3])
    v = rng.normal(size=(2, 3))
    fd_check(lambda p: T.sum_all(T.mul(T.tile_spatial(p[0], 2, 2),
                                       T.tile_spatial(p[0], 2, 2))), [v.copy()])
    fd_check(lambda p: T.sum_all(T.sigmoid(T.add_rowvec(p[0], p[1]))),
             [a.copy(), rng.normal(size=4)])
    fd_check(lambda p: T.sum_all(T.exp(T.concat_channels([p[0], p[1]]))),
             [rng.normal(size=(2, 1, 3, 1)) * 0.3, rng.normal(size=(2, 2, 3, 1)) * 0.3])


def test_fd_batched_reductions(rng):
    a = rng.normal(size=(2, 4, 3))
    fd_check(lambda p: T.sum_all(T.sigmoid(T.logsumexp0(p[0]))), [a.copy()])
    fd_check(lambda p: T.sum_all(T.mul(T.sum_all(p[0], batched=True),
                                       T.sum_all(p[0], batched=True))), [a.copy()])
    bias = np.zeros((2, 3))
    bias[0, 1] = bias[1, 0] = -np.inf
    fd_check(lambda p: T.sum_all(T.mul(T.masked_softmax_rows(p[0], bias),
                                       T.masked_softmax_rows(p[0], bias))), [a.copy()])


def test_fd_batched_conv1x1(rng):
    fd_check(lambda p: T.sum_all(T.sigmoid(T.conv1x1(p[0], p[1], p[2]))),
             [rng.normal(size=(2, 3, 2, 2)), rng.normal(size=(2, 3)), rng.normal(size=2)])
