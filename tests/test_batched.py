"""Batched episodes against loops of single-episode calls.

The per-episode path is the oracle: every batched result must match it
within 1e-12 (relative to the larger of 1 and the reference magnitude), and
the cycle-bias keep/drop pattern must match exactly.
"""
import dataclasses

import numpy as np
import pytest

import dcsam.attention as attention
from dcsam import tensor as T
from dcsam.config import TrainConfig
from dcsam.episodes import CLASS_COUNT, gen_episode, split_folds, class_registry
from dcsam.errors import AllMasked, EmptySupportMask, ShapeMismatch
from dcsam.oracles import (BATCH_TOL, BATCH_VARIANTS, batch_run, batch_deviations,
                           batch_loop_reference, run_batch_suite)
from dcsam.pipeline import generate_prompts, infer_mask, init_params
from dcsam.tensor import GradTape, Tensor, grad
from dcsam.trainer import evaluate, stack_episodes


def make_episodes(b, canvas=8, seed=0):
    return [gen_episode((seed + 5 * i) % CLASS_COUNT, 9000 + 31 * seed + i, (canvas, canvas))
            for i in range(b)]


def recorded_biases(monkeypatch, run):
    """Cycle-bias rows produced while ``run()`` executes, one array per call."""
    seen = []
    original = attention.cycle_bias

    def spy(a, mask):
        out = original(a, mask)
        seen.append(out.values.data)
        return out

    monkeypatch.setattr(attention, "cycle_bias", spy)
    result = run()
    monkeypatch.setattr(attention, "cycle_bias", original)
    return result, seen


@pytest.mark.parametrize("b", [1, 3, 32])
@pytest.mark.parametrize("variant", BATCH_VARIANTS, ids=lambda v: ",".join(v) or "full")
def test_batched_matches_episode_loop(monkeypatch, b, variant):
    cfg = TrainConfig(seed=17, canvas=8, **variant)
    pcfg = cfg.pipeline_config()
    encoder = pcfg.encoder(cfg.seed)
    params = init_params(pcfg, cfg.seed)
    episodes = make_episodes(b, seed=b)
    got, got_bias = recorded_biases(monkeypatch,
                                    lambda: batch_run(episodes, params, pcfg, encoder))
    want, want_bias = recorded_biases(
        monkeypatch, lambda: batch_loop_reference(episodes, params, pcfg, encoder))
    devs = batch_deviations(got, want)
    assert max(devs.values()) <= BATCH_TOL, devs
    # the batched run makes each of its calls once for the whole batch; the
    # loop makes the same calls once per episode, in the same order
    calls = len(got_bias)
    assert len(want_bias) == calls * b
    if not cfg.use_cyc_bias:
        assert calls == 0
    for k, rows in enumerate(got_bias):
        per_episode = np.stack(want_bias[k::calls])
        assert np.array_equal(np.isneginf(rows), np.isneginf(per_episode))
        assert np.array_equal(rows, per_episode)


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


def test_infer_mask_batched_matches_single():
    cfg = TrainConfig(seed=5, canvas=8, stride=2)
    pcfg = cfg.pipeline_config()
    encoder = pcfg.encoder(cfg.seed)
    params = init_params(pcfg, cfg.seed)
    episodes = make_episodes(5)
    support_img, support_mask, query_img, _ = stack_episodes(episodes)
    batched = infer_mask(support_img, support_mask, query_img, params, pcfg, encoder)
    for ep, probs in zip(episodes, batched.data):
        single = infer_mask(ep.support_img, ep.support_mask, ep.query_img, params, pcfg, encoder)
        assert np.abs(single.data - probs).max() <= BATCH_TOL


def test_evaluate_does_not_depend_on_the_chunk_size():
    fold = split_folds(class_registry(), 1)
    cfg = TrainConfig(seed=3, canvas=8, batch=1)
    params = init_params(cfg.pipeline_config(), seed=0)
    reports = [evaluate(params, dataclasses.replace(cfg, batch=b), fold, episodes_per_class=3)
               for b in (1, 5, 64)]
    assert reports[0] == reports[1] == reports[2]


# -- a bad episode inside a batch fails as it does alone -----------------------

def _prompt_inputs(b, canvas=8):
    cfg = TrainConfig(seed=2, canvas=canvas)
    pcfg = cfg.pipeline_config()
    encoder = pcfg.encoder(cfg.seed)
    episodes = make_episodes(b)
    support_img, support_mask, query_img, _ = stack_episodes(episodes)
    return (pcfg, init_params(pcfg, cfg.seed), encoder.encode(support_img, batched=True),
            encoder.encode(query_img, batched=True), support_mask)


def single_episode(enc_s, enc_q, masks, k):
    """Episode k of stacked encoder maps and masks, unbatched."""
    pick = lambda maps: type(maps)(mid=Tensor(maps.mid.data[k]), high=Tensor(maps.high.data[k]),
                                   sam=Tensor(maps.sam.data[k]))
    return pick(enc_s), pick(enc_q), Tensor(masks[k])


@pytest.mark.parametrize("fill", [0.0, 1.0], ids=["empty-positive", "empty-negative"])
def test_empty_support_mask_in_batch(fill):
    pcfg, params, enc_s, enc_q, masks = _prompt_inputs(4)
    bad = masks.data.copy()
    bad[2] = fill
    alone = single_episode(enc_s, enc_q, bad, 2)
    with pytest.raises(EmptySupportMask):
        generate_prompts(*alone, params, pcfg)
    with pytest.raises(EmptySupportMask):
        generate_prompts(enc_s, enc_q, Tensor(bad), params, pcfg)


def test_non_binary_mask_in_batch():
    pcfg, params, enc_s, enc_q, masks = _prompt_inputs(3)
    bad = masks.data.copy()
    bad[1, 0, 0] = 0.5
    with pytest.raises(ValueError):
        generate_prompts(*single_episode(enc_s, enc_q, bad, 1), params, pcfg)
    with pytest.raises(ValueError):
        generate_prompts(enc_s, enc_q, Tensor(bad), params, pcfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_value_in_one_episode_of_batch():
    pcfg, params, enc_s, enc_q, masks = _prompt_inputs(3)
    sam = enc_q.sam.data.copy()
    sam[1] *= 1e306     # finite input, but the decoder's products overflow
    enc_q = type(enc_q)(mid=enc_q.mid, high=enc_q.high, sam=Tensor(sam))
    with pytest.raises(FloatingPointError):
        generate_prompts(*single_episode(enc_s, enc_q, masks.data, 1), params, pcfg)
    with pytest.raises(FloatingPointError):
        generate_prompts(enc_s, enc_q, masks, params, pcfg)


def test_all_masked_row_in_one_episode(rng):
    x = Tensor(rng.normal(size=(3, 2, 4)))
    bias = np.zeros((3, 4))
    bias[1] = -np.inf
    with pytest.raises(AllMasked):
        T.masked_softmax_rows(Tensor(x.data[1]), Tensor(bias[1], neg_inf_ok=True))
    with pytest.raises(AllMasked):
        T.masked_softmax_rows(x, Tensor(bias, neg_inf_ok=True))


def test_batched_shape_errors(rng):
    with pytest.raises(ShapeMismatch):
        T.matmul(Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(3, 4, 2))))
    with pytest.raises(ShapeMismatch):
        T.masked_softmax_rows(Tensor(rng.normal(size=(2, 3, 4))), Tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeMismatch):
        T.concat_channels([Tensor(np.ones((2, 1, 3))), Tensor(np.ones((3, 1, 3)))], batched=True)
    with pytest.raises(ShapeMismatch):
        attention.cycle_bias(Tensor(rng.normal(size=(2, 3, 4))), Tensor(np.ones(4)))
    with pytest.raises(ShapeMismatch):
        attention.CycleBias(values=Tensor(np.zeros(4), neg_inf_ok=True), batched=True)


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
    fd_check(lambda p: T.sum_all(T.exp(T.concat_channels([p[0], p[1]], batched=True))),
             [rng.normal(size=(2, 1, 3)) * 0.3, rng.normal(size=(2, 2, 3)) * 0.3])


def test_fd_batched_reductions(rng):
    a = rng.normal(size=(2, 4, 3))
    fd_check(lambda p: T.sum_all(T.sigmoid(T.logsumexp0(p[0]))), [a.copy()])
    fd_check(lambda p: T.sum_all(T.mul(T.sum_all(p[0], batched=True),
                                       T.sum_all(p[0], batched=True))), [a.copy()])
    bias = np.zeros((2, 3))
    bias[0, 1] = bias[1, 0] = -np.inf
    b = Tensor(bias, neg_inf_ok=True)
    fd_check(lambda p: T.sum_all(T.mul(T.masked_softmax_rows(p[0], b),
                                       T.masked_softmax_rows(p[0], b))), [a.copy()])


def test_fd_batched_conv1x1(rng):
    fd_check(lambda p: T.sum_all(T.sigmoid(T.conv1x1(p[0], p[1], p[2]))),
             [rng.normal(size=(2, 3, 2, 2)), rng.normal(size=(2, 3)), rng.normal(size=2)])
