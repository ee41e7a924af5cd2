import dataclasses
import math
import sys

import numpy as np
import pytest

from dcsam import encoder as encoder_module
from dcsam.config import TrainConfig
from dcsam.decoder import decode
from dcsam.encoder import EncoderMaps
from dcsam.episodes import class_registry, gen_episode, split_folds
from dcsam.errors import CheckpointMissing, DivergenceDetected, EmptyReport, IoError
from dcsam.losses import total_loss
from dcsam.pipeline import (ModelParams, downsample_mask, generate_prompts, init_params,
                            watch_params)
from dcsam import tensor as T
from dcsam.tensor import GradTape, Tensor, grad
from dcsam.trainer import (
    AdamW,
    TrainState,
    cosine_lr,
    evaluate,
    grad_check,
    grad_check_episode,
    initial_state,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
    tube_loss,
)
from dcsam.video import make_tube

FOLD = split_folds(class_registry(), 0)
TINY = TrainConfig(lr=1e-2, steps=4, batch=2, seed=11, canvas=8,
                   embed_dim=6, n_queries=4, mid_channels=3, high_channels=3)


def test_cosine_lr_endpoints():
    assert cosine_lr(0.1, 0, 100) == pytest.approx(0.1, abs=1e-12)
    assert cosine_lr(0.1, 100, 100) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(0.1, 50, 100) == pytest.approx(0.05, abs=1e-12)
    for step in range(100):
        assert cosine_lr(0.1, step, 100) > cosine_lr(0.1, step + 1, 100)
    with pytest.raises(ValueError):
        cosine_lr(0.1, 101, 100)
    with pytest.raises(ValueError):
        cosine_lr(0.1, 0, 0)


def test_adamw_zero_grad_is_pure_decay():
    opt = AdamW(lr=0.1, total_steps=10, weight_decay=0.01)
    theta = Tensor(np.array([2.0, -4.0]))
    zero = Tensor(np.zeros(2))
    out, m, v = opt.step({"p": theta}, {"p": zero}, {}, {}, 0)
    # first step runs at full base lr, so the contraction is 1 - lr*wd
    assert np.allclose(out["p"].data, theta.data * (1.0 - 0.1 * 0.01), atol=1e-15)
    assert not m["p"].any() and not v["p"].any()


def test_adamw_step_direction_and_magnitude():
    opt = AdamW(lr=0.1, total_steps=10, weight_decay=0.0)
    theta = Tensor(np.array([1.0]))
    out = opt.step({"p": theta}, {"p": Tensor(np.array([0.5]))}, {}, {}, 0)[0]["p"]
    # bias-corrected first step moves by ~lr against the gradient sign
    assert out.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    down = opt.step({"p": theta}, {"p": Tensor(np.array([-0.5]))}, {}, {}, 0)[0]["p"]
    assert down.data[0] == pytest.approx(1.0 + 0.1, abs=1e-6)


def test_adamw_lr_decays_with_schedule():
    opt = AdamW(lr=0.1, total_steps=2, weight_decay=0.0)
    theta = {"p": Tensor(np.array([0.0]))}
    g = {"p": Tensor(np.array([1.0]))}
    theta, m, v = opt.step(theta, g, {}, {}, 0)
    first_move = abs(theta["p"].data[0])
    before = theta["p"].data[0]
    theta, m, v = opt.step(theta, g, m, v, 1)
    second_move = abs(theta["p"].data[0] - before)
    assert second_move < first_move  # cosine halves the rate at mid-schedule


def _arrays_bytes(named) -> dict[str, bytes]:
    return {name: getattr(a, "data", a).tobytes() for name, a in named.items()}


def test_adamw_step_writes_none_of_its_arguments():
    opt = AdamW(lr=0.1, total_steps=4, weight_decay=0.01)
    rng = np.random.default_rng(3)
    named = {name: Tensor(rng.normal(size=(2, 3))) for name in ("a", "b")}
    grads = {name: Tensor(rng.normal(size=(2, 3))) for name in ("a", "b")}
    m = {name: rng.normal(size=(2, 3)) for name in ("a", "b")}
    v = {name: rng.random(size=(2, 3)) for name in ("a", "b")}
    before = [_arrays_bytes(d) for d in (named, grads, m, v)]
    out, m_out, v_out = opt.step(named, grads, m, v, 2)
    assert [_arrays_bytes(d) for d in (named, grads, m, v)] == before
    assert all(m_out[k] is not m[k] and v_out[k] is not v[k] for k in m)
    # the same arguments give the same bytes again: nothing was carried over
    again = opt.step(named, grads, m, v, 2)
    assert [_arrays_bytes(d) for d in again] == [_arrays_bytes(d) for d in (out, m_out, v_out)]


def _state_bytes(state: TrainState) -> tuple:
    return (_arrays_bytes(state.params.named()), _arrays_bytes(state.m), _arrays_bytes(state.v),
            state.step, state.drawn, repr(state.sampler))


def test_train_step_leaves_its_state_unchanged():
    cfg = dataclasses.replace(TINY, steps=2, tube_steps=1, tube_frames=3)
    encoder = cfg.encoder(cfg.seed)
    state = initial_state(cfg)
    for _ in range(cfg.steps + cfg.tube_steps):
        before = _state_bytes(state)
        following, _ = train_step(state, cfg, FOLD, encoder)
        assert _state_bytes(state) == before
        assert following.step == state.step + 1 and following.drawn > state.drawn
        state = following


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_divergence_in_a_resumed_run_names_the_global_step():
    # weight decay times the rate overflows the update, not the forward pass
    cfg = dataclasses.replace(TINY, lr=1e300, weight_decay=1e300, steps=5)
    resumed = dataclasses.replace(initial_state(cfg), step=3)
    with pytest.raises(DivergenceDetected, match=r"became non-finite at step 3$"):
        train_step(resumed, cfg, FOLD, cfg.encoder(cfg.seed))


RESUME = dataclasses.replace(TINY, steps=3, tube_steps=2, batch=2, canvas=8, tube_frames=3)


@pytest.fixture(scope="module")
def uninterrupted():
    return train(RESUME, FOLD)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_a_run_continued_from_a_kept_state_has_the_uninterrupted_bytes(k, uninterrupted):
    # k = steps - 1 ends on the last image step; k = steps continues on tube steps
    encoder = RESUME.encoder(RESUME.seed)
    state = initial_state(RESUME)
    losses = []
    for _ in range(k):
        state, loss = train_step(state, RESUME, FOLD, encoder)
        losses.append(loss)
    kept, kept_bytes = state, _state_bytes(state)
    encoder = RESUME.encoder(RESUME.seed)     # a fresh process would build its own
    while state.step < RESUME.steps + RESUME.tube_steps:
        state, loss = train_step(state, RESUME, FOLD, encoder)
        losses.append(loss)
    assert _state_bytes(kept) == kept_bytes
    assert tuple(losses) == uninterrupted.losses
    assert _arrays_bytes(state.params.named()) == _arrays_bytes(uninterrupted.params.named())


def test_train_is_deterministic():
    a = train(TINY, FOLD)
    b = train(TINY, FOLD)
    assert a.losses == b.losses
    for name, t in a.params.named().items():
        assert np.array_equal(t.data, b.params.named()[name].data), name


def test_train_losses_are_finite_and_recorded():
    result = train(TINY, FOLD)
    assert len(result.losses) == TINY.steps
    assert all(math.isfinite(v) for v in result.losses)


def test_one_train_step_checks_its_masks_once(monkeypatch):
    # the support mask is checked in generate_prompts; the layers below it
    # trust the masks derived from it, and np.isin runs only in is_binary
    callers = []
    isin = np.isin

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return isin(*args, **kwargs)

    monkeypatch.setattr(np, "isin", spy)
    train(TrainConfig(lr=1e-2, steps=1, batch=2, seed=11, canvas=8), FOLD)
    assert callers == ["is_binary"]


def test_train_with_tube_steps_extends_schedule():
    cfg = dataclasses.replace(TINY, tube_steps=2, tube_frames=3)
    result = train(cfg, FOLD)
    assert len(result.losses) == cfg.steps + cfg.tube_steps


def tube_case(stride=1, frames=5):
    cfg = dataclasses.replace(TINY, stride=stride)
    ep = gen_episode(6, 21, (8, 8))
    return (ep, make_tube(ep, frames, seed=4), init_params(cfg, seed=2), cfg,
            cfg.encoder(cfg.seed))


@pytest.mark.parametrize("stride", [1, 2])
def test_tube_loss_is_the_mean_of_frame_losses(stride):
    ep, tube, params, cfg, encoder = tube_case(stride)
    got = tube_loss(ep.support_img, ep.support_mask, tube, params, cfg, encoder).item()
    prompts, _ = generate_prompts(encoder.encode(ep.support_img), encoder.encode(tube.frames[0]),
                                  downsample_mask(ep.support_mask, stride), params, cfg)
    terms = [total_loss(decode(prompts.pos, prompts.neg, encoder.encode(frame).sam, cfg.tau),
                        downsample_mask(mask, stride)).item()
             for frame, mask in zip(tube.frames, tube.masks)]
    assert abs(got - sum(terms) / len(terms)) <= 1e-12


def test_tube_loss_encodes_frame_zero_once(monkeypatch):
    ep, tube, params, cfg, encoder = tube_case()
    calls = []
    original = encoder_module._descriptors

    def counting(img):
        calls.append(img.shape)
        return original(img)

    monkeypatch.setattr(encoder_module, "_descriptors", counting)
    got = tube_loss(ep.support_img, ep.support_mask, tube, params, cfg, encoder).item()
    monkeypatch.undo()
    # one descriptor pass over the frame stack and one over the support image;
    # frame 0's maps come from the stack
    assert calls == [(len(tube),) + tube.frames[0].shape, ep.support_img.shape]
    # exactly the value of prompts from a separate encode of frame 0
    prompts, _ = generate_prompts(encoder.encode(ep.support_img), encoder.encode(tube.frames[0]),
                                  downsample_mask(ep.support_mask, 1), params, cfg)
    frames = encoder.encode(Tensor(np.stack([f.data for f in tube.frames])), batched=True)
    probs = decode(prompts.pos, prompts.neg, frames.sam, cfg.tau)
    target = downsample_mask(Tensor(np.stack([m.data for m in tube.masks])), 1)
    per_frame = total_loss(probs, target, batched=True)
    assert got == T.scale(T.sum_all(per_frame), 1.0 / len(tube)).item()


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("frames", [1, 3, 5])
def test_tube_loss_equals_encoding_every_frame_to_every_map(frames, stride):
    ep, tube, params, cfg, encoder = tube_case(stride, frames)
    got = tube_loss(ep.support_img, ep.support_mask, tube, params, cfg, encoder)
    # all three maps of the whole stack, frame 0's sliced out for the prompts
    maps = encoder.encode(Tensor(np.stack([f.data for f in tube.frames])), batched=True)
    first = EncoderMaps(*(Tensor(m.data[0]) for m in (maps.mid, maps.high, maps.sam)))
    prompts, _ = generate_prompts(encoder.encode(ep.support_img), first,
                                  downsample_mask(ep.support_mask, stride), params, cfg)
    probs = decode(prompts.pos, prompts.neg, maps.sam, cfg.tau)
    target = downsample_mask(Tensor(np.stack([m.data for m in tube.masks])), stride)
    per_frame = total_loss(probs, target, batched=True)
    want = T.scale(T.sum_all(per_frame), 1.0 / len(tube))
    assert got.data.tobytes() == want.data.tobytes()


def test_tube_loss_gradients_match_central_differences():
    ep, tube, params, cfg, encoder = tube_case()

    def loss_at(p):
        return tube_loss(ep.support_img, ep.support_mask, tube, p, cfg, encoder)

    tape = GradTape()
    tracked, name_map = watch_params(tape, params)
    grads = grad(tape, loss_at(tracked))
    h = 1e-5
    for name, coords in (("q_pos", (0, 7, 13)), ("fusion_w", (1, 40, 77)), ("e_neg", (0, 5))):
        base = params.named()[name].data
        ana = grads[name_map[name]].data.reshape(-1)
        for c in coords:
            def at(delta):
                bumped = base.copy().reshape(-1)
                bumped[c] += delta
                named = dict(params.named(), **{name: Tensor(bumped.reshape(base.shape))})
                return loss_at(ModelParams.from_named(named)).item()

            fd = (at(h) - at(-h)) / (2 * h)
            assert abs(ana[c] - fd) <= 1e-4 * max(abs(ana[c]), abs(fd), 1e-6), (name, c, ana[c], fd)


def test_train_seed_changes_outcome():
    a = train(TINY, FOLD)
    b = train(dataclasses.replace(TINY, seed=12), FOLD)
    assert a.losses != b.losses


def test_train_zero_lr_keeps_params_bitwise():
    cfg = dataclasses.replace(TINY, lr=0.0, steps=2)
    result = train(cfg, FOLD)
    fresh = init_params(cfg, cfg.seed)
    for name, t in result.params.named().items():
        assert np.array_equal(t.data, fresh.named()[name].data), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_detected():
    # an absurd learning rate overflows the forward pass within a few steps
    cfg = dataclasses.replace(TINY, lr=1e80, steps=5)
    with pytest.raises(DivergenceDetected):
        train(cfg, FOLD)


def test_evaluate_protocol_fixed_seeds():
    params = init_params(TINY, seed=0)
    rep_a = evaluate(params, TINY, FOLD, episodes_per_class=3)
    rep_b = evaluate(params, TINY, FOLD, episodes_per_class=3)
    assert rep_a == rep_b
    assert set(rep_a.per_class_iou) == set(FOLD.test_classes)
    assert 0.0 <= rep_a.miou <= 1.0
    assert rep_a.jf == pytest.approx(0.5 * (rep_a.j + rep_a.f), abs=1e-12)


def test_evaluate_sees_the_same_episodes_for_any_params():
    # the seed set is fixed by config, not by the model under test
    params_a = init_params(TINY, seed=0)
    params_b = init_params(TINY, seed=99)
    rep_a = evaluate(params_a, TINY, FOLD, episodes_per_class=2)
    rep_b = evaluate(params_b, TINY, FOLD, episodes_per_class=2)
    assert set(rep_a.per_class_iou) == set(rep_b.per_class_iou)


def test_evaluate_guards():
    params = init_params(TINY, seed=0)
    with pytest.raises(EmptyReport):
        evaluate(params, TINY, FOLD, episodes_per_class=0)
    empty_fold = dataclasses.replace(FOLD, test_classes=())
    with pytest.raises(EmptyReport):
        evaluate(params, TINY, empty_fold)


def test_grad_check_passes_on_healthy_params():
    params = init_params(TINY, seed=3)
    ep = grad_check_episode(TINY, canvas=8)
    result = grad_check(params, ep, TINY, TINY.encoder(TINY.seed), samples_per_param=3)
    assert result.passed, result.per_param
    assert set(result.per_param) == set(params.named())
    assert result.worst < 1e-4


def test_grad_check_deterministic():
    params = init_params(TINY, seed=3)
    ep = grad_check_episode(TINY, canvas=8)
    enc = TINY.encoder(TINY.seed)
    a = grad_check(params, ep, TINY, enc, samples_per_param=2, seed=5)
    b = grad_check(params, ep, TINY, enc, samples_per_param=2, seed=5)
    assert a.per_param == b.per_param


def test_checkpoint_round_trip(tmp_path):
    result = train(TINY, FOLD)
    save_checkpoint(tmp_path / "ckpt", result.params, TINY, TINY.steps)
    params, cfg, step = load_checkpoint(tmp_path / "ckpt")
    assert cfg == TINY
    assert step == TINY.steps
    for name, t in params.named().items():
        # float32 storage: round trip is exact only to storage precision
        assert np.allclose(t.data, result.params.named()[name].data, atol=1e-7), name


def test_checkpoint_missing_pieces(tmp_path):
    result = train(TINY, FOLD)
    save_checkpoint(tmp_path / "ckpt", result.params, TINY, 4)

    (tmp_path / "ckpt" / "q_pos.dcst").unlink()
    with pytest.raises(CheckpointMissing):
        load_checkpoint(tmp_path / "ckpt")

    save_checkpoint(tmp_path / "ckpt2", result.params, TINY, 4)
    (tmp_path / "ckpt2" / "config.txt").unlink()
    with pytest.raises(CheckpointMissing):
        load_checkpoint(tmp_path / "ckpt2")

    with pytest.raises(CheckpointMissing):
        load_checkpoint(tmp_path / "never_saved")


def test_checkpoint_shape_mismatch(tmp_path):
    result = train(TINY, FOLD)
    save_checkpoint(tmp_path / "ckpt", result.params, TINY, 4)
    # a config that disagrees with the stored tensor shapes must be rejected
    wrong = dataclasses.replace(TINY, n_queries=9)
    from dcsam.config import config_text
    (tmp_path / "ckpt" / "config.txt").write_text(config_text(wrong))
    with pytest.raises(IoError):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_optimizer_step_parsed(tmp_path):
    result = train(TINY, FOLD)
    save_checkpoint(tmp_path / "ckpt", result.params, TINY, 4)
    (tmp_path / "ckpt" / "optimizer.txt").write_text("# nothing here\n")
    with pytest.raises(IoError, match=r"optimizer\.txt: missing key 'step'"):
        load_checkpoint(tmp_path / "ckpt")
    (tmp_path / "ckpt" / "optimizer.txt").write_text("# saved by hand\n\n  step = 7\n")
    assert load_checkpoint(tmp_path / "ckpt")[2] == 7
