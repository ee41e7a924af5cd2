import dataclasses

import numpy as np
import pytest

from dcsam import encoder as encoder_module
from dcsam import episodes as episodes_module
from dcsam import pipeline as pipeline_module
from dcsam import tensor as tensor_module
from dcsam.config import TrainConfig
from dcsam.pipeline import init_params, prior_mask
from dcsam.tensor import Tensor
from dcsam.oracles import (
    EPISODE_FIELDS,
    FRAME_CASES,
    REFERENCE_CASES,
    REFERENCE_TOL,
    SUITES,
    SuiteResult,
    reference_deviations,
    run_cyc_suite,
    run_encoder_suite,
    run_episodes_suite,
    run_grad_suite,
    run_reference_suite,
    run_softmax_suite,
    run_tube_suite,
)
from dcsam.reference import (cycle_bias_reference, descriptors_reference, episode_reference,
                             softmax_rows_reference)


def test_suite_result_summary():
    good = SuiteResult("cyc", 10, 0)
    bad = SuiteResult("grad", 4, 1, ("trial 2: blew up",))
    assert good.passed
    assert "10/10" in good.summary() and "ok" in good.summary()
    assert not bad.passed
    assert "3/4" in bad.summary() and "FAILED" in bad.summary()


def test_cycle_bias_reference_hand_case():
    # round trip: column 1's best row is 0, row 0's best column is 0
    a = np.array([[3.0, 2.0], [1.0, 0.0]])
    same = cycle_bias_reference(a, np.array([1.0, 1.0]))
    assert np.array_equal(same, np.zeros(2))
    split = cycle_bias_reference(a, np.array([1.0, 0.0]))
    assert split[0] == 0.0
    assert np.isneginf(split[1])  # 1 -> row 0 -> column 0, labels differ


def test_softmax_reference_rows_sum_to_one(rng):
    x = rng.normal(size=(3, 5))
    bias = np.zeros(5)
    bias[2] = -np.inf
    out = softmax_rows_reference(x, bias)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert (out[:, 2] == 0.0).all()


def test_cyc_suite_small_run():
    result = run_cyc_suite(trials=60, seed=0)
    assert result.passed, result.detail
    assert result.trials == 60


def test_cyc_suite_deterministic():
    assert run_cyc_suite(trials=30, seed=1) == run_cyc_suite(trials=30, seed=1)


def test_softmax_suite_small_run():
    result = run_softmax_suite(trials=40, seed=0)
    assert result.passed, result.detail


def test_grad_suite_single_trial():
    result = run_grad_suite(trials=1, seed=0, samples_per_param=2)
    assert result.passed, result.detail


def test_grad_suite_catches_corrupted_backward(monkeypatch):
    # the negative control: a wrong vector-Jacobian product must be reported
    original = tensor_module._matmul_vjp

    def corrupted(g, a_data, b_data):
        ga, gb = original(g, a_data, b_data)
        return ga * 1.01, gb

    monkeypatch.setattr(tensor_module, "_matmul_vjp", corrupted)
    result = run_grad_suite(trials=1, seed=0, samples_per_param=2)
    assert not result.passed
    assert result.detail  # names the worst parameter


def test_suites_registry():
    assert set(SUITES) == {"cyc", "softmax", "grad", "batch", "tube", "encoder", "episodes",
                           "reference"}
    for fn in SUITES.values():
        assert callable(fn)


def test_reference_suite_passes_at_its_default_trials():
    assert {case[0] for case in REFERENCE_CASES} == {1, 3, 32} and len(REFERENCE_CASES) == 18
    result = run_reference_suite()
    assert result.passed, result.detail
    assert result.trials == len(REFERENCE_CASES)


def test_reference_suite_catches_a_conv1x1_off_by_one_part_in_a_billion(monkeypatch):
    original = tensor_module.conv1x1

    def scaled(x, w, b):
        return tensor_module.adopt(original(x, w, b).data * (1.0 + 1e-9))

    monkeypatch.setattr(tensor_module, "conv1x1", scaled)
    result = run_reference_suite(trials=6, seed=0)
    assert result.failures == 6
    assert "deviates by" in result.detail[0]


def test_a_flat_prior_is_zeros_in_production_and_in_the_reference(monkeypatch):
    cfg = TrainConfig(seed=5, canvas=8)
    encoder = cfg.encoder(cfg.seed)
    episodes = [episodes_module.gen_episode(c, 40 + c, (8, 8)) for c in (0, 5, 9)]
    original = encoder_module.StubEncoder.project

    def flat(self, desc, shape):
        # every position carries the first one's high vector: all cosines are equal
        maps = original(self, desc, shape)
        high = np.broadcast_to(maps.high.data[..., :1, :1], maps.high.shape)
        return dataclasses.replace(maps, high=Tensor(high))

    monkeypatch.setattr(encoder_module.StubEncoder, "project", flat)
    enc_s, enc_q = (encoder.encode(Tensor(np.stack([getattr(ep, name).data for ep in episodes])),
                                   batched=True) for name in ("support_img", "query_img"))
    mask_f = Tensor(np.stack([ep.support_mask.data for ep in episodes]))
    for mask in (mask_f, Tensor(1.0 - mask_f.data)):
        assert not prior_mask(enc_q.high, enc_s.high, mask).data.any()
    devs = reference_deviations(episodes, init_params(cfg, cfg.seed), cfg, encoder)
    assert max(devs.values()) <= REFERENCE_TOL, devs


def test_tube_suite_passes_and_catches_misordered_frames(monkeypatch):
    assert run_tube_suite().passed
    original = pipeline_module.decode

    def reversed_stack(pos, neg, feats, cfg):
        return original(pos, neg, Tensor(feats.data[::-1]) if feats.ndim == 4 else feats, cfg)

    monkeypatch.setattr(pipeline_module, "decode", reversed_stack)
    result = run_tube_suite(trials=12, seed=0)
    assert not result.passed
    assert any("predicted masks differ" in line for line in result.detail)


def test_descriptors_reference_hand_values():
    img = np.arange(12.0).reshape(3, 4)
    desc = descriptors_reference(img).reshape(3, 4, 15)
    assert desc[1, 1, 0] == 5.0                                   # intensity
    assert desc[1, 1, 1] == img[:3, :3].mean()                    # 3x3 mean
    assert (desc[1, 1, 2], desc[1, 1, 3]) == (10.0, 0.0)          # 3x3 max, min
    assert desc[1, 1, 10] == 2.0 and desc[1, 1, 11] == 8.0        # gradients
    assert (desc[..., 14] == 1.0).all()


def test_encoder_suite_passes_and_catches_a_perturbed_deviation(monkeypatch):
    assert run_encoder_suite().passed
    original = encoder_module._descriptors

    def nudged(img):
        desc = original(img).copy()
        desc[..., 0, 8] += 1e-9                                   # std7 of pixel 0
        return desc

    monkeypatch.setattr(encoder_module, "_descriptors", nudged)
    result = run_encoder_suite(trials=16, seed=3)
    assert result.failures == 16
    assert "std7 off by" in result.detail[0]


def test_encoder_suite_checks_the_projection_itself(monkeypatch):
    original = encoder_module.StubEncoder.project

    def one_ulp_up(self, desc, shape):
        maps = original(self, desc, shape)
        return dataclasses.replace(maps, sam=Tensor(np.nextafter(maps.sam.data, np.inf)))

    monkeypatch.setattr(encoder_module.StubEncoder, "project", one_ulp_up)
    result = run_encoder_suite(trials=8, seed=3)
    assert result.failures == 8
    assert "sam maps differ" in result.detail[0]


def test_encoder_suite_checks_the_frame_path(monkeypatch):
    original = encoder_module.StubEncoder.encode_frames

    def mid_one_ulp_up(self, frames, first):
        maps, sam = original(self, frames, first)
        if maps is not None:
            maps = dataclasses.replace(maps, mid=Tensor(np.nextafter(maps.mid.data, np.inf)))
        return maps, sam

    monkeypatch.setattr(encoder_module.StubEncoder, "encode_frames", mid_one_ulp_up)
    result = run_encoder_suite(seed=3)
    assert result.failures == len(FRAME_CASES)
    assert "frame 0 mid maps differ" in result.detail[0]


# Elongated canvases on which some draws fall back to the centered block,
# a path the suite's own canvases never reach.
@pytest.mark.parametrize("canvas", [(500, 8), (8, 500), (1000, 8), (600, 9)])
def test_fallback_footprints_match_the_reference(canvas):
    for class_id in range(episodes_module.CLASS_COUNT):
        got = episodes_module.gen_episode(class_id, 3, canvas)
        want = episode_reference(class_id, 3, canvas)
        for name, array in zip(EPISODE_FIELDS, want):
            assert getattr(got, name).data.tobytes() == array.tobytes(), (class_id, name)


def test_episodes_suite_passes_and_catches_a_short_stamp(monkeypatch):
    assert run_episodes_suite().passed
    original = episodes_module._diamond_stamp

    def one_row_short(r):
        return original(r)[:-1]                                   # drops the bottom tip

    monkeypatch.setattr(episodes_module, "_diamond_stamp", one_row_short)
    result = run_episodes_suite(trials=32, seed=1)
    assert not result.passed
    assert any("mask" in line for line in result.detail)
