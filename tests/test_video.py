import tracemalloc

import numpy as np
import pytest

from dcsam.config import TrainConfig
from dcsam.episodes import gen_episode
from dcsam.errors import FrameCountMismatch, IoError, ShapeMismatch
from dcsam.oracles import tube_loop_reference
from dcsam.pipeline import downsample_mask, generate_prompts, infer_mask, init_params
from dcsam.tensor import binarize
from dcsam.video import (
    FRAME_CHUNK,
    MaskTube,
    TransformSpec,
    load_tube,
    make_tube,
    propagate_first_frame,
    save_tube,
    warp,
)

IDENT = TransformSpec(dx=0, dy=0, flip=False, scale=1.0)


def test_warp_identity_is_noop(rng):
    arr = rng.random((10, 12))
    assert np.array_equal(warp(arr, IDENT), arr)


def test_warp_translation_shifts_content():
    arr = np.zeros((8, 8))
    arr[2, 3] = 1.0
    shifted = warp(arr, TransformSpec(dx=2, dy=1, flip=False, scale=1.0))
    assert shifted[3, 5] == 1.0
    assert shifted.sum() == 1.0


def test_warp_translation_round_trip():
    arr = np.arange(64, dtype=float).reshape(8, 8)
    there = warp(arr, TransformSpec(dx=2, dy=-1, flip=False, scale=1.0))
    back = warp(there, TransformSpec(dx=-2, dy=1, flip=False, scale=1.0))
    # pixels that never left the canvas must return exactly
    inner = (slice(1, 7), slice(0, 6))
    assert np.array_equal(back[inner], arr[inner])


def test_warp_flip_is_involution(rng):
    arr = rng.random((9, 9))
    flip = TransformSpec(dx=0, dy=0, flip=True, scale=1.0)
    assert np.array_equal(warp(warp(arr, flip), flip), arr)


def test_warp_keeps_masks_binary(rng):
    mask = (rng.random((12, 12)) > 0.5).astype(float)
    out = warp(mask, TransformSpec(dx=1, dy=2, flip=True, scale=1.1))
    assert np.isin(out, (0.0, 1.0)).all()


def test_make_tube_frame_zero_identity():
    ep = gen_episode(4, 10, (16, 16))
    tube = make_tube(ep, 6, seed=3)
    assert len(tube) == 6
    assert tube.transforms[0] == IDENT
    assert np.array_equal(tube.frames[0].data, ep.query_img.data)
    assert np.array_equal(tube.masks[0].data, ep.query_mask.data)


def test_make_tube_smooth_walk():
    ep = gen_episode(4, 10, (16, 16))
    tube = make_tube(ep, 8, seed=5)
    for prev, cur in zip(tube.transforms, tube.transforms[1:]):
        assert abs(cur.dx - prev.dx) <= 2
        assert abs(cur.dy - prev.dy) <= 2
        assert cur.flip == tube.transforms[1].flip


def test_make_tube_deterministic():
    ep = gen_episode(6, 2, (16, 16))
    a = make_tube(ep, 5, seed=9)
    b = make_tube(ep, 5, seed=9)
    assert a.transforms == b.transforms
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.data, fb.data)


def test_make_tube_equals_warping_image_and_mask_separately():
    ep = gen_episode(5, 12, (16, 16))
    seen = set()
    for seed in range(12):
        tube = make_tube(ep, 16, seed, scale_grid=(0.8, 0.9, 1.0, 1.1, 1.25))
        for frame, mask, spec in zip(tube.frames, tube.masks, tube.transforms):
            assert frame.data.tobytes() == warp(ep.query_img.data, spec).tobytes()
            assert mask.data.tobytes() == warp(ep.query_mask.data, spec).tobytes()
            seen.add((spec.flip, spec.scale))
    assert seen == {(flip, s) for flip in (False, True) for s in (0.8, 0.9, 1.0, 1.1, 1.25)}


def test_make_tube_translation_only_option():
    ep = gen_episode(1, 4, (16, 16))
    tube = make_tube(ep, 8, seed=7, scale_grid=(1.0,), allow_flip=False)
    for spec in tube.transforms:
        assert spec.scale == 1.0 and not spec.flip


def test_make_tube_validation():
    ep = gen_episode(0, 0, (16, 16))
    with pytest.raises(FrameCountMismatch):
        make_tube(ep, 0, seed=1)
    with pytest.raises(ValueError):
        make_tube(ep, 3, seed=1, scale_grid=(0.9, 1.1))


def test_tube_validate_catches_structural_errors():
    ep = gen_episode(2, 8, (16, 16))
    tube = make_tube(ep, 3, seed=1)
    bad_counts = MaskTube(frames=tube.frames, masks=tube.masks[:-1],
                          transforms=tube.transforms, class_id=2, seed=1)
    with pytest.raises(FrameCountMismatch):
        bad_counts.validate()

    not_identity = MaskTube(
        frames=tube.frames, masks=tube.masks,
        transforms=(TransformSpec(dx=1, dy=0, flip=False, scale=1.0),) + tube.transforms[1:],
        class_id=2, seed=1)
    with pytest.raises(ValueError):
        not_identity.validate()


def test_save_load_round_trip(tmp_path):
    ep = gen_episode(9, 33, (16, 16))
    tube = make_tube(ep, 5, seed=21)
    save_tube(tmp_path / "tube", tube)
    back = load_tube(tmp_path / "tube")
    assert back.class_id == tube.class_id
    assert back.seed == tube.seed
    assert back.transforms == tube.transforms
    for a, b in zip(back.frames + back.masks, tube.frames + tube.masks):
        assert np.array_equal(a.data, b.data)


def test_load_tube_missing_meta(tmp_path):
    with pytest.raises(IoError):
        load_tube(tmp_path / "nothing")


def test_load_tube_incomplete_transform_log(tmp_path):
    ep = gen_episode(9, 33, (16, 16))
    tube = make_tube(ep, 3, seed=21)
    save_tube(tmp_path / "tube", tube)
    meta = tmp_path / "tube" / "meta.txt"
    lines = [ln for ln in meta.read_text().splitlines() if not ln.startswith("2 ")]
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(IoError):
        load_tube(tmp_path / "tube")


def test_load_tube_rejects_repeated_and_unknown_lines(tmp_path):
    tube = make_tube(gen_episode(9, 33, (16, 16)), 3, seed=21)
    save_tube(tmp_path / "tube", tube)
    meta = tmp_path / "tube" / "meta.txt"
    good = meta.read_text()
    for text, word in ((good + "seed = 6\n", "repeated key 'seed'"),
                       (good + "steps = 9\n", "unknown key 'steps'"),
                       (good + "1 5 5 0 1.0\n", "repeated transform index 1")):
        meta.write_text(text)
        with pytest.raises(IoError, match=word):
            load_tube(tmp_path / "tube")
    meta.write_text(good)
    assert load_tube(tmp_path / "tube").transforms == tube.transforms


def test_single_frame_propagation_equals_image_inference():
    pcfg = TrainConfig(lr=1e-2, steps=1, batch=1, seed=0).pipeline_config()
    params = init_params(pcfg, seed=4)
    encoder = pcfg.encoder(seed=0)
    ep = gen_episode(3, 6, (16, 16))
    tube = make_tube(ep, 1, seed=0)
    pred_tube = propagate_first_frame(tube, ep.support_img, ep.support_mask,
                                      params, pcfg, encoder)
    direct = infer_mask(ep.support_img, ep.support_mask, ep.query_img,
                        params, pcfg, encoder)
    assert len(pred_tube) == 1
    assert np.array_equal(pred_tube.masks[0].data, binarize(direct).data)


def test_propagation_keeps_frames_and_transforms():
    pcfg = TrainConfig(lr=1e-2, steps=1, batch=1, seed=0).pipeline_config()
    params = init_params(pcfg, seed=4)
    encoder = pcfg.encoder(seed=0)
    ep = gen_episode(5, 6, (16, 16))
    tube = make_tube(ep, 4, seed=2)
    pred = propagate_first_frame(tube, ep.support_img, ep.support_mask, params, pcfg, encoder)
    assert pred.transforms == tube.transforms
    for a, b in zip(pred.frames, tube.frames):
        assert np.array_equal(a.data, b.data)
    for mask in pred.masks:
        assert mask.shape == tube.frames[0].shape
        assert np.isin(mask.data, (0.0, 1.0)).all()


@pytest.mark.parametrize("stride,neg", [(1, True), (2, True), (2, False)])
def test_chunked_propagation_equals_the_frame_loop(stride, neg):
    pcfg = TrainConfig(seed=3, stride=stride, use_neg_branch=neg).pipeline_config()
    params = init_params(pcfg, seed=6)
    encoder = pcfg.encoder(seed=3)
    ep = gen_episode(3, 12, (16, 16))
    for frames in (FRAME_CHUNK - 1, FRAME_CHUNK, FRAME_CHUNK + 1, 2 * FRAME_CHUNK + 1):
        tube = make_tube(ep, frames, seed=frames)
        pred = propagate_first_frame(tube, ep.support_img, ep.support_mask, params, pcfg, encoder)
        want, _, _ = tube_loop_reference(tube, ep.support_img, ep.support_mask,
                                         params, pcfg, encoder)
        got = np.stack([m.data for m in pred.masks])
        assert got.tobytes() == want.tobytes()
        if neg:  # without the negative branch, untrained prompts fill the frame
            assert 0.0 < got.mean() < 1.0


def test_propagation_memory_is_bounded_by_the_chunk():
    pcfg = TrainConfig(seed=0, canvas=32).pipeline_config()
    params = init_params(pcfg, seed=1)
    encoder = pcfg.encoder(seed=0)
    ep = gen_episode(3, 5, (32, 32))
    peaks = []
    for frames in (1, 32):
        tube = make_tube(ep, frames, seed=2)
        tracemalloc.start()
        try:
            propagate_first_frame(tube, ep.support_img, ep.support_mask, params, pcfg, encoder)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # all 32 frames stacked at once add about 19 MB
    assert peaks[1] - peaks[0] <= 2 * 2**20
