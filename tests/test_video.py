import dataclasses
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsam import video
from dcsam.config import TrainConfig
from dcsam.encoder import StubEncoder
from dcsam.episodes import gen_episode
from dcsam.errors import FrameCountMismatch, IoError, ShapeMismatch
from dcsam.pipeline import infer_mask, init_params
from dcsam.tensor import Tensor, binarize
from dcsam.video import (
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


def test_a_tiny_scale_warps_everything_off_the_canvas_without_overflow():
    ep = gen_episode(0, 1, (16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tube = make_tube(ep, 6, 0, scale_grid=(1e-19, 1.0))
        warps = [(warp(ep.query_img.data, spec), warp(ep.query_mask.data, spec))
                 for spec in tube.transforms]
    assert any(spec.scale == 1e-19 for spec in tube.transforms)
    for frame, mask, spec, (want_frame, want_mask) in zip(tube.frames, tube.masks,
                                                          tube.transforms, warps):
        assert frame.data.tobytes() == want_frame.tobytes()
        assert mask.data.tobytes() == want_mask.tobytes()
        if spec.scale == 1e-19:   # no pixel of an even canvas sits on its center
            assert not frame.data.any()


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
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite positive"):
            make_tube(ep, 3, seed=1, scale_grid=(bad, 1.0))


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


def test_tube_validate_checks_every_frame():
    tube = make_tube(gen_episode(2, 8, (16, 16)), 5, seed=1)
    half = Tensor(np.where(tube.masks[-1].data > 0, 1.0, 0.5))
    not_binary = dataclasses.replace(tube, masks=tube.masks[:-1] + (half,))
    with pytest.raises(ValueError, match="^tube masks must be binary$"):
        not_binary.validate()
    small = Tensor(np.zeros((8, 8)))
    for k in (1, 4):
        for field in ("frames", "masks"):
            held = getattr(tube, field)
            bad = dataclasses.replace(tube, **{field: held[:k] + (small,) + held[k + 1:]})
            with pytest.raises(ShapeMismatch, match="share one shape"):
                bad.validate()


# Scale grids make_tube accepts: finite positive scales around 1.0, written by
# save_tube in plain and in exponent notation.
SCALE_GRIDS = st.lists(st.floats(min_value=1e-6, max_value=1e17), max_size=4).map(
    lambda scales: tuple(sorted(set(scales) | {1.0})))


@settings(max_examples=40, deadline=None)
@given(frames=st.integers(1, 9), canvas=st.sampled_from((16, 32)), scale_grid=SCALE_GRIDS,
       allow_flip=st.booleans(), class_id=st.integers(0, 15), seed=st.integers(0, 2**31 - 1))
def test_tube_frames_are_warps_of_the_query_and_round_trip(frames, canvas, scale_grid,
                                                           allow_flip, class_id, seed):
    ep = gen_episode(class_id, seed, (canvas, canvas))
    tube = make_tube(ep, frames, seed, scale_grid=scale_grid, allow_flip=allow_flip)
    assert len(tube) == frames
    for frame, mask, spec in zip(tube.frames, tube.masks, tube.transforms):
        assert frame.data.tobytes() == warp(ep.query_img.data, spec).tobytes()
        assert mask.data.tobytes() == warp(ep.query_mask.data, spec).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        save_tube(Path(tmp) / "tube", tube)
        back = load_tube(Path(tmp) / "tube")
    assert (back.class_id, back.seed, back.transforms) == (tube.class_id, tube.seed,
                                                           tube.transforms)
    for a, b in zip(back.masks, tube.masks):
        assert a.data.tobytes() == b.data.tobytes()
    for a, b in zip(back.frames, tube.frames):  # .dcst v1 stores float32
        assert a.data.tobytes() == b.data.astype(np.float32).astype(np.float64).tobytes()


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


def _tube_with_scale(root, scale):
    save_tube(root, make_tube(gen_episode(9, 33, (16, 16)), 3, seed=21))
    meta = root / "meta.txt"
    lines = [f"2 0 0 0 {scale}" if ln.startswith("2 ") else ln
             for ln in meta.read_text().splitlines()]
    meta.write_text("\n".join(lines) + "\n")
    return meta


@pytest.mark.parametrize("scale", ["0.0", "-1.0", "0"])
def test_load_tube_rejects_a_scale_that_is_not_positive(tmp_path, scale):
    meta = _tube_with_scale(tmp_path / "tube", scale)
    with pytest.raises(IoError, match=f"{re.escape(str(meta))}.*frame 2 has scale"):
        load_tube(tmp_path / "tube")


@pytest.mark.parametrize("scale, word", [("inf", "malformed line"), ("nan", "malformed line"),
                                         ("1e+999", "frame 2 has scale inf")])
def test_load_tube_rejects_a_scale_that_is_not_finite(tmp_path, scale, word):
    meta = _tube_with_scale(tmp_path / "tube", scale)
    with pytest.raises(IoError, match=f"{re.escape(str(meta))}.*{word}"):
        load_tube(tmp_path / "tube")


def test_load_tube_rejects_a_moved_frame_zero_naming_the_file(tmp_path):
    save_tube(tmp_path / "tube", make_tube(gen_episode(9, 33, (16, 16)), 3, seed=21))
    meta = tmp_path / "tube" / "meta.txt"
    meta.write_text(meta.read_text().replace("\n0 0 0 0 1.0\n", "\n0 1 0 0 1.0\n"))
    with pytest.raises(IoError, match=f"{re.escape(str(meta))}.*frame 0 must carry the identity"):
        load_tube(tmp_path / "tube")


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
def test_save_tube_refuses_a_scale_that_load_tube_refuses(tmp_path, scale):
    tube = make_tube(gen_episode(9, 33, (16, 16)), 3, seed=21)
    bad = dataclasses.replace(tube, transforms=tube.transforms[:2] + (
        dataclasses.replace(tube.transforms[2], scale=scale),))
    with pytest.raises(ValueError, match="frame 2 has scale"):
        save_tube(tmp_path / "tube", bad)
    assert not (tmp_path / "tube" / "meta.txt").exists()


@pytest.mark.parametrize("scale", [1e-05, 2.5e16])
def test_save_load_round_trip_at_exponent_scales(tmp_path, scale):
    # repr writes these in exponent notation, which the reader must take
    tube = make_tube(gen_episode(0, 1, (16, 16)), 6, 0, scale_grid=(scale, 1.0))
    assert scale in [spec.scale for spec in tube.transforms]
    save_tube(tmp_path / "tube", tube)
    back = load_tube(tmp_path / "tube")
    assert back.transforms == tube.transforms
    for a, b in zip(back.frames + back.masks, tube.frames + tube.masks):
        assert np.array_equal(a.data, b.data)


def test_single_frame_propagation_equals_image_inference():
    cfg = TrainConfig(lr=1e-2, steps=1, batch=1, seed=0)
    params = init_params(cfg, seed=4)
    encoder = cfg.encoder(seed=0)
    ep = gen_episode(3, 6, (16, 16))
    tube = make_tube(ep, 1, seed=0)
    pred_tube = propagate_first_frame(tube, ep.support_img, ep.support_mask,
                                      params, cfg, encoder)
    direct = infer_mask(ep.support_img, ep.support_mask, ep.query_img,
                        params, cfg, encoder)
    assert len(pred_tube) == 1
    assert np.array_equal(pred_tube.masks[0].data, binarize(direct).data)


def test_propagation_keeps_frames_and_transforms():
    cfg = TrainConfig(lr=1e-2, steps=1, batch=1, seed=0)
    params = init_params(cfg, seed=4)
    encoder = cfg.encoder(seed=0)
    ep = gen_episode(5, 6, (16, 16))
    tube = make_tube(ep, 4, seed=2)
    pred = propagate_first_frame(tube, ep.support_img, ep.support_mask, params, cfg, encoder)
    assert pred.transforms == tube.transforms
    for a, b in zip(pred.frames, tube.frames):
        assert np.array_equal(a.data, b.data)
    for mask in pred.masks:
        assert mask.shape == tube.frames[0].shape
        assert np.isin(mask.data, (0.0, 1.0)).all()


@pytest.mark.parametrize("stride,neg", [(1, True), (1, False), (2, True), (2, False)])
def test_chunked_propagation_equals_the_frame_loop(monkeypatch, stride, neg):
    # a chunk of 1 frame is the frame-by-frame loop; the ``tube`` oracle
    # suite holds the chunked masks to the reference model as well
    for canvas, frames in ((16, 3), (16, 4), (16, 5), (16, 9), (16, 32), (32, 32)):
        cfg = TrainConfig(seed=3, canvas=canvas, stride=stride, use_neg_branch=neg)
        params = init_params(cfg, seed=6)
        encoder = cfg.encoder(seed=3)
        ep = gen_episode(3, 12, (canvas, canvas))
        tube = make_tube(ep, frames, seed=frames)
        masks = []
        for chunk in (1, 4, frames):
            monkeypatch.setattr(video, "FRAME_CHUNK", chunk)
            pred = propagate_first_frame(tube, ep.support_img, ep.support_mask, params, cfg,
                                         encoder)
            masks.append(np.stack([m.data for m in pred.masks]))
        assert masks[0].tobytes() == masks[1].tobytes() == masks[2].tobytes()
        if neg:  # without the negative branch, untrained prompts fill the frame
            assert 0.0 < masks[0].mean() < 1.0


def test_propagation_projects_mid_and_high_for_frame_zero_only(monkeypatch):
    cfg = TrainConfig(seed=0, canvas=32)
    params = init_params(cfg, seed=1)
    encoder = cfg.encoder(seed=0)
    ep = gen_episode(3, 5, (32, 32))
    tube = make_tube(ep, 32, seed=2)
    images = {"mid": 0, "high": 0, "sam": 0}   # images projected to each map
    original = StubEncoder._project

    def counting(self, desc, shape, projections):
        for _, proj in projections:
            name = next(n for n in images if proj is getattr(self, f"_w_{n}"))
            images[name] += int(np.prod(shape[:-2]))
        return original(self, desc, shape, projections)

    monkeypatch.setattr(StubEncoder, "_project", counting)
    propagate_first_frame(tube, ep.support_img, ep.support_mask, params, cfg, encoder)
    # the support image, then frame 0 alone for mid and high; every frame for sam
    assert images == {"mid": 2, "high": 2, "sam": 1 + len(tube)}


def test_propagation_memory_is_bounded_by_the_chunk():
    cfg = TrainConfig(seed=0, canvas=32)
    params = init_params(cfg, seed=1)
    encoder = cfg.encoder(seed=0)
    ep = gen_episode(3, 5, (32, 32))
    peaks = []
    for frames in (1, 32):
        tube = make_tube(ep, frames, seed=2)
        tracemalloc.start()
        try:
            propagate_first_frame(tube, ep.support_img, ep.support_mask, params, cfg, encoder)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # all 32 frames stacked at once add about 19 MB
    assert peaks[1] - peaks[0] <= 2 * 2**20
