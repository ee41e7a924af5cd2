import hashlib

import numpy as np
import pytest

from dcsam import episodes
from dcsam.errors import IoError, NonDivisibleClassCount, ShapeMismatch, UnknownClass
from dcsam.episodes import (
    CLASS_COUNT,
    MAX_AREA_FRAC,
    MAX_OVERLAP_FRAC,
    MIN_AREA_FRAC,
    class_registry,
    gen_episode,
    grid,
    load_episode,
    save_episode,
    split_folds,
)
from dcsam.video import make_tube

# SHA-256 of every byte hashed by test_input_bytes_are_pinned, recorded
# before the coordinate grids were cached. Episodes use only Philox draws
# and IEEE elementwise arithmetic (no BLAS), so the digest holds on any host.
INPUT_BYTES_SHA256 = "425e77d6b4b14ca9d82f66a4e275e1c6d9ba2dd062786c8389399b8a83de9b07"


def test_registry_lists_all_classes():
    assert class_registry() == tuple(range(16))
    assert CLASS_COUNT == 16


def test_gen_episode_is_bitwise_deterministic():
    a = gen_episode(5, 123, (16, 16))
    b = gen_episode(5, 123, (16, 16))
    for name in ("support_img", "support_mask", "query_img", "query_mask"):
        assert np.array_equal(getattr(a, name).data, getattr(b, name).data), name
    c = gen_episode(5, 124, (16, 16))
    assert not np.array_equal(a.support_img.data, c.support_img.data)


def test_support_and_query_differ():
    ep = gen_episode(3, 7)
    assert not np.array_equal(ep.support_img.data, ep.query_img.data)


def test_masks_are_binary_with_legal_area():
    for class_id in range(CLASS_COUNT):
        for seed in (0, 1, 2):
            ep = gen_episode(class_id, seed, (16, 16))
            for mask in (ep.support_mask.data, ep.query_mask.data):
                assert np.isin(mask, (0.0, 1.0)).all()
                frac = mask.sum() / mask.size
                assert MIN_AREA_FRAC <= frac <= MAX_AREA_FRAC, (class_id, seed, frac)


def test_images_stay_in_unit_range():
    for class_id in (0, 7, 12, 15):
        ep = gen_episode(class_id, 9, (16, 16))
        for img in (ep.support_img.data, ep.query_img.data):
            assert img.min() >= 0.0 and img.max() <= 1.0


def test_classes_are_visually_distinct():
    # same seed, different classes must not paint identical scenes
    imgs = [gen_episode(c, 42).support_img.data for c in range(CLASS_COUNT)]
    for i in range(CLASS_COUNT):
        for j in range(i + 1, CLASS_COUNT):
            assert not np.array_equal(imgs[i], imgs[j]), (i, j)


def test_canvas_floor():
    gen_episode(0, 0, (8, 8))
    with pytest.raises(ShapeMismatch):
        gen_episode(0, 0, (7, 8))
    with pytest.raises(ShapeMismatch):
        gen_episode(0, 0, (8, 4))


def test_unknown_class_rejected():
    with pytest.raises(UnknownClass):
        gen_episode(16, 0)
    with pytest.raises(UnknownClass):
        gen_episode(-1, 0)


def test_split_folds_partitions():
    classes = class_registry()
    seen_test = []
    for fold in range(4):
        sp = split_folds(classes, fold)
        assert len(sp.test_classes) == 4
        assert len(sp.train_classes) == 12
        assert set(sp.train_classes) | set(sp.test_classes) == set(classes)
        assert not set(sp.train_classes) & set(sp.test_classes)
        seen_test.extend(sp.test_classes)
    assert sorted(seen_test) == list(classes)


def test_split_folds_fold_zero_layout():
    sp = split_folds(class_registry(), 0)
    assert sp.test_classes == (0, 1, 2, 3)
    assert sp.train_classes == tuple(range(4, 16))


def test_split_folds_validation():
    with pytest.raises(NonDivisibleClassCount):
        split_folds(range(10), 0)
    with pytest.raises(ValueError):
        split_folds(class_registry(), 4)
    with pytest.raises(ValueError):
        split_folds(class_registry(), -1)


def test_bundle_round_trip(tmp_path):
    ep = gen_episode(11, 77, (16, 16))
    written = save_episode(tmp_path / "ep", ep)
    assert sorted(p.name for p in written) == sorted(
        ["support.dcst", "support_mask.dcst", "query.dcst", "query_mask.dcst", "meta.txt"])
    back = load_episode(tmp_path / "ep")
    assert back.class_id == 11
    assert back.seed == 77
    for name in ("support_img", "support_mask", "query_img", "query_mask"):
        assert np.array_equal(getattr(back, name).data, getattr(ep, name).data), name


def test_load_episode_meta_errors(tmp_path):
    ep = gen_episode(2, 5, (8, 8))
    save_episode(tmp_path / "ep", ep)
    meta = tmp_path / "ep" / "meta.txt"

    meta.write_text("class_id = 2\n")  # seed missing
    with pytest.raises(IoError):
        load_episode(tmp_path / "ep")

    meta.write_text("class_id: 2\nseed = 5\n")
    with pytest.raises(IoError):
        load_episode(tmp_path / "ep")

    meta.unlink()
    with pytest.raises(IoError):
        load_episode(tmp_path / "ep")


def test_load_episode_meta_tolerates_comments(tmp_path):
    ep = gen_episode(2, 5, (8, 8))
    save_episode(tmp_path / "ep", ep)
    meta = tmp_path / "ep" / "meta.txt"
    meta.write_text("# regenerated\n\nclass_id = 2\nseed = 5\n")
    assert load_episode(tmp_path / "ep").class_id == 2


def test_load_episode_rejects_repeated_and_unknown_keys(tmp_path):
    ep = gen_episode(2, 5, (8, 8))
    save_episode(tmp_path / "ep", ep)
    meta = tmp_path / "ep" / "meta.txt"
    for text, word in (("class_id = 2\nseed = 5\nseed = 6\n", "repeated key 'seed'"),
                       ("class_id = 2\nclass_id = 2\nseed = 5\n", "repeated key 'class_id'"),
                       ("class_id = 2\nseed = 5\nsteps = 9\n", "unknown key 'steps'")):
        meta.write_text(text)
        with pytest.raises(IoError, match=word):
            load_episode(tmp_path / "ep")
    meta.write_text("class_id = 2\nseed = 5\n")
    assert load_episode(tmp_path / "ep").seed == 5


def test_input_bytes_are_pinned():
    # classes 0-15 x seeds 0-2 x canvases 8, 16, 32, plus one 8-frame tube
    # per canvas: frames, then masks
    digest = hashlib.sha256()
    for canvas in (8, 16, 32):
        for cls in range(CLASS_COUNT):
            for seed in range(3):
                ep = gen_episode(cls, seed, (canvas, canvas))
                for t in (ep.support_img, ep.support_mask, ep.query_img, ep.query_mask):
                    digest.update(t.data.tobytes())
        tube = make_tube(gen_episode(canvas % CLASS_COUNT, canvas, (canvas, canvas)), 8, canvas)
        for t in tube.frames + tube.masks:
            digest.update(t.data.tobytes())
    assert digest.hexdigest() == INPUT_BYTES_SHA256


def test_grid_is_cached_and_read_only():
    rr, cc = grid(5, 7)
    assert grid(5, 7)[0] is rr
    want_rr, want_cc = np.meshgrid(np.arange(5), np.arange(7), indexing="ij")
    assert np.array_equal(rr, want_rr) and np.array_equal(cc, want_cc)
    with pytest.raises(ValueError):
        rr[0, 0] = 1


def row_bits(pixels):
    return tuple(int(sum(1 << int(j) for j in np.flatnonzero(row))) for row in pixels)


def raster(fp, h=16, w=16):
    stamp, top, left = fp
    pixels = episodes._pixels(stamp)
    out = np.zeros((h, w), dtype=bool)
    out[top:top + pixels.shape[0], left:left + pixels.shape[1]] = pixels
    return out


def test_stamps_are_read_only_cached_and_bounded():
    rng = np.random.default_rng(0)
    for family in episodes._FAMILIES:
        for _ in range(20):
            stamp, _, _ = fp = family(rng, 16, 16)
            rows, area, _, _ = stamp
            pixels = episodes._pixels(stamp)
            assert not pixels.flags.writeable
            assert area == np.count_nonzero(pixels) == np.count_nonzero(raster(fp))
            assert rows == row_bits(pixels)
    for _ in range(200):
        a, b = (episodes._FAMILIES[int(rng.integers(0, 8))](rng, 16, 16) for _ in range(2))
        b_rows = list(row_bits(raster(b)))
        assert episodes._shared_pixels(a, b_rows) == np.count_nonzero(raster(a) & raster(b))
    # stamps are keyed by shape parameters, never by position: the cache
    # holds far fewer entries than the scenes drawn here place footprints
    episodes._stamp.cache_clear()
    for canvas in (8, 16, 32):
        for cls in range(CLASS_COUNT):
            for seed in range(50):
                gen_episode(cls, seed, (canvas, canvas))
    assert episodes._stamp.cache_info().currsize < 2000
    assert episodes._stamp.cache_info().maxsize is not None


# Tall, narrow canvases and their transposes need a block longer than wide.
@pytest.mark.parametrize("canvas", [(8, 8), (8, 40), (64, 64), (500, 8), (8, 500),
                                    (1000, 8), (8, 1000), (600, 9), (9, 600)])
def test_fallback_footprint_area_is_legal(monkeypatch, canvas):
    # a family whose every draw covers the whole canvas, above the 50% cap,
    # forces the centered-block fallback for the target
    def whole_canvas(rng, h, w):
        return episodes._stamp(episodes._block_stamp, h, w), 0, 0

    monkeypatch.setattr(episodes, "_FAMILIES", (whole_canvas,) * 8)
    lo, hi = episodes._area_bounds(*canvas)
    ep = gen_episode(3, 0, canvas)
    for mask in (ep.support_mask.data, ep.query_mask.data):
        assert lo <= mask.sum() <= hi, (canvas, mask.sum(), lo, hi)
