import numpy as np
import pytest

from dcsam import encoder as encoder_module
from dcsam.encoder import StubEncoder
from dcsam.errors import ShapeMismatch
from dcsam.oracles import ENCODER_CASES, descriptor_mismatches, run_encoder_suite
from dcsam.tensor import Tensor

# The widths of a default config's encoder.
WIDTHS = dict(d_mid=6, d_high=6, d_sam=12)


def test_encode_shapes_and_determinism(rng):
    img = Tensor(rng.random((16, 16)))
    enc = StubEncoder(seed=0, d_mid=5, d_high=7, d_sam=11, stride=1)
    maps_a = enc.encode(img)
    maps_b = StubEncoder(seed=0, d_mid=5, d_high=7, d_sam=11, stride=1).encode(img)
    assert maps_a.mid.shape == (5, 16, 16)
    assert maps_a.high.shape == (7, 16, 16)
    assert maps_a.sam.shape == (11, 16, 16)
    for name in ("mid", "high", "sam"):
        assert np.array_equal(getattr(maps_a, name).data, getattr(maps_b, name).data)


def test_different_seeds_give_different_features(rng):
    img = Tensor(rng.random((16, 16)))
    a = StubEncoder(seed=0, **WIDTHS, stride=1).encode(img)
    b = StubEncoder(seed=1, **WIDTHS, stride=1).encode(img)
    assert not np.array_equal(a.mid.data, b.mid.data)


def test_features_are_bounded(rng):
    maps = StubEncoder(seed=3, **WIDTHS, stride=1).encode(Tensor(rng.random((16, 16))))
    for name in ("mid", "high", "sam"):
        data = getattr(maps, name).data
        assert np.abs(data).max() <= 1.0  # tanh squashed


def test_features_are_constants(rng):
    maps = StubEncoder(seed=3, **WIDTHS, stride=1).encode(Tensor(rng.random((16, 16))))
    assert maps.mid.tape is None
    assert maps.sam.tape is None


def test_stride_pools_spatial_size(rng):
    img = Tensor(rng.random((16, 16)))
    enc = StubEncoder(seed=0, **WIDTHS, stride=2)
    maps = enc.encode(img)
    assert maps.mid.shape[1:] == (8, 8)
    assert enc.stride == 2


def test_encode_input_validation(rng):
    enc = StubEncoder(seed=0, **WIDTHS, stride=2)
    with pytest.raises(ShapeMismatch):
        enc.encode(Tensor(rng.random((15, 16))))  # not divisible by stride
    with pytest.raises(ShapeMismatch):
        StubEncoder(seed=0, **WIDTHS, stride=1).encode(Tensor(rng.random((4, 4, 4))))


def test_position_channels_make_translation_visible():
    # two images that differ only by object position must encode differently
    img_a = np.zeros((16, 16))
    img_b = np.zeros((16, 16))
    img_a[2:6, 2:6] = 1.0
    img_b[10:14, 10:14] = 1.0
    enc = StubEncoder(seed=0, **WIDTHS, stride=1)
    a = enc.encode(Tensor(img_a)).mid.data
    b = enc.encode(Tensor(img_b)).mid.data
    assert not np.array_equal(a, b)


def test_encode_frames_projects_frame_zero_only_when_asked(rng):
    enc = StubEncoder(seed=0, **WIDTHS, stride=2)
    frames = rng.random((3, 8, 8))
    first, sam = enc.encode_frames(frames, first=True)
    assert sam.shape == (3, WIDTHS["d_sam"], 4, 4)
    assert (first.mid.shape, first.high.shape) == ((6, 4, 4), (6, 4, 4))
    assert first.sam.data.tobytes() == sam.data[0].tobytes()
    none, again = enc.encode_frames(frames, first=False)
    assert none is None and again.data.tobytes() == sam.data.tobytes()
    with pytest.raises(ShapeMismatch):
        enc.encode_frames(frames[0], first=True)  # one image, not a stack
    with pytest.raises(ShapeMismatch):
        enc.encode_frames(rng.random((2, 7, 8)), first=False)  # not divisible by stride


def _step(h, w):
    img = np.full((h, w), 0.3)
    img[:, w // 2:] = 0.9
    return img


# Flat and near-flat windows, where a variance formula that cancels goes
# wrong; none lies on the 1/1024 grid, so all are held within the bound.
FLAT_IMAGES = {
    "constant 0.7": lambda rng: np.full((16, 16), 0.7),
    "0.7 plus 1e-9 noise": lambda rng: 0.7 + 1e-9 * rng.standard_normal((16, 16)),
    "0.3/0.9 step": lambda rng: _step(16, 24),
    "0.3/0.9 step, transposed": lambda rng: _step(24, 16).T.copy(),
    "uniform random": lambda rng: rng.random((3, 12, 16)),
    "float32-valued random": lambda rng: rng.random((16, 16)).astype(np.float32).astype(np.float64),
}


@pytest.mark.parametrize("name", sorted(FLAT_IMAGES))
def test_descriptors_match_the_reference_on_flat_and_random_images(name, rng):
    img = FLAT_IMAGES[name](rng)
    desc = encoder_module._descriptors(img)
    assert descriptor_mismatches(desc, img, grid=False) == []
    if name == "constant 0.7":   # a flat window's deviation is a rounding error, not 2e-7
        assert np.abs(desc[:, [4, 6, 8]]).max() < 1e-14


def _mutated_suite(monkeypatch, column, change):
    original = encoder_module._descriptors

    def mutated(img):
        desc = original(img).copy()
        desc[..., column] = change(desc[..., column])
        return desc

    monkeypatch.setattr(encoder_module, "_descriptors", mutated)
    return run_encoder_suite(trials=16, seed=3)


def test_encoder_suite_catches_a_mean_one_ulp_off_on_episode_images(monkeypatch):
    result = _mutated_suite(monkeypatch, 5, lambda mean5: np.nextafter(mean5, np.inf))
    episode_cases = sum(case[3] == "episode" for case in ENCODER_CASES[:16])
    assert result.failures == episode_cases == 8
    assert "mean5 bytes differ" in result.detail[0]


def test_encoder_suite_catches_a_deviation_off_by_one_part_in_a_trillion(monkeypatch):
    result = _mutated_suite(monkeypatch, 6, lambda std5: std5 * (1.0 + 1e-12))
    assert result.failures == 16
    assert "std5 off by" in result.detail[0]
