import math

import numpy as np
import pytest

from dcsam.errors import ShapeMismatch
from dcsam.losses import CLAMP_HI, CLAMP_LO, DICE_EPS, bce_loss, dice_loss, total_loss
from dcsam.tensor import GradTape, Tensor, grad
from dcsam import tensor as T


def bce_scalar(pred, target):
    total = 0.0
    for p, y in zip(pred, target):
        p = min(max(p, CLAMP_LO), CLAMP_HI)
        total += y * math.log(p) + (1 - y) * math.log(1 - p)
    return -total / len(pred)


def dice_scalar(pred, target):
    inter = sum(p * y for p, y in zip(pred, target))
    denom = sum(p * p for p in pred) + sum(y * y for y in target) + DICE_EPS
    return 1.0 - 2.0 * inter / denom


def test_bce_uniform_half_is_ln2():
    pred = Tensor(np.full((3, 3), 0.5))
    target = Tensor((np.arange(9).reshape(3, 3) % 2).astype(float))
    assert bce_loss(pred, target).item() == pytest.approx(math.log(2.0), abs=1e-9)


def test_bce_frozen_hand_case():
    # -0.5 * (ln 0.8 + ln 0.6), computed with scalar math
    got = bce_loss(Tensor([0.8, 0.4]), Tensor([1.0, 0.0])).item()
    assert got == pytest.approx(0.3669845875401002, abs=1e-12)
    assert got == pytest.approx(bce_scalar([0.8, 0.4], [1.0, 0.0]), abs=1e-12)


def test_bce_matches_scalar_reference(rng):
    pred = rng.uniform(0.01, 0.99, size=12)
    target = rng.integers(0, 2, size=12).astype(float)
    got = bce_loss(Tensor(pred), Tensor(target)).item()
    assert got == pytest.approx(bce_scalar(pred, target), abs=1e-12)


def test_bce_clamps_extreme_predictions():
    got = bce_loss(Tensor([0.0, 1.0]), Tensor([1.0, 0.0])).item()
    assert got == pytest.approx(-math.log(CLAMP_LO), rel=1e-9)
    assert math.isfinite(got)


def test_dice_perfect_binary_is_zero():
    mask = Tensor([[1.0, 0.0], [1.0, 1.0]])
    assert dice_loss(mask, mask).item() == pytest.approx(0.0, abs=2e-6)


def test_dice_disjoint_is_one():
    pred = Tensor([1.0, 1.0, 0.0, 0.0])
    target = Tensor([0.0, 0.0, 1.0, 1.0])
    assert dice_loss(pred, target).item() == pytest.approx(1.0, abs=2e-6)


def test_dice_half_overlap():
    # |inter|=1, |pred|^2=2, |target|^2=1 -> 1 - 2/3
    got = dice_loss(Tensor([1.0, 1.0, 0.0, 0.0]), Tensor([1.0, 0.0, 0.0, 0.0])).item()
    assert got == pytest.approx(1.0 / 3.0, abs=2e-6)


def test_dice_matches_scalar_reference(rng):
    pred = rng.uniform(0.01, 0.99, size=10)
    target = rng.integers(0, 2, size=10).astype(float)
    got = dice_loss(Tensor(pred), Tensor(target)).item()
    assert got == pytest.approx(dice_scalar(pred, target), abs=1e-12)


def test_total_is_exact_sum(rng):
    pred = Tensor(rng.uniform(0.05, 0.95, size=(4, 4)))
    target = Tensor(rng.integers(0, 2, size=(4, 4)).astype(float))
    assert total_loss(pred, target).item() == bce_loss(pred, target).item() + \
        dice_loss(pred, target).item()


def test_loss_validation(rng):
    with pytest.raises(ShapeMismatch):
        bce_loss(Tensor([0.5, 0.5]), Tensor([1.0]))


def test_loss_gradients_finite_difference(rng):
    pred = rng.uniform(0.1, 0.9, size=(3, 3))
    target = rng.integers(0, 2, size=(3, 3)).astype(float)
    for loss_fn in (bce_loss, dice_loss, total_loss):
        tape = GradTape()
        p = tape.watch(Tensor(pred))
        ana = grad(tape, loss_fn(p, Tensor(target)))[p].data
        h = 1e-6
        for c in range(pred.size):
            def at(delta):
                bumped = pred.copy()
                bumped.reshape(-1)[c] += delta
                return loss_fn(Tensor(bumped), Tensor(target)).item()

            fd = (at(h) - at(-h)) / (2 * h)
            a = ana.reshape(-1)[c]
            assert abs(a - fd) <= 1e-4 * max(abs(a), abs(fd), 1e-3), (loss_fn.__name__, c)


def test_bce_gradient_sign(rng):
    # pushing a prediction toward its label lowers the loss
    tape = GradTape()
    p = tape.watch(Tensor([0.3, 0.7]))
    g = grad(tape, bce_loss(p, Tensor([1.0, 0.0])))[p].data
    assert g[0] < 0  # raise p[0] toward 1
    assert g[1] > 0  # lower p[1] toward 0
