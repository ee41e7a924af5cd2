import math

import numpy as np
import pytest

from dcsam.decoder import decode
from dcsam.errors import ShapeMismatch
from dcsam.tensor import GradTape, Tensor, grad


def decode_loops(pos, neg, feats, tau):
    """Scalar reference for the branch-difference decoder."""
    d, h, w = feats.shape
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            f = feats[:, r, c]

            def branch(prompts):
                dots = [float(np.dot(p, f)) / tau for p in prompts]
                m = max(dots)
                return tau * (m + math.log(sum(math.exp(x - m) for x in dots)))

            logit = branch(pos)
            if neg is not None:
                logit -= branch(neg)
            out[r, c] = 1.0 / (1.0 + math.exp(-logit))
    return out


def test_equal_branches_give_exactly_half(rng):
    prompts = Tensor(rng.normal(size=(4, 5)))
    feats = Tensor(rng.normal(size=(5, 3, 3)))
    out = decode(prompts, prompts, feats, tau=1.0)
    assert np.array_equal(out.data, np.full((3, 3), 0.5))


def test_matches_scalar_reference(rng):
    pos = rng.normal(size=(3, 4))
    neg = rng.normal(size=(5, 4))
    feats = rng.normal(size=(4, 2, 6))
    for tau in (0.5, 1.0, 2.0):
        got = decode(Tensor(pos), Tensor(neg), Tensor(feats), tau=tau)
        want = decode_loops(pos, neg, feats, tau)
        assert np.allclose(got.data, want, atol=1e-12)


def test_positive_only_mode(rng):
    pos = rng.normal(size=(3, 4))
    feats = rng.normal(size=(4, 3, 3))
    got = decode(Tensor(pos), None, Tensor(feats), tau=1.0)
    want = decode_loops(pos, None, feats, 1.0)
    assert np.allclose(got.data, want, atol=1e-12)


def test_small_tau_approaches_best_prompt(rng):
    # tau -> 0 turns the smoothed maximum into a hard max over prompts
    pos = rng.normal(size=(4, 6))
    neg = rng.normal(size=(4, 6))
    feats = rng.normal(size=(6, 2, 2))
    got = decode(Tensor(pos), Tensor(neg), Tensor(feats), tau=1e-3).data
    hard = 1.0 / (1.0 + np.exp(-(
        np.einsum("nd,dhw->nhw", pos, feats).max(axis=0)
        - np.einsum("nd,dhw->nhw", neg, feats).max(axis=0))))
    assert np.allclose(got, hard, atol=1e-2)


def test_output_range_and_shape(rng):
    out = decode(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3))),
                 Tensor(rng.normal(size=(3, 4, 5))), tau=1.0)
    assert out.shape == (4, 5)
    assert (out.data > 0).all() and (out.data < 1).all()


def test_shape_validation(rng):
    feats = Tensor(rng.normal(size=(4, 3, 3)))
    with pytest.raises(ShapeMismatch):
        decode(Tensor(rng.normal(size=(3, 5))), None, feats, tau=1.0)  # width 5 != 4
    with pytest.raises(ShapeMismatch):
        decode(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 5))), feats, tau=1.0)
    with pytest.raises(ShapeMismatch):
        decode(Tensor(rng.normal(size=(3, 4))), None, Tensor(rng.normal(size=(4, 9))), tau=1.0)
    for tau in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            decode(Tensor(rng.normal(size=(3, 4))), None, feats, tau=tau)


def test_gradients_flow_to_prompts(rng):
    from dcsam import tensor as T

    pos_data = rng.normal(size=(2, 3))
    neg = Tensor(rng.normal(size=(2, 3)))
    feats = Tensor(rng.normal(size=(3, 2, 2)))
    h = 1e-6

    for use_neg in (True, False):
        tape = GradTape()
        pos = tape.watch(Tensor(pos_data))
        loss = T.sum_all(decode(pos, neg if use_neg else None, feats, tau=1.0))
        g = grad(tape, loss)[pos].data
        assert np.abs(g).max() > 0

        for c in range(pos_data.size):
            def at(delta):
                bumped = pos_data.copy()
                bumped.reshape(-1)[c] += delta
                out = decode(Tensor(bumped), neg if use_neg else None, feats, tau=1.0)
                return float(out.data.sum())

            fd = (at(h) - at(-h)) / (2 * h)
            a = g.reshape(-1)[c]
            assert abs(a - fd) <= 1e-4 * max(abs(a), abs(fd), 1e-3), (use_neg, c)


@pytest.mark.parametrize("with_neg", [True, False], ids=["dual", "positive-only"])
def test_shared_prompts_decode_every_map_of_a_stack_exactly(rng, with_neg):
    # 2-D prompts against [B, d, H, W] maps, as a tube step decodes its frames
    pos = Tensor(rng.normal(size=(5, 4)))
    neg = Tensor(rng.normal(size=(3, 4))) if with_neg else None
    maps = rng.normal(size=(6, 4, 3, 5))
    stacked = decode(pos, neg, Tensor(maps), tau=0.7)
    assert stacked.shape == (6, 3, 5)
    for m, probs in zip(maps, stacked.data):
        assert np.array_equal(decode(pos, neg, Tensor(m), tau=0.7).data, probs)
    with pytest.raises(ShapeMismatch):
        decode(Tensor(rng.normal(size=(2, 5, 4))), neg, Tensor(maps), tau=0.7)
