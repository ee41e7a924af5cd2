import math

import numpy as np
import pytest

from dcsam.attention import (AttentionBlock, affinity, cross_attention, cycle_bias,
                             cycle_consistent_attention, self_attention)
from dcsam.errors import AllMasked, ShapeMismatch
from dcsam.reference import cycle_bias_reference
from dcsam.tensor import GradTape, Tensor, grad
from dcsam import tensor as T


def make_block(rng, d):
    return AttentionBlock(wq=Tensor(rng.normal(size=(d, d))),
                          wk=Tensor(rng.normal(size=(d, d))),
                          wv=Tensor(rng.normal(size=(d, d))))


def attention_loops(q, k, v, bias):
    # scalar-math reference for one attention call
    n, d = q.shape
    hw = k.shape[0]
    scores = np.zeros((n, hw))
    for i in range(n):
        for j in range(hw):
            scores[i, j] = sum(q[i, t] * k[j, t] for t in range(d)) / math.sqrt(d)
    out = np.zeros((n, d))
    for i in range(n):
        logits = [scores[i, j] + bias[j] for j in range(hw)]
        live = [j for j in range(hw) if logits[j] != -np.inf]
        top = max(logits[j] for j in live)
        weights = np.zeros(hw)
        for j in live:
            weights[j] = math.exp(logits[j] - top)
        weights /= weights.sum()
        for t in range(d):
            out[i, t] = sum(weights[j] * v[j, t] for j in range(hw))
    return out


def test_affinity_scaling(rng):
    q = rng.normal(size=(2, 4))
    k = rng.normal(size=(3, 4))
    got = affinity(Tensor(q), Tensor(k)).data
    np.testing.assert_allclose(got, q @ k.T / 2.0, atol=1e-12)


def test_affinity_shape_errors(rng):
    with pytest.raises(ShapeMismatch):
        affinity(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3, 4))))
    with pytest.raises(ShapeMismatch):
        affinity(Tensor(rng.normal(size=3)), Tensor(rng.normal(size=(3, 3))))


def test_cycle_bias_hand_case():
    # support 0 -> query 0 -> support 1: labels differ, so position 0 drops
    a = np.array([[1.0, 2.0],
                  [0.0, 0.0]])
    mask = np.array([1.0, 0.0])
    got = cycle_bias(Tensor(a), Tensor(mask))
    assert np.isneginf(got[0])
    assert got[1] == 0.0


def test_cycle_bias_all_same_label_is_zero(rng):
    a = rng.normal(size=(3, 6))
    for value in (0.0, 1.0):
        got = cycle_bias(Tensor(a), Tensor(np.full(6, value)))
        np.testing.assert_array_equal(got, np.zeros(6))


def test_cycle_bias_matches_bruteforce_random(rng):
    for _ in range(300):
        n = int(rng.integers(1, 5))
        hw = int(rng.integers(1, 10))
        a = rng.normal(size=(n, hw))
        mask = rng.integers(0, 2, size=hw).astype(float)
        got = cycle_bias(Tensor(a), Tensor(mask))
        want = cycle_bias_reference(a, mask)
        np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
        assert (got[~np.isneginf(got)] == 0.0).all()


def test_cycle_bias_ties_break_to_smallest_index(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        hw = int(rng.integers(1, 8))
        a = rng.integers(-1, 2, size=(n, hw)).astype(float)  # heavy ties
        mask = rng.integers(0, 2, size=hw).astype(float)
        got = cycle_bias(Tensor(a), Tensor(mask))
        want = cycle_bias_reference(a, mask)
        np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))


def test_cycle_bias_constant_affinity():
    # every argmax ties at index 0, so j* = 0 for all columns
    a = np.zeros((2, 4))
    mask = np.array([1.0, 0.0, 1.0, 0.0])
    got = cycle_bias(Tensor(a), Tensor(mask))
    assert got[0] == 0.0 and got[2] == 0.0
    assert np.isneginf(got[1]) and np.isneginf(got[3])


def test_cycle_bias_scale_invariant_pattern(rng):
    a = rng.normal(size=(3, 7))
    mask = rng.integers(0, 2, size=7).astype(float)
    base = cycle_bias(Tensor(a), Tensor(mask))
    scaled = cycle_bias(Tensor(a * 3.7), Tensor(mask))
    np.testing.assert_array_equal(np.isneginf(base), np.isneginf(scaled))


def test_cycle_bias_is_detached(rng):
    tape = GradTape()
    q = tape.watch(Tensor(rng.normal(size=(2, 3))))
    k = Tensor(rng.normal(size=(5, 3)))
    a = affinity(q, k)
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    bias = cycle_bias(a, Tensor(mask))
    # a constant array off the tape, with the loop reference's 0/-inf pattern
    assert type(bias) is np.ndarray and bias.dtype == np.float64
    np.testing.assert_array_equal(bias, cycle_bias_reference(a.data, mask))


def test_cross_attention_matches_loop_reference(rng):
    d = 3
    block = make_block(rng, d)
    queries = rng.normal(size=(2, d))
    feats = rng.normal(size=(4, d))
    got = cross_attention(block, Tensor(queries), Tensor(feats)).data
    q = queries @ block.wq.data
    k = feats @ block.wk.data
    v = feats @ block.wv.data
    want = attention_loops(q, k, v, np.zeros(4))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_all_foreground_reduces_to_unbiased(rng):
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        hw = int(rng.integers(1, 10))
        block = make_block(rng, d)
        queries = Tensor(rng.normal(size=(n, d)))
        feats = Tensor(rng.normal(size=(hw, d)))
        biased = cycle_consistent_attention(block, queries, feats, Tensor(np.ones(hw)))
        plain = cross_attention(block, queries, feats)
        assert np.abs(biased.data - plain.data).max() <= 1e-12


def test_cycle_bias_keeps_at_least_one_column(rng):
    # the column holding the affinity's global maximum is its own round-trip
    # target, so the bias can never mask every position
    for _ in range(300):
        n = int(rng.integers(1, 5))
        hw = int(rng.integers(1, 10))
        a = rng.normal(size=(n, hw))
        if rng.random() < 0.5:
            a = np.round(a)  # exercise tie handling too
        mask = rng.integers(0, 2, size=hw).astype(float)
        got = cycle_bias(Tensor(a), Tensor(mask))
        assert np.isfinite(got).any()


def test_all_masked_bias_raises(rng):
    scores = Tensor(rng.normal(size=(2, 4)))
    bias = np.full(4, -np.inf)
    with pytest.raises(AllMasked):
        T.masked_softmax_rows(scores, bias)


def test_self_attention_shape(rng):
    block = make_block(rng, 4)
    out = self_attention(block, Tensor(rng.normal(size=(5, 4))))
    assert out.shape == (5, 4)


def test_attention_width_validation(rng):
    block = make_block(rng, 4)
    with pytest.raises(ShapeMismatch):
        cross_attention(block, Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(5, 4))))
    with pytest.raises(ShapeMismatch):
        cycle_consistent_attention(block, Tensor(rng.normal(size=(2, 4))),
                                   Tensor(rng.normal(size=(5, 3))), Tensor(np.ones(5)))


def test_attention_block_validation(rng):
    with pytest.raises(ShapeMismatch):
        AttentionBlock(wq=Tensor(rng.normal(size=(3, 4))),
                       wk=Tensor(rng.normal(size=(3, 3))),
                       wv=Tensor(rng.normal(size=(3, 3))))


def test_cycle_attention_gradients(rng):
    d = 3
    wq, wk, wv = (rng.normal(size=(d, d)) for _ in range(3))
    queries = rng.normal(size=(2, d))
    feats = rng.normal(size=(5, d))
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])

    def build(p):
        block = AttentionBlock(wq=p[0], wk=p[1], wv=p[2])
        out = cycle_consistent_attention(block, p[3], p[4], Tensor(mask))
        return T.sum_all(T.sigmoid(out))

    params = [wq.copy(), wk.copy(), wv.copy(), queries.copy(), feats.copy()]
    tape = GradTape()
    tracked = [tape.watch(Tensor(p)) for p in params]
    grads = grad(tape, build(tracked))
    h = 1e-5
    for idx, p in enumerate(params):
        ana = grads[tracked[idx]].data
        flat = p.reshape(-1)
        for c in range(0, flat.size, 3):
            def at(delta):
                bumped = [q.copy() for q in params]
                bumped[idx].reshape(-1)[c] += delta
                return build([Tensor(q) for q in bumped]).item()

            fd = (at(h) - at(-h)) / (2 * h)
            a = ana.reshape(-1)[c]
            assert abs(a - fd) <= 1e-4 * max(abs(a), abs(fd), 1e-2)
