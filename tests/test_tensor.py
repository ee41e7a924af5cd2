import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcsam.tensor
from dcsam.errors import AllMasked, ShapeMismatch, UntrackedLoss
from dcsam import tensor as T
from dcsam.tensor import GradTape, Tensor, binarize, detach, grad


def matmul_loops(a, b):
    # independent reference: no numpy matmul
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def fd_check(build, params, h=1e-5, tol=1e-4):
    """build(tracked_list) -> scalar Tensor; checks every coordinate."""
    tape = GradTape()
    tracked = [tape.watch(Tensor(p)) for p in params]
    loss = build(tracked)
    grads = grad(tape, loss)
    for idx, p in enumerate(params):
        ana = grads[tracked[idx]].data
        flat = p.reshape(-1)
        for c in range(flat.size):
            def at(delta):
                bumped = [q.copy() for q in params]
                bumped[idx].reshape(-1)[c] += delta
                return build([Tensor(q) for q in bumped]).item()

            fd = (at(h) - at(-h)) / (2 * h)
            a = ana.reshape(-1)[c]
            assert abs(a - fd) <= tol * max(abs(a), abs(fd), 1e-2), (
                f"param {idx} coord {c}: analytic {a} vs fd {fd}")


# ---------------------------------------------------------------- construction

def test_tensor_is_float64_immutable():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    with pytest.raises(ValueError):
        t.data[0, 0] = 9.0


def test_tensor_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        Tensor([1.0, float("inf")])
    with pytest.raises(ValueError):
        Tensor([1.0, float("-inf")])


def test_softmax_bias_permits_neg_inf_only():
    x = Tensor([[5.0, 100.0, 6.0], [1.0, 2.0, 3.0]])
    for bias in (np.array([0.0, -np.inf, 0.0]),
                 np.array([[0.0, -np.inf, 0.0], [-np.inf, 0.0, -np.inf]])):
        out = T.masked_softmax_rows(x, bias).data
        assert (out[np.isneginf(np.broadcast_to(bias, x.shape))] == 0.0).all()
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            T.masked_softmax_rows(x, np.array([0.0, bad, 0.0]))
    for shape in ((2,), (3, 3), (1, 2, 3)):
        with pytest.raises(ShapeMismatch):
            T.masked_softmax_rows(x, np.zeros(shape))


def test_item_requires_scalar():
    with pytest.raises(ShapeMismatch):
        Tensor([1.0, 2.0]).item()
    assert Tensor(3.5).item() == 3.5


# ------------------------------------------------------------------- forwards

def test_matmul_matches_loop_oracle(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = T.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, matmul_loops(a, b), rtol=0, atol=1e-12)


def test_matmul_frozen_case():
    got = T.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[5, 6], [7, 8]]))
    np.testing.assert_array_equal(got.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatch):
        T.matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))
    with pytest.raises(ShapeMismatch):
        T.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


def test_elementwise_against_numpy(rng):
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(4, 5)) + 3.0
    np.testing.assert_array_equal(T.add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_array_equal(T.sub(Tensor(a), Tensor(b)).data, a - b)
    np.testing.assert_array_equal(T.mul(Tensor(a), Tensor(b)).data, a * b)
    np.testing.assert_array_equal(T.div(Tensor(a), Tensor(b)).data, a / b)
    np.testing.assert_array_equal(T.neg(Tensor(a)).data, -a)
    np.testing.assert_array_equal(T.scale(Tensor(a), 2.5).data, a * 2.5)
    np.testing.assert_array_equal(T.add_scalar(Tensor(a), -1.25).data, a - 1.25)


def test_structural_ops(rng):
    a = rng.normal(size=(2, 6))
    np.testing.assert_array_equal(T.transpose(Tensor(a)).data, a.T)
    np.testing.assert_array_equal(T.reshape(Tensor(a), (3, 4)).data, a.reshape(3, 4))
    parts = [rng.normal(size=(2, 3, 3)), rng.normal(size=(1, 3, 3))]
    np.testing.assert_array_equal(
        T.concat_channels([Tensor(p) for p in parts]).data, np.concatenate(parts, axis=0))
    v = rng.normal(size=4)
    tiled = T.tile_spatial(Tensor(v), 2, 3)
    assert tiled.shape == (4, 2, 3)
    np.testing.assert_array_equal(tiled.data, np.broadcast_to(v[:, None, None], (4, 2, 3)))
    m = rng.normal(size=(3, 4))
    np.testing.assert_array_equal(T.add_rowvec(Tensor(m), Tensor(v)).data, m + v[None, :])


def test_reshape_rejects_bad_target():
    with pytest.raises(ShapeMismatch):
        T.reshape(Tensor([1.0, 2.0]), (3,))
    with pytest.raises(ShapeMismatch):
        T.reshape(Tensor([1.0, 2.0]), (-1, 2))


def test_sum_all_scalar(rng):
    a = rng.normal(size=(3, 3))
    s = T.sum_all(Tensor(a))
    assert s.shape == ()
    assert s.item() == pytest.approx(a.sum(), abs=1e-12)


def test_exp_log_domain():
    with pytest.raises(FloatingPointError):
        T.exp(Tensor([800.0]))
    with pytest.raises(FloatingPointError):
        T.log(Tensor([0.0]))
    with pytest.raises(FloatingPointError):
        T.log(Tensor([-1.0]))


# ------------------------------------------------------------------- overflow

BIG = np.finfo(np.float64).max
TINY = np.finfo(np.float64).smallest_subnormal
EXTREMES = np.array([[BIG, -BIG], [TINY, -TINY]])


def _grad_overflow():
    tape = GradTape()
    p = tape.watch(Tensor([1e-308]))
    q = Tensor([1e308])
    # the forward sums two products near 1; the adjoint of p sums two 1e308
    return grad(tape, T.sum_all(T.add(T.mul(p, q), T.mul(p, q))))


OVERFLOWING = {
    "add": lambda: T.add(Tensor([BIG]), Tensor([BIG])),
    "sub": lambda: T.sub(Tensor([BIG]), Tensor([-BIG])),
    "mul": lambda: T.mul(Tensor([1e200]), Tensor([1e200])),
    "div": lambda: T.div(Tensor([1e300]), Tensor([1e-300])),
    "add_scalar": lambda: T.add_scalar(Tensor([BIG]), BIG),
    "scale": lambda: T.scale(Tensor([BIG]), 2.0),
    "scale-nan": lambda: T.scale(Tensor([1.0]), float("nan")),
    "scale-inf": lambda: T.scale(Tensor([1.0]), float("inf")),
    "matmul": lambda: T.matmul(Tensor([[1e200]]), Tensor([[1e200]])),
    "add_rowvec": lambda: T.add_rowvec(Tensor([[BIG]]), Tensor([BIG])),
    "sum_all": lambda: T.sum_all(Tensor([BIG, BIG])),
    "sum_all-batched": lambda: T.sum_all(Tensor([[BIG, BIG]]), batched=True),
    "exp": lambda: T.exp(Tensor([800.0])),
    "conv1x1": lambda: T.conv1x1(Tensor(np.full((1, 1, 1), 1e200)), Tensor([[1e200]]),
                                 Tensor([0.0])),
    "masked_softmax_rows": lambda: T.masked_softmax_rows(Tensor([[1e308, 0.0]]),
                                                         np.array([1e308, 0.0])),
    "grad": _grad_overflow,
}

# ops whose finite operands always give finite results, on the extremes
NEVER_OVERFLOWING = {
    "neg": lambda: T.neg(Tensor(EXTREMES)),
    "log": lambda: T.log(Tensor([[BIG, TINY], [1.0, TINY]])),
    "sigmoid": lambda: T.sigmoid(Tensor(EXTREMES)),
    "clamp": lambda: T.clamp(Tensor(EXTREMES), -1.0, 1.0),
    "logsumexp0": lambda: T.logsumexp0(Tensor(EXTREMES)),
    "transpose": lambda: T.transpose(Tensor(EXTREMES)),
    "reshape": lambda: T.reshape(Tensor(EXTREMES), (4,)),
    "concat_channels": lambda: T.concat_channels([Tensor(EXTREMES[None])] * 2),
    "tile_spatial": lambda: T.tile_spatial(Tensor(EXTREMES[0]), 2, 2),
    "zeros": lambda: T.zeros((2, 2)),
    "detach": lambda: detach(GradTape().watch(Tensor(EXTREMES))),
    "binarize": lambda: binarize(Tensor(EXTREMES)),
    **{f"scale-{c}": (lambda c=c: T.scale(Tensor(EXTREMES), c)) for c in (0.5, -1.0, 0.0, -0.25)},
}


def _count_scans(monkeypatch):
    scans = []
    finite = dcsam.tensor._finite

    def counting(arr, op):
        scans.append(op)
        return finite(arr, op)

    monkeypatch.setattr(dcsam.tensor, "_finite", counting)
    return scans


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_scanned_op_raises_on_finite_operands_that_overflow(name, monkeypatch):
    scans = _count_scans(monkeypatch)
    with pytest.raises(FloatingPointError):
        OVERFLOWING[name]()
    assert scans[-1] == name.split("-")[0]


@pytest.mark.parametrize("name", sorted(NEVER_OVERFLOWING))
def test_unscanned_op_stays_finite_on_extreme_inputs(name, monkeypatch):
    scans = _count_scans(monkeypatch)
    out = NEVER_OVERFLOWING[name]()
    assert np.isfinite(out.data).all()
    assert scans == []


def test_clamp_to_an_infinite_bound_raises():
    for lo, hi in ((math.inf, math.inf), (-math.inf, -math.inf)):
        with pytest.raises(FloatingPointError):
            T.clamp(Tensor([1.0]), lo, hi)
    np.testing.assert_array_equal(T.clamp(Tensor(EXTREMES), -math.inf, math.inf).data, EXTREMES)


def test_matmul_overflow_in_one_column_is_caught_with_threaded_blas():
    # A product this size is split across BLAS threads. An overflow raised in
    # a worker thread leaves the caller's floating-point flags clean, so
    # np.errstate trapping can miss it; the explicit scan cannot.
    n = 512
    b = np.zeros((n, n))
    b[:, -1] = 1e308
    with pytest.raises(FloatingPointError):
        T.matmul(Tensor(np.ones((n, n))), Tensor(b))


def test_sigmoid_stable_extremes():
    out = T.sigmoid(Tensor([-1000.0, 0.0, 1000.0])).data
    assert out[0] == 0.0 and out[2] == 1.0
    assert out[1] == 0.5


def test_clamp_values():
    out = T.clamp(Tensor([-1.0, 0.5, 2.0]), 0.0, 1.0)
    np.testing.assert_array_equal(out.data, [0.0, 0.5, 1.0])
    with pytest.raises(ShapeMismatch):
        T.clamp(Tensor([1.0]), 1.0, 0.0)


def test_logsumexp0_matches_reference_and_is_stable(rng):
    a = rng.normal(size=(5, 3))
    got = T.logsumexp0(Tensor(a)).data
    want = np.log(np.exp(a).sum(axis=0))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    big = T.logsumexp0(Tensor([[1000.0], [1000.0]])).data
    assert big[0] == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)


@pytest.mark.parametrize("shape", [(5, 3), (4, 6, 7)])
def test_logsumexp0_is_the_same_on_and_off_the_tape(rng, shape):
    a = rng.normal(size=shape) * 4.0
    g = rng.normal(size=shape[:-2] + shape[-1:])
    off = T.logsumexp0(Tensor(a))
    tape = GradTape()
    x = tape.watch(Tensor(a))
    on = T.logsumexp0(x)
    assert on.data.tobytes() == off.data.tobytes()
    # the adjoint reaching logsumexp0 is g exactly, so the gradient is its VJP
    grads = grad(tape, T.sum_all(T.mul(on, Tensor(g))))
    soft = np.exp(a - a.max(axis=-2, keepdims=True))
    denom = soft.sum(axis=-2, keepdims=True)
    assert grads[x].data.tobytes() == ((soft / denom) * g[..., None, :]).tobytes()


def test_conv1x1_matches_matmul_oracle(rng):
    x = rng.normal(size=(5, 3, 4))
    w = rng.normal(size=(2, 5))
    b = rng.normal(size=2)
    got = T.conv1x1(Tensor(x), Tensor(w), Tensor(b)).data
    want = (w @ x.reshape(5, 12)).reshape(2, 3, 4) + b[:, None, None]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("batch", [1, 3, 16, 32])
def test_batched_conv1x1_has_each_episodes_own_bytes_and_matches_einsum(rng, batch):
    x = rng.normal(size=(batch, 19, 16, 16))
    w, b = rng.normal(size=(12, 19)), rng.normal(size=12)
    got = T.conv1x1(Tensor(x), Tensor(w), Tensor(b)).data
    alone = np.stack([T.conv1x1(Tensor(xi), Tensor(w), Tensor(b)).data for xi in x])
    assert got.tobytes() == alone.tobytes()
    want = np.einsum("oc,bchw->bohw", w, x) + b[:, None, None]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_conv1x1_shape_errors(rng):
    x, w, b = rng.normal(size=(5, 3, 4)), rng.normal(size=(2, 4)), rng.normal(size=2)
    with pytest.raises(ShapeMismatch):
        T.conv1x1(Tensor(x), Tensor(w), Tensor(b))
    with pytest.raises(ShapeMismatch):
        T.conv1x1(Tensor(x), Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=3)))


# -------------------------------------------------------------------- softmax

def softmax_scalar(row):
    top = max(row)
    e = [math.exp(v - top) for v in row]
    s = sum(e)
    return [v / s for v in e]


def test_softmax_frozen_row():
    out = T.masked_softmax_rows(Tensor([[1.0, 2.0, 3.0]]), np.zeros(3)).data[0]
    want = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(out, softmax_scalar([1.0, 2.0, 3.0]), rtol=0, atol=1e-15)


def test_softmax_masked_entries_exactly_zero():
    bias = np.array([0.0, -np.inf, 0.0])
    out = T.masked_softmax_rows(Tensor([[5.0, 100.0, 6.0]]), bias).data[0]
    assert out[1] == 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out[[0, 2]], softmax_scalar([5.0, 6.0]), atol=1e-15)


def test_softmax_rowwise_bias():
    bias = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
    out = T.masked_softmax_rows(Tensor([[1.0, 1.0], [1.0, 1.0]]), bias).data
    np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])


def test_softmax_all_masked_raises():
    bias = np.full(2, -np.inf)
    with pytest.raises(AllMasked):
        T.masked_softmax_rows(Tensor([[1.0, 2.0]]), bias)


def test_softmax_shape_errors():
    with pytest.raises(ShapeMismatch):
        T.masked_softmax_rows(Tensor([[1.0, 2.0]]), np.zeros(3))
    with pytest.raises(ShapeMismatch):
        T.masked_softmax_rows(Tensor([1.0, 2.0]), np.zeros(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_softmax_rows_sum_to_one(r, c, seed):
    x = np.random.default_rng(seed).normal(size=(r, c)) * 5
    out = T.masked_softmax_rows(Tensor(x), np.zeros(c)).data
    np.testing.assert_allclose(out.sum(axis=1), np.ones(r), rtol=0, atol=1e-9)
    assert (out >= 0).all()


# ------------------------------------------------------------------ gradients

def test_grad_of_sum_is_ones(rng):
    p = rng.normal(size=(3, 4))
    tape = GradTape()
    t = tape.watch(Tensor(p))
    g = grad(tape, T.sum_all(t))
    np.testing.assert_array_equal(g[t].data, np.ones((3, 4)))


def test_grad_of_half_square_is_param(rng):
    p = rng.normal(size=(5,))
    tape = GradTape()
    t = tape.watch(Tensor(p))
    loss = T.scale(T.sum_all(T.mul(t, t)), 0.5)
    g = grad(tape, loss)
    np.testing.assert_allclose(g[t].data, p, rtol=0, atol=1e-12)


def test_grad_untouched_param_is_zeros(rng):
    tape = GradTape()
    used = tape.watch(Tensor(rng.normal(size=3)))
    unused = tape.watch(Tensor(rng.normal(size=(2, 2))))
    g = grad(tape, T.sum_all(used))
    np.testing.assert_array_equal(g[unused].data, np.zeros((2, 2)))


def test_grad_untracked_loss_raises():
    tape = GradTape()
    tape.watch(Tensor([1.0]))
    with pytest.raises(UntrackedLoss):
        grad(tape, T.sum_all(Tensor([2.0])))


def test_grad_rejects_nonscalar_loss(rng):
    tape = GradTape()
    t = tape.watch(Tensor(rng.normal(size=3)))
    with pytest.raises(ShapeMismatch):
        grad(tape, T.scale(t, 2.0))


def test_grad_releases_the_tape(rng):
    p = rng.normal(size=(3, 4))

    def run():
        tape = GradTape()
        t = tape.watch(Tensor(p))
        loss = T.sum_all(T.sigmoid(T.matmul(t, T.transpose(t))))
        return tape, loss, grad(tape, loss)[t]

    tape, loss, first = run()
    assert tape._records == [] and tape._watched == []
    with pytest.raises(UntrackedLoss):
        grad(tape, loss)
    assert np.array_equal(run()[2].data, first.data)
    s = 1.0 / (1.0 + np.exp(-(p @ p.T)))
    np.testing.assert_allclose(first.data, 2.0 * (s * (1.0 - s)) @ p, atol=1e-12)


def test_watch_rejects_double_watch():
    tape = GradTape()
    t = tape.watch(Tensor([1.0]))
    with pytest.raises(ValueError):
        tape.watch(t)


def test_mixing_tapes_raises(rng):
    t1 = GradTape().watch(Tensor(rng.normal(size=3)))
    t2 = GradTape().watch(Tensor(rng.normal(size=3)))
    with pytest.raises(ValueError):
        T.add(t1, t2)


def test_detach_stops_gradient(rng):
    p = rng.normal(size=4)
    tape = GradTape()
    t = tape.watch(Tensor(p))
    loss = T.sum_all(T.mul(detach(T.scale(t, 3.0)), t))
    g = grad(tape, loss)
    np.testing.assert_allclose(g[t].data, 3.0 * p, atol=1e-12)  # only the live factor


def test_binarize_detached_and_threshold():
    tape = GradTape()
    t = tape.watch(Tensor([0.2, 0.5, 0.8]))
    b = binarize(T.scale(t, 1.0))
    assert b.tape is None
    np.testing.assert_array_equal(b.data, [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(binarize(Tensor([0.3, 0.71]), 0.7).data, [0.0, 1.0])


def test_fd_elementwise_ops(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 2.0
    fd_check(lambda p: T.sum_all(T.mul(p[0], p[1])), [a.copy(), b.copy()])
    fd_check(lambda p: T.sum_all(T.div(p[0], p[1])), [a.copy(), b.copy()])
    fd_check(lambda p: T.sum_all(T.sub(T.neg(p[0]), p[1])), [a.copy(), b.copy()])
    fd_check(lambda p: T.sum_all(T.exp(T.scale(p[0], 0.3))), [a.copy()])
    fd_check(lambda p: T.sum_all(T.log(T.add_scalar(T.mul(p[0], p[0]), 1.0))), [a.copy()])
    fd_check(lambda p: T.sum_all(T.sigmoid(p[0])), [a.copy()])


def test_fd_structural_ops(rng):
    a = rng.normal(size=(2, 6))
    v = rng.normal(size=4)
    m = rng.normal(size=(3, 4))
    fd_check(lambda p: T.sum_all(T.mul(T.transpose(p[0]), T.transpose(p[0]))), [a.copy()])
    fd_check(lambda p: T.sum_all(T.exp(T.reshape(p[0], (3, 4)))), [a.copy()])
    fd_check(lambda p: T.sum_all(T.mul(T.tile_spatial(p[0], 2, 2),
                                       T.tile_spatial(p[0], 2, 2))), [v.copy()])
    fd_check(lambda p: T.sum_all(T.sigmoid(T.add_rowvec(p[0], p[1]))), [m.copy(), v.copy()])
    fd_check(lambda p: T.sum_all(T.exp(T.concat_channels([p[0], p[1]]))),
             [rng.normal(size=(2, 1, 3)), rng.normal(size=(1, 1, 3))])


def test_fd_matmul_and_conv(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    fd_check(lambda p: T.sum_all(T.sigmoid(T.matmul(p[0], p[1]))), [a.copy(), b.copy()])
    x = rng.normal(size=(4, 3, 3))
    w = rng.normal(size=(2, 4))
    bias = rng.normal(size=2)
    fd_check(lambda p: T.sum_all(T.sigmoid(T.conv1x1(p[0], p[1], p[2]))),
             [x.copy(), w.copy(), bias.copy()])


def test_fd_reductions(rng):
    a = rng.normal(size=(4, 3))
    fd_check(lambda p: T.sum_all(T.logsumexp0(p[0])), [a.copy()])
    fd_check(lambda p: T.sum_all(T.clamp(p[0], -0.5, 0.5)), [a.copy() * 0.3])
    bias = np.array([0.0, -np.inf, 0.0])
    fd_check(lambda p: T.sum_all(
        T.mul(T.masked_softmax_rows(p[0], bias), T.masked_softmax_rows(p[0], bias))),
        [rng.normal(size=(4, 3))])


def test_fd_softmax_weighted_values(rng):
    q = rng.normal(size=(2, 3))
    v = rng.normal(size=(3, 3))
    fd_check(lambda p: T.sum_all(T.sigmoid(
        T.matmul(T.masked_softmax_rows(p[0], np.zeros(3)), p[1]))), [q.copy(), v.copy()])


def test_corrupted_backward_is_detected(rng, monkeypatch):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    monkeypatch.setattr(dcsam.tensor, "_matmul_vjp", lambda g, x, y: (g @ y.T * 2.0, x.T @ g))
    with pytest.raises(AssertionError):
        fd_check(lambda p: T.sum_all(T.sigmoid(T.matmul(p[0], p[1]))), [a.copy(), b.copy()])


def test_grad_accumulates_on_reuse(rng):
    p = rng.normal(size=3)
    tape = GradTape()
    t = tape.watch(Tensor(p))
    loss = T.sum_all(T.add(T.mul(t, t), t))  # d/dt = 2t + 1
    g = grad(tape, loss)
    np.testing.assert_allclose(g[t].data, 2 * p + 1, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_grad_of_sum_property(r, c, seed):
    p = np.random.default_rng(seed).normal(size=(r, c))
    tape = GradTape()
    t = tape.watch(Tensor(p))
    g = grad(tape, T.sum_all(t))
    np.testing.assert_array_equal(g[t].data, np.ones((r, c)))
