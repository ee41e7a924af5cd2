"""Dense float64 tensors with a reverse-mode gradient tape.

Every differentiable computation in this package is expressed through the
operations in this module, which keeps the differentiation contract in one
place: an op either has a vector-Jacobian product registered below or its
docstring says it is detached.

Conventions:
  * all data is float64 and row-major in memory,
  * ops with a fixed operand rank also take a stack of episodes with one
    extra leading batch axis (``matmul``, ``transpose``, ``concat_channels``,
    ``tile_spatial``, ``add_rowvec``, ``logsumexp0``, ``masked_softmax_rows``,
    ``conv1x1``); ``sum_all`` takes ``batched=True``. An unbatched operand of
    a batched op, typically a parameter, is shared by every episode and its
    gradient sums over them,
  * ops are plain functions of Tensors (a raw array is not coerced; wrap
    outside data in ``Tensor``, which copies and validates it; ``adopt``
    takes an array built in the package as is), and a
    ``Tensor`` has no arithmetic operators,
  * every tensor holds finite values. ``Tensor(data)`` rejects non-finite
    data with ValueError. From finite operands only some ops can overflow,
    and exactly those scan their result and raise FloatingPointError:
    ``add``, ``sub``, ``mul``, ``div``, ``add_scalar``, ``matmul``,
    ``add_rowvec``, ``sum_all``, ``exp``, ``conv1x1``,
    ``masked_softmax_rows``, ``scale`` by a factor above 1 in magnitude, and
    the gradients ``grad`` returns. The one place -inf may appear is the
    constant bias array of ``masked_softmax_rows``, which masks a position
    out of the softmax; it is a plain NumPy array, never a tensor,
  * argmax-style choices (none live here, see ``attention``) break ties
    toward the smallest index,
  * a scalar is a rank-0 tensor.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import AllMasked, ShapeMismatch, UntrackedLoss

__all__ = [
    "Tensor", "GradTape", "grad", "zeros", "detach", "binarize",
    "add", "sub", "mul", "div", "neg", "add_scalar", "scale",
    "matmul", "transpose", "reshape", "concat_channels", "tile_spatial",
    "add_rowvec", "sum_all", "exp", "log", "sigmoid", "clamp",
    "logsumexp0", "masked_softmax_rows", "conv1x1",
]


class Tensor:
    """Immutable dense array of finite 64-bit floats.

    ``tape``/``nid`` are set when the tensor was produced under a GradTape.
    """

    __slots__ = ("data", "tape", "nid")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if not np.isfinite(arr).all():
            raise ValueError("tensor data must be finite")
        arr.setflags(write=False)
        self.data = arr
        self.tape: GradTape | None = None
        self.nid: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    def __repr__(self) -> str:
        tracked = "" if self.tape is None else f" nid={self.nid}"
        return f"Tensor(shape={self.shape}{tracked})\n{self.data!r}"


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    """The result of an op that can overflow on finite operands, checked.

    Unlike non-finite user data, a non-finite value here is a numerical
    failure, not a validation one.
    """
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced a non-finite value")
    return arr


def adopt(arr: np.ndarray) -> Tensor:
    """A tensor over an array this package built and knows to be finite (an
    op result, generated episode data), without copying or scanning it. The
    array becomes read-only; the caller must hold no writable view of it."""
    out = Tensor.__new__(Tensor)
    # asarray keeps rank-0 arrays rank-0 (ascontiguousarray would promote)
    arr = np.asarray(arr, dtype=np.float64, order="C")
    arr.setflags(write=False)
    out.data = arr
    out.tape = None
    out.nid = None
    return out


def zeros(shape) -> Tensor:
    return adopt(np.zeros(shape))


def detach(t: Tensor) -> Tensor:
    """Same values, no tape: gradients stop here."""
    if t.tape is None:
        return t
    return adopt(t.data)


def binarize(t: Tensor, threshold: float = 0.5) -> Tensor:
    """Detached hard threshold: 1.0 where value >= threshold else 0.0."""
    return adopt((t.data >= threshold).astype(np.float64))


def is_binary(arr: np.ndarray) -> bool:
    """Whether every value is exactly 0 or 1: the one binary-mask check."""
    return bool(np.isin(arr, (0.0, 1.0)).all())


class GradTape:
    """Ordered record of executed operations for reverse-mode accumulation.

    Operations are registered automatically whenever at least one input is
    tracked on the tape. ``watch`` marks a parameter; ``grad`` walks the
    record backwards once and returns one gradient tensor per marked
    parameter (zeros if the loss never touched it). A tape is single-use:
    ``grad`` releases every record as it goes, and a second ``grad`` raises.
    """

    def __init__(self):
        self._records: list[tuple[int, tuple[int | None, ...], Callable[[np.ndarray], tuple]]] = []
        self._watched: list[Tensor] = []
        self._next_id = 0
        self._consumed = False

    def watch(self, t: Tensor) -> Tensor:
        """Register a parameter and return its tracked alias."""
        if t.tape is not None:
            raise ValueError("tensor is already tracked on a tape")
        tracked = self._adopt(t.data)
        self._watched.append(tracked)
        return tracked

    def _adopt(self, arr: np.ndarray) -> Tensor:
        out = adopt(arr)
        out.tape = self
        out.nid = self._next_id
        self._next_id += 1
        return out


def grad(tape: GradTape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse-accumulate d(loss)/d(param) for every watched parameter.

    The returned map is keyed by the tracked parameter tensors returned by
    ``tape.watch``. Parameters the loss does not depend on map to zeros.
    Each record, and each adjoint once consumed, is dropped as the walk
    passes it, so the arrays they hold are freed without waiting for the
    garbage collector; the tape cannot be walked again.
    """
    if loss.tape is not tape or loss.nid is None:
        raise UntrackedLoss("loss was not computed on this tape")
    if tape._consumed:
        raise UntrackedLoss("tape was already consumed by grad; a GradTape is single-use")
    if loss.size != 1:
        raise ShapeMismatch(f"loss must be a scalar, got shape {loss.shape}")
    tape._consumed = True
    records = tape._records
    adjoint: dict[int, np.ndarray] = {loss.nid: np.ones(loss.shape)}
    while records:
        out_nid, in_nids, vjp = records.pop()
        g = adjoint.pop(out_nid, None)
        if g is None:
            continue
        for nid, contrib in zip(in_nids, vjp(g)):
            if nid is None or contrib is None:
                continue
            prior = adjoint.get(nid)
            adjoint[nid] = contrib if prior is None else prior + contrib
    out: dict[Tensor, Tensor] = {}
    for p in tape._watched:
        g = adjoint.get(p.nid)
        out[p] = adopt(np.zeros(p.shape) if g is None else _finite(np.array(g, dtype=np.float64), "grad"))
    tape._watched = []
    return out


def _emit(data: np.ndarray, inputs: Sequence[Tensor], vjp) -> Tensor:
    """Wrap an op result, recording it on the inputs' tape when tracked."""
    tape: GradTape | None = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("operands belong to different tapes")
    if tape is None:
        return adopt(data)
    out = tape._adopt(data)
    tape._records.append((out.nid, tuple(t.nid for t in inputs), vjp))
    return out


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeMismatch(f"{op}: shapes {a.shape} and {b.shape} differ")


# Vector-Jacobian products. Module-level on purpose: recorded closures look
# these up by name at call time, so a test can swap one out to prove the
# gradient checker catches a corrupted backward rule.

def _add_vjp(g):
    return g, g


def _sub_vjp(g):
    return g, -g


def _mul_vjp(g, a, b):
    return g * b, g * a


def _div_vjp(g, a, b):
    return g / b, -g * a / (b * b)


def _neg_vjp(g):
    return (-g,)


def _scale_vjp(g, c):
    return (g * c,)


def _identity_vjp(g):
    return (g,)


def _matmul_vjp(g, a, b):
    if a.ndim == 2 and b.ndim == 2:
        return g @ b.T, a.T @ g
    ga = g @ np.swapaxes(b, -1, -2)
    if a.ndim == 2:
        ga = ga.sum(axis=0)
    if b.ndim == 2:
        # one product over every episode's rows instead of a sum of B products
        gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    else:
        gb = np.swapaxes(a, -1, -2) @ g
    return ga, gb


def _transpose_vjp(g):
    return (np.swapaxes(g, -1, -2),)


def _reshape_vjp(g, shape):
    return (np.ascontiguousarray(g).reshape(shape),)


def _concat_vjp(g, cuts):
    return tuple(np.split(g, cuts, axis=-3))


def _tile_spatial_vjp(g):
    return (g.sum(axis=(-2, -1)),)


def _add_rowvec_vjp(g):
    return g, g.reshape(-1, g.shape[-1]).sum(axis=0)


def _sum_all_vjp(g, shape):
    if g.ndim == 0:
        return (np.full(shape, float(g)),)
    return (np.broadcast_to(g.reshape(g.shape + (1,) * (len(shape) - 1)), shape),)


def _exp_vjp(g, out):
    return (g * out,)


def _log_vjp(g, a):
    return (g / a,)


def _sigmoid_vjp(g, out):
    return (g * out * (1.0 - out),)


def _clamp_vjp(g, a, lo, hi):
    return (g * ((a >= lo) & (a <= hi)),)


def _logsumexp0_vjp(g, soft, denom):
    out = soft / denom
    out *= g[..., None, :]
    return (out,)


def _masked_softmax_vjp(g, s):
    out = g - (g * s).sum(axis=-1, keepdims=True)
    out *= s
    return (out, None)


def _conv1x1_vjp(g, x, w):
    if x.ndim == 3:
        return (
            np.einsum("oc,ohw->chw", w, g),
            np.einsum("ohw,chw->oc", g, x),
            g.sum(axis=(1, 2)),
        )
    b, o = g.shape[:2]
    g_flat = g.reshape(b, o, -1)
    x_flat = x.reshape(b, x.shape[1], -1)
    return (
        (w.T @ g_flat).reshape(x.shape),
        np.tensordot(g_flat, x_flat, axes=([0, 2], [0, 2])),
        g_flat.sum(axis=(0, 2)),
    )


# Elementwise and structural operations.

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    return _emit(_finite(a.data + b.data, "add"), (a, b), lambda g: _add_vjp(g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    return _emit(_finite(a.data - b.data, "sub"), (a, b), lambda g: _sub_vjp(g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    da, db = a.data, b.data
    return _emit(_finite(da * db, "mul"), (a, b), lambda g: _mul_vjp(g, da, db))


def div(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("div", a, b)
    da, db = a.data, b.data
    return _emit(_finite(da / db, "div"), (a, b), lambda g: _div_vjp(g, da, db))


def neg(a: Tensor) -> Tensor:
    return _emit(-a.data, (a,), lambda g: _neg_vjp(g))


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit(_finite(a.data + c, "add_scalar"), (a,), lambda g: _identity_vjp(g))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    if c == 1.0:
        return a    # exact identity: no new values, nothing to record
    out = a.data * c
    if not abs(c) <= 1.0:   # also true for a NaN factor
        _finite(out, "scale")
    return _emit(out, (a,), lambda g: _scale_vjp(g, c))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Strict 2-D matrix product, or a batch of them: a 3-D operand is a
    stack [B, n, k] or [B, k, m], and a 2-D operand is shared by the batch."""
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ShapeMismatch(f"matmul needs 2-D or batched 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul: inner dims differ ({a.shape} @ {b.shape})")
    if a.ndim == b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"matmul: batch sizes differ ({a.shape} @ {b.shape})")
    da, db = a.data, b.data
    return _emit(_finite(da @ db, "matmul"), (a, b), lambda g: _matmul_vjp(g, da, db))


def transpose(a: Tensor) -> Tensor:
    """Matrix transpose; a batched [B, r, c] transposes every episode."""
    if a.ndim not in (2, 3):
        raise ShapeMismatch(f"transpose needs a 2-D or batched 3-D tensor, got {a.shape}")
    return _emit(np.ascontiguousarray(np.swapaxes(a.data, -1, -2)), (a,),
                 lambda g: _transpose_vjp(g))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ShapeMismatch(f"reshape target must be positive dims, got {shape}")
    if math.prod(shape) != a.size:
        raise ShapeMismatch(f"reshape from {a.shape} to {shape} changes the element count")
    in_shape = a.shape
    return _emit(a.data.reshape(shape), (a,), lambda g: _reshape_vjp(g, in_shape))


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis, the third from last ([C, H, W],
    or [B, C, H, W] per episode); every other dimension must match."""
    if not parts:
        raise ShapeMismatch("concat_channels needs at least one tensor")
    first = parts[0].shape
    if len(first) < 3:
        raise ShapeMismatch(f"concat_channels: {first} has no channel axis")
    for p in parts[1:]:
        if p.ndim != len(first) or p.shape[:-3] + p.shape[-2:] != first[:-3] + first[-2:]:
            raise ShapeMismatch(f"concat_channels: other dims differ ({first} vs {p.shape})")
    cuts = np.cumsum([p.shape[-3] for p in parts])[:-1]
    out = np.concatenate([p.data for p in parts], axis=-3)
    return _emit(out, parts, lambda g: _concat_vjp(g, cuts))


def tile_spatial(v: Tensor, h: int, w: int) -> Tensor:
    """Broadcast a channel vector [C] to a constant map [C, h, w], or a batch
    [B, C] to [B, C, h, w]."""
    if v.ndim not in (1, 2):
        raise ShapeMismatch(f"tile_spatial needs a 1-D or batched 2-D tensor, got {v.shape}")
    out = np.broadcast_to(v.data[..., None, None], v.shape + (int(h), int(w))).copy()
    return _emit(out, (v,), lambda g: _tile_spatial_vjp(g))


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a vector [c] to every row of a matrix [r, c] or of a batch [B, r, c]."""
    if m.ndim not in (2, 3) or v.ndim != 1 or m.shape[-1] != v.shape[0]:
        raise ShapeMismatch(f"add_rowvec: got matrix {m.shape} and vector {v.shape}")
    return _emit(_finite(m.data + v.data, "add_rowvec"), (m, v), lambda g: _add_rowvec_vjp(g))


def sum_all(a: Tensor, batched: bool = False) -> Tensor:
    """Sum of every element; with ``batched``, one sum per episode: [B, ...] -> [B]."""
    shape = a.shape
    if batched:
        if a.ndim < 1:
            raise ShapeMismatch(f"sum_all(batched=True) needs a batch axis, got shape {shape}")
        out = a.data.reshape(shape[0], -1).sum(axis=1)
    else:
        out = np.asarray(a.data.sum())
    return _emit(_finite(out, "sum_all"), (a,), lambda g: _sum_all_vjp(g, shape))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = _finite(np.exp(a.data), "exp")
    return _emit(out, (a,), lambda g: _exp_vjp(g, out))


def log(a: Tensor) -> Tensor:
    if (a.data <= 0.0).any():
        raise FloatingPointError("log needs strictly positive inputs")
    da = a.data
    return _emit(np.log(da), (a,), lambda g: _log_vjp(g, da))


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _emit(out, (a,), lambda g: _sigmoid_vjp(g, out))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; the gradient passes through the unclipped region."""
    lo, hi = float(lo), float(hi)
    if not lo <= hi:
        raise ShapeMismatch(f"clamp: lo={lo} exceeds hi={hi}")
    if lo == math.inf or hi == -math.inf:   # the only non-finite results clamp can give
        raise FloatingPointError(f"clamp: every value would clip to an infinite bound ({lo}, {hi})")
    da = a.data
    return _emit(np.clip(da, lo, hi), (a,), lambda g: _clamp_vjp(g, da, lo, hi))


def logsumexp0(a: Tensor) -> Tensor:
    """Stable log-sum-exp over the rows of a 2-D tensor: [r, c] -> [c], or
    per episode of a batch: [B, r, c] -> [B, c]."""
    if a.ndim not in (2, 3):
        raise ShapeMismatch(f"logsumexp0 needs a 2-D or batched 3-D tensor, got {a.shape}")
    x = a.data
    m = x.max(axis=-2, keepdims=True)
    # in place: batched operands are large, and each fresh array costs more
    # than the arithmetic done in it
    soft = np.subtract(x, m)
    np.exp(soft, out=soft)
    denom = soft.sum(axis=-2, keepdims=True)
    out = (m + np.log(denom)).squeeze(-2)
    # the weights are normalised only when a backward pass reads them
    return _emit(out, (a,), lambda g: _logsumexp0_vjp(g, soft, denom))


def masked_softmax_rows(x: Tensor, bias: np.ndarray) -> Tensor:
    """Row-wise softmax of ``x + bias``.

    The bias is a constant NumPy array, not a tensor: its entries are finite
    or -inf (those come out exactly 0), and no gradient is propagated into
    it. A row whose entries are all masked raises AllMasked. Shapes: x is
    [r, c]; bias is [c] or [r, c]. Batched: x is [B, r, c]; bias is one row
    per episode [B, c], or [B, r, c].
    """
    if x.ndim not in (2, 3):
        raise ShapeMismatch(f"masked_softmax_rows needs 2-D or batched 3-D logits, got {x.shape}")
    bias = np.asarray(bias, dtype=np.float64)
    if bias.shape == x.shape:
        bdata = bias
    elif bias.shape == x.shape[:-2] + x.shape[-1:]:
        bdata = bias[..., None, :]
    else:
        raise ShapeMismatch(f"bias {bias.shape} does not match logits {x.shape}")
    if np.isnan(bias).any() or (bias == np.inf).any():
        raise ValueError("softmax bias may hold finite values or -inf only")
    # x is finite and the bias finite or -inf, so a row's max is -inf exactly
    # when the whole row is masked, and a masked entry exponentiates to 0.
    s = x.data + bdata
    m = s.max(axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise AllMasked("softmax row has every entry masked")
    np.subtract(s, m, out=s)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return _emit(_finite(s, "masked_softmax_rows"), (x,), lambda g: _masked_softmax_vjp(g, s))


def conv1x1(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Pointwise convolution: [C_in, H, W] with weight [C_out, C_in], bias [C_out].

    One matrix product of the weight with the input's flattened spatial
    axis, plus the bias. A batched x [B, C_in, H, W] gives [B, C_out, H, W]
    from one stacked product; NumPy runs it as one product per episode, so
    every episode gets the bits it would get alone.
    """
    if x.ndim not in (3, 4) or w.ndim != 2 or b.ndim != 1:
        raise ShapeMismatch(f"conv1x1: expected ranks (3 or 4, 2, 1), got {x.shape}, {w.shape}, {b.shape}")
    if w.shape[1] != x.shape[-3]:
        raise ShapeMismatch(f"conv1x1: weight {w.shape} does not match input channels {x.shape[-3]}")
    if b.shape[0] != w.shape[0]:
        raise ShapeMismatch(f"conv1x1: bias {b.shape} does not match output channels {w.shape[0]}")
    dx, dw = x.data, w.data
    flat = dx.reshape(dx.shape[:-2] + (-1,))                          # [..., C_in, HW]
    out = (dw @ flat).reshape(dx.shape[:-3] + (dw.shape[0],) + dx.shape[-2:])
    out += b.data[:, None, None]
    return _emit(_finite(out, "conv1x1"), (x, w, b), lambda g: _conv1x1_vjp(g, dx, dw))
