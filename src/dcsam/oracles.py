"""Self-contained reference implementations and randomized audit suites.

Everything here recomputes a result by the most literal method available
(explicit loops, scalar math, finite differences, stacked windows,
full-canvas rasters) and compares it against the vectorized production
path. The model itself has one reference, ``dcsam.reference``, which shares
no code with the layers it checks: the ``reference`` suite holds the
batched forward to it, the ``batch`` suite the tape's batched gradients to
its complex step, and the ``tube`` suite chunked propagation to its
frame-by-frame decode. The suites are what `dcsam oracle` runs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .attention import cycle_bias
from . import encoder as encoder_module
from .config import TrainConfig
from .encoder import StubEncoder
from .episodes import (CLASS_COUNT, MAX_AREA_FRAC, MAX_OVERLAP_FRAC, MIN_AREA_FRAC, Episode,
                       gen_episode, grid)
from .metrics import boundary_f, iou, jf_score, mask_scores
from .pipeline import init_params, watch_params
from .reference import (complex_step, cycle_bias_reference, reference_decode, reference_forward,
                        softmax_rows_reference)
from .seeding import derive_seed, rng_for, tag
from .tensor import GradTape, Tensor, grad, masked_softmax_rows
from .trainer import batch_forward, encode_episodes, grad_check
from .video import make_tube, propagate_first_frame


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int
    detail: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        verdict = "ok" if self.passed else "FAILED"
        return f"{self.name}: {self.trials - self.failures}/{self.trials} trials ok ({verdict})"


def _run_trials(name: str, trials: int, trial: Callable[[int], str | None]) -> SuiteResult:
    """Run ``trial(t)`` for t in range(trials), in order; each returns a failure
    line or None. The result counts failures and keeps the first five lines."""
    lines = [line for line in map(trial, range(trials)) if line is not None]
    return SuiteResult(name, trials, len(lines), tuple(lines[:5]))


def run_cyc_suite(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Random small affinities (half on a coarse grid to force ties) checked
    against the loop reference for an exactly equal keep/drop pattern."""
    rng = rng_for(seed, tag("oracle"), 1)

    def trial(t: int) -> str | None:
        n = int(rng.integers(1, 5))
        hw = int(rng.integers(1, 10))
        d = int(rng.integers(1, 5))
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(hw, d))
        if t % 2 == 0:
            q = np.round(q)
            k = np.round(k)
        a = (q @ k.T) / math.sqrt(d)
        mask = rng.integers(0, 2, size=hw).astype(float)
        got = cycle_bias(Tensor(a), Tensor(mask))
        want = cycle_bias_reference(a, mask)
        if not np.array_equal(np.isneginf(got), np.isneginf(want)):
            return f"trial {t}: pattern mismatch for n={n} hw={hw}"
        if not np.array_equal(got[~np.isneginf(got)], want[~np.isneginf(want)]):
            return f"trial {t}: kept entries are not exactly zero"
        return None

    return _run_trials("cyc", trials, trial)


def run_softmax_suite(trials: int = 200, seed: int = 0) -> SuiteResult:
    rng = rng_for(seed, tag("oracle"), 2)

    def trial(t: int) -> str | None:
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 8))
        x = rng.normal(size=(rows, cols)) * 3.0
        bias = np.zeros(cols)
        if cols > 1:
            drop = rng.random(cols) < 0.4
            if drop.all():
                drop[int(rng.integers(0, cols))] = False
            bias[drop] = -np.inf
        got = masked_softmax_rows(Tensor(x), bias).data
        want = softmax_rows_reference(x, bias)
        ok = (np.abs(got - want).max() < 1e-12
              and np.abs(got.sum(axis=1) - 1.0).max() < 1e-9
              and (got[:, np.isneginf(bias)] == 0.0).all())
        return None if ok else f"trial {t}: max dev {np.abs(got - want).max():.3e}"

    return _run_trials("softmax", trials, trial)


def run_grad_suite(trials: int = 2, seed: int = 0, samples_per_param: int = 4) -> SuiteResult:
    """Finite-difference audit of the full prompt-generation + decode + loss
    path on small episodes; fails when any parameter's worst relative error
    reaches ``FD_THRESHOLD``."""

    def trial(t: int) -> str | None:
        cfg = TrainConfig(lr=1e-2, steps=1, batch=1, seed=derive_seed(seed, tag("oracle"), 3, t),
                          canvas=8)
        encoder = cfg.encoder(cfg.seed)
        ep = gen_episode(t % CLASS_COUNT, derive_seed(cfg.seed, tag("gradcheck"), t), (8, 8))
        params = init_params(cfg, cfg.seed)
        result = grad_check(params, ep, cfg, encoder, samples_per_param=samples_per_param,
                            seed=cfg.seed)
        if result.passed:
            return None
        worst_name = max(result.per_param, key=result.per_param.get)
        return f"trial {t}: {worst_name} rel err {result.worst:.3e}"

    return _run_trials("grad", trials, trial)


def _reference_rows(inputs, arrays: dict[str, np.ndarray], cfg) -> list[dict[str, np.ndarray]]:
    """``reference_forward`` of each episode of ``encode_episodes``' output."""
    enc_s, enc_q, mask_f, gt_f = inputs

    def maps(enc, i):
        return enc.mid.data[i], enc.high.data[i], enc.sam.data[i]

    return [reference_forward(maps(enc_s, i), maps(enc_q, i), mask_f.data[i], gt_f.data[i],
                              arrays, cfg) for i in range(mask_f.shape[0])]


def batch_gradient_deviations(episodes, params, cfg, encoder, rng: np.random.Generator,
                              per_tensor: bool = True) -> dict[str, float]:
    """Along a random direction v per parameter tensor (``grad <name>``), or
    one over all of them (``grad all``): the tape's sum(grad . v) of the
    stacked training forward's batch-mean loss against the complex step of
    the reference's, measured by ``batch_deviations``."""
    inputs = encode_episodes(episodes, encoder)
    tape = GradTape()
    tracked, name_map = watch_params(tape, params)
    grads = grad(tape, batch_forward(*inputs, tracked, cfg)[3])
    arrays = {name: t.data for name, t in params.named().items()}
    v = {name: rng.normal(size=a.shape) for name, a in arrays.items()}
    directions = {f"grad {n}": {n: v[n]} for n in v} if per_tensor else {"grad all": v}

    def mean_loss(p):
        return np.mean([row["loss"] for row in _reference_rows(inputs, p, cfg)])

    got = {label: sum(float(np.vdot(grads[name_map[n]].data, vn)) for n, vn in d.items())
           for label, d in directions.items()}
    want = {label: complex_step(mean_loss, arrays, d) for label, d in directions.items()}
    return batch_deviations(got, want)


# One ablation switch off per trial, in turn, then a strided encoder with a
# sharper decoder temperature.
BATCH_VARIANTS = (
    {}, {"use_neg_branch": False}, {"use_cyc_bias": False}, {"use_sam_fusion": False},
    {"use_prior_mask": False}, {"stride": 2, "tau": 0.5},
)
BATCH_TOL = 1e-12


def batch_deviations(got: dict[str, np.ndarray], want: dict[str, np.ndarray]) -> dict[str, float]:
    """Per quantity, the largest absolute difference relative to the larger
    of 1 and the reference's largest magnitude."""
    if got.keys() != want.keys():
        raise ValueError(f"quantities differ: {sorted(got)} vs {sorted(want)}")
    return {key: float(np.abs(got[key] - want[key]).max(initial=0.0)
                       / max(1.0, float(np.abs(want[key]).max(initial=0.0))))
            for key in want}


def run_batch_suite(trials: int = 6, seed: int = 0, max_batch: int = 6) -> SuiteResult:
    """Batched gradients against the reference's complex step.

    Per trial, a random batch runs under one of ``BATCH_VARIANTS``, and
    ``batch_gradient_deviations`` per parameter tensor must stay within
    ``BATCH_TOL``. A random batched affinity (half on a coarse grid to force
    ties) must give exactly ``cycle_bias_reference`` of each episode.
    """
    rng = rng_for(seed, tag("oracle"), 4)

    def trial(t: int) -> str | None:
        variant = BATCH_VARIANTS[t % len(BATCH_VARIANTS)]
        cfg = TrainConfig(seed=derive_seed(seed, tag("oracle"), 4, t), canvas=8, **variant)
        encoder = cfg.encoder(cfg.seed)
        params = init_params(cfg, cfg.seed)
        b = int(rng.integers(1, max_batch + 1))
        episodes = [gen_episode(int(rng.integers(0, CLASS_COUNT)),
                                derive_seed(cfg.seed, tag("oracle"), i), (8, 8)) for i in range(b)]
        devs = batch_gradient_deviations(episodes, params, cfg, encoder, rng)
        worst = max(devs, key=devs.get)
        problems = [f"{worst} deviates by {devs[worst]:.3e}"] if devs[worst] > BATCH_TOL else []

        n, hw = int(rng.integers(1, 5)), int(rng.integers(1, 10))
        a = rng.normal(size=(b, n, hw))
        if t % 2 == 0:
            a = np.round(a)
        mask = rng.integers(0, 2, size=(b, hw)).astype(float)
        got = cycle_bias(Tensor(a), Tensor(mask))
        want = np.stack([cycle_bias_reference(a[i], mask[i]) for i in range(b)])
        if not np.array_equal(got, want):
            problems.append("cycle-bias pattern differs from the per-episode reference")
        if problems:
            return f"trial {t} (B={b}, {variant or 'full model'}): {'; '.join(problems)}"
        return None

    return _run_trials("batch", trials, trial)


# Batch sizes of the ``reference`` suite, each under every batch variant.
REFERENCE_CASES = tuple(itertools.product((1, 3, 32), BATCH_VARIANTS))
REFERENCE_TOL = 1e-12


def reference_deviations(inputs, params, cfg) -> dict[str, float]:
    """``batch_deviations`` of production's batched forward on
    ``encode_episodes``' output against ``reference_forward`` of each
    episode: prompts, pseudo masks, probabilities and the batch-mean loss."""
    prompts, pseudo, probs, loss = batch_forward(*inputs, params, cfg)
    got = {"pos": prompts.pos.data, "pseudo": pseudo.data, "probs": probs.data,
           "loss": loss.data}
    if prompts.neg is not None:
        got["neg"] = prompts.neg.data
    rows = _reference_rows(inputs, {name: t.data for name, t in params.named().items()}, cfg)
    want = {key: np.stack([row[key] for row in rows]) for key in got}
    want["loss"] = want["loss"].mean()
    return batch_deviations(got, want)


def run_reference_suite(trials: int = len(REFERENCE_CASES), seed: int = 0) -> SuiteResult:
    """Production's batched forward against ``reference_forward``.

    Trial t runs case ``REFERENCE_CASES[t % len(REFERENCE_CASES)]`` (batch
    size, config variant) at canvas 8 on random episodes and parameters.
    The prompts, pseudo masks and probabilities of every episode, and the
    batch-mean loss, must agree within ``REFERENCE_TOL`` relative to the
    larger of 1 and the reference's largest magnitude.
    """
    rng = rng_for(seed, tag("oracle"), 8)

    def trial(t: int) -> str | None:
        b, variant = REFERENCE_CASES[t % len(REFERENCE_CASES)]
        cfg = TrainConfig(seed=derive_seed(seed, tag("oracle"), 8, t), canvas=8, **variant)
        episodes = [gen_episode(int(rng.integers(0, CLASS_COUNT)), int(rng.integers(0, 2**31)),
                                (8, 8)) for _ in range(b)]
        devs = reference_deviations(encode_episodes(episodes, cfg.encoder(cfg.seed)),
                                    init_params(cfg, cfg.seed), cfg)
        worst = max(devs, key=devs.get)
        if devs[worst] > REFERENCE_TOL:
            return (f"trial {t} (B={b}, {variant or 'full model'}): "
                    f"{worst} deviates by {devs[worst]:.3e}")
        return None

    return _run_trials("reference", trials, trial)


# Tube lengths around the propagation chunk of 4 frames, up to the benchmark's 32.
TUBE_CASES = tuple(itertools.product((1, 3, 4, 5, 9, 32), (16, 32), (1, 2), (True, False)))


def run_tube_suite(trials: int = len(TUBE_CASES), seed: int = 0) -> SuiteResult:
    """Chunked propagation and stacked J&F against the reference, per frame.

    Trial t runs case ``TUBE_CASES[t % len(TUBE_CASES)]`` (tube length,
    canvas, encoder stride, negative branch) on a random episode and random
    parameters. The reference encodes each image alone (``project_reference``
    of ``descriptors_reference``), takes the prompts of ``reference_forward``
    on the support image and frame 0, and thresholds each frame's
    ``reference_decode`` at 0.5, repeated by the stride. The predicted masks
    must have its bytes; the per-frame J and F of ``mask_scores`` must equal
    ``iou`` and ``boundary_f`` of its masks, and ``jf_score`` their means.
    """
    rng = rng_for(seed, tag("oracle"), 5)

    def trial(t: int) -> str | None:
        frames, canvas, stride, neg = TUBE_CASES[t % len(TUBE_CASES)]
        cfg = TrainConfig(seed=derive_seed(seed, tag("oracle"), 5, t), canvas=canvas,
                          stride=stride, use_neg_branch=neg)
        encoder = cfg.encoder(cfg.seed)
        params = init_params(cfg, cfg.seed)
        ep = gen_episode(int(rng.integers(0, CLASS_COUNT)), int(rng.integers(0, 2**31)),
                         (canvas, canvas))
        tube = make_tube(ep, frames, int(rng.integers(0, 2**31)))
        pred = propagate_first_frame(tube, ep.support_img, ep.support_mask, params, cfg, encoder)

        def maps(img: Tensor):
            return project_reference(encoder, descriptors_reference(img.data), img.shape)

        def pooled(mask: Tensor) -> np.ndarray:
            return mask.data.reshape(canvas // stride, stride, -1, stride).max(axis=(1, 3))

        frame_maps = [maps(frame) for frame in tube.frames]
        prompts = reference_forward(maps(ep.support_img), frame_maps[0], pooled(ep.support_mask),
                                    pooled(tube.masks[0]),
                                    {name: p.data for name, p in params.named().items()}, cfg)
        want = [(reference_decode(prompts["pos"], prompts.get("neg"), sam, cfg.tau) >= 0.5)
                .astype(np.float64).repeat(stride, axis=0).repeat(stride, axis=1)
                for _, _, sam in frame_maps]
        want_j = [iou(m, gt) for m, gt in zip(want, tube.masks)]
        want_f = [boundary_f(m, gt) for m, gt in zip(want, tube.masks)]
        js, fs = mask_scores(pred.masks, tube.masks)
        report = jf_score(pred, tube)
        problems = []
        if np.stack([m.data for m in pred.masks]).tobytes() != np.stack(want).tobytes():
            problems.append("predicted masks differ")
        if js.tolist() != want_j or fs.tolist() != want_f:
            problems.append("per-frame J or F differs")
        if (report.j, report.f) != (float(np.mean(want_j)), float(np.mean(want_f))):
            problems.append("tube J or F differs")
        if problems:
            return (f"trial {t} ({frames} frames, canvas {canvas}, stride {stride}, "
                    f"negative branch {neg}): {'; '.join(problems)}")
        return None

    return _run_trials("tube", trials, trial)


def _window_stack(img: np.ndarray, radius: int) -> np.ndarray:
    """Every shifted copy of an edge-padded image under a square window,
    stacked in (row, column) order: [(2r + 1)**2, ..., H, W]."""
    h, w = img.shape[-2:]
    size = 2 * radius + 1
    padded = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(radius, radius)] * 2, mode="edge")
    return np.stack([padded[..., r:r + h, c:c + w] for r in range(size) for c in range(size)])


def descriptors_reference(img: np.ndarray) -> np.ndarray:
    """The stub encoder's 15 per-pixel statistics of an image [H, W] ->
    [HW, 15], or of a stack [B, H, W] -> [B, HW, 15], from stacked windows
    reduced by ``mean``, ``std``, ``max`` and ``min``, column by column as
    ``DESCRIPTOR_COLUMNS`` names them.

    The encoder computes its windows separably, so ``descriptor_mismatches``
    holds it to this reference column by column: intensity, max, min,
    gradients, coordinates and the constant as equal bytes; the means and
    the residual as equal bytes on grid images (exact window sums) and
    within ``DESCRIPTOR_ULPS`` otherwise; the deviations within
    ``DESCRIPTOR_ULPS`` on every image."""
    h, w = img.shape[-2:]
    near = _window_stack(img, 1)
    wide = _window_stack(img, 2)
    wider = _window_stack(img, 3)
    mean3 = near.mean(axis=0)
    padded = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(1, 1)] * 2, mode="edge")
    gx = padded[..., 1:-1, 2:] - padded[..., 1:-1, :-2]
    gy = padded[..., 2:, 1:-1] - padded[..., :-2, 1:-1]
    yy, xx = np.meshgrid(np.linspace(0.0, 1.0, h), np.linspace(0.0, 1.0, w), indexing="ij")
    desc = np.stack([img, mean3, near.max(axis=0), near.min(axis=0), near.std(axis=0),
                     wide.mean(axis=0), wide.std(axis=0), wider.mean(axis=0), wider.std(axis=0),
                     np.abs(img - mean3), gx, gy, np.broadcast_to(yy, img.shape),
                     np.broadcast_to(xx, img.shape), np.ones_like(img)], axis=-3)
    return np.swapaxes(desc.reshape(img.shape[:-2] + (desc.shape[-3], h * w)), -1, -2)


DESCRIPTOR_COLUMNS = ("value", "mean3", "max3", "min3", "std3", "mean5", "std5", "mean7", "std7",
                      "resid", "gx", "gy", "y", "x", "one")
# Columns built from window sums: exact, so equal bytes, only when every sum is.
_SUMMED_COLUMNS = frozenset({"mean3", "mean5", "mean7", "resid"})
_DEVIATION_COLUMNS = frozenset({"std3", "std5", "std7"})
# The bound, in units in the last place of the image's largest magnitude, on
# columns whose sums are rounded. The stacked reference rounds up to 49 sums
# in sequence; over 9,600 images of eight kinds (uniform, float32-valued,
# 1/1024 grid, constant, near-constant, scaled and shifted, step, two-level)
# the means differed by at most 14 such units and the deviations by 10.
DESCRIPTOR_ULPS = 32


def descriptor_mismatches(desc: np.ndarray, img: np.ndarray, grid: bool) -> list[str]:
    """The columns of ``desc``, an image's (or stack's) production
    descriptors, that break the encoder's contract with
    ``descriptors_reference``, one line each; empty when none does.

    The deviations must lie within ``DESCRIPTOR_ULPS`` units in the last
    place of ``max |img|``, and so must the means and the residual unless
    ``grid`` says every window sum is exact (values on the 1/1024 grid, as
    episode images and tube frames are), where they must have equal bytes.
    Every other column must have equal bytes."""
    want = descriptors_reference(img)
    tol = DESCRIPTOR_ULPS * np.spacing(np.abs(img).max())
    lines = []
    for k, name in enumerate(DESCRIPTOR_COLUMNS):
        got, ref = desc[..., k], want[..., k]
        if name in _DEVIATION_COLUMNS or (name in _SUMMED_COLUMNS and not grid):
            dev = np.abs(got - ref).max()
            if not dev <= tol:
                lines.append(f"{name} off by {dev:.3g} (bound {tol:.3g})")
        elif got.tobytes() != ref.tobytes():
            lines.append(f"{name} bytes differ")
    return lines


def project_reference(encoder: StubEncoder, desc: np.ndarray, shape: tuple[int, ...]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The encoder's mid, high and sam maps of images of ``shape`` ([H, W]
    or [B, H, W]) from their descriptors [..., HW, 15], in plain NumPy: each
    projection, drawn again from the encoder's seed, is applied as
    ``tanh(desc @ proj)`` and swapped channel-major; with a stride s, each
    map is then averaged over the s x s cells of its strided view."""
    lead = shape[:-2]
    h, w = shape[-2:]
    dim = desc.shape[-1]
    s = encoder.stride
    maps = []
    for role, width in enumerate((encoder.d_mid, encoder.d_high, encoder.d_sam)):
        proj = rng_for(encoder.seed, tag("encoder"), role).normal(size=(dim, width)) / np.sqrt(dim)
        feat = np.swapaxes(np.tanh(desc @ proj), -1, -2).reshape(lead + (width, h, w))
        if s > 1:
            feat = feat.reshape(lead + (width, h // s, s, w // s, s)).mean(axis=(-3, -1))
        maps.append(feat)
    return maps[0], maps[1], maps[2]


# (height, width), stack size (None: one image [H, W]), stride, image source.
ENCODER_CASES = tuple(itertools.product(
    ((8, 8), (12, 12), (16, 16), (32, 32), (16, 24)), (None, 1, 3, 32), (1, 2),
    ("episode", "uniform")))
# Tube length, canvas and stride of the frame stacks ``encode_frames`` takes.
FRAME_CASES = tuple(itertools.product((1, 3, 4, 5, 32), (16, 32), (1, 2)))


def run_encoder_suite(trials: int = len(ENCODER_CASES) + len(FRAME_CASES), seed: int = 0
                      ) -> SuiteResult:
    """The encoder's descriptors against ``descriptors_reference``, its maps
    against ``project_reference`` of those descriptors, then
    ``encode_frames`` against ``encode``.

    Trial t runs case ``t % (len(ENCODER_CASES) + len(FRAME_CASES))`` of the
    two tables in turn, with a random encoder seed. An image case holds the
    production descriptors to ``descriptor_mismatches``, episode images as
    grid images and uniform random ones not, and ``encode``'s three maps to
    the bytes of ``project_reference`` of the same descriptors. A frame case
    encodes the frames of a random tube: frame 0's three maps must have the
    bytes of ``encode(frames[0])``, and the ``sam`` maps of every frame, with
    and without frame 0's maps, those of ``encode(frames, batched=True)``.
    """
    rng = rng_for(seed, tag("oracle"), 6)

    def image_trial(t: int, case) -> str | None:
        (h, w), count, stride, source = case
        shape = (h, w) if count is None else (count, h, w)
        if source == "uniform":
            img = rng.random(shape)
        else:
            eps = [gen_episode(int(rng.integers(0, CLASS_COUNT)), int(rng.integers(0, 2**31)),
                               (h, w)) for _ in range(count or 1)]
            img = np.stack([ep.support_img.data if i % 2 else ep.query_img.data
                            for i, ep in enumerate(eps)]).reshape(shape)
        encoder = TrainConfig(seed=0, stride=stride).encoder(int(rng.integers(0, 2**31)))
        desc = encoder_module._descriptors(img)
        problems = descriptor_mismatches(desc, img, grid=source == "episode")
        got = encoder.encode(Tensor(img), batched=count is not None)
        want = project_reference(encoder, desc, shape)
        differ = [name for name, ref in zip(("mid", "high", "sam"), want)
                  if getattr(got, name).data.tobytes() != ref.tobytes()]
        if differ:
            problems.append(f"{', '.join(differ)} maps differ")
        if problems:
            return (f"trial {t} (shape {shape}, stride {stride}, {source} images): "
                    f"{'; '.join(problems)}")
        return None

    def frame_trial(t: int, case) -> str | None:
        frames, canvas, stride = case
        ep = gen_episode(int(rng.integers(0, CLASS_COUNT)), int(rng.integers(0, 2**31)),
                         (canvas, canvas))
        tube = make_tube(ep, frames, int(rng.integers(0, 2**31)))
        stack = np.stack([f.data for f in tube.frames])
        encoder = TrainConfig(seed=0, stride=stride).encoder(int(rng.integers(0, 2**31)))
        first, sam = encoder.encode_frames(stack, first=True)
        _, later_sam = encoder.encode_frames(stack, first=False)
        alone = encoder.encode(tube.frames[0])
        stacked = encoder.encode(Tensor(stack), batched=True)
        differ = [f"frame 0 {name}" for name in ("mid", "high", "sam")
                  if getattr(first, name).data.tobytes() != getattr(alone, name).data.tobytes()]
        differ += [f"stacked sam{label}"
                   for label, got in (("", sam), (" without frame 0", later_sam))
                   if got.data.tobytes() != stacked.sam.data.tobytes()]
        if differ:
            return (f"trial {t} ({frames} frames, canvas {canvas}, stride {stride}): "
                    f"{', '.join(differ)} maps differ")
        return None

    def trial(t: int) -> str | None:
        i = t % (len(ENCODER_CASES) + len(FRAME_CASES))
        if i < len(ENCODER_CASES):
            return image_trial(t, ENCODER_CASES[i])
        return frame_trial(t, FRAME_CASES[i - len(ENCODER_CASES)])

    return _run_trials("encoder", trials, trial)


# Reference scenes: every footprint attempt rasterized over the whole canvas,
# the literal form of what ``episodes`` draws from cached stamps.

def _centered_reference(rng, h, w, ry, rx):
    cy = int(rng.integers(ry, h - ry)) if h - ry > ry else ry
    cx = int(rng.integers(rx, w - rx)) if w - rx > rx else rx
    return cy, cx


def _disk_reference(rng, h, w):
    m = min(h, w)
    r = int(rng.integers(max(1, m // 8), max(2, int(m / 3.2)) + 1))
    cy, cx = _centered_reference(rng, h, w, r, r)
    rr, cc = grid(h, w)
    return (rr - cy) ** 2 + (cc - cx) ** 2 <= r * r


def _rectangle_reference(rng, h, w):
    hy = int(rng.integers(1, max(2, h // 4) + 1))
    hx = int(rng.integers(1, max(2, w // 4) + 1))
    cy, cx = _centered_reference(rng, h, w, hy, hx)
    rr, cc = grid(h, w)
    return (np.abs(rr - cy) <= hy) & (np.abs(cc - cx) <= hx)


def _triangle_reference(rng, h, w):
    m = min(h, w)
    s = int(rng.integers(3, max(4, int(m * 0.66)) + 1))
    r0 = int(rng.integers(0, h - s + 1))
    c0 = int(rng.integers(0, w - s + 1))
    k = int(rng.integers(0, 4))
    rr, cc = grid(h, w)
    a, b = rr - r0, cc - c0
    box = (a >= 0) & (b >= 0) & (a < s) & (b < s)
    aa = np.where(k < 2, a, s - 1 - a)
    bb = np.where(k % 2 == 0, b, s - 1 - b)
    return box & (aa + bb < s)


def _ring_reference(rng, h, w):
    m = min(h, w)
    r_out = int(rng.integers(max(2, m // 5), max(3, int(m / 2.6)) + 1))
    r_in = max(1, int(r_out * 0.5))
    cy, cx = _centered_reference(rng, h, w, r_out, r_out)
    rr, cc = grid(h, w)
    d2 = (rr - cy) ** 2 + (cc - cx) ** 2
    return (d2 <= r_out * r_out) & (d2 > r_in * r_in)


def _cross_reference(rng, h, w):
    m = min(h, w)
    a = int(rng.integers(max(2, m // 5), max(3, m // 2 - 1) + 1))
    t = int(rng.integers(0, max(1, m // 10) + 1))
    cy, cx = _centered_reference(rng, h, w, a, a)
    rr, cc = grid(h, w)
    dy, dx = np.abs(rr - cy), np.abs(cc - cx)
    return ((dy <= t) & (dx <= a)) | ((dx <= t) & (dy <= a))


def _bar_reference(rng, h, w):
    m = min(h, w)
    t = int(rng.integers(0, max(1, m // 10) + 1))
    if int(rng.integers(0, 2)) == 0:
        length = int(rng.integers(w // 2, w - 1))
        half = length // 2
        cy, cx = _centered_reference(rng, h, w, t, half)
        rr, cc = grid(h, w)
        return (np.abs(rr - cy) <= t) & (np.abs(cc - cx) <= half)
    length = int(rng.integers(h // 2, h - 1))
    half = length // 2
    cy, cx = _centered_reference(rng, h, w, half, t)
    rr, cc = grid(h, w)
    return (np.abs(rr - cy) <= half) & (np.abs(cc - cx) <= t)


def _lshape_reference(rng, h, w):
    m = min(h, w)
    s1 = int(rng.integers(max(2, m // 3), max(3, int(m * 0.6)) + 1))
    s2 = int(rng.integers(max(2, m // 3), max(3, int(m * 0.6)) + 1))
    t = int(rng.integers(1, max(2, m // 6) + 1))
    r0 = int(rng.integers(0, h - s1))
    c0 = int(rng.integers(0, w - s2))
    k = int(rng.integers(0, 4))
    rr, cc = grid(h, w)
    a, b = rr - r0, cc - c0
    if k >= 2:
        a = (s1 - 1) - a
    if k % 2 == 1:
        b = (s2 - 1) - b
    vertical = (a >= 0) & (a < s1) & (b >= 0) & (b < t)
    horizontal = (a >= 0) & (a < t) & (b >= 0) & (b < s2)
    return vertical | horizontal


def _checkerblob_reference(rng, h, w):
    m = min(h, w)
    r = int(rng.integers(max(1, m // 5), max(2, int(m / 2.4)) + 1))
    cy, cx = _centered_reference(rng, h, w, r, r)
    rr, cc = grid(h, w)
    return np.abs(rr - cy) + np.abs(cc - cx) <= r


_FAMILY_REFERENCES = (_disk_reference, _rectangle_reference, _triangle_reference,
                      _ring_reference, _cross_reference, _bar_reference, _lshape_reference,
                      _checkerblob_reference)


def _footprint_reference(class_id, rng, h, w):
    lo = max(2, int(math.ceil(MIN_AREA_FRAC * h * w)))
    hi = int(math.floor(MAX_AREA_FRAC * h * w))
    draw = _FAMILY_REFERENCES[class_id // 2]
    for _ in range(200):
        fp = draw(rng, h, w)
        if lo <= fp.sum() <= hi:
            return fp
    side = math.isqrt(lo - 1) + 1
    rows = h if h < side else side if w >= side else -(-lo // w)
    cols = w if w < side else side if h >= side else -(-lo // h)
    fp = np.zeros((h, w), dtype=bool)
    fp[(h - rows) // 2:(h - rows) // 2 + rows, (w - cols) // 2:(w - cols) // 2 + cols] = True
    return fp


def _paint_reference(img, footprint, class_id, rng):
    h, w = img.shape
    base = float(rng.uniform(0.72, 0.95))
    fill = np.full((h, w), base)
    if class_id % 2 == 1:
        fill[1::2, :] *= 0.62
    if class_id // 2 == 7:
        rr, cc = grid(h, w)
        fill = np.where((rr + cc) % 2 == 0, fill, fill * 0.8)
    img[footprint] = fill[footprint]


def scene_reference(class_id: int, rng: np.random.Generator, h: int, w: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Image and target mask of one scene, every footprint a full-canvas
    raster: the draws, their order and the arithmetic of ``episodes``."""
    img = rng.uniform(0.0, 0.25, (h, w))
    target = _footprint_reference(class_id, rng, h, w)
    overlap_limit = MAX_OVERLAP_FRAC * target.sum()
    placed = []
    for _ in range(int(rng.integers(1, 3))):
        other = int(rng.integers(0, CLASS_COUNT - 1))
        if other >= class_id:
            other += 1
        for _attempt in range(50):
            fp = _footprint_reference(other, rng, h, w)
            if np.logical_and(fp, target).sum() <= overlap_limit:
                placed.append((other, fp))
                break
    for other, fp in placed:
        _paint_reference(img, fp, other, rng)
    _paint_reference(img, target, class_id, rng)
    img = np.round(img * 1024.0) / 1024.0  # the episodes' 1/1024 grid
    return img, target.astype(np.float64)


def episode_reference(class_id: int, seed: int, canvas: tuple[int, int]) -> Episode:
    """``gen_episode``'s episode, from ``scene_reference``."""
    h, w = canvas
    s_img, s_mask = scene_reference(class_id, rng_for(seed, tag("support"), class_id), h, w)
    q_img, q_mask = scene_reference(class_id, rng_for(seed, tag("query"), class_id), h, w)
    return Episode(support_img=Tensor(s_img), support_mask=Tensor(s_mask),
                   query_img=Tensor(q_img), query_mask=Tensor(q_mask),
                   class_id=class_id, seed=seed)


# Canvases of the pinned input digest, odd, non-square and elongated ones.
EPISODE_CANVASES = ((8, 8), (9, 9), (12, 12), (16, 16), (16, 24), (24, 16), (8, 40), (13, 21),
                    (32, 32))
EPISODE_FIELDS = ("support_img", "support_mask", "query_img", "query_mask")


def _same_bytes(a: Tensor, b: Tensor) -> bool:
    return a.shape == b.shape and a.data.tobytes() == b.data.tobytes()


def run_episodes_suite(trials: int = CLASS_COUNT * len(EPISODE_CANVASES), seed: int = 0
                       ) -> SuiteResult:
    """``gen_episode`` against ``episode_reference``, byte for byte.

    Trial t draws class ``t % 16`` at canvas ``EPISODE_CANVASES[t // 16]``
    (cycling) with a random episode seed, so the default trials cover every
    class on every canvas. The four arrays must have equal bytes, and so
    must the frames and masks of an 8-frame tube made from each episode.
    """
    rng = rng_for(seed, tag("oracle"), 7)

    def trial(t: int) -> str | None:
        class_id = t % CLASS_COUNT
        canvas = EPISODE_CANVASES[(t // CLASS_COUNT) % len(EPISODE_CANVASES)]
        ep_seed, tube_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
        got = gen_episode(class_id, ep_seed, canvas)
        want = episode_reference(class_id, ep_seed, canvas)
        problems = [name for name in EPISODE_FIELDS
                    if not _same_bytes(getattr(got, name), getattr(want, name))]
        got_tube, want_tube = make_tube(got, 8, tube_seed), make_tube(want, 8, tube_seed)
        if not all(map(_same_bytes, got_tube.frames + got_tube.masks,
                       want_tube.frames + want_tube.masks)):
            problems.append("tube")
        if problems:
            return (f"trial {t} (class {class_id}, seed {ep_seed}, canvas "
                    f"{canvas[0]}x{canvas[1]}): {', '.join(problems)} differ")
        return None

    return _run_trials("episodes", trials, trial)


SUITES = {
    "cyc": run_cyc_suite,
    "softmax": run_softmax_suite,
    "grad": run_grad_suite,
    "batch": run_batch_suite,
    "tube": run_tube_suite,
    "encoder": run_encoder_suite,
    "episodes": run_episodes_suite,
    "reference": run_reference_suite,
}
