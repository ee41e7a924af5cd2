"""Randomized audit suites: production held to ``dcsam.reference``.

Each suite runs production on random inputs and counts the trials that
break a comparison with the reference layer (``grad``: with finite
differences). The cases, tolerances and comparisons live here, and every
reference in ``dcsam.reference``. The suites are what `dcsam oracle` runs.
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
from .episodes import CLASS_COUNT, Episode, gen_episode
from .metrics import boundary_f, iou, jf_score, mask_scores
from .pipeline import bulk_forward, init_params, watch_params
from .reference import (complex_step, cycle_bias_reference, descriptors_reference,
                        episode_reference, project_reference, reference_decode, reference_forward,
                        softmax_rows_reference)
from .seeding import derive_seed, rng_for, tag
from .tensor import GradTape, Tensor, grad, masked_softmax_rows
from .trainer import _episode_fields, grad_check
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
        q, k = rng.normal(size=(n, d)), rng.normal(size=(hw, d))
        if t % 2 == 0:
            q, k = np.round(q), np.round(k)
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
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 8))
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
        ep = gen_episode(t % CLASS_COUNT, derive_seed(cfg.seed, tag("gradcheck"), t), (8, 8))
        result = grad_check(init_params(cfg, cfg.seed), ep, cfg, cfg.encoder(cfg.seed),
                            samples_per_param=samples_per_param, seed=cfg.seed)
        if result.passed:
            return None
        worst_name = max(result.per_param, key=result.per_param.get)
        return f"trial {t}: {worst_name} rel err {result.worst:.3e}"

    return _run_trials("grad", trials, trial)


def _pooled(mask: Tensor, s: int) -> np.ndarray:
    """A mask [H, W] block-max pooled by the stride ``s``."""
    return mask.data.reshape(mask.shape[0] // s, s, -1, s).max(axis=(1, 3))


def _reference_inputs(episodes, encoder) -> list[tuple]:
    """What ``reference_forward`` takes of each episode: its images' maps
    from ``encoder.encode`` and its masks pooled by the stride."""
    def maps(img):
        enc = encoder.encode(img)
        return enc.mid.data, enc.high.data, enc.sam.data

    return [(maps(ep.support_img), maps(ep.query_img), _pooled(ep.support_mask, encoder.stride),
             _pooled(ep.query_mask, encoder.stride)) for ep in episodes]


def batch_gradient_deviations(episodes, params, cfg, encoder, rng: np.random.Generator,
                              per_tensor: bool = True) -> dict[str, float]:
    """Along a random direction v per parameter tensor (``grad <name>``), or
    one over all of them (``grad all``): the tape's sum(grad . v) of the
    training forward's batch-mean loss against the complex step of the
    reference's, measured by ``batch_deviations``."""
    tape = GradTape()
    tracked, name_map = watch_params(tape, params)
    grads = grad(tape, bulk_forward(*_episode_fields(episodes), tracked, cfg, encoder).loss)
    arrays = {name: t.data for name, t in params.named().items()}
    v = {name: rng.normal(size=a.shape) for name, a in arrays.items()}
    directions = {f"grad {n}": {n: v[n]} for n in v} if per_tensor else {"grad all": v}
    inputs = _reference_inputs(episodes, encoder)

    def mean_loss(p):
        return np.mean([reference_forward(*row, p, cfg)["loss"] for row in inputs])

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
        b = int(rng.integers(1, max_batch + 1))
        episodes = [gen_episode(int(rng.integers(0, CLASS_COUNT)),
                                derive_seed(cfg.seed, tag("oracle"), i), (8, 8)) for i in range(b)]
        devs = batch_gradient_deviations(episodes, init_params(cfg, cfg.seed), cfg,
                                         cfg.encoder(cfg.seed), rng)
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


def reference_deviations(episodes, params, cfg, encoder) -> dict[str, float]:
    """``batch_deviations`` of production's training forward of the episodes
    against ``reference_forward`` of each: prompts, pseudo masks,
    probabilities and the batch-mean loss."""
    out = bulk_forward(*_episode_fields(episodes), params, cfg, encoder)
    got = {"pos": out.prompts.pos.data, "pseudo": out.pseudo.data, "probs": out.probs.data,
           "loss": out.loss.data}
    if out.prompts.neg is not None:
        got["neg"] = out.prompts.neg.data
    arrays = {name: t.data for name, t in params.named().items()}
    rows = [reference_forward(*row, arrays, cfg) for row in _reference_inputs(episodes, encoder)]
    want = {key: np.stack([row[key] for row in rows]) for key in got}
    want["loss"] = want["loss"].mean()
    return batch_deviations(got, want)


def run_reference_suite(trials: int = len(REFERENCE_CASES), seed: int = 0) -> SuiteResult:
    """Production's batched forward against ``reference_forward``: trial t
    runs case ``REFERENCE_CASES[t % len(REFERENCE_CASES)]`` (batch size,
    config variant) at canvas 8 on random episodes and parameters, and
    ``reference_deviations`` must stay within ``REFERENCE_TOL``."""
    rng = rng_for(seed, tag("oracle"), 8)

    def trial(t: int) -> str | None:
        b, variant = REFERENCE_CASES[t % len(REFERENCE_CASES)]
        cfg = TrainConfig(seed=derive_seed(seed, tag("oracle"), 8, t), canvas=8, **variant)
        episodes = [gen_episode(int(rng.integers(0, CLASS_COUNT)), int(rng.integers(0, 2**31)),
                                (8, 8)) for _ in range(b)]
        devs = reference_deviations(episodes, init_params(cfg, cfg.seed), cfg,
                                    cfg.encoder(cfg.seed))
        worst = max(devs, key=devs.get)
        if devs[worst] > REFERENCE_TOL:
            return (f"trial {t} (B={b}, {variant or 'full model'}): "
                    f"{worst} deviates by {devs[worst]:.3e}")
        return None

    return _run_trials("reference", trials, trial)


# Tube lengths around the stacks of ``CHUNK_PIXELS`` (16 frames at canvas 16, 4 at 32), up to 32.
TUBE_CASES = tuple(itertools.product((1, 3, 4, 5, 9, 16, 17, 32), (16, 32), (1, 2), (True, False)))


def tube_mismatches(ep: Episode, tube, params, cfg, encoder) -> list[str]:
    """What of ``propagate_first_frame`` of ``tube`` from ``ep``'s support
    differs from the reference, per frame; empty when nothing does. The
    reference encodes each image alone (``project_reference`` of
    ``descriptors_reference``), takes the prompts of ``reference_forward``
    on the support image and frame 0, and thresholds each frame's
    ``reference_decode`` at 0.5, repeated by the stride. The predicted masks
    must have its bytes; the per-frame J and F of ``mask_scores`` must equal
    ``iou`` and ``boundary_f`` of its masks, and ``jf_score`` their means."""
    pred = propagate_first_frame(tube, ep.support_img, ep.support_mask, params, cfg, encoder)
    s = encoder.stride

    def maps(img: Tensor):
        return project_reference(encoder, descriptors_reference(img.data), img.shape)

    frame_maps = [maps(frame) for frame in tube.frames]
    prompts = reference_forward(maps(ep.support_img), frame_maps[0], _pooled(ep.support_mask, s),
                                _pooled(tube.masks[0], s),
                                {name: p.data for name, p in params.named().items()}, cfg)
    want = [(reference_decode(prompts["pos"], prompts.get("neg"), sam, cfg.tau) >= 0.5)
            .astype(np.float64).repeat(s, axis=0).repeat(s, axis=1) for _, _, sam in frame_maps]
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
    return problems


def run_tube_suite(trials: int = len(TUBE_CASES), seed: int = 0) -> SuiteResult:
    """Chunked propagation and stacked J&F against the reference, per frame:
    trial t runs case ``TUBE_CASES[t % len(TUBE_CASES)]`` (tube length,
    canvas, encoder stride, negative branch) on a random episode and random
    parameters, and must show no ``tube_mismatches``."""
    rng = rng_for(seed, tag("oracle"), 5)

    def trial(t: int) -> str | None:
        frames, canvas, stride, neg = TUBE_CASES[t % len(TUBE_CASES)]
        cfg = TrainConfig(seed=derive_seed(seed, tag("oracle"), 5, t), canvas=canvas,
                          stride=stride, use_neg_branch=neg)
        ep = gen_episode(int(rng.integers(0, CLASS_COUNT)), int(rng.integers(0, 2**31)),
                         (canvas, canvas))
        tube = make_tube(ep, frames, int(rng.integers(0, 2**31)))
        problems = tube_mismatches(ep, tube, init_params(cfg, cfg.seed), cfg,
                                   cfg.encoder(cfg.seed))
        if problems:
            return (f"trial {t} ({frames} frames, canvas {canvas}, stride {stride}, "
                    f"negative branch {neg}): {'; '.join(problems)}")
        return None

    return _run_trials("tube", trials, trial)


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
        want = Episode(*map(Tensor, episode_reference(class_id, ep_seed, canvas)),
                       class_id, ep_seed)
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
