"""Episodic training, evaluation, and the finite-difference gradient audit."""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dcst
from . import tensor as T
from .config import TrainConfig, config_text, parse_config_text
from .encoder import StubEncoder
from .episodes import Episode, FoldSplit, gen_episode
from .errors import CheckpointMissing, DivergenceDetected, EmptyReport, IoError
from .losses import total_loss
from .metrics import MetricReport, boundary_f, iou
from .pipeline import (ModelParams, PipelineConfig, downsample_mask, generate_prompts,
                       infer_mask, init_params, watch_params)
from .decoder import decode
from .seeding import derive_seed, episode_seed, rng_for, tag
from .tensor import GradTape, Tensor, binarize, grad
from .util import atomic_write_text
from .video import make_tube

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

# Central differences at h=1e-5 on an O(1) loss carry ~1e-11 absolute noise,
# so gradients below this scale cannot be certified to a relative tolerance;
# they are compared against the floor instead.
FD_DENOM_FLOOR = 1e-6


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr at step 0 to exactly 0 at step == total_steps."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


class AdamW:
    """Adam with decoupled weight decay and cosine learning-rate decay.

    With zero gradients the moment estimates stay zero, so a step contracts
    every parameter by exactly (1 - lr_t * weight_decay).
    """

    def __init__(self, lr: float, total_steps: int, weight_decay: float):
        self.lr = float(lr)
        self.total_steps = int(total_steps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, named: dict[str, Tensor], grads: dict[str, Tensor]) -> dict[str, Tensor]:
        lr_t = cosine_lr(self.lr, self.t, self.total_steps)
        self.t += 1
        correction1 = 1.0 - BETA1 ** self.t
        correction2 = 1.0 - BETA2 ** self.t
        out: dict[str, Tensor] = {}
        for name, param in named.items():
            g = grads[name].data
            m = self._m.get(name)
            v = self._v.get(name)
            m = (1.0 - BETA1) * g if m is None else BETA1 * m + (1.0 - BETA1) * g
            v = (1.0 - BETA2) * g * g if v is None else BETA2 * v + (1.0 - BETA2) * g * g
            self._m[name] = m
            self._v[name] = v
            update = (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS)
            theta = param.data
            out[name] = Tensor(theta - lr_t * self.weight_decay * theta - lr_t * update)
        return out


def _episode_loss(enc_s, enc_q, mask_feat: Tensor, gt_feat: Tensor,
                  params: ModelParams, pcfg: PipelineConfig) -> Tensor:
    """Combined loss of one episode, or one loss per episode [B] of a batch
    (masks stacked [B, H, W])."""
    prompts, _ = generate_prompts(enc_s, enc_q, mask_feat, params, pcfg)
    probs = decode(prompts.pos_labeled, prompts.neg_labeled, enc_q.sam, pcfg.decoder_config())
    return total_loss(probs, gt_feat, batched=gt_feat.ndim == 3)


def stack_episodes(episodes: list[Episode]) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Support images, support masks, query images and query masks of
    same-sized episodes, each stacked along a leading batch axis."""
    return tuple(Tensor(np.stack([getattr(ep, name).data for ep in episodes]))
                 for name in ("support_img", "support_mask", "query_img", "query_mask"))


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    losses: tuple[float, ...]
    config: TrainConfig


def train(cfg: TrainConfig, fold: FoldSplit) -> TrainResult:
    """Train on the fold's training classes; loss is the batch mean of the
    per-episode combined loss, reduced in a fixed order. A step's episodes
    run as one stacked batch on one tape."""
    pcfg = cfg.pipeline_config()
    encoder = pcfg.encoder(cfg.seed)
    params = init_params(pcfg, cfg.seed)
    opt = AdamW(cfg.lr, cfg.steps + cfg.tube_steps, cfg.weight_decay)
    sampler = rng_for(cfg.seed, tag("sampler"))
    canvas = (cfg.canvas, cfg.canvas)
    losses: list[float] = []
    counter = 0

    def check(value: float) -> float:
        if not math.isfinite(value):
            raise DivergenceDetected(f"loss became {value} at step {len(losses)}")
        return value

    for _step in range(cfg.steps):
        tape = GradTape()
        tracked, name_map = watch_params(tape, params)
        try:
            episodes = []
            for _b in range(cfg.batch):
                cls = int(fold.train_classes[int(sampler.integers(0, len(fold.train_classes)))])
                episodes.append(gen_episode(cls, episode_seed(cfg.seed, cls, counter), canvas))
                counter += 1
            support_img, support_mask, query_img, query_mask = stack_episodes(episodes)
            enc_s = encoder.encode(support_img, batched=True)
            enc_q = encoder.encode(query_img, batched=True)
            mask_f = downsample_mask(support_mask, encoder.stride)
            gt_f = downsample_mask(query_mask, encoder.stride)
            per_episode = _episode_loss(enc_s, enc_q, mask_f, gt_f, tracked, pcfg)
            loss = T.scale(T.sum_all(per_episode), 1.0 / cfg.batch)
        except FloatingPointError as err:
            raise DivergenceDetected(str(err)) from err
        losses.append(check(loss.item()))
        grads = grad(tape, loss)
        named_grads = {name: grads[t] for name, t in name_map.items()}
        params = ModelParams.from_named(opt.step(params.named(), named_grads))

    # Optional video analog: supervise every frame of a synthetic tube with
    # the frame-0 prompts, same parameters, same optimizer schedule.
    for _step in range(cfg.tube_steps):
        tape = GradTape()
        tracked, name_map = watch_params(tape, params)
        try:
            cls = int(fold.train_classes[int(sampler.integers(0, len(fold.train_classes)))])
            ep = gen_episode(cls, episode_seed(cfg.seed, cls, counter), canvas)
            counter += 1
            tube = make_tube(ep, cfg.tube_frames, derive_seed(cfg.seed, tag("tube"), counter))
            enc_s = encoder.encode(ep.support_img)
            enc_first = encoder.encode(tube.frames[0])
            mask_f = downsample_mask(ep.support_mask, encoder.stride)
            prompts, _ = generate_prompts(enc_s, enc_first, mask_f, tracked, pcfg)
            frame_terms = []
            for frame, mask in zip(tube.frames, tube.masks):
                enc_t = encoder.encode(frame)
                probs = decode(prompts.pos_labeled, prompts.neg_labeled, enc_t.sam,
                               pcfg.decoder_config())
                frame_terms.append(total_loss(probs, downsample_mask(mask, encoder.stride)))
            acc = frame_terms[0]
            for term in frame_terms[1:]:
                acc = T.add(acc, term)
            loss = T.scale(acc, 1.0 / len(frame_terms))
        except FloatingPointError as err:
            raise DivergenceDetected(str(err)) from err
        losses.append(check(loss.item()))
        grads = grad(tape, loss)
        named_grads = {name: grads[t] for name, t in name_map.items()}
        params = ModelParams.from_named(opt.step(params.named(), named_grads))

    return TrainResult(params=params, losses=tuple(losses), config=cfg)


def evaluate(params: ModelParams, cfg: TrainConfig, fold: FoldSplit,
             episodes_per_class: int | None = None) -> MetricReport:
    """Held-out evaluation over a fixed per-config seed set.

    Episode i of class c uses seed hash(cfg.seed, c, i), so two models
    evaluated under the same config see identical episodes. Episodes run as
    stacked batches of at most ``cfg.batch``.
    """
    n = cfg.eval_episodes_per_class if episodes_per_class is None else int(episodes_per_class)
    if not fold.test_classes:
        raise EmptyReport("fold has no test classes")
    if n < 1:
        raise EmptyReport("evaluation needs at least one episode per class")
    pcfg = cfg.pipeline_config()
    encoder = pcfg.encoder(cfg.seed)
    canvas = (cfg.canvas, cfg.canvas)

    jobs = [(cls, i) for cls in fold.test_classes for i in range(n)]
    per_class: dict[int, list[float]] = {cls: [] for cls in fold.test_classes}
    f_values: list[float] = []
    for start in range(0, len(jobs), cfg.batch):
        chunk = jobs[start:start + cfg.batch]
        episodes = [gen_episode(cls, derive_seed(cfg.seed, tag("eval"), cls, i), canvas)
                    for cls, i in chunk]
        support_img, support_mask, query_img, _ = stack_episodes(episodes)
        preds = binarize(infer_mask(support_img, support_mask, query_img, params, pcfg, encoder))
        for (cls, _i), ep, pred in zip(chunk, episodes, preds.data):
            pred = Tensor(pred)
            per_class[cls].append(iou(pred, ep.query_mask))
            f_values.append(boundary_f(pred, ep.query_mask))
    class_iou = {cls: float(np.mean(vals)) for cls, vals in per_class.items()}
    j = float(np.mean(list(class_iou.values())))
    return MetricReport.from_classes(class_iou, j=j, f=float(np.mean(f_values)))


@dataclass(frozen=True)
class GradCheckResult:
    per_param: dict[str, float]
    threshold: float
    h: float

    @property
    def worst(self) -> float:
        return max(self.per_param.values())

    @property
    def passed(self) -> bool:
        return self.worst < self.threshold


def grad_check(params: ModelParams, ep: Episode, pcfg: PipelineConfig, encoder: StubEncoder,
               samples_per_param: int = 5, h: float = 1e-5, threshold: float = 1e-4,
               seed: int = 0) -> GradCheckResult:
    """Compare tape gradients against central differences on one episode.

    Per parameter tensor, a seeded sample of coordinates is perturbed by
    +-h; the reported number is the worst relative error
    |analytic - fd| / max(|analytic|, |fd|, FD_DENOM_FLOOR).
    """
    enc_s = encoder.encode(ep.support_img)
    enc_q = encoder.encode(ep.query_img)
    mask_f = downsample_mask(ep.support_mask, encoder.stride)
    gt_f = downsample_mask(ep.query_mask, encoder.stride)

    tape = GradTape()
    tracked, name_map = watch_params(tape, params)
    loss = _episode_loss(enc_s, enc_q, mask_f, gt_f, tracked, pcfg)
    grads = grad(tape, loss)
    analytic = {name: grads[t].data for name, t in name_map.items()}

    base = params.named()

    def loss_at(named: dict[str, Tensor]) -> float:
        return _episode_loss(enc_s, enc_q, mask_f, gt_f,
                             ModelParams.from_named(named), pcfg).item()

    rng = rng_for(seed, tag("gradcheck"))
    per_param: dict[str, float] = {}
    for name, tensor in base.items():
        size = tensor.size
        count = min(samples_per_param, size)
        coords = rng.choice(size, size=count, replace=False)
        worst = 0.0
        for flat_idx in coords:
            def bumped_loss(delta: float) -> float:
                flat = tensor.data.copy().reshape(-1)
                flat[flat_idx] += delta
                named = dict(base)
                named[name] = Tensor(flat.reshape(tensor.shape))
                return loss_at(named)

            fd = (bumped_loss(+h) - bumped_loss(-h)) / (2.0 * h)
            ana = float(analytic[name].reshape(-1)[flat_idx])
            rel = abs(ana - fd) / max(abs(ana), abs(fd), FD_DENOM_FLOOR)
            worst = max(worst, rel)
        per_param[name] = worst
    return GradCheckResult(per_param=per_param, threshold=threshold, h=h)


# Checkpoints: one .dcst per parameter plus optimizer.txt and config.txt.

def save_checkpoint(directory: str | Path, params: ModelParams, cfg: TrainConfig,
                    step: int) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, t in params.named().items():
        dcst.write_tensor(directory / f"{name}.dcst", t)
    atomic_write_text(directory / "optimizer.txt", f"step = {step}\n")
    atomic_write_text(directory / "config.txt", config_text(cfg))


def load_checkpoint(directory: str | Path) -> tuple[ModelParams, TrainConfig, int]:
    directory = Path(directory)
    cfg_path = directory / "config.txt"
    opt_path = directory / "optimizer.txt"
    for required in (cfg_path, opt_path):
        if not required.exists():
            raise CheckpointMissing(f"{required} is missing")
    cfg = parse_config_text(cfg_path.read_text())
    step = None
    for line in opt_path.read_text().splitlines():
        line = line.strip()
        if line.startswith("step"):
            step = int(line.split("=", 1)[1])
    if step is None:
        raise CheckpointMissing(f"{opt_path} does not record a step count")
    template = init_params(cfg.pipeline_config(), seed=0)
    named: dict[str, Tensor] = {}
    for name, ref in template.named().items():
        path = directory / f"{name}.dcst"
        if not path.exists():
            raise CheckpointMissing(f"{path} is missing")
        t = dcst.read_tensor(path)
        if t.shape != ref.shape:
            raise IoError(f"{path}: shape {t.shape} does not match config ({ref.shape})")
        named[name] = t
    return ModelParams.from_named(named), cfg, step


def grad_check_episode(cfg: TrainConfig, canvas: int = 8, class_id: int = 0,
                       seed: int | None = None) -> Episode:
    """Small fixed episode for gradient audits."""
    return gen_episode(class_id, derive_seed(cfg.seed if seed is None else seed,
                                             tag("gradcheck")), (canvas, canvas))
