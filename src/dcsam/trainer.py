"""Episodic training, evaluation, and the finite-difference gradient audit."""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dcst
from . import tensor as T
from .config import TrainConfig, config_text, load_config
from .encoder import EncoderMaps, StubEncoder
from .episodes import Episode, FoldSplit, gen_episode
from .errors import CheckpointMissing, ConfigError, DivergenceDetected, EmptyReport, IoError
from .losses import total_loss
from .metrics import MetricReport, mask_scores
from .pipeline import (ModelParams, PromptSet, downsample_mask, generate_prompts, infer_mask,
                       init_params, watch_params)
from .decoder import decode
from .seeding import derive_seed, episode_seed, rng_for, tag
from .tensor import GradTape, Tensor, binarize, grad
from .util import read_fields
from .video import MaskTube, make_tube

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

# Central differences at FD_STEP on an O(1) loss carry ~1e-11 absolute noise,
# so gradients below FD_DENOM_FLOOR cannot be certified to a relative
# tolerance; they are compared against the floor instead. An audit passes
# when every parameter's worst relative error is below FD_THRESHOLD.
FD_STEP = 1e-5
FD_DENOM_FLOOR = 1e-6
FD_THRESHOLD = 1e-4


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
    every parameter by exactly (1 - lr_t * weight_decay). A step that
    overflows a parameter raises DivergenceDetected.
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
            try:
                out[name] = Tensor(theta - lr_t * self.weight_decay * theta - lr_t * update)
            except ValueError as err:  # Tensor rejects non-finite data
                raise DivergenceDetected(
                    f"parameter {name!r} became non-finite at step {self.t - 1}") from err
        return out


def stack_episodes(episodes: list[Episode]) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Support images, support masks, query images and query masks of
    same-sized episodes, each stacked along a leading batch axis."""
    return tuple(Tensor(np.stack([getattr(ep, name).data for ep in episodes]))
                 for name in ("support_img", "support_mask", "query_img", "query_mask"))


def encode_episodes(episodes: list[Episode], encoder: StubEncoder
                    ) -> tuple[EncoderMaps, EncoderMaps, Tensor, Tensor]:
    """Stacked support and query maps of the episodes, and their support and
    query masks at the feature resolution."""
    support_img, support_mask, query_img, query_mask = stack_episodes(episodes)
    return (encoder.encode(support_img, batched=True), encoder.encode(query_img, batched=True),
            downsample_mask(support_mask, encoder.stride),
            downsample_mask(query_mask, encoder.stride))


def _mean_loss(probs: Tensor, target: Tensor) -> Tensor:
    # NumPy's pairwise sum over the batch axis: a fixed order for any batch
    per_episode = total_loss(probs, target, batched=True)
    return T.scale(T.sum_all(per_episode), 1.0 / target.shape[0])


def batch_forward(enc_s: EncoderMaps, enc_q: EncoderMaps, mask_f: Tensor, gt_f: Tensor,
                  params: ModelParams, cfg: TrainConfig
                  ) -> tuple[PromptSet, Tensor, Tensor, Tensor]:
    """The training forward of a stacked batch: prompts, pseudo masks,
    probabilities [B, h, w] and the batch mean of the combined loss."""
    prompts, pseudo = generate_prompts(enc_s, enc_q, mask_f, params, cfg)
    probs = decode(prompts.pos, prompts.neg, enc_q.sam, cfg.tau)
    return prompts, pseudo, probs, _mean_loss(probs, gt_f)


def tube_loss(support_img: Tensor, support_mask: Tensor, tube: MaskTube,
              params: ModelParams, cfg: TrainConfig, encoder: StubEncoder) -> Tensor:
    """Mean over the tube's frames of the combined loss of decoding each
    frame with the prompts generated on frame 0. The frames run as one
    stack, frame 0's maps come from it, and the prompts are shared by all
    of them."""
    first, sam = encoder.encode_frames(np.stack([f.data for f in tube.frames]), first=True)
    prompts, _ = generate_prompts(encoder.encode(support_img), first,
                                  downsample_mask(support_mask, encoder.stride), params, cfg)
    masks = downsample_mask(Tensor(np.stack([m.data for m in tube.masks])), encoder.stride)
    probs = decode(prompts.pos, prompts.neg, sam, cfg.tau)
    return _mean_loss(probs, masks)


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    losses: tuple[float, ...]


def train(cfg: TrainConfig, fold: FoldSplit) -> TrainResult:
    """Train on the fold's training classes: ``steps`` steps on ``batch``
    stacked episodes, then ``tube_steps`` steps on the stacked frames of a
    mask tube, under one optimizer schedule and one step routine."""
    encoder = cfg.encoder(cfg.seed)
    params = init_params(cfg, cfg.seed)
    opt = AdamW(cfg.lr, cfg.steps + cfg.tube_steps, cfg.weight_decay)
    sampler = rng_for(cfg.seed, tag("sampler"))
    canvas = (cfg.canvas, cfg.canvas)
    losses: list[float] = []
    counter = 0

    def draw_episode() -> Episode:
        nonlocal counter
        cls = int(fold.train_classes[int(sampler.integers(0, len(fold.train_classes)))])
        ep = gen_episode(cls, episode_seed(cfg.seed, cls, counter), canvas)
        counter += 1
        return ep

    def image_step(tracked: ModelParams) -> Tensor:
        episodes = [draw_episode() for _ in range(cfg.batch)]
        return batch_forward(*encode_episodes(episodes, encoder), tracked, cfg)[3]

    def tube_step(tracked: ModelParams) -> Tensor:
        ep = draw_episode()
        tube = make_tube(ep, cfg.tube_frames, derive_seed(cfg.seed, tag("tube"), counter))
        return tube_loss(ep.support_img, ep.support_mask, tube, tracked, cfg, encoder)

    for step_loss in [image_step] * cfg.steps + [tube_step] * cfg.tube_steps:
        tape = GradTape()
        tracked, name_map = watch_params(tape, params)
        try:
            loss = step_loss(tracked)
        except FloatingPointError as err:
            raise DivergenceDetected(str(err)) from err
        losses.append(loss.item())
        grads = grad(tape, loss)
        named_grads = {name: grads[t] for name, t in name_map.items()}
        params = ModelParams.from_named(opt.step(params.named(), named_grads))

    return TrainResult(params=params, losses=tuple(losses))


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
    encoder = cfg.encoder(cfg.seed)
    canvas = (cfg.canvas, cfg.canvas)

    jobs = [(cls, i) for cls in fold.test_classes for i in range(n)]
    per_class: dict[int, list[float]] = {cls: [] for cls in fold.test_classes}
    f_values: list[float] = []
    for start in range(0, len(jobs), cfg.batch):
        chunk = jobs[start:start + cfg.batch]
        episodes = [gen_episode(cls, derive_seed(cfg.seed, tag("eval"), cls, i), canvas)
                    for cls, i in chunk]
        support_img, support_mask, query_img, _ = stack_episodes(episodes)
        preds = binarize(infer_mask(support_img, support_mask, query_img, params, cfg, encoder))
        js, fs = mask_scores(preds.data, [ep.query_mask for ep in episodes])
        for (cls, _i), j in zip(chunk, js.tolist()):
            per_class[cls].append(j)
        f_values.extend(fs.tolist())
    class_iou = {cls: float(np.mean(vals)) for cls, vals in per_class.items()}
    j = float(np.mean(list(class_iou.values())))
    return MetricReport.from_classes(class_iou, j=j, f=float(np.mean(f_values)))


@dataclass(frozen=True)
class GradCheckResult:
    per_param: dict[str, float]

    @property
    def worst(self) -> float:
        return max(self.per_param.values())

    @property
    def passed(self) -> bool:
        return self.worst < FD_THRESHOLD


def grad_check(params: ModelParams, ep: Episode, cfg: TrainConfig, encoder: StubEncoder,
               samples_per_param: int = 5, seed: int = 0) -> GradCheckResult:
    """Compare tape gradients against central differences on one episode.

    Per parameter tensor, a seeded sample of coordinates is perturbed by
    +-FD_STEP; the reported number is the worst relative error
    |analytic - fd| / max(|analytic|, |fd|, FD_DENOM_FLOOR).
    """
    inputs = encode_episodes([ep], encoder)     # a batch of one

    def loss_at(p: ModelParams) -> Tensor:
        return batch_forward(*inputs, p, cfg)[3]

    tape = GradTape()
    tracked, name_map = watch_params(tape, params)
    grads = grad(tape, loss_at(tracked))
    analytic = {name: grads[t].data for name, t in name_map.items()}

    base = params.named()
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
                return loss_at(ModelParams.from_named(named)).item()

            fd = (bumped_loss(+FD_STEP) - bumped_loss(-FD_STEP)) / (2.0 * FD_STEP)
            ana = float(analytic[name].reshape(-1)[flat_idx])
            rel = abs(ana - fd) / max(abs(ana), abs(fd), FD_DENOM_FLOOR)
            worst = max(worst, rel)
        per_param[name] = worst
    return GradCheckResult(per_param=per_param)


# Checkpoints: one .dcst per parameter plus optimizer.txt and config.txt.

def save_checkpoint(directory: str | Path, params: ModelParams, cfg: TrainConfig,
                    step: int) -> None:
    dcst.write_bundle(
        directory, {f"{name}.dcst": t for name, t in params.named().items()},
        {"optimizer.txt": f"step = {step}\n", "config.txt": config_text(cfg)})


def load_checkpoint(directory: str | Path) -> tuple[ModelParams, TrainConfig, int]:
    directory = Path(directory)
    cfg_path = directory / "config.txt"
    opt_path = directory / "optimizer.txt"
    for required in (cfg_path, opt_path):
        if not required.exists():
            raise CheckpointMissing(f"{required} is missing")
    try:
        cfg = load_config(cfg_path)
    except ConfigError as err:
        raise IoError(f"{cfg_path}: {err}") from err
    step = read_fields(opt_path, ("step",))["step"]
    template = init_params(cfg, seed=0)
    named: dict[str, Tensor] = {}
    for name, ref in template.named().items():
        path = directory / f"{name}.dcst"
        if not path.exists():
            raise CheckpointMissing(f"{path} is missing")
        t = dcst.read_tensor(path)
        if t.shape != ref.shape:
            raise IoError(f"{path}: shape {t.shape} does not match {cfg_path} ({ref.shape})")
        named[name] = t
    return ModelParams.from_named(named), cfg, step


def grad_check_episode(cfg: TrainConfig, canvas: int = 8) -> Episode:
    """Small fixed episode for gradient audits: class 0 at the config's seed."""
    return gen_episode(0, derive_seed(cfg.seed, tag("gradcheck")), (canvas, canvas))
