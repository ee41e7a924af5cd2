"""Episodic training, evaluation, and the finite-difference gradient audit.

``train`` is a loop of ``train_step``, which maps one frozen ``TrainState`` to
the next, so a run continued from any kept state gives the same bytes."""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dcst
from .config import TrainConfig, config_text, load_config
from .encoder import StubEncoder
from .episodes import Episode, FoldSplit, gen_episode
from .errors import CheckpointMissing, ConfigError, DivergenceDetected, EmptyReport, IoError
from .metrics import MetricReport, mask_scores
from .pipeline import ModelParams, bulk_forward, init_params, upsample_map, watch_params
from .seeding import derive_seed, episode_seed, rng_for, tag
from .tensor import GradTape, Tensor, binarize, grad
from .util import read_fields
from .video import make_tube

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

Moments = dict[str, np.ndarray]     # an AdamW moment estimate per parameter name


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr at step 0 to exactly 0 at step == total_steps."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass(frozen=True)
class AdamW:
    """Adam with decoupled weight decay and cosine learning-rate decay.

    With zero gradients the moment estimates stay zero, so a step contracts
    every parameter by exactly (1 - lr_t * weight_decay). A step that
    overflows a parameter raises DivergenceDetected.
    """

    lr: float
    total_steps: int
    weight_decay: float

    def step(self, named: dict[str, Tensor], grads: dict[str, Tensor], m: Moments, v: Moments,
             t: int) -> tuple[dict[str, Tensor], Moments, Moments]:
        """Step ``t`` (0-based) from the moments of the steps before it, empty
        before step 0: the new parameters and moments. Writes no argument."""
        lr_t = cosine_lr(self.lr, t, self.total_steps)
        correction1 = 1.0 - BETA1 ** (t + 1)
        correction2 = 1.0 - BETA2 ** (t + 1)
        out, m_out, v_out = {}, {}, {}
        for name, param in named.items():
            g, m_prev, v_prev = grads[name].data, m.get(name), v.get(name)
            m_t = (1.0 - BETA1) * g if m_prev is None else BETA1 * m_prev + (1.0 - BETA1) * g
            v_t = (1.0 - BETA2) * g * g if v_prev is None else BETA2 * v_prev + (1.0 - BETA2) * g * g
            m_out[name], v_out[name] = m_t, v_t
            update = (m_t / correction1) / (np.sqrt(v_t / correction2) + ADAM_EPS)
            theta = param.data
            try:
                out[name] = Tensor(theta - lr_t * self.weight_decay * theta - lr_t * update)
            except ValueError as err:  # Tensor rejects non-finite data
                raise DivergenceDetected(
                    f"parameter {name!r} became non-finite at step {t}") from err
        return out, m_out, v_out


def _episode_fields(episodes: list[Episode]) -> tuple[list[Tensor], ...]:
    """The episodes' supports, support masks, queries and targets, as
    ``bulk_forward`` takes them."""
    return tuple([getattr(ep, name) for ep in episodes]
                 for name in ("support_img", "support_mask", "query_img", "query_mask"))


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    losses: tuple[float, ...]


@dataclass(frozen=True)
class TrainState:
    """What a run carries from step to step. ``step`` is AdamW's index, the
    schedule's position and the next step's kind; ``sampler`` is the class
    sampler's ``bit_generator.state``; ``drawn`` counts the episodes drawn."""

    params: ModelParams
    m: Moments
    v: Moments
    step: int
    sampler: dict
    drawn: int


def initial_state(cfg: TrainConfig) -> TrainState:
    """The state before step 0: no moments, the sampler at its stream's start."""
    return TrainState(params=init_params(cfg, cfg.seed), m={}, v={}, step=0,
                      sampler=rng_for(cfg.seed, tag("sampler")).bit_generator.state, drawn=0)


def train_step(state: TrainState, cfg: TrainConfig, fold: FoldSplit,
               encoder: StubEncoder) -> tuple[TrainState, float]:
    """The state after one step from ``state``, which is not written to, and
    the step's loss: ``batch`` episodes of the fold's training classes while
    ``state.step < cfg.steps``, the frames of one mask tube after that."""
    sampler = np.random.Generator(np.random.Philox(0))  # the kept state replaces this seed
    sampler.bit_generator.state = state.sampler
    on_tube = state.step >= cfg.steps
    drawn = state.drawn + (1 if on_tube else cfg.batch)
    tape = GradTape()
    tracked, name_map = watch_params(tape, state.params)
    try:
        episodes = []
        for index in range(state.drawn, drawn):
            cls = int(fold.train_classes[int(sampler.integers(0, len(fold.train_classes)))])
            episodes.append(gen_episode(cls, episode_seed(cfg.seed, cls, index),
                                        (cfg.canvas, cfg.canvas)))
        if on_tube:     # frame 0's prompts decode every frame of one tube
            ep = episodes[0]
            tube = make_tube(ep, cfg.tube_frames, derive_seed(cfg.seed, tag("tube"), drawn))
            inputs = (ep.support_img, ep.support_mask, tube.frames, tube.masks)
            del ep, tube
        else:
            inputs = _episode_fields(episodes)
        loss = bulk_forward(*inputs, tracked, cfg, encoder).loss
    except FloatingPointError as err:
        raise DivergenceDetected(str(err)) from err
    del episodes, inputs  # the backward runs without the inputs: holding them moved the heap state
    grads = grad(tape, loss)
    named_grads = {name: grads[t] for name, t in name_map.items()}
    opt = AdamW(cfg.lr, cfg.steps + cfg.tube_steps, cfg.weight_decay)
    named, m, v = opt.step(state.params.named(), named_grads, state.m, state.v, state.step)
    return TrainState(params=ModelParams.from_named(named), m=m, v=v, step=state.step + 1,
                      sampler=sampler.bit_generator.state, drawn=drawn), loss.item()


def train(cfg: TrainConfig, fold: FoldSplit) -> TrainResult:
    """``train_step`` from ``initial_state`` for ``steps + tube_steps`` steps."""
    encoder = cfg.encoder(cfg.seed)
    state = initial_state(cfg)
    losses: list[float] = []
    while state.step < cfg.steps + cfg.tube_steps:
        state, loss = train_step(state, cfg, fold, encoder)
        losses.append(loss)
    return TrainResult(params=state.params, losses=tuple(losses))


def evaluate(params: ModelParams, cfg: TrainConfig, fold: FoldSplit,
             episodes_per_class: int | None = None) -> MetricReport:
    """Held-out evaluation over a fixed per-config seed set.

    Episode i of class c uses seed hash(cfg.seed, c, i), so two models
    evaluated under the same config see identical episodes.
    """
    n = cfg.eval_episodes_per_class if episodes_per_class is None else int(episodes_per_class)
    if not fold.test_classes:
        raise EmptyReport("fold has no test classes")
    if n < 1:
        raise EmptyReport("evaluation needs at least one episode per class")
    encoder = cfg.encoder(cfg.seed)
    canvas = (cfg.canvas, cfg.canvas)
    episodes = [gen_episode(cls, derive_seed(cfg.seed, tag("eval"), cls, i), canvas)
                for cls in fold.test_classes for i in range(n)]
    supports, support_masks, queries, query_masks = _episode_fields(episodes)
    probs = bulk_forward(supports, support_masks, queries, None, params, cfg, encoder).probs
    js, fs = mask_scores(binarize(upsample_map(probs, encoder.stride)).data, query_masks)
    class_iou = {cls: float(np.mean(per_class))     # the class's n episodes, in order
                 for cls, per_class in zip(fold.test_classes, js.reshape(-1, n))}
    j = float(np.mean(list(class_iou.values())))
    return MetricReport.from_classes(class_iou, j=j, f=float(np.mean(fs)))


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
    def loss_at(p: ModelParams) -> Tensor:
        return bulk_forward(*_episode_fields([ep]), p, cfg, encoder).loss     # a batch of one

    tape = GradTape()
    tracked, name_map = watch_params(tape, params)
    grads = grad(tape, loss_at(tracked))
    analytic = {name: grads[t].data for name, t in name_map.items()}

    base = params.named()
    rng = rng_for(seed, tag("gradcheck"))
    per_param: dict[str, float] = {}
    for name, tensor in base.items():
        coords = rng.choice(tensor.size, size=min(samples_per_param, tensor.size), replace=False)
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
    named: dict[str, Tensor] = {}
    for name, ref in init_params(cfg, seed=0).named().items():
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
