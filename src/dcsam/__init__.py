"""Dual-branch prompt generation for in-context segmentation.

A small, dependency-light reference stack: a float64 tensor kernel with a
reverse-mode tape, cyclic-consistent cross-attention, a positive/negative
prompt pipeline with a parameter-free decoder, synthetic episode and mask
tube generators, metrics, and a deterministic trainer, all behind one CLI.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .attention import (AttentionBlock, affinity, cross_attention, cycle_bias,
                        cycle_consistent_attention, self_attention)
from .config import TrainConfig, apply_ablation, config_text, load_config, parse_config_text
from .decoder import decode
from .dcst import read_tensor, tensor_bytes, tensor_from_bytes, write_tensor
from .encoder import EncoderMaps, StubEncoder
from .episodes import (CLASS_COUNT, Episode, FoldSplit, class_registry, gen_episode,
                       load_episode, save_episode, split_folds)
from .errors import (AllMasked, CheckpointMissing, ConfigError, DcsamError,
                     DivergenceDetected, EmptyReport, EmptySupportMask,
                     FrameCountMismatch, IoError, NonDivisibleClassCount,
                     ShapeMismatch, UnknownClass, UntrackedLoss)
from .losses import bce_loss, dice_loss, total_loss
from .metrics import (MetricReport, boundary_f, boundary_pixels, default_boundary_tol,
                      iou, jf_score, mask_scores, miou, write_report)
from .pipeline import (ModelParams, PromptSet, generate_prompts, infer_mask, init_params,
                       prior_mask, watch_params)
from .seeding import derive_seed, episode_seed, rng_for, tag
from .tensor import GradTape, Tensor, binarize, detach, grad, zeros
from .trainer import (AdamW, GradCheckResult, TrainResult, cosine_lr, evaluate,
                      grad_check, load_checkpoint, save_checkpoint, train)
from .video import MaskTube, TransformSpec, load_tube, make_tube, propagate_first_frame, save_tube, warp

__all__ = [
    "__version__",
    "AttentionBlock", "affinity", "cross_attention", "cycle_bias",
    "cycle_consistent_attention", "self_attention",
    "TrainConfig", "apply_ablation", "config_text", "load_config", "parse_config_text",
    "decode",
    "read_tensor", "tensor_bytes", "tensor_from_bytes", "write_tensor",
    "EncoderMaps", "StubEncoder",
    "CLASS_COUNT", "Episode", "FoldSplit", "class_registry", "gen_episode",
    "load_episode", "save_episode", "split_folds",
    "AllMasked", "CheckpointMissing", "ConfigError", "DcsamError", "DivergenceDetected",
    "EmptyReport", "EmptySupportMask", "FrameCountMismatch", "IoError",
    "NonDivisibleClassCount", "ShapeMismatch", "UnknownClass", "UntrackedLoss",
    "bce_loss", "dice_loss", "total_loss",
    "MetricReport", "boundary_f", "boundary_pixels", "default_boundary_tol", "iou",
    "jf_score", "mask_scores", "miou", "write_report",
    "ModelParams", "PromptSet", "generate_prompts", "infer_mask", "init_params",
    "prior_mask", "watch_params",
    "derive_seed", "episode_seed", "rng_for", "tag",
    "GradTape", "Tensor", "binarize", "detach", "grad", "zeros",
    "AdamW", "GradCheckResult", "TrainResult", "cosine_lr", "evaluate", "grad_check",
    "load_checkpoint", "save_checkpoint", "train",
    "MaskTube", "TransformSpec", "load_tube", "make_tube", "propagate_first_frame",
    "save_tube", "warp",
]
