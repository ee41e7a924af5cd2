"""Run configuration: plain ``key = value`` files.

Lines are ``key = value``; ``#`` starts a comment; blank lines are ignored.
Unknown keys, duplicate keys, missing required keys, and unparseable values
all raise ConfigError naming the key. ``config_text`` writes the canonical
snapshot, which parses back to an identical config.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .encoder import StubEncoder
from .errors import ConfigError, IoError

REQUIRED_KEYS = ("seed",)

# CLI --ablate tokens and the switches they clear.
ABLATION_TOKENS = {
    "no-neg": "use_neg_branch",
    "no-sam": "use_sam_fusion",
    "no-cyc": "use_cyc_bias",
    "no-prior": "use_prior_mask",
}


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of a run, checked once when built: the optimizer, the
    data, the model's widths and its four ablation switches. Every layer
    reads this one object."""

    seed: int
    lr: float = 1e-3
    steps: int = 500
    batch: int = 4
    weight_decay: float = 1e-5
    canvas: int = 16
    embed_dim: int = 12
    n_queries: int = 25
    mid_channels: int = 6
    high_channels: int = 6
    stride: int = 1
    tau: float = 1.0
    use_neg_branch: bool = True
    use_sam_fusion: bool = True
    use_cyc_bias: bool = True
    use_prior_mask: bool = True
    eval_episodes_per_class: int = 200
    tube_steps: int = 0
    tube_frames: int = 4

    def __post_init__(self):
        checks = (
            # zero freezes the parameters (null update); negative rates are nonsense
            ("lr", 0.0 <= self.lr < math.inf),
            ("steps", self.steps >= 1),
            ("batch", self.batch >= 1),
            ("weight_decay", 0.0 <= self.weight_decay < math.inf),
            ("canvas", self.canvas >= 8),
            ("embed_dim", self.embed_dim >= 1),
            ("n_queries", self.n_queries >= 1),
            ("mid_channels", self.mid_channels >= 1),
            ("high_channels", self.high_channels >= 1),
            ("stride", self.stride >= 1 and self.canvas % self.stride == 0),
            ("tau", 0.0 < self.tau < math.inf),
            ("eval_episodes_per_class", self.eval_episodes_per_class >= 1),
            ("tube_steps", self.tube_steps >= 0),
            ("tube_frames", self.tube_frames >= 1),
        )
        for key, ok in checks:
            if not ok:
                raise ConfigError(f"invalid value for key {key!r}: {getattr(self, key)!r}")

    def encoder(self, seed: int) -> StubEncoder:
        # The SAM-like width doubles as the prompt width: the decoder scores
        # prompts directly against that map.
        return StubEncoder(seed, d_mid=self.mid_channels, d_high=self.high_channels,
                           d_sam=self.embed_dim, stride=self.stride)

    def pipeline_config(self) -> TrainConfig:
        # An alias for perfbench/run.py:180, its one caller.
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _parse_value(key: str, raw: str):
    ftype = _FIELDS[key].type
    if ftype == "bool":
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ConfigError(f"key {key!r} expects true/false, got {raw!r}")
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
    except ValueError as err:
        raise ConfigError(f"key {key!r}: {err}") from None
    raise ConfigError(f"key {key!r} has unsupported type {ftype}")


def parse_config_text(text: str) -> TrainConfig:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    for key in REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    return TrainConfig(**values)


def load_config(path: str | Path) -> TrainConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise IoError(f"cannot read config {path}: {err}") from err
    return parse_config_text(text)


def config_text(cfg: TrainConfig) -> str:
    lines = []
    for f in dataclasses.fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def apply_ablation(cfg: TrainConfig, tokens: str) -> TrainConfig:
    """Clear the switches named by a comma-separated token list (e.g. 'no-cyc,no-neg')."""
    updates: dict[str, bool] = {}
    for token in filter(None, map(str.strip, tokens.split(","))):
        if token not in ABLATION_TOKENS:
            raise ConfigError(
                f"unknown ablation token {token!r}; known: {', '.join(sorted(ABLATION_TOKENS))}")
        updates[ABLATION_TOKENS[token]] = False
    return dataclasses.replace(cfg, **updates)
