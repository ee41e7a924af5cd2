"""Self-contained reference implementations and randomized audit suites.

Everything here recomputes a result by the most literal method available
(explicit loops, scalar math, finite differences) and compares it against
the vectorized production path. The suites are what `dcsam oracle` runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import cycle_bias
from .config import TrainConfig
from .decoder import decode
from .episodes import CLASS_COUNT, gen_episode
from .losses import total_loss
from .pipeline import downsample_mask, generate_prompts, init_params, watch_params
from .seeding import derive_seed, rng_for, tag
from .tensor import GradTape, Tensor, grad, masked_softmax_rows
from .trainer import grad_check, stack_episodes


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


def cycle_bias_reference(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Triple-loop round-trip bias with explicit first-max tie breaking."""
    n, hw = a.shape
    bias = np.empty(hw)
    for j in range(hw):
        i_star = 0
        for i in range(1, n):
            if a[i, j] > a[i_star, j]:
                i_star = i
        j_star = 0
        for jp in range(1, hw):
            if a[i_star, jp] > a[i_star, j_star]:
                j_star = jp
        bias[j] = 0.0 if mask[j] == mask[j_star] else -np.inf
    return bias


def softmax_rows_reference(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Scalar-math row softmax; -inf bias entries contribute exactly zero."""
    rows, cols = x.shape
    out = np.zeros((rows, cols))
    for r in range(rows):
        logits = [x[r, c] + bias[c] for c in range(cols)]
        live = [c for c in range(cols) if logits[c] != -np.inf]
        top = max(logits[c] for c in live)
        weights = [math.exp(logits[c] - top) for c in live]
        total = sum(weights)
        for c, wgt in zip(live, weights):
            out[r, c] = wgt / total
    return out


def _bias_pattern(values: np.ndarray) -> np.ndarray:
    return np.isneginf(values)


def run_cyc_suite(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Random small affinities (half on a coarse grid to force ties) checked
    against the loop reference for an exactly equal keep/drop pattern."""
    rng = rng_for(seed, tag("oracle"), 1)
    failures = 0
    detail: list[str] = []
    for t in range(trials):
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
        got = cycle_bias(Tensor(a), Tensor(mask)).values.data
        want = cycle_bias_reference(a, mask)
        if not np.array_equal(_bias_pattern(got), _bias_pattern(want)):
            failures += 1
            if len(detail) < 5:
                detail.append(f"trial {t}: pattern mismatch for n={n} hw={hw}")
        elif not np.array_equal(got[~_bias_pattern(got)], want[~_bias_pattern(want)]):
            failures += 1
            if len(detail) < 5:
                detail.append(f"trial {t}: kept entries are not exactly zero")
    return SuiteResult("cyc", trials, failures, tuple(detail))


def run_softmax_suite(trials: int = 200, seed: int = 0) -> SuiteResult:
    rng = rng_for(seed, tag("oracle"), 2)
    failures = 0
    detail: list[str] = []
    for t in range(trials):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 8))
        x = rng.normal(size=(rows, cols)) * 3.0
        bias = np.zeros(cols)
        if cols > 1:
            drop = rng.random(cols) < 0.4
            if drop.all():
                drop[int(rng.integers(0, cols))] = False
            bias[drop] = -np.inf
        got = masked_softmax_rows(Tensor(x), Tensor(bias, neg_inf_ok=True)).data
        want = softmax_rows_reference(x, bias)
        ok = (np.abs(got - want).max() < 1e-12
              and np.abs(got.sum(axis=1) - 1.0).max() < 1e-9
              and (got[:, np.isneginf(bias)] == 0.0).all())
        if not ok:
            failures += 1
            if len(detail) < 5:
                detail.append(f"trial {t}: max dev {np.abs(got - want).max():.3e}")
    return SuiteResult("softmax", trials, failures, tuple(detail))


def run_grad_suite(trials: int = 2, seed: int = 0, samples_per_param: int = 4,
                   threshold: float = 1e-4) -> SuiteResult:
    """Finite-difference audit of the full prompt-generation + decode + loss
    path on small episodes; fails when any parameter's worst relative error
    reaches the threshold."""
    failures = 0
    detail: list[str] = []
    for t in range(trials):
        cfg = TrainConfig(lr=1e-2, steps=1, batch=1, seed=derive_seed(seed, tag("oracle"), 3, t),
                          canvas=8)
        pcfg = cfg.pipeline_config()
        encoder = pcfg.encoder(cfg.seed)
        ep = gen_episode(t % CLASS_COUNT, derive_seed(cfg.seed, tag("gradcheck"), t), (8, 8))
        params = init_params(pcfg, cfg.seed)
        result = grad_check(params, ep, pcfg, encoder,
                            samples_per_param=samples_per_param, threshold=threshold,
                            seed=cfg.seed)
        if not result.passed:
            failures += 1
            worst_name = max(result.per_param, key=result.per_param.get)
            if len(detail) < 5:
                detail.append(f"trial {t}: {worst_name} rel err {result.worst:.3e}")
    return SuiteResult("grad", trials, failures, tuple(detail))


def batch_run(episodes, params, pcfg, encoder) -> dict[str, np.ndarray]:
    """Prompts, pseudo masks, probabilities, batch-mean loss and parameter
    gradients of one stacked batch."""
    support_img, support_mask, query_img, query_mask = stack_episodes(episodes)
    enc_s = encoder.encode(support_img, batched=True)
    enc_q = encoder.encode(query_img, batched=True)
    mask_f = downsample_mask(support_mask, encoder.stride)
    tape = GradTape()
    tracked, name_map = watch_params(tape, params)
    prompts, pseudo = generate_prompts(enc_s, enc_q, mask_f, tracked, pcfg)
    probs = decode(prompts.pos_labeled, prompts.neg_labeled, enc_q.sam, pcfg.decoder_config())
    per_episode = total_loss(probs, downsample_mask(query_mask, encoder.stride), batched=True)
    loss = T.scale(T.sum_all(per_episode), 1.0 / len(episodes))
    grads = grad(tape, loss)
    out = {"pos": prompts.pos_labeled.data, "pseudo": pseudo.data, "probs": probs.data,
           "loss": loss.data}
    if prompts.neg_labeled is not None:
        out["neg"] = prompts.neg_labeled.data
    out.update({f"grad {name}": grads[t].data for name, t in name_map.items()})
    return out


def batch_loop_reference(episodes, params, pcfg, encoder) -> dict[str, np.ndarray]:
    """The same quantities as the batched path, from single-episode calls:
    results stacked in episode order, the loss summed in that order, and
    the gradients of that loss taken on one tape."""
    tape = GradTape()
    tracked, name_map = watch_params(tape, params)
    rows: dict[str, list[np.ndarray]] = {}
    acc = None
    for ep in episodes:
        enc_s, enc_q = encoder.encode(ep.support_img), encoder.encode(ep.query_img)
        mask_f = downsample_mask(ep.support_mask, encoder.stride)
        prompts, pseudo = generate_prompts(enc_s, enc_q, mask_f, tracked, pcfg)
        probs = decode(prompts.pos_labeled, prompts.neg_labeled, enc_q.sam, pcfg.decoder_config())
        row = {"pos": prompts.pos_labeled, "pseudo": pseudo, "probs": probs}
        if prompts.neg_labeled is not None:
            row["neg"] = prompts.neg_labeled
        for key, t in row.items():
            rows.setdefault(key, []).append(t.data)
        term = total_loss(probs, downsample_mask(ep.query_mask, encoder.stride))
        acc = term if acc is None else T.add(acc, term)
    loss = T.scale(acc, 1.0 / len(episodes))
    grads = grad(tape, loss)
    out = {key: np.stack(vals) for key, vals in rows.items()}
    out["loss"] = loss.data
    out.update({f"grad {name}": grads[t].data for name, t in name_map.items()})
    return out


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
    """Batched episodes against a loop of single-episode calls.

    Per trial, a random batch runs under one of ``BATCH_VARIANTS``: prompts,
    pseudo masks, probabilities, the loss and every parameter gradient must
    agree within ``BATCH_TOL``. A random batched affinity (half on a coarse
    grid to force ties) must give exactly the per-episode cycle biases.
    """
    rng = rng_for(seed, tag("oracle"), 4)
    failures = 0
    detail: list[str] = []
    for t in range(trials):
        variant = BATCH_VARIANTS[t % len(BATCH_VARIANTS)]
        cfg = TrainConfig(seed=derive_seed(seed, tag("oracle"), 4, t), canvas=8, **variant)
        pcfg = cfg.pipeline_config()
        encoder = pcfg.encoder(cfg.seed)
        params = init_params(pcfg, cfg.seed)
        b = int(rng.integers(1, max_batch + 1))
        episodes = [gen_episode(int(rng.integers(0, CLASS_COUNT)),
                                derive_seed(cfg.seed, tag("oracle"), i), (8, 8)) for i in range(b)]
        devs = batch_deviations(batch_run(episodes, params, pcfg, encoder),
                                batch_loop_reference(episodes, params, pcfg, encoder))
        worst = max(devs, key=devs.get)
        problems = [f"{worst} deviates by {devs[worst]:.3e}"] if devs[worst] > BATCH_TOL else []

        n, hw = int(rng.integers(1, 5)), int(rng.integers(1, 10))
        a = rng.normal(size=(b, n, hw))
        if t % 2 == 0:
            a = np.round(a)
        mask = rng.integers(0, 2, size=(b, hw)).astype(float)
        got = cycle_bias(Tensor(a), Tensor(mask)).values.data
        want = np.stack([cycle_bias(Tensor(a[i]), Tensor(mask[i])).values.data for i in range(b)])
        if not np.array_equal(got, want):
            problems.append("cycle-bias pattern differs from the per-episode one")
        if problems:
            failures += 1
            if len(detail) < 5:
                detail.append(f"trial {t} (B={b}, {variant or 'full model'}): {'; '.join(problems)}")
    return SuiteResult("batch", trials, failures, tuple(detail))


SUITES = {
    "cyc": run_cyc_suite,
    "softmax": run_softmax_suite,
    "grad": run_grad_suite,
    "batch": run_batch_suite,
}
