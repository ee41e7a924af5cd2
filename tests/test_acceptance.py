"""Release gate: nine checks, one printed PASS/FAIL line each.

The lines print outside pytest's capture, so they appear on any run. Two
training stages dominate the runtime (a 500-step default-config run plus
fifteen short ablation runs). On a shared two-vCPU x86_64 VM (Python
3.11.7, NumPy 2.4.6) its checks took 193-197 s in all: 111-113 s for the
500-step run and 80-81 s for the ablation runs.
"""
import dataclasses
import time
import types
from pathlib import Path

import numpy as np
import pytest

import dcsam.tensor as tensor_module
from dcsam.attention import AttentionBlock, cross_attention, cycle_consistent_attention
from dcsam.cli import main
from dcsam.config import TrainConfig, apply_ablation, config_text, load_config
from dcsam.episodes import class_registry, gen_episode, split_folds
from dcsam.losses import bce_loss, dice_loss, total_loss
from dcsam.metrics import MetricReport, boundary_f, iou
from dcsam.oracles import run_cyc_suite
from dcsam.pipeline import init_params
from dcsam.seeding import derive_seed, tag
from dcsam.tensor import Tensor
from dcsam.trainer import evaluate, grad_check, grad_check_episode, train
from dcsam.video import make_tube, propagate_first_frame

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CFG = load_config(str(ROOT / "configs" / "default.cfg"))


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance {num} failed: {detail}"


@pytest.fixture(scope="module")
def fold0():
    return split_folds(class_registry(), 0)


@pytest.fixture(scope="module")
def trained_run(fold0):
    """Baseline eval, 500-step default-config training, held-out eval, timed."""
    cfg = DEFAULT_CFG
    start = time.perf_counter()
    baseline = evaluate(init_params(cfg, cfg.seed), cfg, fold0)
    result = train(cfg, fold0)
    trained = evaluate(result.params, cfg, fold0)
    seconds = time.perf_counter() - start
    return types.SimpleNamespace(cfg=cfg, params=result.params, baseline=baseline,
                                 trained=trained, seconds=seconds)


def test_acceptance_1_cycle_bias_oracle(capsys):
    start = time.perf_counter()
    res = run_cyc_suite(trials=1000, seed=0)
    seconds = time.perf_counter() - start
    ok = res.passed and seconds < 5.0
    _report(capsys, 1, ok,
            f"vectorized cycle bias matched the loop oracle on "
            f"{res.trials - res.failures}/{res.trials} instances "
            f"in {seconds:.2f}s (budget 5s)")


def test_acceptance_2_all_foreground_reduction(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n, hw, d = (int(rng.integers(1, 7)), int(rng.integers(1, 13)),
                    int(rng.integers(2, 7)))
        block = AttentionBlock(Tensor(rng.normal(size=(d, d))),
                               Tensor(rng.normal(size=(d, d))),
                               Tensor(rng.normal(size=(d, d))))
        queries = Tensor(rng.normal(size=(n, d)))
        feats = Tensor(rng.normal(size=(hw, d)))
        biased = cycle_consistent_attention(block, queries, feats,
                                            Tensor(np.ones(hw)))
        plain = cross_attention(block, queries, feats)
        worst = max(worst, float(np.abs(biased.data - plain.data).max()))
    ok = worst <= 1e-12
    _report(capsys, 2, ok,
            f"all-foreground bias reduces to plain cross-attention, "
            f"worst |diff| {worst:.2e} over 100 instances (tol 1e-12)")


def test_acceptance_3_gradient_suite(capsys, monkeypatch):
    cfg = TrainConfig(seed=5)
    params = init_params(cfg, cfg.seed)
    encoder = cfg.encoder(cfg.seed)
    ep = grad_check_episode(cfg, canvas=8)
    start = time.perf_counter()
    clean = grad_check(params, ep, cfg, encoder, samples_per_param=5)
    seconds = time.perf_counter() - start

    original = tensor_module._matmul_vjp

    def corrupted(g, a_data, b_data):
        ga, gb = original(g, a_data, b_data)
        return ga * 1.01, gb

    with monkeypatch.context() as m:
        m.setattr(tensor_module, "_matmul_vjp", corrupted)
        control = grad_check(params, ep, cfg, encoder, samples_per_param=5)

    ok = clean.passed and seconds < 60.0 and not control.passed
    _report(capsys, 3, ok,
            f"all {len(clean.per_param)} parameter tensors pass central "
            f"differences, worst rel err {clean.worst:.2e} (tol 1e-4) in "
            f"{seconds:.1f}s (budget 60s); corrupted backward fails: "
            f"{not control.passed}")


def test_acceptance_4_loss_identities(capsys):
    rng = np.random.default_rng(4)
    target = (rng.random((6, 6)) > 0.5).astype(float)
    half = Tensor(np.full((6, 6), 0.5))
    bce_err = abs(bce_loss(half, Tensor(target)).item() - np.log(2.0))

    perfect = dice_loss(Tensor(target.copy()), Tensor(target)).item()
    disjoint = dice_loss(Tensor(1.0 - target), Tensor(target)).item()

    pred = Tensor(rng.random((6, 6)))
    total = total_loss(pred, Tensor(target)).item()
    parts = bce_loss(pred, Tensor(target)).item() + dice_loss(pred, Tensor(target)).item()

    ok = (bce_err <= 1e-9 and abs(perfect) <= 2e-6 and abs(disjoint - 1.0) <= 2e-6
          and total == parts)
    _report(capsys, 4, ok,
            f"bce(0.5) off ln2 by {bce_err:.1e} (tol 1e-9); dice perfect "
            f"{perfect:.1e}, disjoint {disjoint:.8f} (tol 2e-6); "
            f"total == bce + dice exactly: {total == parts}")


def test_acceptance_5_metric_hand_cases(capsys):
    hand = iou(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]]))
    jf = MetricReport.from_tube(0.6, 0.8).jf

    rng = np.random.default_rng(5)
    symmetric = True
    for _ in range(50):
        a = (rng.random((10, 12)) > 0.6).astype(float)
        b = (rng.random((10, 12)) > 0.6).astype(float)
        if boundary_f(a, b) != boundary_f(b, a):
            symmetric = False
            break

    ok = hand == 0.5 and jf == 0.7 and symmetric
    _report(capsys, 5, ok,
            f"iou hand case {hand} (want 0.5 exactly); jf(0.6, 0.8) = {jf} "
            f"(want 0.7 exactly); boundary_f symmetric on 50 random pairs: "
            f"{symmetric}")


@pytest.mark.slow
def test_acceptance_6_toy_training(capsys, trained_run):
    delta = trained_run.trained.miou - trained_run.baseline.miou
    ok = delta >= 0.30 and trained_run.seconds < 300.0
    _report(capsys, 6, ok,
            f"default config, fold 0: held-out miou {trained_run.trained.miou:.4f} "
            f"vs untrained {trained_run.baseline.miou:.4f}, margin {delta:.4f} "
            f"(need >= 0.30) in {trained_run.seconds:.0f}s (budget 300s)")


@pytest.mark.slow
def test_acceptance_7_directional_ablation(capsys, fold0):
    means = {}
    for name in ("full", "no-cyc", "no-neg"):
        scores = []
        for seed in (1, 2, 3, 4, 5):
            cfg = TrainConfig(lr=0.01, steps=120, batch=8, seed=seed,
                              embed_dim=16, n_queries=36)
            if name != "full":
                cfg = apply_ablation(cfg, name)
            rep = evaluate(train(cfg, fold0).params, cfg, fold0,
                           episodes_per_class=40)
            scores.append(rep.miou)
        means[name] = float(np.mean(scores))
    d_cyc = means["full"] - means["no-cyc"]
    d_neg = means["full"] - means["no-neg"]
    ok = d_cyc >= 0.0 and d_neg >= 0.0
    _report(capsys, 7, ok,
            f"mean held-out miou over 5 paired seeds: full {means['full']:.4f}, "
            f"no-cyc-bias {means['no-cyc']:.4f} (delta {d_cyc:+.4f}), "
            f"no-neg-branch {means['no-neg']:.4f} (delta {d_neg:+.4f}); "
            f"need both deltas >= 0")


@pytest.mark.slow
def test_acceptance_8_tube_coherence(capsys, trained_run, fold0):
    cfg = trained_run.cfg
    encoder = cfg.encoder(cfg.seed)
    j_frames = np.zeros(8)
    for k in range(20):
        cls = fold0.test_classes[k % len(fold0.test_classes)]
        ep = gen_episode(cls, derive_seed(cfg.seed, tag("tube"), cls, k),
                         (cfg.canvas, cfg.canvas))
        tube = make_tube(ep, 8, derive_seed(cfg.seed, tag("tube"), k),
                         scale_grid=(1.0,), allow_flip=False)
        pred = propagate_first_frame(tube, ep.support_img, ep.support_mask,
                                     trained_run.params, cfg, encoder)
        for t in range(8):
            j_frames[t] += iou(pred.masks[t], tube.masks[t])
    j_frames /= 20
    decay = j_frames[0] - j_frames[7]
    ok = decay < 0.1
    _report(capsys, 8, ok,
            f"20 translation-only tubes (T=8): mean J frame0 {j_frames[0]:.4f} "
            f"-> frame7 {j_frames[7]:.4f}, decay {decay:.4f} (need < 0.1)")


def test_acceptance_9_train_determinism(capsys, tmp_path):
    cfg = dataclasses.replace(DEFAULT_CFG, steps=25, batch=4)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text(cfg))
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        code = main(["train", "--config", str(cfg_path), "--fold", "0",
                     "--out", str(out)])
        assert code == 0
    names = sorted(p.name for p in (outs[0] / "checkpoint").iterdir())
    identical = names == sorted(p.name for p in (outs[1] / "checkpoint").iterdir())
    for name in names:
        identical = identical and ((outs[0] / "checkpoint" / name).read_bytes()
                                   == (outs[1] / "checkpoint" / name).read_bytes())
    curves = ((outs[0] / "losses.csv").read_bytes()
              == (outs[1] / "losses.csv").read_bytes())
    ok = identical and curves
    _report(capsys, 9, ok,
            f"two identical-flag train runs: {len(names)} checkpoint files "
            f"bitwise-identical: {identical}; loss curves bitwise-identical: "
            f"{curves}")
