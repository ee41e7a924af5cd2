"""Production held to ``dcsam.reference`` beyond the suites' regime.

The ``reference`` and ``batch`` suites run at canvas 8, default widths and
initial parameters. Here a property test draws any valid model config and
batch, and a short fixed training run at the gate's canvas gives the
parameters no suite sees: the reference, batch and tube comparisons run at
them, and the forward also at ten times them.
"""
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcsam import decoder
from dcsam import episodes as episodes_module
from dcsam import reference
from dcsam import tensor as T
from dcsam.config import TrainConfig, load_config
from dcsam.episodes import CLASS_COUNT, class_registry, gen_episode, split_folds
from dcsam.errors import EmptySupportMask
from dcsam.oracles import (BATCH_TOL, REFERENCE_TOL, batch_gradient_deviations,
                           reference_deviations, tube_mismatches)
from dcsam.pipeline import ModelParams, bulk_forward, downsample_mask, init_params, max_cosine_map
from dcsam.tensor import Tensor
from dcsam.trainer import train
from dcsam.video import make_tube

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def test_the_reference_states_the_episodes_constants():
    for name in ("CLASS_COUNT", "MIN_AREA_FRAC", "MAX_AREA_FRAC", "MAX_OVERLAP_FRAC"):
        assert getattr(reference, name) == getattr(episodes_module, name), name


def random_episodes(rng, count, canvas):
    return [gen_episode(int(rng.integers(0, CLASS_COUNT)), int(rng.integers(0, 2**31)),
                        (canvas, canvas)) for _ in range(count)]


def stacked(episodes, name):
    return Tensor(np.stack([getattr(ep, name).data for ep in episodes]))


def encoded(episodes, encoder):
    """The episodes' stacked support and query maps, and their support masks
    at the feature resolution."""
    return (encoder.encode(stacked(episodes, "support_img"), batched=True),
            encoder.encode(stacked(episodes, "query_img"), batched=True),
            downsample_mask(stacked(episodes, "support_mask"), encoder.stride))


@st.composite
def model_draws(draw):
    """A valid ``TrainConfig``, drawn over every value the forward reads, and
    1-4 episodes at its canvas. The optimizer's, the run's and the
    evaluation's values do not reach the forward and keep their defaults."""
    canvas = draw(st.integers(8, 24))
    cfg = TrainConfig(
        seed=draw(st.integers(0, 2**32 - 1)), canvas=canvas,
        stride=draw(st.sampled_from([s for s in (1, 2, 4) if canvas % s == 0])),
        embed_dim=draw(st.integers(1, 32)), n_queries=draw(st.integers(1, 64)),
        mid_channels=draw(st.integers(1, 8)), high_channels=draw(st.integers(1, 8)),
        tau=draw(st.floats(0.01, 10.0)), use_neg_branch=draw(st.booleans()),
        use_sam_fusion=draw(st.booleans()), use_cyc_bias=draw(st.booleans()),
        use_prior_mask=draw(st.booleans()))
    pairs = draw(st.lists(st.tuples(st.integers(0, CLASS_COUNT - 1), st.integers(0, 2**31 - 1)),
                          min_size=1, max_size=4))
    return cfg, [gen_episode(c, s, (canvas, canvas)) for c, s in pairs]


# The gate's model at its canvas 16; stride 4 on canvas 8, where a target can
# cover every feature cell and leave the negative branch without support; two
# high channels on canvas 22, where the negative branch's prior spans 2e-4.
GATE = TrainConfig(seed=7, embed_dim=16, n_queries=36)
EMPTY_NEGATIVE = TrainConfig(seed=3, canvas=8, stride=4, n_queries=4)
FLAT_PRIOR = TrainConfig(seed=20626, canvas=22, embed_dim=5, n_queries=54, mid_channels=4,
                         high_channels=2, tau=5.698737184669555, use_sam_fusion=False)


def forward_tolerance(episodes, encoder, cfg) -> float:
    """``REFERENCE_TOL``, or more where the prior mask is ill-conditioned.

    The prior is min-max normalized, (raw - min) / span, over a map of best
    cosines. Each side takes a cosine over h high channels within about
    (h + 4) ulps (unit vectors in production, a product over norms in the
    reference), so their priors can differ by up to 3 * 2 * (h + 4) ulps
    over the span: the numerator's two roundings and the span's own. The
    fused tokens, and so the prompts and probabilities, carry that
    difference on with a gain below 1 at initial parameters (0.44 where it
    was measured). The bound passes ``REFERENCE_TOL`` only for spans below
    6 * (h + 4) ulps / 1e-12, 0.016 at h = 8; two high channels over a large
    support leave every best cosine near 1 and spans near 2e-4.
    """
    if not cfg.use_prior_mask:
        return REFERENCE_TOL
    enc_s, enc_q, mask_f = encoded(episodes, encoder)
    branch_masks = [mask_f.data] + ([1.0 - mask_f.data] if cfg.use_neg_branch else [])
    span = min(float(np.ptp(max_cosine_map(enc_q.high, enc_s.high, Tensor(m)).data
                            .reshape(len(m), -1), axis=1).min()) for m in branch_masks)
    ulps = 6 * (cfg.high_channels + 4) * np.finfo(np.float64).eps
    return max(REFERENCE_TOL, ulps / span) if span > 0.0 else REFERENCE_TOL


def hold_to_reference(cfg, episodes):
    """Production's forward at ``init_params`` within ``forward_tolerance``
    of the reference, and the tape's gradient along one direction over every
    parameter within ``BATCH_TOL`` of the reference's complex step; or, when
    a branch's support mask is empty at the feature resolution,
    ``EmptySupportMask``."""
    encoder = cfg.encoder(cfg.seed)
    params = init_params(cfg, cfg.seed)
    masks = encoded(episodes, encoder)[2].data.reshape(len(episodes), -1)
    if not masks.any(axis=1).all() or (cfg.use_neg_branch and not (masks == 0.0).any(axis=1).all()):
        with pytest.raises(EmptySupportMask):
            reference_deviations(episodes, params, cfg, encoder)
        return
    devs = reference_deviations(episodes, params, cfg, encoder)
    assert max(devs.values()) <= forward_tolerance(episodes, encoder, cfg), f"forward deviates: {devs}"
    grads = batch_gradient_deviations(episodes, params, cfg, encoder,
                                      np.random.default_rng(cfg.seed), per_tensor=False)
    assert grads["grad all"] <= BATCH_TOL, f"gradient deviates: {grads}"


@settings(max_examples=80, deadline=None, derandomize=True)
@example(draw=(GATE, [gen_episode(c, 100 + c, (16, 16)) for c in (0, 13)]))
@example(draw=(EMPTY_NEGATIVE, [gen_episode(1, 0, (8, 8))]))
@example(draw=(FLAT_PRIOR, [gen_episode(1, 262144, (22, 22))]))
@given(draw=model_draws())
def test_production_holds_to_the_reference_over_the_settable_configs(draw):
    hold_to_reference(*draw)


def test_the_explicit_examples_reach_their_corners():
    masks = encoded([gen_episode(1, 0, (8, 8))], EMPTY_NEGATIVE.encoder(3))[2].data
    assert (masks == 1.0).all()
    flat = [gen_episode(1, 262144, (22, 22))]
    assert forward_tolerance(flat, FLAT_PRIOR.encoder(20626), FLAT_PRIOR) > 10 * REFERENCE_TOL


@pytest.fixture(scope="module")
def trained():
    """The gate's config trained for a fixed 60 steps at batch 8 (canvas 16)."""
    cfg = dataclasses.replace(load_config(CONFIG), steps=60, batch=8)
    return cfg, train(cfg, split_folds(class_registry(), 0)).params


def hold_trained_to_reference(cfg, params):
    """The ``reference``, ``batch`` and ``tube`` comparisons at ``params``:
    batches of 1, 3 and 8 episodes (gradients per tensor for one episode,
    along one direction over all of them otherwise) and tubes of 1, 5 and 9
    frames, within ``REFERENCE_TOL`` and ``BATCH_TOL``, masks byte for byte."""
    encoder = cfg.encoder(cfg.seed)
    rng = np.random.default_rng(60)
    for b in (1, 3, 8):
        episodes = random_episodes(rng, b, cfg.canvas)
        devs = reference_deviations(episodes, params, cfg, encoder)
        assert max(devs.values()) <= REFERENCE_TOL, f"forward deviates at B={b}: {devs}"
        grads = batch_gradient_deviations(episodes, params, cfg, encoder, rng, per_tensor=b == 1)
        assert max(grads.values()) <= BATCH_TOL, f"gradient deviates at B={b}: {grads}"
    for frames in (1, 5, 9):
        ep = random_episodes(rng, 1, cfg.canvas)[0]
        tube = make_tube(ep, frames, int(rng.integers(0, 2**31)))
        assert tube_mismatches(ep, tube, params, cfg, encoder) == [], frames


def test_production_holds_to_the_reference_at_trained_parameters(trained):
    hold_trained_to_reference(*trained)


def probs_bound(prompts, sam: np.ndarray, tau: float, devs: dict[str, float]) -> float:
    """The largest probability deviation that the prompts' deviations and the
    decode's rounding allow, from the scale of the scores it differences.

    probs = sigmoid(s+ - s-) with s = tau * logsumexp_i(<p_i, f> / tau) over
    N prompts, and the sigmoid's slope is at most 1/4, so |dprobs| <=
    (|ds+| + |ds-|) / 4. No <p_i, f> exceeds S = max(1, max |p|) *
    max_f ||f||_1 in magnitude, so |s| <= S + tau * log N. A score is off by
    what its prompts bring, at most eta * S for prompts within eta relative
    to max(1, max |p|) (their deviation in ``reference_deviations``), plus
    each side's rounding: gamma_d * S for the length-d products, a few ulps
    of |s| for the scalings, the exponentials and the logarithm, and N * eps
    * tau for the sum of N exponentials (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 3.1 and 4.2). Both sides together
    stay below 2 * eps * ((d + 8) * (S + tau * log N) + N * tau). Hence

        |dprobs| <= sum over branches of
                    (eta * S + 2 * eps * ((d + 8) * (S + tau * log N) + N * tau)) / 4.
    """
    d = sam.shape[-3]
    f_norm = np.abs(sam).reshape(sam.shape[0], d, -1).sum(axis=1).max()
    eps = np.finfo(np.float64).eps
    total = 0.0
    for name, p in (("pos", prompts.pos), ("neg", prompts.neg)):
        if p is not None:
            n, scale = p.shape[-2], max(1.0, np.abs(p.data).max()) * f_norm
            total += (devs[name] * scale
                      + 2 * eps * ((d + 8) * (scale + tau * np.log(n)) + n * tau)) / 4
    return total


def test_probabilities_at_ten_times_trained_parameters_stay_within_the_logit_scale_bound(trained):
    # At 10x, |prompt| reaches about 1e3 and the decode differences scores of
    # that size, so probs can leave REFERENCE_TOL while nothing else does.
    cfg, params = trained
    big = ModelParams.from_named({name: Tensor(10.0 * t.data) for name, t in params.named().items()})
    encoder = cfg.encoder(cfg.seed)
    episodes = random_episodes(np.random.default_rng(600), 8, cfg.canvas)
    devs = reference_deviations(episodes, big, cfg, encoder)
    prompts = bulk_forward(*([getattr(ep, name) for ep in episodes] for name in
                             ("support_img", "support_mask", "query_img", "query_mask")),
                           big, cfg, encoder).prompts       # a training forward: one stack
    bound = probs_bound(prompts, encoded(episodes, encoder)[1].sam.data, cfg.tau, devs)
    assert devs.pop("probs") <= bound, bound
    assert max(devs.values()) <= REFERENCE_TOL, devs


def test_both_checks_catch_a_branch_score_off_by_one_part_in_a_billion(monkeypatch, trained):
    original = decoder._branch_score

    def scaled(prompts, flat_feats, tau):
        return T.scale(original(prompts, flat_feats, tau), 1.0 + 1e-9)

    monkeypatch.setattr(decoder, "_branch_score", scaled)
    with pytest.raises(AssertionError, match="forward deviates"):
        test_production_holds_to_the_reference_over_the_settable_configs()
    with pytest.raises(AssertionError, match="forward deviates"):
        hold_trained_to_reference(*trained)
