"""Every shape and rank guard raises its documented error and names the bad shape."""
import numpy as np
import pytest

from dcsam import tensor as T
from dcsam.attention import AttentionBlock
from dcsam.config import TrainConfig
from dcsam.encoder import StubEncoder
from dcsam.episodes import Episode
from dcsam.errors import FrameCountMismatch, ShapeMismatch
from dcsam.pipeline import generate_prompts, init_params
from dcsam.tensor import Tensor
from dcsam.video import MaskTube


def zeros(*shape):
    return Tensor(np.zeros(shape))


def mismatched_episode():
    return Episode(support_img=zeros(8, 8), support_mask=zeros(8, 9), query_img=zeros(8, 8),
                   query_mask=zeros(8, 8), class_id=0, seed=0)


def mismatched_query_maps():
    cfg = TrainConfig(seed=0, canvas=8)
    encoder = cfg.encoder(cfg.seed)
    support = encoder.encode(Tensor(np.random.default_rng(0).random((8, 8))))
    query = encoder.encode(Tensor(np.random.default_rng(1).random((8, 12))))
    mask = Tensor(np.eye(8))
    generate_prompts(support, query, mask, init_params(cfg, cfg.seed), cfg)


CASES = {
    "attention block wk and wv": (
        lambda: AttentionBlock(wq=zeros(3, 3), wk=zeros(3, 4), wv=zeros(3, 3)),
        ShapeMismatch, r"wk \(3, 4\)"),
    "encoder width": (lambda: StubEncoder(0, 0, 2, 2, 1), ShapeMismatch, r"widths \(0, 2, 2\)"),
    "encoder stride": (lambda: StubEncoder(0, 2, 2, 2, 0), ShapeMismatch, r"stride 0"),
    "episode tensors": (mismatched_episode, ShapeMismatch, r"\(8, 9\)"),
    "query maps": (mismatched_query_maps, ShapeMismatch, r"query maps \(6, 8, 12\)"),
    "transpose 1-D": (lambda: T.transpose(zeros(3)), ShapeMismatch, r"got \(3,\)"),
    "concat nothing": (lambda: T.concat_channels([]), ShapeMismatch, r"at least one tensor"),
    "concat 2-D": (lambda: T.concat_channels([zeros(2, 3)]), ShapeMismatch,
                   r"\(2, 3\) has no channel axis"),
    "tile 3-D": (lambda: T.tile_spatial(zeros(1, 2, 3), 2, 2), ShapeMismatch, r"got \(1, 2, 3\)"),
    "rowvec width": (lambda: T.add_rowvec(zeros(2, 3), zeros(4)), ShapeMismatch,
                     r"matrix \(2, 3\) and vector \(4,\)"),
    "batched sum of a scalar": (lambda: T.sum_all(zeros(), batched=True), ShapeMismatch,
                                r"got shape \(\)"),
    "logsumexp 1-D": (lambda: T.logsumexp0(zeros(3)), ShapeMismatch, r"got \(3,\)"),
    "conv ranks": (lambda: T.conv1x1(zeros(2, 3), zeros(2, 2), zeros(2)), ShapeMismatch,
                   r"got \(2, 3\), \(2, 2\), \(2,\)"),
    "tube of no frames": (
        lambda: MaskTube(frames=(), masks=(), transforms=(), class_id=0, seed=0).validate(),
        FrameCountMismatch, r"got 0"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_bad_shape_raises_its_error_naming_the_shape(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()
