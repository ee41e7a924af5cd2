"""Episode bundles, tube bundles and checkpoints share one writer
(``dcst.write_bundle``) and one ``key = integer`` reader (``util.read_fields``):
their on-disk layout is pinned here, and their metadata files obey one grammar."""
import re

import numpy as np
import pytest

from dcsam.cli import main
from dcsam.config import TrainConfig
from dcsam.dcst import tensor_bytes
from dcsam.episodes import gen_episode, load_episode, save_episode
from dcsam.errors import IoError
from dcsam.pipeline import init_params
from dcsam.tensor import Tensor
from dcsam.trainer import load_checkpoint, save_checkpoint
from dcsam.video import MaskTube, TransformSpec, load_tube, make_tube, save_tube

CFG = TrainConfig(seed=11, lr=0.01, steps=3, batch=2, canvas=8, embed_dim=6, n_queries=4,
                  mid_channels=3, high_channels=3)

CONFIG_TEXT = """\
seed = 11
lr = 0.01
steps = 3
batch = 2
weight_decay = 1e-05
canvas = 8
embed_dim = 6
n_queries = 4
mid_channels = 3
high_channels = 3
stride = 1
tau = 1.0
use_neg_branch = true
use_sam_fusion = true
use_cyc_bias = true
use_prior_mask = true
eval_episodes_per_class = 200
tube_steps = 0
tube_frames = 4
"""

PARAM_NAMES = ["fusion_w", "fusion_b",
               "attn_support_wq", "attn_support_wk", "attn_support_wv",
               "attn_query_wq", "attn_query_wk", "attn_query_wv",
               "attn_self_wq", "attn_self_wk", "attn_self_wv",
               "q_pos", "q_neg", "e_pos", "e_neg"]


def _relative(paths, root):
    return [p.relative_to(root).as_posix() for p in paths]


def _files_under(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def _assert_tensor_files(root, named):
    for name, t in named.items():
        assert (root / name).read_bytes() == tensor_bytes(t), name


def test_episode_bundle_format_is_pinned(tmp_path):
    ep = gen_episode(5, 3, (8, 8))
    written = save_episode(tmp_path, ep)
    assert _relative(written, tmp_path) == [
        "support.dcst", "support_mask.dcst", "query.dcst", "query_mask.dcst", "meta.txt"]
    assert _files_under(tmp_path) == sorted(_relative(written, tmp_path))
    assert (tmp_path / "meta.txt").read_bytes() == b"class_id = 5\nseed = 3\n"
    _assert_tensor_files(tmp_path, {"support.dcst": ep.support_img,
                                    "support_mask.dcst": ep.support_mask,
                                    "query.dcst": ep.query_img,
                                    "query_mask.dcst": ep.query_mask})


def test_tube_bundle_format_is_pinned(tmp_path):
    rng = np.random.default_rng(7)
    frames = tuple(Tensor(rng.uniform(0.0, 1.0, (8, 8))) for _ in range(3))
    masks = tuple(Tensor((rng.uniform(0.0, 1.0, (8, 8)) > 0.5).astype(np.float64))
                  for _ in range(3))
    transforms = (TransformSpec(dx=0, dy=0, flip=False, scale=1.0),
                  TransformSpec(dx=1, dy=-2, flip=True, scale=1.1),
                  TransformSpec(dx=-3, dy=0, flip=False, scale=0.9))
    tube = MaskTube(frames=frames, masks=masks, transforms=transforms, class_id=3, seed=9)
    save_tube(tmp_path, tube)
    assert _files_under(tmp_path) == [
        "frames/frame_0000.dcst", "frames/frame_0001.dcst", "frames/frame_0002.dcst",
        "masks/mask_0000.dcst", "masks/mask_0001.dcst", "masks/mask_0002.dcst", "meta.txt"]
    assert (tmp_path / "meta.txt").read_bytes() == (
        b"class_id = 3\nseed = 9\nframes = 3\n"
        b"0 0 0 0 1.0\n1 1 -2 1 1.1\n2 -3 0 0 0.9\n")
    named = {f"frames/frame_{t:04d}.dcst": f for t, f in enumerate(frames)}
    named.update({f"masks/mask_{t:04d}.dcst": m for t, m in enumerate(masks)})
    _assert_tensor_files(tmp_path, named)


def test_checkpoint_format_is_pinned(tmp_path):
    params = init_params(CFG.pipeline_config(), seed=0)
    save_checkpoint(tmp_path, params, CFG, 7)
    assert _files_under(tmp_path) == sorted(
        [f"{name}.dcst" for name in PARAM_NAMES] + ["optimizer.txt", "config.txt"])
    assert (tmp_path / "optimizer.txt").read_bytes() == b"step = 7\n"
    assert (tmp_path / "config.txt").read_bytes() == CONFIG_TEXT.encode()
    _assert_tensor_files(tmp_path, {f"{name}.dcst": t for name, t in params.named().items()})


def _episode_bundle(root):
    save_episode(root, gen_episode(2, 5, (8, 8)))
    return root / "meta.txt", lambda: load_episode(root)


def _tube_bundle(root):
    save_tube(root, make_tube(gen_episode(9, 33, (8, 8)), 3, seed=21))
    return root / "meta.txt", lambda: load_tube(root)


def _checkpoint(root):
    save_checkpoint(root, init_params(CFG.pipeline_config(), seed=0), CFG, 4)
    return root / "optimizer.txt", lambda: load_checkpoint(root)


METADATA = pytest.mark.parametrize("make", [_episode_bundle, _tube_bundle, _checkpoint],
                                   ids=["episode-meta", "tube-meta", "optimizer"])


@METADATA
def test_metadata_skips_comments_and_blank_lines(tmp_path, make):
    path, load = make(tmp_path / "bundle")
    want = load()
    path.write_text("# regenerated by hand\n\n" + path.read_text())
    got = load()
    if isinstance(want, tuple):  # a checkpoint: params, config, step
        assert got[1:] == want[1:]
    else:
        assert (got.class_id, got.seed) == (want.class_id, want.seed)


@METADATA
@pytest.mark.parametrize("extra, word", [(None, "repeated key"),
                                         ("bogus = 1", "unknown key 'bogus'"),
                                         ("bogus: 1", "malformed line 'bogus: 1'")])
def test_metadata_grammar_errors_name_the_file(tmp_path, make, extra, word):
    path, load = make(tmp_path / "bundle")
    good = path.read_text()
    line = good.splitlines()[0] if extra is None else extra
    path.write_text(good + line + "\n")
    with pytest.raises(IoError, match=re.escape(str(path)) + ".*" + word):
        load()


@pytest.mark.parametrize("count", [0, 10 ** 15])
def test_tube_frame_count_checked_against_the_transform_log(tmp_path, count):
    path, load = _tube_bundle(tmp_path / "bundle")
    lines = path.read_text().splitlines()
    if count == 0:
        lines = [ln for ln in lines if "=" in ln]
    path.write_text("\n".join(ln.replace("frames = 3", f"frames = {count}") for ln in lines)
                    + "\n")
    with pytest.raises(IoError, match=re.escape(str(path))):
        load()


@pytest.mark.parametrize("target", ["episode/meta.txt", "ckpt/optimizer.txt",
                                    "ckpt/config.txt"])
def test_undecodable_metadata_exits_three_naming_the_file(tmp_path, capsys, target):
    save_episode(tmp_path / "episode", gen_episode(0, 5, (8, 8)))
    save_checkpoint(tmp_path / "ckpt", init_params(CFG.pipeline_config(), seed=0), CFG, 3)
    path = tmp_path / target
    path.write_bytes(b"\xff" + path.read_bytes())
    capsys.readouterr()
    assert main(["tube", "--ckpt", str(tmp_path / "ckpt"), "--episode",
                 str(tmp_path / "episode"), "--frames", "2", "--out", str(tmp_path / "t")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
