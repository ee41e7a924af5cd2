"""Episode bundles, tube bundles and checkpoints share one writer
(``dcst.write_bundle``) and one ``key = integer`` reader (``util.read_fields``):
their on-disk layout is pinned here, their metadata files obey one grammar, and
the tensors of episodes and tubes pass one reader (``dcst.read_bundle``)."""
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsam.cli import main
from dcsam.config import TrainConfig
from dcsam.dcst import read_tensor, tensor_bytes, write_tensor
from dcsam.episodes import gen_episode, load_episode, save_episode
from dcsam.errors import CheckpointMissing, IoError
from dcsam.pipeline import ModelParams, init_params
from dcsam.tensor import Tensor, is_binary
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
    params = init_params(CFG, seed=0)
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
    save_checkpoint(root, init_params(CFG, seed=0), CFG, 4)
    return root / "optimizer.txt", lambda: load_checkpoint(root)


MAKERS = {"episode": _episode_bundle, "tube": _tube_bundle, "checkpoint": _checkpoint}
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


@pytest.mark.parametrize("make, key", [(_episode_bundle, "seed"), (_tube_bundle, "frames"),
                                       (_checkpoint, "step")],
                         ids=["episode-meta", "tube-meta", "optimizer"])
def test_a_missing_key_raises_io_error_naming_the_file_and_the_key(tmp_path, make, key):
    path, load = make(tmp_path / "bundle")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith(f"{key} =")))
    with pytest.raises(IoError, match=re.escape(f"{path}: missing key {key!r}")):
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
    save_checkpoint(tmp_path / "ckpt", init_params(CFG, seed=0), CFG, 3)
    path = tmp_path / target
    path.write_bytes(b"\xff" + path.read_bytes())
    capsys.readouterr()
    assert main(["tube", "--ckpt", str(tmp_path / "ckpt"), "--episode",
                 str(tmp_path / "episode"), "--frames", "2", "--out", str(tmp_path / "t")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


# Mask files of an episode and a tube bundle, and the loader of each.
MASK_FILES = [("episode", "support_mask.dcst"), ("episode", "query_mask.dcst"),
              ("tube", "masks/mask_0001.dcst")]


def _bundle(kind, root):
    return MAKERS[kind](root)[1]


def _loaded_masks(loaded):
    if isinstance(loaded, MaskTube):
        return loaded.masks
    return loaded.support_mask, loaded.query_mask


@pytest.mark.parametrize("kind, name, fault",
                         [(kind, name, "half") for kind, name in MASK_FILES]
                         + [(kind, name, "shape") for kind, name in MASK_FILES]
                         + [("episode", "query.dcst", "shape"),
                            ("tube", "frames/frame_0002.dcst", "shape")])
def test_a_non_binary_mask_or_a_stray_shape_exits_three_naming_the_file(
        tmp_path, capsys, kind, name, fault):
    load = _bundle(kind, tmp_path / "bundle")
    path = tmp_path / "bundle" / name
    data = read_tensor(path).data.copy()
    if fault == "half":
        data[0, 0] = 0.5
    else:
        data = data[:, :-1]
    write_tensor(path, Tensor(data))
    word = "mask values must be 0 or 1" if fault == "half" else "does not match"
    with pytest.raises(IoError, match=re.escape(str(path)) + ".*" + word):
        load()
    if kind == "episode":
        save_checkpoint(tmp_path / "ckpt", init_params(CFG, seed=0), CFG, 3)
        capsys.readouterr()
        assert main(["tube", "--ckpt", str(tmp_path / "ckpt"), "--episode",
                     str(tmp_path / "bundle"), "--frames", "2", "--out", str(tmp_path / "t")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


def _changed(raw, change):
    cut, pos, byte = change
    if cut is not None:
        return raw[:cut % len(raw)]
    out = bytearray(raw)
    out[pos % len(raw)] = byte
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MASK_FILES),
       st.one_of(st.tuples(st.integers(0, 10 ** 6), st.none(), st.none()),
                 st.tuples(st.none(), st.integers(0, 10 ** 6), st.integers(0, 255))))
def test_a_changed_mask_file_loads_binary_or_raises_io_error_naming_it(target, change):
    # a truncation or a single-byte change: no other exception type escapes
    kind, name = target
    with tempfile.TemporaryDirectory() as tmp:
        load = _bundle(kind, Path(tmp))
        path = Path(tmp) / name
        path.write_bytes(_changed(path.read_bytes(), change))
        try:
            loaded = load()
        except IoError as err:
            assert str(path) in str(err)
        else:
            assert all(is_binary(m.data) for m in _loaded_masks(loaded))


# Every other kind of bundle file: images, frames, metadata and checkpoints.
BUNDLE_FILES = [("episode", "support.dcst"), ("episode", "query.dcst"), ("episode", "meta.txt"),
                ("tube", "frames/frame_0001.dcst"), ("tube", "meta.txt"),
                ("checkpoint", "fusion_w.dcst"), ("checkpoint", "e_neg.dcst"),
                ("checkpoint", "config.txt"), ("checkpoint", "optimizer.txt")]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUNDLE_FILES),
       st.one_of(st.tuples(st.integers(0, 10 ** 6), st.none(), st.none()),
                 st.tuples(st.none(), st.integers(0, 10 ** 6), st.integers(0, 255))))
def test_a_changed_bundle_file_loads_or_raises_an_error_naming_it(target, change):
    kind, name = target
    with tempfile.TemporaryDirectory() as tmp:
        load = _bundle(kind, Path(tmp))
        path = Path(tmp) / name
        path.write_bytes(_changed(path.read_bytes(), change))
        try:
            load()
        except (IoError, CheckpointMissing) as err:
            assert str(path) in str(err)


def test_a_changed_width_in_a_checkpoint_config_names_the_config(tmp_path):
    path, load = _checkpoint(tmp_path)
    config = tmp_path / "config.txt"
    config.write_text(config.read_text().replace("embed_dim = 6", "embed_dim = 7"))
    with pytest.raises(IoError, match=re.escape(str(config))):
        load()


@settings(max_examples=40, deadline=None)
@given(class_id=st.integers(0, 15), seed=st.integers(0, 2**31 - 1),
       canvas=st.tuples(st.integers(8, 24), st.integers(8, 24)))
def test_an_episode_reads_back_exactly(class_id, seed, canvas):
    ep = gen_episode(class_id, seed, canvas)
    with tempfile.TemporaryDirectory() as tmp:
        save_episode(tmp, ep)
        back = load_episode(tmp)
    assert (back.class_id, back.seed) == (ep.class_id, ep.seed)
    for name in ("support_img", "support_mask", "query_img", "query_mask"):
        assert getattr(back, name).data.tobytes() == getattr(ep, name).data.tobytes(), name


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), embed_dim=st.integers(1, 8), n_queries=st.integers(1, 6),
       channels=st.integers(1, 4), exponent=st.integers(-30, 30), step=st.integers(0, 10**6))
def test_a_checkpoint_reads_back_within_float32_rounding(seed, embed_dim, n_queries, channels,
                                                        exponent, step):
    cfg = TrainConfig(seed=seed, embed_dim=embed_dim, n_queries=n_queries,
                      mid_channels=channels, high_channels=channels)
    params = {name: Tensor(t.data * 10.0 ** exponent)
              for name, t in init_params(cfg, seed).named().items()}
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(tmp, ModelParams.from_named(params), cfg, step)
        back, back_cfg, back_step = load_checkpoint(tmp)
    assert (back_cfg, back_step) == (cfg, step)
    for name, t in back.named().items():   # .dcst v1 stores float32
        assert t.data.tobytes() == params[name].data.astype(np.float32).astype(np.float64).tobytes()
