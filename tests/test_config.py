import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsam.config import (
    ABLATION_TOKENS,
    TrainConfig,
    apply_ablation,
    config_text,
    load_config,
    parse_config_text,
)
from dcsam.errors import ConfigError, IoError
from dcsam.pipeline import init_params


BASE = TrainConfig(lr=0.01, steps=50, batch=4, seed=7)


def test_round_trip_is_identity():
    cfg = TrainConfig(lr=2e-2, steps=500, batch=16, seed=2026,
                      embed_dim=16, n_queries=36, use_cyc_bias=False, tau=0.75)
    assert parse_config_text(config_text(cfg)) == cfg


def test_parse_minimal():
    cfg = parse_config_text("seed = 3\n")
    assert cfg.seed == 3
    assert cfg.lr == 1e-3
    assert cfg.steps == 500
    assert cfg.batch == 4
    assert cfg.canvas == 16


def test_parse_comments_and_blank_lines():
    text = "# run settings\n\nlr = 0.1  # tuned\nsteps = 10\nbatch = 2\nseed = 0\n"
    assert parse_config_text(text).lr == 0.1


def test_parse_bool_values():
    text = "lr = 0.1\nsteps = 1\nbatch = 1\nseed = 0\nuse_neg_branch = false\n"
    assert parse_config_text(text).use_neg_branch is False
    with pytest.raises(ConfigError, match="use_neg_branch"):
        parse_config_text(text.replace("false", "0"))


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="momentum"):
        parse_config_text("lr = 0.1\nsteps = 1\nbatch = 1\nseed = 0\nmomentum = 0.9\n")


def test_duplicate_key_named():
    with pytest.raises(ConfigError, match="lr"):
        parse_config_text("lr = 0.1\nlr = 0.2\nsteps = 1\nbatch = 1\nseed = 0\n")


def test_missing_required_key_named():
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text("lr = 0.1\nsteps = 1\nbatch = 1\n")


def test_unparseable_value_named():
    with pytest.raises(ConfigError, match="steps"):
        parse_config_text("lr = 0.1\nsteps = ten\nbatch = 1\nseed = 0\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\nlr = 0.1\n")


def test_value_validation():
    assert TrainConfig(lr=0.0, steps=1, batch=1, seed=0).lr == 0.0  # null update is legal
    with pytest.raises(ConfigError, match="lr"):
        TrainConfig(lr=-0.1, steps=1, batch=1, seed=0)
    with pytest.raises(ConfigError, match="steps"):
        TrainConfig(lr=0.1, steps=0, batch=1, seed=0)
    with pytest.raises(ConfigError, match="canvas"):
        TrainConfig(lr=0.1, steps=1, batch=1, seed=0, canvas=4)
    with pytest.raises(ConfigError, match="stride"):
        TrainConfig(lr=0.1, steps=1, batch=1, seed=0, canvas=15, stride=2)
    with pytest.raises(ConfigError, match="tau"):
        TrainConfig(lr=0.1, steps=1, batch=1, seed=0, tau=0.0)
    for key in ("embed_dim", "n_queries", "mid_channels", "high_channels", "stride"):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(seed=0, **{key: 0})


@pytest.mark.parametrize("key", ["lr", "weight_decay", "tau"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_floats_are_rejected_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config_text(f"seed = 0\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        TrainConfig(seed=0, **{key: float(value)})


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(config_text(BASE))
    assert load_config(path) == BASE
    with pytest.raises(IoError):
        load_config(tmp_path / "absent.cfg")


def test_apply_ablation_tokens():
    assert apply_ablation(BASE, "no-neg").use_neg_branch is False
    assert apply_ablation(BASE, "no-sam").use_sam_fusion is False
    assert apply_ablation(BASE, "no-cyc").use_cyc_bias is False
    assert apply_ablation(BASE, "no-prior").use_prior_mask is False
    combo = apply_ablation(BASE, "no-cyc, no-neg")
    assert combo.use_cyc_bias is False and combo.use_neg_branch is False
    assert combo.use_sam_fusion is True
    assert apply_ablation(BASE, "") == BASE


def test_apply_ablation_unknown_token():
    with pytest.raises(ConfigError, match="no-decoder"):
        apply_ablation(BASE, "no-decoder")
    assert set(ABLATION_TOKENS) == {"no-neg", "no-sam", "no-cyc", "no-prior"}


def test_model_reads_its_widths_from_the_config():
    cfg = TrainConfig(seed=0, canvas=12, embed_dim=8, n_queries=9, mid_channels=5,
                      high_channels=7, stride=3)
    enc = cfg.encoder(4)
    assert (enc.seed, enc.d_mid, enc.d_high, enc.d_sam, enc.stride) == (4, 5, 7, 8, 3)
    params = init_params(cfg, 4)
    assert params.fusion_w.shape == (8, 2 * 5 + 8 + 1)
    assert params.q_pos.shape == params.q_neg.shape == (9, 8)


FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    """A TrainConfig with every field drawn over its legal range."""
    stride = draw(st.integers(1, 16))
    count = st.integers(1, 2 ** 31)
    return TrainConfig(
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        lr=draw(st.floats(min_value=0.0, **FINITE)),
        steps=draw(count), batch=draw(count),
        weight_decay=draw(st.floats(min_value=0.0, **FINITE)),
        canvas=stride * draw(st.integers(-(-8 // stride), 2 ** 20)),
        embed_dim=draw(count), n_queries=draw(count),
        mid_channels=draw(count), high_channels=draw(count), stride=stride,
        tau=draw(st.floats(min_value=0.0, exclude_min=True, **FINITE)),
        use_neg_branch=draw(st.booleans()), use_sam_fusion=draw(st.booleans()),
        use_cyc_bias=draw(st.booleans()), use_prior_mask=draw(st.booleans()),
        eval_episodes_per_class=draw(count),
        tube_steps=draw(st.integers(0, 2 ** 31)), tube_frames=draw(count))


@settings(max_examples=300, deadline=None)
@given(configs())
def test_config_text_round_trips(cfg):
    text = config_text(cfg)
    assert parse_config_text(text) == cfg
    assert config_text(parse_config_text(text)) == text
