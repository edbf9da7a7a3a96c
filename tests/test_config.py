"""Run configuration: pinned defaults, text round-trip, env precedence."""

import pytest

from mca.config import (
    TrainConfig,
    VARIANTS,
    config_from_text,
    config_to_text,
    load_config,
    parse_override,
)
from mca.errors import ConfigError


def test_pinned_toy_defaults():
    cfg = TrainConfig()
    assert cfg.image_size == 64
    assert cfg.patch_size == 16
    assert cfg.channels == 3
    assert cfg.embed_dim == 64
    assert cfg.num_layers == 4
    assert cfg.num_heads == 4
    assert cfg.mlp_ratio == 4
    assert cfg.bottleneck == 8
    assert cfg.temperature == 0.1
    assert cfg.strategy == "CJ+RS"
    assert cfg.batch_size == 8
    assert cfg.epochs == 30
    assert cfg.lr_start == 2e-4
    assert cfg.lr_end == 1e-7
    assert cfg.loss_weights == (1.0, 1.0, 1.0, 1.0)
    assert cfg.variant == "mca"
    assert cfg.seed == 0


def test_variant_gating_table():
    expectations = {
        "decoder_only": (False, False, False),
        "adaptor_plain": (True, False, False),
        "tc_only": (True, True, False),
        "sc_only": (True, False, True),
        "mca": (True, True, True),
    }
    assert set(VARIANTS) == set(expectations)
    for variant, (adapt, tok, samp) in expectations.items():
        cfg = TrainConfig(variant=variant)
        assert cfg.adaptors_enabled == adapt, variant
        assert cfg.use_token_loss == tok, variant
        assert cfg.use_sample_loss == samp, variant


def test_undecodable_config_file(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"# caf\xe9\nepochs = 1\n")
    with pytest.raises(ConfigError, match="bad.cfg"):
        load_config(str(path))


def test_validation_errors():
    with pytest.raises(ConfigError):
        TrainConfig(variant="resnet")
    with pytest.raises(ConfigError):
        TrainConfig(lr_start=1e-7, lr_end=2e-4)
    with pytest.raises(ConfigError):
        TrainConfig(lr_end=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(bottleneck=5)  # does not divide embed_dim 64
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError):
        TrainConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(temperature=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(strategy="CJ+Blur")
    with pytest.raises(ConfigError):
        TrainConfig(image_size=50, patch_size=16)
    with pytest.raises(ConfigError):
        TrainConfig(image_size=30)  # geometry is checked by EncoderConfig
    # Zero or negative geometry is refused before any modulo by it.
    for bad in (dict(bottleneck=0), dict(num_heads=0), dict(patch_size=0),
                dict(patch_size=-16), dict(num_heads=-4), dict(embed_dim=0)):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


def test_text_round_trip():
    cfg = TrainConfig(variant="tc_only", epochs=5, lr_start=1e-3, out_dir="runs/x")
    text = config_to_text(cfg)
    assert "variant = tc_only" in text
    assert config_from_text(text) == cfg


@pytest.mark.parametrize("field, value", [
    ("out_dir", "runs/#1"),  # '#' starts a comment
    ("data_root", "d\na"),  # a line break ends the line
    ("data_root", "d a "),  # each value is stripped
])
def test_str_values_that_would_not_read_back_are_refused(field, value):
    with pytest.raises(ConfigError, match=f"^{field} = "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["w_bce", "w_iou", "w_cl_t", "w_cl_s", "lr_start", "lr_end",
                                   "temperature"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_values_are_refused(field, value):
    # Each would pass the range checks or fail them under another key's name.
    with pytest.raises(ConfigError, match=f"^{field} must be finite, got {value}$"):
        TrainConfig(**{field: value})


def test_repeated_key_is_refused_naming_both_lines():
    with pytest.raises(ConfigError, match=r"^config key 'seed' is set twice, on lines 1 and 3$"):
        config_from_text("seed = 1\nepochs = 2\nseed = 2\n")


def test_text_parsing_comments_and_errors():
    cfg = config_from_text("# comment\nepochs = 3  # inline\n\nseed=9\n")
    assert cfg.epochs == 3 and cfg.seed == 9
    with pytest.raises(ConfigError):
        config_from_text("unknown_key = 1\n")
    with pytest.raises(ConfigError):
        config_from_text("epochs three\n")
    with pytest.raises(ConfigError):
        config_from_text("epochs = three\n")


def test_load_config_precedence(tmp_path, monkeypatch):
    path = tmp_path / "cfg.txt"
    path.write_text("epochs = 7\nseed = 3\n")
    monkeypatch.delenv("MCA_SEED", raising=False)
    cfg = load_config(str(path))
    assert cfg.epochs == 7 and cfg.seed == 3
    # Explicit overrides beat the file.
    cfg = load_config(str(path), overrides={"seed": 5, "epochs": 2})
    assert cfg.epochs == 2 and cfg.seed == 5
    # The environment seed beats both.
    monkeypatch.setenv("MCA_SEED", "11")
    cfg = load_config(str(path), overrides={"seed": 5})
    assert cfg.seed == 11
    monkeypatch.setenv("MCA_SEED", "eleven")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_no_file(monkeypatch):
    monkeypatch.delenv("MCA_SEED", raising=False)
    assert load_config(None) == TrainConfig()
    with pytest.raises(ConfigError):
        load_config(None, overrides={"made_up": 1})


def test_parse_override():
    assert parse_override("epochs=4") == ("epochs", 4)
    assert parse_override("lr_start = 0.001") == ("lr_start", 0.001)
    with pytest.raises(ConfigError):
        parse_override("epochs")
    with pytest.raises(ConfigError):
        parse_override("nope=1")
    with pytest.raises(ConfigError):
        parse_override("epochs=x")
