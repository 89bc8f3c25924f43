import math

import pytest

from sharpdist import (AlgebraicCutoff, AlgebraicTail, ExponentialCutoff,
                       ExponentialTail, IdealGas, IsingChain, Lumps,
                       UniformWindow, format_kv, model_from_config,
                       parse_kv_text, profile_from_config, profile_to_config)
from sharpdist.configio import get_int, get_int_list


def test_parse_kv_basics():
    text = """
# a comment
model.kind = ideal-gas
model.n=100

profile.variant=uniform-window
"""
    cfg = parse_kv_text(text)
    assert cfg == {"model.kind": "ideal-gas", "model.n": "100",
                   "profile.variant": "uniform-window"}


def test_parse_kv_last_duplicate_wins():
    cfg = parse_kv_text("a=1\na=2\n")
    assert cfg["a"] == "2"


def test_parse_kv_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        parse_kv_text("a=1\nnot a pair\n")


def test_format_parse_round_trip():
    cfg = {"b": "2", "a": "hello", "c.d": "-1.5e-3"}
    assert parse_kv_text(format_kv(cfg)) == cfg


def test_model_from_config_ideal_gas():
    model = model_from_config({"model.kind": "ideal-gas", "model.n": "100"})
    assert isinstance(model, IdealGas)
    assert model.ln_density(2.0) == IdealGas(100).ln_density(2.0)


def test_model_from_config_ising():
    model = model_from_config({"model.kind": "ising-chain", "model.n": "50",
                               "model.j": "2.0"})
    assert isinstance(model, IsingChain)
    assert model.band_bottom == -98.0


def test_model_from_config_custom_power():
    model = model_from_config({"model.kind": "custom-entropy", "model.n": "10",
                               "model.form": "power", "model.coeff": "2.0",
                               "model.exponent": "0.5"})
    s, d1, d2 = model.entropy_derivatives(4.0)
    assert s == pytest.approx(4.0)
    assert d1 == pytest.approx(0.5)
    assert d2 == pytest.approx(-0.0625)


def test_model_from_config_custom_log():
    model = model_from_config({"model.kind": "custom-entropy", "model.n": "100",
                               "model.form": "log", "model.coeff": "1.5"})
    assert model.ln_density(2.0) == pytest.approx(
        100.0 * 1.5 * math.log(0.02), rel=1e-12)


def test_model_from_config_errors():
    with pytest.raises(ValueError, match="model.n"):
        model_from_config({"model.kind": "ideal-gas"})
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_config({"model.kind": "harmonic", "model.n": "5"})


@pytest.mark.parametrize("profile", [
    AlgebraicCutoff(e0=0.25, e_max=1.5, alpha=2.5, ln_scale=-0.75),
    ExponentialCutoff(e0=-1.0, e1=0.3, gamma_exp=1.5, e_max=2.0, ln_scale=0.5),
    ExponentialTail(delta=2.0, kappa=0.8, ln_scale=1.25),
    AlgebraicTail(decay=153.0, e_ref=1.0),
    UniformWindow(0.0, 1.0),
    Lumps.uniform([(0.0, 0.5), (0.8, 1.0)]),
])
def test_profile_round_trip_is_identity(profile):
    cfg = profile_to_config(profile)
    text = format_kv(cfg)
    rebuilt = profile_from_config(parse_kv_text(text))
    assert rebuilt == profile
    assert profile_to_config(rebuilt) == cfg


def test_profile_from_config_errors():
    with pytest.raises(ValueError, match="unknown profile variant"):
        profile_from_config({"profile.variant": "triangle"})
    with pytest.raises(ValueError, match="profile.delta"):
        profile_from_config({"profile.variant": "exponential-tail",
                             "profile.kappa": "1.0"})


def test_integer_keys_reject_non_integral_values():
    cfg = {"a": "4097.9", "b": "4097.0", "c": "1e3", "d": "100,250.5", "e": "100, 2e2"}
    with pytest.raises(ValueError, match="'a'"):
        get_int(cfg, "a")
    assert get_int(cfg, "b") == 4097
    assert get_int(cfg, "c") == 1000
    with pytest.raises(ValueError, match="'d'"):
        get_int_list(cfg, "d")
    assert get_int_list(cfg, "e") == [100, 200]
    with pytest.raises(ValueError, match="model.n"):
        model_from_config({"model.kind": "ideal-gas", "model.n": "100.5"})
