import math

import pytest

from sharpdist import (AlgebraicCutoff, AlgebraicTail, ExponentialCutoff,
                       ExponentialTail, IdealGas, IsingChain, Lumps,
                       UniformWindow, model_from_config, parse_kv_text,
                       profile_from_config)
from sharpdist.configio import get_int, get_int_list, keys_read
from sharpdist.csvio import config_comments


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
    d1, d2 = model.entropy_slopes(4.0)
    assert model.ln_density(40.0) / 10 == pytest.approx(4.0)
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


# one config per profile variant, in the dialect's shortest round-trip floats
PROFILE_CONFIGS = {
    "algebraic-cutoff": {"profile.variant": "algebraic-cutoff", "profile.e0": "0.25",
                         "profile.e_max": "1.5", "profile.alpha": "2.5",
                         "profile.ln_k": "-0.75"},
    "exponential-cutoff": {"profile.variant": "exponential-cutoff", "profile.e0": "-1.0",
                           "profile.e1": "0.3", "profile.gamma": "1.5",
                           "profile.e_max": "2.0", "profile.ln_k": "0.5"},
    "exponential-tail": {"profile.variant": "exponential-tail", "profile.delta": "2.0",
                         "profile.kappa": "0.8", "profile.ln_k": "1.25"},
    "algebraic-tail": {"profile.variant": "algebraic-tail", "profile.eta": "153.0",
                       "profile.e_ref": "1.0", "profile.ln_k": "0.0"},
    "uniform-window": {"profile.variant": "uniform-window", "profile.e_min": "0.0",
                       "profile.e_max": "1.0"},
    "lumps": {"profile.variant": "lumps", "profile.lumps": "0.0:0.5,0.8:1.0"},
}

# each profile with the variant that writes it: a uniform window is a Lumps profile
PROFILES = [
    ("algebraic-cutoff", AlgebraicCutoff(e0=0.25, e_max=1.5, alpha=2.5, ln_scale=-0.75)),
    ("exponential-cutoff", ExponentialCutoff(e0=-1.0, e1=0.3, gamma_exp=1.5, e_max=2.0,
                                             ln_scale=0.5)),
    ("exponential-tail", ExponentialTail(delta=2.0, kappa=0.8, ln_scale=1.25)),
    ("algebraic-tail", AlgebraicTail(decay=153.0, e_ref=1.0)),
    ("uniform-window", UniformWindow(0.0, 1.0)),
    ("lumps", Lumps.uniform([(0.0, 0.5), (0.8, 1.0)])),
]


@pytest.mark.parametrize("variant, profile", PROFILES,
                         ids=["profile%d" % i for i in range(len(PROFILES))])
def test_profile_round_trip_is_identity(variant, profile):
    """A profile's config, echoed into a CSV header, reads back as the same profile."""
    cfg = PROFILE_CONFIGS[variant]
    # the header's first two lines are the tool version and the command
    echoed = parse_kv_text("\n".join(config_comments("0.1.0", "dist", cfg)[2:]))
    assert echoed == cfg
    assert profile_from_config(echoed) == profile


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


def test_integer_keys_beyond_two_to_the_53_are_exact():
    """An integer literal is parsed as an int; a float would round 2**53 + 1 down."""
    cfg = {"k": "9007199254740993", "l": "9007199254740993,-9007199254740995"}
    assert get_int(cfg, "k") == 2 ** 53 + 1
    assert get_int_list(cfg, "l") == [2 ** 53 + 1, -(2 ** 53 + 3)]
    assert model_from_config({"model.kind": "ideal-gas",
                              "model.n": "9007199254740993"}).n_particles == 2 ** 53 + 1


@pytest.mark.parametrize("cfg", [
    {"model.kind": "ideal-gas", "model.n": "100", "model.ln_prefactor": "0.5"},
    {"model.kind": "ising-chain", "model.n": "50", "model.j": "2.0"},
    {"model.kind": "custom-entropy", "model.n": "10", "model.form": "power",
     "model.coeff": "2.0", "model.exponent": "0.5", "model.domain_lo": "0.0",
     "model.domain_hi": "inf", "model.ln_prefactor": "0.0"},
], ids=lambda cfg: cfg["model.kind"])
def test_keys_read_are_the_parameters_of_the_model_kind(cfg):
    assert keys_read(model_from_config, {**cfg, "model.v": "2.0", "seed": "0"}) == set(cfg)


@pytest.mark.parametrize("variant", sorted(PROFILE_CONFIGS))
def test_keys_read_are_the_parameters_of_the_profile_variant(variant):
    cfg = PROFILE_CONFIGS[variant]
    assert keys_read(profile_from_config, {**cfg, "profile.kapa": "5"}) == set(cfg)


def test_keys_read_raises_the_readers_error():
    with pytest.raises(ValueError, match="unknown profile variant"):
        keys_read(profile_from_config, {"profile.variant": "triangle"})
