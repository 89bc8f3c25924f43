"""Flat key=value configuration dialect shared by models, profiles and the CLI.

One ``key=value`` pair per line; blank lines and ``#`` comments are
ignored; later duplicates win.  The same dialect round-trips profiles:
``profile_from_config(profile_to_config(p)) == p`` because floats are
serialized with shortest round-trip repr.
"""

from __future__ import annotations

import math
from typing import Mapping

from .dos import CustomEntropy, IdealGas, IsingChain
from .profiles import (AlgebraicCutoff, AlgebraicTail, ExponentialCutoff,
                       ExponentialTail, Lumps, UniformWindow)


def parse_kv_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError("line %d is not key=value: %r" % (lineno, raw))
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def format_kv(mapping: Mapping) -> str:
    return "\n".join("%s=%s" % (k, mapping[k]) for k in sorted(mapping)) + "\n"


def _get(cfg: Mapping, key: str, default=None):
    if key in cfg:
        return cfg[key]
    if default is None:
        raise ValueError("missing required config key %r" % key)
    return default


def get_float(cfg: Mapping, key: str, default=None) -> float:
    return float(_get(cfg, key, default))


def _integral(key: str, raw) -> int:
    value = float(raw)
    if not value.is_integer():
        raise ValueError("config key %r must be an integer, got %r" % (key, raw))
    return int(value)


def get_int(cfg: Mapping, key: str, default=None) -> int:
    return _integral(key, _get(cfg, key, default))


def get_str(cfg: Mapping, key: str, default=None) -> str:
    return str(_get(cfg, key, default))


def get_int_list(cfg: Mapping, key: str, default=None):
    raw = str(_get(cfg, key, default))
    return [_integral(key, tok) for tok in raw.split(",") if tok.strip()]


def _power_entropy(coeff: float, exponent: float):
    def s(e, v):
        return coeff * e ** exponent

    def d1(e, v):
        return coeff * exponent * e ** (exponent - 1.0)

    def d2(e, v):
        return coeff * exponent * (exponent - 1.0) * e ** (exponent - 2.0)

    return s, d1, d2


def _log_entropy(coeff: float):
    def s(e, v):
        return coeff * math.log(e)

    def d1(e, v):
        return coeff / e

    def d2(e, v):
        return -coeff / (e * e)

    return s, d1, d2


def model_from_config(cfg: Mapping, prefix: str = "model.") -> object:
    """Build a density-of-states model from config keys under ``prefix``.

    Kinds: ideal-gas (n, ln_prefactor), ising-chain (n, j), and
    custom-entropy with form=power (s = coeff * e**exponent) or form=log
    (s = coeff * ln e), plus an optional per-particle domain and the
    volume per particle v handed to the entropy.
    """
    kind = get_str(cfg, prefix + "kind")
    n = get_int(cfg, prefix + "n")
    if kind == "ideal-gas":
        return IdealGas(n_particles=n,
                        ln_prefactor=get_float(cfg, prefix + "ln_prefactor", "0.0"))
    if kind == "ising-chain":
        return IsingChain(n_particles=n,
                          coupling=get_float(cfg, prefix + "j", "1.0"))
    if kind == "custom-entropy":
        form = get_str(cfg, prefix + "form")
        coeff = get_float(cfg, prefix + "coeff")
        if form == "power":
            s, d1, d2 = _power_entropy(coeff, get_float(cfg, prefix + "exponent"))
        elif form == "log":
            s, d1, d2 = _log_entropy(coeff)
        else:
            raise ValueError("unknown custom entropy form %r (use power or log)" % form)
        lo = get_float(cfg, prefix + "domain_lo", "0.0")
        hi = get_float(cfg, prefix + "domain_hi", "inf")
        return CustomEntropy(n_particles=n, entropy=s, entropy_d1=d1, entropy_d2=d2,
                             domain_per_particle=(lo, hi),
                             ln_prefactor=get_float(cfg, prefix + "ln_prefactor", "0.0"),
                             volume_per_particle=get_float(cfg, prefix + "v", "1.0"))
    raise ValueError("unknown model kind %r" % kind)


def _parse_lump_intervals(raw: str):
    out = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        lo, hi = token.split(":")
        out.append((float(lo), float(hi)))
    return out


def profile_from_config(cfg: Mapping, prefix: str = "profile.") -> object:
    """Build an amplitude profile from config keys under ``prefix``.

    Lump sub-profiles are restricted to uniform windows in the config
    dialect (``lumps=lo:hi,lo:hi,...``); the Python API has no such limit.
    """
    variant = get_str(cfg, prefix + "variant")
    if variant == "algebraic-cutoff":
        return AlgebraicCutoff(e0=get_float(cfg, prefix + "e0"),
                               e_max=get_float(cfg, prefix + "e_max"),
                               alpha=get_float(cfg, prefix + "alpha"),
                               ln_scale=get_float(cfg, prefix + "ln_k", "0.0"))
    if variant == "exponential-cutoff":
        return ExponentialCutoff(e0=get_float(cfg, prefix + "e0"),
                                 e1=get_float(cfg, prefix + "e1"),
                                 gamma_exp=get_float(cfg, prefix + "gamma"),
                                 e_max=get_float(cfg, prefix + "e_max"),
                                 ln_scale=get_float(cfg, prefix + "ln_k", "0.0"))
    if variant == "exponential-tail":
        return ExponentialTail(delta=get_float(cfg, prefix + "delta"),
                               kappa=get_float(cfg, prefix + "kappa"),
                               ln_scale=get_float(cfg, prefix + "ln_k", "0.0"))
    if variant == "algebraic-tail":
        return AlgebraicTail(decay=get_float(cfg, prefix + "eta"),
                             e_ref=get_float(cfg, prefix + "e_ref", "1.0"),
                             ln_scale=get_float(cfg, prefix + "ln_k", "0.0"))
    if variant == "uniform-window":
        return UniformWindow(e_min=get_float(cfg, prefix + "e_min"),
                             e_max=get_float(cfg, prefix + "e_max"))
    if variant == "lumps":
        return Lumps.uniform(_parse_lump_intervals(get_str(cfg, prefix + "lumps")))
    raise ValueError("unknown profile variant %r" % variant)


def profile_to_config(profile, prefix: str = "profile.") -> dict:
    """Serialize a profile back to the config dialect (inverse of from_config)."""
    out = {prefix + "variant": profile.variant}
    if isinstance(profile, AlgebraicCutoff):
        out[prefix + "e0"] = repr(profile.e0)
        out[prefix + "e_max"] = repr(profile.e_max)
        out[prefix + "alpha"] = repr(profile.alpha)
        out[prefix + "ln_k"] = repr(profile.ln_scale)
    elif isinstance(profile, ExponentialCutoff):
        out[prefix + "e0"] = repr(profile.e0)
        out[prefix + "e1"] = repr(profile.e1)
        out[prefix + "gamma"] = repr(profile.gamma_exp)
        out[prefix + "e_max"] = repr(profile.e_max)
        out[prefix + "ln_k"] = repr(profile.ln_scale)
    elif isinstance(profile, ExponentialTail):
        out[prefix + "delta"] = repr(profile.delta)
        out[prefix + "kappa"] = repr(profile.kappa)
        out[prefix + "ln_k"] = repr(profile.ln_scale)
    elif isinstance(profile, AlgebraicTail):
        out[prefix + "eta"] = repr(profile.decay)
        out[prefix + "e_ref"] = repr(profile.e_ref)
        out[prefix + "ln_k"] = repr(profile.ln_scale)
    elif isinstance(profile, UniformWindow):
        out[prefix + "e_min"] = repr(profile.e_min)
        out[prefix + "e_max"] = repr(profile.e_max)
    elif isinstance(profile, Lumps):
        if not all(isinstance(sub, UniformWindow) and (sub.e_min, sub.e_max) == (lo, hi)
                   for lo, hi, sub in profile.pieces):
            raise ValueError("only uniform lumps are representable in the config dialect")
        out[prefix + "lumps"] = ",".join("%s:%s" % (repr(lo), repr(hi))
                                         for lo, hi, _ in profile.pieces)
    else:
        raise ValueError("cannot serialize profile %r" % type(profile).__name__)
    return out
