"""Flat key=value configuration dialect shared by models, profiles and the CLI.

One ``key=value`` pair per line; blank lines and ``#`` comments are
ignored; later duplicates win.  ``model_from_config`` and
``profile_from_config`` read the ``model.*`` and ``profile.*`` keys, and
``keys_read`` reports which keys a reader looks up.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

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


def _get(cfg: Mapping, key: str, default=None):
    if key in cfg:
        return cfg[key]
    if default is None:
        raise ValueError("missing required config key %r" % key)
    return default


def get_float(cfg: Mapping, key: str, default=None) -> float:
    return float(_get(cfg, key, default))


def _integral(key: str, raw) -> int:
    text = str(raw).strip()
    if text.lstrip("+-").isdigit():   # exact beyond 2**53, where a float is not
        return int(text)
    value = float(text)
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


class _Recording(dict):
    """A config that records the keys looked up in it with ``in``, as _get does."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def keys_read(reader, cfg: Mapping) -> set:
    """The keys ``reader`` (model_from_config or profile_from_config) looks up in ``cfg``.

    These are the parameters of the model kind or profile variant ``cfg``
    chooses.  A reader that fails raises its own error here.
    """
    recording = _Recording(cfg)
    reader(recording)
    return recording.read


def _power_entropy(coeff: float, exponent: float):
    def s(e):
        return coeff * e ** exponent

    def d1(e):
        return coeff * exponent * e ** (exponent - 1.0)

    def d2(e):
        return coeff * exponent * (exponent - 1.0) * e ** (exponent - 2.0)

    return s, d1, d2


def _log_entropy(coeff: float):
    def s(e):
        return coeff * np.log(e)

    def d1(e):
        return coeff / e

    def d2(e):
        return -coeff / (e * e)

    return s, d1, d2


def model_from_config(cfg: Mapping) -> object:
    """Build a density-of-states model from the ``model.*`` config keys.

    Kinds: ideal-gas (n, ln_prefactor), ising-chain (n, j), and
    custom-entropy with form=power (s = coeff * e**exponent) or form=log
    (s = coeff * ln e), plus an optional per-particle domain.
    """
    kind = get_str(cfg, "model.kind")
    n = get_int(cfg, "model.n")
    if kind == "ideal-gas":
        return IdealGas(n_particles=n,
                        ln_prefactor=get_float(cfg, "model.ln_prefactor", "0.0"))
    if kind == "ising-chain":
        return IsingChain(n_particles=n,
                          coupling=get_float(cfg, "model.j", "1.0"))
    if kind == "custom-entropy":
        form = get_str(cfg, "model.form")
        coeff = get_float(cfg, "model.coeff")
        if form == "power":
            s, d1, d2 = _power_entropy(coeff, get_float(cfg, "model.exponent"))
        elif form == "log":
            s, d1, d2 = _log_entropy(coeff)
        else:
            raise ValueError("unknown custom entropy form %r (use power or log)" % form)
        lo = get_float(cfg, "model.domain_lo", "0.0")
        hi = get_float(cfg, "model.domain_hi", "inf")
        return CustomEntropy(n_particles=n, entropy=s, entropy_d1=d1, entropy_d2=d2,
                             domain_per_particle=(lo, hi),
                             ln_prefactor=get_float(cfg, "model.ln_prefactor", "0.0"))
    raise ValueError("unknown model kind %r" % kind)


def _parse_lump_intervals(raw: str):
    out = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            lo, hi = token.split(":")
            out.append((float(lo), float(hi)))
        except ValueError:
            raise ValueError("lump interval %r is not lo:hi" % token) from None
    return out


def profile_from_config(cfg: Mapping) -> object:
    """Build an amplitude profile from the ``profile.*`` config keys.

    Lumps are flat on each interval of ``lumps=lo:hi,lo:hi,...``.
    """
    variant = get_str(cfg, "profile.variant")
    if variant == "algebraic-cutoff":
        return AlgebraicCutoff(e0=get_float(cfg, "profile.e0"),
                               e_max=get_float(cfg, "profile.e_max"),
                               alpha=get_float(cfg, "profile.alpha"),
                               ln_scale=get_float(cfg, "profile.ln_k", "0.0"))
    if variant == "exponential-cutoff":
        return ExponentialCutoff(e0=get_float(cfg, "profile.e0"),
                                 e1=get_float(cfg, "profile.e1"),
                                 gamma_exp=get_float(cfg, "profile.gamma"),
                                 e_max=get_float(cfg, "profile.e_max"),
                                 ln_scale=get_float(cfg, "profile.ln_k", "0.0"))
    if variant == "exponential-tail":
        return ExponentialTail(delta=get_float(cfg, "profile.delta"),
                               kappa=get_float(cfg, "profile.kappa"),
                               ln_scale=get_float(cfg, "profile.ln_k", "0.0"))
    if variant == "algebraic-tail":
        return AlgebraicTail(decay=get_float(cfg, "profile.eta"),
                             e_ref=get_float(cfg, "profile.e_ref", "1.0"),
                             ln_scale=get_float(cfg, "profile.ln_k", "0.0"))
    if variant == "uniform-window":
        return UniformWindow(e_min=get_float(cfg, "profile.e_min"),
                             e_max=get_float(cfg, "profile.e_max"))
    if variant == "lumps":
        return Lumps.uniform(_parse_lump_intervals(get_str(cfg, "profile.lumps")))
    raise ValueError("unknown profile variant %r" % variant)
