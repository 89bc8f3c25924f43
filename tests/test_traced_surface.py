"""The library surface the benchmark's tracer patches by name.

``perfbench/tracing.py`` wraps each density's and each profile's own
log-function, and a few module-level entry points.  A deletion or rename
there would break traced benchmark runs; these checks fail first.
"""

import importlib

import pytest

from sharpdist import CustomEntropy, IdealGas, IsingChain
from sharpdist.profiles import AmplitudeProfile, profile_classes


def _library_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("sharpdist."):
            yield sub
        yield from _library_subclasses(sub)


def test_profile_classes_lists_every_profile_with_its_own_ln_amp_sq():
    classes = set(profile_classes().values())
    assert classes == set(_library_subclasses(AmplitudeProfile))
    for cls in classes:
        assert "ln_amp_sq" in cls.__dict__, cls.__name__


@pytest.mark.parametrize("cls", [IdealGas, IsingChain, CustomEntropy],
                         ids=lambda cls: cls.__name__)
def test_each_model_defines_its_own_ln_density(cls):
    assert "ln_density" in cls.__dict__


@pytest.mark.parametrize("module, name", [
    ("distribution", "peak"),
    ("scaling", "sweep_point"),
    ("oracle", "prepare_state"),
    ("csvio", "write_csv"),
])
def test_traced_entry_points_are_module_attributes(module, name):
    assert callable(getattr(importlib.import_module("sharpdist." + module), name))
