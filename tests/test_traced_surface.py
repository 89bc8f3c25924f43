"""The library surface the benchmark reaches by name.

``perfbench/tracing.py`` wraps each density's and each profile's own
log-function, and a few module-level entry points; ``workloads.py`` and
``run.py`` build their inputs through ``sd.<name>``.  A deletion or rename
there would break benchmark runs; these checks fail first.
"""

import importlib
import re
import types
from pathlib import Path

import pytest

import sharpdist
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


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# every sd.<dotted name> of the benchmark files that import sharpdist as sd
_SD_NAMES = sorted({name for script in ("workloads.py", "run.py", "tracing.py")
                    for name in re.findall(r"\bsd\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)",
                                           (_PERFBENCH / script).read_text(encoding="utf-8"))})


def test_benchmark_files_name_the_library_through_sd():
    assert {"Lumps.uniform", "DELTA_SCALINGS", "state_moments",
            "SweepRecord", "cli.main"} <= set(_SD_NAMES)


@pytest.mark.parametrize("dotted", _SD_NAMES)
def test_every_name_the_benchmark_uses_resolves(dotted):
    obj, path = sharpdist, "sharpdist"
    for part in dotted.split("."):
        path += "." + part
        if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
            importlib.import_module(path)  # a submodule the package does not import
        obj = getattr(obj, part)
