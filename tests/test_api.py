"""The public surface: each module's ``__all__`` resolves, no public name is
exported by two modules, and ``numint`` is the integration engine only."""

import importlib

import pytest

MODULES = ("specfun", "ntg", "blyth", "numint", "risk", "regress", "verify", "cli")


def _module(name):
    return importlib.import_module(f"ntglab.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = _module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_no_name_exported_twice():
    owners = {}
    for name in MODULES:
        for attr in _module(name).__all__:
            owners.setdefault(attr, []).append(name)
    assert {attr: mods for attr, mods in owners.items() if len(mods) > 1} == {}


def test_numint_is_the_engine_only():
    numint = _module("numint")
    assert set(numint.__all__) == {
        "EstimateWithError", "QuadratureError", "integrate_1d", "mc_estimate",
    }
    from_specfun = {
        attr for attr, obj in vars(numint).items()
        if getattr(obj, "__module__", None) == "ntglab.specfun"
    }
    assert from_specfun == {"Tolerance"}
