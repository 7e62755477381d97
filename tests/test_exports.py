"""Every name a module lists in __all__ must exist in it."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["hilbert", "model", "dynamics", "observables", "oracle"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"lindnet.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
