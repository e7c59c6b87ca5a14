"""The package's public names: every `__all__` entry is bound, and listed
once, so `from module import *` keeps working as names leave."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["durrmeyer", "durrmeyer.spectrum",
                                  "durrmeyer.quadrature", "durrmeyer.specfun"])
def test_every_listed_name_resolves_once(name):
    mod = importlib.import_module(name)
    repeated = sorted({n for n in mod.__all__ if mod.__all__.count(n) > 1})
    assert not repeated, repeated
    unbound = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not unbound, unbound
    namespace = {}
    exec("from %s import *" % name, namespace)
    assert set(mod.__all__) <= set(namespace)
