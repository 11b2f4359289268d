import importlib
import pkgutil

import pytest

import spikeconv

MODULES = sorted(m.name for m in pkgutil.iter_modules(spikeconv.__path__))


def test_modules_found():
    assert {"core", "simulate", "training", "modelio"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(f"spikeconv.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"spikeconv.{name}.__all__ lists undefined names {missing}"
    namespace = {}
    exec(f"from spikeconv.{name} import *", namespace)
    for n in getattr(module, "__all__", ()):
        assert namespace[n] is getattr(module, n)
