import importlib
import pkgutil

import pytest

import releq

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(releq.__path__))


def test_every_package_export_resolves():
    missing = [name for name in releq.__all__ if not hasattr(releq, name)]
    assert not missing


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_export_resolves(name):
    module = importlib.import_module(f"releq.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing
