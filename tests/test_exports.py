"""Every name a treelie module lists in ``__all__`` resolves, so a star
import or a scan of the public names never meets a deleted function."""

import importlib
import pkgutil

import pytest

import treelie

MODULES = sorted(m.name for m in pkgutil.iter_modules(treelie.__path__, "treelie."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, (name, missing)
