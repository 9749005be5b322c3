"""Every name the package and its modules export through ``__all__``
resolves: a stale entry breaks ``from jamsec import *`` and any tool that
binds the exported names."""

import importlib
import pkgutil

import pytest

import jamsec

MODULES = ["jamsec"] + sorted(
    f"jamsec.{info.name}" for info in pkgutil.iter_modules(jamsec.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
