"""Library modules bound at import time and executed on first use."""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """Module `name`, registered in sys.modules but executed only on its
    first attribute access (the importlib.util.LazyLoader recipe); the
    access turns it into a plain module, so later lookups cost nothing
    extra.  A module already imported is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
