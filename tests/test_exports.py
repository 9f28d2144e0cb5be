"""Every exported name resolves: a stale ``__all__`` entry fails here."""

import importlib
import pkgutil

import maximin_bandits


def test_every_exported_name_resolves():
    modules = [maximin_bandits] + [
        importlib.import_module(f"maximin_bandits.{info.name}")
        for info in pkgutil.iter_modules(maximin_bandits.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1
    assert missing == []
