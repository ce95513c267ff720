"""The package's public names: ``__all__`` lists each once, and each
resolves."""

import spindlemine


def test_all_names_resolve_once():
    assert len(spindlemine.__all__) == len(set(spindlemine.__all__))
    missing = [name for name in spindlemine.__all__ if not hasattr(spindlemine, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from spindlemine import *", namespace)
    assert set(spindlemine.__all__) <= namespace.keys()
