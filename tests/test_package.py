"""The public surface: every name in convexcycles.__all__ exists."""

from __future__ import annotations

import convexcycles as cc


def test_every_exported_name_resolves():
    missing = [name for name in cc.__all__ if not hasattr(cc, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from convexcycles import *", namespace)
    assert set(cc.__all__) <= namespace.keys()
