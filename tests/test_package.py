"""The public surface: every name in convexcycles.__all__ exists, and the
package needs nothing outside the standard library."""

from __future__ import annotations

import subprocess
import sys

import convexcycles as cc


def test_every_exported_name_resolves():
    missing = [name for name in cc.__all__ if not hasattr(cc, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from convexcycles import *", namespace)
    assert set(cc.__all__) <= namespace.keys()


def test_import_loads_no_third_party_module():
    # pyproject.toml declares no dependencies, so importing the package may
    # load only the standard library, even where numpy is installed; a fresh
    # interpreter sees what the import itself loads
    code = (
        "import sys; before = set(sys.modules); import convexcycles; "
        "print(*{name.partition('.')[0] for name in set(sys.modules) - before})"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert "convexcycles" in loaded
    assert loaded - {"convexcycles"} - sys.stdlib_module_names == set()
