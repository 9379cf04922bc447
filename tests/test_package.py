"""The public surface: every name in convexcycles.__all__ exists, the
package needs nothing outside the standard library and imports the
spectral module only on first use, and the frozen records compare, hash,
print, pickle and copy as frozen dataclasses did."""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import convexcycles as cc


def test_every_exported_name_resolves():
    missing = [name for name in cc.__all__ if not hasattr(cc, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from convexcycles import *", namespace)
    assert set(cc.__all__) <= namespace.keys()


def _fresh(code: str, *args: str) -> str:
    """stdout of `code` in a fresh interpreter, which sees only what the
    code itself imports."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True
    )
    return result.stdout


def test_import_loads_no_third_party_module():
    # pyproject.toml declares no dependencies, so importing the package may
    # load only the standard library, even where numpy is installed
    code = (
        "import sys; before = set(sys.modules); import convexcycles; "
        "print(*{name.partition('.')[0] for name in set(sys.modules) - before})"
    )
    loaded = set(_fresh(code).split())
    assert "convexcycles" in loaded
    assert loaded - {"convexcycles"} - sys.stdlib_module_names == set()


def test_import_loads_no_dataclasses_or_spectral():
    code = (
        "import sys, convexcycles; "
        "print(*sorted({'dataclasses', 'inspect', 'convexcycles.spectral'} & set(sys.modules)))"
    )
    assert _fresh(code).split() == []


@pytest.mark.parametrize("flags, loaded", [((), "False"), (("--spectral",), "True")])
def test_spectral_loads_only_for_its_section(tmp_path, flags, loaded):
    path = tmp_path / "petersen.g6"
    path.write_text(cc.write_graph6(cc.petersen_graph()) + "\n")
    code = (
        "import sys, convexcycles; code = convexcycles.cli_run(['analyze', *sys.argv[1:]]); "
        "print(code, 'convexcycles.spectral' in sys.modules)"
    )
    # the report comes first, then the exit code and the answer
    assert _fresh(code, str(path), *flags).split()[-2:] == ["0", loaded]


def test_dir_lists_every_exported_name():
    code = "import convexcycles as cc; print(*sorted(set(cc.__all__) - set(dir(cc))))"
    assert _fresh(code).split() == []


# each record's fields in order, with one value each
RECORDS = [
    (cc.DistanceRecord, {"root": 0, "dist": (0, 1, None), "sigma": (1, 1, 0)}),
    (cc.MetricProfile, {"girth": 5, "diameter": 2, "connected": True}),
    (cc.CycleCensus, {"cycles": ((0, 1, 2),), "total": 1, "odd_count": 1,
                      "even_count": 0, "by_length": {3: 1}}),
    (cc.ExtremalReport, {"n": 10, "m": 15, "girth": 5, "total": 12,
                         "bound": Fraction(12), "equality": True,
                         "classification": cc.Classification.MOORE_GRAPH}),
    (cc.MooreReport, {"is_moore": True, "diameter": 2, "girth": 5, "degree": 3}),
    (cc.MooreCountCheck, {"count": 12, "target": Fraction(12), "is_moore_by_count": True}),
    (cc.IntPolynomial, {"coeffs": (-1, 0, 1)}),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


def assert_same(a, b, fields: dict) -> None:
    assert type(a) is type(b)
    assert a == b and hash(a) == hash(b)
    assert all(getattr(b, name) == getattr(a, name) for name in fields)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
class TestRecords:
    """The frozen records keep the behaviour they had as frozen dataclasses."""

    def test_position_and_keyword(self, cls, fields):
        record = cls(*fields.values())
        assert [getattr(record, name) for name in fields] == list(fields.values())
        assert_same(record, cls(**fields), fields)
        first, *rest = fields
        assert_same(record, cls(fields[first], **{k: fields[k] for k in rest}), fields)
        assert cls.__match_args__ == tuple(fields)

    def test_wrong_arguments(self, cls, fields):
        values = list(fields.values())
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values, **{next(iter(fields)): values[0]})
        with pytest.raises(TypeError):
            cls(*values, unknown=None)

    def test_equality_and_hash(self, cls, fields):
        record = cls(*fields.values())
        assert_same(record, cls(*fields.values()), fields)
        first = next(iter(fields))
        assert record != cls(**{**fields, first: fields[first] * 2 or 1})
        assert record != tuple(fields.values())
        others = [other(*values.values()) for other, values in RECORDS if other is not cls]
        assert all(record != other for other in others)

    def test_repr(self, cls, fields):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(*fields.values())) == f"{cls.__name__}({shown})"

    def test_frozen(self, cls, fields):
        record = cls(*fields.values())
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert [getattr(record, name) for name in fields] == list(fields.values())

    def test_pickle_and_copy(self, cls, fields):
        record = cls(*fields.values())
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert_same(record, pickle.loads(pickle.dumps(record, protocol)), fields)
        assert_same(record, copy.copy(record), fields)
        assert_same(record, copy.deepcopy(record), fields)


def test_census_equality_ignores_by_length():
    a = cc.CycleCensus(((0, 1, 2),), 1, 1, 0, {3: 1})
    b = cc.CycleCensus(((0, 1, 2),), 1, 1, 0, {})
    assert a == b and hash(a) == hash(b)


def test_empty_polynomial_refused():
    with pytest.raises(cc.InvalidParameter):
        cc.IntPolynomial(())
    with pytest.raises(cc.InvalidParameter):
        cc.IntPolynomial(coeffs=())
