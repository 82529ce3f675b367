"""The package's one integer rule, ``errors.checked_int``, and a guard that
keeps it the only place where integer-ness is decided."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fedsurv
from fedsurv.errors import INT64_MAX, INT64_MIN, ConfigError, DomainError, checked_int

SRC = Path(fedsurv.__file__).resolve().parent


class TestCheckedInt:
    @pytest.mark.parametrize(
        "value, want",
        [
            (3, 3),
            (np.int64(4), 4),
            (np.uint8(5), 5),
            (4.0, 4),
            (np.float32(2.0), 2),
            (-0.0, 0),
            (Fraction(6, 2), 3),
            (INT64_MAX, INT64_MAX),
            (INT64_MIN, INT64_MIN),
        ],
    )
    def test_accepted_values_come_back_as_python_ints(self, value, want):
        got = checked_int(value, "x")
        assert got == want and type(got) is int

    @pytest.mark.parametrize(
        "value",
        [True, False, np.bool_(True), float("nan"), float("inf"), -float("inf"), 2.5,
         Fraction(1, 2), "3", None, [1], INT64_MAX + 1, INT64_MIN - 1, 10**400, 1e300,
         np.uint64(2**64 - 1)],
    )
    def test_rejected_values_name_the_field(self, value):
        with pytest.raises(DomainError, match="^count must be an integer"):
            checked_int(value, "count")

    def test_bounds_and_error_class(self):
        assert checked_int(1, "n", minimum=1) == 1
        with pytest.raises(ConfigError, match=r"n must be an integer >= 1, got 0"):
            checked_int(0, "n", minimum=1, error=ConfigError)
        # the lower bound is compared on the int: 2**53 + 1 is not rounded to 2**53
        with pytest.raises(DomainError):
            checked_int(2**53, "n", minimum=2**53 + 1)

    def test_maximum_none_lifts_the_int64_bound(self):
        assert checked_int(10**400, "seed", 0, maximum=None) == 10**400
        with pytest.raises(DomainError):
            checked_int(10**400, "seed", 0)


def _integer_tests(path: Path) -> list[str]:
    """Where a module decides integer-ness itself: a ``.is_integer()`` call,
    or an ``int(x)`` compared by ``==`` or ``!=``; as "function:line"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(node, fn.name)  # walk order: outermost first

    def is_int_call(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "int"
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            hit = isinstance(node.func, ast.Attribute) and node.func.attr == "is_integer"
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            hit = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
                is_int_call(o) for o in operands
            )
        else:
            hit = False
        if hit:
            found.append(f"{owner.get(node, '<module>')}:{node.lineno}")
    return found


class TestSingleIntegerRule:
    def test_only_checked_int_decides_integer_ness(self):
        modules = sorted(SRC.glob("*.py"))
        assert SRC / "errors.py" in modules
        found = {p.name: hits for p in modules if (hits := _integer_tests(p))}
        assert set(found) == {"errors.py"}
        assert all(hit.startswith("checked_int:") for hit in found["errors.py"])

    def test_scan_sees_both_spellings(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text(
            "def f(x):\n    return float(x).is_integer()\n\n"
            "def g(x):\n    if int(x) != x:\n        return x == int(x)\n",
            encoding="utf-8",
        )
        assert sorted(_integer_tests(probe)) == ["f:2", "g:5", "g:6"]
