"""The package's input rules, ``errors.checked_int`` for integers and
``checked_float``, ``checked_floats`` and ``checked_shares`` for reals, and
guards that keep them the only places where integer-ness and finiteness
are decided."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fedsurv
from fedsurv import combine, semisynth, surge
from fedsurv.errors import (
    INT64_MAX,
    INT64_MIN,
    ConfigError,
    DomainError,
    checked_float,
    checked_floats,
    checked_int,
    checked_shares,
)

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


class TestCheckedFloat:
    @pytest.mark.parametrize(
        "value, want",
        [(0.25, 0.25), (3, 3.0), (np.float32(0.5), 0.5), (np.int64(-2), -2.0),
         (Fraction(1, 4), 0.25), (10**300, 1e300)],
    )
    def test_accepted_values_come_back_as_python_floats(self, value, want):
        got = checked_float(value, "x")
        assert got == want and type(got) is float

    @pytest.mark.parametrize(
        "value",
        [True, np.bool_(False), "0.5", None, [0.5], float("nan"), float("inf"), -float("inf"),
         10**400, -(10**400), Fraction(10**400, 3)],
    )
    def test_rejected_values_name_the_field(self, value):
        with pytest.raises(DomainError, match="^theta must be"):
            checked_float(value, "theta")

    def test_bounds_wording_and_error_class(self):
        assert checked_float(0.0, "p", 0.0, 1.0) == 0.0
        with pytest.raises(ConfigError, match=r"^alpha must lie in \(0, 1\), got 1.0$"):
            checked_float(1.0, "alpha", 0.0, 1.0, strict=True, error=ConfigError)
        with pytest.raises(DomainError, match=r"^theta must be finite and >= 0, got -0.5$"):
            checked_float(-0.5, "theta", 0.0)
        with pytest.raises(DomainError, match=r"^m must be finite and > 0, got 0$"):
            checked_float(0, "m", 0.0, strict=True)
        with pytest.raises(DomainError, match=r"^must lie in \[0.2, 1\], got 0.1$"):
            checked_float(0.1, "", 0.2, 1.0)  # the caller's context names it


class TestCheckedFloats:
    def test_valid_arrays_pass_as_float_arrays(self):
        got = checked_floats([0, 0.5, 1], "p", 0.0, 1.0)
        assert got.dtype == float and got.tolist() == [0.0, 0.5, 1.0]
        assert checked_floats([], "p", 0.0, 1.0).size == 0

    @pytest.mark.parametrize(
        "values, strict, where",
        [
            ([0.5, float("nan"), 2.0], False, "got nan at index 1"),
            ([0.5, 0.0], True, "got 0.0 at index 1"),
            ([[0.5, 0.5], [1.5, -1.0]], False, r"got 1.5 at index \(1, 0\)"),
            (float("inf"), False, "got inf$"),
        ],
    )
    def test_first_bad_entry_is_named(self, values, strict, where):
        with pytest.raises(DomainError, match=f"^p-values must lie in .*{where}"):
            checked_floats(values, "p-values", 0.0, 1.0, strict=strict)

    @pytest.mark.parametrize("values", [(10**400, 0.5), ("x",), ({},), ((1, 2), 0.5)])
    def test_values_that_are_no_reals_name_the_field(self, values):
        with pytest.raises(ConfigError, match="^shares must be real numbers"):
            checked_floats(values, "shares", error=ConfigError)


class TestCheckedShares:
    def test_one_vector_or_one_per_column(self):
        assert checked_shares((0.25, 0.75)).tolist() == [0.25, 0.75]
        assert checked_shares([[0.5, 1.0], [0.5, 0.0]]).shape == (2, 2)

    @pytest.mark.parametrize(
        "shares, message",
        [
            ((0.5, 0.6), "shares must sum to 1 within 1e-9, got 1.1"),
            ([[0.5, 0.2], [0.5, 0.9]], "shares must sum to 1 within 1e-9, got 1.1 in column 1"),
            ((1.5, -0.5), "shares must be finite and >= 0, got -0.5 at index 1"),
            ((), "shares must be one share vector or one per column, got shape (0,)"),
        ],
    )
    def test_rejected_shares_name_the_field(self, shares, message):
        with pytest.raises(DomainError) as exc:
            checked_shares(shares)
        assert str(exc.value) == message


class TestRealsPastADouble:
    """A real past a double's range raises the typed error naming its field
    where it used to raise OverflowError."""

    def test_library_entry_points(self):
        with pytest.raises(DomainError, match="^theta must be finite"):
            surge.SurgeHypothesis(theta=10**400)
        with pytest.raises(DomainError, match="^theta_alt must be finite"):
            surge.PowerScenario(50, 10**400, surge.SurgeHypothesis())
        with pytest.raises(DomainError, match="^shares must be real numbers"):
            semisynth.ShareVector((10**400,))
        with pytest.raises(ConfigError, match="^shares must be real numbers"):
            combine.EvidenceSet((0.1, 0.2), shares=(10**400, 0.5))
        with pytest.raises(DomainError, match="^multiplier must be finite and > 0"):
            semisynth.scale_magnitude(semisynth.PrevalenceSeries("weekly", (), ()), 10**400)

    def test_share_vector_and_combine_share_one_rule(self):
        for shares in ((0.5, 0.6), (1.5, -0.5), (float("nan"), 1.0)):
            with pytest.raises(DomainError) as vector:
                semisynth.ShareVector(shares)
            with pytest.raises(ConfigError) as evidence:
                combine.EvidenceSet((0.1, 0.2), shares=shares)
            assert str(vector.value) == str(evidence.value)


def _finiteness_tests(path: Path) -> list[str]:
    """Where a module decides finiteness itself: a call of ``isfinite`` or
    ``isinf``, as ``math.``, ``np.`` or ``numpy.`` attribute or imported
    bare; as "function:line"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(node, fn.name)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("isfinite", "isinf"):
                found.append(f"{owner.get(node, '<module>')}:{node.lineno}")
    return found


class TestSingleRealRule:
    """Only ``errors`` decides whether a real is finite. Output guards that
    test for NaN, such as ``binomial_cdf``'s check of the ``betainc``
    result, are not in this scan's scope."""

    def test_only_errors_decides_finiteness(self):
        modules = sorted(SRC.glob("*.py"))
        found = {p.name: hits for p in modules if (hits := _finiteness_tests(p))}
        assert set(found) <= {"errors.py"}, found

    def test_scan_sees_every_spelling(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import math\nimport numpy as np\nimport numpy\nfrom math import isfinite\n\n"
            "def f(x):\n    return math.isfinite(x) and isfinite(x)\n\n"
            "def g(a):\n    return np.isfinite(a).all() or np.isinf(a).any() or numpy.isinf(a)\n",
            encoding="utf-8",
        )
        assert sorted(_finiteness_tests(probe)) == ["f:7", "f:7", "g:10", "g:10", "g:10"]
