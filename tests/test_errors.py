"""The package's input rules, ``errors.checked_int`` and ``checked_ints``
for integers and ``checked_float``, ``checked_floats`` and
``checked_shares`` for reals, and guards that keep them the only places
where integer-ness and finiteness are decided."""

import ast
import datetime
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fedsurv
from fedsurv import combine, evaluation, numerics, semisynth, surge
from fedsurv.errors import (
    INT64_MAX,
    INT64_MIN,
    ConfigError,
    DomainError,
    FedsurvError,
    checked_float,
    checked_floats,
    checked_int,
    checked_ints,
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
    """Where a module decides integer-ness itself: a ``.is_integer()`` or
    ``issubdtype`` call, an ``int(x)``, ``floor(x)`` or ``trunc(x)``
    compared by ``==`` or ``!=``, or a read of a dtype's ``.kind``; as
    "function:line"."""
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

    def is_rounding(node) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "attr", getattr(func, "id", None)) in ("floor", "trunc")

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            hit = name in ("is_integer", "issubdtype")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            hit = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
                is_int_call(o) or is_rounding(o) for o in operands
            )
        else:  # an array's dtype kind, read to admit integer arrays
            hit = isinstance(node, ast.Attribute) and node.attr == "kind"
        if hit:
            found.append(f"{owner.get(node, '<module>')}:{node.lineno}")
    return found


class TestSingleIntegerRule:
    def test_only_checked_int_decides_integer_ness(self):
        modules = sorted(SRC.glob("*.py"))
        assert SRC / "errors.py" in modules
        found = {p.name: hits for p in modules if (hits := _integer_tests(p))}
        assert set(found) == {"errors.py"}
        rules = {"checked_int", "checked_ints", "_array"}
        assert {hit.split(":")[0] for hit in found["errors.py"]} <= rules, found

    def test_scan_sees_both_spellings(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text(
            "def f(x):\n    return float(x).is_integer()\n\n"
            "def g(x):\n    if int(x) != x:\n        return x == int(x)\n",
            encoding="utf-8",
        )
        assert sorted(_integer_tests(probe)) == ["f:2", "g:5", "g:6"]

    def test_scan_sees_array_spellings(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import numpy as np\n\n"
            "def f(a):\n    return np.issubdtype(a.dtype, np.integer) or a.dtype.kind == 'i'\n\n"
            "def g(a):\n    return (np.floor(a) == a).all() and (a != np.trunc(a)).any()\n",
            encoding="utf-8",
        )
        assert sorted(_integer_tests(probe)) == ["f:4", "f:4", "g:7", "g:7"]


class TestCheckedInts:
    def test_valid_arrays_pass_as_int64_arrays(self):
        counts = np.arange(5)
        assert checked_ints(counts, "count", 0) is counts  # int64: no copy
        got = checked_ints([[1.0, 2.0], [3, np.uint8(4)]], "count")
        assert got.dtype == np.int64 and got.tolist() == [[1, 2], [3, 4]]
        assert checked_ints(np.array([1.0, -(2.0**63)]), "x").tolist() == [1, INT64_MIN]
        assert checked_ints([], "count").dtype == np.int64
        # ints past 2**53 beside a float are taken exactly, not as numpy's rounding
        assert checked_ints([2**60 + 1, 2.0], "n").tolist() == [2**60 + 1, 2]

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.5, 2.5, 3.9], "count must be an integer, got 1.5 at index 0"),
            ([1, 2, -3], "count must be an integer >= 0, got -3 at index 2"),
            (np.array([[0, 1], [1e19, 2]]), "count must be an integer <= 9, got 1e+19 at index (1"),
            (np.array([3, 2**64 - 1], np.uint64), "count must be an integer <= 9, got 1844"),
            ([0, float("nan")], "count must be an integer, got nan at index 1"),
            ((True, 2, 3), "count must be an integer, got True at index 0"),
            ([np.array([1]), np.array([True])], "count must be an integer, got True at index (1,"),
            ([[1, 2]], "count must be 1-d, got shape (1, 2)"),
            (3, "count must be 1-d, got shape ()"),
            (np.array([True, False]), "count must be an integer, got dtype bool"),
            (("1", "2"), "count must be an integer, got dtype <U1"),
            (np.array([1, 2], dtype=object), "count must be an integer, got dtype object"),
            ([Fraction(6, 2)], "count must be an integer, got dtype object"),
            ([[1], [2, 3]], "count must be an integer: setting an array element"),
        ],
    )
    def test_rejected_arrays_name_the_field_and_entry(self, values, message):
        ndim = 1 if "-d" in message else None
        with pytest.raises(DomainError) as exc:
            checked_ints(values, "count", 0, 9, ndim=ndim)
        assert str(exc.value).startswith(message)

    def test_error_class(self):
        message = "^total_count must be an integer >= 1, got 0 at index 1$"
        with pytest.raises(ConfigError, match=message):
            checked_ints((3, 0), "total_count", 1, error=ConfigError)


class TestIntsAgreeWithScalarRule:
    """``checked_ints`` accepts, rejects and converts exactly as
    ``checked_int`` does entry by entry, for lists and for the arrays numpy
    makes of them."""

    POOL = (
        [0, 1, 7, -3, 2**53 + 1, 2**62, INT64_MAX, INT64_MIN, INT64_MAX + 1, 2**64 - 1]
        + [np.int64(-5), np.uint64(2**63 + 5), np.int32(9)]
        + [0.0, 3.0, -4.0, 2.0**60, 2.0**63, -(2.0**63), 0.5, -2.5, float("nan"), float("inf")]
        + [np.float64(6.0), np.float32(1.5), True, False, np.True_]
    )

    @staticmethod
    def verdict(check):
        """The ints ``check()`` gives, or None where it raises DomainError."""
        try:
            return [int(x) for x in np.ravel(check())]
        except DomainError:
            return None

    def test_seeded_vectors(self):
        rng = random.Random(20261019)
        bounds = [(INT64_MIN, INT64_MAX), (0, INT64_MAX), (-4, 7), (1, 2**62)]
        for _ in range(3000):
            values = [rng.choice(self.POOL) for _ in range(rng.randint(0, 4))]
            low, high = rng.choice(bounds)
            inputs = [values]
            try:
                arr = np.asarray(values)
            except (TypeError, ValueError):
                arr = None
            if arr is not None and arr.dtype.kind != "O":
                inputs.append(arr)
            for given in inputs:
                entries = given.tolist() if isinstance(given, np.ndarray) else given
                want = self.verdict(lambda: [checked_int(x, "v", low, high) for x in entries])
                got = self.verdict(lambda: checked_ints(given, "v", low, high))
                assert got == want, (given, low, high)
                if got is not None:
                    assert checked_ints(given, "v", low, high).dtype == np.int64


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

    def test_finite_false_admits_an_infinite_bound(self):
        inf = float("inf")
        assert checked_float(inf, "x", 0.0, finite=False) == inf
        assert checked_floats([0.0, inf], "x", 0.0, finite=False).tolist() == [0.0, inf]
        for bad in (-inf, float("nan"), -0.5):
            with pytest.raises(DomainError, match=r"^x must be >= 0 and not NaN, got "):
                checked_float(bad, "x", 0.0, finite=False)
        with pytest.raises(DomainError, match=r"^x must be a number, got True at index 1$"):
            checked_floats([inf, True], "x", 0.0, finite=False)


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

    @pytest.mark.parametrize(
        "values, message",
        [
            ((0.5, True), "shares must be a number, got True at index 1$"),
            ((True, False), "shares must be real numbers, got dtype bool$"),
            (np.array(["0.5"]), "shares must be real numbers, got dtype <U3$"),
            ([[0.5, 0.5]], r"shares must be 1-d, got shape \(1, 2\)$"),
        ],
    )
    def test_the_dtype_gate_of_checked_ints(self, values, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            checked_floats(values, "shares", ndim=1)


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


def _dates(length: int) -> tuple:
    return semisynth.date_range(datetime.date(2024, 1, 1), length, "weekly")


# Inputs that no integer-array entry point may accept: each call must raise
# a FedsurvError; any other exception, or a return, fails the case.
_BAD_COUNTS = {
    "fractional": [1.5, 2.5, 3.9],
    "nan": [1.0, float("nan"), 3.0],
    "inf": [1.0, float("inf"), 3.0],
    "bool entry": [True, 2, 3],
    "bool dtype": np.array([True, False, True]),
    "str": ["1", "2", "3"],
    "object": np.array([1, 2, 3], dtype=object),
    "negative": [-1, 2, 3],
    "past int64": [2**63, 1, 2],
}
_P = np.array([[0.2, 0.6, 0.9], [0.4, 0.01, 0.5]])
_HYP = surge.SurgeHypothesis()
_TRUTH = evaluation.AlarmSeries((1,))
_WINDOW = evaluation.MatchWindow(0, 1)


def _bad_calls():
    for key, bad in _BAD_COUNTS.items():
        yield f"binomial_cdf c {key}", lambda b=bad: numerics.binomial_cdf(b, [9, 9, 9], 0.5)
        yield f"binomial_cdf n {key}", lambda b=bad: numerics.binomial_cdf([0, 0, 0], b, 0.5)
        yield f"binomial_cdf_exact c {key}", lambda b=bad: numerics.binomial_cdf_exact(
            b, [9, 9, 9], 0.5
        )
        yield f"window_totals {key}", lambda b=bad: surge.window_totals(b, 1)
        yield f"window_p_values c {key}", lambda b=bad: surge.window_p_values(b, [9, 9, 9], _HYP)
        yield f"window_p_values n {key}", lambda b=bad: surge.window_p_values([0, 0, 0], b, _HYP)
        yield f"CountSeries {key}", lambda b=bad: semisynth.CountSeries("s", "weekly", _dates(3), b)
        if key != "negative":  # -1 is a valid index
            yield f"AlarmSeries {key}", lambda b=bad: evaluation.AlarmSeries(b)
        if key not in ("negative", "object"):  # `of` iterates: an object array's ints pass
            yield f"AlarmSeries.of {key}", lambda b=bad: evaluation.AlarmSeries.of(b)
        yield f"combine_methods total_count {key}", lambda b=bad: list(
            combine.combine_methods(("lancaster",), _P, (0.5, 0.5), b)
        )
    yield "window_totals wrapped sum", lambda: surge.window_totals([-(2**62)] * 3 + [0], 2)
    yield "window_totals 0-d", lambda: surge.window_totals(5, 1)
    yield "window_totals baseline_len 0", lambda: surge.window_totals([1, 2, 3], 0)
    yield "binomial_cdf bool scalar", lambda: numerics.binomial_cdf(True, 3, 0.5)
    yield "binomial_cdf mismatched", lambda: numerics.binomial_cdf([1, 2, 3], [4, 5], 0.5)
    yield "binomial_cdf rho mismatched", lambda: numerics.binomial_cdf([1, 2], [4, 5], [0.5] * 3)
    yield "binomial_cdf_exact mismatched", lambda: numerics.binomial_cdf_exact([1, 2], [4] * 3, 0.5)
    yield "window_p_values mismatched", lambda: surge.window_p_values([1, 2, 3], [4, 5], _HYP)
    yield "window_p_values str 0-d", lambda: surge.window_p_values("1", "2", _HYP)
    yield "CountSeries too short", lambda: semisynth.CountSeries("s", "weekly", _dates(3), (1, 2))
    yield "CountSeries 0-d", lambda: semisynth.CountSeries("s", "weekly", _dates(1), 5)
    yield "CountSeries 3-D", lambda: semisynth.CountSeries("s", "weekly", _dates(1), [[[1]]])
    yield "AlarmSeries 0-d", lambda: evaluation.AlarmSeries(3)
    yield "AlarmSeries 3-D", lambda: evaluation.AlarmSeries([[[1, 2]]])
    yield "AlarmSeries unsorted", lambda: evaluation.AlarmSeries((3, 1))
    yield "SurgeWindow 2-D baseline", lambda: surge.SurgeWindow([[1, 2], [3, 4]], 1)
    for key, bad in (("too few", (50, 60)), ("2-D", [[50, 60, 70]]), ("zero", (50, 0, 70))):
        yield f"combine_methods total_count {key}", lambda b=bad: list(
            combine.combine_methods(("cstouffer",), _P, (0.5, 0.5), b, 0.7)
        )
    for key, bad in (("str", _P.astype(str)), ("bool", _P > 0.5), ("3-D", _P[None])):
        yield f"combine_methods p {key}", lambda b=bad: list(combine.combine_methods(["fisher"], b))
        yield f"pr_curves p {key}", lambda b=bad: evaluation.pr_curves(b, _TRUTH, _WINDOW, (0.5,))
    yield "pr_curves str p-values", lambda: evaluation.pr_curves([["0.1"]], _TRUTH, _WINDOW, (0.5,))
    yield "pr_curves nested thresholds", lambda: evaluation.pr_curves(_P, _TRUTH, _WINDOW, [[0.5]])
    yield "pr_curves 0-d thresholds", lambda: evaluation.pr_curves(_P, _TRUTH, _WINDOW, 0.5)
    yield "pr_curves bool thresholds", lambda: evaluation.pr_curves(_P, _TRUTH, _WINDOW, (True,))
    yield "pr_curves tuple window", lambda: evaluation.pr_curves(_P, _TRUTH, (1, 2), (0.5,))
    yield "ShareVector str", lambda: semisynth.ShareVector(("0.5", "0.5"))
    yield "ShareVector bool", lambda: semisynth.ShareVector((True, False))
    yield "ShareVector bool entry", lambda: semisynth.ShareVector((True, 0.0))
    yield "EvidenceSet bool and str", lambda: combine.EvidenceSet((True, "0.5"))
    yield "EvidenceSet bool entry", lambda: combine.EvidenceSet((0.5, False))
    yield "alarms_from_pvalues 2-D", lambda: evaluation.alarms_from_pvalues([[0.1, 0.2]], 0.5)
    yield "PrevalenceSeries 2-D", lambda: semisynth.PrevalenceSeries("weekly", _dates(1), [[1.0]])
    yield "PrevalenceSeries 0-d", lambda: semisynth.PrevalenceSeries("weekly", (), 1.0)
    yield "normal_pdf str", lambda: numerics.normal_pdf("1.5")
    yield "gamma_cdf str x", lambda: numerics.gamma_cdf(2.0, "1.5")
    yield "gamma_sf bool x", lambda: numerics.gamma_sf(2.0, True)
    yield "gamma_cdf mismatched", lambda: numerics.gamma_cdf([1.0, 2.0], [0.5] * 3)


_BAD_CALLS = dict(_bad_calls())


class TestBadArrayInputs:
    """Every array entry point rejects a bad dtype, value or shape with a
    typed error; small arrays only."""

    @pytest.mark.parametrize("case", sorted(_BAD_CALLS))
    def test_raises_a_typed_error(self, case):
        with pytest.raises(FedsurvError):
            _BAD_CALLS[case]()

    def test_integral_floats_are_counts(self):
        # accepted by the integer rule, as the scalar rule accepts 2.0
        c, n = surge.window_totals(np.array([1.0, 2.0, 3.0]), 1)
        assert c.dtype == np.int64 and c.tolist() == [1, 2] and n.tolist() == [3, 5]
        want = surge.window_p_values(np.array([1, 2]), np.array([3, 5]), _HYP)
        assert surge.window_p_values([1.0, 2.0], [3.0, 5.0], _HYP).tolist() == want.tolist()
        series = semisynth.CountSeries("s", "weekly", _dates(3), (1.0, 2.0, 3.0))
        assert series.counts == (1, 2, 3) and all(type(c) is int for c in series.counts)

    def test_gamma_x_takes_the_real_rule_and_inf(self):
        # x is the upper limit of the integral, so +inf is the one
        # non-finite x the Gamma functions take
        with pytest.raises(DomainError, match="x must be real numbers, got dtype <U3"):
            numerics.gamma_cdf(2.0, "1.5")
        with pytest.raises(DomainError, match="x must be a number, got True at index 1"):
            numerics.gamma_sf(2.0, [math.inf, True])
        with pytest.raises(ConfigError, match=r"shapes do not broadcast: a \(2,\), x \(3,\)"):
            numerics.gamma_cdf([1.0, 2.0], [0.5] * 3)
        with pytest.raises(DomainError, match="x must be >= 0 and not NaN, got -inf at index 1"):
            numerics.gamma_sf(2.0, [0.5, -math.inf])
        assert numerics.gamma_sf(2.0, [0.5, math.inf]).tolist() == [numerics.gamma_sf(2.0, 0.5), 0.0]
        assert numerics.gamma_cdf(2.0, math.inf) == 1.0

    def test_window_totals_are_contiguous(self):
        c, n = surge.window_totals(np.arange(5 * 8 * 12).reshape(5, 8, 12), 4)
        assert c.shape == n.shape == (5, 8, 8)
        assert c.flags.c_contiguous and n.flags.c_contiguous
        c, n = surge.window_totals([1, 2], 4)
        assert c.shape == n.shape == (0,)
