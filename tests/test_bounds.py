"""Closed-form fidelity, tail-bound algebra, and the entropy minimization."""

import math
import re
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvconc import bounds
from bvconc.bounds import (
    BoundParams,
    EntropyEval,
    TailSide,
    critical_statistic,
    denominator,
    entropy_exact_expfamily,
    entropy_objective,
    one_sided_shift,
    residual,
    residual_star,
    tail_bound,
    tail_bound_raw,
    threshold,
    two_sample_critical,
    two_sample_tail_bound,
)
from bvconc.coefficients import RangeSpec, lipschitz_difference_params, mcdiarmid_from_ranges
from bvconc.errors import ConvergenceError, DomainError, VacuousBoundError

import oracles

# frozen from the 50-digit oracle in oracles.py
RESIDUAL_4 = 1.9091094136655462689
RESIDUAL_42 = 1.4895211995949311439
RESIDUAL_STAR_4 = 1.1239022788642277591
DENOMINATOR_4 = 3.9091094136655462689
DENOMINATOR_42 = 4.131519589176778494
SHIFT_4 = 2.3013123013797024501
CRITICAL_100_1_005 = 0.57459227827284237231


class TestClosedForms:
    @pytest.mark.parametrize(
        "func,x,expected",
        [
            (residual, 4.0, RESIDUAL_4),
            (residual, 42.0, RESIDUAL_42),
            (residual_star, 4.0, RESIDUAL_STAR_4),
            (denominator, 4.0, DENOMINATOR_4),
            (denominator, 42.0, DENOMINATOR_42),
            (one_sided_shift, 4.0, SHIFT_4),
        ],
    )
    def test_frozen_values(self, func, x, expected):
        assert func(x) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("x", [1.5, 2.0, 4.0, 42.0, 100.0, 1e6, 1e12])
    def test_against_high_precision_oracle(self, x):
        assert residual(x) == pytest.approx(float(oracles.residual_hp(x)), abs=1e-13)
        assert residual_star(x) == pytest.approx(float(oracles.residual_star_hp(x)), abs=1e-13)
        assert denominator(x) == pytest.approx(float(oracles.denominator_hp(x)), abs=1e-12)
        assert one_sided_shift(x) == pytest.approx(float(oracles.one_sided_shift_hp(x)), abs=1e-12)

    def test_residual_star_at_e(self):
        # sqrt(ln x) = 1 there, so the value is just ln((pi/2)^(1/4) * 3)
        assert residual_star(math.e) == pytest.approx(math.log((math.pi / 2) ** 0.25 * 3), abs=1e-15)
        assert one_sided_shift(math.e) == pytest.approx(1.0 + residual_star(math.e), abs=1e-15)

    def test_residual_vanishes_at_infinity(self):
        assert residual(1e12) < residual(1e6) < residual(1e3)
        assert residual(1e12) > 0.0

    def test_star_scaling_identity(self):
        factor = math.sqrt(2.0 / math.log(2.0))
        for x in np.geomspace(1.0 + 1e-9, 1e12, 50):
            r, rs = residual(x), residual_star(x)
            assert abs(rs * factor - r) <= 1e-12 * abs(r)

    def test_denominator_increasing_from_4(self):
        grid = np.geomspace(4.0, 1e12, 200)
        values = [denominator(x) for x in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v > 2.0 for v in values)

    def test_denominator_at_powers_of_four(self):
        assert denominator(16.0) == pytest.approx(1.0 + math.sqrt(2.0) + residual(16.0), abs=1e-15)

    def test_shift_minus_sqrt_log_is_star(self):
        for x in np.geomspace(1.1, 1e9, 40):
            assert one_sided_shift(x) - math.sqrt(math.log(x)) == pytest.approx(
                residual_star(x), abs=1e-12
            )

    @pytest.mark.parametrize("func", [residual, residual_star, denominator, one_sided_shift])
    @pytest.mark.parametrize("x", [1.0, 0.5, 0.0, -3.0, math.nan, math.inf])
    def test_domain_guard(self, func, x):
        with pytest.raises(DomainError):
            func(x)

    def test_pure_and_deterministic(self):
        assert residual(7.25) == residual(7.25)
        assert denominator(7.25) == denominator(7.25)


class TestBoundParams:
    def test_valid(self):
        p = BoundParams(c=25.0, d=4.0)
        assert p.product == 100.0

    @pytest.mark.parametrize("c,d", [(0.0, 2.0), (-1.0, 2.0), (2.0, 0.0), (math.nan, 1.0)])
    def test_rejects_nonpositive(self, c, d):
        with pytest.raises(DomainError):
            BoundParams(c=c, d=d)

    def test_rejects_vacuous_product(self):
        with pytest.raises(VacuousBoundError):
            BoundParams(c=0.5, d=2.0)


class TestTailBound:
    def test_cap_at_eps_zero(self):
        p = BoundParams(c=100.0, d=1.0)
        assert tail_bound(p, TailSide.TWO_SIDED, 0.0) == 1.0
        assert tail_bound_raw(p, TailSide.TWO_SIDED, 0.0) == 2.0
        assert tail_bound(p, TailSide.PLUS, 0.0) == 1.0

    def test_two_sided_hits_one_exactly_before_cap(self):
        eps = math.sqrt(math.log(2.0) / 2.0)
        raw = tail_bound_raw(BoundParams(4.0, 1.0), TailSide.TWO_SIDED, eps)
        assert raw == pytest.approx(1.0, abs=1e-14)

    def test_five_percent_threshold(self):
        assert tail_bound(BoundParams(4.0, 1.0), TailSide.TWO_SIDED, 1.3581) == pytest.approx(
            0.05, abs=1e-4
        )

    def test_nonincreasing_in_eps(self):
        p = BoundParams(9.0, 1.0)
        grid = np.linspace(0.0, 4.0, 100)
        for side in TailSide:
            vals = [tail_bound(p, side, e) for e in grid]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_eps(self):
        with pytest.raises(DomainError):
            tail_bound(BoundParams(4.0, 1.0), TailSide.PLUS, -0.1)


class TestCriticalStatistic:
    def test_frozen_value(self):
        crit = critical_statistic(BoundParams(100.0, 1.0), TailSide.TWO_SIDED, 0.05)
        assert crit == pytest.approx(CRITICAL_100_1_005, abs=1e-12)
        assert crit == pytest.approx(float(oracles.critical_two_sided_hp(100, 1, 0.05)), abs=1e-12)

    def test_alpha_to_one_limit(self):
        p = BoundParams(36.0, 2.0)
        crit = critical_statistic(p, TailSide.TWO_SIDED, 1.0 - 1e-12)
        limit = math.sqrt(math.log(2.0) / 2.0) * denominator(72.0) / 6.0
        assert crit == pytest.approx(limit, rel=1e-9)

    def test_nonincreasing_in_alpha(self):
        p = BoundParams(50.0, 3.0)
        for side in TailSide:
            values = [critical_statistic(p, side, a) for a in (0.01, 0.05, 0.1, 0.5, 0.9)]
            assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            critical_statistic(BoundParams(4.0, 1.0), TailSide.TWO_SIDED, alpha)

    @settings(max_examples=200, deadline=None)
    @given(
        c=st.floats(0.2, 1e6),
        d=st.floats(0.2, 1e6),
        alpha=st.floats(1e-6, 1.0 - 1e-6),
        side=st.sampled_from(list(TailSide)),
    )
    def test_round_trip_identity(self, c, d, alpha, side):
        if c * d <= 1.0 + 1e-9:
            return
        params = BoundParams(c=c, d=d)
        crit = critical_statistic(params, side, alpha)
        if side.is_two_sided:
            eps = math.sqrt(c) * crit / denominator(c * d)
        else:
            eps = math.sqrt(c) * crit - one_sided_shift(c * d)
        assert tail_bound(params, side, eps) == pytest.approx(alpha, abs=1e-10)


class TestEntropy:
    @pytest.mark.parametrize("x", [1.5, 2.0, 4.0, 16.0, 1e3, 1e6])
    def test_bounded_by_denominator(self, x):
        ev = entropy_exact_expfamily(x)
        assert ev.value <= denominator(x) + 1e-9
        assert ev.value >= 1.0
        assert ev.upper_bound == denominator(x)
        assert ev.p_star > 0.0

    def test_closed_form_exponent_is_not_better_than_minimum(self):
        ev = entropy_exact_expfamily(4.0)
        p_closed_form = 2.0 * math.sqrt(math.log(4.0))
        assert entropy_objective(4.0, p_closed_form) >= entropy_objective(4.0, ev.p_star) - 1e-12

    def test_brute_force_scan_oracle(self):
        phi_min, p_min = oracles.entropy_objective_bruteforce(4.0)
        ev = entropy_exact_expfamily(4.0)
        brute_value = 1.0 + math.sqrt(math.log(2.0) / 2.0) * phi_min
        assert ev.value == pytest.approx(brute_value, abs=1e-6)
        assert ev.p_star == pytest.approx(p_min, abs=1e-3)

    def test_small_x_left_edge_infimum(self):
        # below x ~ 1.571 the objective increases in p; the infimum is sqrt(x) at p -> 0
        ev = entropy_exact_expfamily(1.5)
        assert ev.value == pytest.approx(
            1.0 + math.sqrt(math.log(2.0) / 2.0) * math.sqrt(1.5), abs=1e-3
        )

    def test_large_x_log_space_path(self):
        # with p up to 6*sqrt(ln x) the integral term needs the log-space branch
        ev = entropy_exact_expfamily(1e300)
        assert math.isfinite(ev.value)
        assert ev.value <= denominator(1e300) + 1e-9

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            entropy_exact_expfamily(1.0)


class TestEntropyGuards:
    """The guards of the entropy minimization that no valid argument x reaches."""

    def test_value_below_one(self):
        with pytest.raises(DomainError, match=r"^entropy value 0\.5 < 1 is impossible$"):
            EntropyEval(x=4.0, p_star=1.0, value=0.5, upper_bound=2.0)

    def test_value_above_its_bound(self):
        with pytest.raises(DomainError, match=r"^entropy value 3\.0 exceeds its closed-form bound 2\.0$"):
            EntropyEval(x=4.0, p_star=1.0, value=3.0, upper_bound=2.0)

    def test_exponent_must_be_positive(self):
        with pytest.raises(DomainError, match=r"^exponent p must be positive, got 0\.0$"):
            entropy_objective(2.0, 0.0)

    def test_objective_not_finite_on_the_scan_grid(self, monkeypatch):
        monkeypatch.setattr(bounds, "entropy_objective", lambda x, p: math.nan)
        with pytest.raises(
            ConvergenceError, match=r"^entropy objective is not finite on the scan grid for x = 4\.0$"
        ):
            entropy_exact_expfamily(4.0)

    def test_objective_decreasing_to_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(bounds, "entropy_objective", lambda x, p: -p)
        with pytest.raises(
            ConvergenceError,
            match=r"^entropy objective still decreasing at the search ceiling for x = 4\.0; no minimum bracketed$",
        ):
            entropy_exact_expfamily(4.0)


class TestThreshold:
    """``threshold`` on floats and on arrays, against the closed form written out inline."""

    STATS = [0.0, 1e-3, 0.05, 0.2, 0.7, 1.0, 3.5]
    PARAMS = [(3.0, 1.0), (25.0, 1.0), (400.0, 2.25), (1e6, 7.0)]

    @staticmethod
    def inline(params, side, stat):
        # reference: two-sided sqrt(c) * stat / L(x), one-sided max(0, sqrt(c) * stat - S(x))
        root_c = math.sqrt(params.c)
        if side.is_two_sided:
            return root_c * stat / denominator(params.product)
        return max(0.0, root_c * stat - one_sided_shift(params.product))

    @pytest.mark.parametrize("side", list(TailSide))
    @pytest.mark.parametrize("c, d", PARAMS)
    def test_float_equals_array_element_and_inline_form(self, side, c, d):
        params = BoundParams(c=c, d=d)
        arr = threshold(params, side, np.array(self.STATS))
        for i, stat in enumerate(self.STATS):
            eps = threshold(params, side, stat)
            assert eps == arr[i] == self.inline(params, side, stat)

    @given(
        st.floats(min_value=1.01, max_value=1e9),
        st.floats(min_value=0.0, max_value=10.0),
        st.sampled_from(list(TailSide)),
    )
    @settings(max_examples=200, deadline=None)
    def test_property(self, c, stat, side):
        params = BoundParams(c=c, d=1.0)
        eps = threshold(params, side, stat)
        assert eps == threshold(params, side, np.array([stat]))[0]
        assert eps == self.inline(params, side, stat)
        assert eps >= 0.0

    @pytest.mark.parametrize("side", [TailSide.PLUS, TailSide.MINUS])
    def test_statistic_below_shift_gives_zero(self, side):
        params = BoundParams(c=100.0, d=1.0)
        below = 0.5 * one_sided_shift(100.0) / math.sqrt(100.0)
        assert math.sqrt(100.0) * below - one_sided_shift(100.0) < 0.0
        assert threshold(params, side, below) == 0.0
        assert threshold(params, side, np.array([0.0, below])).tolist() == [0.0, 0.0]
        assert tail_bound(params, side, threshold(params, side, below)) == 1.0


class TestSideCheckedFirst:
    """Every bound function rejects a side that is not a TailSide with a typed error."""

    PARAMS = BoundParams(c=100.0, d=1.0)
    CALLS = {
        "threshold": lambda side: threshold(TestSideCheckedFirst.PARAMS, side, 0.1),
        "tail_bound": lambda side: tail_bound(TestSideCheckedFirst.PARAMS, side, 0.5),
        "tail_bound_raw": lambda side: tail_bound_raw(TestSideCheckedFirst.PARAMS, side, 0.5),
        "critical_statistic": lambda side: critical_statistic(TestSideCheckedFirst.PARAMS, side, 0.05),
        "two_sample_tail_bound": lambda side: two_sample_tail_bound(40.0, 30.0, side, 0.5),
        "two_sample_critical": lambda side: two_sample_critical(40.0, 30.0, side, 0.05),
    }

    @pytest.mark.parametrize("side", ["plus", None, 3])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_rejected(self, name, side):
        message = f"^side must be a TailSide, got {type(side).__name__}$"
        with pytest.raises(DomainError, match=message):
            self.CALLS[name](side)


class TestTwoSampleBracket:
    """``two_sample_critical`` doubles until the bound reaches alpha, with no iteration cap."""

    @pytest.mark.parametrize("side", list(TailSide))
    @pytest.mark.parametrize("v", [1.0 + 2**-52, 1.0 + 1e-9, 1.5, 1e12])
    @pytest.mark.parametrize("alpha", [1e-300, 0.05, 0.999])
    def test_brackets_and_reaches_alpha(self, side, v, alpha):
        crit = two_sample_critical(v, v, side, alpha)
        assert math.isfinite(crit) and crit > 0.0
        # the bisection returns the midpoint of a bracket no wider than 1e-14 * max(1, hi)
        assert two_sample_tail_bound(v, v, side, crit + 1e-13 * max(1.0, crit)) <= alpha

    def test_vacuous_size(self):
        with pytest.raises(VacuousBoundError):
            two_sample_tail_bound(1.0, 5.0, TailSide.TWO_SIDED, 0.5)

    def test_negative_eps(self):
        with pytest.raises(DomainError, match="^eps must be a finite real >= 0, got -0.5$"):
            two_sample_tail_bound(5.0, 5.0, TailSide.TWO_SIDED, -0.5)


class TestNonRealScalars:
    """A scalar argument that is not a real number is a DomainError naming the argument."""

    PARAMS = BoundParams(c=100.0, d=1.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: BoundParams(c="100", d=1.0), "McDiarmid coefficient must be a real number, got str"),
            (lambda: BoundParams(c=100.0, d=None), "downward-variation coefficient must be a real number, got NoneType"),
            (lambda: BoundParams(c=100.0, d=1j), "downward-variation coefficient must be a real number, got complex"),
            (lambda: denominator("5"), "bound argument must be a real number, got str"),
            # above 1 as a Decimal, 1.0 as the float it is computed on
            (
                lambda: denominator(Decimal("1.00000000000000000001")),
                "bound argument must be a finite real > 1, got 1.0",
            ),
            (lambda: residual("5"), "bound argument must be a real number, got str"),
            (lambda: one_sided_shift(b"5"), "bound argument must be a real number, got bytes"),
            (lambda: tail_bound(TestNonRealScalars.PARAMS, TailSide.PLUS, "0.5"), "eps must be a real number, got str"),
            (
                lambda: critical_statistic(TestNonRealScalars.PARAMS, TailSide.PLUS, "0.05"),
                "alpha must be a real number, got str",
            ),
            (lambda: two_sample_tail_bound("40", 30.0, TailSide.TWO_SIDED, 0.5), "nu must be a real number, got str"),
            (lambda: two_sample_tail_bound(40.0, "30", TailSide.TWO_SIDED, 0.5), "xi must be a real number, got str"),
            (lambda: two_sample_tail_bound(40.0, 30.0, TailSide.PLUS, "0.5"), "eps must be a real number, got str"),
            (lambda: two_sample_critical(40.0, 30.0, TailSide.MINUS, "0.05"), "alpha must be a real number, got str"),
            (
                lambda: two_sample_critical(40.0, 30.0, TailSide.MINUS, np.array([0.05, 0.1])),
                "alpha must be a real number, got ndarray",
            ),
            (lambda: threshold(BoundParams(4.0, 1.0), TailSide.PLUS, "0.5"), "statistic must be a real number, got str"),
            (lambda: threshold(BoundParams(4.0, 1.0), TailSide.PLUS, None), "statistic must be a real number, got NoneType"),
            (
                lambda: threshold(BoundParams(4.0, 1.0), TailSide.TWO_SIDED, np.array(["0.5"])),
                "statistic must be a real array, got dtype <U3",
            ),
        ],
    )
    def test_rejected(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: BoundParams(x("4"), 1.0),
            lambda x: BoundParams(4.0, x("0.5")),
            lambda x: tail_bound(BoundParams(4.0, 1.0), TailSide.TWO_SIDED, x("0.5")),
            lambda x: critical_statistic(BoundParams(4.0, 1.0), TailSide.PLUS, x("0.05")),
            lambda x: two_sample_tail_bound(x("40"), 30.0, TailSide.TWO_SIDED, x("0.5")),
            lambda x: two_sample_critical(40.0, 30.0, TailSide.TWO_SIDED, x("0.05")),
            lambda x: lipschitz_difference_params(4, x("1")),
            lambda x: mcdiarmid_from_ranges([RangeSpec(x("0.1"), 2.0)]),
            lambda x: denominator(x("5")),
            lambda x: threshold(BoundParams(4.0, 1.0), TailSide.TWO_SIDED, x("0.5")),
        ],
        ids=[
            "c",
            "d",
            "tail-bound",
            "critical",
            "two-sample-bound",
            "two-sample-critical",
            "k-lip",
            "range",
            "denominator",
            "threshold",
        ],
    )
    def test_decimal_is_computed_on_as_a_float(self, call):
        # a Decimal mixes with no float; each call gives what float(x) gives, bit for bit
        got = call(Decimal)
        assert repr(got) == repr(call(lambda text: float(Decimal(text))))
        assert "Decimal" not in repr(got)

    def test_reals_pass_unconverted(self):
        # ints stay ints, so every product and output bit is what it was
        params = BoundParams(c=100, d=1)
        assert type(params.c) is int and type(params.d) is int and params.product == 100
        assert type(BoundParams(c=np.float32(100.0), d=Fraction(1)).d) is Fraction
        assert type(BoundParams(c=np.array(100.0), d=1).c) is np.ndarray
        as_float = BoundParams(c=100.0, d=1.0)
        for side in TailSide:
            assert critical_statistic(params, side, Fraction(1, 20)) == critical_statistic(as_float, side, 0.05)
            assert tail_bound(params, side, 0) == tail_bound(as_float, side, 0.0)
            assert two_sample_tail_bound(40, np.float64(30.0), side, 1) == two_sample_tail_bound(
                40.0, 30.0, side, 1.0
            )

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: BoundParams(c=math.nan, d=1.0), "McDiarmid coefficient must be finite and positive, got nan"),
            (lambda: BoundParams(c=1.0, d=math.inf), "downward-variation coefficient must be finite and positive, got inf"),
            (lambda: denominator(math.nan), "bound argument must be a finite real > 1, got nan"),
            (lambda: tail_bound(TestNonRealScalars.PARAMS, TailSide.PLUS, math.inf), "eps must be a finite real >= 0, got inf"),
            (
                lambda: critical_statistic(TestNonRealScalars.PARAMS, TailSide.PLUS, math.nan),
                "alpha must lie in the open interval (0, 1), got nan",
            ),
            (
                lambda: two_sample_tail_bound(math.nan, 30.0, TailSide.TWO_SIDED, 0.5),
                "bound argument must be a finite real > 1, got nan",
            ),
            (
                lambda: two_sample_tail_bound(40.0, math.inf, TailSide.PLUS, 0.5),
                "bound argument must be a finite real > 1, got inf",
            ),
            (
                lambda: two_sample_critical(40.0, 30.0, TailSide.PLUS, math.inf),
                "alpha must lie in the open interval (0, 1), got inf",
            ),
        ],
    )
    def test_nan_and_inf_keep_their_messages(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_minus_inf_size_is_still_vacuous(self):
        with pytest.raises(VacuousBoundError):
            two_sample_tail_bound(-math.inf, 30.0, TailSide.TWO_SIDED, 0.5)


class TestIntTooLargeForAFloat:
    """An int past the float range is a DomainError naming the coefficient, not an OverflowError."""

    @pytest.mark.parametrize(
        "c, d, name",
        [
            (10**400, 1, "McDiarmid coefficient"),
            (100, 10**400, "downward-variation coefficient"),
            # past Python's 4300-digit str limit, so the message cannot print it
            (10**5000, 1, "McDiarmid coefficient"),
        ],
        ids=["c", "d", "c-past-str-limit"],
    )
    def test_bound_params(self, c, d, name):
        with pytest.raises(DomainError, match=f"^{name} is too large for a float$"):
            BoundParams(c, d)

    def test_largest_float_int_still_passes(self):
        assert BoundParams(int(np.finfo(float).max), 1).c == int(np.finfo(float).max)


class TestTwoSampleCheckOrder:
    """Each two-sample function reports the first failing check, in a fixed order.

    ``two_sample_tail_bound``: nu and xi as reals, their vacuity, eps, side,
    then a nan or inf size (nu before xi).  ``two_sample_critical`` checks
    alpha first, then follows the same order.
    """

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: two_sample_tail_bound("40", 0.5, "plus", -0.5), DomainError, "nu must be a real number, got str"),
            (lambda: two_sample_tail_bound(0.5, "30", "plus", -0.5), DomainError, "xi must be a real number, got str"),
            (
                lambda: two_sample_tail_bound(0.5, math.nan, "plus", -0.5),
                VacuousBoundError,
                "both effective sample sizes must exceed 1, got 0.5 and nan",
            ),
            (
                lambda: two_sample_tail_bound(math.nan, 30, TailSide.TWO_SIDED, -0.5),
                DomainError,
                "eps must be a finite real >= 0, got -0.5",
            ),
            (
                lambda: two_sample_tail_bound(math.nan, 30, "plus", math.inf),
                DomainError,
                "eps must be a finite real >= 0, got inf",
            ),
            (lambda: two_sample_tail_bound(math.nan, 30, "plus", 0.5), DomainError, "side must be a TailSide, got str"),
            (
                lambda: two_sample_tail_bound(math.inf, math.nan, TailSide.PLUS, 0.5),
                DomainError,
                "bound argument must be a finite real > 1, got inf",
            ),
            (
                lambda: two_sample_critical("40", 0.5, "plus", 1.5),
                DomainError,
                "alpha must lie in the open interval (0, 1), got 1.5",
            ),
            (lambda: two_sample_critical("40", 0.5, "plus", 0.05), DomainError, "nu must be a real number, got str"),
            (
                lambda: two_sample_critical(0.5, math.nan, "plus", 0.05),
                VacuousBoundError,
                "both effective sample sizes must exceed 1, got 0.5 and nan",
            ),
            (lambda: two_sample_critical(math.nan, 30, "plus", 0.05), DomainError, "side must be a TailSide, got str"),
            (
                lambda: two_sample_critical(30, math.inf, TailSide.MINUS, 0.05),
                DomainError,
                "bound argument must be a finite real > 1, got inf",
            ),
        ],
    )
    def test_first_failing_check_is_reported(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
            call()
        if error is DomainError:
            assert not isinstance(caught.value, VacuousBoundError)


def factor_closures_tail_bound(nu, xi, side, eps):
    # reference: the two ``factor(v)`` closures of the d = 1 product bound, verbatim
    if side is TailSide.TWO_SIDED:

        def factor(v: float) -> float:
            inner = 2.0 * math.exp(-0.5 * v * (eps / denominator(v)) ** 2)
            return max(0.0, 1.0 - inner)

    else:

        def factor(v: float) -> float:
            shifted = max(0.0, math.sqrt(v) * eps / 2.0 - one_sided_shift(v))
            return 1.0 - math.exp(-2.0 * shifted * shifted)

    return 1.0 - factor(nu) * factor(xi)


class TestProductBound:
    """The two-sample functions are the d = 1 case of one product bound over two ``BoundParams``."""

    SIZES = st.floats(min_value=1.0, max_value=1e12, exclude_min=True)

    @settings(max_examples=400, deadline=None)
    @given(
        nu=SIZES,
        xi=SIZES,
        side=st.sampled_from(list(TailSide)),
        eps=st.floats(min_value=0.0, max_value=1e150) | st.floats(min_value=0.0, max_value=8.0),
    )
    def test_same_bits_as_the_factor_closures(self, nu, xi, side, eps):
        expected = factor_closures_tail_bound(nu, xi, side, eps).hex()
        assert two_sample_tail_bound(nu, xi, side, eps).hex() == expected
        pair = (BoundParams(nu, 1.0), BoundParams(xi, 1.0))
        assert bounds._product_tail_bound(pair, side, eps).hex() == expected

    @settings(max_examples=100, deadline=None)
    @given(nu=SIZES, xi=SIZES, side=st.sampled_from(list(TailSide)), alpha=st.floats(1e-12, 0.99))
    def test_critical_value_is_the_bisection_of_the_product_bound(self, nu, xi, side, alpha):
        pair = (BoundParams(nu, 1.0), BoundParams(xi, 1.0))
        expected = bounds._bisect(partial(bounds._product_tail_bound, pair, side), alpha)
        assert two_sample_critical(nu, xi, side, alpha).hex() == expected.hex()

    @pytest.mark.parametrize("eps", [1e200, sys.float_info.max])
    @pytest.mark.parametrize("side", list(TailSide))
    def test_deviation_past_the_float_range_has_bound_zero(self, side, eps):
        # two-sided, (eps / L) ** 2 overflows; exp(-inf) = 0 makes each factor 1
        assert two_sample_tail_bound(40.0, 30.0, side, eps) == 0.0
        for pair in [(BoundParams(40.0, 1.0), BoundParams(30.0, 1.0)), (BoundParams(40.0, 2.5), BoundParams(3.0, 7.0))]:
            assert bounds._product_tail_bound(pair, side, eps) == 0.0
        assert tail_bound(BoundParams(40.0, 1.0), side, eps) == 0.0
        # no factor's overflow comes before the other sample's nan check
        with pytest.raises(DomainError, match="^bound argument must be a finite real > 1, got nan$"):
            two_sample_tail_bound(40.0, math.nan, side, eps)

    @pytest.mark.parametrize("side", list(TailSide))
    def test_factor_reads_c_and_the_product(self, side):
        # a pair with d != 1 is the d = 1 pair's bound with L or S taken at c*d instead of c
        pair = (BoundParams(40.0, 2.5), BoundParams(30.0, 4.0))
        eps = 1.7
        if side.is_two_sided:
            f, g = (
                max(0.0, 1.0 - 2.0 * math.exp(-0.5 * p.c * (eps / denominator(p.product)) ** 2)) for p in pair
            )
        else:
            f, g = (
                1.0 - math.exp(-2.0 * max(0.0, math.sqrt(p.c) * eps / 2.0 - one_sided_shift(p.product)) ** 2)
                for p in pair
            )
        assert bounds._product_tail_bound(pair, side, eps) == 1.0 - f * g


class TestTinyAlpha:
    """Below scale / DBL_MAX, ln(scale / alpha) is taken as a difference, so it stays finite."""

    # above both cutoffs (2/DBL_MAX ~ 1.1e-308, 1/DBL_MAX ~ 5.6e-309), between them, and below both
    ALPHAS = [1e-300, 2.3e-308, 1e-308, 5.5e-309, 1e-310, 1e-320, 5e-324]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_two_sided_matches_the_oracle(self, alpha):
        got = critical_statistic(BoundParams(100.0, 1.0), TailSide.TWO_SIDED, alpha)
        assert got == pytest.approx(float(oracles.critical_two_sided_hp(100.0, 1.0, alpha)), rel=1e-13)

    @pytest.mark.parametrize("side", [TailSide.PLUS, TailSide.MINUS])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_one_sided_matches_the_formula(self, side, alpha):
        x = oracles.mp.mpf(100)
        expected = oracles.mp.sqrt(-oracles.mp.log(oracles.mp.mpf(alpha)) / 2) + oracles.one_sided_shift_hp(x)
        got = critical_statistic(BoundParams(100.0, 1.0), side, alpha)
        assert got == pytest.approx(float(expected / 10), rel=1e-13)

    def test_values_at_1e_310(self):
        params = BoundParams(100.0, 1.0)
        assert round(critical_statistic(params, TailSide.TWO_SIDED, 1e-310), 5) == 7.99672
        assert round(critical_statistic(params, TailSide.PLUS, 1e-310), 5) == 2.18668

    @pytest.mark.parametrize("side", list(TailSide))
    def test_finite_and_decreasing_across_each_cutoff(self, side):
        params = BoundParams(3.0, 2.0)
        cutoff = (2.0 if side.is_two_sided else 1.0) / sys.float_info.max
        alphas = [cutoff]
        for _ in range(3):
            alphas = [math.nextafter(alphas[0], 0.0), *alphas, math.nextafter(alphas[-1], 1.0)]
        values = [critical_statistic(params, side, a) for a in alphas]
        assert all(math.isfinite(v) for v in values)
        assert values == sorted(values, reverse=True)

    def test_levels_above_the_cutoff_keep_the_quotient_form(self):
        # no byte of a level above the cutoff moves: ln(2 / alpha), not ln 2 - ln alpha
        params = BoundParams(100.0, 1.0)
        for alpha in (0.05, 1e-10, 1e-300):
            expected = math.sqrt(math.log(2.0 / alpha) / 2.0) * denominator(100.0) / 10.0
            assert critical_statistic(params, TailSide.TWO_SIDED, alpha) == expected


class TestNumpyScalarsComputeAsFloats:
    """A numpy scalar argument gives what its float gives, with no RuntimeWarning."""

    CALLS = [
        pytest.param(lambda x: tail_bound(BoundParams(40.0, 1.0), TailSide.TWO_SIDED, x(1e200)), id="tail-bound"),
        pytest.param(lambda x: tail_bound_raw(BoundParams(40.0, 1.0), TailSide.PLUS, x(1e200)), id="tail-bound-raw"),
        pytest.param(lambda x: two_sample_tail_bound(40.0, 30.0, TailSide.TWO_SIDED, x(1e200)), id="two-sample"),
        pytest.param(lambda x: two_sample_tail_bound(40.0, 30.0, TailSide.PLUS, x(1e200)), id="two-sample-plus"),
        pytest.param(lambda x: two_sample_tail_bound(x(1e300), 30.0, TailSide.TWO_SIDED, 1e150), id="two-sample-nu"),
        pytest.param(lambda x: threshold(BoundParams(40.0, 1.0), TailSide.TWO_SIDED, x(1e308)), id="threshold"),
        pytest.param(lambda x: threshold(BoundParams(40.0, 1.0), TailSide.MINUS, x(1e308)), id="threshold-minus"),
        pytest.param(lambda x: critical_statistic(BoundParams(40.0, 1.0), TailSide.TWO_SIDED, x(1e-320)), id="critical"),
        pytest.param(lambda x: critical_statistic(BoundParams(40.0, 1.0), TailSide.PLUS, x(1e-320)), id="critical-plus"),
        pytest.param(lambda x: two_sample_critical(40.0, 30.0, TailSide.TWO_SIDED, x(1e-320)), id="two-sample-critical"),
    ]

    @pytest.mark.parametrize("call", CALLS)
    def test_no_warning_and_the_float_result(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = call(np.float64)
            expected = call(float)
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("call", CALLS)
    def test_fraction_keeps_the_float_bits(self, call):
        # a Fraction is computed on as its float, as before
        assert repr(call(Fraction)) == repr(call(float))


class TestProductPastTheFloatRange:
    """c and d whose product overflows a float are rejected when the pair is built, numpy or not."""

    @pytest.mark.parametrize("real", [float, np.float64], ids=["float", "numpy"])
    def test_rejected_at_construction_with_no_warning(self, real):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^bound argument must be a finite real > 1, got inf$"):
                BoundParams(real(1e200), real(1e200))


class TestLevelWhoseFloatIsZero:
    """A level that is positive but rounds to 0.0 as a float is a DomainError, as 0.0 is."""

    LEVEL = Fraction(1, 10**400)

    @pytest.mark.parametrize("side", list(TailSide))
    def test_critical_statistic(self, side):
        with pytest.raises(DomainError, match=r"^alpha must lie in the open interval \(0, 1\), got 0\.0$"):
            critical_statistic(BoundParams(100.0, 1.0), side, self.LEVEL)

    @pytest.mark.parametrize("side", list(TailSide))
    def test_two_sample_critical(self, side):
        with pytest.raises(DomainError, match=r"^alpha must lie in the open interval \(0, 1\), got 0\.0$"):
            two_sample_critical(40.0, 30.0, side, self.LEVEL)
