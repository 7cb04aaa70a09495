"""Closed-form fidelity, tail-bound algebra, and the entropy minimization."""

import math
import re
from fractions import Fraction

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
        ],
    )
    def test_rejected(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

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
