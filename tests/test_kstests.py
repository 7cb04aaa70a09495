"""Composition of statistics, coefficients, and tails into test outcomes."""

import math
import re
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvconc
from bvconc import bounds, kstests
from bvconc.bounds import BoundParams, TailSide, denominator, one_sided_shift, two_sample_critical
from bvconc.coefficients import RangeSpec
from bvconc.empirical import ClusteredSample, TrajectoryPanel, lipschitz_sup_interval
from bvconc.errors import DataFormatError, DomainError, VacuousBoundError
from bvconc.kstests import (
    DEFAULT_ALPHAS,
    KsOutcome,
    finite_theta_test,
    lipschitz_two_sample,
    one_sample_clustered,
    two_sample_clustered,
    two_sample_tail_bound,
)

import oracles


def uniform_cdf(r):
    return np.clip(r, 0.0, 1.0)


def random_clustered(rng, min_clusters=2, max_clusters=12) -> ClusteredSample:
    k = int(rng.integers(min_clusters, max_clusters + 1))
    sizes = rng.integers(1, 8, size=k)
    values, labels = [], []
    for cid, size in enumerate(sizes):
        values.extend(rng.uniform(size=size).tolist())
        labels.extend([cid] * size)
    return ClusteredSample(values=tuple(values), cluster_ids=tuple(labels))


class TestOneSampleClustered:
    def test_zero_statistic_gives_p_one(self):
        # a reference sitting above the ECDF at every jump zeroes the plus part
        sample = ClusteredSample.iid([10.0, 20.0])
        ref = lambda r: min(max((r - 5.0) / 10.0, 0.0), 1.0)
        out = one_sample_clustered(sample, ref, TailSide.PLUS)
        assert out.statistic == 0.0
        assert out.p_upper == 1.0

    def test_two_sided_composition(self):
        rng = np.random.default_rng(4)
        sample = random_clustered(rng, min_clusters=30, max_clusters=60)
        nu = sample.cluster_spec().nu_n
        out = one_sample_clustered(sample, uniform_cdf, TailSide.TWO_SIDED)
        eps = math.sqrt(nu) * out.statistic / denominator(nu)
        assert out.p_upper == pytest.approx(min(1.0, 2.0 * math.exp(-2.0 * eps * eps)), abs=1e-15)
        assert out.p_upper_raw == pytest.approx(2.0 * math.exp(-2.0 * eps * eps), abs=1e-15)

    def test_one_sided_composition(self):
        rng = np.random.default_rng(5)
        sample = random_clustered(rng, min_clusters=40, max_clusters=80)
        nu = sample.cluster_spec().nu_n
        for side in (TailSide.PLUS, TailSide.MINUS):
            out = one_sample_clustered(sample, uniform_cdf, side)
            eps = max(0.0, math.sqrt(nu) * out.statistic - one_sided_shift(nu))
            assert out.p_upper == pytest.approx(math.exp(-2.0 * eps * eps), abs=1e-15)

    def test_formula_spot_values(self):
        # sqrt(nu)*D/L(nu) = 0.5  ->  2*exp(-0.5) caps at 1;  = 1.5 -> 2*exp(-4.5)
        assert min(1.0, 2.0 * math.exp(-2.0 * 0.25)) == 1.0
        assert 2.0 * math.exp(-2.0 * 2.25) == pytest.approx(0.0222, abs=5e-5)

    def test_vacuous_single_cluster(self):
        sample = ClusteredSample(values=(1.0, 2.0, 3.0), cluster_ids=("a", "a", "a"))
        with pytest.raises(VacuousBoundError):
            one_sample_clustered(sample, uniform_cdf, TailSide.TWO_SIDED)

    def test_decision_consistency_fuzz(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            sample = random_clustered(rng)
            if sample.cluster_spec().nu_n <= 1.0:
                continue
            side = (TailSide.TWO_SIDED, TailSide.PLUS, TailSide.MINUS)[int(rng.integers(3))]
            out = one_sample_clustered(sample, uniform_cdf, side)
            for alpha, crit in out.critical_at.items():
                if abs(out.p_upper - alpha) < 1e-12:
                    continue
                assert (out.statistic > crit) == (out.p_upper < alpha)


class TestTwoSampleClustered:
    def test_identical_samples(self):
        rng = np.random.default_rng(8)
        s = random_clustered(rng)
        out = two_sample_clustered(s, s, TailSide.TWO_SIDED)
        assert out.statistic == 0.0
        assert out.p_upper == 1.0

    def test_bound_value_against_oracle(self):
        value = two_sample_tail_bound(42.0, 30.0, TailSide.TWO_SIDED, 2.0)
        assert value == pytest.approx(float(oracles.two_sample_two_sided_hp(42, 30, 2.0)), abs=1e-12)
        assert value == pytest.approx(0.069481673494401, abs=1e-12)
        assert value == pytest.approx(0.0689, abs=2e-3)

    def test_equal_factors_compose(self):
        # pick eps so each inner tail is exactly 0.1: p = 1 - 0.9^2 = 0.19
        nu = 25.0
        eps = denominator(nu) * math.sqrt(2.0 * math.log(20.0) / nu)
        assert two_sample_tail_bound(nu, nu, TailSide.TWO_SIDED, eps) == pytest.approx(0.19, abs=1e-12)

    def test_floored_factors_keep_bound_in_unit_interval(self):
        for eps in np.linspace(0.0, 6.0, 50):
            for side in TailSide:
                v = two_sample_tail_bound(1.5, 80.0, side, float(eps))
                assert 0.0 <= v <= 1.0

    def test_one_sided_uses_full_shift_both_directions(self):
        # plus and minus use the same centering, so the bounds agree at equal eps
        for eps in (0.5, 2.0, 4.0):
            plus = two_sample_tail_bound(12.0, 9.0, TailSide.PLUS, eps)
            minus = two_sample_tail_bound(12.0, 9.0, TailSide.MINUS, eps)
            assert plus == minus

    def test_nonincreasing_in_eps(self):
        grid = np.linspace(0.0, 8.0, 200)
        for side in (TailSide.TWO_SIDED, TailSide.PLUS):
            vals = [two_sample_tail_bound(18.0, 33.0, side, float(e)) for e in grid]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_vacuous_effective_size(self):
        ok = ClusteredSample.iid([0.1, 0.4, 0.8])
        bad = ClusteredSample(values=(0.2, 0.3), cluster_ids=("a", "a"))
        with pytest.raises(VacuousBoundError):
            two_sample_clustered(ok, bad, TailSide.TWO_SIDED)

    def test_decision_consistency_fuzz(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            f, g = random_clustered(rng), random_clustered(rng)
            side = (TailSide.TWO_SIDED, TailSide.PLUS, TailSide.MINUS)[int(rng.integers(3))]
            out = two_sample_clustered(f, g, side)
            for alpha, crit in out.critical_at.items():
                if abs(out.p_upper - alpha) < 1e-12:
                    continue
                assert (out.statistic > crit) == (out.p_upper < alpha)


def test_two_sample_golden_values():
    """Recorded before cluster labels were factored into codes; must match bit for bit."""
    rng = np.random.default_rng(20261018)
    samples = []
    for shift in (0.0, 1.25):
        labels = rng.integers(0, 700, size=10_000)
        values = rng.normal(shift, 1.0, size=10_000)
        samples.append(ClusteredSample.from_pairs(zip(values.tolist(), (f"c{k}" for k in labels.tolist()))))
    expected = {
        TailSide.TWO_SIDED: (
            0.10623229086330133,
            {0.01: 0.6007299591817663, 0.05: 0.5131081771268704, 0.1: 0.46980260328814083},
        ),
        TailSide.PLUS: (
            1.403112687370367e-06,
            {0.01: 0.38497880317274635, 0.05: 0.3637694343969464, 0.1: 0.35305070810010264},
        ),
    }
    for side, (p_upper, critical) in expected.items():
        out = two_sample_clustered(*samples, side)
        assert out.statistic == 0.4658
        assert out.p_upper == p_upper
        assert (out.params[0].c, out.params[1].c) == (655.720505691654, 655.050438883794)
        assert dict(out.critical_at) == critical


class TestDegradation:
    def test_size_variance_never_helps(self):
        # same K and total n, rising size variance -> nu drops -> p never drops
        def p_of(sizes, d_stat):
            from bvconc.coefficients import ClusterSpec

            nu = ClusterSpec(sizes).nu_n
            eps = math.sqrt(nu) * d_stat / denominator(nu)
            return min(1.0, 2.0 * math.exp(-2.0 * eps * eps))

        rng = np.random.default_rng(10)
        for _ in range(200):
            k = int(rng.integers(6, 16))
            base = int(rng.integers(2, 9))
            sizes = [base] * k
            spread = sizes.copy()
            shift = int(rng.integers(1, base))
            spread[0] += shift
            spread[1] -= shift
            from bvconc.coefficients import ClusterSpec

            if ClusterSpec(spread).nu_n < 4.0:
                continue
            d_stat = float(rng.uniform(0.05, 0.8))
            assert p_of(spread, d_stat) >= p_of(sizes, d_stat) - 1e-15


class TestLipschitzTwoSample:
    def make_panels(self, n=4, grid=11, k_lip=1.0, offset=0.0):
        times = np.linspace(0.0, 1.0, grid)
        f = TrajectoryPanel(times=times, unit_values=np.full((n, grid), 0.4), k_lip=k_lip)
        g = TrajectoryPanel(times=times, unit_values=np.full((n, grid), 0.4 + offset), k_lip=k_lip)
        return f, g

    def test_identical_panels_zero_drift(self):
        times = np.linspace(0.0, 1.0, 11)
        f = TrajectoryPanel(times=times, unit_values=np.full((4, 11), 0.5), k_lip=0.0)
        out = lipschitz_two_sample(f, f)
        assert out.statistic == 0.0
        assert out.p_upper == 1.0
        assert out.conservative

    def test_uses_upper_end_and_flags_conservative(self):
        f, g = self.make_panels(n=100, k_lip=1.0, offset=0.1)
        lower, upper = lipschitz_sup_interval(f, g)
        out = lipschitz_two_sample(f, g)
        assert out.statistic == pytest.approx(upper)
        assert out.conservative
        assert out.params.c == 25.0
        assert out.params.product == pytest.approx(100.0 * 4.0)
        eps = math.sqrt(25.0) * out.statistic / denominator(400.0)
        assert out.p_upper == pytest.approx(min(1.0, 2.0 * math.exp(-2.0 * eps * eps)))

    def test_exhaustive_grid_variant(self):
        f, g = self.make_panels(n=100, grid=5, k_lip=1.0, offset=0.1)
        lower, _ = lipschitz_sup_interval(f, g)
        out = lipschitz_two_sample(f, g, exhaustive_grid=True)
        assert out.statistic == pytest.approx(lower)
        assert not out.conservative
        assert out.params.product == pytest.approx(100.0 * 25.0)

    def test_vacuous_unit_count(self):
        f, g = self.make_panels(n=1, k_lip=0.0)
        with pytest.raises(VacuousBoundError):
            lipschitz_two_sample(f, g)

    def test_rejects_panels_with_different_lipschitz_constants(self):
        f, _ = self.make_panels(n=4, k_lip=1.0)
        g, _ = self.make_panels(n=4, k_lip=2.0)
        message = "panels must declare the same Lipschitz constant (1.0 vs 2.0)"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            lipschitz_two_sample(f, g)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_interval_is_the_sup_enclosure(self, exhaustive):
        rng = np.random.default_rng(31)
        times = np.sort(rng.uniform(0.0, 1.0, 9))

        def panel(level):
            starts = rng.uniform(level, level + 0.2, (30, 1))
            slopes = rng.uniform(-0.15, 0.15, (30, 1))
            return TrajectoryPanel(times=times, unit_values=starts + slopes * times, k_lip=0.5)

        f, g = panel(0.2), panel(0.4)
        out = lipschitz_two_sample(f, g, exhaustive_grid=exhaustive)
        assert out.interval == lipschitz_sup_interval(f, g)
        assert out.statistic == out.interval[0 if exhaustive else 1]


class TestFiniteTheta:
    def test_exact_match_gives_p_one(self):
        out = finite_theta_test([(0.5, 0.5), (0.2, 0.2)], [RangeSpec(0, 1)] * 2, c=4.0)
        assert out.statistic == 0.0
        assert out.p_upper == 1.0

    def test_composition(self):
        out = finite_theta_test(
            [(0.7, 0.2), (0.4, 0.4), (0.1, 0.3)], [RangeSpec(0, 1)] * 3, c=9.0
        )
        assert out.params.product == pytest.approx(81.0)
        assert out.statistic == pytest.approx(0.5)
        eps = 3.0 * 0.5 / denominator(81.0)
        assert out.p_upper == pytest.approx(min(1.0, 2.0 * math.exp(-2.0 * eps * eps)))

    def test_single_statistic_reduces_to_main_case(self):
        out = finite_theta_test([(0.9, 0.4)], [RangeSpec(0, 1)], c=4.0)
        assert out.params.product == pytest.approx(4.0)
        assert isinstance(out.params, BoundParams)

    def test_errors(self):
        with pytest.raises(DomainError):
            finite_theta_test([], [], c=4.0)
        with pytest.raises(DomainError):
            finite_theta_test([(0.1, 0.2)], [RangeSpec(0, 1)] * 2, c=4.0)
        with pytest.raises(VacuousBoundError):
            finite_theta_test([(0.1, 0.2)], [RangeSpec(0, 0.5)], c=2.0)

    @pytest.mark.parametrize("c", [0.0, -4.0, math.nan, math.inf])
    def test_bad_coefficient_is_rejected_by_bound_params(self, c):
        with pytest.raises(DomainError, match=f"^McDiarmid coefficient must be finite and positive, got {c}$"):
            finite_theta_test([(0.1, 0.2)], [RangeSpec(0, 1)], c=c)


class TestClusteredTestsSide:
    @pytest.mark.parametrize(
        "test",
        [
            lambda sample, side: one_sample_clustered(sample, uniform_cdf, side),
            lambda sample, side: two_sample_clustered(sample, sample, side),
        ],
        ids=["one-sample", "two-sample"],
    )
    def test_string_side_is_a_domain_error(self, test):
        sample = ClusteredSample.iid(np.linspace(0.05, 0.95, 10))
        with pytest.raises(DomainError, match="^side must be a TailSide, got str$"):
            test(sample, "plus")


class TestConservativenessUnderNull:
    def test_rejection_rate_never_exceeds_level(self):
        # data actually drawn from the reference: upper-bound p-values must
        # reject at most an alpha fraction of the time (here: essentially never)
        rng = np.random.default_rng(13)
        rejections = {0.01: 0, 0.05: 0, 0.1: 0}
        runs = 300
        for _ in range(runs):
            sample = random_clustered(rng, min_clusters=5, max_clusters=30)
            out = one_sample_clustered(sample, uniform_cdf, TailSide.TWO_SIDED)
            for alpha in rejections:
                rejections[alpha] += out.reject(alpha)
        for alpha, count in rejections.items():
            assert count / runs <= alpha


class TestMonotonicityInStatistic:
    def test_p_upper_nonincreasing_in_statistic(self):
        params = BoundParams(c=16.0, d=1.0)
        rng = np.random.default_rng(11)
        sample = random_clustered(rng, min_clusters=20, max_clusters=20)
        nu = sample.cluster_spec().nu_n
        stats = np.linspace(0.0, 1.0, 50)
        ps = [
            min(1.0, 2.0 * math.exp(-2.0 * (math.sqrt(nu) * s / denominator(nu)) ** 2))
            for s in stats
        ]
        assert all(b <= a for a, b in zip(ps, ps[1:]))
        del params


class TestBoundsHome:
    """Two-sample bounds and critical values live in :mod:`bvconc.bounds`."""

    def test_two_sample_tail_bound_is_one_object(self):
        assert kstests.two_sample_tail_bound is bounds.two_sample_tail_bound
        assert bvconc.two_sample_tail_bound is bounds.two_sample_tail_bound

    @pytest.mark.parametrize("side", list(TailSide))
    def test_critical_values_come_from_two_sample_critical(self, side):
        rng = np.random.default_rng(17)
        f = ClusteredSample.iid(rng.random(60))
        g = ClusteredSample.iid(rng.random(45) + 0.1)
        alphas = (0.001, *DEFAULT_ALPHAS)
        out = two_sample_clustered(f, g, side, alphas)
        nu, xi = (p.c for p in out.params)
        assert dict(out.critical_at) == {a: two_sample_critical(nu, xi, side, a) for a in alphas}

    @staticmethod
    def generic_bisection(bound, alpha):
        # reference: bracket by doubling, then bisect any nonincreasing callable
        hi = 1.0
        while bound(hi) > alpha:
            hi *= 2.0
        lo = 0.0
        while hi - lo > 1e-14 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if bound(mid) > alpha:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_same_bits_as_the_generic_bisection(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            nu, xi = (float(v) for v in rng.uniform(1.5, 5000.0, size=2))
            alpha = float(rng.uniform(1e-6, 0.5))
            for side in TailSide:
                bound = partial(two_sample_tail_bound, nu, xi, side)
                expected = self.generic_bisection(bound, alpha)
                assert two_sample_critical(nu, xi, side, alpha) == expected


    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
    def test_two_sample_critical_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(DomainError, match="alpha must lie in the open interval"):
            two_sample_critical(50.0, 40.0, TailSide.TWO_SIDED, alpha)


class TestOutcomeFromItsParams:
    """A two-sample outcome's ``p_upper`` and ``critical_at`` come from the ``params`` it reports."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from(list(TailSide)))
    def test_same_bits_as_the_product_bound_of_the_params(self, seed, side):
        rng = np.random.default_rng(seed)
        f = random_clustered(rng, max_clusters=40)
        g = random_clustered(rng, max_clusters=40)
        alphas = (0.001, *DEFAULT_ALPHAS)
        out = two_sample_clustered(f, g, side, alphas)
        assert all(p.d == 1.0 for p in out.params)
        bound = partial(bounds._product_tail_bound, out.params, side)
        assert out.p_upper.hex() == bound(out.statistic).hex()
        assert {a: c.hex() for a, c in out.critical_at.items()} == {a: bounds._bisect(bound, a).hex() for a in alphas}

    def test_every_bound_call_reads_the_returned_pair(self, monkeypatch):
        seen = []

        def spy(params, side, eps):
            seen.append(params)
            return bounds._product_tail_bound(params, side, eps)

        def refuse(*args):
            raise AssertionError("two_sample_clustered must not take the bare-size route")

        monkeypatch.setattr(kstests, "_product_tail_bound", spy)
        monkeypatch.setattr(kstests, "two_sample_tail_bound", refuse)
        monkeypatch.setattr(bounds, "two_sample_tail_bound", refuse)
        monkeypatch.setattr(bounds, "two_sample_critical", refuse)
        rng = np.random.default_rng(29)
        out = two_sample_clustered(random_clustered(rng), random_clustered(rng), TailSide.PLUS)
        assert len(seen) > len(DEFAULT_ALPHAS)
        assert all(params is out.params for params in seen)


class TestFiniteThetaNonFinite:
    @pytest.mark.parametrize(
        "stats, pair",
        [
            ([(1.0, 0.5), (math.nan, 0.0)], 1),
            ([(math.nan, 0.0), (1.0, 0.5)], 0),
            ([(0.2, 0.1), (0.3, math.nan)], 1),
            ([(math.inf, 0.0), (1.0, 0.5)], 0),
            ([(1.0, 0.5), (0.0, -math.inf)], 1),
            ([(math.inf, math.inf), (1.0, 0.5)], 0),
        ],
    )
    def test_rejects_and_names_the_pair(self, stats, pair):
        with pytest.raises(DomainError, match=f"statistic pair {pair} "):
            finite_theta_test(stats, [RangeSpec(0, 1)] * 2, c=400.0)


class TestFiniteThetaNonNumeric:
    @pytest.mark.parametrize(
        "stats, pair, types",
        [
            ([("a", 0.0)], 0, "str and float"),
            ([(0.5, 0.1), (0.2, None)], 1, "float and NoneType"),
        ],
    )
    def test_rejects_and_names_the_pair(self, stats, pair, types):
        with pytest.raises(
            DomainError, match=f"statistic pair {pair} must hold two real numbers, got {types}$"
        ):
            finite_theta_test(stats, [RangeSpec(0, 1)] * len(stats), c=400.0)


class TestFiniteThetaNonPair:
    @pytest.mark.parametrize(
        "stats, entry, shown",
        [([1.0], 0, "1.0"), ([(0.5, 0.1), (0.2, 0.1, 0.0)], 1, "(0.2, 0.1, 0.0)")],
        ids=["scalar", "triple"],
    )
    def test_rejects_and_names_the_entry(self, stats, entry, shown):
        message = f"statistic entry {entry} must be an (observed, expected) pair, got {shown}"
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            finite_theta_test(stats, [RangeSpec(0, 1)] * len(stats), c=400.0)


class TestOneSampleSideBeforeReference:
    """A bad side is rejected before the reference CDF is called even once."""

    @pytest.mark.parametrize("side", ["plus", None, 3])
    def test_scalar_reference_never_called(self, side):
        calls = []

        def scalar_ref(r):
            calls.append(r)
            return min(max(float(r), 0.0), 1.0)

        sample = ClusteredSample.iid(np.random.default_rng(3).random(20_000))
        with pytest.raises(DomainError, match=f"^side must be a TailSide, got {type(side).__name__}$"):
            one_sample_clustered(sample, scalar_ref, side)
        assert calls == []


class TestNonRealAlphas:
    @pytest.mark.parametrize(
        "test",
        [
            lambda alphas: one_sample_clustered(
                ClusteredSample.iid([0.1, 0.5, 0.7]), uniform_cdf, TailSide.PLUS, alphas=alphas
            ),
            lambda alphas: two_sample_clustered(
                ClusteredSample.iid([0.1, 0.5, 0.7]), ClusteredSample.iid([0.2, 0.4]), TailSide.MINUS, alphas=alphas
            ),
            lambda alphas: finite_theta_test([(0.1, 0.2)], [RangeSpec(0, 1)], c=10.0, alphas=alphas),
        ],
        ids=["one-sample", "two-sample", "finite-theta"],
    )
    def test_rejected(self, test):
        with pytest.raises(DomainError, match="^alpha must be a real number, got str$"):
            test(["0.05"])
        with pytest.raises(DomainError, match=r"^alpha levels must lie in \(0, 1\), got nan$"):
            test([0.05, math.nan])


class TestFiniteThetaRangeType:
    def test_non_range_entry(self):
        with pytest.raises(DomainError, match="^range 0 must be a RangeSpec, got str$"):
            finite_theta_test([(0.1, 0.2)], ["x"], c=10.0)


class TestKsOutcomeChecks:
    FIELDS = dict(side=TailSide.TWO_SIDED, params=BoundParams(c=10.0, d=1.0), p_upper_raw=0.5, critical_at={})

    def test_p_upper_above_one(self):
        with pytest.raises(DomainError, match=r"^p-value bound 1.5 outside \[0, 1\]$"):
            KsOutcome(statistic=0.1, p_upper=1.5, **self.FIELDS)

    def test_negative_statistic(self):
        with pytest.raises(DomainError, match="^sup statistic -0.1 cannot be negative$"):
            KsOutcome(statistic=-0.1, p_upper=0.5, **self.FIELDS)


class TestOneHomePerFormula:
    """Each test takes its d from the structural cases and its single-pair cap from ``tail_bound``."""

    def test_clustered_outcomes_carry_unit_d(self):
        rng = np.random.default_rng(31)
        f, g = random_clustered(rng), random_clustered(rng)
        one = one_sample_clustered(f, uniform_cdf, TailSide.PLUS)
        two = two_sample_clustered(f, g, TailSide.TWO_SIDED)
        assert [p.d.hex() for p in (one.params, *two.params)] == [(1.0).hex()] * 3

    def test_single_pair_cap_is_tail_bound(self, monkeypatch):
        calls = []

        def spy(params, side, eps):
            calls.append((params, side))
            return bounds.tail_bound(params, side, eps)

        monkeypatch.setattr(kstests, "tail_bound", spy)
        rng = np.random.default_rng(37)
        sample = ClusteredSample.iid(rng.random(200))
        outcomes = [
            one_sample_clustered(sample, uniform_cdf, TailSide.MINUS),
            finite_theta_test([(0.4, 0.5), (0.7, 0.5)], [RangeSpec(0, 1)] * 2, c=400.0),
        ]
        assert calls == [(out.params, out.side) for out in outcomes]
        for out in outcomes:
            eps = bounds.threshold(out.params, out.side, out.statistic)
            assert out.p_upper.hex() == min(1.0, out.p_upper_raw).hex()
            assert out.p_upper_raw.hex() == bounds.tail_bound_raw(out.params, out.side, eps).hex()


class TestTwoSampleOracle:
    """The two-sample oracle keeps its relative precision far below 1e-40."""

    @staticmethod
    def direct(nu, xi, eps, dps):
        # 1 - f*f as written, at enough digits that the cancellation costs nothing
        with mp.workdps(dps):

            def factor(v):
                v = mp.mpf(v)
                inner = 2 * mp.exp(-(v / 2) * (mp.mpf(eps) / oracles.denominator_hp(v)) ** 2)
                return max(mp.mpf(0), 1 - inner)

            return 1 - factor(nu) * factor(xi)

    def test_tiny_bound_against_300_digits(self):
        want = self.direct(400, 320, 3.75, 300)
        got = oracles.two_sample_two_sided_hp(400, 320, 3.75)
        assert float(want) == pytest.approx(9.4796e-52, rel=1e-4)
        assert abs(got - want) <= mp.mpf("1e-40") * want

    @pytest.mark.parametrize(
        "nu, xi, eps", [(42, 30, 2.0), (25, 25, 1.0), (400, 320, 2.15), (3, 2, 0.1)]
    )
    def test_agrees_with_the_direct_form(self, nu, xi, eps):
        got = oracles.two_sample_two_sided_hp(nu, xi, eps)
        assert abs(got - self.direct(nu, xi, eps, 100)) <= mp.mpf("1e-45") * got
