"""Coefficient formulas, the effective-sample-size identity, and fuzzed invariants."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvconc.coefficients import (
    ClusterSpec,
    FiniteTheta,
    LipschitzDifferentiable,
    LipschitzOneSided,
    MonotoneReal,
    RangeSpec,
    downward_variation,
    lipschitz_difference_params,
    mcdiarmid_from_clusters,
    mcdiarmid_from_ranges,
)
from bvconc.empirical import TrajectoryPanel
from bvconc.errors import DataFormatError, DomainError, VacuousBoundError


class TestRangeSpec:
    def test_width(self):
        assert RangeSpec(-1.0, 2.5).width == 3.5

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (float("nan"), 1.0)])
    def test_rejects_degenerate(self, lo, hi):
        with pytest.raises(DomainError):
            RangeSpec(lo, hi)


class TestMcdiarmidFromRanges:
    def test_four_unit_ranges(self):
        assert mcdiarmid_from_ranges([RangeSpec(0, 1)] * 4) == pytest.approx(4.0)

    def test_mixed_widths(self):
        assert mcdiarmid_from_ranges([RangeSpec(0, 1), RangeSpec(0, 3)]) == pytest.approx(0.4)

    def test_n_ranges_of_width_w(self):
        # n / w^2 for equal widths: n=7, w=0.5 -> 28
        assert mcdiarmid_from_ranges([RangeSpec(0, 0.5)] * 7) == pytest.approx(28.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            mcdiarmid_from_ranges([])


class TestClusterSpec:
    def test_equal_clusters(self):
        spec = ClusterSpec([5] * 12)
        assert spec.nu_n == pytest.approx(12.0)
        assert mcdiarmid_from_clusters(spec) == pytest.approx(12.0)

    def test_two_clusters(self):
        spec = ClusterSpec([1, 3])
        assert mcdiarmid_from_clusters(spec) == pytest.approx(1.6)
        assert spec.nu_n == pytest.approx(2.0 / (1.0 + 1.0 / 4.0))

    def test_three_clusters(self):
        spec = ClusterSpec([2, 3, 5])
        assert mcdiarmid_from_clusters(spec) == pytest.approx(100.0 / 38.0)

    def test_population_variance_convention(self):
        spec = ClusterSpec([1, 3])
        assert spec.a_n == pytest.approx(2.0)
        assert spec.s2_n == pytest.approx(1.0)  # divide by K, not K-1

    @pytest.mark.parametrize("sizes", [[], [0], [2, -1]])
    def test_rejects_bad_sizes(self, sizes):
        with pytest.raises(DomainError):
            ClusterSpec(sizes)

    def test_identity_fuzz(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            k = int(rng.integers(1, 40))
            sizes = rng.integers(1, 50, size=k).tolist()
            spec = ClusterSpec(sizes)
            nu = spec.nu_n
            assert abs(mcdiarmid_from_clusters(spec) - nu) <= 1e-12 * nu
            assert 1.0 - 1e-12 <= nu <= k + 1e-12
            if len(set(sizes)) == 1:
                assert nu == pytest.approx(k)
            else:
                assert nu < k

    def test_nu_computed_once_and_bit_identical(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            sizes = rng.integers(1, 60, size=int(rng.integers(1, 300))).tolist()
            spec = ClusterSpec(sizes)
            k = len(sizes)
            a = sum(sizes) / k
            s2 = sum((s - a) ** 2 for s in sizes) / k
            nu = spec.nu_n
            assert nu == k / (1.0 + s2 / (a * a))
            assert spec.nu_n is nu
            assert (spec.n, spec.a_n, spec.s2_n) == (sum(sizes), a, s2)
            assert spec == ClusterSpec(sizes) and hash(spec) == hash(ClusterSpec(sizes))

    def test_merging_never_increases_coefficient(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            k = int(rng.integers(2, 12))
            sizes = rng.integers(1, 30, size=k).tolist()
            base = mcdiarmid_from_clusters(ClusterSpec(sizes))
            i, j = rng.choice(k, size=2, replace=False)
            merged = [s for idx, s in enumerate(sizes) if idx not in (i, j)]
            merged.append(sizes[i] + sizes[j])
            assert mcdiarmid_from_clusters(ClusterSpec(merged)) <= base + 1e-12


class TestSumsInOrder:
    """Coefficient sums add their terms left to right, with the bits of Python 3.11's sum()."""

    def test_nu_bits(self):
        # Python 3.12's compensated sum() gives 0x1.c5aaa10e1b744p+11
        sizes = [(7 * i * i + 3 * i) % 39 + 1 for i in range(5000)]
        assert ClusterSpec(sizes).nu_n.hex() == "0x1.c5aaa10e1b759p+11"

    def test_range_sum_bits(self):
        assert downward_variation(FiniteTheta([RangeSpec(0, 0.1)] * 7)).hex() == "0x1.f5c28f5c28f5bp-2"
        ranges = [RangeSpec(0, 0.1 * i + 0.3) for i in range(1, 40)]
        assert mcdiarmid_from_ranges(ranges).hex() == "0x1.7cae65c6798edp+2"


class TestDownwardVariation:
    def test_monotone_unit_range(self):
        assert downward_variation(MonotoneReal(RangeSpec(0, 1))) == pytest.approx(1.0)

    def test_finite_theta(self):
        case = FiniteTheta([RangeSpec(0, 1), RangeSpec(2, 3), RangeSpec(-1, 0)])
        assert downward_variation(case) == pytest.approx(9.0)

    def test_lipschitz_one_sided(self):
        assert downward_variation(LipschitzOneSided(RangeSpec(-1, 1), 2.0)) == pytest.approx(16.0)

    def test_differentiable_matches_one_sided(self):
        r = RangeSpec(0.0, 0.5)
        assert downward_variation(LipschitzDifferentiable(r, 1.5)) == downward_variation(
            LipschitzOneSided(r, 1.5)
        )

    @given(s=st.floats(0.1, 10.0), w=st.floats(0.1, 5.0), k=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_scale_covariance(self, s, w, k):
        base = downward_variation(FiniteTheta([RangeSpec(0, w)] * k))
        scaled = downward_variation(FiniteTheta([RangeSpec(0, s * w)] * k))
        assert scaled == pytest.approx(s * s * base, rel=1e-12)
        mono = downward_variation(MonotoneReal(RangeSpec(0, w)))
        mono_scaled = downward_variation(MonotoneReal(RangeSpec(0, s * w)))
        assert mono_scaled == pytest.approx(s * s * mono, rel=1e-12)

    def test_negative_lipschitz_rejected(self):
        with pytest.raises(DomainError):
            LipschitzOneSided(RangeSpec(0, 1), -0.5)


class TestLipschitzDifferenceParams:
    def test_continuous_no_drift(self):
        p = lipschitz_difference_params(100, 0.0)
        assert (p.c, p.d) == (25.0, 4.0)
        assert p.product == pytest.approx(100.0)

    def test_continuous_with_constant(self):
        p = lipschitz_difference_params(4, 1.0)
        assert (p.c, p.d) == (1.0, 16.0)

    def test_discrete_grid_flag(self):
        p = lipschitz_difference_params(100, grid_size=5)
        assert p.c == 25.0
        assert p.product == pytest.approx(2500.0)

    def test_vacuous_product_rejected(self):
        with pytest.raises(VacuousBoundError):
            lipschitz_difference_params(1, 0.0)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            lipschitz_difference_params(0, 1.0)
        with pytest.raises(DomainError):
            lipschitz_difference_params(4, -1.0)
        with pytest.raises(DomainError):
            lipschitz_difference_params(4, grid_size=0)

    @pytest.mark.parametrize("bad", [2.5, 4.0, "3"])
    def test_counts_must_be_integers(self, bad):
        message = f"must be an integer, got {type(bad).__name__}$"
        with pytest.raises(DomainError, match=f"^unit count {message}"):
            lipschitz_difference_params(bad, 1.0)
        with pytest.raises(DomainError, match=f"^grid size {message}"):
            lipschitz_difference_params(100, grid_size=bad)

    def test_numpy_integer_counts_accepted(self):
        p = lipschitz_difference_params(np.int64(100), grid_size=np.int32(5))
        assert (p.c, p.d) == (25.0, 100.0)


class TestClusterSpecSizeTypes:
    @pytest.mark.parametrize(
        "sizes", [[1.5, 2], ["3"], [2, math.nan], [math.inf], [np.float64(3.0)], [2, None]]
    )
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(DomainError, match="cluster sizes must be integers"):
            ClusterSpec(sizes)

    def test_accepts_python_and_numpy_integers(self):
        counts = np.bincount(np.array([0, 0, 1, 2, 2, 2]))
        for sizes in (counts, counts.tolist(), list(counts), counts.astype(np.int32)):
            spec = ClusterSpec(sizes)
            assert spec.sizes == (2, 1, 3)
            assert all(type(s) is int for s in spec.sizes)
            assert spec == ClusterSpec([2, 1, 3])


class TestLipschitzConstantCheck:
    """Every holder of a Lipschitz constant rejects a bad one with the same message."""

    @pytest.mark.parametrize("k_lip", [-0.5, math.nan, math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda k: LipschitzDifferentiable(RangeSpec(0, 1), k),
            lambda k: LipschitzOneSided(RangeSpec(0, 1), k),
            lambda k: lipschitz_difference_params(4, k),
        ],
    )
    def test_domain_error(self, make, k_lip):
        with pytest.raises(DomainError, match=f"^Lipschitz constant must be >= 0, got {k_lip}$"):
            make(k_lip)

    @pytest.mark.parametrize("k_lip", [-0.5, math.nan])
    def test_panel_raises_data_format_error(self, k_lip):
        with pytest.raises(DataFormatError, match=f"^Lipschitz constant must be >= 0, got {k_lip}$"):
            TrajectoryPanel(times=[0.0, 1.0], unit_values=[[0.5, 0.5]], k_lip=k_lip)

    def test_the_two_cases_stay_distinct(self):
        r = RangeSpec(0, 1)
        assert LipschitzDifferentiable(r, 1.0) != LipschitzOneSided(r, 1.0)
        assert repr(LipschitzOneSided(r, 1.0)) == "LipschitzOneSided(range=RangeSpec(lo=0, hi=1), k_lip=1.0)"


class TestNonRealScalars:
    """Range endpoints and Lipschitz constants that are not real numbers raise a DomainError."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: RangeSpec("0", 1), "range endpoint lo must be a real number, got str"),
            (lambda: RangeSpec(0, None), "range endpoint hi must be a real number, got NoneType"),
            (lambda: lipschitz_difference_params(10, "1"), "Lipschitz constant must be a real number, got str"),
            (
                lambda: LipschitzOneSided(RangeSpec(0, 1), [1.0]),
                "Lipschitz constant must be a real number, got list",
            ),
            (
                lambda: TrajectoryPanel(times=[0.0, 1.0], unit_values=[[0.0, 0.5]], k_lip="1"),
                "Lipschitz constant must be a real number, got str",
            ),
        ],
    )
    def test_rejected(self, call, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()

    def test_nan_keeps_its_message(self):
        with pytest.raises(DomainError, match=r"^range endpoints must be finite, got \(nan, 1\)$"):
            RangeSpec(math.nan, 1)
        with pytest.raises(DataFormatError, match="^Lipschitz constant must be >= 0, got nan$"):
            TrajectoryPanel(times=[0.0, 1.0], unit_values=[[0.0, 0.5]], k_lip=math.nan)

    def test_integer_endpoints_stay_integers(self):
        assert RangeSpec(0, 3).width == 3 and type(RangeSpec(0, 3).width) is int


class TestFiniteThetaEntries:
    def test_empty(self):
        with pytest.raises(DomainError, match="^finite parameter case needs at least one range$"):
            FiniteTheta([])

    @pytest.mark.parametrize(
        "ranges, index, kind",
        [(["x"], 0, "str"), ([RangeSpec(0, 1), (0, 1)], 1, "tuple"), ([RangeSpec(0, 1), None], 1, "NoneType")],
    )
    def test_non_range_entry(self, ranges, index, kind):
        with pytest.raises(DomainError, match=f"^range {index} must be a RangeSpec, got {kind}$"):
            FiniteTheta(ranges)

    def test_unknown_case(self):
        with pytest.raises(DomainError, match="^unknown downward-variation case: 3$"):
            downward_variation(3)


class TestRangeType:
    """A range that is not a ``RangeSpec`` raises a DomainError naming it, wherever a range is taken."""

    @pytest.mark.parametrize(
        "make",
        [
            MonotoneReal,
            lambda r: LipschitzDifferentiable(r, 1.0),
            lambda r: LipschitzOneSided(r, 1.0),
        ],
        ids=["monotone", "differentiable", "one-sided"],
    )
    def test_single_range_case(self, make):
        with pytest.raises(DomainError, match="^range must be a RangeSpec, got str$"):
            make("x")

    def test_mcdiarmid_entry(self):
        with pytest.raises(DomainError, match="^range 1 must be a RangeSpec, got tuple$"):
            mcdiarmid_from_ranges([RangeSpec(0, 1), (0, 1)])

    @pytest.mark.parametrize("call", [FiniteTheta, mcdiarmid_from_ranges], ids=["finite-theta", "mcdiarmid"])
    def test_not_a_sequence(self, call):
        with pytest.raises(DomainError, match="^ranges must be a sequence of RangeSpec, got int$"):
            call(5)


UNIT = RangeSpec(0.0, 1.0)


class TestDifferenceCoefficientsFromCases:
    """The difference coefficients keep their closed forms, bit for bit, through the structural cases."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.floats(min_value=0.0, max_value=1e153),
            st.integers(0, 2**60).map(float),
            st.integers(0, 2**60),
            st.integers(0, 2**60).map(np.int64),
            st.integers(0, 2**31 - 1).map(np.int32),
        )
    )
    @example(0.0)
    @example(5e-324)
    @example(2.2250738585072014e-308)
    @example(1e153)
    @example(2.0**53 + 1)
    @example(np.int64(3))
    def test_continuous_d(self, k_lip):
        assert lipschitz_difference_params(4, k_lip).d.hex() == (4.0 * (1.0 + k_lip) ** 2).hex()

    def test_grid_d_is_the_finite_theta_case(self):
        for g in [*range(1, 3001), 10**5]:
            want = 4.0 * downward_variation(FiniteTheta((UNIT,) * g))
            assert lipschitz_difference_params(2, grid_size=g).d.hex() == want.hex()

    def test_lipschitz_constant_checked_before_grid_size(self):
        with pytest.raises(DomainError, match=r"^Lipschitz constant must be >= 0, got -1.0$"):
            lipschitz_difference_params(4, -1.0, grid_size=0)


class TestSquareOverflow:
    """A d whose square overflows a float, or an int past the float range, is a DomainError."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: lipschitz_difference_params(4, 1e155),
                "range width plus Lipschitz constant 1e+155 is too large: its square overflows a float",
            ),
            (lambda: lipschitz_difference_params(4, 10**400), "Lipschitz constant is too large for a float"),
            (
                lambda: downward_variation(MonotoneReal(RangeSpec(-1e200, 1e200))),
                "range width 2e+200 is too large: its square overflows a float",
            ),
            (
                lambda: downward_variation(FiniteTheta([RangeSpec(0.0, 1e200)] * 2)),
                "sum of range widths 2e+200 is too large: its square overflows a float",
            ),
            (
                lambda: downward_variation(LipschitzDifferentiable(RangeSpec(0.0, 1.0), 1e300)),
                "range width plus Lipschitz constant 1e+300 is too large: its square overflows a float",
            ),
            (lambda: RangeSpec(0, 10**400), "range endpoint hi is too large for a float"),
        ],
        ids=["k-lip-float", "k-lip-int", "monotone", "finite-theta", "differentiable", "range-int"],
    )
    def test_domain_error(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_largest_square_still_passes(self):
        k = 6e153  # 4 (1 + k)^2 is about 1.44e308, below the float maximum
        assert lipschitz_difference_params(4, k).d == 4.0 * (1.0 + k) ** 2
