"""Exactness of sup statistics against brute-force oracles, plus panel bounds."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvconc.bounds import TailSide
from bvconc.empirical import (
    _REFERENCE_CHUNK,
    ClusteredSample,
    StepCdf,
    TrajectoryPanel,
    ecdf,
    lipschitz_sup_interval,
    sup_distance_reference,
    sup_distance_two_sample,
    _reference_values,
)
from bvconc.errors import DataFormatError, DomainError, LipschitzConsistencyError

import oracles


def uniform_cdf(r):
    return np.clip(r, 0.0, 1.0)


def random_lattice_sample(rng, max_size=20):
    """Values on a 0.01 lattice so that every step plateau is wider than the oracle grid."""
    size = int(rng.integers(1, max_size + 1))
    return rng.integers(0, 101, size=size) / 100.0


class TestClusteredSample:
    def test_from_pairs_and_spec(self):
        s = ClusteredSample.from_pairs([(1.0, "a"), (2.0, "a"), (3.0, "b")])
        assert s.n == 3
        assert s.cluster_spec().sizes == (2, 1)
        assert s.cluster_spec().nu_n == pytest.approx(1.8)

    def test_iid_constructor(self):
        s = ClusteredSample.iid([0.3, 0.1, 0.9])
        assert s.cluster_spec().nu_n == pytest.approx(3.0)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(DomainError):
            ClusteredSample(values=(), cluster_ids=())
        with pytest.raises(DomainError):
            ClusteredSample.iid([1.0, math.inf])


class TestArrayNativeSample:
    @pytest.mark.parametrize(
        "labels, sizes, codes",
        [
            (["b", "a", "b", "c", "b"], (3, 1, 1), [0, 1, 0, 2, 0]),
            ([5, 3, 5, 5, 9], (3, 1, 1), [0, 1, 0, 0, 2]),
            ([(1, 2), (0, 0), (1, 2), (0, 1)], (2, 1, 1), [0, 1, 0, 2]),
        ],
    )
    def test_first_appearance_order(self, labels, sizes, codes):
        s = ClusteredSample(values=[float(i) for i in range(len(labels))], cluster_ids=labels)
        assert s.cluster_spec().sizes == sizes
        assert s.cluster_ids.tolist() == codes
        assert s.cluster_ids.dtype == np.intp

    def test_hash_equal_labels_form_one_cluster(self):
        s = ClusteredSample.from_pairs([(0.1, 1), (0.2, "x"), (0.3, 1.0), (0.4, True)])
        assert s.cluster_spec().sizes == (3, 1)

    def test_length_mismatch_and_nonfinite_values(self):
        with pytest.raises(DomainError, match="3 values but 2 cluster labels"):
            ClusteredSample(values=[1.0, 2.0, 3.0], cluster_ids=["a", "b"])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"must be finite, got {bad}$"):
                ClusteredSample.from_pairs([(1.0, "a"), (bad, "a"), (math.nan, "b")])

    def test_stored_ecdf_and_read_only_arrays(self):
        values = np.array([0.3, 0.1, 0.3])
        s = ClusteredSample(values=values, cluster_ids=["a", "b", "a"])
        assert ecdf(s) is ecdf(s)
        assert s.cluster_spec() is s.cluster_spec()
        assert s.values.dtype == np.float64
        for array in (s.values, s.cluster_ids, ecdf(s).jump_points, ecdf(s).values):
            with pytest.raises(ValueError):
                array[0] = 0.0
        values[0] = 5.0  # the sample keeps its own copy of the caller's array
        assert s.values.tolist() == [0.3, 0.1, 0.3]


class TestEcdf:
    def test_uniform_jumps(self):
        f = ecdf(ClusteredSample.iid([1.0, 2.0, 3.0]))
        assert np.allclose(f.jump_points, [1.0, 2.0, 3.0])
        assert np.allclose(f.values, [1 / 3, 2 / 3, 1.0])

    def test_tie_handling(self):
        f = ecdf(ClusteredSample.iid([1.0, 1.0, 2.0]))
        assert np.allclose(f.jump_points, [1.0, 2.0])
        assert np.allclose(f.values, [2 / 3, 1.0])

    def test_right_continuity_and_left_limits(self):
        f = ecdf(ClusteredSample.iid([0.0, 1.0]))
        assert f.evaluate(0.0) == 0.5
        assert f.evaluate_left(0.0) == 0.0
        assert f.evaluate(-0.5) == 0.0
        assert f.evaluate(2.0) == 1.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=1000)
        f = ecdf(ClusteredSample.iid(values))
        grid = np.linspace(values.min() - 0.5, values.max() + 0.5, 10_000)
        direct = (values[None, :] <= grid[:, None]).sum(axis=1) / values.size
        assert np.array_equal(f.evaluate(grid), direct)


class TestSupDistanceTwoSample:
    def test_identical_samples(self):
        f = ecdf(ClusteredSample.iid([0.2, 0.4, 0.9]))
        assert sup_distance_two_sample(f, f, TailSide.TWO_SIDED) == 0.0

    def test_hand_example(self):
        f = ecdf(ClusteredSample.iid([1.0, 2.0]))
        g = ecdf(ClusteredSample.iid([1.0, 3.0]))
        assert sup_distance_two_sample(f, g, TailSide.TWO_SIDED) == pytest.approx(0.5)
        assert sup_distance_two_sample(f, g, TailSide.PLUS) == pytest.approx(0.5)
        assert sup_distance_two_sample(f, g, TailSide.MINUS) == 0.0

    def test_dense_grid_oracle_fuzz(self):
        rng = np.random.default_rng(20240818)
        for _ in range(200):
            xs = random_lattice_sample(rng)
            ys = random_lattice_sample(rng)
            f, g = ecdf(ClusteredSample.iid(xs)), ecdf(ClusteredSample.iid(ys))
            plus, minus, two = oracles.dense_grid_sup_two_sample(xs, ys, -1.0, 2.0)
            assert sup_distance_two_sample(f, g, TailSide.PLUS) == pytest.approx(plus, abs=1e-12)
            assert sup_distance_two_sample(f, g, TailSide.MINUS) == pytest.approx(minus, abs=1e-12)
            assert sup_distance_two_sample(f, g, TailSide.TWO_SIDED) == pytest.approx(two, abs=1e-12)

    def test_symmetry_and_side_decomposition(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            f = ecdf(ClusteredSample.iid(rng.normal(size=int(rng.integers(1, 15)))))
            g = ecdf(ClusteredSample.iid(rng.normal(size=int(rng.integers(1, 15)))))
            plus = sup_distance_two_sample(f, g, TailSide.PLUS)
            minus = sup_distance_two_sample(f, g, TailSide.MINUS)
            two = sup_distance_two_sample(f, g, TailSide.TWO_SIDED)
            assert two == max(plus, minus)
            assert two == sup_distance_two_sample(g, f, TailSide.TWO_SIDED)
            assert plus == sup_distance_two_sample(g, f, TailSide.MINUS)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            f, g, h = (
                ecdf(ClusteredSample.iid(rng.uniform(size=int(rng.integers(1, 12)))))
                for _ in range(3)
            )
            dfh = sup_distance_two_sample(f, h, TailSide.TWO_SIDED)
            dfg = sup_distance_two_sample(f, g, TailSide.TWO_SIDED)
            dgh = sup_distance_two_sample(g, h, TailSide.TWO_SIDED)
            assert dfh <= dfg + dgh + 1e-12


class TestSupDistanceReference:
    def test_single_point_half(self):
        f = ecdf(ClusteredSample.iid([0.5]))
        assert sup_distance_reference(f, uniform_cdf, TailSide.PLUS) == pytest.approx(0.5)
        assert sup_distance_reference(f, uniform_cdf, TailSide.MINUS) == pytest.approx(0.5)
        assert sup_distance_reference(f, uniform_cdf, TailSide.TWO_SIDED) == pytest.approx(0.5)

    def test_midpoint_quantiles(self):
        f = ecdf(ClusteredSample.iid([(2 * i - 1) / 10 for i in range(1, 6)]))
        assert sup_distance_reference(f, uniform_cdf, TailSide.TWO_SIDED) == pytest.approx(0.1)

    def test_empty_tail(self):
        f = ecdf(ClusteredSample.iid([10.0]))
        assert sup_distance_reference(f, uniform_cdf, TailSide.MINUS) == pytest.approx(1.0)

    def test_scalar_reference_fallback(self):
        f = ecdf(ClusteredSample.iid([0.25, 0.75]))
        vectorized = sup_distance_reference(f, uniform_cdf, TailSide.TWO_SIDED)
        scalar = sup_distance_reference(
            f, lambda r: min(max(float(r), 0.0), 1.0), TailSide.TWO_SIDED
        )
        assert vectorized == scalar

    def test_dense_grid_oracle_fuzz(self):
        rng = np.random.default_rng(314)
        for _ in range(100):
            xs = random_lattice_sample(rng)
            f = ecdf(ClusteredSample.iid(xs))
            plus, minus, two = oracles.dense_grid_sup_reference(
                xs, lambda r: min(max(r, 0.0), 1.0), -0.5, 1.5
            )
            # the grid undershoots the minus side by at most one step of the reference
            assert plus <= sup_distance_reference(f, uniform_cdf, TailSide.PLUS) + 1e-12
            exact_minus = sup_distance_reference(f, uniform_cdf, TailSide.MINUS)
            assert minus - 1e-12 <= exact_minus <= minus + 2e-4
            exact_two = sup_distance_reference(f, uniform_cdf, TailSide.TWO_SIDED)
            assert two - 1e-12 <= exact_two <= two + 2e-4

    def test_monotonicity_guard(self):
        f = ecdf(ClusteredSample.iid([0.2, 0.8]))
        with pytest.raises(DomainError):
            sup_distance_reference(f, lambda r: 1.0 - uniform_cdf(r), TailSide.TWO_SIDED)

    def test_extra_candidate_points(self):
        # harmless for a truly continuous reference, available for kinked ones
        f = ecdf(ClusteredSample.iid([0.25, 0.75]))
        base = sup_distance_reference(f, uniform_cdf, TailSide.TWO_SIDED)
        refined = sup_distance_reference(
            f, uniform_cdf, TailSide.TWO_SIDED, extra_points=(0.0, 0.5, 1.0)
        )
        assert refined == base


class TestStepCdfValidation:
    def test_rejects_decreasing_values(self):
        with pytest.raises(DomainError):
            StepCdf(jump_points=np.array([0.0, 1.0]), values=np.array([0.8, 0.5]))

    def test_rejects_non_increasing_jumps(self):
        with pytest.raises(DomainError):
            StepCdf(jump_points=np.array([1.0, 1.0]), values=np.array([0.5, 1.0]))

    def test_rejects_final_not_one(self):
        with pytest.raises(DomainError):
            StepCdf(jump_points=np.array([1.0]), values=np.array([0.9]))


class TestTrajectoryPanel:
    def test_delta_and_units(self):
        panel = TrajectoryPanel(
            times=np.linspace(0, 1, 11), unit_values=np.tile(np.linspace(0, 1, 11), (3, 1)), k_lip=1.0
        )
        assert panel.n_units == 3
        assert panel.delta == pytest.approx(0.1)

    def test_consistency_violation_names_offender(self):
        with pytest.raises(LipschitzConsistencyError, match="slope 2"):
            TrajectoryPanel(
                times=np.array([0.0, 0.5]), unit_values=np.array([[0.0, 1.0]]), k_lip=1.0
            )

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(DataFormatError):
            TrajectoryPanel(times=np.array([0.0, 1.0]), unit_values=np.array([[0.0, 1.5]]), k_lip=2.0)

    def test_rejects_nonmonotone_times(self):
        with pytest.raises(DataFormatError):
            TrajectoryPanel(times=np.array([0.0, 0.0]), unit_values=np.array([[0.0, 0.0]]), k_lip=1.0)


class TestLipschitzSupInterval:
    def test_identical_panels_pure_slack(self):
        times = np.linspace(0, 1, 11)
        vals = np.tile(times, (2, 1))
        f = TrajectoryPanel(times=times, unit_values=vals, k_lip=1.0)
        lower, upper = lipschitz_sup_interval(f, f)
        assert lower == 0.0
        assert upper == pytest.approx(1.0 * 0.1)

    def test_grid_max_plus_slack(self):
        times = np.linspace(0, 1, 11)
        f = TrajectoryPanel(times=times, unit_values=np.full((1, 11), 0.3), k_lip=1.0)
        g = TrajectoryPanel(times=times, unit_values=np.zeros((1, 11)), k_lip=1.0)
        lower, upper = lipschitz_sup_interval(f, g)
        assert (lower, upper) == (pytest.approx(0.3), pytest.approx(0.4))

    def test_calculus_oracle(self):
        # means t and t^2 differ by at most 1/4, at t = 1/2
        times = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10)
        f = TrajectoryPanel(times=times, unit_values=times[None, :], k_lip=2.0)
        g = TrajectoryPanel(times=times, unit_values=(times**2)[None, :], k_lip=2.0)
        lower, upper = lipschitz_sup_interval(f, g)
        assert lower <= 0.25 <= upper
        assert upper - lower == pytest.approx(2.0 * 0.01)

    def test_interval_width_is_k_times_mesh(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = np.sort(rng.uniform(size=6))
            times = np.concatenate(([0.0], t, [1.0]))
            k = float(rng.uniform(0.5, 3.0))
            dt = np.diff(times)
            steps = rng.uniform(-1, 1, size=(2, dt.size)) * (k * dt)  # within slope budget
            walk = np.concatenate([np.zeros((2, 1)), np.cumsum(steps, axis=1)], axis=1)
            vals = np.clip(0.5 + walk, 0.0, 1.0)  # clipping is 1-Lipschitz, budget preserved
            f = TrajectoryPanel(times=times, unit_values=vals, k_lip=k)
            g = TrajectoryPanel(times=times, unit_values=vals[::-1], k_lip=k)
            lower, upper = lipschitz_sup_interval(f, g)
            assert lower <= upper
            assert upper - lower == pytest.approx(k * np.diff(times).max(), rel=1e-12)

    def test_grid_mismatch_rejected(self):
        f = TrajectoryPanel(times=np.array([0.0, 1.0]), unit_values=np.zeros((1, 2)), k_lip=1.0)
        g = TrajectoryPanel(times=np.array([0.0, 0.5]), unit_values=np.zeros((1, 2)), k_lip=1.0)
        with pytest.raises(DataFormatError):
            lipschitz_sup_interval(f, g)

    def test_unit_count_mismatch_rejected(self):
        f = TrajectoryPanel(times=np.array([0.0, 1.0]), unit_values=np.zeros((1, 2)), k_lip=1.0)
        g = TrajectoryPanel(times=np.array([0.0, 1.0]), unit_values=np.zeros((2, 2)), k_lip=1.0)
        with pytest.raises(DataFormatError):
            lipschitz_sup_interval(f, g)


def exact_triangle_rhs(breaks, values, alpha, p):
    """alpha * integral over [0,1] of h(alpha*(f(x)-x)^+) dx, exactly, piecewise.

    f is the step function equal to values[i] on [breaks[i], breaks[i+1]) with
    breaks[0] = 0 and an implicit final endpoint at 1; h(y) = p*exp(p*y).
    On a piece where f's value c exceeds x the integrand is p*exp(p*alpha*(c-x))
    with antiderivative -exp(p*alpha*(c-x))/alpha; where c <= x it is the
    constant p.
    """
    edges = list(breaks) + [1.0]
    total = 0.0
    for i, c in enumerate(values):
        u, v = edges[i], edges[i + 1]
        if c <= u:
            total += p * (v - u)
        elif c >= v:
            total += (math.exp(p * alpha * (c - u)) - math.exp(p * alpha * (c - v))) / alpha
        else:
            total += (math.exp(p * alpha * (c - u)) - 1.0) / alpha + p * (v - c)
    return alpha * total


class TestTriangularInequalityOracle:
    """H(alpha * sup (f(t)-t)^+) <= alpha * int_0^1 h(alpha*(f(x)-x)^+) dx for monotone f."""

    def test_fuzz(self):
        rng = np.random.default_rng(424242)
        for _ in range(500):
            k = int(rng.integers(1, 9))
            breaks = np.concatenate(([0.0], np.sort(rng.uniform(size=k - 1)))) if k > 1 else np.array([0.0])
            values = np.sort(rng.uniform(size=k))
            sup_plus = max(max(c - b for c, b in zip(values, breaks)), 0.0)
            for alpha in (0.5, 1.0, 2.0, 5.0):
                for p in (0.5, 1.0, 2.0):
                    lhs = math.exp(p * alpha * sup_plus) - 1.0
                    rhs = exact_triangle_rhs(breaks, values, alpha, p)
                    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


class TestStepCdfEmpirical:
    def test_matches_sample_ecdf_with_ties(self):
        values = [0.5, -1.0, 0.5, 2.0, -1.0, 0.5, 3.25]
        built = StepCdf.empirical(np.array(values))
        stored = ecdf(ClusteredSample.iid(values))
        assert np.array_equal(built.jump_points, stored.jump_points)
        assert np.array_equal(built.values, stored.values)
        assert list(built.jump_points) == [-1.0, 0.5, 2.0, 3.25]
        assert list(built.values) == [2 / 7, 5 / 7, 6 / 7, 1.0]

    def test_jump_points_and_values_read_only(self):
        built = StepCdf.empirical(np.array([1.0, 1.0, 2.0]))
        for array in (built.jump_points, built.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(DomainError):
            StepCdf.empirical(np.array([]))
        with pytest.raises(DomainError):
            StepCdf.empirical(np.array([0.0, np.nan]))


class TestReferenceRangeCheck:
    @pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5])
    def test_rejects_out_of_range_or_nan_reference(self, bad):
        f = ecdf(ClusteredSample.iid([0.2, 0.8]))

        def ref(r):
            out = uniform_cdf(np.asarray(r, dtype=float))
            return np.where(r > 0.5, bad, out)

        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
            sup_distance_reference(f, ref, TailSide.TWO_SIDED)

    def test_nan_from_scalar_reference_rejected(self):
        f = ecdf(ClusteredSample.iid([0.2, 0.8]))
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
            sup_distance_reference(f, lambda r: math.nan, TailSide.PLUS)


class TestUnhashableLabels:
    @pytest.mark.parametrize("labels", [[[1], [2]], [{"a": 1}, {"a": 1}], [1, [2]]])
    def test_rejects_unhashable_labels(self, labels):
        with pytest.raises(DomainError, match="cluster labels must be hashable"):
            ClusteredSample(values=[0.1, 0.2], cluster_ids=labels)


class TestNonSequenceClusterIds:
    @pytest.mark.parametrize("cluster_ids, type_name", [(5, "int"), (None, "NoneType")])
    def test_rejects_and_names_the_type(self, cluster_ids, type_name):
        with pytest.raises(
            DomainError, match=f"cluster_ids must be a sequence of labels, got {type_name}$"
        ):
            ClusteredSample(values=[0.1, 0.2], cluster_ids=cluster_ids)


def union_sup_two_sample(f, g, side):
    """Merge-based reference: evaluate both CDFs on the sorted union of their jumps."""
    pts = np.union1d(f.jump_points, g.jump_points)
    diff = f.evaluate(pts) - g.evaluate(pts)
    plus = max(float(np.max(diff)), 0.0)
    minus = max(float(np.max(-diff)), 0.0)
    return {TailSide.PLUS: plus, TailSide.MINUS: minus}.get(side, max(plus, minus))


def iid_ecdf(xs):
    return ecdf(ClusteredSample.iid(xs))


def two_sample_cases():
    rng = np.random.default_rng(20261018)
    cases = [
        (iid_ecdf([0.2, 0.4, 0.9]), iid_ecdf([0.2, 0.4, 0.9])),  # identical samples
        (iid_ecdf([0.1, 0.2, 0.2]), iid_ecdf([0.5, 0.7])),  # disjoint supports
        (iid_ecdf([0.3]), iid_ecdf([0.3])),  # single points, shared
        (iid_ecdf([0.3]), iid_ecdf([0.8])),  # single points, apart
        (iid_ecdf([0.5]), iid_ecdf([0.1, 0.5, 0.9])),
        # direct heights, one of them 0 and one -0.0
        (
            StepCdf(jump_points=[0.0, 0.25, 0.5], values=[0.0, 0.5, 1.0]),
            StepCdf(jump_points=[0.25, 0.75], values=[0.25, 1.0]),
        ),
        (
            StepCdf(jump_points=[0.1, 0.3], values=[-0.0, 1.0]),
            StepCdf(jump_points=[0.1, 0.2, 0.3], values=[0.0, 0.5, 1.0]),
        ),
    ]
    for _ in range(200):
        # a coarse shared lattice makes many jump points common to both samples
        xs, ys = (
            rng.integers(0, int(rng.integers(1, 30)), size=int(rng.integers(1, 40))) / 8.0
            for _ in range(2)
        )
        cases.append((iid_ecdf(xs), iid_ecdf(ys)))
        heights = np.sort(rng.integers(0, 6, size=np.unique(xs).size) / 5.0)
        heights[-1] = 1.0
        cases.append((StepCdf(jump_points=np.unique(xs), values=heights), iid_ecdf(ys)))
    return cases


class TestSupDistanceTwoSampleBitIdentity:
    def test_matches_union_reference_bit_for_bit(self):
        # adding 0.0 leaves every bit but the sign of a zero, which the next test pins
        for f, g in two_sample_cases():
            for side in TailSide:
                for a, b in ((f, g), (g, f)):
                    got = sup_distance_two_sample(a, b, side) + 0.0
                    assert got.hex() == (union_sup_two_sample(a, b, side) + 0.0).hex()

    def test_zero_minus_side_statistic_is_negative_zero(self):
        # pins the current sign of a zero statistic when F >= G everywhere;
        # re-record it in the change that certifies p-values
        f = ecdf(ClusteredSample.iid([0.1, 0.2]))
        g = ecdf(ClusteredSample.iid([0.5, 0.6]))
        for a, b in ((f, g), (f, f)):
            assert sup_distance_two_sample(a, b, TailSide.MINUS).hex() == "-0x0.0p+0"
        assert sup_distance_two_sample(f, f, TailSide.PLUS).hex() == "0x0.0p+0"

    def test_negative_zero_height_is_stored_as_zero(self):
        f = StepCdf(jump_points=[0.1, 0.3], values=[-0.0, 1.0])
        assert f.values[0].hex() == "0x0.0p+0"


def searchsorted_sup_reference(f, ref_cdf, side):
    """Reference that searches the step CDF for its own jump points."""
    pts = f.jump_points
    padded = np.concatenate(([0.0], f.values))
    right = padded[np.searchsorted(pts, pts, side="right")]
    left = padded[np.searchsorted(pts, pts, side="left")]
    ref = ref_cdf(pts)
    plus = max(float(np.max(right - ref)), 0.0)
    minus = max(float(np.max(ref - left)), 0.0)
    return {TailSide.PLUS: plus, TailSide.MINUS: minus}.get(side, max(plus, minus))


class TestSupDistanceReferenceSelfEvaluation:
    def test_matches_searchsorted_reference_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            jumps = np.unique(rng.uniform(-0.2, 1.2, size=int(rng.integers(1, 50))).round(2))
            if rng.random() < 0.5:
                f = StepCdf.empirical(rng.choice(jumps, size=int(rng.integers(1, 80))))
            else:
                heights = np.sort(rng.uniform(size=jumps.size))
                heights[-1] = 1.0
                f = StepCdf(jump_points=jumps, values=heights)
            for side in TailSide:
                got = sup_distance_reference(f, uniform_cdf, side, extra_points=())
                assert got.hex() == searchsorted_sup_reference(f, uniform_cdf, side).hex()

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (1.5, r"must lie in \[0, 1\]"),
            (-0.5, r"must lie in \[0, 1\]"),
            (math.nan, r"must lie in \[0, 1\]"),
            ("drop", "must be nondecreasing"),
        ],
    )
    def test_checks_see_every_jump_point(self, at, bad, message):
        jumps = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        f = StepCdf.empirical(jumps)
        # "drop" makes the reference decrease into or out of the chosen jump only
        value = {0: 0.95, 2: 0.0, 4: 0.0}[at] if bad == "drop" else bad

        def ref(r):
            out = uniform_cdf(np.asarray(r, dtype=float))
            return np.where(r == jumps[at], value, out)

        with pytest.raises(DomainError, match=message):
            sup_distance_reference(f, ref, TailSide.TWO_SIDED)


class TestSubnormalTimeStep:
    def test_infinite_slope_is_a_consistency_error_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LipschitzConsistencyError, match="slope inf"):
                TrajectoryPanel(
                    times=np.array([0.0, 2.225073858507e-311]),
                    unit_values=np.array([[0.0, 0.0], [0.0, 1.0]]),
                    k_lip=1e6,
                )


NAN_A = float("nan")
NAN_B = float("nan")


def first_appearance_reference(labels):
    """Codes and cluster sizes numbered in first-appearance order, through ``dict.fromkeys``."""
    index = {label: code for code, label in enumerate(dict.fromkeys(labels))}
    codes = [index[label] for label in labels]
    return codes, tuple(codes.count(code) for code in range(len(index)))


cluster_labels = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, 0.0, -0.0, 2, 2.0, NAN_A, NAN_B, None, "1", ""]),
    st.integers(-3, 3),
    st.floats(allow_nan=False, width=16),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.tuples(st.sampled_from([1, 1.0, True, "a", NAN_A]), st.integers(0, 1)),
)


class TestLabelFactorization:
    """Cluster codes and sizes follow first appearance under dict equality."""

    @settings(max_examples=300, deadline=None)
    @given(labels=st.lists(cluster_labels, min_size=1, max_size=40))
    @example(labels=[1, 1.0, True])  # equal and equally hashed: one cluster
    @example(labels=[NAN_A, 2, NAN_A])  # one NaN object, reused: one cluster
    @example(labels=[NAN_A, NAN_B])  # two NaN objects: two clusters
    @example(labels=range(7))  # the iid labelling
    @example(labels=range(3, 0, -1))
    def test_matches_dict_fromkeys_reference(self, labels):
        sample = ClusteredSample(values=np.zeros(len(labels)), cluster_ids=labels)
        codes, sizes = first_appearance_reference(labels)
        assert sample.cluster_ids.dtype == np.intp
        assert sample.cluster_ids.tolist() == codes
        assert sample.cluster_spec().sizes == sizes


def two_search_sup_two_sample(f, g, side):
    """The statistic from two binary searches, one of each CDF at the other's jumps."""
    at_f = f.values - g.evaluate(f.jump_points)
    at_g = f.evaluate(g.jump_points) - g.values
    plus = max(float(max(np.max(at_f), np.max(at_g))), 0.0)
    minus = max(-float(min(np.min(at_f), np.min(at_g))), 0.0)
    return {TailSide.PLUS: plus, TailSide.MINUS: minus}.get(side, max(plus, minus))


def assert_one_search_matches(f, g):
    """The statistic equals the two-search form bit for bit and the union reference up to 0's sign."""
    for side in TailSide:
        for a, b in ((f, g), (g, f)):
            got = sup_distance_two_sample(a, b, side)
            assert got.hex() == two_search_sup_two_sample(a, b, side).hex()
            assert (got + 0.0).hex() == (union_sup_two_sample(a, b, side) + 0.0).hex()


F_JUMPS = [0.3, 0.5, 0.7]


class TestSupDistanceTwoSampleOneSearch:
    """Where G's jumps fall among F's decides the counts that replace the second search."""

    @pytest.mark.parametrize(
        "g_jumps",
        [
            [0.1, 0.2],  # every G jump below F's first: all ranks 0
            [0.8, 0.9],  # every G jump above F's last: all ranks m
            [0.3, 0.4, 0.9],  # shares only F's first jump
            [0.1, 0.3, 0.6],  # shares only F's first jump, with a rank-0 jump before it
            [0.2, 0.7],  # shares only F's last jump
            [0.7, 0.8],  # shares only F's last jump, with a rank-m jump after it
            [0.4, 0.6],  # interleaved, nothing shared
            [0.5],  # one G jump, shared with F's middle one
        ],
    )
    def test_layouts(self, g_jumps):
        f = iid_ecdf(F_JUMPS)
        g = iid_ecdf(g_jumps)
        assert_one_search_matches(f, g)
        assert_one_search_matches(StepCdf(jump_points=F_JUMPS, values=[0.0, 0.5, 1.0]), g)

    @pytest.mark.parametrize("xs, ys", [([0.4], [0.4]), ([0.4], [0.2]), ([0.4], [0.6]), ([0.4], F_JUMPS)])
    def test_single_point_cdfs(self, xs, ys):
        assert_one_search_matches(iid_ecdf(xs), iid_ecdf(ys))

    @pytest.mark.parametrize("xs", [[0.4], F_JUMPS, [0.1, 0.1, 0.2, 0.9]])
    def test_identical_cdfs(self, xs):
        f = iid_ecdf(xs)
        assert_one_search_matches(f, f)
        assert_one_search_matches(f, iid_ecdf(xs))

    @settings(max_examples=500, deadline=None)
    @given(
        xs=st.lists(st.integers(0, 12), min_size=1, max_size=25),
        ys=st.lists(st.integers(0, 12), min_size=1, max_size=25),
    )
    def test_small_lattice_samples(self, xs, ys):
        # thirteen lattice points make jumps shared by both samples common
        assert_one_search_matches(iid_ecdf(np.array(xs) / 4.0), iid_ecdf(np.array(ys) / 4.0))


def scalar_normal_cdf(x):
    """Standard normal CDF that only takes scalars: ``math.erf`` refuses an array."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


CHUNKED_POINTS = 2**15 + 7  # two full chunks of 2**14 points and a remainder


class TestChunkedReferenceFallback:
    """A scalar-only reference is called point by point, in chunks, into one array."""

    def points(self):
        assert CHUNKED_POINTS > 2 * _REFERENCE_CHUNK and CHUNKED_POINTS % _REFERENCE_CHUNK
        return np.linspace(-4.0, 4.0, CHUNKED_POINTS)

    def test_matches_per_point_calls_and_logs_every_call(self):
        pts = self.points()
        calls = []

        def ref(x):
            value = scalar_normal_cdf(x)  # raises before logging on the whole-array attempt
            calls.append(x)
            return value

        got = _reference_values(ref, pts)
        want = np.array([scalar_normal_cdf(x) for x in pts.tolist()])
        assert got.dtype == np.float64 and got.shape == pts.shape
        assert got.tobytes() == want.tobytes()
        assert calls == pts.tolist()
        assert all(type(x) is float for x in calls)

    @pytest.mark.parametrize("at", [2 * _REFERENCE_CHUNK, CHUNKED_POINTS - 1])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (1.5, r"must lie in \[0, 1\]"),
            (-0.5, r"must lie in \[0, 1\]"),
            (math.nan, r"must lie in \[0, 1\]"),
            ("drop", "must be nondecreasing"),
        ],
    )
    def test_fault_in_the_last_chunk_is_seen(self, at, bad, message):
        # "at" is the first or the last point of the last chunk; "drop" falls to 0
        f = StepCdf.empirical(self.points())
        target = f.jump_points[at]
        value = 0.0 if bad == "drop" else bad

        def ref(x):
            return value if x == target else scalar_normal_cdf(x)

        with pytest.raises(DomainError, match=message):
            sup_distance_reference(f, ref, TailSide.TWO_SIDED)

    def test_peak_memory_is_bounded(self):
        pts = np.linspace(-4.0, 4.0, 2**18)
        tracemalloc.start()
        try:
            _reference_values(scalar_normal_cdf, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 result per point plus a bounded chunk; a Python float for
        # every point would need about 40 bytes each
        assert peak < 12 * pts.size + 2 * 2**20


def assert_same_sample(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.cluster_ids.dtype == want.cluster_ids.dtype == np.intp
    assert got.cluster_ids.tobytes() == want.cluster_ids.tobytes()
    assert got.cluster_spec().sizes == want.cluster_spec().sizes
    assert all(type(size) is int for size in got.cluster_spec().sizes)
    assert ecdf(got).jump_points.tobytes() == ecdf(want).jump_points.tobytes()
    assert ecdf(got).values.tobytes() == ecdf(want).values.tobytes()
    for array in (got.values, got.cluster_ids):
        assert not array.flags.writeable


class TestSampleBuildPaths:
    """``from_pairs`` and ``iid`` build the sample the public constructor builds."""

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0.3, "b"), (0.1, "a"), (0.3, "b"), (0.7, "c")],
            [(0.5, "only")],
            [(0.1, 1), (0.2, 1.0), (0.3, True), (0.4, "1")],  # 1, 1.0 and True: one cluster
        ],
    )
    def test_from_pairs_matches_constructor(self, pairs):
        want = ClusteredSample(values=[v for v, _ in pairs], cluster_ids=[c for _, c in pairs])
        for given_pairs in (pairs, tuple(pairs), iter(pairs), (pair for pair in pairs)):
            assert_same_sample(ClusteredSample.from_pairs(given_pairs), want)

    def test_empty_input(self):
        for build in (
            lambda: ClusteredSample(values=[], cluster_ids=[]),
            lambda: ClusteredSample.from_pairs([]),
            lambda: ClusteredSample.from_pairs(iter(())),
            lambda: ClusteredSample.iid([]),
            lambda: ClusteredSample.iid(np.array([])),
        ):
            with pytest.raises(DomainError, match="^sample must be nonempty$"):
                build()

    def test_nan_value_and_unhashable_label(self):
        nan = "^observation values must be finite, got nan$"
        unhashable = "^cluster labels must be hashable: unhashable type: 'list'$"
        for values, labels, message in (
            ([0.1, math.nan], ["a", "b"], nan),
            ([0.1, 0.2], ["a", ["b"]], unhashable),
            ([0.1, math.nan], ["a", ["b"]], nan),  # the values are checked first
        ):
            with pytest.raises(DomainError, match=message):
                ClusteredSample(values=values, cluster_ids=labels)
            with pytest.raises(DomainError, match=message):
                ClusteredSample.from_pairs(zip(values, labels))
        with pytest.raises(DomainError, match=nan):
            ClusteredSample.iid([0.1, math.nan])

    @pytest.mark.parametrize("n", [1, 2, 5, 1000])
    def test_iid_matches_range_labels(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(0, 7, size=n) / 4.0  # ties on a small lattice
        want = ClusteredSample(values=values, cluster_ids=range(n))
        for given_values in (values, values.tolist(), iter(values.tolist())):
            assert_same_sample(ClusteredSample.iid(given_values), want)
        narrow = values.astype(np.float32)
        assert_same_sample(
            ClusteredSample.iid(narrow), ClusteredSample(values=narrow, cluster_ids=range(n))
        )

    def test_iid_copies_the_callers_array(self):
        matrix = np.array([[0.3, 9.0], [0.1, 9.0]])
        sample = ClusteredSample.iid(matrix[:, 0])  # a strided view
        matrix[0, 0] = 5.0
        assert sample.values.tolist() == [0.3, 0.1]
        assert sample.values.flags.c_contiguous

    def test_iid_rejects_a_2d_array(self):
        with pytest.raises(DomainError, match=r"values must be a 1-d sequence, got shape \(2, 2\)"):
            ClusteredSample.iid(np.zeros((2, 2)))


def old_step_checks(jumps, vals):
    """The DomainError message the np.diff checks give for finite arrays, or None."""
    with np.errstate(over="ignore"):  # a difference of huge doubles overflows to inf
        if np.any(np.diff(jumps) <= 0):
            return "jump points must be strictly increasing"
        if np.any(np.diff(vals) < 0):
            return "step values must be nondecreasing"
    if vals[0] < 0 or abs(vals[-1] - 1.0) > 1e-12:
        return "step values must rise from >= 0 to exactly 1"
    return None


class TestStepCdfInPlaceHeights:
    """``StepCdf.empirical`` scales its heights in the array it keeps, with the same bits."""

    @pytest.mark.parametrize(
        "values",
        [
            [0.5, -1.0, 0.5, 2.0, -1.0, 0.5, 3.25],
            [-0.0, 0.0, 1.0, -0.0],
            [7.0],
            list(np.random.default_rng(3).integers(0, 50, 997) / 7.0),
            list(np.random.default_rng(4).normal(size=1001)),
        ],
        ids=["ties", "signed-zeros", "single", "lattice", "distinct"],
    )
    def test_bits_and_layout(self, values):
        values = np.array(values)
        uniq, counts = np.unique(values, return_counts=True)
        heights = np.cumsum(counts) / values.size
        built = StepCdf.empirical(values)
        assert built.jump_points.tobytes() == uniq.tobytes()
        assert built.values.tobytes() == (heights + 0.0).tobytes()
        assert built._padded.tobytes() == np.concatenate(([0.0], heights + 0.0)).tobytes()
        assert built.values.base is built._padded
        for array in (built.jump_points, built.values, built._padded):
            assert not array.flags.writeable
        constructed = StepCdf(jump_points=uniq, values=heights)
        assert constructed._padded.tobytes() == built._padded.tobytes()
        assert constructed.values.base is constructed._padded

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.7976931348623157e308]),
            ),
            min_size=6,
            max_size=6,
        ),
    )
    def test_shifted_view_checks_match_diff(self, jumps, heights):
        jumps = np.array(jumps)
        vals = np.array(heights[: jumps.size])
        message = old_step_checks(jumps, vals)
        if message is None:
            StepCdf(jump_points=jumps, values=vals)
        else:
            with pytest.raises(DomainError, match=f"^{message}$"):
                StepCdf(jump_points=jumps, values=vals)

    def test_no_full_size_temporary_beyond_unique(self, monkeypatch):
        # np.unique's own work is not StepCdf's; with its result handed over, the
        # heights array the CDF keeps (8 MB) is the only full-size allocation
        n = 1_000_000
        values = np.random.default_rng(5).random(n)
        uniq, counts = np.unique(values, return_counts=True)
        assert uniq.size == n
        monkeypatch.setattr(np, "unique", lambda *args, **kwargs: (uniq.copy(), counts.copy()))
        uniq_copy_and_counts = 2 * 8 * n
        tracemalloc.start()
        try:
            built = StepCdf.empirical(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - uniq_copy_and_counts <= 8 * (n + 1) + 1.5 * n
        assert built.jump_points.tobytes() == uniq.tobytes()
