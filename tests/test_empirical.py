"""Exactness of sup statistics against brute-force oracles, plus panel bounds."""

import copy
import gc
import itertools
import math
import pickle
import re
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvconc import empirical
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
from bvconc.kstests import two_sample_clustered

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


class TestSideMustBeTailSide:
    """A side that is not a TailSide is rejected, never read as the two-sided statistic."""

    @pytest.mark.parametrize("side", ["minus", None, 3])
    def test_rejected(self, side):
        f = ecdf(ClusteredSample.iid([1.0, 2.0]))
        g = ecdf(ClusteredSample.iid([1.0, 3.0]))
        message = f"^side must be a TailSide, got {type(side).__name__}$"
        with pytest.raises(DomainError, match=message):
            sup_distance_two_sample(f, g, side)
        with pytest.raises(DomainError, match=message):
            sup_distance_reference(f, uniform_cdf, side)


class TestSideCheckedBeforeWork:
    """Both sup statistics reject a bad side before they read a step CDF or call the reference."""

    @pytest.mark.parametrize("side", ["plus", None, 3])
    def test_two_sample_reads_nothing(self, side):
        message = f"^side must be a TailSide, got {type(side).__name__}$"
        with pytest.raises(DomainError, match=message):
            sup_distance_two_sample(object(), object(), side)

    @pytest.mark.parametrize("side", ["plus", None, 3])
    def test_reference_never_called(self, side):
        calls = []

        def scalar_ref(r):
            calls.append(r)
            return min(max(float(r), 0.0), 1.0)

        f = ecdf(ClusteredSample.iid(np.linspace(0.0, 1.0, 20_000)))
        message = f"^side must be a TailSide, got {type(side).__name__}$"
        with pytest.raises(DomainError, match=message):
            sup_distance_reference(f, scalar_ref, side)
        with pytest.raises(DomainError, match=message):
            sup_distance_reference(object(), scalar_ref, side)
        assert calls == []


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

    @pytest.mark.parametrize(
        "times, values",
        [([], [[]]), ([[0.0, 1.0]], [[0.0, 0.0]])],
        ids=["empty", "two-dimensional"],
    )
    def test_rejects_a_time_grid_that_is_not_a_nonempty_vector(self, times, values):
        with pytest.raises(DataFormatError, match="^time grid must be a nonempty 1-d array$"):
            TrajectoryPanel(times, values, 1.0)

    def test_rejects_unit_values_of_the_wrong_width(self):
        with pytest.raises(DataFormatError, match=re.escape("unit values must be (n_units, 2), got (1, 3)")):
            TrajectoryPanel([0.0, 1.0], [[0.0, 0.5, 1.0]], 1.0)


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
                got = sup_distance_reference(f, uniform_cdf, side)
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


def full_array_offender(times, vals, k_lip):
    """The message of the check over the whole panel at once: one argmax over every move's excess."""
    dt = np.diff(times)
    dv = np.abs(np.diff(vals, axis=1))
    excess = dv - (k_lip * dt + 1e-9)
    unit, step = np.unravel_index(int(np.argmax(excess)), excess.shape)
    slope = float(dv[unit, step]) / float(dt[step])
    return (
        f"unit {unit + 1} moves with slope {slope:g} between "
        f"t={times[step]:g} and t={times[step + 1]:g}, "
        f"exceeding the declared Lipschitz constant {k_lip:g}"
    )


def cli_layout(vals):
    """The same values as the transposed view of a C-ordered time-by-unit matrix, as the CLI passes them."""
    return np.ascontiguousarray(vals.T).T


class TestChunkedConsistencyCheck:
    """The Lipschitz check walks the units in chunks and reports what one full-array argmax would."""

    points = 1000
    rows = _REFERENCE_CHUNK // (points - 1)  # units per chunk
    units = 3 * rows + 2  # three full chunks and a partial one
    times = np.arange(points) / 1024  # every step exactly 2**-10: equal jumps, equal excess

    def flat(self):
        return np.full((self.units, self.points), 0.5)

    def message(self, vals):
        with pytest.raises(LipschitzConsistencyError) as info:
            TrajectoryPanel(times=self.times, unit_values=vals, k_lip=1.0)
        assert str(info.value) == full_array_offender(self.times, vals, 1.0)
        return str(info.value)

    @pytest.mark.parametrize("layout", [np.asarray, cli_layout], ids=["c-order", "cli-view"])
    def test_tie_across_chunks_names_the_first_unit(self, layout):
        vals = self.flat()
        first, later = 3, 2 * self.rows + 5
        vals[first, 501:] = 0.51  # late in a unit of the first chunk
        vals[later, 11:] = 0.51  # the same jump, early in a unit of the third
        vals[self.rows + 1, 301:] = 0.505  # a smaller one between them
        assert self.message(layout(vals)).startswith(f"unit {first + 1} moves with slope ")

    @pytest.mark.parametrize("layout", [np.asarray, cli_layout], ids=["c-order", "cli-view"])
    def test_violation_only_in_the_last_partial_chunk(self, layout):
        vals = self.flat()
        vals[-1, 901:] = 0.53
        assert self.message(layout(vals)).startswith(f"unit {self.units} moves with slope ")

    def test_matches_the_full_array_check_on_irregular_grids(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            times = np.sort(rng.uniform(0.0, 1.0, self.points))
            steps = rng.uniform(-0.9, 0.9, (self.units, self.points - 1)) * np.diff(times)
            vals = np.full((self.units, self.points), 0.5)
            vals[:, 1:] = np.clip(0.5 + np.cumsum(steps, axis=1), 0.0, 1.0)
            for _ in range(int(rng.integers(0, 3))):
                unit, step = rng.integers(self.units), rng.integers(1, self.points)
                vals[unit, step:] = np.clip(vals[unit, step:] + rng.choice([-1, 1]) * 0.01, 0.0, 1.0)
            try:
                TrajectoryPanel(times=times, unit_values=cli_layout(vals), k_lip=1.0)
                got = None
            except LipschitzConsistencyError as exc:
                got = str(exc)
            excess = np.abs(np.diff(vals, axis=1)) - (np.diff(times) + 1e-9)
            assert got == (full_array_offender(times, vals, 1.0) if excess.max() > 0 else None)

    def test_move_with_zero_excess_is_accepted(self):
        budget = 1.0 * 2**-10 + 1e-9
        vals = np.full((self.units, self.points), budget)
        vals[:, 0] = 0.0  # every unit's first move uses exactly its whole budget
        TrajectoryPanel(times=self.times, unit_values=vals, k_lip=1.0)
        vals[-1, 1:] = np.nextafter(budget, 1.0)
        assert self.message(vals).startswith(f"unit {self.units} moves with slope ")

    @pytest.mark.parametrize("layout", [np.asarray, cli_layout], ids=["c-order", "cli-view"])
    def test_no_temporary_the_size_of_the_panel(self, layout):
        n, t = 400, 1000
        vals = layout(np.full((n, t), 0.5))
        times = np.arange(t) / 1024
        tracemalloc.start()
        try:
            TrajectoryPanel(times=times, unit_values=vals, k_lip=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (t - 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected_without_warnings(self, bad):
        vals = np.full((2, 3), 0.5)
        vals[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=r"must lie in \[0, 1\]"):
                TrajectoryPanel(times=[0.0, 0.5, 1.0], unit_values=vals, k_lip=1.0)

    def test_zero_units_is_a_data_format_error(self):
        with pytest.raises(DataFormatError, match="at least one unit"):
            TrajectoryPanel(times=[0.2, 0.6], unit_values=np.empty((0, 2)), k_lip=1.0)


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([tuple, list, np.array]),
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([1, 1.0, True, "1", 0, -0.0, False, "a"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_from_pairs_matches_constructor_property(self, draws):
        # 1, 1.0, True and an array's 1.0 are one cluster, "1" another; an array with a
        # string label holds the value as a string, which both builds parse alike
        pairs = [make((value, label)) for make, value, label in draws]
        values, labels = [entry[0] for entry in pairs], [entry[1] for entry in pairs]
        assert_same_sample(ClusteredSample.from_pairs(pairs), ClusteredSample(values=values, cluster_ids=labels))

    def test_from_pairs_peak_memory_is_bounded(self):
        n = 2**18
        rng = np.random.default_rng(18)
        pairs = list(zip(rng.random(n).tolist(), ("abcd"[k] for k in rng.integers(0, 4, n))))
        tracemalloc.start()
        try:
            ClusteredSample.from_pairs(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 8 bytes a pair each: the kept values, codes, ECDF jumps (no ties here) and
        # heights (32), the ECDF build's run-start index (8) and the one code list (8);
        # a Python float or tuple kept per pair would add 24 bytes or more
        assert peak < (32 + 8 + 8) * n

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


CHUNK_EDGES = [  # the first and the last of G's jumps in each chunk
    0,
    _REFERENCE_CHUNK - 1,
    _REFERENCE_CHUNK,
    2 * _REFERENCE_CHUNK - 1,
    2 * _REFERENCE_CHUNK,
    CHUNKED_POINTS - 1,
]


class TestSupDistanceTwoSampleAcrossChunks:
    """G's jumps fill two whole chunks and a remainder; F's jumps meet the chunk edges."""

    ys = np.arange(CHUNKED_POINTS) / 8.0  # G's jump points, exact in binary

    def g(self):
        assert CHUNKED_POINTS > 2 * _REFERENCE_CHUNK and CHUNKED_POINTS % _REFERENCE_CHUNK
        return iid_ecdf(self.ys)

    @pytest.mark.parametrize(
        "at",
        [
            CHUNK_EDGES[2:4],  # the middle chunk's first and last jump
            CHUNK_EDGES,
            CHUNK_EDGES[1:3],  # the last jump of one chunk and the first of the next
            CHUNK_EDGES[3:5],
            [CHUNK_EDGES[-1]],  # only G's last jump
        ],
        ids=["middle-chunk", "every-edge", "first-boundary", "second-boundary", "last-jump"],
    )
    def test_f_jumps_at_chunk_edges(self, at):
        g = self.g()
        assert_one_search_matches(iid_ecdf(self.ys[at]), g)
        # with G's own heights F meets G at every edge: a zero difference there
        assert_one_search_matches(StepCdf(jump_points=self.ys[at], values=g.values[at] / g.values[at[-1]]), g)

    def test_extremes_lie_in_different_chunks(self):
        # F jumps at the middle chunk's first and last G jump: the negative part is
        # reached at the first chunk's last jump, the positive part at the remainder's first
        g = self.g()
        f = iid_ecdf(self.ys[CHUNK_EDGES[2:4]])
        n, chunk = CHUNKED_POINTS, _REFERENCE_CHUNK
        assert sup_distance_two_sample(f, g, TailSide.MINUS) == chunk / n
        assert sup_distance_two_sample(f, g, TailSide.PLUS) == 1.0 - (2 * chunk) / n
        assert_one_search_matches(f, g)

    @pytest.mark.parametrize(
        "start",
        [_REFERENCE_CHUNK + 3, 2 * _REFERENCE_CHUNK, CHUNKED_POINTS],
        ids=["inside-middle-chunk", "at-remainder", "past-every-jump"],
    )
    def test_g_jumps_below_f_first_jump(self, start):
        # every G jump before F's first has rank 0, across whole chunks
        xs = np.concatenate((self.ys[start::5], [self.ys[-1] + 1.0]))
        assert_one_search_matches(iid_ecdf(xs), self.g())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ties_between_the_samples(self, seed):
        # draws from one lattice share most jump points and tie within each sample
        rng = np.random.default_rng(seed)
        lattice = np.arange(4 * _REFERENCE_CHUNK) / 8.0
        f = iid_ecdf(rng.choice(lattice, size=4 * _REFERENCE_CHUNK))
        g = iid_ecdf(rng.choice(lattice, size=4 * _REFERENCE_CHUNK) + seed / 8.0)
        for cdf in (f, g):
            assert cdf.jump_points.size > 2 * _REFERENCE_CHUNK
        assert np.intersect1d(f.jump_points, g.jump_points).size > _REFERENCE_CHUNK
        assert_one_search_matches(f, g)

    @pytest.mark.parametrize(
        "xs",
        [ys[: CHUNKED_POINTS // 2], ys, ys[::3] - 1.0],
        ids=["first-half", "identical", "shifted-below"],
    )
    def test_f_at_least_g_gives_a_zero_minus_side(self, xs):
        g = self.g()
        f = iid_ecdf(xs)
        assert np.all(f.evaluate(g.jump_points) >= g.values)
        assert sup_distance_two_sample(f, g, TailSide.MINUS) == 0.0
        assert_one_search_matches(f, g)

    def test_no_temporary_longer_than_a_chunk(self):
        jumps = np.arange(2**18) / 8.0
        f, g = iid_ecdf(jumps + 1.0 / 16.0), iid_ecdf(jumps)
        tracemalloc.start()
        try:
            sup_distance_two_sample(f, g, TailSide.TWO_SIDED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few chunk-length arrays; one G-length float array alone is 2 MB
        assert peak < 4 * 8 * _REFERENCE_CHUNK


class TestMalformedSampleInput:
    """Malformed sample input raises a DomainError that names the fault."""

    @pytest.mark.parametrize(
        "pairs, shown",
        [
            ([(1.0,), (2.0,)], "pair 0 must be a (real value, label) pair, got (1.0,)"),
            ([1.0, 2.0], "pair 0 must be a (real value, label) pair, got 1.0"),
            ([("a", 1)], "pair 0 must be a (real value, label) pair, got ('a', 1)"),
            ([(0.5, "a"), (0.7, "b"), ((), "c")], "pair 2 must be a (real value, label) pair, got ((), 'c')"),
            ([(0.5, "a"), (), (0.7, "b")], "pair 1 must be a (real value, label) pair, got ()"),
            ([(0.5, "a"), (0.7, "b"), (0.9,)], "pair 2 must be a (real value, label) pair, got (0.9,)"),
            (iter([(0.5, "a"), (0.7,)]), "pair 1 must be a (real value, label) pair, got (0.7,)"),
            (((0.5, "a"), {0: 0.7}), "pair 1 must be a (real value, label) pair, got {0: 0.7}"),
            (
                [(1.0, "a", "extra"), (2.0, "b")],
                "pair 0 must be a (real value, label) pair, got (1.0, 'a', 'extra')",
            ),
            ([(1.0, "a"), [2.0]], "pair 1 must be a (real value, label) pair, got [2.0]"),
            ([(1.0, "a"), [2.0, "b", "c"]], "pair 1 must be a (real value, label) pair, got [2.0, 'b', 'c']"),
            (
                [np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])],
                "pair 1 must be a (real value, label) pair, got array([3., 4., 5.])",
            ),
            # a string's items are its characters
            (["1a", "12a"], "pair 1 must be a (real value, label) pair, got '12a'"),
            (
                iter([(1.0, "a"), (2.0, "b"), (3.0, "c", None)]),
                "pair 2 must be a (real value, label) pair, got (3.0, 'c', None)",
            ),
        ],
    )
    def test_from_pairs_names_the_entry(self, pairs, shown):
        with pytest.raises(DomainError, match=f"^{re.escape(shown)}$"):
            ClusteredSample.from_pairs(pairs)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(math.nan, "a"), (1.0,)], "observation values must be finite, got nan"),
            ([(1.0, [1]), (2.0,)], "cluster labels must be hashable: unhashable type: 'list'"),
            ([], "sample must be nonempty"),
            # the value pass and the finiteness check come first, then the first bad entry in order
            (
                [(1.0, "a"), (2.0, "b", "c"), (3.0, ["d"]), (4.0,)],
                "pair 1 must be a (real value, label) pair, got (2.0, 'b', 'c')",
            ),
            (
                [(1.0, "a"), (2.0, ["d"]), (3.0, "b", "c")],
                "cluster labels must be hashable: unhashable type: 'list'",
            ),
            ([(math.nan, "a"), (1.0, "b", "c")], "observation values must be finite, got nan"),
            ([(1.0, "a", "c"), (math.inf, "b")], "observation values must be finite, got inf"),
            ([(1.0, "a", "c"), ("x", "b")], "pair 1 must be a (real value, label) pair, got ('x', 'b')"),
        ],
    )
    def test_from_pairs_keeps_the_check_order(self, pairs, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ClusteredSample.from_pairs(pairs)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ClusteredSample.iid(["a"]),
            lambda: ClusteredSample.iid(np.array(["0.5", "a"])),
            lambda: ClusteredSample(values=["a"], cluster_ids=[1]),
        ],
        ids=["iid-list", "iid-array", "direct"],
    )
    def test_non_numeric_values(self, build):
        message = "^observation values must be real numbers: could not convert string to float: "
        with pytest.raises(DomainError, match=message):
            build()

    def test_non_numeric_values_before_label_checks(self):
        with pytest.raises(DomainError, match="^observation values must be real numbers: "):
            ClusteredSample(values=[None, "x"], cluster_ids=5)

    def test_numeric_strings_still_parse(self):
        assert ClusteredSample.from_pairs([("1.5", "a")]).values.tolist() == [1.5]
        assert ClusteredSample.iid(["0.25"]).values.tolist() == [0.25]


class TestUnreachedPanelAndStepChecks:
    def test_step_cdf_call_is_evaluate(self):
        cdf = StepCdf([0.0, 1.0], [0.5, 1.0])
        assert cdf(0.5) == 0.5
        assert cdf(np.array([-1.0, 0.0, 1.0])).tolist() == [0.0, 0.5, 1.0]

    def test_single_point_grid_has_zero_delta(self):
        panel = TrajectoryPanel(times=[0.5], unit_values=[[0.2], [0.4]], k_lip=1.0)
        assert panel.delta == 0.0 and type(panel.delta) is float


class TestNonNumericArrayInput:
    """A cell that is not a real number raises the class's typed error, naming the argument."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: StepCdf(["a"], [1.0]), DomainError, "jump points must be real numbers"),
            (lambda: StepCdf([0.5], ["x"]), DomainError, "step values must be real numbers"),
            (
                lambda: TrajectoryPanel(times=["a"], unit_values=[[0.1]], k_lip=1.0),
                DataFormatError,
                "times must be real numbers",
            ),
            (
                lambda: TrajectoryPanel(times=[0.0, 1.0], unit_values=[["a", 0.1]], k_lip=1.0),
                DataFormatError,
                "unit values must be real numbers",
            ),
        ],
        ids=["jump-points", "step-values", "times", "unit-values"],
    )
    def test_names_the_argument(self, build, error, message):
        with pytest.raises(error, match=f"^{message}: could not convert string to float: "):
            build()

    def test_numeric_strings_still_parse(self):
        assert StepCdf(["0.5"], ["1"]).jump_points.tolist() == [0.5]
        panel = TrajectoryPanel(times=["0", "1"], unit_values=[["0.1", "0.2"]], k_lip=1.0)
        assert panel.unit_values.tolist() == [[0.1, 0.2]]


class TestNoneValueInPairs:
    """``np.fromiter`` reads a ``None`` value as nan; the error names its entry instead."""

    @pytest.mark.parametrize(
        "pairs, shown",
        [
            ([(None, "a"), (1.0, "b")], "pair 0 must be a (real value, label) pair, got (None, 'a')"),
            ([(1.0, "a"), (2.0, "b"), (None, "c")], "pair 2 must be a (real value, label) pair, got (None, 'c')"),
            (iter([(1.0, "a"), (None, 3)]), "pair 1 must be a (real value, label) pair, got (None, 3)"),
        ],
    )
    def test_names_the_entry(self, pairs, shown):
        with pytest.raises(DomainError, match=f"^{re.escape(shown)}$"):
            ClusteredSample.from_pairs(pairs)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(math.nan, "a"), (None, "b")], "observation values must be finite, got nan"),
            ([(1.0, "a"), (math.inf, "b"), (None, "c")], "observation values must be finite, got inf"),
        ],
        ids=["nan-first", "inf-first"],
    )
    def test_first_non_finite_value_decides(self, pairs, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ClusteredSample.from_pairs(pairs)


def unique_oracle(values):
    """Jumps and heights from ``np.unique(values, return_counts=True)``, the ECDF's reference."""
    uniq, counts = np.unique(values, return_counts=True)
    return uniq, np.cumsum(counts) / counts.sum()


class TestStepCdfEmpiricalMatchesUnique:
    """``StepCdf.empirical`` sorts one flattened copy itself; it keeps ``np.unique``'s bits."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from(["array", "list", "2-d", "2-d-fortran"]),
    )
    @example([-0.0, 0.0, -0.0, 0.0, 0.0, -0.0], "array")
    @example([0.0, -0.0, 1.0, -0.0, 0.0, 1.0], "2-d-fortran")
    @example([2.5], "list")
    def test_matches_unique_byte_for_byte(self, values, form):
        array = np.array(values)
        if form == "list":
            given_values = values
        elif form == "2-d":
            given_values = array.reshape(2, -1) if array.size % 2 == 0 else array.reshape(1, -1)
        elif form == "2-d-fortran":
            given_values = np.asfortranarray(array.reshape(-1, 2) if array.size % 2 == 0 else array[:, None])
        else:
            given_values = array
        jumps, heights = unique_oracle(given_values)
        built = StepCdf.empirical(given_values)
        assert built.jump_points.tobytes() == jumps.tobytes()
        assert built.values.tobytes() == heights.tobytes()
        assert not built.jump_points.flags.writeable and not built.values.flags.writeable

    def test_peak_memory_is_bounded(self):
        # distinct values: the jumps and the padded heights it keeps, and the run
        # starts, one int each; np.unique's temporaries took about 33 bytes a value
        n = 2**18
        values = np.random.default_rng(5).random(n)
        tracemalloc.start()
        try:
            built = StepCdf.empirical(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built.jump_points.size == n
        assert peak <= 8 * (3 * n + 1) + 2**16


def faulty_identity(faults):
    """An array reference equal to its points, but for ``faults``: (index, value) pairs."""

    def ref(r):
        out = np.array(r, dtype=float)
        for at, value in faults:
            out[at] = value(out) if callable(value) else value
        return out

    return ref


class TestReferenceChecksAcrossChunks:
    """The reference values are checked chunk by chunk, with the errors of one whole-array pass."""

    def cdf(self):
        assert CHUNKED_POINTS > 2 * _REFERENCE_CHUNK
        return StepCdf.empirical(np.linspace(0.0, 1.0, CHUNKED_POINTS))

    @pytest.mark.parametrize(
        "faults",
        [
            [(5, 0.0), (2 * _REFERENCE_CHUNK + 3, 1.5)],
            [(2 * _REFERENCE_CHUNK + 3, 0.0), (5, -0.5)],
            [(_REFERENCE_CHUNK, 0.0), (CHUNKED_POINTS - 1, math.nan)],
        ],
        ids=["drop-then-range", "range-then-drop", "boundary-drop-then-nan"],
    )
    def test_range_error_comes_first(self, faults):
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
            sup_distance_reference(self.cdf(), faulty_identity(faults), TailSide.TWO_SIDED)

    @pytest.mark.parametrize("at", [_REFERENCE_CHUNK, 2 * _REFERENCE_CHUNK])
    def test_drop_at_a_chunk_boundary(self, at):
        # only the pair across the boundary falls; the step after it rises again
        lower = (at, lambda out: out[at - 1] - 1e-9)
        with pytest.raises(DomainError, match="must be nondecreasing"):
            sup_distance_reference(self.cdf(), faulty_identity([lower]), TailSide.TWO_SIDED)

    def test_peak_memory_is_bounded(self):
        # the reference's own array, one float64 a point, plus bounded chunks; one
        # np.diff, one boolean mask and one difference of the whole array took 17
        n = 2**18
        f = StepCdf.empirical(np.linspace(0.0, 1.0, n))
        tracemalloc.start()
        try:
            sup_distance_reference(f, uniform_cdf, TailSide.TWO_SIDED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 2**20


@pytest.fixture
def counted_parts(monkeypatch):
    """The (f, g) ECDF pairs whose parts ``_two_sample_parts`` computes, in call order."""
    calls = []
    parts = empirical._two_sample_parts

    def counted(f, g):
        calls.append((f, g))
        return parts(f, g)

    monkeypatch.setattr(empirical, "_two_sample_parts", counted)
    return calls


SAMPLE_PAIRS = {
    # F >= G everywhere: the minus side is -0.0
    "f-above-g": ([0.1, 0.2, 0.2, 0.6], [0.5, 0.7, 0.9]),
    "crossing": ([0.1, 0.4, 0.5, 0.8, 0.9], [0.2, 0.4, 0.6, 0.7]),
    "identical": ([0.3, 0.3, 0.6], [0.3, 0.3, 0.6]),
}


class TestTwoSampleMemo:
    """A sample keeps the parts of its last comparison, and only that very pair reuses them."""

    @pytest.mark.parametrize("xs, ys", SAMPLE_PAIRS.values(), ids=SAMPLE_PAIRS)
    @pytest.mark.parametrize("order", itertools.permutations(TailSide), ids=str)
    def test_every_order_of_sides(self, counted_parts, xs, ys, order):
        f, g = ClusteredSample.iid(xs), ClusteredSample.iid(ys)
        got = [two_sample_clustered(f, g, side).statistic.hex() for side in order + order]
        assert counted_parts == [(ecdf(f), ecdf(g))]
        for side, stat in zip(order + order, got):
            assert stat == two_search_sup_two_sample(ecdf(f), ecdf(g), side).hex()
            assert stat == sup_distance_two_sample(ecdf(f), ecdf(g), side).hex()

    def test_minus_side_keeps_its_sign_of_zero(self):
        f, g = (ClusteredSample.iid(v) for v in SAMPLE_PAIRS["f-above-g"])
        for _ in range(2):
            assert two_sample_clustered(f, g, TailSide.MINUS).statistic.hex() == (-0.0).hex()

    def test_another_sample_misses(self, counted_parts):
        xs, ys = SAMPLE_PAIRS["crossing"]
        f, other, g = ClusteredSample.iid(xs), ClusteredSample.iid(xs), ClusteredSample.iid(ys)
        two_sample_clustered(f, g, TailSide.PLUS)
        two_sample_clustered(other, g, TailSide.PLUS)  # equal values, another object
        two_sample_clustered(f, g, TailSide.PLUS)  # g now keeps the comparison with other
        assert counted_parts == [(ecdf(f), ecdf(g)), (ecdf(other), ecdf(g)), (ecdf(f), ecdf(g))]

    def test_swapped_pair_misses(self, counted_parts):
        f, g = (ClusteredSample.iid(v) for v in SAMPLE_PAIRS["crossing"])
        forward = two_sample_clustered(f, g, TailSide.TWO_SIDED)
        swapped = two_sample_clustered(g, f, TailSide.PLUS)
        assert counted_parts == [(ecdf(f), ecdf(g)), (ecdf(g), ecdf(f))]
        # each sample keeps the comparison in which it was G
        assert two_sample_clustered(f, g, TailSide.TWO_SIDED).statistic == forward.statistic
        assert two_sample_clustered(g, f, TailSide.PLUS).statistic == swapped.statistic
        assert len(counted_parts) == 2
        assert swapped.statistic == sup_distance_two_sample(ecdf(g), ecdf(f), TailSide.PLUS)

    def test_keeps_no_sample_alive(self):
        f, g = (ClusteredSample.iid(v) for v in SAMPLE_PAIRS["crossing"])
        two_sample_clustered(f, g, TailSide.TWO_SIDED)
        ref = weakref.ref(f)
        gc.disable()
        try:
            del f
            assert ref() is None  # freed by reference counting alone
            assert g._parts[0]() is None
        finally:
            gc.enable()

    def test_self_comparison_makes_no_cycle(self):
        s = ClusteredSample.iid(SAMPLE_PAIRS["crossing"][0])
        assert two_sample_clustered(s, s, TailSide.TWO_SIDED).statistic == 0.0
        assert s._parts[0]() is s
        ref = weakref.ref(s)
        gc.disable()
        try:
            del s
            assert ref() is None
        finally:
            gc.enable()

    def test_dead_sample_misses(self, counted_parts):
        # a new sample may reuse a freed one's address; the dead reference never matches it
        xs, ys = SAMPLE_PAIRS["crossing"]
        g = ClusteredSample.iid(ys)
        two_sample_clustered(ClusteredSample.iid(xs), g, TailSide.PLUS)
        two_sample_clustered(ClusteredSample.iid(xs), g, TailSide.PLUS)
        assert len(counted_parts) == 2

    @pytest.mark.parametrize("side", ["two-sided", None, 3])
    def test_bad_side_on_a_hit(self, counted_parts, side):
        f, g = (ClusteredSample.iid(v) for v in SAMPLE_PAIRS["crossing"])
        two_sample_clustered(f, g, TailSide.TWO_SIDED)
        kept = g._parts
        message = f"^side must be a TailSide, got {type(side).__name__}$"
        with pytest.raises(DomainError, match=message):
            two_sample_clustered(f, g, side)
        assert g._parts is kept and len(counted_parts) == 1

    def test_new_sample_keeps_nothing(self):
        for sample in (
            ClusteredSample(values=[0.1, 0.2], cluster_ids=["a", "b"]),
            ClusteredSample.iid([0.1, 0.2]),
            ClusteredSample.from_pairs([(0.1, "a"), (0.2, "b")]),
        ):
            assert sample._parts is None

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_start_without_a_comparison(self, duplicate):
        f, g = (ClusteredSample.iid(v) for v in SAMPLE_PAIRS["crossing"])
        want = two_sample_clustered(f, g, TailSide.TWO_SIDED).statistic
        dup = duplicate(g)
        assert dup._parts is None and g._parts is not None
        assert two_sample_clustered(f, dup, TailSide.TWO_SIDED).statistic == want


class TestTwoSampleMemoAcrossThreads:
    """Threads that compare several samples with one G each get their own pair's statistic."""

    def test_every_result_is_its_own_pairs(self):
        rng = np.random.default_rng(8)
        g = ClusteredSample.iid(rng.normal(size=400))
        fs = [ClusteredSample.iid(rng.normal(loc=0.1 * i, size=300)) for i in range(3)]
        want = {
            (i, side): sup_distance_two_sample(ecdf(f), ecdf(g), side).hex()
            for i, f in enumerate(fs)
            for side in TailSide
        }
        wrong = []

        def compare(worker):
            for step in range(300):
                i, side = (worker + step) % len(fs), list(TailSide)[step % 3]
                got = two_sample_clustered(fs[i], g, side).statistic.hex()
                if got != want[i, side]:
                    wrong.append((i, side, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=compare, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestNarrowedSearchWindows:
    """Each chunk searches only F's jumps between its first and last G jump, maybe none."""

    ys = np.arange(CHUNKED_POINTS) / 8.0  # G's jump points, exact in binary
    half = 1.0 / 16.0  # between two of G's jumps

    @pytest.mark.parametrize(
        "f_jumps",
        [
            # inside the middle chunk: the first chunk's window is empty below F's
            # first jump, the remainder's above F's last
            [ys[_REFERENCE_CHUNK + 5], ys[_REFERENCE_CHUNK + 9] + half],
            # just outside the middle chunk: its window is empty between two F jumps
            [ys[_REFERENCE_CHUNK - 1] + half, ys[2 * _REFERENCE_CHUNK] - half],
            # on the middle chunk's first jump: that F jump lies below the window
            [ys[_REFERENCE_CHUNK]],
            [ys[_REFERENCE_CHUNK], ys[_REFERENCE_CHUNK + 1], ys[2 * _REFERENCE_CHUNK]],
            # every F jump above G's last, or below G's first
            [ys[-1] + half, ys[-1] + 1.0],
            [ys[0] - 1.0, ys[0] - half],
        ],
        ids=[
            "inside-middle", "around-middle", "on-chunk-start", "on-both-starts", "above-all", "below-all"
        ],
    )
    def test_windows(self, f_jumps):
        g = iid_ecdf(self.ys)
        assert_one_search_matches(iid_ecdf(f_jumps), g)
        # F's heights equal to G's wherever F jumps on a G jump: zero differences there
        f_heights = np.linspace(0.0, 1.0, len(f_jumps) + 1)[1:]
        assert_one_search_matches(StepCdf(jump_points=f_jumps, values=f_heights), g)

    def test_random_windows(self):
        # F jumps on G's jumps and between them, sparser than G: windows of every width
        rng = np.random.default_rng(11)
        size = 3 * _REFERENCE_CHUNK
        xs = rng.choice(self.ys, size=size) + rng.choice([0.0, self.half], size=size)
        assert_one_search_matches(iid_ecdf(xs[: size // 50]), iid_ecdf(self.ys))
        assert_one_search_matches(iid_ecdf(xs), iid_ecdf(self.ys))


class TestStepCdfOwnsItsJumps:
    """A constructed StepCdf keeps a read-only copy of its jump points; ``empirical`` keeps its own."""

    def test_caller_array_not_aliased(self):
        jumps = np.array([0.0, 1.0, 2.0])
        cdf = StepCdf(jump_points=jumps, values=[0.25, 0.5, 1.0])
        assert cdf.jump_points is not jumps and not np.shares_memory(cdf.jump_points, jumps)
        assert not cdf.jump_points.flags.writeable
        jumps[0] = 5.0
        assert cdf.jump_points.tolist() == [0.0, 1.0, 2.0]
        assert cdf.evaluate(0.5) == 0.25
        with pytest.raises(ValueError):
            cdf.jump_points[0] = 5.0

    def test_read_only_input(self):
        jumps = np.array([0.0, 1.0])
        jumps.setflags(write=False)
        cdf = StepCdf(jump_points=jumps, values=[0.5, 1.0])
        assert not np.shares_memory(cdf.jump_points, jumps) and not cdf.jump_points.flags.writeable

    @pytest.mark.parametrize(
        "values", [[0.3, 0.1, 0.2], [0.3, 0.1, 0.1, 0.2]], ids=["distinct", "ties"]
    )
    def test_empirical_keeps_its_own_array(self, values):
        values = np.array(values)
        jumps = StepCdf.empirical(values).jump_points
        assert not np.shares_memory(jumps, values) and not jumps.flags.writeable


DUPLICATES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


def assert_built_cdf(cdf):
    """The arrays of a checked, stored StepCdf: read-only, the heights a view behind the 0."""
    assert not cdf.jump_points.flags.writeable and not cdf._padded.flags.writeable
    assert cdf.values.base is cdf._padded


class TestCopiesAreBuilt:
    """A copied or unpickled sample or ECDF is built and checked like the original."""

    @pytest.mark.parametrize("duplicate", DUPLICATES.values(), ids=DUPLICATES)
    def test_sample(self, duplicate):
        f = ClusteredSample.from_pairs([(0.1, "a"), (0.4, "b"), (0.4, "a"), (0.8, "c")])
        g = ClusteredSample.from_pairs([(0.2, "x"), (0.4, "y"), (-0.0, "y"), (0.7, "x")])
        want = {side: two_sample_clustered(f, g, side).statistic.hex() for side in TailSide}
        dup = duplicate(g)
        assert dup._parts is None and g._parts is not None
        assert_same_sample(dup, g)
        assert_built_cdf(ecdf(dup))
        assert ecdf(dup) is not ecdf(g)
        assert {side: two_sample_clustered(f, dup, side).statistic.hex() for side in TailSide} == want
        for side in TailSide:
            got = sup_distance_reference(ecdf(dup), uniform_cdf, side)
            assert got.hex() == sup_distance_reference(ecdf(g), uniform_cdf, side).hex()

    @pytest.mark.parametrize("duplicate", DUPLICATES.values(), ids=DUPLICATES)
    @pytest.mark.parametrize(
        "cdf",
        [
            StepCdf(jump_points=[0.1, 0.3, 0.6], values=[-0.0, 0.5, 1.0]),
            StepCdf.empirical(np.array([0.6, 0.1, 0.3, 0.3])),
        ],
        ids=["constructed", "empirical"],
    )
    def test_step_cdf(self, duplicate, cdf):
        dup = duplicate(cdf)
        assert_built_cdf(dup)
        assert dup.jump_points.tobytes() == cdf.jump_points.tobytes()
        assert dup._padded.tobytes() == cdf._padded.tobytes()
        other = iid_ecdf([0.2, 0.3, 0.5])
        for side in TailSide:
            assert (
                sup_distance_two_sample(dup, other, side).hex()
                == sup_distance_two_sample(cdf, other, side).hex()
            )
            assert (
                sup_distance_reference(dup, uniform_cdf, side).hex()
                == sup_distance_reference(cdf, uniform_cdf, side).hex()
            )


def union_sup_reference(f, ref_cdf, side, extra_points):
    """The statistic over ``np.union1d``'s points, with F and F- looked up on the whole union."""
    pts = np.union1d(f.jump_points, np.asarray(extra_points, dtype=float))
    ref = ref_cdf(pts)
    plus = max(float(np.max(f.evaluate(pts) - ref)), 0.0)
    minus = max(float(np.max(ref - f.evaluate_left(pts))), 0.0)
    return {TailSide.PLUS: plus, TailSide.MINUS: minus}.get(side, max(plus, minus))


SIGNED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def step_cdfs(draw):
    """An empirical CDF of signed floats (±0.0 included), or direct heights on distinct jumps."""
    values = np.array(draw(st.lists(SIGNED_FLOATS, min_size=1, max_size=40)))
    if draw(st.booleans()):
        return StepCdf.empirical(values)
    jumps = np.unique(values)
    heights = draw(st.lists(st.floats(0.0, 1.0), min_size=jumps.size, max_size=jumps.size))
    heights = np.sort(heights)
    heights[-1] = 1.0
    return StepCdf(jump_points=jumps, values=heights)


class TestJumpPointsAreTheOnlyCandidates:
    """Extra candidate points never move the statistic against a continuous reference.

    At a point between two jumps F is the height of the jump before it and
    the reference no smaller (no larger for F-), so neither part can grow
    there.  Only the sign of a zero may differ: an extra candidate can turn a
    -0.0 minus side into 0.0, so the comparison is numeric, not bitwise.
    """

    @settings(max_examples=300, deadline=None)
    @given(step_cdfs(), st.lists(SIGNED_FLOATS, min_size=1, max_size=20))
    @example(StepCdf.empirical(np.array([0.0, 0.5])), [-0.0])
    @example(StepCdf.empirical(np.array([-0.0, 0.5])), [0.0, -0.0, 0.25])
    @example(StepCdf(jump_points=[-1.0, 2.0], values=[0.0, 1.0]), [0.0, 0.5, 1.0])
    def test_union_with_extra_points_gives_the_same_statistic(self, f, extra):
        def ref(r):
            return np.clip(r, 0.0, 1.0)

        for side in TailSide:
            assert sup_distance_reference(f, ref, side) == union_sup_reference(f, ref, side, extra)
