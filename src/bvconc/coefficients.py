"""Coefficients of effective sample size and downward variation.

Two numbers drive every tail bound in this library.  The McDiarmid
coefficient ``c`` measures how much any single independent input can move the
statistic (for an average of n functions with ranges (a_i, b_i) it is
n^2 / sum (b_i - a_i)^2).  The downward-variation coefficient ``d`` certifies
that the statistic can be embedded into a monotone [0,1]-valued family; it is
available in closed form for four structural cases:

* finite parameter set with per-parameter ranges:  d = (sum of widths)^2
* monotone in a real parameter with range (a, b):  d = (b - a)^2
* differentiable with one-sided derivative bound K: d = (b - a + K)^2
* one-sided K-Lipschitz (no smoothness):            d = (b - a + K)^2

:func:`downward_variation` is the one place these formulas live, and every
test takes its d from it.  The clustered tests use ``MonotoneReal`` on
[0, 1] (a pooled ECDF is monotone in its argument), so d = 1;
``finite_theta_test`` uses ``FiniteTheta`` on its ranges; the Lipschitz
panel test uses ``LipschitzOneSided`` on [0, 1] in continuous time and the
``FiniteTheta`` case of one [0, 1] range per grid point on an exhaustive
grid, the latter in closed form.  A panel test compares a difference of
two [0, 1]-valued processes, which doubles both the range and the
Lipschitz constant, so its d is 2^2 = 4 times that of one process.

For block-independent clustered data the McDiarmid coefficient of the pooled
empirical CDF equals the cluster effective sample size
nu = K / (1 + s^2 / a^2), where K is the cluster count, a the mean cluster
size and s^2 the population variance of cluster sizes.  Both routes are
implemented and agree to rounding error.

Sums are taken term by term, left to right, from the int 0, in explicit
loops.  The built-in ``sum()`` compensates float rounding from Python 3.12
on, so it would give the coefficients different last bits on different
Python versions; integer terms still add up exactly, as in ``sum()``.

Both formulas that square, :func:`downward_variation` and
:func:`mcdiarmid_from_ranges`, square through one guard, ``_square``: a
square that is not a finite float is a DomainError naming what was squared,
whatever the type of the base.

All operations are pure and thread-safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .bounds import BoundParams, _finite
from .errors import BvconcError, DomainError

__all__ = [
    "RangeSpec",
    "ClusterSpec",
    "FiniteTheta",
    "MonotoneReal",
    "LipschitzDifferentiable",
    "LipschitzOneSided",
    "DownwardVariationCase",
    "mcdiarmid_from_ranges",
    "mcdiarmid_from_clusters",
    "downward_variation",
    "lipschitz_difference_params",
]


@dataclass(frozen=True)
class RangeSpec:
    """An open range (lo, hi); only its width, a finite float, enters any formula."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (_finite("range endpoint lo", self.lo) and _finite("range endpoint hi", self.hi)):
            raise DomainError(f"range endpoints must be finite, got ({self.lo}, {self.hi})")
        if not self.lo < self.hi:
            raise DomainError(f"degenerate range: lo {self.lo} must be < hi {self.hi}")
        with np.errstate(over="ignore"):  # numpy endpoints: a width past the float range is inf
            if not _finite("range width", self.width):
                raise DomainError("range width is too large for a float")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _check_range(name: str, r) -> None:
    """Reject a range that is not a :class:`RangeSpec`, naming it ``name``."""
    if not isinstance(r, RangeSpec):
        raise DomainError(f"{name} must be a RangeSpec, got {type(r).__name__}")


def _ranges(ranges: Sequence[RangeSpec]) -> tuple[RangeSpec, ...]:
    """``ranges`` as a tuple, each entry checked by :func:`_check_range`."""
    try:
        ranges = tuple(ranges)
    except TypeError:
        raise DomainError(
            f"ranges must be a sequence of RangeSpec, got {type(ranges).__name__}"
        ) from None
    for i, r in enumerate(ranges):
        _check_range(f"range {i}", r)
    return ranges


@dataclass(frozen=True)
class ClusterSpec:
    """Deterministic, known cluster sizes of a block-independent sample.

    Sizes must be Python or numpy integers; a float (even 2.0) or a string
    is rejected rather than truncated or parsed.  Zero-size clusters are
    rejected rather than dropped: dropping one silently would change the
    cluster count and with it every statistic.
    ``n``, ``a_n``, ``s2_n`` and ``nu_n`` are computed on first read and kept.
    """

    sizes: tuple[int, ...]

    def __init__(self, sizes: Sequence[int]) -> None:
        try:
            # one pass in C: ints and numpy ints pass, floats (nan, inf, 1.5) and strings raise
            sizes = tuple(map(operator.index, sizes))
        except TypeError as exc:
            raise DomainError(f"cluster sizes must be integers: {exc}") from None
        if not sizes:
            raise DomainError("cluster size list must be nonempty")
        if min(sizes) < 1:
            raise DomainError(f"cluster sizes must be >= 1, got {min(sizes)}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.sizes)

    @cached_property
    def n(self) -> int:
        """Total number of observations."""
        return sum(self.sizes)

    @cached_property
    def a_n(self) -> float:
        """Mean cluster size."""
        return self.n / self.k

    @cached_property
    def s2_n(self) -> float:
        """Population (divide-by-K) variance of cluster sizes."""
        a = self.a_n
        total = 0
        for s in self.sizes:  # in order, not sum(): see the module docstring
            total += (s - a) ** 2
        return total / self.k

    @cached_property
    def nu_n(self) -> float:
        """Effective sample size K / (1 + s^2/a^2); lies in [1, K]."""
        a = self.a_n
        return self.k / (1.0 + self.s2_n / (a * a))


@dataclass(frozen=True)
class FiniteTheta:
    """Finite parameter set; one range per parameter value."""

    ranges: tuple[RangeSpec, ...]

    def __init__(self, ranges: Sequence[RangeSpec]) -> None:
        object.__setattr__(self, "ranges", _ranges(ranges))
        if not self.ranges:
            raise DomainError("finite parameter case needs at least one range")


@dataclass(frozen=True)
class MonotoneReal:
    """Monotone in a real parameter, values in a single range."""

    range: RangeSpec

    def __post_init__(self) -> None:
        _check_range("range", self.range)


def _integer(name: str, value) -> int:
    """``value`` as a Python int; a float or a string is rejected, not truncated or parsed."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {type(value).__name__}") from None


def _check_k_lip(k_lip: float, error: type[BvconcError] = DomainError) -> None:
    """Reject a Lipschitz constant that is negative or not finite, raising ``error``."""
    if not (_finite("Lipschitz constant", k_lip) and k_lip >= 0.0):
        raise error(f"Lipschitz constant must be >= 0, got {k_lip}")


@dataclass(frozen=True)
class _Lipschitz:
    """Values in ``range`` with a one-sided Lipschitz constant ``k_lip``."""

    range: RangeSpec
    k_lip: float

    def __post_init__(self) -> None:
        _check_range("range", self.range)
        _check_k_lip(self.k_lip)


class LipschitzDifferentiable(_Lipschitz):
    """Differentiable on [0,1] with derivative bounded below by -k_lip."""


class LipschitzOneSided(_Lipschitz):
    """One-sided K-Lipschitz on [0,1]; no smoothness assumed."""


DownwardVariationCase = Union[FiniteTheta, MonotoneReal, LipschitzDifferentiable, LipschitzOneSided]


def _square(name: str, base) -> float:
    """``base**2`` on ``base`` as given: an int square stays exact, a float one keeps its bits.

    A square that is not a finite float is a DomainError naming ``name``.
    """
    _finite(name, base)  # a base too large for a float cannot be printed below
    try:
        with np.errstate(over="ignore"):  # numpy warns and returns inf, rejected below
            square = base**2
        if math.isfinite(square):  # raises OverflowError for an int past the float range
            return square
    except OverflowError:  # also a Python float square past the float range
        pass
    raise DomainError(f"{name} {base:g} is too large: its square overflows a float")


def mcdiarmid_from_ranges(ranges: Sequence[RangeSpec]) -> float:
    """McDiarmid coefficient n^2 / sum of squared widths for an average of n functions."""
    ranges = _ranges(ranges)
    if not ranges:
        raise DomainError("need at least one range")
    n = len(ranges)
    total = 0
    with np.errstate(over="ignore"):  # numpy widths: a sum that overflows is inf, rejected below
        for r in ranges:
            total += _square("range width", r.width)
    if total == math.inf:
        raise DomainError("sum of squared range widths overflows a float")
    return n * n / total


def mcdiarmid_from_clusters(spec: ClusterSpec) -> float:
    """McDiarmid coefficient n^2 / sum of squared cluster sizes.

    Identical to ``spec.nu_n``: with a the mean size and s^2 the population
    variance, sum(size^2) = K*(a^2 + s^2), so n^2 / sum(size^2) reduces to
    K / (1 + s^2/a^2) exactly.
    """
    n = spec.n
    return n * n / sum(s * s for s in spec.sizes)


def downward_variation(case: DownwardVariationCase) -> float:
    """Downward-variation coefficient for one of the four structural cases."""
    with np.errstate(over="ignore"):  # numpy terms: an overflowing sum is inf, rejected by _square
        if isinstance(case, FiniteTheta):
            name, base = "sum of range widths", 0
            for r in case.ranges:
                base += r.width
        elif isinstance(case, MonotoneReal):
            name, base = "range width", case.range.width
        elif isinstance(case, _Lipschitz):
            name, base = "range width plus Lipschitz constant", case.range.width + case.k_lip
        else:
            raise DomainError(f"unknown downward-variation case: {case!r}")
    return _square(name, base)


_UNIT_RANGE = RangeSpec(0.0, 1.0)

# a pooled ECDF is a monotone [0, 1]-valued function of its argument
_POOLED_ECDF_D = downward_variation(MonotoneReal(_UNIT_RANGE))


def lipschitz_difference_params(
    n_units: int, k_lip: float = 0.0, *, grid_size: int | None = None
) -> BoundParams:
    """Coefficients for the difference of two averaged [0,1]-valued processes.

    For n_units averaged unit-level trajectories, the difference statistic has
    McDiarmid coefficient c = n/4.  Continuous time with shared Lipschitz
    constant K gives d = 4*(1+K)^2, four times the ``LipschitzOneSided`` d of
    one [0, 1]-valued process, so c*d = n*(1+K)^2.  When the comparison runs
    over a finite grid of ``grid_size`` time points instead, pass it here and
    d = 4*grid_size^2, four times the ``FiniteTheta`` d of one [0, 1] range
    per grid point (c*d = n*grid_size^2); k_lip is then checked but not used.

    Raises :class:`~bvconc.errors.VacuousBoundError` when c*d <= 1.
    """
    n_units = _integer("unit count", n_units)
    if n_units < 1:
        raise DomainError(f"unit count must be >= 1, got {n_units}")
    case = LipschitzOneSided(_UNIT_RANGE, k_lip)
    c = n_units / 4.0
    if grid_size is not None:
        grid_size = _integer("grid size", grid_size)
        if grid_size < 1:
            raise DomainError(f"grid size must be >= 1, got {grid_size}")
        # downward_variation(FiniteTheta((_UNIT_RANGE,) * grid_size)) in closed form,
        # the same bits without a Python step per grid point
        return BoundParams(c=c, d=4.0 * grid_size * grid_size)
    # the difference of two [0, 1]-valued K-Lipschitz processes has range width 2
    # and constant 2K, so its d is 2^2 times that of one process
    return BoundParams(c=c, d=4.0 * downward_variation(case))
