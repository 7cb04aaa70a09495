"""KS-like hypothesis tests with non-asymptotic p-value upper bounds.

Each test combines three ingredients: an exact sup statistic from
:mod:`bvconc.empirical`, a coefficient pair from :mod:`bvconc.coefficients`
(whose d always comes from ``downward_variation``), and the closed-form
tails from :mod:`bvconc.bounds`.  The reported ``p_upper`` is an upper
bound on the p-value, valid for any data distribution and any sample size;
it is conservative by construction, never an approximation.  Every step
from a statistic to a p-value bound or a critical value is a
:mod:`bvconc.bounds` function, the cap at 1 of a single-pair bound
included (``tail_bound``).

Vacuous configurations (effective size <= 1) raise
:class:`~bvconc.errors.VacuousBoundError`; a bound that merely evaluates to 1
for the observed data is returned as p_upper = 1, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

from .bounds import (
    BoundParams,
    TailSide,
    _bisect,
    _finite,
    _product_tail_bound,
    critical_statistic,
    tail_bound,
    tail_bound_raw,
    threshold,
    two_sample_tail_bound,
)
from .coefficients import (
    _POOLED_ECDF_D,
    FiniteTheta,
    RangeSpec,
    downward_variation,
    lipschitz_difference_params,
)
from .empirical import (
    ClusteredSample,
    TrajectoryPanel,
    _sample_distance,
    ecdf,
    lipschitz_sup_interval,
    sup_distance_reference,
)
from .errors import DomainError, VacuousBoundError

__all__ = [
    "DEFAULT_ALPHAS",
    "KsOutcome",
    "one_sample_clustered",
    "two_sample_clustered",
    "two_sample_tail_bound",
    "lipschitz_two_sample",
    "finite_theta_test",
]

DEFAULT_ALPHAS = (0.01, 0.05, 0.1)


@dataclass(frozen=True)
class KsOutcome:
    """A computed sup statistic with its p-value upper bound and critical values.

    ``critical_at`` maps each requested level alpha to the smallest statistic
    value that would be rejected at that level, so
    ``statistic > critical_at[alpha]`` and ``p_upper < alpha`` agree, except
    within rounding of the edge: ``critical_at[alpha]`` is computed in
    floating point, not found as the largest double whose ``p_upper`` is at
    least alpha, so for a statistic within a few ulps of it the two may
    disagree.
    ``conservative`` marks outcomes whose statistic is the upper end of a
    certified enclosure rather than an exactly attained supremum;
    ``interval`` is that enclosure, for tests that compute one.
    """

    statistic: float
    side: TailSide
    params: Union[BoundParams, tuple[BoundParams, BoundParams]]
    p_upper: float
    p_upper_raw: float
    critical_at: Mapping[float, float]
    conservative: bool = False
    notes: tuple[str, ...] = field(default=())
    interval: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_upper <= 1.0):
            raise DomainError(f"p-value bound {self.p_upper} outside [0, 1]")
        if self.statistic < 0.0:
            raise DomainError(f"sup statistic {self.statistic} cannot be negative")

    def reject(self, alpha: float) -> bool:
        return self.p_upper < alpha


def _single_pair_outcome(
    params: BoundParams, side: TailSide, stat: float, alphas: tuple[float, ...], **fields
) -> KsOutcome:
    """Outcome of a statistic under one coefficient pair: closed-form bound and critical values.

    ``fields`` sets the remaining :class:`KsOutcome` fields (``notes`` and the like).
    """
    eps = threshold(params, side, stat)
    return KsOutcome(
        statistic=stat,
        side=side,
        params=params,
        p_upper=tail_bound(params, side, eps),
        p_upper_raw=tail_bound_raw(params, side, eps),
        critical_at={a: critical_statistic(params, side, a) for a in alphas},
        **fields,
    )


def _pooled_params(sample: ClusteredSample, label: str) -> BoundParams:
    """The coefficient pair of ``sample``'s pooled ECDF: its effective sample size nu, and d = 1."""
    nu = sample.cluster_spec().nu_n
    if nu <= 1.0:
        raise VacuousBoundError(
            f"effective sample size of {label} is {nu:g} <= 1; the bound is vacuous"
        )
    return BoundParams(c=nu, d=_POOLED_ECDF_D)

def _validate_alphas(alphas: Sequence[float]) -> tuple[float, ...]:
    alphas = tuple(alphas)
    for a in alphas:
        if not (_finite("alpha", a) and 0.0 < a < 1.0):
            raise DomainError(f"alpha levels must lie in (0, 1), got {a}")
    return alphas


def one_sample_clustered(
    sample: ClusteredSample,
    ref_cdf: Callable,
    side: TailSide,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    notes: Sequence[str] = (),
) -> KsOutcome:
    """Test whether clustered data follows a given continuous reference CDF.

    Pooled empirical CDFs of block-independent clustered data are monotone
    averages, so the McDiarmid coefficient is the cluster effective sample
    size nu and the downward-variation coefficient is that of a monotone
    [0, 1]-valued function, 1.
    """
    alphas = _validate_alphas(alphas)
    params = _pooled_params(sample, "sample")
    stat = sup_distance_reference(ecdf(sample), ref_cdf, side)
    return _single_pair_outcome(params, side, stat, alphas, notes=tuple(notes))


def two_sample_clustered(
    sample_f: ClusteredSample,
    sample_g: ClusteredSample,
    side: TailSide,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    notes: Sequence[str] = (),
) -> KsOutcome:
    """Test equality of the two mean functions behind independent clustered samples.

    Each sample gets the coefficient pair of :func:`one_sample_clustered`:
    its effective sample size and the monotone [0, 1] case's d of 1.  The
    returned ``params`` are that pair, and both ``p_upper`` and every
    ``critical_at`` come from it: the product bound of the pair (for d = 1,
    :func:`~bvconc.bounds.two_sample_tail_bound`) and its bisection.  The
    product bound lies in [0, 1] already, so it is reported as both
    ``p_upper`` and ``p_upper_raw``.
    """
    alphas = _validate_alphas(alphas)
    params = (_pooled_params(sample_f, "first sample"), _pooled_params(sample_g, "second sample"))
    stat = _sample_distance(sample_f, sample_g, side)
    p_upper = _product_tail_bound(params, side, stat)
    return KsOutcome(
        statistic=stat,
        side=side,
        params=params,
        p_upper=p_upper,
        p_upper_raw=p_upper,
        critical_at={a: _bisect(lambda eps: _product_tail_bound(params, side, eps), a) for a in alphas},
        notes=tuple(notes),
    )


def lipschitz_two_sample(
    panel_f: TrajectoryPanel,
    panel_g: TrajectoryPanel,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    *,
    exhaustive_grid: bool = False,
    notes: Sequence[str] = (),
) -> KsOutcome:
    """Two-sided test that two panels of Lipschitz trajectories share a mean curve.

    By default the grid only samples the continuous-time sup, so the test uses
    the conservative upper end of the certified enclosure and sets the
    ``conservative`` flag.  With ``exhaustive_grid=True`` the grid itself is
    the parameter set (a finite comparison), the grid maximum is exact, and
    the coefficient product becomes n_units * grid_size^2.  Either way the
    enclosure is returned as ``interval``.
    """
    alphas = _validate_alphas(alphas)
    lower, upper = lipschitz_sup_interval(panel_f, panel_g)
    n = panel_f.n_units
    if exhaustive_grid:
        params = lipschitz_difference_params(n, grid_size=panel_f.times.size)
        stat, conservative = lower, False
    else:
        params = lipschitz_difference_params(n, panel_f.k_lip)
        stat, conservative = upper, True
    return _single_pair_outcome(
        params,
        TailSide.TWO_SIDED,
        stat,
        alphas,
        conservative=conservative,
        notes=tuple(notes),
        interval=(lower, upper),
    )


def finite_theta_test(
    stats: Sequence[tuple[float, float]],
    ranges: Sequence[RangeSpec],
    c: float,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    notes: Sequence[str] = (),
) -> KsOutcome:
    """Simultaneous two-sided test of finitely many bounded statistics.

    ``stats`` pairs each observed value with its hypothesized expectation;
    ``ranges`` gives the range of each statistic; ``c`` is the McDiarmid
    coefficient of the joint randomization.
    """
    alphas = _validate_alphas(alphas)
    stats = tuple(stats)
    ranges = tuple(ranges)
    if not stats:
        raise DomainError("need at least one (observed, expected) pair")
    if len(stats) != len(ranges):
        raise DomainError(f"{len(stats)} statistics but {len(ranges)} ranges")
    for i, entry in enumerate(stats):
        try:
            obs, exp = entry
        except (TypeError, ValueError):
            raise DomainError(
                f"statistic entry {i} must be an (observed, expected) pair, got {entry!r}"
            ) from None
        try:
            finite = math.isfinite(obs - exp)
        except TypeError:
            raise DomainError(
                f"statistic pair {i} must hold two real numbers, got"
                f" {type(obs).__name__} and {type(exp).__name__}"
            ) from None
        # max() below keeps its running maximum past a nan, so check each difference here
        if not finite:
            raise DomainError(
                f"statistic pair {i} (observed {obs}, expected {exp}) must be finite"
                " with a finite difference"
            )
    d_coeff = downward_variation(FiniteTheta(ranges))
    params = BoundParams(c=c, d=d_coeff)
    stat = max(abs(obs - exp) for obs, exp in stats)
    return _single_pair_outcome(params, TailSide.TWO_SIDED, stat, alphas, notes=tuple(notes))
