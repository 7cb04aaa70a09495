"""KS-like hypothesis tests with non-asymptotic p-value upper bounds.

Each test combines three ingredients: an exact sup statistic from
:mod:`bvconc.empirical`, a coefficient pair from :mod:`bvconc.coefficients`,
and the closed-form tails from :mod:`bvconc.bounds`.  The reported
``p_upper`` is an upper bound on the p-value, valid for any data
distribution and any sample size; it is conservative by construction, never
an approximation.

Two-sample tests of a common mean function use the product form

    p(eps) = 1 - prod_side max(0, 1 - inner_tail(eps/2))

obtained by splitting the deviation between the two samples and multiplying
the independent per-sample guarantees.  One-sided two-sample tests subtract
the full one-sided centering sqrt(ln v) + R*(v) of each sample's effective
size v, in both directions.

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
    critical_statistic,
    denominator,
    one_sided_shift,
    tail_bound_raw,
)
from .coefficients import FiniteTheta, RangeSpec, downward_variation, lipschitz_difference_params
from .empirical import (
    ClusteredSample,
    TrajectoryPanel,
    ecdf,
    lipschitz_sup_interval,
    sup_distance_reference,
    sup_distance_two_sample,
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
    ``statistic > critical_at[alpha]`` and ``p_upper < alpha`` agree.
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

    The statistic is standardised to the threshold of :func:`bounds.tail_bound_raw`;
    ``fields`` sets the remaining :class:`KsOutcome` fields (``notes`` and the like).
    """
    x = params.product
    root_c = math.sqrt(params.c)
    if side.is_two_sided:
        eps = root_c * stat / denominator(x)
    else:
        eps = max(0.0, root_c * stat - one_sided_shift(x))
    raw = tail_bound_raw(params, side, eps)
    return KsOutcome(
        statistic=stat,
        side=side,
        params=params,
        p_upper=min(1.0, raw),
        p_upper_raw=raw,
        critical_at={a: critical_statistic(params, side, a) for a in alphas},
        **fields,
    )


def _effective_size(sample: ClusteredSample, label: str) -> float:
    nu = sample.cluster_spec().nu_n
    if nu <= 1.0:
        raise VacuousBoundError(
            f"effective sample size of {label} is {nu:g} <= 1; the bound is vacuous"
        )
    return nu

def _validate_alphas(alphas: Sequence[float]) -> tuple[float, ...]:
    alphas = tuple(alphas)
    for a in alphas:
        if not (0.0 < a < 1.0):
            raise DomainError(f"alpha levels must lie in (0, 1), got {a}")
    return alphas


def one_sample_clustered(
    sample: ClusteredSample,
    ref_cdf: Callable,
    side: TailSide,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    extra_ref_points: Sequence[float] = (),
    notes: Sequence[str] = (),
) -> KsOutcome:
    """Test whether clustered data follows a given continuous reference CDF.

    Pooled empirical CDFs of block-independent clustered data are monotone
    averages, so the McDiarmid coefficient is the cluster effective sample
    size nu and the downward-variation coefficient is 1.
    """
    alphas = _validate_alphas(alphas)
    nu = _effective_size(sample, "sample")
    params = BoundParams(c=nu, d=1.0)
    stat = sup_distance_reference(ecdf(sample), ref_cdf, side, extra_ref_points)
    return _single_pair_outcome(params, side, stat, alphas, notes=tuple(notes))


def two_sample_tail_bound(nu: float, xi: float, side: TailSide, eps: float) -> float:
    """Probability bound for a sup deviation > eps between two independent samples.

    ``nu`` and ``xi`` are the effective sample sizes of the two samples (both
    must exceed 1).  Two-sided, each sample contributes a floored factor
    1 - 2*exp(-(v/2)*(eps/L(v))^2); one-sided, each contributes
    1 - exp(-2*max(0, sqrt(v)*eps/2 - S(v))^2).  The bound is one minus the
    product, always within [0, 1].
    """
    if nu <= 1.0 or xi <= 1.0:
        raise VacuousBoundError(
            f"both effective sample sizes must exceed 1, got {nu} and {xi}"
        )
    if not (math.isfinite(eps) and eps >= 0.0):
        raise DomainError(f"eps must be a finite real >= 0, got {eps}")
    if side.is_two_sided:

        def factor(v: float) -> float:
            inner = 2.0 * math.exp(-0.5 * v * (eps / denominator(v)) ** 2)
            return max(0.0, 1.0 - inner)

    else:

        def factor(v: float) -> float:
            shifted = max(0.0, math.sqrt(v) * eps / 2.0 - one_sided_shift(v))
            return 1.0 - math.exp(-2.0 * shifted * shifted)

    return 1.0 - factor(nu) * factor(xi)


def _invert_nonincreasing(bound: Callable[[float], float], alpha: float) -> float:
    """Smallest eps with bound(eps) <= alpha, for a continuous nonincreasing bound."""
    hi = 1.0
    for _ in range(200):
        if bound(hi) <= alpha:
            break
        hi *= 2.0
    else:
        raise DomainError(f"could not bracket the critical statistic for alpha={alpha}")
    lo = 0.0
    while hi - lo > 1e-14 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if bound(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def two_sample_clustered(
    sample_f: ClusteredSample,
    sample_g: ClusteredSample,
    side: TailSide,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    notes: Sequence[str] = (),
) -> KsOutcome:
    """Test equality of the two mean functions behind independent clustered samples."""
    alphas = _validate_alphas(alphas)
    nu = _effective_size(sample_f, "first sample")
    xi = _effective_size(sample_g, "second sample")
    stat = sup_distance_two_sample(ecdf(sample_f), ecdf(sample_g), side)
    p_upper = two_sample_tail_bound(nu, xi, side, stat)
    critical = {
        a: _invert_nonincreasing(lambda e: two_sample_tail_bound(nu, xi, side, e), a)
        for a in alphas
    }
    return KsOutcome(
        statistic=stat,
        side=side,
        params=(BoundParams(c=nu, d=1.0), BoundParams(c=xi, d=1.0)),
        p_upper=p_upper,
        p_upper_raw=p_upper,
        critical_at=critical,
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
    if not (math.isfinite(c) and c > 0.0):
        raise DomainError(f"McDiarmid coefficient must be positive, got {c}")
    d_coeff = downward_variation(FiniteTheta(ranges))
    params = BoundParams(c=c, d=d_coeff)
    stat = max(abs(obs - exp) for obs, exp in stats)
    return _single_pair_outcome(params, TailSide.TWO_SIDED, stat, alphas, notes=tuple(notes))
