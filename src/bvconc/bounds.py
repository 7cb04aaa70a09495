"""Closed-form sub-Gaussian tail machinery for sup-norm deviation statistics.

Everything here is a scalar function of the product ``x = c * d`` of two
coefficients: ``c``, a McDiarmid coefficient of effective sample size, and
``d``, a coefficient of downward variation (see :mod:`bvconc.coefficients`).
The standing assumption throughout is ``x > 1``.

The four building blocks::

    residual(x)        R(x)  = sqrt(2/ln 2) * ln((pi/2)^(1/4) * (2*sqrt(ln x) + 1)) / sqrt(ln x)
    residual_star(x)   R*(x) = sqrt(ln 2 / 2) * R(x)
    denominator(x)     L(x)  = 1 + sqrt(log_4 x) + R(x)
    one_sided_shift(x) S(x)  = sqrt(ln x) + R*(x)

combine into two tail bounds for a randomized function F with mean function
EF.  With D the sup statistic over the parameter set:

* two-sided:  Pr{ sqrt(c)/L(x) * sup|F - EF| > eps }    <= 2*exp(-2*eps^2)
* one-sided:  Pr{ sqrt(c)*sup(F - EF)^± - S(x) > eps }  <=   exp(-2*eps^2)

``threshold`` maps a sup statistic to that eps, ``tail_bound`` maps eps to
the bound, and ``critical_statistic`` inverts the pair at a level alpha.

Two-sample tests of a common mean function use one product bound over the
two samples' coefficient pairs, a ``BoundParams`` each:

    p(eps) = 1 - prod_sample max(0, 1 - inner_tail(eps/2))

obtained by splitting the deviation between the two samples and multiplying
the independent per-sample guarantees.  Each factor reads only c and c*d:
two-sided, sqrt(c) and L(c*d); one-sided, sqrt(c) and the full centering
S(c*d), subtracted in both directions.  ``_product_tail_bound`` computes it
and ``_bisect`` inverts it at a level alpha.  ``two_sample_tail_bound`` and
``two_sample_critical`` are its d = 1 case, where c is each sample's
effective size.

``entropy_exact_expfamily`` computes the tighter constant obtained by
minimizing the underlying entropy objective over the exponential family
H_p(y) = exp(p*y) - 1 instead of taking the closed-form envelope L(x).  The
envelope is the canonical quantity used by every test in this library; the
exact minimum is exposed for diagnostics only and always satisfies
``value <= denominator(x)``.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import ConvergenceError, DomainError, VacuousBoundError

__all__ = [
    "BoundParams",
    "TailSide",
    "EntropyEval",
    "residual",
    "residual_star",
    "denominator",
    "one_sided_shift",
    "threshold",
    "tail_bound",
    "tail_bound_raw",
    "critical_statistic",
    "two_sample_tail_bound",
    "two_sample_critical",
    "entropy_exact_expfamily",
]

_SQRT_2_OVER_LN2 = math.sqrt(2.0 / math.log(2.0))
_SQRT_LN2_OVER_2 = math.sqrt(math.log(2.0) / 2.0)
_QUARTER_ROOT_HALF_PI = (math.pi / 2.0) ** 0.25
_LN4 = math.log(4.0)


class TailSide(enum.Enum):
    """Which deviation the statistic measures: absolute, positive, or negative part."""

    TWO_SIDED = "two"
    PLUS = "plus"
    MINUS = "minus"

    @property
    def is_two_sided(self) -> bool:
        return self is TailSide.TWO_SIDED


@dataclass(frozen=True)
class BoundParams:
    """The coefficient pair (c, d) feeding every bound.

    ``c`` is the McDiarmid coefficient of effective sample size, ``d`` the
    downward-variation coefficient.  Their product must exceed 1 or the bound
    is vacuous and the pair is rejected outright; a product past the float
    range is rejected here too, as every bound would reject it.
    """

    c: float
    d: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _real("McDiarmid coefficient", self.c))
        object.__setattr__(self, "d", _real("downward-variation coefficient", self.d))
        if not (math.isfinite(self.c) and self.c > 0):
            raise DomainError(f"McDiarmid coefficient must be finite and positive, got {self.c}")
        if not (math.isfinite(self.d) and self.d > 0):
            raise DomainError(f"downward-variation coefficient must be finite and positive, got {self.d}")
        with np.errstate(over="ignore"):  # numpy scalars overflow to inf quietly, as floats do
            product = self.c * self.d
        if product <= 1.0:
            raise VacuousBoundError(f"coefficient product c*d = {product} is <= 1; no bound applies")
        _require_gt1(product)

    @property
    def product(self) -> float:
        return self.c * self.d


def _finite(name: str, x) -> bool:
    """``math.isfinite(x)``; an ``x`` that is not a real number or fits no float is a DomainError naming ``name``."""
    try:
        return math.isfinite(x)
    except TypeError:
        raise DomainError(f"{name} must be a real number, got {type(x).__name__}") from None
    except OverflowError:  # an int too large for a float, not printed: str() may refuse it
        raise DomainError(f"{name} is too large for a float") from None


def _real(name: str, x):
    """``x`` checked as a real number by :func:`_finite`, as a float if it is a ``Decimal``.

    A ``Decimal`` mixes with no float, so it is computed on as ``float(x)``.
    Every other real comes back as given: ints, numpy scalars and
    ``Fraction``s keep their type and every output bit.  ``x`` may be nan or inf.
    """
    _finite(name, x)
    return float(x) if isinstance(x, Decimal) else x


def _two_sided(side: TailSide) -> bool:
    """Whether ``side`` is two-sided; anything but a :class:`TailSide` is a DomainError."""
    if not isinstance(side, TailSide):
        raise DomainError(f"side must be a TailSide, got {type(side).__name__}")
    return side is TailSide.TWO_SIDED


def _require_gt1(x: float) -> float:
    """``x`` as :func:`_real` returns it, once it is a finite real > 1."""
    x = _real("bound argument", x)
    if not (math.isfinite(x) and x > 1.0):
        raise DomainError(f"bound argument must be a finite real > 1, got {x}")
    return x


def residual(x: float) -> float:
    """Vanishing correction term R(x) of the two-sided denominator.

    Decreases to 0 as x grows; defined only for x > 1.
    """
    return _SQRT_2_OVER_LN2 * residual_star(x)


def residual_star(x: float) -> float:
    """One-sided residual R*(x) = sqrt(ln 2 / 2) * R(x).

    Computed directly as ln((pi/2)^(1/4) * (2*sqrt(ln x) + 1)) / sqrt(ln x),
    which equals the scaled form exactly.
    """
    x = _require_gt1(x)
    s = math.sqrt(math.log(x))
    return math.log(_QUARTER_ROOT_HALF_PI * (2.0 * s + 1.0)) / s


def denominator(x: float) -> float:
    """Two-sided normalization L(x) = 1 + sqrt(log_4 x) + R(x)."""
    x = _require_gt1(x)
    return 1.0 + math.sqrt(math.log(x) / _LN4) + residual(x)


def one_sided_shift(x: float) -> float:
    """One-sided centering S(x) = sqrt(ln x) + R*(x)."""
    x = _require_gt1(x)
    return math.sqrt(math.log(x)) + residual_star(x)


def threshold(params: BoundParams, side: TailSide, stat):
    """The threshold eps that a sup statistic (a float or an array) reaches.

    Two-sided sqrt(c) * stat / L(c*d); one-sided sqrt(c) * stat - S(c*d),
    floored at 0.  ``tail_bound(params, side, threshold(params, side, stat))``
    is the p-value upper bound of ``stat``.  A scalar ``stat`` is checked by
    :func:`_real` and computed on as a float; an array must have a real dtype,
    and its elements are used as they are.
    """
    two_sided = _two_sided(side)
    if not isinstance(stat, np.ndarray):
        stat = float(_real("statistic", stat))  # as a float, a numpy scalar overflows with no warning
    elif stat.dtype.kind not in "biuf":
        raise DomainError(f"statistic must be a real array, got dtype {stat.dtype}")
    if two_sided:
        return math.sqrt(params.c) * stat / denominator(params.product)
    return np.maximum(math.sqrt(params.c) * stat - one_sided_shift(params.product), 0.0)


def tail_bound_raw(params: BoundParams, side: TailSide, eps: float) -> float:
    """Uncapped tail bound at threshold ``eps`` (may exceed 1; diagnostics only).

    Two-sided, this bounds Pr{ sqrt(c)/L(c*d) * sup|F - EF| > eps }; one-sided
    it bounds Pr{ sqrt(c) * sup(F - EF)^± - S(c*d) > eps }.
    """
    eps = _real("eps", eps)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise DomainError(f"eps must be a finite real >= 0, got {eps}")
    scale = 2.0 if _two_sided(side) else 1.0
    eps = float(eps)  # as a float, a numpy scalar overflows with no warning
    return scale * math.exp(-2.0 * eps * eps)


def tail_bound(params: BoundParams, side: TailSide, eps: float) -> float:
    """Tail probability bound at threshold ``eps``, capped at 1."""
    return min(1.0, tail_bound_raw(params, side, eps))


def critical_statistic(params: BoundParams, side: TailSide, alpha: float) -> float:
    """Smallest sup-statistic value at which the p-value upper bound reaches ``alpha``.

    Two-sided: sqrt(ln(2/alpha)/2) * L(c*d) / sqrt(c).
    One-sided: (sqrt(ln(1/alpha)/2) + S(c*d)) / sqrt(c).
    Below 2/DBL_MAX (two-sided) or 1/DBL_MAX (one-sided), where the quotient
    overflows, its log is taken as a difference of logs.  ``alpha`` is
    computed on as its float, so a level whose float is 0 is rejected.
    """
    alpha = float(_real("alpha", alpha))
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in the open interval (0, 1), got {alpha}")
    x = params.product
    root_c = math.sqrt(params.c)
    two_sided = _two_sided(side)
    scale = 2.0 if two_sided else 1.0
    if alpha * sys.float_info.max > scale:
        level = math.log(scale / alpha)
    else:  # scale / alpha would overflow to inf
        level = math.log(scale) - math.log(alpha)
    if two_sided:
        return math.sqrt(level / 2.0) * denominator(x) / root_c
    return (math.sqrt(level / 2.0) + one_sided_shift(x)) / root_c


def _factor(params: BoundParams, two_sided: bool, eps: float) -> float:
    """One sample's guarantee in the product bound: its deviation stays within eps/2.

    Two-sided 1 - 2*exp(-(c/2)*(eps/L(c*d))^2), floored at 0; one-sided
    1 - exp(-2*max(0, sqrt(c)*eps/2 - S(c*d))^2).  Numpy scalars compute as
    floats, which overflow quietly.
    """
    c, eps = float(params.c), float(eps)
    if two_sided:
        ratio = eps / denominator(params.product)
        try:
            square = ratio**2
        except OverflowError:  # the square is past the float range: exp(-inf) = 0
            return 1.0
        return max(0.0, 1.0 - 2.0 * math.exp(-0.5 * c * square))
    shifted = max(0.0, math.sqrt(c) * eps / 2.0 - one_sided_shift(params.product))
    return 1.0 - math.exp(-2.0 * shifted * shifted)


def _product_tail_bound(params: tuple[BoundParams, BoundParams], side: TailSide, eps: float) -> float:
    """Probability bound for a sup deviation > ``eps`` between two independent samples.

    One minus the product of the two samples' :func:`_factor` at ``eps``,
    always within [0, 1].  ``eps`` is used as it is given.
    """
    two_sided = _two_sided(side)
    return 1.0 - _factor(params[0], two_sided, eps) * _factor(params[1], two_sided, eps)


def _bisect(bound, alpha: float) -> float:
    """Smallest eps with ``bound(eps) <= alpha``, for a continuous ``bound`` nonincreasing in eps.

    Bracket by doubling from 1, then bisect to a relative width of 1e-14 and
    return the midpoint.
    """
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


def _size_pair(nu, xi, side: TailSide, eps) -> tuple[tuple[BoundParams, BoundParams], float]:
    """The d = 1 pair ``(BoundParams(nu, 1), BoundParams(xi, 1))`` and ``eps``, checked.

    The checks run in the order the two-sample functions report them: nu and
    xi as reals, then their vacuity, eps, side, and last a nan or inf size.
    """
    nu, xi = _real("nu", nu), _real("xi", xi)
    if nu <= 1.0 or xi <= 1.0:
        raise VacuousBoundError(f"both effective sample sizes must exceed 1, got {nu} and {xi}")
    eps = _real("eps", eps)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise DomainError(f"eps must be a finite real >= 0, got {eps}")
    _two_sided(side)
    return (BoundParams(_require_gt1(nu), 1.0), BoundParams(_require_gt1(xi), 1.0)), eps


def two_sample_tail_bound(nu: float, xi: float, side: TailSide, eps: float) -> float:
    """Probability bound for a sup deviation > eps between two independent samples.

    ``nu`` and ``xi`` are the effective sample sizes of the two samples (both
    must exceed 1): the product bound of the pair (nu, 1), (xi, 1).
    Two-sided, each sample contributes a floored factor
    1 - 2*exp(-(v/2)*(eps/L(v))^2); one-sided, each contributes
    1 - exp(-2*max(0, sqrt(v)*eps/2 - S(v))^2).  The bound is one minus the
    product, always within [0, 1].
    """
    params, eps = _size_pair(nu, xi, side, eps)
    return _product_tail_bound(params, side, eps)


def two_sample_critical(nu: float, xi: float, side: TailSide, alpha: float) -> float:
    """Smallest eps with ``two_sample_tail_bound(nu, xi, side, eps) <= alpha``.

    The bound is continuous and nonincreasing in eps, so :func:`_bisect`
    finds it: bracket by doubling from 1, then bisect to a relative width of
    1e-14 and return the midpoint.  ``alpha`` is computed on as its float.
    """
    alpha = float(_real("alpha", alpha))
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in the open interval (0, 1), got {alpha}")
    params, _ = _size_pair(nu, xi, side, 1.0)
    return _bisect(lambda eps: _product_tail_bound(params, side, eps), alpha)


# ---------------------------------------------------------------------------
# Exponential-family entropy minimization
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_SPACE_CUTOFF = 690.0  # switch to log-space once ln(sqrt(x) * I(p)) nears overflow
_SCAN_POINTS = 64
_REFINE_TOL = 1e-8


@dataclass(frozen=True)
class EntropyEval:
    """Result of the exponential-family entropy minimization at argument x."""

    x: float
    p_star: float
    value: float
    upper_bound: float

    def __post_init__(self) -> None:
        if self.value < 1.0:
            raise DomainError(f"entropy value {self.value} < 1 is impossible")
        if self.value > self.upper_bound + 1e-9:
            raise DomainError(
                f"entropy value {self.value} exceeds its closed-form bound {self.upper_bound}"
            )


def _log_integral_term(p: float) -> float:
    """log of I(p) = sqrt(pi) * exp(p^2/8) * p^2 * (1 + erf(p/2^1.5)) / 2^1.5."""
    return (
        p * p / 8.0
        + 0.5 * math.log(math.pi)
        + 2.0 * math.log(p)
        + math.log1p(math.erf(p / (2.0 * math.sqrt(2.0))))
        - 1.5 * math.log(2.0)
    )


def entropy_objective(x: float, p: float) -> float:
    """The per-exponent objective ln(sqrt(x)*(p + I(p)) + 1) / p.

    I(p) is the exact tail integral of exp(-2*h^{-1}(t)^2) for the derivative
    h of H_p(y) = exp(p*y) - 1.  Evaluated in log-space once exp(p^2/8) would
    lose the rest of the expression to rounding.
    """
    if p <= 0.0:
        raise DomainError(f"exponent p must be positive, got {p}")
    log_i = _log_integral_term(p)
    half_log_x = 0.5 * math.log(x)
    if half_log_x + log_i <= _LOG_SPACE_CUTOFF:
        return math.log(math.sqrt(x) * (p + math.exp(log_i)) + 1.0) / p
    # sqrt(x)*I dominates: ln A = ln(sqrt x) + log I + log1p((p + 1/sqrt x) * exp(-log I))
    correction = math.log1p((p + 1.0 / math.sqrt(x)) * math.exp(-log_i))
    return (half_log_x + log_i + correction) / p


def _golden_section(objective, lo: float, hi: float, tol: float) -> float:
    """Minimize a scalar function on [lo, hi] to absolute tolerance ``tol``."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


def entropy_exact_expfamily(x: float) -> EntropyEval:
    """Minimize the entropy objective over exponents p > 0 at argument ``x``.

    Returns the minimizing exponent, the resulting constant
    ``1 + sqrt(ln 2 / 2) * min_p objective``, and the closed-form envelope
    ``denominator(x)`` it is guaranteed not to exceed.

    The objective is not proven unimodal, so a coarse log-spaced scan over
    p in [1e-3, 6*sqrt(ln x)] locates the global basin before golden-section
    refinement.  For x below about 1.571 the objective is increasing in p and
    the infimum sits at the left edge of the scan; the edge value is returned.
    """
    x = _require_gt1(x)
    lo = 1e-3
    hi = max(6.0 * math.sqrt(math.log(x)), 8.0 * lo)
    ratio = (hi / lo) ** (1.0 / (_SCAN_POINTS - 1))
    grid = [lo * ratio**i for i in range(_SCAN_POINTS)]
    values = [entropy_objective(x, p) for p in grid]
    if not all(math.isfinite(v) for v in values):
        raise ConvergenceError(f"entropy objective is not finite on the scan grid for x = {x}")
    best = min(range(_SCAN_POINTS), key=values.__getitem__)
    if best == _SCAN_POINTS - 1:
        raise ConvergenceError(
            f"entropy objective still decreasing at the search ceiling for x = {x}; no minimum bracketed"
        )
    bracket_lo = grid[best - 1] if best > 0 else grid[0]
    bracket_hi = grid[best + 1]
    p_star = _golden_section(lambda p: entropy_objective(x, p), bracket_lo, bracket_hi, _REFINE_TOL)
    value = 1.0 + _SQRT_LN2_OVER_2 * entropy_objective(x, p_star)
    return EntropyEval(x=x, p_star=p_star, value=value, upper_bound=denominator(x))
