"""Independent references for every output the benchmark checks.

Nothing here calls into ``bvconc``: statistics come from ``np.searchsorted``
on the benchmark's own arrays, effective sizes from ``np.unique`` label
counts, closed-form bounds from mpmath at 50 digits, and simulation
probabilities from exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 50

ABS_STAT = 1e-12
REL_COEF = 1e-12
REL_CRITICAL = 1e-9
ABS_P = 1e-12
REL_EXACT = 1e-12
SIGMAS = 5.0


def _mp(x) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


class CheckLog:
    """Collects failed checks and the p-value shortfall counters."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.p_checked = 0
        self.p_below = 0
        self.p_max_rel_gap = 0.0

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def close_abs(self, got: float, want, tol: float, what: str) -> None:
        self.require(abs(_mp(got) - _mp(want)) <= tol, f"{what}: {got!r} vs {want}")

    def close_rel(self, got: float, want, tol: float, what: str) -> None:
        want = _mp(want)
        self.require(abs(_mp(got) - want) <= tol * abs(want), f"{what}: {got!r} vs {want}")

    def p_upper(self, got: float, want, what: str) -> None:
        """Gate on the absolute tolerance; count (never gate) results below the oracle."""
        self.close_abs(got, want, ABS_P, what)
        self.p_checked += 1
        if mp.mpf(got) < want:
            self.p_below += 1
            self.p_max_rel_gap = max(self.p_max_rel_gap, float((want - mp.mpf(got)) / want))

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def two_sample_parts(x_f: np.ndarray, x_g: np.ndarray) -> tuple[float, float]:
    """(plus, minus) parts of sup(F - G) from ECDFs evaluated at every pooled value."""
    sf, sg = np.sort(x_f), np.sort(x_g)
    pooled = np.concatenate((sf, sg))
    diff = np.searchsorted(sf, pooled, side="right") / sf.size - np.searchsorted(
        sg, pooled, side="right"
    ) / sg.size
    return max(float(diff.max()), 0.0), max(float((-diff).max()), 0.0)


def one_sample_parts(x: np.ndarray, ref_values: np.ndarray, points: np.ndarray) -> tuple[float, float]:
    """(plus, minus) parts of sup(F - ref) over the unique ``points`` of ``x``.

    ``ref_values`` is the reference CDF at ``points``.  The plus part is taken
    at each point, the minus part against the left limit into it.
    """
    s = np.sort(x)
    right = np.searchsorted(s, points, side="right") / s.size
    left = np.searchsorted(s, points, side="left") / s.size
    return max(float((right - ref_values).max()), 0.0), max(float((ref_values - left).max()), 0.0)


def effective_size(codes: np.ndarray) -> float:
    """n^2 / sum of squared cluster sizes, from label counts."""
    _, counts = np.unique(codes, return_counts=True)
    counts = counts.astype(np.int64)
    return int(counts.sum()) ** 2 / int((counts * counts).sum())


def lipschitz_interval(times: np.ndarray, vals_a: np.ndarray, vals_b: np.ndarray, k_lip: float):
    """(lower, upper) enclosure of sup |mean_A - mean_B| for (units x times) panels."""
    n = vals_a.shape[0]
    mean_a = [math.fsum(col) / n for col in vals_a.T.tolist()]
    mean_b = [math.fsum(col) / n for col in vals_b.T.tolist()]
    lower = max(abs(a - b) for a, b in zip(mean_a, mean_b))
    gaps = np.diff(times)
    mesh = max(2.0 * float(times[0]), 2.0 * (1.0 - float(times[-1])), float(gaps.max()))
    return lower, lower + k_lip * mesh


# ---------------------------------------------------------------------------
# closed forms at 50 digits
# ---------------------------------------------------------------------------


def _residual_star(x) -> mp.mpf:
    s = mp.sqrt(mp.log(x))
    return mp.log((mp.pi / 2) ** mp.mpf("0.25") * (2 * s + 1)) / s


def denominator(x) -> mp.mpf:
    x = mp.mpf(x)
    return 1 + mp.sqrt(mp.log(x) / mp.log(4)) + mp.sqrt(2 / mp.log(2)) * _residual_star(x)


def shift(x) -> mp.mpf:
    x = mp.mpf(x)
    return mp.sqrt(mp.log(x)) + _residual_star(x)


def single_p(c: float, d: float, two_sided: bool, stat: float) -> mp.mpf:
    """Capped single-sample bound at the statistic, for coefficients (c, d)."""
    c, x, stat = mp.mpf(c), mp.mpf(c) * mp.mpf(d), mp.mpf(stat)
    if two_sided:
        eps = mp.sqrt(c) * stat / denominator(x)
        return min(mp.mpf(1), 2 * mp.exp(-2 * eps * eps))
    eps = max(mp.mpf(0), mp.sqrt(c) * stat - shift(x))
    return min(mp.mpf(1), mp.exp(-2 * eps * eps))


def two_sample_p(nu: float, xi: float, two_sided: bool, stat: float) -> mp.mpf:
    """1 - product of per-sample factors, splitting the deviation evenly."""
    eps = mp.mpf(stat)

    def factor(v):
        v = mp.mpf(v)
        if two_sided:
            return max(mp.mpf(0), 1 - 2 * mp.exp(-(v / 2) * (eps / denominator(v)) ** 2))
        shifted = max(mp.mpf(0), mp.sqrt(v) * eps / 2 - shift(v))
        return 1 - mp.exp(-2 * shifted * shifted)

    return 1 - factor(nu) * factor(xi)


def check_critical(log: CheckLog, critical: dict, p_at, what: str) -> None:
    """Each critical value must put the closed form within 1e-9*alpha of alpha."""
    log.require(bool(critical), f"{what}: no critical values")
    for alpha, value in critical.items():
        alpha, p = float(alpha), p_at(value)
        log.require(
            abs(p - mp.mpf(alpha)) <= REL_CRITICAL * alpha,
            f"{what}: critical[{alpha}] = {value!r} gives p = {mp.nstr(p, 12)}",
        )


# ---------------------------------------------------------------------------
# exact simulation probabilities
# ---------------------------------------------------------------------------


def binom_half(n: int, u: int) -> Fraction:
    return Fraction(math.comb(n, u), 1 << n)


def grid_exceedance(n: int, eps: float, m: int) -> Fraction:
    """P(max over m columns of |U/n - 1/2| > eps), U ~ Binomial(n, 1/2)."""
    half, cut = Fraction(n, 2), Fraction(eps) * n
    p_one = sum((binom_half(n, u) for u in range(n + 1) if abs(u - half) > cut), Fraction(0))
    return 1 - (1 - p_one) ** m


def min_below(n: int, m: int, threshold: Fraction, strict: bool) -> Fraction:
    """P(min over m columns of U < threshold), or <= when not strict."""
    p = sum(
        (binom_half(n, u) for u in range(n + 1) if (u < threshold if strict else u <= threshold)),
        Fraction(0),
    )
    return 1 - (1 - p) ** m


def check_frequency(log: CheckLog, empirical: float, exact: float, trials: int, what: str) -> None:
    se = math.sqrt(exact * (1.0 - exact) / trials)
    log.require(
        abs(empirical - exact) <= SIGMAS * se + 1e-12,
        f"{what}: empirical {empirical!r} is more than {SIGMAS:g} SE from exact {exact!r}",
    )
