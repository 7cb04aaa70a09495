"""Independent high-precision oracles shared by the test modules.

Everything here is written directly from the closed-form definitions using
mpmath at 50 significant digits, exact rational arithmetic, or brute-force
enumeration — never by calling the library code under test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 50


def residual_hp(x) -> mp.mpf:
    x = mp.mpf(x)
    s = mp.sqrt(mp.log(x))
    return mp.sqrt(2 / mp.log(2)) * mp.log((mp.pi / 2) ** mp.mpf("0.25") * (2 * s + 1)) / s


def residual_star_hp(x) -> mp.mpf:
    return mp.sqrt(mp.log(2) / 2) * residual_hp(x)


def denominator_hp(x) -> mp.mpf:
    x = mp.mpf(x)
    return 1 + mp.sqrt(mp.log(x) / mp.log(4)) + residual_hp(x)


def one_sided_shift_hp(x) -> mp.mpf:
    return mp.sqrt(mp.log(mp.mpf(x))) + residual_star_hp(x)


def critical_two_sided_hp(c, d, alpha) -> mp.mpf:
    c, alpha = mp.mpf(c), mp.mpf(alpha)
    return mp.sqrt(mp.log(2 / alpha) / 2) * denominator_hp(mp.mpf(c) * mp.mpf(d)) / mp.sqrt(c)


def two_sample_two_sided_hp(nu, xi, eps) -> mp.mpf:
    """1 - f(nu)*f(xi), each factor floored at 0, in log space: -expm1(log f(nu) + log f(xi)).

    Written as ``1 - f*f`` the result cancels and is wrong below about 1e-40
    at 50 digits; ``log1p`` and ``expm1`` keep its relative precision.
    """

    def log_factor(v):
        v = mp.mpf(v)
        inner = 2 * mp.exp(-(v / 2) * (mp.mpf(eps) / denominator_hp(v)) ** 2)
        return mp.log1p(-inner) if inner < 1 else mp.ninf  # a factor floored at 0

    return -mp.expm1(log_factor(nu) + log_factor(xi))


def binomial_half_cdf_exact(n: int, k: int) -> Fraction:
    """P(Binomial(n, 1/2) <= k) in exact rational arithmetic."""
    if k < 0:
        return Fraction(0)
    k = min(k, n)
    return Fraction(sum(math.comb(n, i) for i in range(k + 1)), 1 << n)


def grid_sup_distribution_exact(n: int, m: int) -> dict[float, Fraction]:
    """Exact distribution of max_j |U_j - n/2| / (n*m) by full 2^(n*m) enumeration.

    Enumerates every configuration of the n*m independent fair cells, computes
    the column counts and the sup statistic, and tallies probabilities.  Only
    feasible for n*m <= ~20.
    """
    atoms: dict[float, Fraction] = {}
    weight = Fraction(1, 2 ** (n * m))
    for cells in itertools.product((0, 1), repeat=n * m):
        columns = [sum(cells[i * m + j] for i in range(n)) for j in range(m)]
        stat = max(abs(u - n / 2.0) for u in columns) / (n * m)
        atoms[stat] = atoms.get(stat, Fraction(0)) + weight
    return atoms


def dense_grid_sup_two_sample(xs, ys, lo: float, hi: float, step: float = 1e-4):
    """Brute-force (plus, minus, two-sided) sup of ECDF difference on a dense grid."""
    import numpy as np

    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    grid = np.arange(lo, hi + step, step)
    f = np.searchsorted(xs, grid, side="right") / xs.size
    g = np.searchsorted(ys, grid, side="right") / ys.size
    diff = f - g
    plus = max(float(diff.max()), 0.0)
    minus = max(float((-diff).max()), 0.0)
    return plus, minus, max(plus, minus)


def dense_grid_sup_reference(xs, ref, lo: float, hi: float, step: float = 1e-4):
    """Brute-force (plus, minus, two-sided) sup of ECDF deviation from a callable CDF."""
    import numpy as np

    xs = np.sort(np.asarray(xs, dtype=float))
    grid = np.arange(lo, hi + step, step)
    f = np.searchsorted(xs, grid, side="right") / xs.size
    r = np.asarray([ref(float(v)) for v in grid])
    plus = max(float((f - r).max()), 0.0)
    minus = max(float((r - f).max()), 0.0)
    return plus, minus, max(plus, minus)


def entropy_objective_bruteforce(x: float, p_lo: float = 0.01, p_hi: float = 12.0, step: float = 1e-4):
    """Brute-force scan of the entropy objective using scipy's erf (independent route).

    Returns (min value of the objective, argmin p).
    """
    import numpy as np
    from scipy.special import erf

    p = np.arange(p_lo, p_hi + step, step)
    integral = (
        np.sqrt(np.pi) * np.exp(p * p / 8.0) * p * p * (1.0 + erf(p / 2**1.5)) / 2**1.5
    )
    phi = np.log(np.sqrt(x) * (p + integral) + 1.0) / p
    i = int(np.argmin(phi))
    return float(phi[i]), float(p[i])
