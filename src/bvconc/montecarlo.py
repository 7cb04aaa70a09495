"""Simulation and enumeration harness validating the tail bounds.

Three experiments:

* ``conjecture_refutation_experiment`` drives the binomial-grid construction:
  an n-by-m array of independent cells, cell (i, j) uniform on two adjacent
  grid points, makes the sup deviation of the pooled empirical CDF equal to
  max_j |U_j - n/2| / (n*m) for independent U_j ~ Binomial(n, 1/2).  As m
  grows the exceedance probability tends to 1 while the naive "effective
  sample size n*m^2" bound stays fixed below 1 — the naive bound is false.

* ``iid_coverage`` checks the guaranteed direction: for iid uniform samples
  the deflated statistic sqrt(n) * D / L(n) (and the shifted one-sided
  variants) empirically stay within their sub-Gaussian budgets at every
  threshold.

* ``sharpness_experiment`` sizes the grid as m_n = ceil(1 / P(Bin(n,1/2) <= k))
  so that the smallest column count dips below k with probability about
  1 - 1/e, exhibiting the lower-bound behavior that makes the sqrt(log_4 n)
  growth of L(n) unavoidable.

Reproducibility contract: every trial draws from a counter-based Philox
stream keyed by (seed, experiment stream, trial index).  Every draw comes
from ``_trial_blocks``, which yields the trials in bounded blocks, one row
per trial, so the block size never changes a result; the one trial of
``binomial_grid_sup`` is such a block of one row.  ``trial_rng`` builds one
trial's stream on its own and is the reference those rows are tested
against; no experiment calls it.  Results are bitwise-identical for
identical (config, seed), and binomial draws are inverted from the exact
binomial CDF (never sampled by rejection or normal approximation).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bounds import BoundParams, TailSide, _real, _two_sided, tail_bound, threshold
from .coefficients import _POOLED_ECDF_D, _integer
from .errors import DomainError

__all__ = [
    "SimConfig",
    "SimRow",
    "SimReport",
    "binomial_grid_sup",
    "conjecture_refutation_experiment",
    "iid_coverage",
    "sharpness_experiment",
]

_MASK64 = (1 << 64) - 1

# fixed stream ids keep the experiments' substreams disjoint under one seed
_STREAM_GRID = 1
_STREAM_REFUTATION = 2
_STREAM_COVERAGE = 3
_STREAM_SHARPNESS = 4

# A block of trials holds about this many bytes of uniforms.  Larger blocks
# ran no faster: a 64 MB budget raised the benchmark's simulate peak RSS from
# 82 to 87 MB.
_BLOCK_BYTES = 1 << 20


def trial_rng(seed: int, stream: int, trial: int) -> np.random.Generator:
    """Counter-based generator for one trial: key (seed, stream), counter block = trial.

    Each trial owns a disjoint 2^128-block region of the Philox counter
    space, so serial and parallel executions produce identical draws.  No
    experiment calls it: it is the reference that the rows of
    ``_trial_blocks``, which draws every trial, are tested against.
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, trial & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _trial_blocks(seed: int, stream: int, first: int, trials: int, width: int):
    """Yield ``(start, block)`` covering trials ``first .. first + trials - 1``.

    Row t of ``block`` is ``trial_rng(seed, stream, first + start + t).random(width)``
    bit for bit.  One Philox serves every row: before each row its state is
    reset to that trial's counter block with an empty buffer, which is what a
    fresh ``trial_rng`` starts from.  The reset state is the fresh state with
    its counter, key and buffer words held as plain Python ints rather than
    ``uint64`` arrays: the ``state`` setter reads those 10 words one by one,
    and reading them as numpy scalars made a reset take about 2.1 us against
    0.9 us from ints (2.6 us for the draw of a 100-wide row; numpy 2.4, a
    2-vCPU VM).  Each call builds its own state, so interleaved calls share
    nothing.  A block holds at least one row.
    """
    bitgen = np.random.Philox(key=np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    # the fresh state: counter [0, 0, 0, 0], buffer_pos 4 (empty buffer)
    state = bitgen.state
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    counter = state["state"]["counter"]
    rows = max(1, _BLOCK_BYTES // (8 * width))
    for start in range(0, trials, rows):
        block = _allocate((min(rows, trials - start), width), f"a trial row of width {width}")
        for t, row in enumerate(block, first + start):
            counter[2] = t & _MASK64
            bitgen.state = state
            gen.random(out=row)
        yield start, block


def _allocate(shape, what: str, dtype=float) -> np.ndarray:
    """``np.empty(shape, dtype)``; an allocation that fails is a DomainError naming ``what``."""
    try:
        return np.empty(shape, dtype)
    except (MemoryError, ValueError):  # ValueError: a shape past numpy's limits, nothing allocated
        raise DomainError(f"{what} does not fit in memory") from None


def _iterable(name: str, value) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise DomainError(f"{name} must be iterable, got {type(value).__name__}") from None


class BinomialHalf:
    """Exact Binomial(n, 1/2) machinery shared by sampling and tail arithmetic.

    The CDF is accumulated in exact rational arithmetic and only rounded to
    float once, so inversion sampling and enumeration oracles agree.  It holds
    no generator: ``invert`` maps uniforms drawn by ``_trial_blocks``.
    """

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"binomial trial count must be >= 1, got {n}")
        self.n = n
        denom = 1 << n
        acc = 0
        cdf_fractions = []
        for k in range(n + 1):
            acc += math.comb(n, k)
            cdf_fractions.append(Fraction(acc, denom))
        self._cdf_fractions = tuple(cdf_fractions)
        self._cdf = np.array([float(f) for f in cdf_fractions])

    def cdf_fraction(self, k: int) -> Fraction:
        """P(X <= k) as an exact rational."""
        if k < 0:
            return Fraction(0)
        if k >= self.n:
            return Fraction(1)
        return self._cdf_fractions[k]

    def invert(self, u: np.ndarray) -> np.ndarray:
        """Binomial draws from uniforms ``u`` (any shape) by inverting the exact CDF."""
        return np.searchsorted(self._cdf, u, side="right")


@lru_cache(maxsize=32)
def _binomial_half(n: int) -> BinomialHalf:
    return BinomialHalf(n)


@dataclass(frozen=True)
class SimConfig:
    """Echo of the knobs that produced a report.

    It is the one place where the ``n``, ``m``, ``trials`` and ``seed`` of
    every Monte Carlo entry point are checked: each experiment, and
    ``binomial_grid_sup``, builds one before it draws.
    """

    n: int
    m: int
    trials: int
    seed: int
    eps_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("n", "m", "trials"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n < 1 or self.m < 1 or self.trials < 1:
            raise DomainError("n, m and trials must all be >= 1")
        seed = _integer("seed", self.seed)
        if seed < 0 or seed > _MASK64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        object.__setattr__(self, "seed", seed)
        grid = tuple(float(_real("eps", e)) for e in _iterable("eps_grid", self.eps_grid))
        object.__setattr__(self, "eps_grid", grid)
        if not all(map(math.isfinite, grid)):
            raise DomainError(f"eps grid must be finite, got {list(grid)}")
        if any(e < 0 for e in grid) or any(a > b for a, b in zip(grid, grid[1:])):
            raise DomainError("eps grid must be nonnegative and sorted ascending")


@dataclass(frozen=True)
class SimRow:
    """One threshold: empirical tail frequency against its theoretical reference.

    ``stderr`` is the binomial standard error sqrt(p(1-p)/trials) of the
    empirical frequency p.  ``violation`` is set when p > bound + 3 * stderr;
    all three experiments apply this one rule.  ``m`` and
    ``exact`` are filled by experiments that sweep grid sizes or can
    enumerate the probability exactly.
    """

    eps: float
    empirical: float
    bound: float
    stderr: float
    violation: bool
    label: str = ""
    m: int | None = None
    exact: float | None = None


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    statistic: str
    rows: tuple[SimRow, ...]
    info: tuple[tuple[str, float], ...] = field(default=())
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        out = asdict(self)
        out["config"]["eps_grid"] = list(self.config.eps_grid)
        out["rows"] = list(out["rows"])
        out["info"] = dict(self.info)
        out["notes"] = list(self.notes)
        return out


def _row(label: str, eps: float, emp: float, bound: float, trials: int, **extra) -> SimRow:
    """A report row, flagged when ``emp`` exceeds ``bound`` by more than 3 stderrs."""
    se = math.sqrt(emp * (1.0 - emp) / trials)
    violation = emp > bound + 3.0 * se
    return SimRow(
        eps=eps, empirical=emp, bound=bound, stderr=se, violation=violation, label=label, **extra
    )


def binomial_grid_sup(n: int, m: int, seed: int) -> float:
    """One realization of the grid construction's sup statistic.

    Draws U_j ~ Binomial(n, 1/2) independently for j = 0..m-1 and returns
    max_j |U_j - n/2| / (n*m), the exact sup deviation of the pooled
    empirical CDF from its mean for the two-point-support grid data.  The
    uniforms are the one row of ``_trial_blocks`` for trial 0 of the grid
    stream, so a row too wide to allocate is a DomainError here too.
    """
    config = SimConfig(n=n, m=m, trials=1, seed=seed, eps_grid=())
    n, m, seed = config.n, config.m, config.seed
    _, block = next(_trial_blocks(seed, _STREAM_GRID, 0, 1, m))
    u = _binomial_half(n).invert(block[0])
    return float(np.max(np.abs(u - n / 2.0))) / (n * m)


def _strict_lower_cut(threshold: Fraction) -> int:
    """Largest integer strictly below ``threshold``."""
    fl = math.floor(threshold)
    return fl - 1 if threshold == fl else fl


def conjecture_refutation_experiment(
    n: int, m_list: Sequence[int], eps: float, trials: int, seed: int
) -> SimReport:
    """Exceedance of max_j |U_j/n - 1/2| > eps as the number of columns m grows.

    Each row carries the Monte Carlo frequency, the exact probability
    1 - (1 - p1)^m from the binomial tail, and the naive bound
    2*exp(-2*n*eps^2) that an "effective sample size n*m^2" reading would
    assert for every m.  The violation flag marks rows whose empirical
    frequency exceeds the naive bound — the refutation.
    """
    eps = float(_real("eps", eps))
    if not (0.0 < eps < 0.5):
        raise DomainError(f"eps must lie in (0, 1/2), got {eps}")
    m_list = tuple(_integer("m", m) for m in _iterable("m_list", m_list))
    if not m_list or any(m < 1 for m in m_list):
        raise DomainError("m_list must be a nonempty list of positive integers")
    config = SimConfig(n=n, m=max(m_list), trials=trials, seed=seed, eps_grid=(eps,))
    n, trials, seed = config.n, config.trials, config.seed

    bh = _binomial_half(n)
    lo_cut = _strict_lower_cut(Fraction(n, 2) - Fraction(eps) * n)
    hi_cut = n - lo_cut  # U > n/2 + n*eps  <=>  U >= hi_cut, by symmetry
    p_one = bh.cdf_fraction(lo_cut) + (1 - bh.cdf_fraction(hi_cut - 1))
    naive = min(1.0, 2.0 * math.exp(-2.0 * n * eps * eps))

    rows = []
    for j, m in enumerate(m_list):
        hits = 0
        for _, block in _trial_blocks(seed, _STREAM_REFUTATION, j * trials, trials, m):
            # inversion is nondecreasing, so it commutes with a row's min and max
            lo, hi = bh.invert(block.min(axis=1)), bh.invert(block.max(axis=1))
            hits += int(np.count_nonzero((lo <= lo_cut) | (hi >= hi_cut)))
        exact = float(1 - (1 - p_one) ** m)
        emp = hits / trials
        rows.append(_row(f"m={m}", eps, emp, naive, trials, m=m, exact=exact))
    return SimReport(
        config=config,
        statistic="max_j |U_j/n - 1/2| over m independent Binomial(n, 1/2) columns",
        rows=tuple(rows),
        info=(("column_exceedance_probability", float(p_one)),),
    )


def _uniform_sup_distance(block: np.ndarray, side: TailSide) -> np.ndarray:
    """Per row, ``sup_distance_reference`` of the row's ECDF from the uniform CDF, bit for bit.

    Sorts ``block`` in place.  For sorted u_(1) <= ... <= u_(n) in [0, 1),
    where the uniform CDF is the identity, D+ = max(i/n - u_(i)) and
    D- = max(u_(i) - (i-1)/n), each floored at 0.  Without ties these are
    the step-CDF path's float operations.  Ties need no other path: rounding
    is monotone, so over a run of equal values the maximum falls on the
    run's last i for D+ (the ECDF height) and its first i for D- (the left
    limit), which are the terms the step-CDF path computes.
    """
    n = block.shape[1]
    block.sort(axis=1)
    plus = np.maximum((np.arange(1, n + 1) / n - block).max(axis=1), 0.0)
    minus = np.maximum((block - np.arange(n) / n).max(axis=1), 0.0)
    if side is TailSide.PLUS:
        return plus
    if side is TailSide.MINUS:
        return minus
    return np.maximum(plus, minus)


def iid_coverage(
    n: int, trials: int, seed: int, eps_grid: Sequence[float], side: TailSide
) -> SimReport:
    """Empirical tail of the bounded sup statistic for iid uniform data.

    Per trial, n iid uniforms feed the exact sup distance to the uniform CDF.
    Rows labeled ``adjusted`` track the guaranteed statistic —
    sqrt(n)*D/L(n) two-sided, sqrt(n)*D± - S(n) one-sided — against its
    sub-Gaussian budget; rows labeled ``raw`` track the unadjusted sqrt(n)*D±
    against the same budget for comparison.
    """
    config = SimConfig(n=n, m=1, trials=trials, seed=seed, eps_grid=eps_grid)
    n, trials, seed = config.n, config.trials, config.seed
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if trials < 100:
        raise DomainError(f"need at least 100 trials for stable frequencies, got {trials}")
    two_sided = _two_sided(side)

    sup = _allocate(trials, f"a result array of {trials} trials")
    for start, block in _trial_blocks(seed, _STREAM_COVERAGE, 0, trials, n):
        sup[start : start + len(block)] = _uniform_sup_distance(block, side)
    params = BoundParams(c=n, d=_POOLED_ECDF_D)

    rows = []
    for label, stats in (("adjusted", threshold(params, side, sup)), ("raw", math.sqrt(n) * sup)):
        for eps in config.eps_grid:
            emp = float(np.mean(stats > eps))
            rows.append(_row(label, eps, emp, tail_bound(params, side, eps), trials))
    if two_sided:
        statistic = "sqrt(n) * sup|F - U| / L(n)  [raw rows: sqrt(n) * sup|F - U|]"
    else:
        sign = "+" if side is TailSide.PLUS else "-"
        statistic = (
            f"sqrt(n) * sup(F - U)^{sign} - S(n)  [raw rows: sqrt(n) * sup(F - U)^{sign}]"
        )
    return SimReport(config=config, statistic=statistic, rows=tuple(rows))


def sharpness_experiment(
    n: int,
    l_target: float,
    trials: int,
    seed: int,
    *,
    m_cap: int = 10**7,
) -> SimReport:
    """Fixed-n slice of the lower-bound construction.

    With k = round(l_target * n) and m_n = ceil(1 / P(Bin(n,1/2) <= k)), the
    smallest of m_n binomial columns falls to k or below with probability
    1 - (1 - P)^{m_n} (about 1 - 1/e).  Rows compare the empirical frequency
    of the depth statistic sqrt(n) * (1/2 - min_j U_j / n) exceeding
    (1+delta) * sqrt(n) * (1/2 - l_target) for delta in {-0.1, 0, +0.1}
    against the exact probabilities; the ``min_le_k`` row reports the
    anchor event min_j U_j <= k itself.
    """
    l_target = float(_real("l_target", l_target))
    if not (0.0 < l_target < 0.5):
        raise DomainError(f"l_target must lie in (0, 1/2), got {l_target}")
    config = SimConfig(n=n, m=1, trials=trials, seed=seed, eps_grid=())
    n, trials, seed = config.n, config.trials, config.seed
    k = round(l_target * n)
    if not (0 < k < n / 2):
        raise DomainError(
            f"k = round(l_target * n) = {k} must satisfy 0 < k < n/2 for n = {n}"
        )
    m_cap = _integer("m_cap", m_cap)
    if m_cap < 1:
        raise DomainError(f"m_cap must be >= 1, got {m_cap}")

    bh = _binomial_half(n)
    p_le_k = bh.cdf_fraction(k)
    m_n = math.ceil(1 / p_le_k)
    notes: tuple[str, ...] = ()
    if m_n > m_cap:
        notes = (f"m_n = {m_n} truncated to cap {m_cap}",)
        m_n = m_cap

    mins = _allocate(trials, f"a result array of {trials} trials", int)
    for start, block in _trial_blocks(seed, _STREAM_SHARPNESS, 0, trials, m_n):
        # inversion is nondecreasing, so the row's smallest uniform gives its smallest draw
        mins[start : start + len(block)] = bh.invert(block.min(axis=1))

    def row(label: str, eps: float, cut: int) -> SimRow:
        # the exact P(min_j U_j <= cut) is both the reference and the ``exact`` column
        exact = 0.0 if cut < 0 else float(1 - (1 - bh.cdf_fraction(cut)) ** m_n)
        emp = float(np.mean(mins <= cut))
        return _row(label, eps, emp, exact, trials, m=m_n, exact=exact)

    root_n = math.sqrt(n)
    rows = [row("min_le_k", float(k), k)]
    taus = []
    for delta in (-0.1, 0.0, 0.1):
        tau = (1.0 + delta) * root_n * (0.5 - l_target)
        taus.append(tau)
        threshold = Fraction(n, 2) - (1 + Fraction(delta)) * n * (Fraction(1, 2) - Fraction(l_target))
        rows.append(row(f"delta={delta:+g}", tau, _strict_lower_cut(threshold)))
    return SimReport(
        config=replace(config, m=m_n, eps_grid=tuple(sorted(taus))),
        statistic="sqrt(n) * (1/2 - min_j U_j / n) over m_n Binomial(n, 1/2) columns",
        rows=tuple(rows),
        info=(
            ("k", float(k)),
            ("m_n", float(m_n)),
            ("p_le_k", float(p_le_k)),
            ("truncated", float(bool(notes))),
        ),
        notes=notes,
    )
