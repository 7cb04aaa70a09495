"""Empirical CDFs, exact sup-distance statistics, and Lipschitz panel bounds.

Step functions are represented by their jump points and right-continuous
values.  Because a step CDF is constant between jumps, the supremum of any
difference involving one or two of them over the whole real line is attained
on a finite candidate set:

* two step functions: the jump points of one of them, G (between two of
  G's jumps G is constant and F nondecreasing, so F - G is smallest at the
  left jump and largest as the left limit into the right one, and the
  difference vanishes outside the data range);
* a step function against a continuous reference: the jump points again, the
  positive part right at each jump (the step is largest there, the reference
  keeps growing) and the negative part as the left limit into each jump.

So the "sup over the reals" is computed exactly, with no grid and no jitter.
Neither statistic searches a step function for its own jump points: there
its value is the stored height and its left limit the height before.  So
the two-sample union is never merged, and F's own jumps are not visited:
one binary search places G's jumps among F's, which gives F at each of G's
jumps, and the rank one lower wherever F also jumps there gives F's left
limit.  A scalar-only reference CDF is called point by point in bounded
chunks, so no step holds a Python float for every point.

For trajectories only observed on a time grid the sup cannot be attained, so
``lipschitz_sup_interval`` returns a certified enclosure instead: the grid
maximum is a lower bound, and adding half the worst gap times the Lipschitz
constant of the difference (2K) gives an upper bound.

A ``ClusteredSample`` numbers its cluster labels in one dict pass (which
``from_pairs`` feeds straight from the pairs; ``iid`` numbers the
observations with no dict pass, and the CLI hands over the codes of the
pass it made while reading a file) and builds
its cluster spec and ECDF once, at construction, and stores them beside
read-only arrays, so every test on the sample reuses them and instances stay
immutable and safe to share.  Everything here is pure and safe to call
concurrently.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .bounds import TailSide
from .coefficients import ClusterSpec, _check_k_lip
from .errors import DataFormatError, DomainError, LipschitzConsistencyError

__all__ = [
    "ClusteredSample",
    "StepCdf",
    "TrajectoryPanel",
    "ecdf",
    "sup_distance_two_sample",
    "sup_distance_reference",
    "lipschitz_sup_interval",
]


def _label_codes(labels: Iterable[Hashable], n: int) -> np.ndarray:
    """The ``n`` labels numbered in order of first appearance, as ``intp`` codes, in one dict pass.

    A label's first lookup misses and takes the next code, which keeps the
    size list deterministic under relabeling.
    """
    index = defaultdict(itertools.count().__next__)
    try:
        return np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=n)
    except TypeError as exc:
        raise DomainError(f"cluster labels must be hashable: {exc}") from None


@dataclass(frozen=True, eq=False)
class ClusteredSample:
    """Real-valued observations tagged with the cluster they belong to.

    ``values`` is stored as a read-only float64 array.  ``cluster_ids`` is
    stored as read-only integer codes numbering the distinct labels in order
    of first appearance; labels that hash and compare equal (``1``, ``1.0``
    and ``True``) are one cluster.  The cluster spec and the ECDF are built
    here, once.
    """

    values: np.ndarray
    cluster_ids: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        labels = self.cluster_ids
        try:
            n_labels = len(labels)
        except TypeError:
            raise DomainError(
                f"cluster_ids must be a sequence of labels, got {type(labels).__name__}"
            ) from None
        if values.size != n_labels:
            raise DomainError(f"{values.size} values but {n_labels} cluster labels")
        self._build(values, labels)

    def _build(
        self,
        values: np.ndarray,
        labels: Iterable[Hashable] | None,
        codes: np.ndarray | None = None,
    ) -> None:
        """Check ``values`` (float64, owned by this sample), number ``labels`` and store both.

        ``labels`` yields one label per value; ``None`` makes each observation
        its own cluster, numbered like ``range(n)`` without a dict pass.
        ``codes``, when given, are the labels already numbered by
        :func:`_label_codes` (``labels`` is then ignored), so no dict pass runs.
        """
        if values.ndim != 1:
            raise DomainError(f"values must be a 1-d sequence, got shape {values.shape}")
        if not values.size:
            raise DomainError("sample must be nonempty")
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(values[np.argmin(finite)])
            raise DomainError(f"observation values must be finite, got {bad}")
        if codes is None and labels is None:
            codes = np.arange(values.size, dtype=np.intp)
        elif codes is None:
            codes = _label_codes(labels, values.size)
        for array in (values, codes):
            array.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cluster_ids", codes)
        object.__setattr__(self, "_spec", ClusterSpec(np.bincount(codes).tolist()))
        object.__setattr__(self, "_ecdf", StepCdf.empirical(values))

    @classmethod
    def _built(
        cls,
        values: np.ndarray,
        labels: Iterable[Hashable] | None,
        codes: np.ndarray | None = None,
    ) -> "ClusteredSample":
        sample = object.__new__(cls)
        sample._build(values, labels, codes)
        return sample

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, Hashable]]) -> "ClusteredSample":
        """Sample from ``(value, label)`` pairs; the labels go straight into the dict pass."""
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        values = np.fromiter(map(itemgetter(0), pairs), dtype=np.float64, count=len(pairs))
        return cls._built(values, map(itemgetter(1), pairs))

    @classmethod
    def iid(cls, values: Iterable[float]) -> "ClusteredSample":
        """Each observation its own cluster (effective sample size = n).

        The codes, sizes and ECDF equal those of ``cluster_ids=range(n)``.
        """
        if isinstance(values, np.ndarray):
            values = np.array(values, dtype=np.float64)
        else:
            values = np.fromiter(values, dtype=np.float64)
        return cls._built(values, None)

    @property
    def n(self) -> int:
        return self.values.size

    def cluster_spec(self) -> ClusterSpec:
        return self._spec


@dataclass(frozen=True, eq=False)
class StepCdf:
    """Right-continuous step function: value ``values[i]`` at and after ``jump_points[i]``.

    The value before the first jump is 0 and the last value must be 1.
    ``values`` is stored read-only.
    """

    jump_points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        jumps = np.asarray(self.jump_points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        # values of another rank go to the shape check unpadded
        self._store(jumps, np.concatenate(([0.0], vals)) if vals.ndim == 1 else vals)

    def _store(self, jumps: np.ndarray, padded: np.ndarray) -> None:
        """Check the jumps and the heights behind ``padded``'s leading 0, then keep both.

        ``padded`` becomes this CDF's own array; the heights are stored once,
        as a read-only view behind the leading 0.
        """
        if jumps.ndim != 1 or padded.shape != (jumps.size + 1,) or jumps.size == 0:
            raise DomainError("jump points and values must be equal-length 1-d arrays")
        vals = padded[1:]  # checked here; the stored view is taken once padded is read-only
        if not np.all(np.isfinite(jumps)):
            raise DomainError("jump points must be finite")
        # shifted views, not np.diff: for finite doubles a difference is <= 0 (< 0)
        # exactly when the pair compares so, with no full-size float temporary and no
        # overflow warning for huge differences
        if np.any(jumps[1:] <= jumps[:-1]):
            raise DomainError("jump points must be strictly increasing")
        if np.any(vals[1:] < vals[:-1]):
            raise DomainError("step values must be nondecreasing")
        if vals[0] < 0 or abs(vals[-1] - 1.0) > 1e-12:
            raise DomainError("step values must rise from >= 0 to exactly 1")
        # adding 0.0 stores a -0.0 height as 0.0, so a zero difference of two step
        # CDFs is always +0.0 and no sign of zero rests on numpy's reduction order
        padded += 0.0
        padded.setflags(write=False)
        object.__setattr__(self, "jump_points", jumps)
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "values", padded[1:])

    @classmethod
    def empirical(cls, values: np.ndarray) -> "StepCdf":
        """Empirical CDF of ``values``: jump (tie count)/n at each distinct value.

        The jump points are stored read-only, like the heights, which are
        summed and scaled in place in the array the CDF keeps.
        """
        values = np.asarray(values, dtype=float)
        uniq, counts = np.unique(values, return_counts=True)
        uniq.setflags(write=False)
        padded = np.empty(uniq.size + 1)
        padded[0] = 0.0
        # summed in place as integers and divided straight into the kept array
        np.divide(np.cumsum(counts, out=counts), values.size, out=padded[1:])
        cdf = object.__new__(cls)
        cdf._store(uniq, padded)
        return cdf

    def __call__(self, r):
        return self.evaluate(r)

    def evaluate(self, r):
        """Value at ``r`` (right-continuous)."""
        idx = np.searchsorted(self.jump_points, r, side="right")
        return self._padded[idx]

    def evaluate_left(self, r):
        """Left limit at ``r``, i.e. the value just before ``r``."""
        idx = np.searchsorted(self.jump_points, r, side="left")
        return self._padded[idx]


def ecdf(sample: ClusteredSample) -> StepCdf:
    """Empirical CDF of the pooled observations: jump (tie count)/n at each unique value.

    The sample builds it once, at construction; every call returns that object.
    """
    return sample._ecdf


def _pick_side(side: TailSide, plus: float, minus: float) -> float:
    if side is TailSide.PLUS:
        return plus
    if side is TailSide.MINUS:
        return minus
    return max(plus, minus)


def sup_distance_two_sample(f: StepCdf, g: StepCdf, side: TailSide) -> float:
    """Exact sup over the reals of |F - G| (or its signed positive/negative part).

    F - G is piecewise constant with breakpoints at the union of the jump
    points and value 0 outside the pooled data range, so the exact supremum
    is a max over finitely many values, floored at 0.  Only G's jumps y_j are
    needed.  On [y_j, y_{j+1}) G is constant at its height G_j and F is
    nondecreasing, so F - G is smallest at y_j and largest just before
    y_{j+1}: the negative part is -min_j (F(y_j) - G_j) and the positive part
    max_j (F(y_j-) - G_{j-1}), with G_{-1} = 0.  Before G's first jump
    F - G >= 0, after its last F - G <= 0, and the floor covers both.

    One binary search places G's jumps among F's; it gives the rank of F at
    each y_j, and the left-limit rank is that rank minus one wherever F also
    jumps at y_j.  Buffers are reused, so at most three arrays as long as G's
    jumps are alive at once.

    The result equals, bit for bit, the extremes over the union of the jump
    points: F's heights minus G at F's jumps together with F at G's jumps
    minus G's heights.  The minimum keeps the second set alone; each term of
    the first is at least one of them, since it subtracts the same G height
    from an F height no smaller.  For the maximum, each candidate is one of
    the old terms (at F's last jump in [y_{j-1}, y_j), or at y_{j-1} when F
    has none there) or +0.0 (before y_0, if F has no jump there either), and
    every old term is at most one candidate, since it subtracts the same G
    height from an F height no larger, or is at most 0 past G's last jump.
    Rounding is monotone, so both extremes are the same floats.
    """
    # one buffer holds every difference; np.take fills it in place only when
    # given a mode (with the default "raise" it writes through a copy)
    diff = np.empty(g.jump_points.size)
    ranks = np.searchsorted(f.jump_points, g.jump_points, side="right")
    np.take(f._padded, ranks, out=diff, mode="wrap")
    diff -= g.values
    # a zero minimum gives -0.0 here, as the maximum of -(F - G) would
    minus = max(-float(np.min(diff)), 0.0)
    # F's last jump at or below each y_j; a rank of 0 wraps to F's last jump,
    # which cannot equal a G jump below F's first
    ranks -= 1
    np.take(f.jump_points, ranks, out=diff, mode="wrap")
    # adding one back where F does not jump at y_j gives the rank of F(y_j-)
    ranks += diff != g.jump_points
    np.take(f._padded, ranks, out=diff, mode="wrap")
    diff -= g._padded[:-1]
    plus = max(float(np.max(diff)), 0.0)
    return _pick_side(side, plus, minus)


# points per chunk when a scalar-only reference CDF is called point by point
_REFERENCE_CHUNK = 2**14


def _reference_values(ref_cdf: Callable, pts: np.ndarray) -> np.ndarray:
    """``ref_cdf`` at every point of ``pts``, as a float64 array.

    The whole array is tried first.  A reference that refuses it, or answers
    in another shape, is called once per point, in order, with Python floats;
    the points are converted and the answers collected in bounded chunks
    written into one array, so no list of every point is ever built.
    """
    try:
        out = np.asarray(ref_cdf(pts), dtype=float)
        if out.shape == pts.shape:
            return out
    except (TypeError, ValueError):
        pass
    out = np.empty(pts.size)
    for start in range(0, pts.size, _REFERENCE_CHUNK):
        chunk = pts[start : start + _REFERENCE_CHUNK].tolist()
        out[start : start + len(chunk)] = np.fromiter(
            map(ref_cdf, chunk), dtype=float, count=len(chunk)
        )
    return out


def sup_distance_reference(
    f: StepCdf,
    ref_cdf: Callable,
    side: TailSide,
    extra_points: Sequence[float] = (),
) -> float:
    """Exact sup of the deviation of a step CDF from a continuous reference CDF.

    Positive part: max over jumps x of F(x) - ref(x).  Negative part: max over
    jumps of ref(x) - F(x-), approached as r increases into each jump.  Both
    floored at 0.  ``extra_points`` adds candidate evaluation points, useful
    when the reference is only piecewise smooth; without them F(x) and F(x-)
    at the jumps are the stored heights.
    """
    if len(extra_points):
        pts = np.union1d(f.jump_points, np.asarray(extra_points, dtype=float))
        right, left = f.evaluate(pts), f.evaluate_left(pts)
    else:
        pts, right, left = f.jump_points, f.values, f._padded[:-1]
    ref = _reference_values(ref_cdf, pts)
    if not np.all((ref >= -1e-9) & (ref <= 1.0 + 1e-9)):  # also rejects NaN
        raise DomainError("reference CDF values must lie in [0, 1]")
    if np.any(np.diff(ref) < -1e-12):
        raise DomainError("reference CDF must be nondecreasing")
    plus = max(float(np.max(right - ref)), 0.0)
    minus = max(float(np.max(ref - left)), 0.0)
    return _pick_side(side, plus, minus)


@dataclass(frozen=True, eq=False)
class TrajectoryPanel:
    """Per-unit [0,1]-valued trajectories sampled on a shared time grid in [0,1].

    The data must be consistent with the declared Lipschitz constant: every
    consecutive move satisfies |dv| <= k_lip * dt + 1e-9.
    """

    times: np.ndarray
    unit_values: np.ndarray
    k_lip: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        vals = np.atleast_2d(np.asarray(self.unit_values, dtype=float))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "unit_values", vals)
        if times.ndim != 1 or times.size == 0:
            raise DataFormatError("time grid must be a nonempty 1-d array")
        if not np.all(np.isfinite(times)) or times[0] < 0.0 or times[-1] > 1.0:
            raise DataFormatError("times must be finite and lie in [0, 1]")
        if np.any(np.diff(times) <= 0):
            raise DataFormatError("times must be strictly increasing")
        if vals.ndim != 2 or vals.shape[1] != times.size:
            raise DataFormatError(
                f"unit values must be (n_units, {times.size}), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)) or vals.min() < -1e-12 or vals.max() > 1.0 + 1e-12:
            raise DataFormatError("trajectory values must lie in [0, 1]")
        _check_k_lip(self.k_lip, DataFormatError)
        self._check_consistency()

    def _check_consistency(self) -> None:
        if self.times.size < 2:
            return
        dt = np.diff(self.times)
        dv = np.abs(np.diff(self.unit_values, axis=1))
        excess = dv - (self.k_lip * dt + 1e-9)
        if excess.max() > 0:
            unit, step = np.unravel_index(int(np.argmax(excess)), excess.shape)
            # Python floats: a subnormal dt gives an infinite slope, not a numpy overflow warning
            slope = float(dv[unit, step]) / float(dt[step])
            raise LipschitzConsistencyError(
                f"unit {unit + 1} moves with slope {slope:g} between "
                f"t={self.times[step]:g} and t={self.times[step + 1]:g}, "
                f"exceeding the declared Lipschitz constant {self.k_lip:g}"
            )

    @property
    def n_units(self) -> int:
        return self.unit_values.shape[0]

    @property
    def delta(self) -> float:
        """Largest consecutive grid spacing (0 for a single-point grid)."""
        if self.times.size < 2:
            return 0.0
        return float(np.max(np.diff(self.times)))

    def mean_curve(self) -> np.ndarray:
        return self.unit_values.mean(axis=0)


def _effective_mesh(times: np.ndarray) -> float:
    """Worst gap controlling the sup over [0,1]: interior spacings, doubled end gaps.

    On an interior gap the difference curve, being 2K-Lipschitz with known
    values at both ends, can rise at most K * gap above the grid (peak at the
    midpoint).  Past an end point only one value is known, so the curve can
    rise 2K * gap; folding the factor 2 into the gap keeps a single formula.
    """
    gaps = [2.0 * float(times[0]), 2.0 * float(1.0 - times[-1])]
    if times.size >= 2:
        gaps.append(float(np.max(np.diff(times))))
    return max(gaps)


def lipschitz_sup_interval(
    panel_f: TrajectoryPanel, panel_g: TrajectoryPanel
) -> tuple[float, float]:
    """Certified enclosure of sup over [0,1] of |mean_f(t) - mean_g(t)|.

    Returns (lower, upper) with lower the grid maximum and
    upper = lower + k_lip * mesh, where mesh is the effective grid mesh.
    The true supremum lies in the interval.
    """
    if not np.array_equal(panel_f.times, panel_g.times):
        raise DataFormatError("panels must share the same time grid")
    if panel_f.n_units != panel_g.n_units:
        raise DataFormatError(
            f"panels must have the same unit count ({panel_f.n_units} vs {panel_g.n_units})"
        )
    if panel_f.k_lip != panel_g.k_lip:
        raise DataFormatError(
            f"panels must declare the same Lipschitz constant ({panel_f.k_lip} vs {panel_g.k_lip})"
        )
    h = np.abs(panel_f.mean_curve() - panel_g.mean_curve())
    lower = float(np.max(h))
    upper = lower + panel_f.k_lip * _effective_mesh(panel_f.times)
    return lower, upper
