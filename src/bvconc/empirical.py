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
the one-sample statistic, whose one candidate set is F's jumps, never
searches F; the two-sample union is never merged, and F's own jumps are not
visited: one binary search places G's jumps among F's, which gives F at each
of G's jumps, and the rank one lower wherever F also jumps there gives F's
left limit.  A reference CDF's values are checked and compared with the step
function in bounded chunks, and a scalar-only one is called point by point
in those chunks, so no step holds a Python float for every point or a
temporary as long as the jump set beyond the reference values themselves.

For trajectories only observed on a time grid the sup cannot be attained, so
``lipschitz_sup_interval`` returns a certified enclosure instead: the grid
maximum is a lower bound, and adding half the worst gap times the Lipschitz
constant of the difference (2K) gives an upper bound.

A ``ClusteredSample`` numbers its cluster labels in one dict pass (which
``from_pairs`` runs over its pairs, unpacking each entry as exactly two
items, the value being ``entry[0]``; ``iid`` numbers the observations with
no dict pass, and the CLI hands over the codes of the pass it made while
reading a file) and builds its cluster spec and ECDF
once, at construction, and stores them beside read-only arrays, so every
test on the sample reuses them and instances stay immutable and safe to
share.  The ECDF comes from one sorted copy of the values, whose run starts
give the heights, without the other temporaries of ``np.unique``.  The one
thing a sample adds later is the positive and negative parts of its last
two-sample comparison as G, with a weak reference to that comparison's F,
so a test of the same pair on another side reuses them; the data they come
from never changes.  Everything here is pure and safe to call concurrently:
that kept comparison is one attribute, written whole and read once per
call, so a call sees either a complete earlier comparison or computes its
own.
"""

from __future__ import annotations

import itertools
import weakref
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter, length_hint
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .bounds import TailSide, _two_sided
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


def _label_index() -> defaultdict:
    """An empty first-appearance index: a label's first lookup misses and takes the next code.

    Every reader numbers labels through one, which keeps the size list
    deterministic under relabeling.
    """
    return defaultdict(itertools.count().__next__)


def _label_codes(labels: Iterable[Hashable], n: int) -> np.ndarray:
    """The ``n`` labels numbered in order of first appearance, as ``intp`` codes, in one dict pass."""
    index = _label_index()
    try:
        return np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=n)
    except TypeError as exc:
        raise DomainError(f"cluster labels must be hashable: {exc}") from None


def _pair_codes(pairs: Sequence) -> np.ndarray:
    """The labels of ``pairs`` numbered like :func:`_label_codes`, each entry unpacked as exactly two items.

    When the pass fails, a rescan in entry order names the first entry that
    is not two items, or whose label is unhashable.
    """
    index = _label_index()
    try:
        codes = [index[label] for _, label in pairs]
    except (TypeError, ValueError):
        for i, entry in enumerate(pairs):
            try:
                _, label = entry
            except (TypeError, ValueError):
                raise _pair_error(pairs, i) from None
            try:
                index[label]
            except TypeError as exc:
                raise DomainError(f"cluster labels must be hashable: {exc}") from None
        raise
    return np.fromiter(codes, dtype=np.intp, count=len(codes))


def _float64(values, what="observation values", read=np.array, error=DomainError) -> np.ndarray:
    """``read(values, dtype=np.float64)``; a value that is not a real number raises ``error`` naming ``what``."""
    try:
        return read(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be real numbers: {exc}") from None


def _pair_error(pairs: Sequence, i: int) -> DomainError:
    return DomainError(f"pair {i} must be a (real value, label) pair, got {pairs[i]!r}")


def _taken(pairs: Sequence, rest: Iterable) -> int:
    """The index of the entry of ``pairs`` last taken from its iterator ``rest``."""
    return len(pairs) - length_hint(rest) - 1


@dataclass(frozen=True, eq=False)
class ClusteredSample:
    """Real-valued observations tagged with the cluster they belong to.

    ``values`` is stored as a read-only float64 array.  ``cluster_ids`` is
    stored as read-only integer codes numbering the distinct labels in order
    of first appearance; labels that hash and compare equal (``1``, ``1.0``
    and ``True``) are one cluster.  The cluster spec and the ECDF are built
    here, once.  A two-sample test with this sample as G keeps the
    statistic's parts here, for the next test of the same pair.  A copy or
    a pickle is built from the values and codes like a new sample: its
    arrays are read-only and it starts with no kept parts.
    """

    values: np.ndarray
    cluster_ids: np.ndarray

    def __post_init__(self) -> None:
        values = _float64(self.values)
        labels = self.cluster_ids
        try:
            n_labels = len(labels)
        except TypeError:
            raise DomainError(
                f"cluster_ids must be a sequence of labels, got {type(labels).__name__}"
            ) from None
        if values.size != n_labels:
            raise DomainError(f"{values.size} values but {n_labels} cluster labels")
        self._build(values, lambda: _label_codes(labels, n_labels))

    def _build(self, values: np.ndarray, codes: Callable[[], np.ndarray]) -> None:
        """Check ``values`` (float64, owned by this sample), then store them with ``codes()``.

        ``codes`` returns the ``intp`` cluster codes of the values, numbered in
        order of first appearance; it runs only once the values pass, so a bad
        value is reported before a bad label.
        """
        if values.ndim != 1:
            raise DomainError(f"values must be a 1-d sequence, got shape {values.shape}")
        if not values.size:
            raise DomainError("sample must be nonempty")
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(values[np.argmin(finite)])
            raise DomainError(f"observation values must be finite, got {bad}")
        codes = codes()
        for array in (values, codes):
            array.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cluster_ids", codes)
        object.__setattr__(self, "_spec", ClusterSpec(np.bincount(codes).tolist()))
        object.__setattr__(self, "_ecdf", StepCdf.empirical(values))
        object.__setattr__(self, "_parts", None)

    @classmethod
    def _built(cls, values: np.ndarray, codes: Callable[[], np.ndarray]) -> "ClusteredSample":
        sample = object.__new__(cls)
        sample._build(values, codes)
        return sample

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, Hashable]]) -> "ClusteredSample":
        """Sample from ``(value, label)`` pairs; the labels go straight into the dict pass.

        Each entry is unpacked as exactly two items, and its value is
        ``entry[0]``.  An entry that is not a pair, or whose value is not a
        real number, is named by its index: the value pass reads the pairs
        through its own iterator, which stops just past the entry that failed,
        and a failed label pass rescans them in order.  A ``None`` value, which
        ``np.fromiter`` reads as nan, is looked for only once the finiteness
        check has failed.
        """
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        rest = iter(pairs)
        try:
            values = np.fromiter(map(itemgetter(0), rest), dtype=np.float64, count=len(pairs))
        except (TypeError, ValueError, LookupError):
            raise _pair_error(pairs, _taken(pairs, rest)) from None
        try:
            return cls._built(values, lambda: _pair_codes(pairs))
        except DomainError:
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size and pairs[bad[0]][0] is None:
                raise _pair_error(pairs, int(bad[0])) from None
            raise

    @classmethod
    def iid(cls, values: Iterable[float]) -> "ClusteredSample":
        """Each observation its own cluster (effective sample size = n).

        The codes, sizes and ECDF equal those of ``cluster_ids=range(n)``.
        """
        read = np.array if isinstance(values, np.ndarray) else np.fromiter
        values = _float64(values, read=read)
        return cls._built(values, lambda: np.arange(values.size, dtype=np.intp))

    def __reduce__(self):
        # a copy is built and checked like the original, from a copy of the codes, with
        # read-only arrays and no kept comparison (whose weak reference would not pickle)
        return type(self)._built, (self.values, self.cluster_ids.copy)

    @property
    def n(self) -> int:
        return self.values.size

    def cluster_spec(self) -> ClusterSpec:
        return self._spec


@dataclass(frozen=True, eq=False)
class StepCdf:
    """Right-continuous step function: value ``values[i]`` at and after ``jump_points[i]``.

    The value before the first jump is 0 and the last value must be 1.
    Both arrays are stored as read-only copies, so the caller's arrays can
    change later without changing this CDF.  A copy or a pickle is built
    and checked from the two arrays like a new CDF.
    """

    jump_points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        jumps = _float64(self.jump_points, "jump points")
        vals = _float64(self.values, "step values", np.asarray)
        # values of another rank go to the shape check unpadded
        self._store(jumps, np.concatenate(([0.0], vals)) if vals.ndim == 1 else vals)

    def _store(self, jumps: np.ndarray, padded: np.ndarray) -> None:
        """Check the jumps and the heights behind ``padded``'s leading 0, then keep both.

        ``jumps`` and ``padded`` become this CDF's own arrays, read-only; the
        heights are stored once, as a view behind the leading 0.
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
        for array in (jumps, padded):
            array.setflags(write=False)
        object.__setattr__(self, "jump_points", jumps)
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "values", padded[1:])

    @classmethod
    def empirical(cls, values: np.ndarray) -> "StepCdf":
        """Empirical CDF of ``values`` (flattened): jump (tie count)/n at each distinct value.

        The jumps and heights are those of ``np.unique(values,
        return_counts=True)`` and the cumulated counts over n, bit for bit,
        built without its temporaries.  One flattened copy is sorted in place
        with the same default sort, so a run of equal keys such as -0.0 and
        0.0 keeps the same first element as its jump point.  The height at a
        run is the start of the next run (n after the last), written into the
        array the CDF keeps and divided by n there.  Without ties the sorted
        copy is the jump array itself.  Both are stored read-only.
        """
        ordered = np.array(values, dtype=float, order="C").reshape(-1)
        ordered.sort()
        n = ordered.size
        starts = np.empty(n, dtype=bool)  # True where a value differs from the one before
        starts[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        starts = np.flatnonzero(starts)
        jumps = ordered if starts.size == n else ordered[starts]
        padded = np.empty(starts.size + 1)
        padded[0] = 0.0
        padded[1:-1] = starts[1:]
        padded[-1] = n
        padded[1:] /= n
        del starts, ordered  # freed before the checks in _store allocate
        cdf = object.__new__(cls)
        cdf._store(jumps, padded)
        return cdf

    def __reduce__(self):
        # a copy is built and checked like the original, its heights a view again
        return type(self), (self.jump_points, self.values)

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
    if side is TailSide.TWO_SIDED:
        return max(plus, minus)
    return plus if side is TailSide.PLUS else minus


# points per chunk when a long array is walked in bounded pieces: G's jumps in
# the two-sample statistic, a scalar-only reference CDF's points, or a panel's moves
_REFERENCE_CHUNK = 2**14


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

    G's jumps are taken in chunks of ``_REFERENCE_CHUNK``, so no temporary is
    longer than one chunk.  One binary search per chunk places its jumps among
    F's; it gives the rank of F at each y_j, and the left-limit rank is that
    rank minus one wherever F also jumps at y_j.  That search covers only
    F's jumps above the chunk's first y_j and at or below its last, a view
    found by two scalar searches (maybe empty), and the count of F's jumps
    at or below the first y_j is added to each rank.

    Nothing is kept between calls: each call searches afresh.  A two-sample
    test on :class:`ClusteredSample` objects keeps the parts on the sample.

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
    _two_sided(side)
    return _pick_side(side, *_two_sample_parts(f, g))


def _two_sample_parts(f: StepCdf, g: StepCdf) -> tuple[float, float]:
    """The positive and negative parts of sup (F - G), each floored at 0, as ``(plus, minus)``."""
    low, high = np.inf, -np.inf
    fj = f.jump_points
    g_before = g._padded[:-1]  # G just before each of its jumps
    for start in range(0, g.jump_points.size, _REFERENCE_CHUNK):
        chunk = slice(start, start + _REFERENCE_CHUNK)
        ys = g.jump_points[chunk]
        # every rank in this chunk lies between those of its first and last jump,
        # so only F's jumps in that window (a view, maybe empty) are searched
        lo = fj.searchsorted(ys[0], "right")
        hi = fj.searchsorted(ys[-1], "right")
        ranks = fj[lo:hi].searchsorted(ys, "right")
        ranks += lo
        low = min(low, float(np.min(f._padded[ranks] - g.values[chunk])))
        # F's last jump at or below y_j decides the left-limit rank; a rank of 0
        # reads F's last jump, which cannot equal a G jump below F's first
        ranks -= fj[ranks - 1] == ys
        high = max(high, float(np.max(f._padded[ranks] - g_before[chunk])))
    # a zero minimum gives -0.0 here, as the maximum of -(F - G) would
    return max(high, 0.0), max(-low, 0.0)


def _sample_distance(sample_f: ClusteredSample, sample_g: ClusteredSample, side: TailSide) -> float:
    """``sup_distance_two_sample`` of the two samples' ECDFs, searched once per pair.

    ``sample_g`` keeps the parts of its last comparison beside a weak
    reference to the ``sample_f`` it was made with, and a call with that same
    ``sample_f`` picks its side from them.  Samples are immutable, so the
    parts stay exact; the weak reference keeps no sample alive, and makes no
    cycle when a sample is compared with itself.
    """
    _two_sided(side)
    last = sample_g._parts
    if last is None or last[0]() is not sample_f:
        last = (weakref.ref(sample_f), _two_sample_parts(sample_f._ecdf, sample_g._ecdf))
        object.__setattr__(sample_g, "_parts", last)
    return _pick_side(side, *last[1])


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


def sup_distance_reference(f: StepCdf, ref_cdf: Callable, side: TailSide) -> float:
    """Exact sup of the deviation of a step CDF from a continuous reference CDF.

    Positive part: max over jumps x of F(x) - ref(x).  Negative part: max over
    jumps of ref(x) - F(x-), approached as r increases into each jump.  Both
    floored at 0.  F's jumps are the only candidates, and F(x) and F(x-) there
    are the stored heights, so F is never searched.

    The reference values are checked and compared with F in chunks of
    ``_REFERENCE_CHUNK``, so no temporary is longer than one chunk.  A value
    outside [0, 1] anywhere is reported before a drop anywhere.
    """
    _two_sided(side)
    ref = _reference_values(ref_cdf, f.jump_points)
    plus = minus = -np.inf
    dropped = False
    for start in range(0, ref.size, _REFERENCE_CHUNK):
        chunk = slice(start, start + _REFERENCE_CHUNK)
        if not np.all((ref[chunk] >= -1e-9) & (ref[chunk] <= 1.0 + 1e-9)):  # also rejects NaN
            raise DomainError("reference CDF values must lie in [0, 1]")
        # the steps into this chunk start at the last value of the one before,
        # which has passed the range check
        steps = np.diff(ref[max(start - 1, 0) : chunk.stop])
        dropped = dropped or bool(np.any(steps < -1e-12))
        plus = max(plus, float(np.max(f.values[chunk] - ref[chunk])))
        minus = max(minus, float(np.max(ref[chunk] - f._padded[:-1][chunk])))
    if dropped:
        raise DomainError("reference CDF must be nondecreasing")
    return _pick_side(side, max(plus, 0.0), max(minus, 0.0))


@dataclass(frozen=True, eq=False)
class TrajectoryPanel:
    """Per-unit [0,1]-valued trajectories sampled on a shared time grid in [0,1].

    The data must be consistent with the declared Lipschitz constant: every
    consecutive move satisfies |dv| <= k_lip * dt + 1e-9.  A violation names
    the first worst move, in unit-then-step order.  The check walks the units
    in chunks of about ``_REFERENCE_CHUNK`` moves through one reused buffer,
    so it makes no temporary the size of the panel.
    """

    times: np.ndarray
    unit_values: np.ndarray
    k_lip: float

    def __post_init__(self) -> None:
        times = _float64(self.times, "times", np.asarray, DataFormatError)
        vals = np.atleast_2d(_float64(self.unit_values, "unit values", np.asarray, DataFormatError))
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
        if not vals.shape[0]:
            raise DataFormatError("a panel needs at least one unit")
        # min and max carry a nan through, and Python comparisons never warn
        if not (float(vals.min()) >= -1e-12 and float(vals.max()) <= 1.0 + 1e-12):
            raise DataFormatError("trajectory values must lie in [0, 1]")
        object.__setattr__(self, "k_lip", _check_k_lip(self.k_lip, DataFormatError))
        self._check_consistency()

    def _check_consistency(self) -> None:
        if self.times.size < 2:
            return
        vals = self.unit_values
        dt = np.diff(self.times)
        budget = self.k_lip * dt + 1e-9
        rows = max(1, _REFERENCE_CHUNK // dt.size)
        buffer = np.empty((min(rows, vals.shape[0]), dt.size))
        worst, unit, step = 0.0, -1, -1
        for start in range(0, vals.shape[0], rows):
            chunk = vals[start : start + rows]
            excess = buffer[: chunk.shape[0]]
            np.subtract(chunk[:, 1:], chunk[:, :-1], out=excess)
            np.abs(excess, out=excess)
            excess -= budget
            at = int(np.argmax(excess))
            # strictly greater: an earlier chunk keeps a tie, as one argmax would
            if excess.flat[at] > worst:
                worst = excess.flat[at]
                unit, step = divmod(start * dt.size + at, dt.size)
        if unit >= 0:
            # Python floats: a subnormal dt gives an infinite slope, not a numpy overflow warning
            slope = abs(float(vals[unit, step + 1]) - float(vals[unit, step])) / float(dt[step])
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


def _effective_mesh(panel: TrajectoryPanel) -> float:
    """Worst gap controlling the sup over [0,1]: interior spacings, doubled end gaps.

    On an interior gap the difference curve, being 2K-Lipschitz with known
    values at both ends, can rise at most K * gap above the grid (peak at the
    midpoint).  Past an end point only one value is known, so the curve can
    rise 2K * gap; folding the factor 2 into the gap keeps a single formula.
    """
    times = panel.times
    return max(2.0 * float(times[0]), 2.0 * float(1.0 - times[-1]), panel.delta)


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
    upper = lower + panel_f.k_lip * _effective_mesh(panel_f)
    return lower, upper
