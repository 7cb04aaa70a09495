"""Command-line front end: CSV ingestion, tests, bound tables, simulations.

The public surface is :func:`main` (``main(argv) -> exit code``, the
``bvconc`` and ``python -m bvconc`` entry point) and the two readers
:func:`ingest_clustered_csv` and :func:`ingest_trajectory_csv`.  Commands map
one-to-one onto the library API::

    bound eval          tail bound at one or more thresholds
    bound critical      critical statistic values for alpha levels
    kstest one-sample   clustered sample against a reference CDF
    kstest two-sample   two clustered samples against each other
    kstest lipschitz    two trajectory panels against each other
    simulate grid       binomial-grid conjecture refutation sweep
    simulate coverage   iid uniform coverage validation
    simulate sharpness  fixed-n lower-bound construction

The argparse parser is the only command table: each command's subparser
names its handler, which reads the parsed options and returns the payload.

The two-file commands (``kstest two-sample`` and ``kstest lipschitz``) read
both files at once where ``os.fork`` exists: a forked child reads ``--g``
while this process reads ``--f``, and the results, messages and exit codes
are those of reading them in order, ``--f``'s fault first.

Results go to stdout (or ``--out``); every diagnostic goes to stderr.  Exit
codes: 0 success, 2 domain or validation error, 1 I/O error.  JSON output
uses shortest round-trip float formatting, so re-parsing reproduces every
number bit-for-bit; repeated seeded simulation runs are byte-identical.

Input CSV schemas (exact headers):

* clustered sample: ``value,cluster`` — one observation per row; a
  single-column ``value`` file is accepted and degrades to iid (each row its
  own cluster) with a notice on stderr.
* trajectory panel: ``time,unit_1,...,unit_n`` — times strictly increasing
  within [0, 1], values within [0, 1].

Both share the dialect ``csv.reader`` reads by default: UTF-8, comma-separated,
``"`` quoting (quoted cells may hold commas, line breaks and ``""``); blank
lines are skipped; every cell is stripped; no cell is longer than
``csv.field_size_limit()``; numbers use Python ``float()`` grammar and must be
finite; cluster labels may not be empty.  Errors name
the first bad row (and column), counting non-blank records with the header
as row 1.  Two readers implement this dialect.  The fast one takes the header
as the first ``csv.reader`` record and has numpy's C reader parse the rest
straight into float64.  The reference reads every row with ``csv.reader`` and
``float(cell.strip())``; it runs only when the fast one cannot read the whole
file, and it either returns the same arrays or names the first fault.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import pickle
import signal
import stat
import sys
import warnings
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

from .bounds import (
    BoundParams,
    TailSide,
    critical_statistic,
    denominator,
    one_sided_shift,
    tail_bound,
    tail_bound_raw,
)
from .empirical import ClusteredSample, TrajectoryPanel, _label_codes
from .errors import BvconcError, DataFormatError, DomainError
from .kstests import (
    DEFAULT_ALPHAS,
    KsOutcome,
    _validate_alphas,
    lipschitz_two_sample,
    one_sample_clustered,
    two_sample_clustered,
)
from .montecarlo import (
    conjecture_refutation_experiment,
    iid_coverage,
    sharpness_experiment,
)

__all__ = [
    "ingest_clustered_csv",
    "ingest_trajectory_csv",
    "main",
]

DEFAULT_COVERAGE_EPS = (0.25, 0.5, 1.0, 1.5, 2.0)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _parse_finite(token: str, path: str, row: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataFormatError(
            f"{path}: row {row}, column {col}: cannot parse {token!r} as a finite number"
        )
    return value


HeaderCheck = Callable[[str, list[str]], int]


def _clustered_header(path: str, header: list[str]) -> int:
    """Check a ``value,cluster`` or ``value`` header; one leading numeric column."""
    if header not in (["value", "cluster"], ["value"]):
        raise DataFormatError(
            f"{path}: row 1: expected header 'value,cluster' or 'value', got {','.join(header)!r}"
        )
    return 1


def _panel_header(path: str, header: list[str]) -> int:
    """Check a ``time,unit_1,...,unit_n`` header; every column is numeric."""
    if len(header) < 2 or header[0] != "time" or any(not h for h in header[1:]):
        raise DataFormatError(
            f"{path}: row 1: expected header 'time,unit_1,...,unit_n', got {','.join(header)!r}"
        )
    return len(header)


def _records(path: str, fh: TextIO) -> Iterator[list[str]]:
    """The non-blank ``csv.reader`` records of ``fh``; one it cannot read is a DataFormatError."""
    row_no = 0
    try:
        for row_no, row in enumerate(filter(None, csv.reader(fh)), start=1):
            yield row
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise DataFormatError(f"{path}: row {row_no + 1}: {exc}") from exc
    except UnicodeDecodeError as exc:  # decoded a chunk ahead of the rows, so no row is named
        bad = exc.object[exc.start]
        raise DataFormatError(f"{path}: not UTF-8 text: {exc.reason} (byte 0x{bad:02x})") from exc


# bytes of each block that the long-cell check reads first; rows are rarely longer
_LONG_CELL_PROBE = 1 << 13


def _may_hold_long_cell(path: str, fh: TextIO) -> bool:
    """Whether ``path``, open as ``fh``, may hold a cell longer than ``csv.field_size_limit()``.

    Such a cell, unquoted or quoted on one line, lies in a run of more bytes
    than the limit with no line feed; a number quoted across lines lies in one
    with no comma and no quote.  Either run covers a whole aligned block of
    half the limit plus one bytes, so a block whose first
    ``_LONG_CELL_PROBE`` bytes hold a line feed and a comma is cleared; any
    other is read whole, and one with no comma and no quote counts only if
    the file holds a quote.  The blocks are read through a second handle: a
    memory map would add the whole file to the resident set.  A file that is
    not regular (a pipe) cannot be read twice and is not checked.
    """
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return False
    block = csv.field_size_limit() // 2 + 1
    with open(path, "rb", buffering=0) as raw:

        def read(start: int, size: int) -> bytes:
            raw.seek(start)
            return raw.read(size)

        size = os.fstat(raw.fileno()).st_size
        quoted = None
        for start in range(0, size - block + 1, block):
            head = read(start, _LONG_CELL_PROBE)
            if b"\n" in head and b"," in head:
                continue
            data = read(start, block)
            if b"\n" not in data:
                return True
            if b"," not in data and b'"' not in data:
                if quoted is None:
                    quoted = any(b'"' in read(at, block) for at in range(0, size, block))
                if quoted:
                    return True
    return False


def _read_reference(path: str, check_header: HeaderCheck) -> tuple[list[str], np.ndarray, list[str]]:
    """Read ``path`` row by row with ``csv.reader``; the reference the array reader must match.

    Returns the stripped header, the numeric cells as a 2-d float64 array
    parsed by ``float(cell.strip())``, and the stripped labels of the columns
    after them (``check_header`` returns how many leading columns are
    numeric).  Raises on the first bad row or cell, in file order.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(_records(path, fh))
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    numeric = check_header(path, header)
    if len(rows) == 1:
        raise DataFormatError(f"{path}: no data rows")
    numbers: list[list[float]] = []
    labels: list[str] = []
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {row_no}: expected {len(header)} columns, got {len(row)}"
            )
        cells = enumerate(row[:numeric], start=1)
        numbers.append([_parse_finite(cell.strip(), path, row_no, col) for col, cell in cells])
        for col, cell in enumerate(row[numeric:], start=numeric + 1):
            label = cell.strip()
            if not label:
                raise DataFormatError(f"{path}: row {row_no}, column {col}: empty cluster label")
            labels.append(label)
    return header, np.array(numbers, dtype=np.float64), labels


def _read_table(path: str, check_header: HeaderCheck) -> tuple[list[str], np.ndarray, list[str]]:
    """The stripped header of ``path``, its numeric cells as a 2-d float64 array, and its labels.

    The header is the first non-blank ``csv.reader`` record; numpy's C reader
    parses the rest of the same handle straight into float64 (a ``value``
    float and a ``cluster`` str per row when the file has a label column).
    Its float grammar is a subset of ``float(cell.strip())`` and correctly
    rounded, so every number it reads has the reference's bits.  Anything it
    cannot read whole (a ragged row, a cell outside its grammar, a non-finite
    number, an empty label, a cell over ``csv.field_size_limit()``, no data
    rows) is re-read by :func:`_read_reference`, which returns the table or
    names the first fault; a file that :func:`_may_hold_long_cell` goes there
    unread.  The file is opened with ``newline=""`` so line
    ends inside quoted cells stay verbatim.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(_records(path, fh), None)
        if header is None:  # an empty file, which the reference reports
            return _read_reference(path, check_header)
        header = [cell.strip() for cell in header]
        numeric = check_header(path, header)
        if _may_hold_long_cell(path, fh):  # loadtxt has no field size limit; the reference reports one
            return _read_reference(path, check_header)
        labelled = numeric < len(header)  # the one labelled layout is value,cluster
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                body = np.loadtxt(
                    fh,
                    dtype=[("value", "f8"), ("cluster", object)] if labelled else np.float64,
                    delimiter=",",
                    quotechar='"',
                    comments=None,
                    ndmin=1 if labelled else 2,
                )
        except ValueError:
            body = None
    if body is None or not body.size:
        return _read_reference(path, check_header)
    if labelled:
        numbers = body["value"][:, np.newaxis]
        cells = body["cluster"].tolist()
        # loadtxt has no field size limit; the reference reports a label over csv's
        if max(map(len, cells)) > csv.field_size_limit():
            return _read_reference(path, check_header)
        labels = list(map(str.strip, cells))
    else:
        numbers, labels = body, []
    if numbers.shape[1] != numeric or not np.isfinite(numbers).all() or "" in labels:
        return _read_reference(path, check_header)
    return header, numbers, labels


def _clustered_arrays(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The values of a clustered CSV and its labels' first-appearance codes (``None`` if iid)."""
    header, numbers, labels = _read_table(path, _clustered_header)
    values = numbers[:, 0].copy()
    if len(header) == 1:
        return values, None
    return values, _label_codes(labels, values.size)


def _clustered_sample(
    path: str, arrays: tuple[np.ndarray, np.ndarray | None]
) -> tuple[ClusteredSample, tuple[str, ...]]:
    """The sample built from :func:`_clustered_arrays`, with no second dict pass, and its notes."""
    values, codes = arrays
    notes = ()
    if codes is None:
        notes = (f"{path}: no cluster column; treating each observation as its own cluster (iid)",)
    return ClusteredSample._built(values, None, codes), notes


def _ingest_clustered(path: str) -> tuple[ClusteredSample, tuple[str, ...]]:
    return _clustered_sample(path, _clustered_arrays(path))


def _with_notes(
    loaded: Sequence[tuple[ClusteredSample, tuple[str, ...]]],
) -> tuple[list[ClusteredSample], tuple[str, ...]]:
    """The ingested samples and all their notes, which go to stderr once, in file order."""
    notes = tuple(note for _, file_notes in loaded for note in file_notes)
    for note in notes:
        print(note, file=sys.stderr)
    return [sample for sample, _ in loaded], notes


def ingest_clustered_csv(path: str) -> ClusteredSample:
    """Load a ``value,cluster`` CSV; single-column files degrade to iid with a stderr notice."""
    (sample,), _ = _with_notes([_ingest_clustered(path)])
    return sample


def _panel_matrix(path: str) -> np.ndarray:
    """The numeric cells of a trajectory CSV, one row per time, as a C-ordered 2-d array."""
    return _read_table(path, _panel_header)[1]


def _panel(path: str, matrix: np.ndarray, k_lip: float) -> TrajectoryPanel:
    """The consistency-checked panel over a :func:`_panel_matrix`; its errors name ``path``."""
    try:
        return TrajectoryPanel(times=matrix[:, 0], unit_values=matrix[:, 1:].T, k_lip=k_lip)
    except DataFormatError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def ingest_trajectory_csv(path: str, k_lip: float) -> TrajectoryPanel:
    """Load a ``time,unit_1,...,unit_n`` CSV into a consistency-checked panel."""
    return _panel(path, _panel_matrix(path), k_lip)


Loaded = TypeVar("Loaded")
Built = TypeVar("Built")


def _send_loaded(load: Callable[[str], object], path: str, read_fd: int, write_fd: int) -> None:
    """In a forked child: pickle ``load(path)``, or the typed error it raised, to ``write_fd``.

    It writes nothing else anywhere and never returns: it ends in
    ``os._exit``, with no atexit handler or buffer flush, and with status 1
    and no complete result on any other failure.
    """
    code = 1
    try:
        os.close(read_fd)
        sys.stdout = sys.stderr = None  # print() and warnings then write nothing
        try:
            result = (load(path), None)
        except (BvconcError, OSError) as exc:
            result = (None, exc)
        with open(write_fd, "wb") as pipe:
            pickle.dump(result, pipe, protocol=5)
        code = 0
    finally:
        os._exit(code)


def _load_both(
    load: Callable[[str], Loaded], build: Callable[[str, Loaded], Built], f: str, g: str
) -> tuple[Built, Built]:
    """``build(path, load(path))`` for ``f``, then for ``g``, with ``g`` loaded at the same time.

    A forked child runs ``load(g)`` while this process loads and builds ``f``,
    and sends back through one pipe only what ``load`` returns (numpy arrays)
    or the typed error it raised, pickled with protocol 5; ``g`` is built
    here, from the same arrays the serial order would give.  ``f``'s whole
    pipeline finishes before anything from ``g`` is raised, so errors come in
    file order.  If the child ends without a result, ``g`` is loaded here.
    This process always reaps the child, killing it first if its own work
    fails or is interrupted.  Where ``os.fork`` does not exist, or no process
    can be started, the two run in order.
    """
    pid = -1
    if hasattr(os, "fork"):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(read_fd)
            os.close(write_fd)
    if pid < 0:
        return build(f, load(f)), build(g, load(g))
    if pid == 0:
        _send_loaded(load, g, read_fd, write_fd)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            built_f = build(f, load(f))
            try:
                loaded, error = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the child ended without a result
                loaded, error = load(g), None
        if error is not None:
            raise error
        return built_f, build(g, loaded)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Command handlers: each takes the parsed options and returns the payload
# ---------------------------------------------------------------------------


def _alpha_map(critical: dict) -> dict:
    return {repr(float(a)): v for a, v in sorted(critical.items())}


def _ks_payload(outcome: KsOutcome, **extra) -> dict:
    return {
        "statistic": outcome.statistic,
        "side": outcome.side.value,
        "p_upper": outcome.p_upper,
        "p_upper_raw": outcome.p_upper_raw,
        "critical": _alpha_map(dict(outcome.critical_at)),
        "conservative": outcome.conservative,
        "notes": list(outcome.notes),
        **extra,
    }


def _make_ref(ns: argparse.Namespace) -> Callable:
    if ns.ref == "uniform":
        return lambda r: np.clip(r, 0.0, 1.0)
    loc, scale = ns.ref_loc, ns.ref_scale
    if not math.isfinite(loc):
        raise DomainError(f"--ref-loc must be finite, got {loc}")
    if not (math.isfinite(scale) and scale > 0):
        raise DomainError(f"--ref-scale must be positive, got {scale}")
    root2 = math.sqrt(2.0)
    return lambda r: 0.5 * (1.0 + math.erf((r - loc) / (scale * root2)))


def _run_bound_eval(ns: argparse.Namespace) -> dict:
    params = BoundParams(c=ns.c, d=ns.d)
    x = params.product
    results = [
        {
            "eps": eps,
            "p_upper": tail_bound(params, ns.side, eps),
            "p_upper_raw": tail_bound_raw(params, ns.side, eps),
        }
        for eps in ns.eps
    ]
    payload = {
        "c": params.c,
        "d": params.d,
        "x": x,
        "side": ns.side.value,
        "denominator": denominator(x),
        "shift": one_sided_shift(x),
        "results": results,
    }
    if len(results) == 1:
        payload.update(results[0])
    return payload


def _run_critical(ns: argparse.Namespace) -> dict:
    params = BoundParams(c=ns.c, d=ns.d)
    critical = {a: critical_statistic(params, ns.side, a) for a in ns.alpha}
    return {
        "c": params.c,
        "d": params.d,
        "x": params.product,
        "side": ns.side.value,
        "critical": _alpha_map(critical),
    }


def _run_ks_one_sample(ns: argparse.Namespace) -> dict:
    # built before the file is read, so a bad --ref-loc or --ref-scale is reported first
    ref = _make_ref(ns)
    (sample,), notes = _with_notes([_ingest_clustered(ns.data)])
    outcome = one_sample_clustered(sample, ref, ns.side, ns.alpha, notes=notes)
    spec = sample.cluster_spec()
    return _ks_payload(
        outcome,
        nu=spec.nu_n,
        c=outcome.params.c,
        d=outcome.params.d,
        n=sample.n,
        clusters=spec.k,
    )


def _run_ks_two_sample(ns: argparse.Namespace) -> dict:
    (sample_f, sample_g), notes = _with_notes(_load_both(_clustered_arrays, _clustered_sample, ns.f, ns.g))
    outcome = two_sample_clustered(sample_f, sample_g, ns.side, ns.alpha, notes=notes)
    return _ks_payload(
        outcome,
        nu=outcome.params[0].c,
        xi=outcome.params[1].c,
        n_f=sample_f.n,
        n_g=sample_g.n,
    )


def _run_lipschitz(ns: argparse.Namespace) -> dict:
    panel_f, panel_g = _load_both(_panel_matrix, partial(_panel, k_lip=ns.k_lip), ns.f, ns.g)
    outcome = lipschitz_two_sample(panel_f, panel_g, ns.alpha, exhaustive_grid=ns.grid_exhaustive)
    return _ks_payload(
        outcome,
        c=outcome.params.c,
        d=outcome.params.d,
        x=outcome.params.product,
        n_units=panel_f.n_units,
        k_lip=panel_f.k_lip,
        interval=list(outcome.interval),
    )


def _run_simulate_grid(ns: argparse.Namespace) -> dict:
    return conjecture_refutation_experiment(ns.n, ns.m, ns.eps, ns.trials, ns.seed).to_dict()


def _run_simulate_coverage(ns: argparse.Namespace) -> dict:
    return iid_coverage(ns.n, ns.trials, ns.seed, ns.eps, ns.side).to_dict()


def _run_simulate_sharpness(ns: argparse.Namespace) -> dict:
    return sharpness_experiment(ns.n, ns.l_target, ns.trials, ns.seed).to_dict()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _render_csv(payload: dict) -> str:
    lines: list[str] = []
    if "rows" in payload:  # simulation report
        columns = ("eps", "empirical", "bound", "stderr", "violation", "label", "m", "exact")
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(r[k]) for k in columns) for r in payload["rows"])
    elif "results" in payload:  # bound curve
        lines.append("eps,bound")
        for r in payload["results"]:
            lines.append(f"{_fmt(r['eps'])},{_fmt(r['p_upper'])}")
    else:  # critical table / test outcome
        lines.append("alpha,critical")
        for alpha, value in payload["critical"].items():
            lines.append(f"{alpha},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def _render_table(payload: dict) -> str:
    lines = [f"{payload['command']}"]
    for key in sorted(payload):
        if key in ("command", "rows", "results", "critical", "notes", "config", "info"):
            continue
        lines.append(f"  {key:<14} {_fmt(payload[key])}")
    if "critical" in payload:
        lines.append("  critical:")
        for alpha, value in payload["critical"].items():
            lines.append(f"    alpha={alpha:<8} statistic={_fmt(value)}")
    if "results" in payload:
        lines.append("  eps        p_upper      p_upper_raw")
        for r in payload["results"]:
            lines.append(
                f"  {r['eps']:<10.6g} {r['p_upper']:<12.6g} {r['p_upper_raw']:<12.6g}"
            )
    if "rows" in payload:
        lines.append("  label        eps        empirical  bound      stderr     violation")
        for r in payload["rows"]:
            lines.append(
                f"  {r['label']:<12} {r['eps']:<10.6g} {r['empirical']:<10.6g} "
                f"{r['bound']:<10.6g} {r['stderr']:<10.6g} {_fmt(r['violation'])}"
            )
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": _render_json, "csv": _render_csv, "table": _render_table}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=list(_RENDERERS), default="json")
    parser.add_argument("--out", default=None, metavar="PATH")


def _add_side(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--side", choices=["two", "plus", "minus"], default="two")


def _add_alpha(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha",
        type=float,
        nargs="+",
        default=list(DEFAULT_ALPHAS),
        help="significance levels (default: 0.01 0.05 0.1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvconc",
        description="Concentration bounds and KS-like tests for randomized functions of bounded variation",
    )
    top = parser.add_subparsers(dest="group", required=True)

    bound = top.add_parser("bound", help="evaluate or invert tail bounds")
    bound_sub = bound.add_subparsers(dest="subcommand", required=True)
    for name in ("eval", "critical"):
        p = bound_sub.add_parser(name)
        p.add_argument("--c", type=float, required=True, help="McDiarmid coefficient")
        p.add_argument("--d", type=float, required=True, help="downward-variation coefficient")
        _add_side(p)
        if name == "eval":
            p.add_argument("--eps", type=float, nargs="+", required=True)
            p.set_defaults(handler=_run_bound_eval)
        else:
            _add_alpha(p)
            p.set_defaults(handler=_run_critical)
        _add_common(p)

    kstest = top.add_parser("kstest", help="hypothesis tests on data files")
    ks_sub = kstest.add_subparsers(dest="subcommand", required=True)

    one = ks_sub.add_parser("one-sample")
    one.add_argument("--data", required=True, metavar="CSV")
    one.add_argument("--ref", choices=["uniform", "normal"], default="uniform")
    one.add_argument("--ref-loc", type=float, default=0.0)
    one.add_argument("--ref-scale", type=float, default=1.0)
    _add_side(one)
    _add_alpha(one)
    _add_common(one)
    one.set_defaults(handler=_run_ks_one_sample)

    two = ks_sub.add_parser("two-sample")
    two.add_argument("--f", required=True, metavar="CSV")
    two.add_argument("--g", required=True, metavar="CSV")
    _add_side(two)
    _add_alpha(two)
    _add_common(two)
    two.set_defaults(handler=_run_ks_two_sample)

    lip = ks_sub.add_parser("lipschitz")
    lip.add_argument("--f", required=True, metavar="CSV")
    lip.add_argument("--g", required=True, metavar="CSV")
    lip.add_argument("--k-lip", type=float, required=True, dest="k_lip")
    lip.add_argument("--grid-exhaustive", action="store_true")
    _add_alpha(lip)
    _add_common(lip)
    lip.set_defaults(handler=_run_lipschitz)

    sim = top.add_parser("simulate", help="Monte Carlo validation harnesses")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)

    grid = sim_sub.add_parser("grid")
    grid.add_argument("--n", type=int, required=True)
    grid.add_argument("--m", type=int, nargs="+", required=True)
    grid.add_argument("--eps", type=float, required=True)
    grid.add_argument("--trials", type=int, required=True)
    grid.add_argument("--seed", type=int, default=0)
    _add_common(grid)
    grid.set_defaults(handler=_run_simulate_grid)

    cov = sim_sub.add_parser("coverage")
    cov.add_argument("--n", type=int, required=True)
    cov.add_argument("--trials", type=int, required=True)
    cov.add_argument("--seed", type=int, default=0)
    cov.add_argument("--eps", type=float, nargs="+", default=list(DEFAULT_COVERAGE_EPS))
    _add_side(cov)
    _add_common(cov)
    cov.set_defaults(handler=_run_simulate_coverage)

    sharp = sim_sub.add_parser("sharpness")
    sharp.add_argument("--n", type=int, required=True)
    sharp.add_argument("--l-target", type=float, required=True, dest="l_target")
    sharp.add_argument("--trials", type=int, required=True)
    sharp.add_argument("--seed", type=int, default=0)
    _add_common(sharp)
    sharp.set_defaults(handler=_run_simulate_sharpness)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one ``bvconc`` command line, write its result, and return the exit code."""
    try:
        ns = build_parser().parse_args(argv)
        if "side" in ns:
            ns.side = TailSide(ns.side)
        if "alpha" in ns:
            # checked before any handler reads a file, so a bad level is reported first
            ns.alpha = _validate_alphas(sorted(ns.alpha))
        payload = {"command": f"{ns.group}-{ns.subcommand}", **ns.handler(ns)}
        text = _RENDERERS[ns.format](payload)
        if ns.out:
            Path(ns.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    except BvconcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
