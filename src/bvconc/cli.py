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

``_COMMANDS`` is the only command table: each command names its handler,
which reads the parsed options and returns the payload, and its options in
``--help`` order; an option that several commands take is defined once.
:func:`build_parser` turns the table into the argparse parser, once per
process, on the first :func:`main` call, and every later call reuses it; so
option defaults are shared between calls (the list-valued ones are tuples),
and a handler must not mutate an option value in place.  Ingest notices go
to stderr and into the JSON ``notes``; the library tests never see them.

The two-file commands (``kstest two-sample`` and ``kstest lipschitz``) read
both files at once where ``os.fork`` exists and ``--g`` is a regular file: a
forked child reads ``--g`` while this process reads ``--f``, and the results,
messages and exit codes are those of reading them in order, ``--f``'s fault
first.  A pipe or FIFO ``--g`` is read here, after ``--f``, so it is opened once.

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
straight into float64: a regular file from its path, which numpy reads in
blocks, and anything else from the handle, line by line.  The reference reads
every row with ``csv.reader`` and ``float(cell.strip())``; it runs only when
the fast one cannot vouch for the whole file (a fault, or a name that no
longer leads to the open file), on the open file's bytes from byte 0, and it
either returns the same arrays or names the first fault.  The fast one keeps
no str per row, only one ``intp`` code.  In a regular file whose labels are
all shorter than 8 bytes, numpy keeps each label's raw bytes as an 8-byte
key, and one sort numbers the keys; any other labelled file (a longer label,
a pipe, a name with a compressed suffix) has numpy hand each label to a
first-appearance dict, one Python call per row.  A labelled regular file of
short labels that holds a NUL byte, or bytes that are not UTF-8, goes to the
reference.  An input that is not a regular file (a pipe or a FIFO) is read
into memory once, and both readers take that copy.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import csv
import io
import json
import math
import os
import pickle
import signal
import stat
import sys
import warnings
from functools import cache, partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence, TextIO, TypeVar

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
from .empirical import ClusteredSample, TrajectoryPanel, _label_codes, _label_index
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


def _records(path: str, reader: Iterator[list[str]]) -> Iterator[list[str]]:
    """The non-blank records of a ``csv.reader``; one it cannot read is a DataFormatError."""
    row_no = 0
    try:
        for row_no, row in enumerate(filter(None, reader), start=1):
            yield row
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise DataFormatError(f"{path}: row {row_no + 1}: {exc}") from exc
    except UnicodeDecodeError as exc:  # decoded a chunk ahead of the rows, so no row is named
        bad = exc.object[exc.start]
        raise DataFormatError(f"{path}: not UTF-8 text: {exc.reason} (byte 0x{bad:02x})") from exc


def _text(raw: BinaryIO) -> TextIO:
    """``raw`` read as the dialect's UTF-8 text, line ends inside quoted cells kept verbatim."""
    return io.TextIOWrapper(raw, encoding="utf-8", newline="")


# bytes of a block that a check looks at first; rows are rarely longer
_PROBE = 1 << 13


def _may_hold_long_cell(raw: BinaryIO) -> bool:
    """Whether the file open as ``raw`` may hold a cell longer than ``csv.field_size_limit()``.

    Such a cell, unquoted or quoted on one line, lies in a run of more bytes
    than the limit with no line feed; a number quoted across lines lies in one
    with no comma and no quote.  Either run covers a whole aligned block of
    half the limit plus one bytes, so a block whose first
    ``_PROBE`` bytes hold a line feed and a comma is cleared; any
    other is read whole, and one with no comma and no quote counts only if
    the file holds a quote.  The blocks are read through ``raw``, a binary
    handle that can seek, and its position is put back.  A memory map would
    add the whole file to the resident set.
    """
    position = raw.tell()

    def read(start: int, length: int) -> bytes:
        raw.seek(start)
        return raw.read(length)

    try:
        size = raw.seek(0, io.SEEK_END)
        block = csv.field_size_limit() // 2 + 1
        quoted = None
        for start in range(0, size - block + 1, block):
            head = read(start, _PROBE)
            if b"\n" in head and b"," in head:
                continue
            chunk = read(start, block)
            if b"\n" not in chunk:
                return True
            if b"," not in chunk and b'"' not in chunk:
                if quoted is None:
                    quoted = any(b'"' in read(at, block) for at in range(0, size, block))
                if quoted:
                    return True
        return False
    finally:
        raw.seek(position)


Table = tuple[list[str], np.ndarray, np.ndarray]


def _read_reference(path: str, check_header: HeaderCheck, data: bytes) -> Table:
    """Read ``data``, the content of ``path``, row by row with ``csv.reader``; the reference the array reader must match.

    Returns the stripped header, the numeric cells as a 2-d float64 array
    parsed by ``float(cell.strip())``, and the stripped labels of the columns
    after them (``check_header`` returns how many leading columns are
    numeric) numbered in order of first appearance by
    ``empirical._label_codes``, as ``intp`` codes (none without them).  Raises on
    the first bad row or cell, in file order.  ``path`` only names the file in
    messages: it is never opened.
    """
    with _text(io.BytesIO(data)) as fh:
        rows = list(_records(path, csv.reader(fh)))
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
    return header, np.array(numbers, dtype=np.float64), _label_codes(labels, len(labels))


# names that numpy's loadtxt would decompress by suffix when given as a path
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _names_open_file(name: str, fd: int) -> bool:
    """Whether ``name`` still leads to the file open as ``fd`` (same device and inode)."""
    try:
        return os.path.samestat(os.stat(name), os.fstat(fd))
    except OSError:
        return False


def _read_table(path: str, check_header: HeaderCheck) -> Table:
    """The stripped header of ``path``, its numeric cells as a 2-d float64 array, and its label codes.

    The codes are those :func:`_read_reference` gives: ``intp`` codes
    numbering the stripped labels in order of first appearance, none for a
    file without labels.  ``path`` is opened once, and :func:`_read_array`
    reads it with numpy's C reader.  Wherever that cannot vouch for the
    table, :func:`_read_reference` reads the open file's bytes from byte 0
    and returns the table or names the first fault.  That one fallback also
    takes a regular file whose name, once numpy has opened it by that name,
    no longer leads to the open file (removed, or renamed over): the handle
    is read, never what the name now leads to.  An input that is not a
    regular file (a pipe or a FIFO) can be read only once, so it is read
    into memory first, and both readers take that copy; their messages
    still name ``path``.
    """
    raw = open(path, "rb")
    if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):  # a pipe or FIFO: read it once
        with raw:
            raw = io.BytesIO(raw.read())
    with _text(raw) as fh:
        table = _read_array(path, check_header, fh)
        if table is None:  # numpy cannot vouch for it: the reference reads the same bytes
            raw.seek(0)
            table = _read_reference(path, check_header, raw.read())
    return table


# bytes read at a time by the UTF-8 pass over a file
_SCAN_BLOCK = 1 << 16


def _shows_long_label(raw: BinaryIO) -> bool:
    """Whether a whole line in the first ``_PROBE`` bytes of the file open as ``raw`` ends in 8 or more bytes.

    Its last field, a label unless the line is the header or ragged, is one
    that ``S8`` may cut short.  ``raw`` is a binary handle that can seek,
    and its position is put back.
    """
    position = raw.tell()
    try:
        raw.seek(0)
        lines = raw.read(_PROBE).splitlines()[1:-1]  # the first and last may be cut
    finally:
        raw.seek(position)
    return any(len(line.rpartition(b",")[2]) >= 8 for line in lines)


def _is_utf8_without_nul(raw: BinaryIO) -> bool:
    """Whether the file open as ``raw`` is UTF-8 text with no NUL byte, read in blocks from byte 0.

    ``raw`` is a binary handle that can seek, and its position is put back.
    """
    position = raw.tell()
    decoder = codecs.getincrementaldecoder("utf-8")()
    try:
        raw.seek(0)
        while block := raw.read(_SCAN_BLOCK):
            if b"\0" in block:
                return False
            decoder.decode(block)
        decoder.decode(b"", final=True)
        return True
    except UnicodeDecodeError:
        return False
    finally:
        raw.seek(position)


def _key_codes(cells: np.ndarray) -> tuple[np.ndarray, list[str]] | None:
    """The first-appearance ``intp`` codes of ``S8`` label cells and the distinct labels, or ``None`` if one may be cut short.

    Each cell holds the raw UTF-8 bytes of a label from a file with no NUL
    byte, NUL-padded, so its little-endian ``uint64`` view is one key per
    label.  One argsort orders the keys; the runs of equal sorted keys are
    the distinct labels, the smallest row in each run
    (``np.minimum.reduceat`` over the permutation) is where that label first
    appears, and ranking the runs by it gives the codes.  They are written
    over the cells, so no row array outlives the call.  Only the distinct
    labels are decoded.  A key whose eighth byte is set holds a label of 8
    or more bytes, which numpy may have cut short, so its file is numbered
    otherwise, and the cells are left as they are.
    """
    keys = cells.view("<u8")
    order = np.argsort(keys)
    keys = keys[order]
    if keys[-1] >= np.uint64(1 << 56):  # the largest key has its eighth byte set
        return None
    starts = np.empty(keys.size, bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    runs = np.flatnonzero(starts)
    keys = keys[runs]
    by_appearance = np.argsort(np.minimum.reduceat(order, runs))
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(runs.size)
    codes = cells.view(np.intp)  # the cells were copied into the sorted keys
    codes[order] = np.repeat(rank, np.diff(runs, append=order.size))
    return codes, [label.decode("utf-8") for label in keys[by_appearance].view("S8").tolist()]


def _loadtxt(source: str | TextIO, skiprows: int, dtype, encoding: str, converters=None) -> np.ndarray:
    """The rows after the header, parsed by ``np.loadtxt`` in the dialect; a ``ValueError`` if there are none.

    A structured ``dtype`` gives one record per row, ``np.float64`` a 2-d table.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        body = np.loadtxt(
            source,
            dtype=dtype,
            converters=converters,
            delimiter=",",
            quotechar='"',
            comments=None,
            skiprows=skiprows,
            encoding=encoding,
            ndmin=2 if dtype is np.float64 else 1,
        )
    if not body.size:
        raise ValueError("no data rows")
    return body


def _read_array(path: str, check_header: HeaderCheck, fh: TextIO) -> Table | None:
    """:func:`_read_table`'s table read by numpy from ``fh``, or ``None`` where numpy cannot vouch for it.

    The header is the first non-blank ``csv.reader`` record of ``fh``;
    numpy's C reader parses the rest straight into float64.  When the file
    has a label column it reads a ``value`` float and a ``cluster`` label
    per row, in one of two ways.  A regular file read from its path is
    decoded as latin-1, so each label cell reaches numpy as its raw bytes,
    which it keeps as ``S8``: numpy calls no Python code per row, and
    :func:`_key_codes` numbers the 8-byte keys in order of first
    appearance.  One pass first checks that the file is UTF-8 with no NUL
    byte, which latin-1 and ``S8`` would not catch.  A file with a label of
    8 or more bytes, which ``S8`` may cut short, is read as below instead:
    with no key read or pass when such a label shows in the first lines,
    and again after the key read when one shows among its distinct labels.
    So is any other file (a pipe's in-memory copy or a name with a
    compressed suffix): it is decoded as UTF-8, and numpy hands each label
    cell, unquoted and not stripped, to a first-appearance dict, once per
    row in row order, and keeps only the code.  Either way no str is kept
    per row, the checks below run once per distinct label, and
    when some distinct label is padded, one array remaps the codes to those
    of the stripped labels.  Its float grammar is a subset of
    ``float(cell.strip())`` and correctly rounded, so every number it reads
    has the reference's bits; in a UTF-8 file, a numeric cell that holds a
    non-ASCII character fails it under either decoding.  A regular file
    reaches numpy as its absolute path, which numpy reads in blocks,
    skipping the physical lines the header took; a name numpy would
    decompress by its suffix, and an in-memory copy, reach it as ``fh``,
    one line at a time.  It returns ``None`` for anything it cannot read
    whole (an empty file, a ragged row, a cell outside its grammar, a
    non-finite number, an empty label, a cell over
    ``csv.field_size_limit()``, no data rows, text that is not UTF-8, a NUL
    byte in a file to be read as keys); for a file that
    :func:`_may_hold_long_cell`, unparsed; for a file with a label that
    holds a line break, since numpy opens a path with universal newlines,
    which may have turned a CR LF in a quoted label into a LF; and for a
    regular file whose name no longer leads to ``fh``'s file once numpy has
    read it (removed, or renamed over, so numpy read another file or a
    sibling it decompressed).
    """
    raw = fh.buffer
    reader = csv.reader(fh)
    header = next(_records(path, reader), None)
    if header is None:  # an empty file, which the reference reports
        return None
    header = [cell.strip() for cell in header]
    numeric = check_header(path, header)
    if _may_hold_long_cell(raw):  # loadtxt has no field size limit; the reference reports one
        return None
    name = os.fsdecode(path)
    if isinstance(raw, io.BytesIO) or name.endswith(_COMPRESSED_SUFFIXES):
        source, skiprows = fh, 0
    else:
        # absolute, so numpy never takes it for a URL; not normalized, so ".."
        # after a symlink resolves as open() resolves it
        source = name if os.path.isabs(name) else os.path.join(os.getcwd(), name)
        skiprows = reader.line_num
    labelled = numeric < len(header)  # the one labelled layout is value,cluster
    # a long label in the first lines: the converter read, with no key read first
    keyed = labelled and source is not fh and not _shows_long_label(raw)
    # latin-1 would take bytes the reference rejects, and S8 would drop a NUL
    if keyed and not _is_utf8_without_nul(raw):
        return None
    numbered = None  # the codes, and the distinct labels in order of first appearance
    try:
        if not labelled:
            body, numbered = _loadtxt(source, skiprows, np.float64, "utf-8"), (np.empty(0, np.intp), [])
        elif keyed:
            dtype = [("value", "f8"), ("cluster", "S8")]
            body = _loadtxt(source, skiprows, dtype, "latin-1")
            numbered = _key_codes(body["cluster"])
        if numbered is None:  # labels numbered by the converter, one call per row
            index = _label_index()
            dtype = [("value", "f8"), ("cluster", np.intp)]
            body = _loadtxt(source, skiprows, dtype, "utf-8", {1: index.__getitem__})
            numbered = body["cluster"], list(index)
    except (ValueError, OSError):  # UnicodeDecodeError included; OSError: the name is gone
        return None
    if source is not fh and not _names_open_file(source, raw.fileno()):
        return None
    codes, labels = numbered
    # each distinct label is checked once: one over csv's field limit (loadtxt
    # has none), an empty one, or one with a line break goes to the reference
    limit = csv.field_size_limit()
    if any(len(label) > limit or "\n" in label or not label.strip() for label in labels):
        return None
    stripped = [label.strip() for label in labels]
    if stripped != labels:  # spellings that strip alike become one label
        codes = _label_codes(stripped, len(stripped))[codes]
    numbers = body["value"][:, np.newaxis] if labelled else body
    if numbers.shape[1] != numeric or not np.isfinite(numbers).all():
        return None
    return header, numbers, codes


def _clustered_arrays(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The values of a clustered CSV and its labels' first-appearance codes (none if iid)."""
    _, numbers, codes = _read_table(path, _clustered_header)
    return numbers[:, 0].copy(), np.ascontiguousarray(codes)


def _clustered_sample(
    path: str, arrays: tuple[np.ndarray, np.ndarray]
) -> tuple[ClusteredSample, tuple[str, ...]]:
    """The sample built from :func:`_clustered_arrays`, with no second dict pass, and its notes."""
    values, codes = arrays
    if not codes.size:
        note = f"{path}: no cluster column; treating each observation as its own cluster (iid)"
        return ClusteredSample.iid(values), (note,)
    return ClusteredSample._built(values, lambda: codes), ()


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


def _is_regular_file(path: str) -> bool:
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except (OSError, ValueError):  # missing, unreadable, or a null byte: load(path) reports it
        return False


def _load_both(
    load: Callable[[str], Loaded], build: Callable[[str, Loaded], Built], f: str, g: str
) -> tuple[Built, Built]:
    """``build(path, load(path))`` for ``f``, then for ``g``, with ``g`` loaded at the same time.

    A forked child runs ``load(g)`` while this process loads and builds ``f``,
    and sends back through one pipe only what ``load`` returns (numpy arrays)
    or the typed error it raised, pickled with protocol 5; ``g`` is built
    here, from the same arrays the serial order would give.  ``f``'s whole
    pipeline finishes before anything from ``g`` is raised, so errors come in
    file order.  If the child ends without a result, ``g`` is loaded here, so
    only a regular ``g``, which can be read twice, is handed to a child.
    This process always reaps the child, killing it first if its own work
    fails or is interrupted.  Where ``os.fork`` does not exist, no process can
    be started, or ``g`` is not a regular file (a pipe, a FIFO, or a path
    ``os.stat`` rejects), the two run in order.
    """
    pid = -1
    if hasattr(os, "fork") and _is_regular_file(g):
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


def _ks_payload(outcome: KsOutcome, notes: Sequence[str] = (), **extra) -> dict:
    """The JSON payload of a test outcome; ``notes`` are the ingest notices :func:`_with_notes` returned."""
    return {
        "statistic": outcome.statistic,
        "side": outcome.side.value,
        "p_upper": outcome.p_upper,
        "p_upper_raw": outcome.p_upper_raw,
        "critical": _alpha_map(dict(outcome.critical_at)),
        "conservative": outcome.conservative,
        "notes": list(notes),
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
    outcome = one_sample_clustered(sample, ref, ns.side, ns.alpha)
    spec = sample.cluster_spec()
    return _ks_payload(
        outcome,
        notes,
        nu=spec.nu_n,
        c=outcome.params.c,
        d=outcome.params.d,
        n=sample.n,
        clusters=spec.k,
    )


def _run_ks_two_sample(ns: argparse.Namespace) -> dict:
    (sample_f, sample_g), notes = _with_notes(_load_both(_clustered_arrays, _clustered_sample, ns.f, ns.g))
    outcome = two_sample_clustered(sample_f, sample_g, ns.side, ns.alpha)
    return _ks_payload(
        outcome,
        notes,
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


# (flag, add_argument keywords); an option that more than one command takes is defined once
_Option = tuple[str, dict]
_Command = tuple[Callable[[argparse.Namespace], dict], tuple[_Option, ...]]

_C = ("--c", dict(type=float, required=True, help="McDiarmid coefficient"))
_D = ("--d", dict(type=float, required=True, help="downward-variation coefficient"))
_SIDE = ("--side", dict(choices=("two", "plus", "minus"), default="two"))
_ALPHA = (
    "--alpha",
    dict(type=float, nargs="+", default=DEFAULT_ALPHAS, help="significance levels (default: 0.01 0.05 0.1)"),
)
_F = ("--f", dict(required=True, metavar="CSV"))
_G = ("--g", dict(required=True, metavar="CSV"))
_N = ("--n", dict(type=int, required=True))
_TRIALS = ("--trials", dict(type=int, required=True))
_SEED = ("--seed", dict(type=int, default=0))
_OUTPUT = (
    ("--format", dict(choices=tuple(_RENDERERS), default="json")),
    ("--out", dict(default=None, metavar="PATH")),
)

# group -> (its help, {command -> (handler, options in --help order)}); every command then takes _OUTPUT
_COMMANDS: dict[str, tuple[str, dict[str, _Command]]] = {
    "bound": ("evaluate or invert tail bounds", {
        "eval": (_run_bound_eval, (_C, _D, _SIDE, ("--eps", dict(type=float, nargs="+", required=True)))),
        "critical": (_run_critical, (_C, _D, _SIDE, _ALPHA)),
    }),
    "kstest": ("hypothesis tests on data files", {
        "one-sample": (_run_ks_one_sample, (
            ("--data", dict(required=True, metavar="CSV")),
            ("--ref", dict(choices=("uniform", "normal"), default="uniform")),
            ("--ref-loc", dict(type=float, default=0.0)),
            ("--ref-scale", dict(type=float, default=1.0)),
            _SIDE,
            _ALPHA,
        )),
        "two-sample": (_run_ks_two_sample, (_F, _G, _SIDE, _ALPHA)),
        "lipschitz": (_run_lipschitz, (
            _F,
            _G,
            ("--k-lip", dict(type=float, required=True)),
            ("--grid-exhaustive", dict(action="store_true")),
            _ALPHA,
        )),
    }),
    "simulate": ("Monte Carlo validation harnesses", {
        "grid": (_run_simulate_grid, (
            _N,
            ("--m", dict(type=int, nargs="+", required=True)),
            ("--eps", dict(type=float, required=True)),
            _TRIALS,
            _SEED,
        )),
        "coverage": (_run_simulate_coverage, (
            _N,
            _TRIALS,
            _SEED,
            ("--eps", dict(type=float, nargs="+", default=DEFAULT_COVERAGE_EPS)),
            _SIDE,
        )),
        "sharpness": (_run_simulate_sharpness, (_N, ("--l-target", dict(type=float, required=True)), _TRIALS, _SEED)),
    }),
}


@cache  # one parser per process: the first main() call builds it, later calls reuse it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvconc",
        description="Concentration bounds and KS-like tests for randomized functions of bounded variation",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (help_text, commands) in _COMMANDS.items():
        subcommands = groups.add_parser(group, help=help_text).add_subparsers(dest="subcommand", required=True)
        for name, (handler, options) in commands.items():
            command = subcommands.add_parser(name)
            for flag, settings in (*options, *_OUTPUT):
                command.add_argument(flag, **settings)
            command.set_defaults(handler=handler)
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
