"""Loading and cleaning of 1-minute OHLCV bars into analysis-ready series.

Rows violating the price invariants are dropped and counted, a row whose
timestamp is not later than every valid row before it is dropped as a
duplicate (equal) or out of order (earlier), and trading sessions are
concatenated end-to-end (gap minutes removed, never filled).
"""

from __future__ import annotations

import contextlib
import csv
import gc
import math
from dataclasses import dataclass
from datetime import datetime
from itertools import compress, islice, zip_longest
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import FileUnreadable, NoValidRows, SchemaMismatch
from .io import _CHUNK_ROWS, _read_chunks
from .spectral import TimeSeries

__all__ = [
    "TickSeries",
    "CleaningReport",
    "DEFAULT_SCHEMA",
    "load_ohlc_csv",
    "build_series",
]

_PRICE_FIELDS = ("open", "high", "low", "close", "volume")
DEFAULT_SCHEMA = {name: name for name in ("datetime", *_PRICE_FIELDS)}
# the choices of build_series
_SERIES_FIELDS = ("close", "open", "mid")
_TRANSFORMS = ("raw", "demean", "log_return")

_TS_FORMATS = ("%Y-%m-%d %H:%M", "%Y-%m-%d %H:%M:%S")
# characters numpy's reader keeps of a timestamp cell: a cell that fills them
# all may have been cut short
_STAMP_WIDTH = 20
_BULK_DTYPE = np.dtype([("datetime", f"U{_STAMP_WIDTH}"),
                        *((name, np.float64) for name in _PRICE_FIELDS)])
# character positions of the exact "YYYY-MM-DD HH:MM[:SS]" layout
_TS_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15]
_TS_SEPARATORS = {4: "-", 7: "-", 10: " ", 13: ":"}


@dataclass
class TickSeries:
    """Kept bars as columns, one entry per bar, timestamps strictly increasing.

    timestamps : datetime64[s]
    open, high, low, close, volume : float64
    """

    timestamps: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray


@dataclass
class CleaningReport:
    n_records_in: int = 0
    n_records_out: int = 0
    n_gaps: int = 0
    n_dropped_invalid: int = 0
    sessions_detected: int = 0
    n_dropped_duplicate: int = 0
    n_dropped_out_of_order: int = 0


def _parse_timestamp(text: str) -> datetime | None:
    for fmt in _TS_FORMATS:
        try:
            return datetime.strptime(text.strip(), fmt)
        except ValueError:
            continue
    return None


def _parse_column(cells: Sequence[str], dtype, missing) -> np.ndarray:
    """Each cell as numpy's setitem parses it into ``dtype``; ``missing`` where
    that fails.  The whole column is parsed in one call, and cell by cell only
    if numpy rejects it."""
    try:
        return np.fromiter(cells, dtype, len(cells))
    except ValueError:
        out = np.empty(len(cells), dtype)
        for i, cell in enumerate(cells):
            try:
                out[i] = cell
            except ValueError:
                out[i] = missing
        return out


def _parse_timestamps(cells: Sequence[str] | np.ndarray) -> np.ndarray:
    """datetime64[s] of each cell, NaT where ``_parse_timestamp`` gives None.

    ``cells`` are strings, or a ``U`` array taken as it holds them (numpy's
    strings drop trailing NULs and cut a cell to their width).  Cells
    in the exact ``YYYY-MM-DD HH:MM`` or ``YYYY-MM-DD HH:MM:SS`` layout with a
    year after 0 are parsed by numpy, which for this layout accepts and
    rejects the field values ``strptime`` does; any other cell goes through
    ``_parse_timestamp``, so forms such as ``2020-1-6 9:17`` give what
    ``strptime`` gives.
    """
    n = len(cells)
    is_array = isinstance(cells, np.ndarray)
    length = np.char.str_len(cells) if is_array else np.fromiter(map(len, cells), np.intp, n)
    chars = np.array(cells, dtype="U19").view(np.int32).reshape(n, 19)
    is_digit = (chars >= ord("0")) & (chars <= ord("9"))
    ok = ((length == 16) | (length == 19)) & is_digit[:, _TS_DIGITS].all(axis=1)
    for pos, sep in _TS_SEPARATORS.items():
        ok &= chars[:, pos] == ord(sep)
    ok &= (length == 16) | ((chars[:, 16] == ord(":")) & is_digit[:, 17] & is_digit[:, 18])
    ok &= (chars[:, :4] != ord("0")).any(axis=1)  # numpy reads year 0, strptime does not
    ts = np.empty(n, "datetime64[s]")
    # as str, which numpy parses faster than its own strings
    kept = cells[ok].tolist() if is_array else list(compress(cells, ok))
    ts[ok] = _parse_column(kept, "datetime64[s]", "NaT")
    for i in np.flatnonzero(~ok).tolist():
        ts[i] = _parse_timestamp(cells[i]) or "NaT"
    return ts


def _valid_prices(o, h, l, c, v) -> np.ndarray:
    """Rows with finite values, positive prices, v >= 0 and l <= o, c <= h."""
    ok = np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c) & np.isfinite(v)
    ok &= (np.minimum(np.minimum(o, h), np.minimum(l, c)) > 0) & (v >= 0)
    return ok & (l <= np.minimum(o, c)) & (np.maximum(o, c) <= h)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic collector, which would rescan every young row list."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _valid_rows(ts: np.ndarray, prices: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The seconds and prices of a chunk's valid rows."""
    valid = ~np.isnat(ts) & _valid_prices(*prices)
    return (ts[valid].view(np.int64), *(p[valid] for p in prices))


def _read_chunk(lines: Iterator[str], columns: list[int]) -> tuple[int, list] | None:
    """Rows read and valid rows of the next ``_CHUNK_ROWS`` rows of ``lines``
    through numpy's reader, or None at their end; ``ValueError`` for a row with
    a missing cell, a number numpy cannot parse, a whitespace-only line or a
    timestamp cell that may have been cut short."""
    block = np.loadtxt(lines, _BULK_DTYPE, delimiter=",", quotechar='"', comments=None,
                       usecols=columns, max_rows=_CHUNK_ROWS, ndmin=1)
    if not len(block):
        return None
    stamps = block["datetime"]
    if (np.char.str_len(stamps) == _STAMP_WIDTH).any():
        raise ValueError("a timestamp cell may have been cut short")
    return len(block), [_valid_rows(_parse_timestamps(stamps),
                                    [block[name] for name in _PRICE_FIELDS])]


def _read_rows(lines: Iterator[str], columns: list[int]) -> tuple[int, list]:
    """Rows read and valid chunks of ``lines``, through ``csv.reader``."""
    reader = csv.reader(lines)
    ts_col, *price_cols = columns
    width = max(columns) + 1
    n_in, chunks = 0, []
    while rows := list(islice(reader, _CHUNK_ROWS)):
        rows = [r for r in rows if r]
        if not rows:
            continue
        n_in += len(rows)
        cols = list(islice(zip_longest(*rows, fillvalue=""), width))
        del rows
        cols += [("",) * len(cols[0])] * (width - len(cols))
        ts = _parse_timestamps(cols[ts_col])
        prices = [_parse_column(cols[i], np.float64, math.nan) for i in price_cols]
        del cols
        chunks.append(_valid_rows(ts, prices))
    return n_in, chunks


def load_ohlc_csv(
    path: str | Path,
    schema: dict[str, str] | None = None,
) -> tuple[TickSeries, CleaningReport]:
    """Parse an OHLCV CSV, drop invalid rows, and report what was cleaned.

    ``schema`` remaps the default column names
    (datetime, open, high, low, close, volume) to those in the file.
    The file is UTF-8 text; a leading byte-order mark, as spreadsheet
    exports write, is skipped.
    The file is read as ``csv.reader`` reads a file opened with
    ``newline=""``: only CR, LF and CRLF end a row, blank lines are skipped,
    missing cells make a row invalid, extra cells are ignored, and a name
    that appears twice in the header means its last column.
    The rows are read by numpy's reader, a chunk of ``_CHUNK_ROWS`` rows at a
    time; from the first chunk it rejects, or might read differently, on, they
    are read by ``csv.reader`` (``io._read_chunks``).
    """
    colmap = dict(DEFAULT_SCHEMA)
    if schema:
        colmap.update(schema)
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig", newline="") as f, _gc_paused():
            header = next(csv.reader(f), None)
            if header is None:
                raise FileUnreadable(f"{path} has no header row")
            position = {name: i for i, name in enumerate(header)}
            for logical, column in colmap.items():
                if column not in position:
                    raise SchemaMismatch(
                        f"column {column!r} (for {logical!r}) missing from {path}")
            columns = [position[colmap[name]] for name in ("datetime", *_PRICE_FIELDS)]
            parts = _read_chunks(f, path, lambda lines: _read_chunk(lines, columns),
                                 lambda rest: _read_rows(rest, columns))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc

    n_in = sum(n for n, _ in parts)
    chunks = [chunk for _, more in parts for chunk in more]
    if not any(len(chunk[0]) for chunk in chunks):
        raise NoValidRows(f"{path} contains no valid OHLCV rows")
    secs, o, h, l, c, v = (np.concatenate(col) for col in zip(*chunks))
    # a row is kept only if later than every valid row before it
    prior = np.maximum.accumulate(secs)[:-1]
    keep = np.concatenate(([True], secs[1:] > prior))
    n_dup = int(np.count_nonzero(secs[1:] == prior))
    secs = secs[keep]
    n_gaps = int(np.count_nonzero(np.diff(secs) != 60))
    report = CleaningReport(
        n_records_in=n_in, n_records_out=len(secs), n_gaps=n_gaps,
        n_dropped_invalid=n_in - len(keep), sessions_detected=n_gaps + 1,
        n_dropped_duplicate=n_dup, n_dropped_out_of_order=len(keep) - len(secs) - n_dup)
    o, h, l, c, v = (p[keep] for p in (o, h, l, c, v))
    return TickSeries(secs.view("datetime64[s]"), o, h, l, c, v), report


def build_series(
    ticks: TickSeries,
    price_field: str = "close",
    transform: str = "raw",
) -> TimeSeries:
    """Concatenate sessions into one unit-interval series.

    price_field: close, open, or mid ((high+low)/2)
    transform:   raw, demean, or log_return (length N-1)
    """
    if price_field not in _SERIES_FIELDS:
        raise ValueError(f"unknown price_field {price_field!r}")
    if transform not in _TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    if price_field == "mid":
        p = (ticks.high + ticks.low) / 2.0
    else:
        p = getattr(ticks, price_field).copy()

    if transform == "demean":
        p = p - p.mean()
    elif transform == "log_return":
        p = np.log(p[1:] / p[:-1])
    return TimeSeries(values=p)
