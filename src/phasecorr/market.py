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
from itertools import islice, zip_longest
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FileUnreadable, NoValidRows, SchemaMismatch, TooShort
from .spectral import TimeSeries

__all__ = [
    "TickSeries",
    "CleaningReport",
    "DEFAULT_SCHEMA",
    "load_ohlc_csv",
    "build_series",
]

DEFAULT_SCHEMA = {
    "datetime": "datetime",
    "open": "open",
    "high": "high",
    "low": "low",
    "close": "close",
    "volume": "volume",
}
_PRICE_FIELDS = ("open", "high", "low", "close", "volume")

_TS_FORMATS = ("%Y-%m-%d %H:%M", "%Y-%m-%d %H:%M:%S")
# rows parsed at a time: bounds the Python objects alive at once
_CHUNK_ROWS = 1 << 16

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


def _parse_timestamps(cells: Sequence[str]) -> np.ndarray:
    """datetime64[s] of each cell, NaT where ``_parse_timestamp`` gives None.

    Cells in the exact ``YYYY-MM-DD HH:MM`` or ``YYYY-MM-DD HH:MM:SS`` layout
    with every field in range are read by digit arithmetic; any other cell
    goes through ``_parse_timestamp``, so forms such as ``2020-1-6 9:17``
    give what ``strptime`` gives.
    """
    n = len(cells)
    length = np.fromiter(map(len, cells), np.intp, n)
    chars = np.array(cells, dtype="U19").view(np.int32).reshape(n, 19)
    d = chars - ord("0")
    is_digit = (d >= 0) & (d <= 9)
    ok = ((length == 16) | (length == 19)) & is_digit[:, _TS_DIGITS].all(axis=1)
    for pos, sep in _TS_SEPARATORS.items():
        ok &= chars[:, pos] == ord(sep)
    has_s = length == 19
    ok &= ~has_s | ((chars[:, 16] == ord(":")) & is_digit[:, 17] & is_digit[:, 18])

    def field(a: int, b: int) -> np.ndarray:
        out = np.zeros(n, np.int64)
        for i in range(a, b):
            out = out * 10 + d[:, i]
        return out

    year, month, day = field(0, 4), field(5, 7), field(8, 10)
    hour, minute = field(11, 13), field(14, 16)
    second = np.where(has_s, field(17, 19), 0)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    first = months.astype("datetime64[D]")
    ok &= day <= ((months + 1).astype("datetime64[D]") - first).astype(np.int64)
    clock = (day - 1) * 86400 + hour * 3600 + minute * 60 + second
    ts = first.astype("datetime64[s]") + clock.astype("timedelta64[s]")
    for i in np.flatnonzero(~ok).tolist():
        parsed = _parse_timestamp(cells[i])
        ts[i] = np.datetime64("NaT") if parsed is None else np.datetime64(parsed, "s")
    return ts


def _to_float(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _parse_floats(cells: Sequence[str]) -> np.ndarray:
    """``float`` of each cell; NaN (an invalid row) where ``float`` raises."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return np.fromiter(map(_to_float, cells), np.float64, len(cells))


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


def load_ohlc_csv(
    path: str | Path,
    schema: dict[str, str] | None = None,
) -> tuple[TickSeries, CleaningReport]:
    """Parse an OHLCV CSV, drop invalid rows, and report what was cleaned.

    ``schema`` remaps the default column names
    (datetime, open, high, low, close, volume) to those in the file.
    The file is UTF-8 text; a leading byte-order mark, as spreadsheet
    exports write, is skipped.
    Rows are read as ``csv.DictReader`` reads them: blank lines are skipped,
    missing cells make a row invalid, extra cells are ignored, and a name
    that appears twice in the header means its last column.
    """
    colmap = dict(DEFAULT_SCHEMA)
    if schema:
        colmap.update(schema)
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc

    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise FileUnreadable(f"{path} has no header row")
    position = {name: i for i, name in enumerate(header)}
    for logical, column in colmap.items():
        if column not in position:
            raise SchemaMismatch(f"column {column!r} (for {logical!r}) missing from {path}")
    ts_col = position[colmap["datetime"]]
    price_cols = [position[colmap[name]] for name in _PRICE_FIELDS]
    width = max(ts_col, *price_cols) + 1

    report = CleaningReport()
    kept: list[tuple[np.ndarray, ...]] = []
    latest = np.iinfo(np.int64).min  # latest kept timestamp, in seconds
    with _gc_paused():
        while rows := list(islice(reader, _CHUNK_ROWS)):
            rows = [r for r in rows if r]
            if not rows:
                continue
            report.n_records_in += len(rows)
            cols = list(islice(zip_longest(*rows, fillvalue=""), width))
            del rows
            cols += [("",) * len(cols[0])] * (width - len(cols))
            ts = _parse_timestamps(cols[ts_col])
            prices = [_parse_floats(cols[i]) for i in price_cols]
            del cols
            valid = ~np.isnat(ts) & _valid_prices(*prices)
            report.n_dropped_invalid += int(np.count_nonzero(~valid))

            secs = ts[valid].view(np.int64)
            prior = np.maximum.accumulate(np.concatenate(([latest], secs)))[:-1]
            keep = secs > prior
            n_dup = int(np.count_nonzero(secs == prior))
            report.n_dropped_duplicate += n_dup
            report.n_dropped_out_of_order += len(secs) - n_dup - int(np.count_nonzero(keep))
            secs = secs[keep]
            if len(secs) == 0:
                continue
            report.n_gaps += int(np.count_nonzero(np.diff(secs) != 60))
            if report.n_records_out and secs[0] - latest != 60:
                report.n_gaps += 1
            report.n_records_out += len(secs)
            latest = secs[-1]
            kept.append((secs, *(p[valid][keep] for p in prices)))

    if not kept:
        raise NoValidRows(f"{path} contains no valid OHLCV rows")
    report.sessions_detected = report.n_gaps + 1
    secs, o, h, l, c, v = (np.concatenate(col) for col in zip(*kept))
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
    if len(ticks.timestamps) < 2:
        raise TooShort("need at least 2 valid records")
    if price_field in ("close", "open"):
        p = getattr(ticks, price_field).copy()
    elif price_field == "mid":
        p = (ticks.high + ticks.low) / 2.0
    else:
        raise ValueError(f"unknown price_field {price_field!r}")

    if transform == "raw":
        v = p
    elif transform == "demean":
        v = p - p.mean()
    elif transform == "log_return":
        v = np.log(p[1:] / p[:-1])
    else:
        raise ValueError(f"unknown transform {transform!r}")
    if len(v) < 2:
        raise TooShort("series shorter than 2 after transform")
    return TimeSeries(values=v)
