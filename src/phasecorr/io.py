"""Canonical on-disk formats: the ``t,value`` series CSV, ``.npy`` arrays and the
plain-text hotspot report.  The bispectrum grid is not stored: it follows from the
series and the analysis parameters."""

from __future__ import annotations

import warnings
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .errors import FileUnreadable, LengthTooShort, NonFiniteInput
from .spectral import HotspotReport, TimeSeries

__all__ = [
    "write_series_csv",
    "read_series_csv",
    "save_array",
    "check_array",
    "format_hotspot_report",
]


def write_series_csv(path: str | Path, series: TimeSeries) -> None:
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in enumerate(series.values.tolist()):
            fh.write(f"{t},{v!r}\n")


# lines numpy's reader parses at a time: a file it rejects is read again from
# the rejected chunk's first line, so no more than one chunk is read twice
_CHUNK_ROWS = 1 << 16
# bytes on which numpy's reader and csv.reader or float part ways: numpy drops
# the NULs that end a cell and reads \x1c-\x1f beside a number as spaces; in
# UTF-8 these bytes stand only for these characters
_BULK_UNSAFE = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _bulk_safe(path: Path) -> bool:
    """False if the file holds a byte of ``_BULK_UNSAFE``."""
    with open(path, "rb") as raw:
        for block in iter(lambda: raw.read(1 << 18), b""):
            if any(byte in block for byte in _BULK_UNSAFE):
                return False
    return True


def _read_rows(lines: Iterable[str], path: Path) -> list[float]:
    """The value cell of each of ``lines`` that is not blank, through ``float``."""
    values = []
    for line in lines:
        if not line.strip():
            continue
        try:
            values.append(float(line.split(",")[1]))
        except (IndexError, ValueError) as exc:
            row = line.rstrip("\r\n")
            raise FileUnreadable(f"{path}: bad row {row!r}") from exc
    return values


def _read_bulk(fh: TextIO, path: Path) -> np.ndarray:
    """The value column of the lines of ``fh``, through numpy's reader a chunk
    of ``_CHUNK_ROWS`` lines at a time, and through ``_read_rows`` from the
    first line of the first chunk it rejects: one with a row with no value
    cell, a value it cannot parse or a whitespace-only line."""
    chunks = []
    with warnings.catch_warnings():
        # a chunk of blank lines
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        while lines := list(islice(fh, _CHUNK_ROWS)):
            try:
                chunks.append(np.loadtxt(lines, np.float64, delimiter=",", usecols=1,
                                         comments=None, ndmin=1))
            except ValueError:
                chunks.append(np.array(_read_rows(chain(lines, fh), path)))
                break
    return np.concatenate(chunks) if chunks else np.empty(0)


def read_series_csv(path: str | Path) -> TimeSeries:
    """Read a ``t,value`` CSV of UTF-8 text: a leading byte-order mark is
    skipped, only CR, LF and CRLF end a row, and blank lines are skipped.

    numpy's C reader reads the rows (``_read_bulk``), and the line loop
    ``_read_rows``, through ``float``, reads on from the first chunk it
    rejects, or reads a file holding a byte of ``_BULK_UNSAFE`` whole.  The
    loop reads what numpy cannot (``1_000``, whitespace-only lines) and names
    the first bad row.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            if fh.readline().strip().lower() != "t,value":
                raise FileUnreadable(f"{path} is not a t,value series CSV")
            values = _read_bulk(fh, path) if _bulk_safe(path) else _read_rows(fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    return TimeSeries(values=values)


def save_array(path: str | Path, values: np.ndarray) -> None:
    """Write a float64 array as ``.npy``; ``np.load`` reads it back bit for bit."""
    with open(path, "wb") as fh:
        np.save(fh, np.asarray(values, dtype=np.float64), allow_pickle=False)


def check_array(path: str | Path) -> int:
    """The length of the 1-D float64 ``.npy`` file at ``path``, as ``save_array``
    writes a series; ``FileUnreadable`` unless ``TimeSeries`` accepts its memory map."""
    try:
        array = np.load(path, mmap_mode="r", allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise FileUnreadable(f"cannot read array {path}: {exc}") from exc
    if not isinstance(array, np.ndarray):  # an .npz archive
        array.close()
        raise FileUnreadable(f"{path} is an .npz archive, not an .npy array")
    if array.ndim != 1 or array.dtype != np.float64:
        raise FileUnreadable(f"{path} holds a {array.ndim}-D {array.dtype} array, "
                             "not a 1-D float64 one")
    try:
        TimeSeries(array)
    except (LengthTooShort, NonFiniteInput) as exc:
        raise FileUnreadable(f"{path}: {exc}") from exc
    return len(array)


def format_hotspot_report(report: HotspotReport) -> str:
    lines = [
        "hotspot report",
        f"threshold: {report.threshold_used:.6g}",
        f"segments_averaged: {report.segments_averaged}",
        f"verdict: {report.verdict.value}",
        f"n_hotspots: {len(report.hotspots)}",
    ]
    if report.hotspots:
        lines.append("k1,k2,bicoherence,bispectrum_magnitude")
        for k1, k2, b2, mag in report.hotspots:
            lines.append(f"{k1},{k2},{b2:.6g},{mag:.6g}")
    return "\n".join(lines) + "\n"
