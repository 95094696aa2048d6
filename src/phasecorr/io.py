"""Canonical on-disk formats: the ``t,value`` series CSV, ``.npy`` arrays and the
plain-text hotspot report.  The bispectrum grid is not stored: it follows from the
series and the analysis parameters."""

from __future__ import annotations

from pathlib import Path

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


def read_series_csv(path: str | Path) -> TimeSeries:
    """Read a ``t,value`` CSV of UTF-8 text line by line: a leading byte-order
    mark is skipped, and only CR, LF and CRLF end a row."""
    path = Path(path)
    values = []
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            if fh.readline().strip().lower() != "t,value":
                raise FileUnreadable(f"{path} is not a t,value series CSV")
            for line in fh:
                if not line.strip():
                    continue
                try:
                    values.append(float(line.split(",")[1]))
                except (IndexError, ValueError) as exc:
                    row = line.rstrip("\r\n")
                    raise FileUnreadable(f"{path}: bad row {row!r}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    return TimeSeries(values=np.array(values))


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
