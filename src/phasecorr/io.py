"""Canonical on-disk formats: the ``t,value`` series CSV, ``.npy`` arrays, the
binary bispectrum grid and the plain-text hotspot report."""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from .errors import FileUnreadable, LengthTooShort, NonFiniteInput
from .spectral import BispectrumGrid, HotspotReport, TimeSeries

__all__ = [
    "write_series_csv",
    "read_series_csv",
    "save_array",
    "check_array",
    "save_grid",
    "load_grid",
    "format_hotspot_report",
]

_GRID_FIELDS = ("values", "norm", "segments_averaged", "segment_length")


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


def check_array(path: str | Path) -> None:
    """Raise ``FileUnreadable`` unless ``path`` is a 1-D float64 ``.npy`` file, as
    ``save_array`` writes a series, whose memory map ``TimeSeries`` accepts."""
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


def save_grid(path: str | Path, grid: BispectrumGrid) -> None:
    """Write the grid as an ``.npz`` archive readable by ``np.load``.

    The (k1, k2) layout is implicit in ``segment_length``.  Archive members
    carry a fixed timestamp, so the same grid always gives the same bytes.
    The bytes are those ``np.savez`` writes for the same four fields.  It is
    not called because it copies each member into the zip file through a
    ``tobytes`` buffer of up to 16 MiB, which on the paper's grid is all of
    ``values``; here each member is written from the array's own buffer.
    """
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name in _GRID_FIELDS:
            array = np.asarray(getattr(grid, name))
            if array.ndim:  # a 0-d scalar stays 0-d
                array = np.ascontiguousarray(array)
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array))
                member.write(memoryview(array))


def load_grid(path: str | Path) -> BispectrumGrid:
    """Read a grid written by ``save_grid``."""
    try:
        archive = np.load(path, allow_pickle=False)
        if isinstance(archive, np.ndarray):
            raise FileUnreadable(f"{path} is an .npy array, not an .npz archive")
        with archive:
            fields = {name: archive[name] for name in _GRID_FIELDS}
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise FileUnreadable(f"cannot read grid {path}: {exc}") from exc
    try:
        grid = BispectrumGrid(
            values=np.asarray(fields["values"], dtype=complex),
            norm=np.asarray(fields["norm"], dtype=float),
            segments_averaged=int(fields["segments_averaged"]),
            segment_length=int(fields["segment_length"]),
        )
    except (TypeError, ValueError) as exc:
        raise FileUnreadable(f"{path}: {exc}") from exc
    return grid


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
