"""Canonical on-disk formats: series, spectrum and solver-snapshot CSVs,
the binary bispectrum grid, the bicoherence heatmap CSV and the plain-text
hotspot report."""

from __future__ import annotations

import math
import zipfile
from pathlib import Path

import numpy as np

from .errors import FileUnreadable
from .spectral import BispectrumGrid, HotspotReport, TimeSeries

__all__ = [
    "write_series_csv",
    "read_series_csv",
    "write_spectrum_csv",
    "write_snapshot_csv",
    "save_grid",
    "load_grid",
    "write_heatmap_csv",
    "format_hotspot_report",
]

_GRID_FIELDS = ("values", "norm_a", "norm_b", "segments_averaged", "segment_length")


def write_series_csv(path: str | Path, series: TimeSeries) -> None:
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in enumerate(series.values.tolist()):
            fh.write(f"{t},{v!r}\n")


def read_series_csv(path: str | Path) -> TimeSeries:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip().lower() != "t,value":
        raise FileUnreadable(f"{path} is not a t,value series CSV")
    values = []
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            values.append(float(line.split(",")[1]))
        except (IndexError, ValueError) as exc:
            raise FileUnreadable(f"{path}: bad row {line!r}") from exc
    return TimeSeries(values=np.array(values))


def write_spectrum_csv(path: str | Path, power: np.ndarray, n: int) -> None:
    """One row per bin 0..N/2 with the radians-per-sample frequency."""
    with open(path, "w") as fh:
        fh.write("bin,frequency_rad_per_sample,power\n")
        for k, p in enumerate(np.asarray(power, dtype=float).tolist()):
            fh.write(f"{k},{2.0 * math.pi * k / n!r},{p!r}\n")


def write_snapshot_csv(path: str | Path, u: np.ndarray, length: float) -> None:
    """One ``x,u`` row per grid point x_j = j * length / n of a periodic field."""
    n = len(u)
    x = np.arange(n) * (length / n)
    with open(path, "w") as fh:
        fh.write("x,u\n")
        for xi, ui in zip(x.tolist(), np.asarray(u, dtype=float).tolist()):
            fh.write(f"{xi!r},{ui!r}\n")


def save_grid(path: str | Path, grid: BispectrumGrid) -> None:
    """Write the grid as an ``.npz`` archive readable by ``np.load``.

    The (k1, k2) layout is implicit in ``segment_length``.  Archive members
    carry a fixed timestamp, so the same grid always gives the same bytes.
    """
    with open(path, "wb") as fh:
        np.savez(fh, **{name: getattr(grid, name) for name in _GRID_FIELDS})


def load_grid(path: str | Path) -> BispectrumGrid:
    """Read a grid written by ``save_grid``."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            fields = {name: archive[name] for name in _GRID_FIELDS}
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise FileUnreadable(f"cannot read grid {path}: {exc}") from exc
    try:
        grid = BispectrumGrid(
            values=np.asarray(fields["values"], dtype=complex),
            norm_a=np.asarray(fields["norm_a"], dtype=float),
            norm_b=np.asarray(fields["norm_b"], dtype=float),
            segments_averaged=int(fields["segments_averaged"]),
            segment_length=int(fields["segment_length"]),
        )
    except (TypeError, ValueError) as exc:
        raise FileUnreadable(f"{path}: {exc}") from exc
    return grid


def write_heatmap_csv(path: str | Path, grid: BispectrumGrid) -> None:
    """Dense bicoherence matrix (rows k1, cols k2), symmetric fold applied."""
    dense = grid.dense()
    with open(path, "w") as fh:
        header = ",".join(["k1\\k2"] + [str(k) for k in range(grid.half + 1)])
        fh.write(header + "\n")
        for k1, row in enumerate(dense):
            # cells with k1 + k2 > half lie outside the domain: exactly 0, printed "0"
            inside = row[: grid.half + 1 - k1].tolist()
            fh.write(f"{k1}," + ",".join(map("{:.6g}".format, inside)) + ",0" * k1 + "\n")


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
