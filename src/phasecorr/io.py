"""Canonical on-disk formats: series, spectrum and solver-snapshot CSVs,
the binary bispectrum grid, the bicoherence heatmap CSV and the plain-text
hotspot report."""

from __future__ import annotations

import math
import zipfile
from pathlib import Path

import numpy as np

from .errors import FileUnreadable
from .spectral import BispectrumGrid, HotspotReport, TimeSeries, bicoherence

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
    """Read a ``t,value`` CSV of UTF-8 text; a leading byte-order mark is skipped."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
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


# widest ``.6g`` of a float64, as in "-1.23457e-100"
_CELL_BYTES = 13
# values formatted at a time: bounds the temporaries of ``_format_6g``
_FORMAT_CHUNK = 1 << 15
# 10^k for k = 0..9, each exact in binary64
_POW10 = 10.0 ** np.arange(10)
# a template slot takes digit 0-5 of the 6-digit significand or one of these
_POINT, _ZERO, _EMPTY = 6, 7, 8


def _cell_template(e: int, s: int) -> list[int]:
    """Slots of ``.6g`` for a value with decimal exponent e in [-4, 5] whose
    6-digit significand has s significant digits: trailing zeros and a bare
    point are dropped."""
    if e < 0:
        slots = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + list(range(s))
    elif s <= e + 1:
        slots = list(range(e + 1))
    else:
        slots = list(range(e + 1)) + [_POINT] + list(range(e + 1, s))
    return slots + [_EMPTY] * (_CELL_BYTES - len(slots))


# row (e + 4) * 6 + s - 1 is the template of exponent e and s significant digits
_TEMPLATES = np.array([_cell_template(e, s) for e in range(-4, 6) for s in range(1, 7)])


def _format_6g(x: np.ndarray) -> np.ndarray:
    """``format(v, ".6g")`` of each float64 v, as an ``S13`` array.

    A v in [1e-4, 1e6) has decimal exponent e = floor(log10 v), clipped to
    [-4, 5], and d = v * 10^(5-e).  10^(5-e) is exact, so d is within 1.2e-10
    of its exact value, and when 99999.5 <= d, rint(d) < 1e6 and d is not
    within 1e-6 of a half, rint(d) * 10^(e-5) is v rounded to 6 significant
    digits with exponent e, whatever log10 returned.  Every other value
    (zero, out of that range, near a tie, rounding up to 1e6, negative or not
    finite) is formatted by ``format`` itself.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(len(x), dtype=f"S{_CELL_BYTES}")
    for lo in range(0, len(x), _FORMAT_CHUNK):
        v = x[lo:lo + _FORMAT_CHUNK]
        fast = (v >= 1e-4) & (v < 1e6)
        v = np.where(fast, v, 1.0)  # keeps log10 and the scaling free of warnings
        e = np.clip(np.floor(np.log10(v)).astype(np.intp), -4, 5)
        d = v * _POW10[5 - e]
        n = np.rint(d)
        fast &= (d >= 99999.5) & (n < 1e6) & (np.abs(d - np.floor(d) - 0.5) > 1e-6)
        n = np.where(fast, n, 1e5).astype(np.int64)
        chars = np.empty((len(v), _EMPTY + 1), dtype=np.uint8)
        for j in range(6):
            chars[:, 5 - j] = n % 10 + ord("0")
            n //= 10
        chars[:, _POINT], chars[:, _ZERO], chars[:, _EMPTY] = ord("."), ord("0"), 0
        significant = 6 - np.argmax(chars[:, 5::-1] != ord("0"), axis=1)
        slots = _TEMPLATES[(e + 4) * 6 + significant - 1]
        cells = np.take_along_axis(chars, slots, axis=1).view(out.dtype)[:, 0]
        slow = np.flatnonzero(~fast)
        cells[slow] = [format(c, ".6g").encode() for c in x[lo + slow].tolist()]
        out[lo:lo + _FORMAT_CHUNK] = cells
    return out


def write_heatmap_csv(path: str | Path, grid: BispectrumGrid) -> None:
    """Dense bicoherence matrix (rows k1, cols k2), symmetric fold applied.

    Each cell is ``"{:.6g}"`` of b^2.  Each principal-domain value is
    formatted once: row k1 is its own principal row, then column k1 of the
    rows below it mirrored across the diagonal, then the k1 cells outside
    the domain, which are exactly 0.  No dense map is built.
    """
    half = grid.half
    off = grid.offsets
    cells = _format_6g(bicoherence(grid))
    # each cell behind a comma, its padding dropped when the row is joined
    line = np.full((half + 1, _CELL_BYTES + 1), ord(","), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(["k1\\k2"] + [str(k) for k in range(half + 1)]) + "\n").encode())
        for k1 in range(half + 1):
            n = half + 1 - k1
            lo, hi = off[k1], off[k1 + 1]
            row = line[:n]
            row[: hi - lo, 1:] = cells[lo:hi, None].view(np.uint8)
            row[hi - lo:, 1:] = cells[off[k1 + 1:n] + k1, None].view(np.uint8)
            fh.write(b"%d" % k1 + row[row != 0].tobytes() + b",0" * k1 + b"\n")


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
