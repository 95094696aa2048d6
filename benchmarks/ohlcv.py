"""Seeded 1-minute OHLCV random walk with planted defects.

The file mimics what a market-data export looks like to
``phasecorr.market.load_ohlc_csv``: regular 390-minute sessions, one per
calendar day, a few minutes missing inside sessions (halts), plus rows the
loader must drop. Every defect is planted on purpose and counted, so the
loader's ``CleaningReport`` can be checked against exact numbers:

* invalid rows: high below low, a non-positive price, a NaN field or an
  unparsable timestamp. Each is an extra row, so it never changes which
  valid bar the loader saw last.
* duplicate rows: a verbatim copy of the valid bar just before it.
* gaps: every pair of consecutive valid bars that are not one minute apart
  (session breaks and halts).

Out-of-order rows are not planted: the loader's treatment of them is
expected to change, and the benchmark should not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SESSION_MINUTES = 390
INVALID_SHARE = 0.001
DUPLICATE_SHARE = 0.001
HALT_SHARE = 0.0001
_EPOCH = np.datetime64("2024-01-02T09:30")


@dataclass(frozen=True)
class Planted:
    """What the generator put into the file; the loader must find exactly this."""

    rows_in: int
    rows_out: int
    dropped_invalid: int
    dropped_duplicate: int
    gaps: int


def _timestamps(rng: np.random.Generator, n_bars: int) -> np.ndarray:
    # one minute slot per bar; a halt skips one slot, a session ends after 390 slots
    slots = np.arange(n_bars + n_bars // 100 + 1)
    halts = rng.random(len(slots)) < HALT_SHARE
    slots = slots[~halts][:n_bars]
    day, minute = np.divmod(slots, SESSION_MINUTES)
    return _EPOCH + day.astype("timedelta64[D]") + minute.astype("timedelta64[m]")


def _fmt_row(ts: str, o: float, h: float, l: float, c: float, v: int) -> str:
    return f"{ts},{o:.6f},{h:.6f},{l:.6f},{c:.6f},{v}"


def write_ohlcv(path: str | Path, n_bars: int, seed: int) -> Planted:
    """Write ``n_bars`` valid bars plus planted defects to ``path``."""
    rng = np.random.default_rng(seed)
    ts = _timestamps(rng, n_bars)
    stamps = [t.replace("T", " ") for t in np.datetime_as_string(ts, unit="m")]
    log_p = np.log(100.0) + np.cumsum(rng.normal(0.0, 1e-3, n_bars + 1))
    p = np.round(np.exp(log_p), 6)
    o, c = p[:-1], p[1:]
    wick = np.abs(rng.normal(0.0, 5e-4, (2, n_bars)))
    h = np.round(np.maximum(o, c) * (1.0 + wick[0]), 6)
    l = np.round(np.minimum(o, c) * (1.0 - wick[1]), 6)
    vol = rng.integers(100, 10_000, n_bars)
    bars = [
        _fmt_row(stamps[i], o[i], h[i], l[i], c[i], int(vol[i]))
        for i in range(n_bars)
    ]

    # extra rows go after bar i; a duplicate copies bar i, so bar 0 comes first
    n_invalid = int(rng.binomial(n_bars, INVALID_SHARE))
    n_duplicate = int(rng.binomial(n_bars, DUPLICATE_SHARE))
    extra: dict[int, list[str]] = {}
    for k, i in enumerate(rng.integers(0, n_bars, n_invalid)):
        ts_i, oi, hi, li, ci = stamps[i], o[i], h[i], l[i], c[i]
        kind = k % 4
        if kind == 0:
            row = _fmt_row(ts_i, oi, 0.5 * li, li, ci, 1)  # high below low
        elif kind == 1:
            row = _fmt_row(ts_i, oi, hi, li, -ci, 1)  # non-positive close
        elif kind == 2:
            row = f"{ts_i},{oi:.6f},nan,{li:.6f},{ci:.6f},1"
        else:
            row = _fmt_row("not-a-time", oi, hi, li, ci, 1)
        extra.setdefault(int(i), []).append(row)
    for i in rng.integers(0, n_bars, n_duplicate):
        extra.setdefault(int(i), []).append(bars[i])

    lines = ["datetime,open,high,low,close,volume"]
    for i, row in enumerate(bars):
        lines.append(row)
        lines.extend(extra.get(i, ()))
    Path(path).write_text("\n".join(lines) + "\n")

    gaps = int(np.count_nonzero(np.diff(ts) != np.timedelta64(1, "m")))
    return Planted(
        rows_in=n_bars + n_invalid + n_duplicate,
        rows_out=n_bars,
        dropped_invalid=n_invalid,
        dropped_duplicate=n_duplicate,
        gaps=gaps,
    )
