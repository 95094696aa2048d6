"""Discrete Fourier analysis, the triple-product (bispectrum) transform,
bicoherence normalization and hotspot-based phase-coupling detection.

Conventions
-----------
The forward transform is the plain unnormalized sum
``F(k) = sum_t f(t) exp(-i 2 pi k t / N)``; Parseval then reads
``sum f^2 = (1/N) sum |F|^2``.  The bispectrum is stored on the principal
triangular domain ``0 <= k2 <= k1, k1 + k2 <= N/2`` which determines the
full plane for real signals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainTooSmall,
    LengthTooShort,
    NonFiniteInput,
    SegmentTooLong,
)

__all__ = [
    "TimeSeries",
    "BispectrumGrid",
    "HotspotReport",
    "Verdict",
    "dft_forward",
    "power_spectrum",
    "bispectrum",
    "segmented_bispectrum",
    "bicoherence",
    "detect_hotspots",
    "auto_threshold",
    "analyze",
]


@dataclass
class TimeSeries:
    """Uniformly sampled real-valued sequence: at least 2 finite samples."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) < 2:
            raise LengthTooShort(f"need at least 2 samples, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise NonFiniteInput("series contains NaN or Inf")

    def __len__(self) -> int:
        return len(self.values)


def _row_offsets(half, k1):
    """Flat index of (k1, 0) in the row-major principal domain; k1 = half + 1 gives its size.

    Row r holds min(r, half - r) + 1 bins: r + 1 up to r = half // 2, then half + 1 - r.
    """
    c = np.minimum(k1, half // 2 + 1)
    return c * (c + 1) // 2 + (k1 - c) * (2 * half + 3 - k1 - c) // 2


@dataclass
class BispectrumGrid:
    """Averaged triple products over the principal triangular domain.

    ``values[i] = <F(k1) F(k2) conj(F(k1+k2))>`` averaged over
    ``segments_averaged`` segments, and ``norm[i] = <|F(k1)F(k2)|^2> *
    <|F(k1+k2)|^2>``, the product of the two Cauchy-Schwarz normalizers and
    the denominator of the bicoherence.  The (k1, k2) layout, and with it
    ``half`` and ``offsets`` (the flat index of each (k1, 0), then the bin
    count), follows from ``segment_length``.
    """

    values: np.ndarray
    norm: np.ndarray
    segments_averaged: int
    segment_length: int
    half: int = field(init=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.ndim(self.values) != 1 or np.ndim(self.norm) != 1:
            raise ValueError(f"values and norm must be 1-D, got shapes "
                             f"{np.shape(self.values)} and {np.shape(self.norm)}")
        if self.segments_averaged < 1:
            raise ValueError(f"segments_averaged must be >= 1, got {self.segments_averaged}")
        self.half = self.segment_length // 2
        n = len(self.values)
        # h + 1 rows hold more than h bins: the size is worked out only where it can fit
        if not 0 <= self.half < n == len(self.norm) == _row_offsets(self.half, self.half + 1):
            raise ValueError(f"segment length {self.segment_length} does not fit {n} bins")
        self.offsets = _row_offsets(self.half, np.arange(self.half + 2))

    def flat_index(self, k1, k2):
        """Index in ``values`` of each (k1, k2) of the symmetric map; -1 outside the domain."""
        # fold the symmetric half back into the principal domain
        a, b = np.maximum(k1, k2), np.minimum(k1, k2)
        inside = (b >= 0) & (a <= self.half - b)  # a + b could overflow
        return np.where(inside, self.offsets[np.clip(a, 0, self.half)] + b, -1)

    def coords(self, i):
        """(k1, k2) of each flat index i in [0, len(values)), the inverse of ``flat_index``."""
        k1 = np.searchsorted(self.offsets, i, side="right") - 1
        return k1, i - self.offsets[k1]

    def _index(self, k1: int, k2: int) -> int:
        try:
            i = int(self.flat_index(k1, k2))
        except OverflowError:  # beyond int64, so beyond the domain
            i = -1
        if i < 0:
            raise IndexError(f"({k1}, {k2}) outside the resolvable domain")
        return i

    def value_at(self, k1: int, k2: int) -> complex:
        return complex(self.values[self._index(k1, k2)])

    def bicoherence_at(self, k1: int, k2: int) -> float:
        i = self._index(k1, k2)
        one = slice(i, i + 1)  # numpy's scalar abs and ** can round unlike its array kernels
        return float(_b2(self.values[one], self.norm[one])[0])

    def dense(self) -> np.ndarray:
        """Symmetric (half+1, half+1) bicoherence map, zero outside the domain.

        Row k1 holds columns 0..half-k1, the rest being outside the domain: its
        principal row, then column k1 of the rows below it mirrored.
        """
        b2 = bicoherence(self)
        off, n = self.offsets, self.half + 1
        out = np.zeros((n, n))
        for k1 in range(n):
            j = np.concatenate((np.arange(off[k1], off[k1 + 1]), off[k1 + 1:n - k1] + k1))
            out[k1, : len(j)] = b2[j]
        return out


class Verdict(enum.Enum):
    PHASE_CORRELATED = "PhaseCorrelated"
    FULLY_DEVELOPED_TURBULENCE_CONSISTENT = "FullyDevelopedTurbulenceConsistent"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class HotspotReport:
    """Outcome of thresholding the bicoherence map.

    hotspots : (k1, k2, bicoherence, |bispectrum|) sorted by bicoherence,
               descending; every entry exceeds ``threshold_used``.
    """

    hotspots: list[tuple[int, int, float, float]]
    threshold_used: float
    verdict: Verdict
    segments_averaged: int = field(default=1)


def dft_forward(series: TimeSeries) -> np.ndarray:
    """Unnormalized forward DFT of a real series: the N complex coefficients F(k).

    Matches the direct sum ``sum_t f(t) e^{-i 2 pi k t / N}`` to better
    than 1e-10 relative.
    """
    return np.fft.fft(series.values)


def power_spectrum(F: np.ndarray) -> np.ndarray:
    """One-sided power P(k) = |F(k)|^2 for k = 0..N//2 of the N coefficients F."""
    return np.abs(F[: len(F) // 2 + 1]) ** 2


def _average_triple_products(F: np.ndarray, segment_length: int) -> BispectrumGrid:
    """Grid averaged over the rows of F, the (M, half+1) one-sided segment spectra.

    Row k1 = a of the domain reads k2 = 0..n-1 and k1 + k2 = a..a+n-1, two
    contiguous slices, so each row is one sum of products over segments with
    no gathers.  The triple products read F transposed, bins by segments, so
    each bin's sum over segments m = 0..M-1 runs along one contiguous row.
    ``norm`` is the product of the averaged |F(k1)F(k2)|^2 and the averaged
    power at k1 + k2, formed row by row.  No BLAS call is made, so the
    reduction order is fixed and the result does not depend on the thread
    count.
    """
    m = len(F)
    half = segment_length // 2
    size = _row_offsets(half, half + 1)
    grid = BispectrumGrid(np.empty(size, dtype=complex), np.empty(size), m, segment_length)
    P = np.abs(F) ** 2
    FT = np.ascontiguousarray(F.T)
    FcT = np.conj(FT)
    off = grid.offsets.tolist()
    power = P.sum(axis=0) / m
    for a in range(half + 1):
        lo, hi = off[a], off[a + 1]
        n = hi - lo
        np.einsum("m,km,km->k", FT[a], FT[:n], FcT[a : a + n], out=grid.values[lo:hi])
        pair_power = np.einsum("m,mk->k", P[:, a], P[:, :n])
        pair_power /= m
        np.multiply(pair_power, power[a : a + n], out=grid.norm[lo:hi])
    grid.values /= m
    return grid


def bispectrum(F: np.ndarray) -> BispectrumGrid:
    """Single-segment triple products F(k1) F(k2) conj(F(k1+k2)) of the N coefficients F."""
    n = len(F)
    if n < 8:
        raise DomainTooSmall(f"need N >= 8, got {n}")
    return _average_triple_products(F[None, : n // 2 + 1], n)


_WINDOWS = ("rectangular", "hann")
_DETRENDS = ("none", "demean", "linear")


# each option rule returns its value or raises ValueError; the CLI runs them on its flags
def _check_segment_length(segment_length: int) -> int:
    if segment_length < 8 or segment_length & (segment_length - 1):
        raise ValueError(f"segment_length must be a power of two >= 8, got {segment_length}")
    return segment_length


def _check_overlap(overlap_fraction: float) -> float:
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError(f"overlap_fraction must be in [0, 1), got {overlap_fraction}")
    return overlap_fraction


def _check_grid_params(n_samples: int, segment_length: int, overlap_fraction: float,
                       window: str, detrend: str) -> None:
    """The rules on the parameters of ``segmented_bispectrum`` on a series of
    ``n_samples`` samples."""
    if segment_length > n_samples:
        raise SegmentTooLong(f"segment_length {segment_length} > series length {n_samples}")
    _check_segment_length(segment_length)
    _check_overlap(overlap_fraction)
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {_WINDOWS}")
    if detrend not in _DETRENDS:
        raise ValueError(f"detrend must be one of {_DETRENDS}")


def _check_segments(segments: int, segment_length: int | None) -> int:
    """A target segment count, which leaves the length to be picked: not with one given."""
    if segments < 1 or segment_length is not None:
        raise ValueError(f"give segment_length or segments >= 1, not both; got {segments=}")
    return segments


def _check_threshold(threshold: float | str) -> float | str:
    """The threshold as ``detect_hotspots`` takes it: "auto", or a float in (0, 1)."""
    if threshold == "auto":
        return threshold
    threshold = float(threshold)
    # the map is 0 outside the domain, so only a positive threshold keeps those
    # cells out; b^2 <= 1, so no cell can exceed a threshold of 1 or more
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold!r}")
    return threshold


def segmented_bispectrum(
    series: TimeSeries,
    segment_length: int,
    overlap_fraction: float = 0.0,
    window: str = "rectangular",
    detrend: str = "demean",
) -> BispectrumGrid:
    """Ensemble-averaged bispectrum over overlapping segments.

    Each segment is detrended, windowed, transformed, and its triple
    products and normalizers are averaged arithmetically over all M full
    segments; samples after the last full segment are not used.  The
    reduction order is fixed, so results are bit-stable across runs.

    A detrended segment under the rectangular window has no DC term, so its
    k = 0 coefficient is set to exactly 0: the k = 0 row and column of the
    bicoherence read 0 and are not tested bins.
    """
    v = series.values
    _check_grid_params(len(v), segment_length, overlap_fraction, window, detrend)

    step = max(1, int(round(segment_length * (1.0 - overlap_fraction))))
    seg = np.lib.stride_tricks.sliding_window_view(v, segment_length)[::step]
    if detrend == "demean":
        seg = seg - seg.mean(axis=1, keepdims=True)
    elif detrend == "linear":
        t = np.arange(segment_length)
        slope, intercept = np.polyfit(t, seg.T, 1)
        seg = seg - (slope[:, None] * t + intercept[:, None])
    if window == "hann":
        seg = seg * np.hanning(segment_length)
    F = np.fft.rfft(seg, axis=1)
    del seg  # the detrended or windowed copy is not needed once F exists
    if detrend != "none" and window == "rectangular":
        # detrending leaves only roundoff at k = 0, and b^2 of roundoff is noise
        F[:, 0] = 0.0
    return _average_triple_products(F, segment_length)


def _b2(values, den):
    # one grid-sized buffer: |values|, squared and divided in place, 0 where den is not > 0
    b2 = np.abs(values)
    np.square(b2, out=b2)
    tested = den > 0
    np.divide(b2, den, out=b2, where=tested)
    b2[~tested] = 0.0
    return b2


def bicoherence(grid: BispectrumGrid) -> np.ndarray:
    """Normalized squared bispectrum b^2 in [0, 1], flat over the principal domain."""
    return _b2(grid.values, grid.norm)


def auto_threshold(grid: BispectrumGrid) -> float:
    """Scale-free detection threshold for the bicoherence map.

    Under independent phases b^2 at one bin behaves like Beta(1, M-1), so
    the whole-grid maximum grows like log(G)/M with G tested bins.  The
    threshold (log G + 15)/M keeps the family-wise false-positive rate at
    the percent level for desk-scale grids; the 6/M and 0.2 terms keep a
    floor for tiny grids and the 0.8 cap preserves detectability of
    near-perfect coupling at small M.
    """
    tested, m = np.count_nonzero(grid.norm > 0), grid.segments_averaged
    return min(0.8, max(6.0 / m, 0.2, (math.log(max(1, tested)) + 15.0) / m))


def detect_hotspots(
    grid: BispectrumGrid,
    threshold: float | str = "auto",
    min_segments: int = 16,
) -> HotspotReport:
    """Find local bicoherence maxima above threshold and classify the series.

    ``threshold`` is "auto" (``auto_threshold``) or a number in (0, 1).

    Verdict is Inconclusive when fewer than ``min_segments`` segments were
    averaged or no bin has a positive normalizer product (no signal power),
    else PhaseCorrelated iff any hotspot is found, and
    FullyDevelopedTurbulenceConsistent otherwise.
    """
    thr = _check_threshold(threshold)
    thr = auto_threshold(grid) if thr == "auto" else thr
    b2 = bicoherence(grid)
    i = np.flatnonzero(b2 > thr)
    k1, k2 = grid.coords(i)
    # a peak is at least each of its eight neighbours, read through the fold with
    # a cell outside the domain as 0; an index clipped at the map's edge only
    # repeats a cell that is compared anyway
    peak = np.ones(len(i), dtype=bool)
    for d1 in (-1, 0, 1):
        for d2 in (-1, 0, 1):
            j = grid.flat_index(np.clip(k1 + d1, 0, grid.half), np.clip(k2 + d2, 0, grid.half))
            peak &= b2[i] >= np.where(j >= 0, b2[j], 0.0)
    hotspots = [
        (a, b, float(b2[j]), abs(complex(grid.values[j])))
        for a, b, j in zip(k1[peak].tolist(), k2[peak].tolist(), i[peak].tolist())
    ]
    hotspots.sort(key=lambda h: h[2], reverse=True)

    if grid.segments_averaged < min_segments or not np.any(grid.norm > 0):
        verdict = Verdict.INCONCLUSIVE
    elif hotspots:
        verdict = Verdict.PHASE_CORRELATED
    else:
        verdict = Verdict.FULLY_DEVELOPED_TURBULENCE_CONSISTENT
    return HotspotReport(hotspots=hotspots, threshold_used=thr, verdict=verdict,
                         segments_averaged=grid.segments_averaged)


def analyze(series: TimeSeries, segment_length: int | None = None, *, segments: int | None = None,
            overlap_fraction=0.0, window="rectangular", detrend="demean", threshold="auto",
            min_segments=16) -> tuple[BispectrumGrid, HotspotReport]:
    """The grid of ``segmented_bispectrum`` and its ``detect_hotspots`` report.

    Give ``segment_length`` or a target count of ``segments`` (64 if neither),
    which picks the largest power of two >= 8 that fits ``len(series) // segments``.
    """
    if segments is not None:
        _check_segments(segments, segment_length)
    if segment_length is None:
        segment_length = 1 << max(3, (len(series) // (segments or 64)).bit_length() - 1)
    grid = segmented_bispectrum(series, segment_length, overlap_fraction, window, detrend)
    return grid, detect_hotspots(grid, threshold, min_segments)
