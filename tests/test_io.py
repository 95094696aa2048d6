import math

import numpy as np
import pytest

from phasecorr import (
    BispectrumGrid,
    TimeSeries,
    TriadSpec,
    bicoherence,
    gen_triad,
    segmented_bispectrum,
)
from phasecorr.errors import FileUnreadable
from phasecorr.io import (
    _format_6g,
    load_grid,
    read_series_csv,
    save_grid,
    write_heatmap_csv,
    write_series_csv,
    write_snapshot_csv,
    write_spectrum_csv,
)

from oracles import domain_pairs, legacy_write_heatmap_csv

SPECIAL = [0.0, -0.0, 1.0, -2.5, 1 / 3, 5e-324, 1e-300, 1e300, 123456789.125]


def awkward_values(n):
    """Normal draws spanning many magnitudes, with hand-picked edge values first."""
    rng = np.random.default_rng(8)
    v = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n)
    v[: len(SPECIAL)] = SPECIAL
    return v


class TestSeriesCsv:
    def test_bytes_match_row_format(self, tmp_path):
        # longer than one write chunk, so the chunk seam is covered
        v = awkward_values(70_001)
        write_series_csv(tmp_path / "s.csv", TimeSeries(v))
        want = "t,value\n" + "".join(f"{t},{float(x)!r}\n" for t, x in enumerate(v))
        assert (tmp_path / "s.csv").read_text() == want

    def test_round_trip_bit_exact(self, tmp_path):
        v = awkward_values(70_001)
        write_series_csv(tmp_path / "s.csv", TimeSeries(v))
        back = read_series_csv(tmp_path / "s.csv")
        assert back.values.tobytes() == v.tobytes()

    def test_blank_lines_skipped(self, tmp_path):
        (tmp_path / "s.csv").write_text("t,value\n0,1.5\n\n1,-2.0\n  \n")
        assert read_series_csv(tmp_path / "s.csv").values.tolist() == [1.5, -2.0]

    @pytest.mark.parametrize("row", ["7", "1,abc", "2,"])
    def test_bad_row(self, tmp_path, row):
        (tmp_path / "s.csv").write_text(f"t,value\n0,1.0\n{row}\n3,4.0\n")
        with pytest.raises(FileUnreadable, match="bad row"):
            read_series_csv(tmp_path / "s.csv")

    def test_not_utf8(self, tmp_path):
        (tmp_path / "s.csv").write_bytes(b"t,value\n0,1.0\n1,\xe9\n")
        with pytest.raises(FileUnreadable, match="cannot read"):
            read_series_csv(tmp_path / "s.csv")

    def test_byte_order_mark_skipped(self, tmp_path):
        v = awkward_values(1000)
        write_series_csv(tmp_path / "s.csv", TimeSeries(v))
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "s.csv").read_bytes())
        back = read_series_csv(tmp_path / "bom.csv")
        assert back.values.tobytes() == read_series_csv(tmp_path / "s.csv").values.tobytes()


def test_spectrum_bytes_match_row_format(tmp_path):
    power = np.abs(awkward_values(70_001))
    n = 2 * (len(power) - 1)
    write_spectrum_csv(tmp_path / "p.csv", power, n)
    want = "bin,frequency_rad_per_sample,power\n" + "".join(
        f"{k},{2.0 * math.pi * k / n!r},{float(p)!r}\n" for k, p in enumerate(power))
    assert (tmp_path / "p.csv").read_text() == want


@pytest.mark.parametrize("length", [2.0 * math.pi, 1.0, 7.3])
def test_snapshot_bytes_match_row_format(tmp_path, length):
    u = awkward_values(1024)
    write_snapshot_csv(tmp_path / "s.csv", u, length)
    x = np.arange(len(u)) * (length / len(u))
    want = "x,u\n" + "".join(f"{float(xi)!r},{float(ui)!r}\n" for xi, ui in zip(x, u))
    assert (tmp_path / "s.csv").read_text() == want


def small_grid():
    return segmented_bispectrum(TimeSeries(np.random.default_rng(9).normal(size=4096)), 128,
                                window="hann")


class TestGridArchive:
    def test_round_trip_exact(self, tmp_path):
        g = small_grid()
        save_grid(tmp_path / "g.npz", g)
        back = load_grid(tmp_path / "g.npz")
        for name in ("values", "norm_a", "norm_b", "offsets"):
            assert getattr(back, name).dtype == getattr(g, name).dtype
            assert np.array_equal(getattr(back, name), getattr(g, name))
        assert (back.segments_averaged, back.segment_length, back.half) == \
               (g.segments_averaged, g.segment_length, g.half)

    def test_same_grid_same_bytes(self, tmp_path):
        g = small_grid()
        save_grid(tmp_path / "a.npz", g)
        save_grid(tmp_path / "b.npz", g)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_plain_np_load_rebuilds_table(self, tmp_path):
        # the snippet the README gives for the (k1, k2, re, im, |B|, b^2) table
        g = small_grid()
        save_grid(tmp_path / "g.npz", g)
        grid = BispectrumGrid(**np.load(tmp_path / "g.npz"))
        k1, k2 = grid.coords(np.arange(len(grid.values)))
        table = np.column_stack([k1, k2, grid.values.real, grid.values.imag,
                                 np.abs(grid.values), bicoherence(grid)])
        assert table.shape == (len(g.values), 6)
        want1, want2 = domain_pairs(g.half)
        assert np.array_equal(table[:, 0], want1) and np.array_equal(table[:, 1], want2)
        assert np.array_equal(table[:, 5], bicoherence(g))

    def test_not_an_archive(self, tmp_path):
        (tmp_path / "g.npz").write_text("k1,k2,re,im\n")
        with pytest.raises(FileUnreadable):
            load_grid(tmp_path / "g.npz")

    def test_wrong_bin_count(self, tmp_path):
        g = small_grid()
        np.savez(tmp_path / "g.npz", values=g.values[:-1], norm_a=g.norm_a, norm_b=g.norm_b,
                 segments_averaged=g.segments_averaged, segment_length=g.segment_length)
        with pytest.raises(FileUnreadable, match="bins"):
            load_grid(tmp_path / "g.npz")

    @pytest.mark.parametrize("segment_length", [-8, 1 << 40])
    def test_segment_length_not_matching_bins(self, tmp_path, segment_length):
        g = small_grid()
        np.savez(tmp_path / "g.npz", values=g.values, norm_a=g.norm_a, norm_b=g.norm_b,
                 segments_averaged=g.segments_averaged, segment_length=segment_length)
        with pytest.raises(FileUnreadable, match="bins"):
            load_grid(tmp_path / "g.npz")


def test_heatmap_bytes_match_dense_format(tmp_path):
    g = small_grid()
    write_heatmap_csv(tmp_path / "h.csv", g)
    b2 = bicoherence(g)
    a, b = domain_pairs(g.half)
    dense = np.zeros((g.half + 1, g.half + 1))
    dense[a, b] = b2
    dense[b, a] = b2
    want = ",".join(["k1\\k2"] + [str(k) for k in range(g.half + 1)]) + "\n" + "".join(
        str(k1) + "," + ",".join(f"{x:.6g}" for x in dense[k1]) + "\n"
        for k1 in range(g.half + 1))
    assert (tmp_path / "h.csv").read_text() == want


def six_digit_ties():
    """Exact and near ties at the 6th significant digit, in every fast-path decade."""
    k = np.random.default_rng(31).integers(100_000, 1_000_000, 2000)
    out = []
    for e in range(-5, 7):
        for frac in (0.5, 0.5 - 1e-6, 0.5 + 1e-6, 0.5 - 1e-7, 0.5 + 1e-7):
            t = (k + frac) * 10.0 ** (e - 5)
            out += [t, np.nextafter(t, 0.0), np.nextafter(t, np.inf)]
    return np.concatenate(out)


BOUNDARIES = [9.999995e-05, 0.9999995, 999999.5, 1e6, 1e-4, 99999.95, 999999.4999,
              999999.7, 0.99999971]
BOUNDARIES += [np.nextafter(b, d) for b in BOUNDARIES for d in (0.0, np.inf)]
BOUNDARIES += [10.0 ** p for p in range(-6, 8)]


class TestFormat6g:
    @pytest.mark.parametrize("values", [
        six_digit_ties(),
        BOUNDARIES,
        [0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, -1.0, -0.5, -123.456789,
         -1.23456789e-100, -1e300, 1.7976931348623157e308],
        10.0 ** np.random.default_rng(32).uniform(-12, 8, 100_000),
        np.random.default_rng(33).uniform(0.0, 2e6, 100_000),
    ], ids=["ties", "boundaries", "specials", "log-uniform", "uniform"])
    def test_matches_format(self, values):
        x = np.asarray(values, dtype=float)
        assert _format_6g(x).tolist() == [format(v, ".6g").encode() for v in x.tolist()]


def heatmap_grid(kind, segment_length, window):
    n = 16 * segment_length
    if kind == "triad":
        series = gen_triad(TriadSpec(omega_alpha=0.22, omega_beta=0.375, n_samples=n,
                                     seed=34, phase_block=segment_length))
    else:
        series = TimeSeries(np.random.default_rng(35).normal(size=n))
    return segmented_bispectrum(series, segment_length, window=window)


def assert_heatmap_matches_legacy(tmp_path, grid):
    write_heatmap_csv(tmp_path / "new.csv", grid)
    legacy_write_heatmap_csv(tmp_path / "old.csv", grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestHeatmapAgainstLegacy:
    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    @pytest.mark.parametrize("segment_length", [8, 256, 1024])
    @pytest.mark.parametrize("kind", ["triad", "noise"])
    def test_bytes_equal(self, tmp_path, kind, segment_length, window):
        g = heatmap_grid(kind, segment_length, window)
        assert_heatmap_matches_legacy(tmp_path, g)

    def test_boundary_cells(self, tmp_path):
        # b^2 = |values|^2 where norm_a = norm_b = 1, and 0 where norm_a = 0
        segment_length, size = 64, 289  # BispectrumGrid checks that the size fits
        b2 = np.resize(np.concatenate([BOUNDARIES, six_digit_ties()[::97], [0.0, 1.0, 0.25]]),
                       size)
        norm_a = np.ones(size)
        norm_a[::7] = 0.0
        g = BispectrumGrid(values=np.sqrt(b2) + 0j, norm_a=norm_a, norm_b=np.ones(size),
                           segments_averaged=1, segment_length=segment_length)
        assert_heatmap_matches_legacy(tmp_path, g)
