import math

import numpy as np
import pytest

from phasecorr import BispectrumGrid, TimeSeries, bicoherence, segmented_bispectrum
from phasecorr.errors import FileUnreadable
from phasecorr.io import (
    load_grid,
    read_series_csv,
    save_grid,
    write_heatmap_csv,
    write_series_csv,
    write_snapshot_csv,
    write_spectrum_csv,
)

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
        for name in ("values", "norm_a", "norm_b", "k1", "k2"):
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
        table = np.column_stack([grid.k1, grid.k2, grid.values.real, grid.values.imag,
                                 np.abs(grid.values), bicoherence(grid)])
        assert table.shape == (len(g.values), 6)
        assert np.array_equal(table[:, 0], g.k1) and np.array_equal(table[:, 1], g.k2)
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
    dense = np.zeros((g.half + 1, g.half + 1))
    dense[g.k1, g.k2] = b2
    dense[g.k2, g.k1] = b2
    want = ",".join(["k1\\k2"] + [str(k) for k in range(g.half + 1)]) + "\n" + "".join(
        str(k1) + "," + ",".join(f"{x:.6g}" for x in dense[k1]) + "\n"
        for k1 in range(g.half + 1))
    assert (tmp_path / "h.csv").read_text() == want
