import re
import zipfile

import numpy as np
import pytest

from phasecorr import BispectrumGrid, TimeSeries, bicoherence, segmented_bispectrum
from phasecorr.errors import FileUnreadable
from phasecorr.io import (
    check_array,
    load_grid,
    read_series_csv,
    save_array,
    save_grid,
    write_series_csv,
)

from oracles import domain_pairs

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

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_rows_end_at_cr_or_lf(self, tmp_path, eol):
        path = tmp_path / "s.csv"
        path.write_bytes(eol.join(["t,value", "0,1.5", "1,-2.0", ""]).encode())
        assert read_series_csv(path).values.tolist() == [1.5, -2.0]
        path.write_bytes(eol.join(["t,value", "0,1.5", "1,abc", ""]).encode())
        with pytest.raises(FileUnreadable, match=re.escape("bad row '1,abc'") + "$"):
            read_series_csv(path)

    @pytest.mark.parametrize("sep", ["\u2028", "\f", "\x85"], ids=["u2028", "ff", "nel"])
    def test_other_separators_do_not_split_a_row(self, tmp_path, sep):
        (tmp_path / "s.csv").write_text(f"t,value\n0,1.5{sep}1,2.5\n", encoding="utf-8")
        with pytest.raises(FileUnreadable, match="bad row"):
            read_series_csv(tmp_path / "s.csv")

    def test_byte_order_mark_skipped(self, tmp_path):
        v = awkward_values(1000)
        write_series_csv(tmp_path / "s.csv", TimeSeries(v))
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "s.csv").read_bytes())
        back = read_series_csv(tmp_path / "bom.csv")
        assert back.values.tobytes() == read_series_csv(tmp_path / "s.csv").values.tobytes()


def test_array_npy_round_trip_bit_exact(tmp_path):
    v = awkward_values(70_001)
    save_array(tmp_path / "a.npy", v)
    save_array(tmp_path / "b.npy", v)
    assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()
    back = np.load(tmp_path / "a.npy", allow_pickle=False)
    assert back.dtype == np.float64 and back.tobytes() == v.tobytes()


@pytest.mark.parametrize("n", [0, 1])
def test_check_array_needs_two_samples(tmp_path, n):
    # the rule of TimeSeries, read from the header alone
    save_array(tmp_path / "a.npy", np.zeros(n))
    with pytest.raises(FileUnreadable, match=rf"need at least 2 samples, got shape \({n},\)"):
        check_array(tmp_path / "a.npy")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_array_needs_finite_samples(tmp_path, bad):
    # the rule of TimeSeries, read from the samples
    v = np.zeros(8)
    v[5] = bad
    save_array(tmp_path / "a.npy", v)
    with pytest.raises(FileUnreadable, match="series contains NaN or Inf"):
        check_array(tmp_path / "a.npy")


def small_grid():
    return segmented_bispectrum(TimeSeries(np.random.default_rng(9).normal(size=4096)), 128,
                                window="hann")


class TestGridArchive:
    def test_round_trip_exact(self, tmp_path):
        g = small_grid()
        save_grid(tmp_path / "g.npz", g)
        back = load_grid(tmp_path / "g.npz")
        for name in ("values", "norm", "offsets"):
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

    @pytest.mark.parametrize("case", ["rectangular", "hann", "strided", "0-d-scalars"])
    def test_same_bytes_as_np_savez(self, tmp_path, case):
        # the scalars are Python ints except in the 0-d case, which must stay 0-d
        g = segmented_bispectrum(TimeSeries(np.random.default_rng(12).normal(size=4096)), 128,
                                 window="hann" if case == "hann" else "rectangular")
        if case == "strided":
            values, norm = np.repeat(g.values, 2), np.repeat(g.norm, 3)
            g = BispectrumGrid(values[::2], norm[::3], g.segments_averaged, g.segment_length)
            assert not g.values.flags.c_contiguous and not g.norm.flags.c_contiguous
        elif case == "0-d-scalars":
            g = BispectrumGrid(g.values, g.norm, np.asarray(g.segments_averaged),
                               np.asarray(g.segment_length))
        save_grid(tmp_path / "g.npz", g)
        with open(tmp_path / "want.npz", "wb") as fh:
            np.savez(fh, values=g.values, norm=g.norm, segments_averaged=g.segments_averaged,
                     segment_length=g.segment_length)
        assert (tmp_path / "g.npz").read_bytes() == (tmp_path / "want.npz").read_bytes()

    def test_writes_without_a_copy(self, tmp_path):
        # np.savez would copy values through a tobytes buffer as large as the array
        import tracemalloc

        s = TimeSeries(np.random.default_rng(19).uniform(-1, 1, 64 * 2048))
        g = segmented_bispectrum(s, 2048)
        tracemalloc.start()
        try:
            save_grid(tmp_path / "g.npz", g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * g.values.nbytes

    def test_members_and_size(self, tmp_path):
        g = small_grid()
        save_grid(tmp_path / "g.npz", g)
        with zipfile.ZipFile(tmp_path / "g.npz") as archive:
            members = sorted(archive.namelist())
        assert members == ["norm.npy", "segment_length.npy", "segments_averaged.npy",
                           "values.npy"]
        assert (tmp_path / "g.npz").stat().st_size <= 24 * len(g.values) + 2048

    def test_old_layout_rejected(self, tmp_path):
        # the two normalizers are not multiplied into the missing product
        g = small_grid()
        np.savez(tmp_path / "g.npz", values=g.values, norm_a=g.norm, norm_b=np.ones(len(g.norm)),
                 segments_averaged=g.segments_averaged, segment_length=g.segment_length)
        with pytest.raises(FileUnreadable, match=r"\bnorm\b"):
            load_grid(tmp_path / "g.npz")

    def test_not_an_archive(self, tmp_path):
        (tmp_path / "g.npz").write_text("k1,k2,re,im\n")
        with pytest.raises(FileUnreadable):
            load_grid(tmp_path / "g.npz")
        # np.load gives a plain .npy array back as an ndarray, not an archive
        with open(tmp_path / "g.npz", "wb") as fh:
            np.save(fh, small_grid().values)
        with pytest.raises(FileUnreadable, match="g.npz"):
            load_grid(tmp_path / "g.npz")

    def test_wrong_bin_count(self, tmp_path):
        g = small_grid()
        np.savez(tmp_path / "g.npz", values=g.values[:-1], norm=g.norm,
                 segments_averaged=g.segments_averaged, segment_length=g.segment_length)
        with pytest.raises(FileUnreadable, match="bins"):
            load_grid(tmp_path / "g.npz")

    @pytest.mark.parametrize("field", ["values", "norm", "segments_averaged"])
    def test_bad_shape_or_segment_count(self, tmp_path, field):
        # a 2-D values or norm array, or a grid averaged over no segments
        g = small_grid()
        fields = {name: getattr(g, name) for name in
                  ("values", "norm", "segments_averaged", "segment_length")}
        fields[field] = 0 if field == "segments_averaged" else fields[field][:, None]
        np.savez(tmp_path / "g.npz", **fields)
        with pytest.raises(FileUnreadable, match=field):
            load_grid(tmp_path / "g.npz")

    @pytest.mark.parametrize("segment_length", [-8, 1 << 40])
    def test_segment_length_not_matching_bins(self, tmp_path, segment_length):
        g = small_grid()
        np.savez(tmp_path / "g.npz", values=g.values, norm=g.norm,
                 segments_averaged=g.segments_averaged, segment_length=segment_length)
        with pytest.raises(FileUnreadable, match="bins"):
            load_grid(tmp_path / "g.npz")
