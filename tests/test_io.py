import re

import numpy as np
import pytest

from phasecorr import BispectrumGrid, TimeSeries, bicoherence, segmented_bispectrum
from phasecorr.errors import FileUnreadable
from phasecorr.io import check_array, read_series_csv, save_array, write_series_csv

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


SMALL_GRID = {"segment_length": 128, "window": "hann"}


def small_series():
    return np.random.default_rng(9).normal(size=4096)


def small_grid():
    return segmented_bispectrum(TimeSeries(small_series()), **SMALL_GRID)


def grid_fields(g):
    return {name: getattr(g, name) for name in
            ("values", "norm", "segments_averaged", "segment_length")}


class TestGridArchive:
    """The grid is kept as its series: the saved ``.npy`` series and the grid's
    parameters rebuild it bit for bit, and a grid whose arrays do not fit its
    own layout is not built."""

    def test_round_trip_exact(self, tmp_path):
        g = small_grid()
        save_array(tmp_path / "raw_series.npy", small_series())
        back = segmented_bispectrum(TimeSeries(np.load(tmp_path / "raw_series.npy")),
                                    **SMALL_GRID)
        for name in ("values", "norm", "offsets"):
            assert getattr(back, name).dtype == getattr(g, name).dtype
            assert getattr(back, name).tobytes() == getattr(g, name).tobytes()
        assert (back.segments_averaged, back.segment_length, back.half) == \
               (g.segments_averaged, g.segment_length, g.half)

    def test_same_grid_same_bytes(self, tmp_path):
        grids = []
        for name in ("a.npy", "b.npy"):
            save_array(tmp_path / name, small_series())
            grids.append(segmented_bispectrum(TimeSeries(np.load(tmp_path / name)),
                                              **SMALL_GRID))
        assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()
        for name in ("values", "norm"):
            assert getattr(grids[0], name).tobytes() == getattr(grids[1], name).tobytes()

    def test_plain_np_load_rebuilds_table(self, tmp_path):
        # the snippet the README gives for the (k1, k2, re, im, |B|, b^2) table
        g = small_grid()
        save_array(tmp_path / "raw_series.npy", small_series())
        grid = segmented_bispectrum(TimeSeries(np.load(tmp_path / "raw_series.npy")),
                                    **SMALL_GRID)
        k1, k2 = grid.coords(np.arange(len(grid.values)))
        table = np.column_stack([k1, k2, grid.values.real, grid.values.imag,
                                 np.abs(grid.values), bicoherence(grid)])
        assert table.shape == (len(g.values), 6)
        want1, want2 = domain_pairs(g.half)
        assert np.array_equal(table[:, 0], want1) and np.array_equal(table[:, 1], want2)
        assert np.array_equal(table[:, 5], bicoherence(g))

    def test_wrong_bin_count(self):
        fields = grid_fields(small_grid())
        fields["values"] = fields["values"][:-1]
        with pytest.raises(ValueError, match="bins"):
            BispectrumGrid(**fields)

    @pytest.mark.parametrize("field", ["values", "norm", "segments_averaged"])
    def test_bad_shape_or_segment_count(self, field):
        # a 2-D values or norm array, or a grid averaged over no segments
        fields = grid_fields(small_grid())
        fields[field] = 0 if field == "segments_averaged" else fields[field][:, None]
        with pytest.raises(ValueError, match=field):
            BispectrumGrid(**fields)

    @pytest.mark.parametrize("segment_length", [-8, 1 << 40])
    def test_segment_length_not_matching_bins(self, segment_length):
        fields = grid_fields(small_grid())
        fields["segment_length"] = segment_length
        with pytest.raises(ValueError, match="bins"):
            BispectrumGrid(**fields)
