import re

import numpy as np
import pytest

import phasecorr.io as io
from phasecorr import BispectrumGrid, TimeSeries, bicoherence, segmented_bispectrum
from phasecorr.errors import FileUnreadable
from phasecorr.io import check_array, read_series_csv, save_array, write_series_csv

from oracles import domain_pairs, legacy_read_series_csv

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


# value cells numpy's reader parses as float does; the non-finite ones, rarer,
# make the series an error
BULK_VALUES = [" 2.5 ", "\xa03.5\xa0", "\u3000" "6.5", "7.5\u2028", "4.5\x85", "+.5", "1e2",
               "-0.0", "5e-324", "1e-400"]
NON_FINITE_VALUES = ["nan", "-inf", "Infinity", "1e400", "-1e400"]
# value cells numpy's reader rejects and float takes
LOOP_VALUES = ["1_000", "\uff11.\uff15", "1_2.5e-3"]
# value cells neither takes
BAD_VALUES = ['"4.5"', "", "abc", "0x10", "1.5.2", "nan(1)"]
UNSAFE_BYTES = ["\x00", "\x1c", "\x1d", "\x1e", "\x1f"]


def write_series_fuzz(path, seed: int):
    """Seeded ``t,value`` files: most with only what numpy's reader reads as
    the line loop does, the rest with rows, lines or bytes where they part."""
    rng = np.random.default_rng(seed)
    eol = str(rng.choice(["\n", "\r\n", "\r"]))
    # the share of rows with a defect numpy's reader rejects or may read apart
    defects = float(rng.choice([0.0, 0.0, 0.01, 0.04]))
    n_rows = int(rng.choice([0, 1, 3, 40, 40, 40, 40, 40]))
    lines = ["t,value"]
    for t in range(n_rows):
        value = repr(float(rng.normal() * 10.0 ** rng.integers(-8, 8)))
        if rng.random() < 0.05:
            value = str(rng.choice(BULK_VALUES))
        elif rng.random() < 0.003:
            value = str(rng.choice(NON_FINITE_VALUES))
        cells = [str(t), value]
        if rng.random() < 0.05:
            cells += ["x"] * int(rng.integers(1, 3))
        if rng.random() < defects:
            kind = int(rng.integers(6))
            if kind == 0:
                cells = cells[:1]
            elif kind == 1:
                cells[1] = str(rng.choice(BAD_VALUES))
            elif kind == 2:
                at = int(rng.choice([0, rng.integers(len(cells[1]) + 1), len(cells[1])]))
                cells[1] = cells[1][:at] + str(rng.choice(UNSAFE_BYTES)) + cells[1][at:]
            elif kind == 3:
                cells[1] = str(rng.choice(LOOP_VALUES))
            else:
                lines.append(str(rng.choice([" ", "\t", " \t ", "\x0c"])))
        if rng.random() < 0.05:
            lines.append("")
        lines.append(",".join(cells))
    if defects and rng.random() < 0.15:
        # a bad first or last row
        lines.insert(1 if rng.random() < 0.5 else len(lines), str(rng.choice(["7", "1,abc", "2,"])))
    text = eol.join(lines) + (eol if rng.random() < 0.8 else "")
    bom = "\ufeff" if rng.random() < 0.2 else ""
    path.write_bytes((bom + text).encode())
    return path


def read_either(reader, path):
    """The series' bytes, or the type and message of what the reader raised."""
    try:
        return reader(path).values.tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def loop_reads(monkeypatch):
    """The lines the line loop reads, one entry each time ``read_series_csv`` turns to it."""
    calls = []
    read_rows = io._read_rows

    def spy(lines, path):
        lines = list(lines)
        calls.append(len(lines))
        return read_rows(lines, path)

    monkeypatch.setattr(io, "_read_rows", spy)
    return calls


class TestSeriesReaderMatchesLegacy:
    """numpy's reader and the line loop it falls back to give the loop's
    series bit for bit, or its error with its message."""

    @pytest.mark.parametrize("chunk_rows", [None, 1, 7])
    def test_fuzz(self, tmp_path, monkeypatch, loop_reads, chunk_rows):
        if chunk_rows:
            monkeypatch.setattr(io, "_CHUNK_ROWS", chunk_rows)
        outcomes = dict.fromkeys(["bulk", "bulk-error", "loop", "loop-error"], 0)
        for seed in range(800):
            path = write_series_fuzz(tmp_path / f"s{seed}.csv", seed)
            loop_reads.clear()
            got = read_either(read_series_csv, path)
            assert got == read_either(legacy_read_series_csv, path), seed
            outcomes[("loop" if loop_reads else "bulk") + ("-error" if isinstance(got, tuple)
                                                           else "")] += 1
        # each reader ran on files it reads and on files that raise
        assert min(outcomes.values()) >= 40, outcomes

    @pytest.mark.parametrize("text", [
        "t,value\n", "t,value", "\ufefft,value\r\n", "t,value\n\n\n",
        "t,value\n7\n0,1.5\n1,2.5\n", "t,value\n0,1.5\n1,2.5\n1,abc\n",
        "t,value\n0,1.5\n1,2.5\n2,", "t,value\n0,1_000\n1,2.5\n",
        "t,value\n0,1.5\n \n1,2.5\n", "t,value\n0,1.5\x00\n1,2.5\n",
        "t,value\r0,1.5,x,y\r1\x1f,2.5\r", "t,value\n0,nan\n1,2.5\n", "t,value\n0,1.5\n",
        "value,t\n0,1.5\n1,2.5\n", "",
    ], ids=["header-only", "header-no-eol", "bom-header-only", "blank-lines-only",
            "bad-first-row", "bad-last-row", "empty-last-cell", "underscore",
            "whitespace-line", "nul", "extra-columns-us", "nan", "one-row",
            "wrong-header", "empty-file"])
    def test_edge_cases(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        assert read_either(read_series_csv, path) == read_either(legacy_read_series_csv, path)

    @pytest.mark.parametrize("rows", [5000, 70_000])
    def test_not_utf8(self, tmp_path, rows):
        # in the first chunk numpy's reader would read, or after it
        path = tmp_path / "s.csv"
        path.write_bytes(b"t,value\n" + b"0,1.5\n" * rows + b"1,\xe9\n2,2.5\n")
        got = read_either(read_series_csv, path)
        assert got == read_either(legacy_read_series_csv, path)
        assert got[0] is FileUnreadable and "cannot read" in got[1]

    def test_clean_file_skips_the_loop(self, tmp_path, loop_reads):
        # blank lines, CR ends, extra columns and a byte-order mark are numpy's to read
        v = awkward_values(70_001)
        write_series_csv(tmp_path / "s.csv", TimeSeries(v))
        assert read_series_csv(tmp_path / "s.csv").values.tobytes() == v.tobytes()
        path = tmp_path / "odd.csv"
        path.write_bytes(b"\xef\xbb\xbft,value\r0,1.5,x\r\r1,-2.0\r")
        assert read_series_csv(path).values.tolist() == [1.5, -2.0]
        assert loop_reads == []

    @pytest.mark.parametrize("row", ["1, ", "1,1_000", "1,1.5\x1c"],
                             ids=["whitespace-cell", "underscore", "unsafe-byte"])
    def test_rejected_file_runs_the_loop_once(self, tmp_path, loop_reads, row):
        path = tmp_path / "s.csv"
        path.write_text(f"t,value\n0,1.5\n{row}\n2,2.5\n")
        read_either(read_series_csv, path)
        assert loop_reads == [3]

    @pytest.mark.parametrize("bad", [9, 12, 19])
    def test_loop_resumes_at_rejected_chunk(self, tmp_path, monkeypatch, loop_reads, bad):
        # chunks of 4 lines: numpy's reader keeps the chunks before the one
        # holding the whitespace-only line, and the loop reads from that one on
        monkeypatch.setattr(io, "_CHUNK_ROWS", 4)
        lines = [f"{t},{t + 0.5!r}" for t in range(20)]
        lines[bad] = " "
        path = tmp_path / "s.csv"
        path.write_text("t,value\n" + "\n".join(lines) + "\n")
        assert read_series_csv(path).values.tobytes() == \
               legacy_read_series_csv(path).values.tobytes()
        assert loop_reads == [20 - bad // 4 * 4]


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
