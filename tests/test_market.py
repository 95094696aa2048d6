import csv
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest

import phasecorr.io as io
import phasecorr.market as market
from phasecorr import (
    TriadSpec,
    Verdict,
    analyze,
    build_series,
    gen_triad,
    load_ohlc_csv,
)
from phasecorr.errors import (
    FileUnreadable,
    LengthTooShort,
    NoValidRows,
    PhasecorrError,
    SchemaMismatch,
)

from oracles import legacy_load_ohlc_csv


def write_fixture(path, rows, header="datetime,open,high,low,close,volume"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


VALID_ROWS = [
    "2020-01-06 09:15,100,101,99.5,100.5,1000",
    "2020-01-06 09:16,100.5,102,100,101,1200",
    "2020-01-06 09:17,101,101.5,100.2,100.4,900",
]


class TestLoadOhlcCsv:
    def test_valid_fixture(self, tmp_path):
        ticks, report = load_ohlc_csv(write_fixture(tmp_path / "ok.csv", VALID_ROWS))
        assert len(ticks.timestamps) == 3
        assert report.n_records_in == 3
        assert report.n_records_out == 3
        assert report.n_dropped_invalid == 0
        assert report.sessions_detected == 1

    def test_high_below_low_dropped(self, tmp_path):
        rows = VALID_ROWS + ["2020-01-06 09:18,100,99,101,100,500"]
        ticks, report = load_ohlc_csv(write_fixture(tmp_path / "bad.csv", rows))
        assert len(ticks.timestamps) == 3
        assert report.n_dropped_invalid == 1

    def test_duplicate_minute_dropped(self, tmp_path):
        rows = VALID_ROWS + ["2020-01-06 09:17,101,102,100,101,800"]
        ticks, report = load_ohlc_csv(write_fixture(tmp_path / "dup.csv", rows))
        assert len(ticks.timestamps) == 3
        stamps = ticks.timestamps.tolist()
        assert stamps == sorted(set(stamps))

    def test_gap_counts_sessions(self, tmp_path):
        rows = VALID_ROWS + ["2020-01-07 09:15,101,102,100,101,800"]
        _, report = load_ohlc_csv(write_fixture(tmp_path / "gap.csv", rows))
        assert report.n_gaps == 1
        assert report.sessions_detected == 2

    def test_schema_mismatch(self, tmp_path):
        path = write_fixture(tmp_path / "cols.csv", ["x"], header="time,open,high,low,close,volume")
        with pytest.raises(SchemaMismatch):
            load_ohlc_csv(path)

    def test_schema_remap(self, tmp_path):
        rows = ["2020-01-06 09:15,100,101,99.5,100.5,1000",
                "2020-01-06 09:16,100.5,102,100,101,1200"]
        path = write_fixture(tmp_path / "remap.csv", rows,
                             header="Date,open,high,low,close,volume")
        ticks, _ = load_ohlc_csv(path, schema={"datetime": "Date"})
        assert len(ticks.timestamps) == 2

    def test_byte_order_mark_skipped(self, tmp_path):
        plain = write_fixture(tmp_path / "plain.csv", VALID_ROWS)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        (ticks, report), (want, want_report) = load_ohlc_csv(bom), load_ohlc_csv(plain)
        for name in ("timestamps", "open", "high", "low", "close", "volume"):
            assert getattr(ticks, name).tobytes() == getattr(want, name).tobytes()
        assert report == want_report

    @pytest.mark.parametrize("brk", ["\x0c", "\x85", "\u2028"],
                             ids=["form-feed", "next-line", "line-separator"])
    def test_line_break_in_cell_stays_in_row(self, tmp_path, brk):
        # str.splitlines would end a row at each of these; only CR, LF and CRLF do
        path = tmp_path / "note.csv"
        path.write_text("datetime,open,high,low,close,volume,note\n"
                        + "".join(f"{row},a{brk}b\n" for row in VALID_ROWS), encoding="utf-8")
        ticks, report = load_ohlc_csv(path)
        assert (report.n_records_in, report.n_dropped_invalid) == (3, 0)
        assert len(ticks.timestamps) == 3

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"datetime,open,high,low,close,volume\n"
                         + VALID_ROWS[0].encode() + b"\xff\n")
        with pytest.raises(FileUnreadable, match="cannot read"):
            load_ohlc_csv(path)

    def test_not_utf8_after_chunks(self, tmp_path, monkeypatch):
        # past the text the header read decodes, and some chunks into numpy's
        # reader; the file yields no line after the bad byte
        monkeypatch.setattr(market, "_CHUNK_ROWS", 64)
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"datetime,open,high,low,close,volume\n"
                         + (VALID_ROWS[0].encode() + b"\n") * 2000 + b"\xff\n"
                         + VALID_ROWS[1].encode() + b"\n")
        with pytest.raises(FileUnreadable, match="cannot read"):
            load_ohlc_csv(path)

    @pytest.mark.parametrize("short_row", [False, True], ids=["numpy", "csv-reader"])
    def test_cell_beyond_field_limit(self, tmp_path, short_row):
        # csv.reader refuses a cell longer than csv.field_size_limit(); numpy's
        # reader skips it in a column it does not use, until a short row hands
        # the file to csv.reader
        t0 = datetime(2020, 1, 6, 9, 15)
        rows = [f"{t0 + timedelta(minutes=i):%Y-%m-%d %H:%M},100,101,99.5,100.5,1000,"
                + ("x" * 200_000 if i == 4 else "ok") for i in range(10)]
        rows += ["2020-01-06 10:00,100"] if short_row else []
        path = write_fixture(tmp_path / "long.csv", rows,
                             header="datetime,open,high,low,close,volume,note")
        if short_row:
            with pytest.raises(FileUnreadable, match="cannot read .*field larger than field limit"):
                load_ohlc_csv(path)
        else:
            assert load_ohlc_csv(path)[1].n_records_out == 10

    def test_no_valid_rows(self, tmp_path):
        path = write_fixture(tmp_path / "junk.csv", ["garbage,1,2,3,4,5"])
        with pytest.raises(NoValidRows):
            load_ohlc_csv(path)

    def test_non_positive_price_dropped(self, tmp_path):
        rows = VALID_ROWS + ["2020-01-06 09:18,0,1,0,0.5,100"]
        _, report = load_ohlc_csv(write_fixture(tmp_path / "zero.csv", rows))
        assert report.n_dropped_invalid == 1

    def test_out_of_order_counted_separately(self, tmp_path):
        rows = VALID_ROWS + ["2020-01-06 09:16,101,102,100,101,800"]  # an earlier minute
        ticks, report = load_ohlc_csv(write_fixture(tmp_path / "ooo.csv", rows))
        assert len(ticks.timestamps) == 3
        assert report.n_dropped_out_of_order == 1
        assert report.n_dropped_duplicate == 0

    def test_peak_memory_bounded_by_file_size(self, tmp_path, monkeypatch):
        import tracemalloc

        monkeypatch.setattr(market, "_CHUNK_ROWS", 1024)
        start = datetime(2020, 1, 6, 9, 15)
        rng = np.random.default_rng(3)
        rows = []
        for i, c in enumerate((100.0 + rng.normal(size=20_000).cumsum() * 0.05).tolist()):
            rows.append(f"{start + timedelta(minutes=i):%Y-%m-%d %H:%M},"
                        f"{c:.6f},{c + 0.1:.6f},{c - 0.1:.6f},{c:.6f},{i % 997}")
        path = write_fixture(tmp_path / "many_chunks.csv", rows)
        tracemalloc.start()
        try:
            load_ohlc_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # neither the whole text nor a list of its lines may be held through the parse
        assert peak < 2.8 * path.stat().st_size

    def test_peak_memory_bounded_after_rejected_chunk(self, tmp_path, monkeypatch):
        import tracemalloc

        # a short first row hands the whole file to csv.reader: the lines numpy's
        # reader left behind must not pile up while csv.reader reads on
        monkeypatch.setattr(market, "_CHUNK_ROWS", 1024)
        start = datetime(2020, 1, 6, 9, 15)
        rows = ["2020-01-06 09:00,100"]
        for i in range(20_000):
            c = 100.0 + (i % 89) * 0.01
            rows.append(f"{start + timedelta(minutes=i):%Y-%m-%d %H:%M},"
                        f"{c:.6f},{c + 0.1:.6f},{c - 0.1:.6f},{c:.6f},{i % 997}")
        path = write_fixture(tmp_path / "short_first.csv", rows)
        tracemalloc.start()
        try:
            _, report = load_ohlc_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_records_in == 20_001
        assert peak < 2.8 * path.stat().st_size

    def test_columns(self, tmp_path):
        ticks, _ = load_ohlc_csv(write_fixture(tmp_path / "ok.csv", VALID_ROWS))
        assert ticks.timestamps.dtype == np.dtype("datetime64[s]")
        assert ticks.timestamps.tolist() == [datetime(2020, 1, 6, 9, m) for m in (15, 16, 17)]
        assert ticks.close.tolist() == [100.5, 101.0, 100.4]
        columns = (ticks.timestamps, ticks.open, ticks.high, ticks.low, ticks.close, ticks.volume)
        assert [col[1].item() for col in columns] == [datetime(2020, 1, 6, 9, 16), 100.5, 102.0,
                                                      100.0, 101.0, 1200.0]


class TestBuildSeries:
    def fixture_ticks(self, tmp_path, closes):
        rows = []
        for i, c in enumerate(closes):
            h, m = divmod(i, 60)
            rows.append(f"2020-01-06 {9 + h:02d}:{m:02d},{c},{c + 1},{c - 1},{c},100")
        ticks, _ = load_ohlc_csv(write_fixture(tmp_path / "b.csv", rows))
        return ticks

    def test_raw_close(self, tmp_path):
        ticks = self.fixture_ticks(tmp_path, [100, 101, 100.5])
        s = build_series(ticks)
        assert np.allclose(s.values, [100, 101, 100.5])

    def test_log_return(self, tmp_path):
        ticks = self.fixture_ticks(tmp_path, [100, 101, 100.5])
        s = build_series(ticks, transform="log_return")
        assert np.allclose(s.values, [np.log(1.01), np.log(100.5 / 101)])

    def test_demean_constant_is_zero(self, tmp_path):
        ticks = self.fixture_ticks(tmp_path, [100.0, 100.0, 100.0])
        s = build_series(ticks, transform="demean")
        assert np.abs(s.values).max() < 1e-12 * 100.0

    def test_mid_field(self, tmp_path):
        ticks = self.fixture_ticks(tmp_path, [100, 102])
        s = build_series(ticks, price_field="mid")
        assert np.allclose(s.values, [100, 102])  # (c+1 + c-1)/2 = c

    def test_too_short(self, tmp_path):
        ticks = self.fixture_ticks(tmp_path, [100, 101])
        with pytest.raises(LengthTooShort):
            build_series(ticks, transform="log_return")

    @pytest.mark.parametrize("kw, match", [
        ({"price_field": "high"}, "price_field"), ({"transform": "diff"}, "transform")])
    def test_unknown_option_rejected(self, tmp_path, kw, match):
        ticks = self.fixture_ticks(tmp_path, [100, 101, 100.5])
        with pytest.raises(ValueError, match=match):
            build_series(ticks, **kw)


def triad_ohlc_fixture(tmp_path, coupled, name):
    spec = TriadSpec(
        omega_alpha=0.22, omega_beta=0.375,
        coupling="phase_sum" if coupled else "independent",
        n_samples=32 * 1024, seed=17, phase_block=1024,
    )
    values = 100.0 + gen_triad(spec).values
    rows = []
    session_start = datetime(2020, 1, 6, 9, 0)
    minute = 0
    for raw in values:
        v = float(raw)
        ts = session_start + timedelta(minutes=minute)
        rows.append(
            f"{ts:%Y-%m-%d %H:%M},{v!r},{v + 0.01!r},{v - 0.01!r},{v!r},10"
        )
        minute += 1
        if minute == 8 * 60:  # 8-hour synthetic sessions
            minute = 0
            session_start += timedelta(days=1)
    return write_fixture(tmp_path / name, rows)


class TestEndToEndPipeline:
    def analyze(self, path):
        ticks, _ = load_ohlc_csv(path)
        _, rep = analyze(build_series(ticks), 1024)
        return rep

    def test_coupled_triad_detected(self, tmp_path):
        rep = self.analyze(triad_ohlc_fixture(tmp_path, True, "coupled.csv"))
        assert rep.verdict is Verdict.PHASE_CORRELATED

    def test_uncoupled_triad_null(self, tmp_path):
        rep = self.analyze(triad_ohlc_fixture(tmp_path, False, "uncoupled.csv"))
        assert rep.verdict is Verdict.FULLY_DEVELOPED_TURBULENCE_CONSISTENT


# -- the columnar loader against the row-at-a-time one ------------------------

def assert_matches_legacy(path, schema=None):
    """Same errors, counts, kept timestamps and OHLCV bits as the old loader.

    The old loader counted out-of-order rows as duplicates, and it split the
    text with ``str.splitlines``, which also ends a row at \\x0b, \\x0c,
    \\x1c-\\x1e, \\x85, \\u2028 and \\u2029, where the new one ends a row
    only at CR, LF and CRLF.  The files compared here hold none of those
    characters, so the first is the only expected difference.
    """
    try:
        old_records, old = legacy_load_ohlc_csv(path, schema)
    except PhasecorrError as exc:
        with pytest.raises(type(exc)):
            load_ohlc_csv(path, schema)
        return None
    ticks, report = load_ohlc_csv(path, schema)
    new = dict(vars(report))
    assert new.pop("n_dropped_duplicate") + new.pop("n_dropped_out_of_order") == \
        old.pop("n_dropped_duplicate")
    assert new == old
    cols = list(zip(*old_records))
    assert ticks.timestamps.dtype == np.dtype("datetime64[s]")
    assert ticks.timestamps.tolist() == list(cols[0])
    for name, col in zip(("open", "high", "low", "close", "volume"), cols[1:]):
        assert getattr(ticks, name).tobytes() == np.array(col, dtype=float).tobytes()
    return report


ODD_STAMPS = [
    "2020-02-30 09:15", "2021-02-29 10:00", "2020-02-29 10:00", "1900-02-29 10:00",
    "2000-02-29 10:00", "2020-13-01 10:00", "2020-00-10 10:00", "2020-01-00 10:00",
    "2020-04-31 10:00", "2020-01-06 24:00", "2020-01-06 09:60", "2020-01-06 09:15:60",
    "2020-01-06 09:15:61", "0000-01-01 00:00", "0001-01-01 00:00", "not-a-time", "",
    "２０２０-01-06 09:15", "2020-01-06T09:15", "2020-01-06 09:15:00.5",
    "2020/01/06 09:15", "20-01-06 09:15",
]
ODD_NUMBERS = ["nan", "inf", "-inf", "1_000", " 100.25 ", "", "abc", "1e2", "-5", "0", "-0.0"]
# odd cells numpy's reader parses as numbers, as float does
BULK_NUMBERS = ["nan", "inf", "-inf", " 100.25 ", "\xa0100.5\xa0", "1e400", "-1e400", "1e2", "-5",
                "0", "-0.0", "+.5", "Infinity", "nAn"]


def _fuzz_stamp(rng, t: datetime) -> str:
    kind = int(rng.integers(16))
    if kind < 8:
        return f"{t:%Y-%m-%d %H:%M}"
    if kind == 8:
        return f"{t:%Y-%m-%d %H:%M}:00"
    if kind == 9:
        return f"{t:%Y-%m-%d %H:%M}:{int(rng.integers(60)):02d}"
    if kind == 10:
        return f"{t.year}-{t.month}-{t.day} {t.hour}:{t.minute}"
    if kind == 11:
        return f" {t:%Y-%m-%d}  {t:%H:%M} "
    if kind == 12:
        return str(rng.choice(ODD_STAMPS))
    return f"{t:%Y-%m-%d %H:%M}"


def _fuzz_number(rng, x: float, odd=ODD_NUMBERS) -> str:
    r = rng.random()
    if r < 0.04:
        return str(rng.choice(odd))
    if r < 0.06:
        return f'"{x!r}"'
    return repr(x) if r < 0.5 else f"{x:.4f}"


def write_fuzz_file(path, seed: int, n_rows: int = 150, bulk: bool = False):
    """Seeded OHLCV rows with every kind of defect the loader must handle.

    With ``bulk``, only the defects numpy's reader reads: no short or long
    rows, whitespace-only lines or number cells it cannot parse.
    """
    rng = np.random.default_rng(seed)
    odd = BULK_NUMBERS if bulk else ODD_NUMBERS
    t = datetime(int(rng.integers(1990, 2030)), int(rng.integers(1, 13)), 28, 23, 45)
    lines = ["datetime,open,high,low,close,volume"]
    for _ in range(n_rows):
        step = rng.random()
        if step < 0.80:
            t += timedelta(minutes=1)
        elif step < 0.86:
            t += timedelta(minutes=int(rng.integers(2, 600)))
        elif step < 0.90:
            t -= timedelta(minutes=int(rng.integers(1, 5)))
        # else: the same minute again
        o, c = 100.0 + rng.normal(size=2)
        h, l = max(o, c) + rng.random(), min(o, c) - rng.random()
        cells = [_fuzz_stamp(rng, t)] + [_fuzz_number(rng, float(x), odd) for x in (o, h, l, c)]
        cells.append(_fuzz_number(rng, float(rng.integers(0, 5000)), odd))
        shape = 1.0 if bulk else rng.random()
        if shape < 0.03:
            cells = cells[:int(rng.integers(1, 6))]
        elif shape < 0.06:
            cells += ["x"] * int(rng.integers(1, 3))
        if rng.random() < 0.03:
            lines.append("" if rng.random() < 0.7 or bulk else " ")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def csv_reads(monkeypatch):
    """The rows ``csv.reader`` reads, one entry each time ``load_ohlc_csv`` turns to it."""
    calls = []
    read_rows = market._read_rows

    def spy(*args):
        n_in, chunks = read_rows(*args)
        calls.append(n_in)
        return n_in, chunks

    monkeypatch.setattr(market, "_read_rows", spy)
    return calls


class TestColumnarMatchesLegacy:
    @pytest.mark.parametrize("chunk_rows", [None, 7, 1])
    def test_fuzz(self, tmp_path, monkeypatch, chunk_rows):
        if chunk_rows is not None:
            monkeypatch.setattr(market, "_CHUNK_ROWS", chunk_rows)
        seen = dict.fromkeys(("n_dropped_invalid", "n_dropped_duplicate",
                              "n_dropped_out_of_order", "n_gaps"), 0)
        for seed in range(120):
            report = assert_matches_legacy(write_fuzz_file(tmp_path / f"f{seed}.csv", seed))
            for key in seen:
                seen[key] += getattr(report, key)
        assert min(seen.values()) > 20, seen

    @pytest.mark.parametrize("chunk_rows", [None, 7, 1])
    def test_fuzz_bulk(self, tmp_path, monkeypatch, csv_reads, chunk_rows):
        # every file numpy's reader takes, save those with a stamp it might cut short
        if chunk_rows is not None:
            monkeypatch.setattr(market, "_CHUNK_ROWS", chunk_rows)
        seen = dict.fromkeys(("n_dropped_invalid", "n_dropped_duplicate",
                              "n_dropped_out_of_order", "n_gaps"), 0)
        n_bulk = 0
        for seed in range(120):
            path = write_fuzz_file(tmp_path / f"f{seed}.csv", seed, bulk=True)
            with open(path, newline="") as f:
                cut = any(len(row[0]) >= market._STAMP_WIDTH for row in csv.reader(f) if row)
            report = assert_matches_legacy(path)
            assert len(csv_reads) == cut
            csv_reads.clear()
            n_bulk += not cut
            for key in seen:
                seen[key] += getattr(report, key)
        assert n_bulk > 60
        assert min(seen.values()) > 20, seen

    @pytest.mark.parametrize("row", [
        "2020-01-06 09:15,100,101", " ", "2020-01-06 09:15,,101,99,100,1",
        "2020-01-06 09:15,abc,101,99,100,1",
    ], ids=["short", "whitespace-only", "empty-number", "not-a-number"])
    @pytest.mark.parametrize("where", [1, 75, -1], ids=["first", "middle", "last"])
    def test_ragged_row_falls_back(self, tmp_path, monkeypatch, csv_reads, row, where):
        monkeypatch.setattr(market, "_CHUNK_ROWS", 16)
        path = write_fuzz_file(tmp_path / "ragged.csv", 3, bulk=True)
        lines = path.read_text().splitlines()
        at = where if where > 0 else len(lines)
        lines.insert(at, row)
        path.write_text("\n".join(lines) + "\n")
        report = assert_matches_legacy(path)
        # csv.reader takes over at the chunk numpy rejects, not at the top of the file
        assert len(csv_reads) == 1
        n_bulk = report.n_records_in - csv_reads[0]
        assert n_bulk % 16 == 0
        assert csv_reads[0] <= 16 + sum(1 for line in lines[at:] if line)

    @pytest.mark.parametrize("stamp, kept", [
        ("2020-01-06 09:15    x", False),  # its first 20 characters strip to a valid stamp
        ("2020-01-06        09:15", True),  # valid, but not in its first 20 characters
        (" 2020-01-06 09:15:00 ", True),
    ], ids=["cut-valid", "cut-invalid", "padded"])
    def test_long_stamp_falls_back(self, tmp_path, csv_reads, stamp, kept):
        rows = [f"{stamp},100,101,99,100,1", "2020-01-06 09:16,100,101,99,100,1"]
        path = write_fixture(tmp_path / "long.csv", rows)
        report = assert_matches_legacy(path)
        assert report.n_records_out == 1 + kept
        assert len(csv_reads) == 1

    @pytest.mark.parametrize("blank", [False, True], ids=["no-blank", "blank"])
    def test_whole_chunks_warn_nothing(self, tmp_path, monkeypatch, csv_reads, blank):
        # the read after the last chunk finds no data; numpy would warn of that
        # and of a blank line
        monkeypatch.setattr(market, "_CHUNK_ROWS", 3)
        rows = VALID_ROWS + [f"2020-01-06 09:{m},100,101,99,100,1" for m in (18, 19, 20)]
        path = write_fixture(tmp_path / "whole.csv", rows[:3] + [""] * blank + rows[3:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = load_ohlc_csv(path)
        assert report.n_records_out == 6
        assert not csv_reads

    def test_defects_straddle_chunk_edges_bulk(self, tmp_path, monkeypatch, csv_reads):
        monkeypatch.setattr(market, "_CHUNK_ROWS", 2)
        rows = [
            "2020-01-06 09:15,100,101,99,100,1",
            "2020-01-06 09:16,100,101,99,100,1",
            "2020-01-06 09:16,100,101,99,100,1",  # duplicate of the row before the edge
            "2020-01-06 09:14,100,101,99,100,1",  # out of order
            "",
            "",  # blank lines between chunks
            "2020-01-06 09:20,100,101,99,100,1",  # gap from 09:16 across edges
            "2020-01-06 09:21,100,99,101,100,1",  # high below low
            "2020-01-06 09:21,nan,101,99,100,1",  # nan
            "2020-01-06 09:21,100,101,99,100,1",
            "2020-01-06 09:22,100,101,99,100,1",
        ]
        path = write_fixture(tmp_path / "edges.csv", rows)
        report = assert_matches_legacy(path)
        assert vars(report) == dict(
            n_records_in=9, n_records_out=5, n_gaps=1, n_dropped_invalid=2,
            sessions_detected=2, n_dropped_duplicate=1, n_dropped_out_of_order=1)
        assert not csv_reads

    @pytest.mark.parametrize("row", [
        "2020-01-06 09:15\x00,100,101,99.5,100.5,1000",
        "2020-01-06 09:15,\x1c100,101,99.5,100.5,1000",
        "2020-01-06 09:15,100,101\x1f,99.5,100.5,1000",
    ], ids=["nul-ends-stamp", "fs-before-number", "us-after-number"])
    def test_unsafe_byte_falls_back(self, tmp_path, csv_reads, row):
        # numpy's reader drops a NUL that ends a stamp and reads \x1c-\x1f beside a
        # number as spaces; strptime and float do neither (the old loader, which
        # split rows at \x1c, cannot judge)
        path = write_fixture(tmp_path / "unsafe.csv", [row] + VALID_ROWS[1:])
        ticks, report = load_ohlc_csv(path)
        assert (report.n_records_in, report.n_dropped_invalid) == (3, 1)
        assert ticks.timestamps.tolist() == [datetime(2020, 1, 6, 9, m) for m in (16, 17)]
        assert len(csv_reads) == 1

    def test_defects_straddle_chunk_edges(self, tmp_path, monkeypatch):
        monkeypatch.setattr(market, "_CHUNK_ROWS", 2)
        rows = [
            "2020-01-06 09:15,100,101,99,100,1",
            "2020-01-06 09:16,100,101,99,100,1",
            "2020-01-06 09:16,100,101,99,100,1",  # duplicate of the row before the edge
            "2020-01-06 09:14,100,101,99,100,1",  # out of order
            "",
            "",  # a chunk of blank lines only
            "2020-01-06 09:20,100,101,99,100,1",  # gap from 09:16 across edges
            "2020-01-06 09:21,100,99,101,100,1",  # high below low
            "2020-01-06 09:21,100,101,99,100,1",
            "2020-01-06 09:22,100",
            "2020-01-06 09:23",  # a chunk of short rows only
        ]
        path = write_fixture(tmp_path / "edges.csv", rows)
        report = assert_matches_legacy(path)
        assert vars(report) == dict(
            n_records_in=9, n_records_out=4, n_gaps=1, n_dropped_invalid=3,
            sessions_detected=2, n_dropped_duplicate=1, n_dropped_out_of_order=1)

    @pytest.mark.parametrize("column, cell", [
        (6, '"o\nk"'), (0, '"2020-01-06\n09:{m}"'), (1, '"\n100"'),
    ], ids=["unused", "stamp", "price"])
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_quoted_line_break_at_chunk_edges(self, tmp_path, monkeypatch, chunk_rows, column,
                                              cell):
        # a quoted line break stays in its row, inside a chunk and where the
        # quote opens on a chunk's last line, as csv.reader alone reads it
        monkeypatch.setattr(market, "_CHUNK_ROWS", chunk_rows)
        rows = [[f"2020-01-06 09:{m}", "100", "101", "99", "100.5", "1000", "ok"]
                for m in range(15, 21)]
        for at in range(len(rows)):
            cells = [list(row) for row in rows]
            cells[at][column] = cell.format(m=15 + at)
            path = write_fixture(tmp_path / f"q{at}.csv", [",".join(row) for row in cells],
                                 header="datetime,open,high,low,close,volume,note")
            ticks, report = load_ohlc_csv(path)
            with monkeypatch.context() as patch:
                patch.setattr(io, "_bulk_safe", lambda path: False)
                want, want_report = load_ohlc_csv(path)
            assert want_report.n_records_in == 6
            assert report == want_report, at
            for name in ("timestamps", "open", "high", "low", "close", "volume"):
                assert getattr(ticks, name).tobytes() == getattr(want, name).tobytes(), at

    def test_duplicated_header_name_uses_last_column(self, tmp_path):
        rows = ["2020-01-06 09:15,100,101,99,1,1,100.5",
                "2020-01-06 09:16,100,101,99,2,1,100.25",
                "2020-01-06 09:17,100,101,99,3,1"]  # short: the last close is missing
        path = write_fixture(tmp_path / "dup_header.csv", rows,
                             header="datetime,open,high,low,close,volume,close")
        assert_matches_legacy(path)
        ticks, report = load_ohlc_csv(path)
        assert ticks.close.tolist() == [100.5, 100.25]
        assert report.n_dropped_invalid == 1

    def test_blank_lines_only(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("datetime,open,high,low,close,volume\n\n\n\n")
        assert_matches_legacy(path)
        with pytest.raises(NoValidRows):
            load_ohlc_csv(path)

    @pytest.mark.parametrize("text, error", [("", FileUnreadable), ("\n\n", SchemaMismatch)])
    def test_no_header(self, tmp_path, text, error):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert_matches_legacy(path)
        with pytest.raises(error):
            load_ohlc_csv(path)

    def test_schema_remap(self, tmp_path):
        path = write_fuzz_file(tmp_path / "remap.csv", 5)
        path.write_text(path.read_text().replace("datetime,", "Date,", 1))
        assert_matches_legacy(path, schema={"datetime": "Date"})

    @pytest.mark.parametrize("in_range_only", [True, False], ids=["bulk", "mixed"])
    def test_timestamp_fast_path_matches_strptime(self, in_range_only):
        cells = [f"{y:04d}-{m:02d}-{d:02d} {clock}"
                 for y in (1, 4, 100, 1900, 1970, 2000, 2020, 2021, 2100, 2400, 9999)
                 for m in range(1, 13) for d in (0, 1, 28, 29, 30, 31, 32)
                 for clock in ("00:00", "23:59", "09:15:07", "23:59:59")]
        if in_range_only:
            # every cell a date strptime reads, so numpy parses them in one call
            cells = [c for c in cells if market._parse_timestamp(c) is not None]
            np.fromiter(cells, "datetime64[s]", len(cells))
        else:
            cells += ODD_STAMPS + ["2020-01-06 09:15", "2020-01-06 09:15:00", "2020-1-6 9:17"]
        got = market._parse_timestamps(cells)
        want = np.array([market._parse_timestamp(c) or "NaT" for c in cells], "datetime64[s]")
        assert got.tobytes() == want.tobytes()

    EDGE_NUMBERS = ["1__0", "\u0661\u0662\u0663", "\xa0100.5\xa0", "1e400", "-1e400", "0x10",
                    "1,5", "1e-400", "+.5", "Infinity", "nAn"]

    @pytest.mark.parametrize("kind", ["odd", "mixed", "parseable"])
    def test_float_column_matches_float(self, kind):
        def parse(cell):
            try:
                return float(cell)
            except ValueError:
                return None

        cells = ODD_NUMBERS + self.EDGE_NUMBERS
        if kind == "mixed":
            cells = [c for odd in cells for c in (odd, "100.25", "7")]
        elif kind == "parseable":
            # every cell one float reads, so numpy parses them in one call
            cells = [c for c in cells if parse(c) is not None]
            np.fromiter(cells, np.float64, len(cells))
        got = market._parse_column(cells, np.float64, np.nan)
        want = np.array([np.nan if x is None else x for x in map(parse, cells)])
        assert got.tobytes() == want.tobytes()
