import hashlib
import inspect
import json
import sys
import time
import types
from datetime import datetime, timedelta

import numpy as np
import pytest
from click.testing import CliRunner

from phasecorr import (
    NoiseSpec,
    SolverConfig,
    TimeSeries,
    TriadSpec,
    analyze,
    build_series,
    load_ohlc_csv,
    power_spectrum,
    segmented_bispectrum,
)
from phasecorr import run as run_simulation
from phasecorr.cli import main
from phasecorr.io import format_hotspot_report, read_series_csv


@pytest.fixture
def runner():
    return CliRunner()


def run_cli(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestGenerate:
    def test_triad_row_count(self, runner, tmp_path):
        out = tmp_path / "run"
        res = run_cli(runner, [
            "generate", "triad", "--coupled", "--omega-a", "0.22", "--omega-b", "0.375",
            "--n", "65536", "--seed", "7", "--out", str(out),
        ])
        assert res.exit_code == 0
        series = read_series_csv(out / "series.csv")
        assert len(series) == 65536
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert "series.csv" in manifest["outputs"]

    def test_noise_row_count(self, runner, tmp_path):
        out = tmp_path / "noise"
        res = run_cli(runner, [
            "generate", "noise", "--kind", "uniform", "--n", "660000", "--seed", "1",
            "--out", str(out),
        ])
        assert res.exit_code == 0
        assert len(read_series_csv(out / "series.csv")) == 660000

    def test_missing_n_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["generate", "noise", "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_reproducible(self, runner, tmp_path):
        args = ["generate", "triad", "--omega-a", "0.3", "--omega-b", "0.5",
                "--n", "256", "--seed", "3"]
        run_cli(runner, args + ["--out", str(tmp_path / "a")])
        run_cli(runner, args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "series.csv").read_bytes() == \
               (tmp_path / "b" / "series.csv").read_bytes()

    @pytest.mark.parametrize("args", [
        ["triad", "--omega-a", "0.22", "--omega-b", "0.375", "--phase-block", "-5"],
        ["triad", "--omega-a", "0.22", "--omega-b", "0.375", "--noise", "nan"],
        ["noise", "--amplitude", "nan"],
    ], ids=["phase-block-negative", "noise-nan", "amplitude-nan"])
    def test_bad_value_exit_2(self, runner, tmp_path, args):
        out = tmp_path / "g"
        res = runner.invoke(main, ["generate"] + args + ["--n", "64", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_config_file_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("n=128\nseed=9\n")
        out = tmp_path / "out"
        res = run_cli(runner, ["generate", "noise", "--n", "64", "--config", str(cfg),
                               "--out", str(out)])
        assert res.exit_code == 0
        # explicit flag beats config file; config file sets the seed
        assert len(read_series_csv(out / "series.csv")) == 64
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9


def write_noise_csv(runner, tmp_path, n=4096):
    out = tmp_path / "noise"
    assert run_cli(runner, ["generate", "noise", "--n", str(n), "--out", str(out)]).exit_code == 0
    return out / "series.csv"


class TestConfigFile:
    def write_config(self, tmp_path, text):
        cfg = tmp_path / "cfg"
        cfg.write_text(text)
        return str(cfg)

    def test_int_value_is_typed(self, runner, tmp_path):
        csv = write_noise_csv(runner, tmp_path)
        out = tmp_path / "an"
        cfg = self.write_config(tmp_path, "# segment count\nsegments=16\n\nmin-segments=8\n")
        res = run_cli(runner, ["analyze", str(csv), "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["segments"] == 16 and isinstance(config["segments"], int)
        assert config["min_segments"] == 8
        assert "seed" not in config

    def test_supplies_required_option(self, runner, tmp_path):
        out = tmp_path / "out"
        cfg = self.write_config(tmp_path, "n=128\n")
        res = run_cli(runner, ["generate", "noise", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        assert len(read_series_csv(out / "series.csv")) == 128

    @pytest.mark.parametrize("command, text, name", [
        (["generate", "noise", "--n", "64"], "kind=foo\n", "--kind"),
        (["generate", "noise", "--n", "64"], "amplitude=abc\n", "--amplitude"),
        (["generate", "triad", "--n", "64", "--omega-a", "0.3", "--omega-b", "0.5"],
         "noise=x\n", "--noise"),
        (["generate", "triad", "--n", "64", "--omega-a", "0.3", "--omega-b", "0.5"],
         "coupled=maybe\n", "--coupled"),
        (["simulate", "burgers"], "steps=many\n", "--steps"),
        (["analyze", "{csv}"], "segments=0\n", "--segments"),
        (["analyze", "{csv}"], "min_segments=-1\n", "--min-segments"),
        (["analyze", "{csv}"], "price_field=mid\n", "--field"),
        (["analyze", "{csv}"], "transform=log_return\n", "--transform"),
        (["analyze", "{csv}"], "price_field=close\n", "--field"),
        (["analyze", "{csv}"], "segments=2\nsegment_length=64\n", "--segment-length"),
        (["analyze", "{csv}"], "overlap=1.5\n", "--overlap"),
        (["analyze", "{csv}"], "segment_length=96\n", "--segment-length"),
        (["analyze", "{csv}"], "threshold=1\n", "--threshold"),
        (["generate", "noise", "--n", "64"], "bogus=1\n", "bogus"),
        (["generate", "noise", "--n", "64"], "n 128\n", "--config"),
        (["generate", "noise"], "n=64\nn=128\n", "'n' given twice"),
        (["analyze", "{csv}"], "min-segments=4\nmin_segments=32\n", "'min_segments' given twice"),
    ], ids=["choice", "float", "float-triad", "bool", "int", "segments-zero",
            "min-segments-negative", "field-without-ohlc", "transform-without-ohlc",
            "default-field-without-ohlc", "both-segment-options", "overlap", "segment-length",
            "threshold-one", "unknown-key", "no-equals", "repeated-key", "repeated-key-spelling"])
    def test_bad_value_exit_2(self, runner, tmp_path, command, text, name):
        csv = write_noise_csv(runner, tmp_path, n=256)
        out = tmp_path / "out"
        args = [a.format(csv=csv) for a in command]
        cfg = self.write_config(tmp_path, text)
        res = runner.invoke(main, args + ["--config", cfg, "--out", str(out)])
        assert res.exit_code == 2
        assert name in res.output
        assert not out.exists()

    def test_byte_order_mark_skipped(self, runner, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn=128\n")
        out = tmp_path / "out"
        res = run_cli(runner, ["generate", "noise", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0
        assert len(read_series_csv(out / "series.csv")) == 128

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-text"])
    def test_unreadable_file_exit_2(self, runner, tmp_path, kind):
        cfg = tmp_path / "cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "not-text":
            cfg.write_bytes(b"\xff\xfe\x00n=1\n")
        res = runner.invoke(main, ["generate", "noise", "--n", "64", "--config", str(cfg),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "--config" in res.output


class TestSimulate:
    def test_diffusion_monotone(self, runner, tmp_path):
        out = tmp_path / "sim"
        res = run_cli(runner, [
            "simulate", "diffusion", "--n", "64", "--forcing", "0", "--nu", "1",
            "--dt", "1e-4", "--steps", "1000", "--out", str(out),
        ])
        assert res.exit_code == 0
        probe = read_series_csv(out / "probe.csv")
        assert len(probe) == 1000
        assert not (out / "spectrum.npy").exists()
        assert (out / "snap_00001000.npy").exists()

    def test_cfl_exit_code_3(self, runner, tmp_path):
        res = runner.invoke(main, [
            "simulate", "burgers", "--n", "1024", "--dt", "10", "--nu", "3e-3",
            "--forcing", "6", "--steps", "10", "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 3

    def test_probe_row_count_short_burgers(self, runner, tmp_path):
        out = tmp_path / "b"
        res = run_cli(runner, [
            "simulate", "burgers", "--n", "64", "--dt", "1e-3", "--nu", "0.01",
            "--forcing", "1", "--steps", "200", "--seed", "11", "--out", str(out),
        ])
        assert res.exit_code == 0
        assert len(read_series_csv(out / "probe.csv")) == 200


    @pytest.mark.parametrize("stride, steps", [(0, [25]), (5, [5, 10, 15, 20, 25]),
                                               (7, [7, 14, 21, 25])])
    def test_snapshot_names(self, runner, tmp_path, stride, steps):
        out = tmp_path / "s"
        res = run_cli(runner, [
            "simulate", "diffusion", "--n", "32", "--forcing", "0", "--nu", "1",
            "--steps", "25", "--snapshot-stride", str(stride), "--out", str(out),
        ])
        assert res.exit_code == 0
        assert sorted(p.name for p in out.glob("snap_*")) == \
               [f"snap_{s:08d}.npy" for s in steps]
        # each file holds the run's field u at that step, bit for bit
        config = SolverConfig(n_grid=32, forcing_amplitude=0, nu=1, equation="diffusion",
                              n_steps=25, snapshot_stride=stride)
        for step_no, u in run_simulation(config).snapshots:
            saved = np.load(out / f"snap_{step_no:08d}.npy", allow_pickle=False)
            assert saved.dtype == np.float64 and saved.tobytes() == u.tobytes()

    @pytest.mark.parametrize("flags", [
        ["--steps", "0"],
        ["--steps", "-3"],
        ["--snapshot-stride", "-5"],
        ["--length", "0"],
        ["--length", "-1"],
        ["--nu", "nan"],
        ["--forcing", "nan"],
        ["--dt", "inf"],
        ["--seed", "-1"],
        ["--n", "100"],
        ["--probe-index", "4096"],
    ], ids=["steps-zero", "steps-negative", "stride-negative", "length-zero",
            "length-negative", "nu-nan", "forcing-nan", "dt-inf", "seed-negative",
            "n-not-power-of-two", "probe-index-out-of-range"])
    def test_bad_value_exit_2(self, runner, tmp_path, flags):
        out = tmp_path / "sim"
        res = runner.invoke(main, [
            "simulate", "burgers", "--n", "64", "--dt", "1e-3", "--nu", "0.01",
            "--steps", "20", "--out", str(out),
        ] + flags)
        assert res.exit_code == 2
        assert not out.exists()


def write_ohlc_csv(tmp_path, n=4096):
    """n one-minute bars of a seeded random walk, all valid."""
    rows = ["datetime,open,high,low,close,volume"]
    rng = np.random.default_rng(0)
    t0 = datetime(2021, 3, 1, 9, 15)
    price = 100.0
    for i in range(n):
        price *= float(np.exp(0.0001 * rng.normal()))
        ts = t0 + timedelta(minutes=i)
        rows.append(f"{ts:%Y-%m-%d %H:%M},{price!r},{price * 1.001!r},"
                    f"{price * 0.999!r},{price!r},5")
    path = tmp_path / "ohlc.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def make_triad_csv(runner, tmp_path, coupled, seed=17):
    out = tmp_path / ("triad_c" if coupled else "triad_u")
    args = [
        "generate", "triad", "--omega-a", "0.22", "--omega-b", "0.375",
        "--n", str(32 * 1024), "--phase-block", "1024", "--seed", str(seed),
        "--out", str(out),
    ]
    args.insert(2, "--coupled" if coupled else "--uncoupled")
    assert run_cli(runner, args).exit_code == 0
    return out / "series.csv"


class TestAnalyze:
    def test_coupled_verdict(self, runner, tmp_path):
        csv = make_triad_csv(runner, tmp_path, True)
        out = tmp_path / "an"
        res = run_cli(runner, ["analyze", str(csv), "--segments", "32", "--out", str(out)])
        assert res.exit_code == 0
        assert res.output.strip().endswith("PhaseCorrelated")
        assert sorted(f.name for f in out.iterdir()) == [
            "hotspots.txt", "manifest.json", "raw_series.npy"]
        report = (out / "hotspots.txt").read_text()
        ka = round(0.22 * 1024 / (2 * np.pi))
        kb = round(0.375 * 1024 / (2 * np.pi))
        assert f"{kb},{ka}," in report

    def test_uncoupled_verdict(self, runner, tmp_path):
        csv = make_triad_csv(runner, tmp_path, False)
        out = tmp_path / "an"
        res = run_cli(runner, ["analyze", str(csv), "--segments", "32", "--out", str(out)])
        assert res.output.strip().endswith("FullyDevelopedTurbulenceConsistent")

    def test_constant_series_inconclusive(self, runner, tmp_path):
        # a constant series has no power in any tested bin
        csv = tmp_path / "flat.csv"
        csv.write_text("t,value\n" + "".join(f"{t},2.5\n" for t in range(16384)))
        out = tmp_path / "an"
        res = run_cli(runner, ["analyze", str(csv), "--out", str(out)])
        assert res.exit_code == 0
        assert res.output.strip().endswith("Inconclusive")
        assert "verdict: Inconclusive" in (out / "hotspots.txt").read_text()

    def test_bad_input_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,series\n1,2,3\n")
        res = runner.invoke(main, ["analyze", str(bad), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flags", [
        ["--threshold", "nan"],
        ["--threshold", "-1"],
        ["--threshold", "1"],
        ["--threshold", "5"],
        ["--segments", "-3"],
        ["--segments", "0"],
        ["--min-segments", "-1"],
        ["--field", "mid"],
        ["--transform", "log_return"],
        ["--transform", "log_return", "--field", "open"],
        ["--field", "close", "--transform", "raw"],
        ["--segments", "2", "--segment-length", "64"],
        ["--overlap", "1"],
        ["--overlap", "-0.25"],
        ["--overlap", "nan"],
        ["--segment-length", "100"],
        ["--segment-length", "4"],
    ], ids=["threshold-nan", "threshold-negative", "threshold-one", "threshold-five",
            "segments-negative", "segments-zero",
            "min-segments-negative", "field-without-ohlc", "transform-without-ohlc",
            "field-and-transform-without-ohlc", "default-field-transform",
            "both-segment-options", "overlap-one",
            "overlap-negative", "overlap-nan", "segment-length-not-power-of-two",
            "segment-length-below-8"])
    def test_bad_value_exit_2(self, runner, tmp_path, flags):
        csv = make_triad_csv(runner, tmp_path, True)
        out = tmp_path / "an"
        res = runner.invoke(main, ["analyze", str(csv), "--out", str(out)] + flags)
        assert res.exit_code == 2
        assert flags[0] in res.output
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--segment-length", "64"],
    ], ids=["segment-length"])
    def test_series_options_accepted(self, runner, tmp_path, flags):
        csv = write_noise_csv(runner, tmp_path, n=256)
        res = run_cli(runner, ["analyze", str(csv), "--out", str(tmp_path / "an")] + flags)
        assert res.exit_code == 0

    @pytest.mark.parametrize("flags", [
        ["--transform", "log_return", "--segment-length", "256"],
        ["--field", "mid", "--transform", "demean", "--segments", "16"],
    ], ids=["log-return", "mid-demean"])
    def test_ohlc_field_transform(self, runner, tmp_path, flags):
        path = write_ohlc_csv(tmp_path)
        out = tmp_path / "mk"
        res = run_cli(runner, ["analyze", str(path), "--ohlc", "--out", str(out)] + flags)
        assert res.exit_code == 0
        n = len(np.load(out / "raw_series.npy"))
        assert n == (4095 if "log_return" in flags else 4096)

    @pytest.mark.parametrize("data, flags", [
        (b"t,value\n0,1.0\n1,\xe9\n", []),
        (b"datetime,open,high,low,close,volume\n2020-01-06 09:15,100,101,99.5,100.5,\xff\n",
         ["--ohlc"]),
        (b"\xef\xbb\xbft,value\n0,1.0\n1,\xe9\n", []),
    ], ids=["series", "ohlc", "series-bom"])
    def test_not_utf8_input_exit_2(self, runner, tmp_path, data, flags):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        out = tmp_path / "o"
        res = runner.invoke(main, ["analyze", str(bad), "--out", str(out)] + flags)
        assert res.exit_code == 2
        assert "input error:" in res.output
        assert not out.exists()

    def test_grid_bytes_reproducible(self, runner, tmp_path, monkeypatch):
        # the grid report rebuilds from an analysis, from raw_series.npy and the manifest
        csv = make_triad_csv(runner, tmp_path, True)
        run_cli(runner, ["analyze", str(csv), "--segments", "32", "--out", str(tmp_path / "a")])
        # a later wall clock must not reach the grid's bytes
        later = time.time() + 86400.0
        monkeypatch.setattr(time, "time", lambda: later)
        run_cli(runner, ["analyze", str(csv), "--segments", "32", "--out", str(tmp_path / "b")])
        grids = []
        for an in (tmp_path / "a", tmp_path / "b"):
            manifest = json.loads((an / "manifest.json").read_text())
            grids.append(segmented_bispectrum(TimeSeries(np.load(an / "raw_series.npy")),
                                              manifest["segment_length"]))
        for name in ("values", "norm"):
            assert getattr(grids[0], name).tobytes() == getattr(grids[1], name).tobytes()

    def test_same_as_library(self, runner, tmp_path):
        # 40,000 samples over 32 segments is 1,250 each: both pick 1,024
        out = tmp_path / "triad"
        assert run_cli(runner, [
            "generate", "triad", "--omega-a", "0.22", "--omega-b", "0.375", "--n", "40000",
            "--phase-block", "1024", "--seed", "5", "--out", str(out),
        ]).exit_code == 0
        an = tmp_path / "an"
        res = run_cli(runner, ["analyze", str(out / "series.csv"), "--segments", "32",
                               "--out", str(an)])
        assert res.exit_code == 0
        grid, report = analyze(read_series_csv(out / "series.csv"), segments=32)
        manifest = json.loads((an / "manifest.json").read_text())
        assert grid.segment_length == manifest["segment_length"] == 1024
        assert manifest["numpy"] == np.__version__
        # the grid as the README rebuilds it, from the series and the manifest
        config = manifest["config"]
        rebuilt = segmented_bispectrum(
            TimeSeries(np.load(an / "raw_series.npy")), manifest["segment_length"],
            overlap_fraction=config["overlap"], window=config["window"],
            detrend=config["detrend"])
        for name in ("values", "norm"):
            assert getattr(rebuilt, name).tobytes() == getattr(grid, name).tobytes()
        assert rebuilt.segments_averaged == grid.segments_averaged
        assert report.hotspots
        assert format_hotspot_report(report) == (an / "hotspots.txt").read_text()

    @pytest.mark.parametrize("ohlc", [False, True], ids=["series", "ohlc"])
    def test_npy_artifacts_bit_exact(self, runner, tmp_path, ohlc):
        if ohlc:
            path = write_ohlc_csv(tmp_path)
            flags = ["--ohlc", "--transform", "log_return", "--segment-length", "256"]
            series = build_series(load_ohlc_csv(path)[0], transform="log_return")
        else:
            path = make_triad_csv(runner, tmp_path, True)
            flags = ["--segments", "32"]
            series = read_series_csv(path)
        runs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            res = run_cli(runner, ["analyze", str(path), "--out", str(out)] + flags)
            assert res.exit_code == 0
            runs.append((out / "raw_series.npy").read_bytes())
        assert runs[0] == runs[1]
        raw = np.load(tmp_path / "a" / "raw_series.npy", allow_pickle=False)
        assert raw.dtype == np.float64 and raw.tobytes() == series.values.tobytes()

    def test_ohlc_input(self, runner, tmp_path):
        path = write_ohlc_csv(tmp_path)
        out = tmp_path / "mk"
        res = run_cli(runner, ["analyze", str(path), "--ohlc", "--segments", "16",
                               "--out", str(out)])
        assert res.exit_code == 0
        assert res.output.strip() in (
            "PhaseCorrelated", "FullyDevelopedTurbulenceConsistent", "Inconclusive")


class TestReport:
    def completed_analysis(self, runner, tmp_path):
        csv = make_triad_csv(runner, tmp_path, True)
        out = tmp_path / "an"
        run_cli(runner, ["analyze", str(csv), "--segments", "32", "--out", str(out)])
        return out

    def test_report_lists_three_panels(self, runner, tmp_path):
        an = self.completed_analysis(runner, tmp_path)
        rep = tmp_path / "rep"
        res = run_cli(runner, ["report", str(an), "--out", str(rep)])
        assert res.exit_code == 0
        index = json.loads((rep / "index.json").read_text())
        assert len(index["panels"]) == 3

    @pytest.mark.parametrize(
        "name", ["raw_series.npy", "hotspots.txt", "manifest.json"])
    def test_missing_input_exit_2(self, runner, tmp_path, name):
        an = self.completed_analysis(runner, tmp_path)
        (an / name).unlink()
        rep = tmp_path / "rep"
        res = runner.invoke(main, ["report", str(an), "--out", str(rep)])
        assert res.exit_code == 2
        assert name in res.output
        assert not rep.exists()

    @pytest.mark.parametrize("content",
                             ["junk", "pickled", "2-d", "npz", "empty", "one-sample", "nan",
                              "inf"])
    @pytest.mark.parametrize("name", ["raw_series.npy"])
    def test_bad_panel_exit_2(self, runner, tmp_path, name, content):
        an = self.completed_analysis(runner, tmp_path)
        if content == "junk":
            (an / name).write_bytes(b"\x00\x01\x02\x03")
        elif content == "pickled":
            np.save(an / name, np.array([{"a": 1}, None], dtype=object), allow_pickle=True)
        elif content == "2-d":
            np.save(an / name, np.zeros((4, 3)))
        elif content == "empty":
            np.save(an / name, np.zeros(0))
        elif content == "one-sample":
            np.save(an / name, np.zeros(1))
        elif content in ("nan", "inf"):
            raw = np.load(an / name)
            raw[len(raw) // 2] = float(content)
            np.save(an / name, raw)
        else:
            with open(an / name, "wb") as fh:
                np.savez(fh, values=np.zeros(4))
        rep = tmp_path / "rep"
        res = runner.invoke(main, ["report", str(an), "--out", str(rep)])
        assert res.exit_code == 2
        assert "input error:" in res.output and name in res.output
        assert not rep.exists()

    @pytest.mark.parametrize("edit", [
        lambda m: "command=analyze\n",
        lambda m: json.dumps([m]),
        lambda m: json.dumps({k: v for k, v in m.items() if k != "segment_length"}),
        lambda m: json.dumps({k: v for k, v in m.items() if k != "config"}),
        lambda m: json.dumps({**m, "segment_length": 100}),
        lambda m: json.dumps({**m, "config": {**m["config"], "window": "cosine"}}),
    ], ids=["not-json", "not-an-object", "no-segment-length", "no-config",
            "bad-segment-length", "bad-window"])
    def test_bad_manifest_exit_2(self, runner, tmp_path, edit):
        # the heatmap's grid parameters come from the analysis manifest
        an = self.completed_analysis(runner, tmp_path)
        path = an / "manifest.json"
        path.write_text(edit(json.loads(path.read_text())))
        rep = tmp_path / "rep"
        res = runner.invoke(main, ["report", str(an), "--out", str(rep)])
        assert res.exit_code == 2
        assert "input error:" in res.output and "manifest.json" in res.output
        assert not rep.exists()

    @pytest.mark.parametrize("render", [[], ["--render"]], ids=["no-render", "render"])
    def test_segment_length_beyond_series_exit_2(self, runner, tmp_path, render):
        # a hand-edited length no grid of this series can have
        an = self.completed_analysis(runner, tmp_path)
        path = an / "manifest.json"
        n = len(np.load(an / "raw_series.npy"))
        path.write_text(json.dumps({**json.loads(path.read_text()), "segment_length": 2 * n}))
        rep = tmp_path / "rep"
        res = runner.invoke(main, ["report", str(an), "--out", str(rep)] + render)
        assert res.exit_code == 2
        assert "input error:" in res.output and f"series length {n}" in res.output
        assert not rep.exists()

    def test_old_grid_layout_exit_2(self, runner, tmp_path):
        # an analysis written with the grid archive and no resolved segment_length
        an = self.completed_analysis(runner, tmp_path)
        manifest = json.loads((an / "manifest.json").read_text())
        grid = segmented_bispectrum(TimeSeries(np.load(an / "raw_series.npy")),
                                    manifest.pop("segment_length"))
        del manifest["numpy"]
        manifest["outputs"] = sorted(manifest["outputs"] + ["bispectrum.npz"])
        (an / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        np.savez(an / "bispectrum.npz", values=grid.values, norm=grid.norm,
                 segments_averaged=grid.segments_averaged, segment_length=grid.segment_length)
        rep = tmp_path / "rep"
        res = runner.invoke(main, ["report", str(an), "--out", str(rep)])
        assert res.exit_code == 2
        assert "segment_length" in res.output and "run analyze again" in res.output
        assert not rep.exists()

    @pytest.mark.parametrize("spelling", [".", "../an"], ids=["same", "respelled"])
    def test_out_is_analysis_dir_exit_2(self, runner, tmp_path, spelling):
        an = self.completed_analysis(runner, tmp_path)
        before = {f.name: f.read_bytes() for f in an.iterdir()}
        res = runner.invoke(main, ["report", str(an), "--out", str(an / spelling)])
        assert res.exit_code == 2
        assert "analysis directory" in res.output
        assert {f.name: f.read_bytes() for f in an.iterdir()} == before

    def test_render_without_matplotlib(self, runner, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "matplotlib", None)
        an = self.completed_analysis(runner, tmp_path)
        rep = tmp_path / "rep"
        res = runner.invoke(main, ["report", str(an), "--out", str(rep), "--render"])
        assert res.exit_code == 0
        assert "matplotlib unavailable; skipping rendering" in res.output
        outputs = json.loads((rep / "manifest.json").read_text())["outputs"]
        assert outputs == ["index.json"]
        assert not list(rep.glob("*.png"))

    def test_render_writes_pngs(self, runner, tmp_path):
        pytest.importorskip("matplotlib")
        an = self.completed_analysis(runner, tmp_path)
        rep = tmp_path / "rep"
        res = run_cli(runner, ["report", str(an), "--out", str(rep), "--render"])
        assert res.exit_code == 0
        pngs = ["heatmap.png", "raw.png", "spectrum.png"]
        outputs = json.loads((rep / "manifest.json").read_text())["outputs"]
        assert outputs == sorted(["index.json"] + pngs)
        for name in pngs:
            assert (rep / name).read_bytes().startswith(b"\x89PNG\r\n\x1a\n")

    def test_render_calls_recorded(self, runner, tmp_path, monkeypatch):
        calls = stub_matplotlib(monkeypatch)
        an = self.completed_analysis(runner, tmp_path)
        rep = tmp_path / "rep"
        res = run_cli(runner, ["report", str(an), "--out", str(rep), "--render"])
        assert res.exit_code == 0
        raw = np.load(an / "raw_series.npy")
        power = power_spectrum(np.fft.fft(raw))
        nz = np.flatnonzero(power > 0)
        csv = json.loads((an / "manifest.json").read_text())["inputs"][0]
        dense = analyze(read_series_csv(csv), segments=32)[0].dense()
        meta = {"metadata": {"Software": ""}}
        assert calls == [
            ("use", None, ["Agg"], {}),
            ("subplots", None, [], {}),
            ("plot", 1, [digest(raw)], {"lw": 0.5}),
            ("set_xlabel", 1, ["t"], {}),
            ("set_ylabel", 1, ["value"], {}),
            ("savefig", 1, [rep / "raw.png"], meta),
            ("close", 1, [], {}),
            ("subplots", None, [], {}),
            ("loglog", 2, [digest(nz), digest(power[nz])], {"lw": 0.5}),
            ("set_xlabel", 2, ["bin"], {}),
            ("set_ylabel", 2, ["power"], {}),
            ("savefig", 2, [rep / "spectrum.png"], meta),
            ("close", 2, [], {}),
            ("subplots", None, [], {}),
            ("imshow", 3, [digest(dense)],
             {"origin": "lower", "aspect": "auto", "cmap": "viridis"}),
            ("set_xlabel", 3, ["k2"], {}),
            ("set_ylabel", 3, ["k1"], {}),
            ("savefig", 3, [rep / "heatmap.png"], meta),
            ("close", 3, [], {}),
        ]
        outputs = json.loads((rep / "manifest.json").read_text())["outputs"]
        assert outputs == ["heatmap.png", "index.json", "raw.png", "spectrum.png"]

    def test_report_deterministic(self, runner, tmp_path):
        an = self.completed_analysis(runner, tmp_path)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        run_cli(runner, ["report", str(an), "--out", str(r1)])
        run_cli(runner, ["report", str(an), "--out", str(r2)])
        written = sorted(f.name for f in r1.iterdir())
        assert written == ["index.json", "manifest.json"]
        for name in written:
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()
        # every entry resolves, from the report directory, to the file it names
        index = json.loads((r1 / "index.json").read_text())
        files = {p["name"]: p["file"] for p in index["panels"]}
        files["verdict"] = index["verdict_file"]
        expected = {"raw": an / "raw_series.npy", "spectrum": an / "raw_series.npy",
                    "bicoherence_heatmap": an / "raw_series.npy", "verdict": an / "hotspots.txt"}
        assert {k: (r1 / f).resolve() for k, f in files.items()} == {
            k: f.resolve() for k, f in expected.items()}
        # the heatmap's grid is that of the analysis: 32 segments of 1024
        assert index["panels"][-1] == {
            "name": "bicoherence_heatmap", "file": files["bicoherence_heatmap"],
            "kind": "bicoherence", "params": {"segment_length": 1024, "overlap_fraction": 0.0,
                                              "window": "rectangular", "detrend": "demean"}}

    @pytest.mark.parametrize("source", ["triad", "ohlc"])
    def test_rendered_heatmap_is_library_map(self, runner, tmp_path, monkeypatch, source):
        # the paper's triad (seed 42, 64 x 4096), and OHLCV returns under hann with overlap
        if source == "triad":
            out = tmp_path / "triad"
            assert run_cli(runner, [
                "generate", "triad", "--omega-a", "0.22", "--omega-b", "0.375",
                "--n", "262144", "--phase-block", "4096", "--seed", "42", "--out", str(out),
            ]).exit_code == 0
            path, flags = out / "series.csv", ["--segments", "64"]
            grid, _ = analyze(read_series_csv(path), segments=64)
        else:
            path = write_ohlc_csv(tmp_path)
            flags = ["--ohlc", "--transform", "log_return", "--segment-length", "256",
                     "--window", "hann", "--overlap", "0.5"]
            series = build_series(load_ohlc_csv(path)[0], transform="log_return")
            grid, _ = analyze(series, 256, overlap_fraction=0.5, window="hann")
        an, rep = tmp_path / "an", tmp_path / "rep"
        assert run_cli(runner, ["analyze", str(path), "--out", str(an)] + flags).exit_code == 0
        calls = stub_matplotlib(monkeypatch)
        assert run_cli(runner, ["report", str(an), "--out", str(rep), "--render"]).exit_code == 0
        drawn = [args for name, _, args, _ in calls if name == "imshow"]
        assert drawn == [[digest(grid.dense())]]


def digest(x):
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, hashlib.sha256(x.tobytes()).hexdigest()
    return x


def stub_matplotlib(monkeypatch):
    """Install a stub matplotlib that records every call, with each array as a
    digest, in the list it returns."""
    calls = []

    def recorder(name, figure=None):
        def call(*args, **kwargs):
            calls.append((name, figure, [digest(a) for a in args],
                          {k: digest(v) for k, v in kwargs.items()}))
        return call

    class Figure:
        def __init__(self, number):
            self.number = number
            self.savefig = recorder("savefig", number)

    class Axes:
        def __init__(self, number):
            self.number = number

        def __getattr__(self, name):
            return recorder(name, self.number)

    def subplots(*args, **kwargs):
        recorder("subplots")(*args, **kwargs)
        number = sum(c[0] == "subplots" for c in calls)
        return Figure(number), Axes(number)

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = subplots
    pyplot.close = lambda fig: calls.append(("close", fig.number, [], {}))
    mpl = types.ModuleType("matplotlib")
    mpl.use, mpl.pyplot = recorder("use"), pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", mpl)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return calls


@pytest.mark.parametrize("command", ["analyze", "generate noise", "simulate", "report"])
def test_out_is_a_file_exit_2(runner, tmp_path, command):
    csv = write_noise_csv(runner, tmp_path, n=256)
    an = tmp_path / "an"
    assert run_cli(runner, ["analyze", str(csv), "--segment-length", "16",
                            "--out", str(an)]).exit_code == 0
    args = {
        "analyze": ["analyze", str(csv), "--segment-length", "16"],
        "generate noise": ["generate", "noise", "--n", "64"],
        "simulate": ["simulate", "diffusion", "--n", "32", "--forcing", "0", "--nu", "1",
                     "--steps", "5"],
        "report": ["report", str(an)],
    }[command]
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    res = runner.invoke(main, args + ["--out", str(taken)])
    assert res.exit_code == 2
    assert str(taken) in res.output
    assert taken.read_text() == "a file\n"


def default_of(func, name):
    return inspect.signature(func).parameters[name].default


# each command's optional flags that feed the library, with the library's default
LIBRARY_DEFAULTS = {
    "generate triad": {"frequency_rule": TriadSpec.frequency_rule,
                       "noise": TriadSpec.noise_amplitude, "seed": TriadSpec.seed},
    "generate noise": {"amplitude": NoiseSpec.amplitude, "seed": NoiseSpec.seed},
    "simulate": {"n": SolverConfig.n_grid, "length": SolverConfig.length,
                 "dt": SolverConfig.dt, "nu": SolverConfig.nu,
                 "forcing": SolverConfig.forcing_amplitude, "steps": SolverConfig.n_steps,
                 "probe_index": SolverConfig.probe_index,
                 "snapshot_stride": SolverConfig.snapshot_stride, "seed": SolverConfig.seed},
    "analyze": {"price_field": default_of(build_series, "price_field"),
                "transform": default_of(build_series, "transform"),
                "segments": default_of(analyze, "segments"),
                "segment_length": default_of(analyze, "segment_length"),
                "overlap": default_of(analyze, "overlap_fraction"),
                "window": default_of(analyze, "window"),
                "detrend": default_of(analyze, "detrend"),
                "threshold": default_of(analyze, "threshold"),
                "min_segments": default_of(analyze, "min_segments")},
    "report": {},
}
# the flags whose defaults the CLI owns: where outputs go, and the command-line
# encodings of the input kind, the coupling, fixed phases, the noise kind and rendering
CLI_DEFAULTS = {"out": ".", "ohlc": False, "coupled": True, "phase_block": 0,
                "kind": "uniform", "render": False}


@pytest.mark.parametrize("command", list(LIBRARY_DEFAULTS))
def test_option_defaults_are_library_defaults(command):
    # every optional flag defaults to the library value it feeds, or is one the CLI owns
    cmd = main
    for name in command.split():
        cmd = cmd.commands[name]
    defaults = {p.name: p.default for p in cmd.params if p.expose_value and not p.required}
    library = LIBRARY_DEFAULTS[command]
    own = {name: CLI_DEFAULTS[name] for name in defaults.keys() - library.keys()}
    assert defaults == {**library, **own}
