import json
import sys
import time
from datetime import datetime, timedelta

import numpy as np
import pytest
from click.testing import CliRunner

from phasecorr.cli import main
from phasecorr.io import load_grid, read_series_csv


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
        (["analyze", "{csv}"], "segments=2\nsegment_length=64\n", "--segment-length"),
        (["analyze", "{csv}"], "overlap=1.5\n", "--overlap"),
        (["analyze", "{csv}"], "segment_length=96\n", "--segment-length"),
        (["analyze", "{csv}"], "threshold=1\n", "--threshold"),
        (["generate", "noise", "--n", "64"], "bogus=1\n", "bogus"),
        (["generate", "noise", "--n", "64"], "n 128\n", "--config"),
    ], ids=["choice", "float", "float-triad", "bool", "int", "segments-zero",
            "min-segments-negative", "field-without-ohlc", "transform-without-ohlc",
            "both-segment-options", "overlap", "segment-length", "threshold-one", "unknown-key",
            "no-equals"])
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
        assert (out / "spectrum.csv").exists()
        assert (out / "snap_00001000.csv").exists()

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
        assert sorted(p.name for p in out.glob("snap_*.csv")) == \
               [f"snap_{s:08d}.csv" for s in steps]

    @pytest.mark.parametrize("flags", [
        ["--steps", "0"],
        ["--steps", "-3"],
        ["--snapshot-stride", "-5"],
        ["--length", "0"],
        ["--length", "-1"],
        ["--nu", "nan"],
        ["--forcing", "nan"],
        ["--dt", "inf"],
    ], ids=["steps-zero", "steps-negative", "stride-negative", "length-zero",
            "length-negative", "nu-nan", "forcing-nan", "dt-inf"])
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
        for name in ("raw_series.csv", "spectrum.csv", "bispectrum.npz",
                     "hotspots.txt", "manifest.json"):
            assert (out / name).exists()
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
        ["--segments", "2", "--segment-length", "64"],
        ["--overlap", "1"],
        ["--overlap", "-0.25"],
        ["--overlap", "nan"],
        ["--segment-length", "100"],
        ["--segment-length", "4"],
    ], ids=["threshold-nan", "threshold-negative", "threshold-one", "threshold-five",
            "segments-negative", "segments-zero",
            "min-segments-negative", "field-without-ohlc", "transform-without-ohlc",
            "field-and-transform-without-ohlc", "both-segment-options", "overlap-one",
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
        ["--field", "close", "--transform", "raw"],
        ["--segment-length", "64"],
    ], ids=["default-field-transform", "segment-length"])
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
        n = len(read_series_csv(out / "raw_series.csv"))
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
        csv = make_triad_csv(runner, tmp_path, True)
        run_cli(runner, ["analyze", str(csv), "--segments", "32", "--out", str(tmp_path / "a")])
        # a later wall clock must not reach the archive's bytes
        later = time.time() + 86400.0
        monkeypatch.setattr(time, "time", lambda: later)
        run_cli(runner, ["analyze", str(csv), "--segments", "32", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "bispectrum.npz").read_bytes() == \
               (tmp_path / "b" / "bispectrum.npz").read_bytes()

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
        "name", ["raw_series.csv", "spectrum.csv", "bispectrum.npz", "hotspots.txt"])
    def test_missing_input_exit_2(self, runner, tmp_path, name):
        an = self.completed_analysis(runner, tmp_path)
        (an / name).unlink()
        rep = tmp_path / "rep"
        res = runner.invoke(main, ["report", str(an), "--out", str(rep)])
        assert res.exit_code == 2
        assert name in res.output
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
        assert outputs == ["heatmap.csv", "index.json"]
        assert not list(rep.glob("*.png"))

    def test_report_heatmap_from_grid(self, runner, tmp_path):
        an = self.completed_analysis(runner, tmp_path)
        rep = tmp_path / "rep"
        assert run_cli(runner, ["report", str(an), "--out", str(rep)]).exit_code == 0
        heat = np.loadtxt(rep / "heatmap.csv", delimiter=",", skiprows=1)
        dense = load_grid(an / "bispectrum.npz").dense()
        assert np.array_equal(heat[:, 0], np.arange(len(dense)))
        assert np.allclose(heat[:, 1:], dense, rtol=1e-5, atol=0.0)

    def test_report_deterministic(self, runner, tmp_path):
        an = self.completed_analysis(runner, tmp_path)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        run_cli(runner, ["report", str(an), "--out", str(r1)])
        run_cli(runner, ["report", str(an), "--out", str(r2)])
        written = sorted(f.name for f in r1.iterdir())
        assert written == ["heatmap.csv", "index.json", "manifest.json"]
        for name in written:
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()
        # every entry resolves, from the report directory, to the file it names
        index = json.loads((r1 / "index.json").read_text())
        files = {p["name"]: p["file"] for p in index["panels"]}
        files["verdict"] = index["verdict_file"]
        expected = {"raw": an / "raw_series.csv", "spectrum": an / "spectrum.csv",
                    "bicoherence_heatmap": r1 / "heatmap.csv", "verdict": an / "hotspots.txt"}
        assert {k: (r1 / f).resolve() for k, f in files.items()} == {
            k: f.resolve() for k, f in expected.items()}
