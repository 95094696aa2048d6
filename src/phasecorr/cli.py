"""Command-line entry point: generate, simulate, analyze, report.

Every command writes its outputs plus a ``manifest.json`` capturing the
resolved configuration, seed, and file lists, so any run can be
reproduced bit-exactly.  Exit codes: 0 success, 2 usage or input error,
3 numerical failure.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import BlowUp, CflViolation, PhasecorrError
from .io import (
    format_hotspot_report,
    load_grid,
    read_series_csv,
    save_grid,
    write_heatmap_csv,
    write_series_csv,
    write_snapshot_csv,
    write_spectrum_csv,
)
from .market import build_series, load_ohlc_csv
from .simulator import SolverConfig, run as run_simulation, spatial_energy_spectrum
from .spectral import (
    BispectrumGrid,
    detect_hotspots,
    dft_forward,
    power_spectrum,
    segmented_bispectrum,
)
from .synthetic import (
    NoiseSpec,
    TriadSpec,
    gen_gaussian_box_muller,
    gen_triad,
    gen_white_uniform,
)

GRID_FILE = "bispectrum.npz"
# what analyze writes besides its manifest, and report reads or references
ANALYSIS_FILES = ("raw_series.csv", "spectrum.csv", GRID_FILE, "hotspots.txt")
HEATMAP_FILE = "heatmap.csv"


def _read_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Load key=value lines of a UTF-8 file (a leading byte-order mark is
    skipped) into ``ctx.default_map``, so click parses and checks each value
    with its option's own type; explicit flags still win."""
    if path is None:
        return
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.BadParameter(f"cannot read config file: {exc}", ctx, param)
    names = {p.name for p in ctx.command.params} - {param.name}
    values = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise click.BadParameter(f"bad line (expected key=value): {line!r}", ctx, param)
        key = key.strip().replace("-", "_")
        if key not in names:
            raise click.BadParameter(f"unknown key {key!r}", ctx, param)
        values[key] = value.strip()
    ctx.default_map = values


def _power_of_two(ctx: click.Context, param: click.Parameter, value: int | None) -> int | None:
    if value is not None and (value < 8 or value & (value - 1)):
        raise click.BadParameter(f"must be a power of two >= 8, got {value}", ctx, param)
    return value


def _fraction(ctx: click.Context, param: click.Parameter, value: float) -> float:
    # written out rather than click.FloatRange, which lets nan through
    if not 0.0 <= value < 1.0:
        raise click.BadParameter(f"must be in [0, 1), got {value}", ctx, param)
    return value


config_option = click.option(
    "--config", type=str, is_eager=True, expose_value=False, callback=_read_config,
    help="File of key=value option values; explicit flags win.")


def _write_manifest(out: Path, command: str, params: dict,
                    inputs: list[str], outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in params.items() if k != "out"},
        "version": __version__,
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
    }
    if "seed" in params:
        manifest["seed"] = params["seed"]
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _prepare_out(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Spectral phase-correlation toolkit."""


@main.group()
def generate() -> None:
    """Generate synthetic benchmark series."""


@generate.command("triad")
@click.option("--coupled/--uncoupled", "coupled", default=True, show_default=True,
              help="Tie the third phase to the sum of the first two.")
@click.option("--omega-a", type=float, required=True, help="First frequency, rad/sample.")
@click.option("--omega-b", type=float, required=True, help="Second frequency, rad/sample.")
@click.option("--frequency-rule", type=click.Choice(["sum", "reciprocal"]), default="sum",
              show_default=True)
@click.option("--n", type=int, required=True, help="Number of samples.")
@click.option("--noise", type=float, default=0.05, show_default=True)
@click.option("--phase-block", type=int, default=0, show_default=True,
              help="Redraw phases every this many samples (0 = fixed phases).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=".", show_default=True)
@config_option
@click.pass_context
def cmd_generate_triad(ctx, coupled, omega_a, omega_b, frequency_rule, n, noise,
                       phase_block, seed, out):
    """Write a three-cosine series with or without quadratic phase coupling."""
    try:
        spec = TriadSpec(
            omega_alpha=omega_a,
            omega_beta=omega_b,
            coupling="phase_sum" if coupled else "independent",
            frequency_rule=frequency_rule,
            n_samples=n,
            noise_amplitude=noise,
            seed=seed,
            phase_block=phase_block or None,
        )
        series = gen_triad(spec)
    except (PhasecorrError, ValueError) as exc:
        raise click.UsageError(str(exc))
    out_dir = _prepare_out(out)
    write_series_csv(out_dir / "series.csv", series)
    _write_manifest(out_dir, "generate triad", ctx.params, [], ["series.csv"])
    click.echo(f"wrote {out_dir / 'series.csv'} ({len(series)} samples)")


@generate.command("noise")
@click.option("--kind", type=click.Choice(["uniform", "gaussian"]), default="uniform",
              show_default=True)
@click.option("--n", type=int, required=True, help="Number of samples.")
@click.option("--amplitude", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=".", show_default=True)
@config_option
@click.pass_context
def cmd_generate_noise(ctx, kind, n, amplitude, seed, out):
    """Write uniform white noise or Box-Muller Gaussian noise."""
    try:
        spec = NoiseSpec(n_samples=n, amplitude=amplitude, seed=seed)
        series = gen_white_uniform(spec) if kind == "uniform" else gen_gaussian_box_muller(spec)
    except (PhasecorrError, ValueError) as exc:
        raise click.UsageError(str(exc))
    out_dir = _prepare_out(out)
    write_series_csv(out_dir / "series.csv", series)
    _write_manifest(out_dir, "generate noise", ctx.params, [], ["series.csv"])
    click.echo(f"wrote {out_dir / 'series.csv'} ({len(series)} samples)")


@main.command("simulate")
@click.argument("equation", type=click.Choice(["burgers", "diffusion"]))
@click.option("--n", type=int, default=1024, show_default=True, help="Grid points (power of two).")
@click.option("--length", type=float, default=2.0 * np.pi, show_default=True)
@click.option("--dt", type=float, default=1e-4, show_default=True)
@click.option("--nu", type=float, default=3e-3, show_default=True)
@click.option("--forcing", type=float, default=6.0, show_default=True)
@click.option("--steps", type=int, default=100_000, show_default=True)
@click.option("--probe-index", type=int, default=0, show_default=True)
@click.option("--snapshot-stride", type=int, default=0, show_default=True,
              help="Steps between snapshots (0 = final only).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=".", show_default=True)
@config_option
@click.pass_context
def cmd_simulate(ctx, equation, n, length, dt, nu, forcing, steps, probe_index,
                 snapshot_stride, seed, out):
    """Run the forced 1-D solver and write probe, snapshot and spectrum files."""
    try:
        config = SolverConfig(
            n_grid=n, length=length, dt=dt, nu=nu, forcing_amplitude=forcing,
            equation=equation, seed=seed, n_steps=steps, probe_index=probe_index,
            snapshot_stride=snapshot_stride,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out_dir = _prepare_out(out)
    try:
        result = run_simulation(config)
    except (BlowUp, CflViolation) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    outputs = ["probe.csv", "spectrum.csv"]
    write_series_csv(out_dir / "probe.csv", result.probe_series)
    write_spectrum_csv(out_dir / "spectrum.csv", spatial_energy_spectrum(result.final_state),
                       config.n_grid)
    for step_no, u in result.snapshots:
        name = f"snap_{step_no:08d}.csv"
        write_snapshot_csv(out_dir / name, u, config.length)
        outputs.append(name)
    _write_manifest(out_dir, f"simulate {equation}", ctx.params, [], outputs)
    click.echo(f"completed {config.n_steps} steps; outputs in {out_dir}")


@main.command("analyze")
@click.argument("input_path", type=str)
@click.option("--ohlc", is_flag=True, default=False, help="Input is an OHLCV CSV.")
@click.option("--field", "price_field", type=click.Choice(["close", "open", "mid"]),
              default="close", show_default=True)
@click.option("--transform", type=click.Choice(["raw", "demean", "log_return"]),
              default="raw", show_default=True)
@click.option("--segments", type=click.IntRange(min=1), default=None,
              help="Target segment count (segment length = largest power of two that fits).")
@click.option("--segment-length", type=int, default=None, callback=_power_of_two,
              help="Explicit power-of-two length, at least 8.")
@click.option("--overlap", type=float, default=0.0, show_default=True, callback=_fraction,
              help="Fraction of a segment shared with the next, in [0, 1).")
@click.option("--window", type=click.Choice(["rectangular", "hann"]), default="rectangular",
              show_default=True)
@click.option("--detrend", type=click.Choice(["none", "demean", "linear"]), default="demean",
              show_default=True)
@click.option("--threshold", type=str, default="auto", show_default=True)
@click.option("--min-segments", type=click.IntRange(min=0), default=16, show_default=True)
@click.option("--out", type=str, default=".", show_default=True)
@config_option
@click.pass_context
def cmd_analyze(ctx, input_path, ohlc, price_field, transform, segments, segment_length,
                overlap, window, detrend, threshold, min_segments, out):
    """Run the full spectral analysis on a series and print the verdict."""
    if not ohlc and (price_field, transform) != ("close", "raw"):
        raise click.UsageError("--field and --transform apply only with --ohlc")
    if segments is not None and segment_length is not None:
        raise click.UsageError("give --segments or --segment-length, not both")
    thr = threshold
    if thr != "auto":
        try:
            thr = float(thr)
        except ValueError:
            thr = math.nan
        if not (0.0 < thr < 1.0):
            raise click.UsageError(
                f"--threshold must be 'auto' or a number in (0, 1), got {threshold!r}")
    try:
        if ohlc:
            ticks, report = load_ohlc_csv(input_path)
            series = build_series(ticks, price_field=price_field, transform=transform)
        else:
            series = read_series_csv(input_path)
    except PhasecorrError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)

    seg_len = segment_length
    if seg_len is None:
        target = segments or 64
        seg_len = 1 << max(3, (len(series) // target).bit_length() - 1)
    try:
        grid = segmented_bispectrum(series, seg_len, overlap_fraction=overlap,
                                    window=window, detrend=detrend)
    except (PhasecorrError, ValueError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    hotspots = detect_hotspots(grid, threshold=thr, min_segments=min_segments)

    out_dir = _prepare_out(out)
    write_series_csv(out_dir / "raw_series.csv", series)
    write_spectrum_csv(out_dir / "spectrum.csv", power_spectrum(dft_forward(series)), len(series))
    save_grid(out_dir / GRID_FILE, grid)
    (out_dir / "hotspots.txt").write_text(format_hotspot_report(hotspots))
    _write_manifest(out_dir, "analyze", ctx.params, [input_path], list(ANALYSIS_FILES))
    click.echo(hotspots.verdict.value)


# (panel, file, plot kind): the heatmap is derived from the grid into the
# report bundle, and the other panels are analysis files it references
REPORT_PANELS = (
    ("raw", "raw_series.csv", "line"),
    ("spectrum", "spectrum.csv", "loglog"),
    ("bicoherence_heatmap", HEATMAP_FILE, "heatmap"),
)


@main.command("report")
@click.argument("analysis_dir", type=str)
@click.option("--out", type=str, default=".", show_default=True)
@click.option("--render/--no-render", default=False, show_default=True,
              help="Also rasterize panels to PNG when matplotlib is available.")
@click.pass_context
def cmd_report(ctx, analysis_dir, out, render):
    """Assemble the three-panel data bundle from a completed analyze run.

    The bundle holds the heatmap and refers to the other panels and the
    verdict by paths relative to itself, so the analysis must stay put.
    """
    src = Path(analysis_dir)
    src_real, out_real = src.resolve(), Path(out).resolve()
    if out_real == src_real:
        raise click.UsageError("--out must not be the analysis directory")
    for name in ANALYSIS_FILES:
        if not (src / name).exists():
            click.echo(f"missing input file: {src / name}", err=True)
            sys.exit(2)
    try:
        grid = load_grid(src / GRID_FILE)
    except PhasecorrError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    out_dir = _prepare_out(out)
    write_heatmap_csv(out_dir / HEATMAP_FILE, grid)

    def ref(name: str) -> str:
        return name if name == HEATMAP_FILE else os.path.relpath(src_real / name, out_real)

    index = {
        "panels": [{"name": panel, "file": ref(name), "kind": kind}
                   for panel, name, kind in REPORT_PANELS],
        "verdict_file": ref("hotspots.txt"),
    }
    (out_dir / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    outputs = [HEATMAP_FILE, "index.json"]
    if render:
        outputs.extend(_render_panels(src, out_dir, grid))
    _write_manifest(out_dir, "report", ctx.params, [str(src / n) for n in ANALYSIS_FILES],
                    outputs)
    click.echo(f"report written to {out_dir}")


def _render_panels(src: Path, out_dir: Path, grid: BispectrumGrid) -> list[str]:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        click.echo("matplotlib unavailable; skipping rendering", err=True)
        return []
    rendered = []
    raw = np.loadtxt(src / "raw_series.csv", delimiter=",", skiprows=1)
    fig, ax = plt.subplots()
    ax.plot(raw[:, 0], raw[:, 1], lw=0.5)
    ax.set_xlabel("t"); ax.set_ylabel("value")
    fig.savefig(out_dir / "raw.png", metadata={"Software": ""})
    plt.close(fig)
    rendered.append("raw.png")
    spec = np.loadtxt(src / "spectrum.csv", delimiter=",", skiprows=1)
    fig, ax = plt.subplots()
    nz = spec[:, 2] > 0
    ax.loglog(spec[nz, 0], spec[nz, 2], lw=0.5)
    ax.set_xlabel("bin"); ax.set_ylabel("power")
    fig.savefig(out_dir / "spectrum.png", metadata={"Software": ""})
    plt.close(fig)
    rendered.append("spectrum.png")
    fig, ax = plt.subplots()
    ax.imshow(grid.dense(), origin="lower", aspect="auto", cmap="viridis")
    ax.set_xlabel("k2"); ax.set_ylabel("k1")
    fig.savefig(out_dir / "heatmap.png", metadata={"Software": ""})
    plt.close(fig)
    rendered.append("heatmap.png")
    return rendered


if __name__ == "__main__":
    main()
