"""Command-line entry point: generate, simulate, analyze, report.

Every command writes its outputs plus a ``manifest.json`` capturing the
resolved configuration, seed, file lists and numpy's version, so any run can
be reproduced bit-exactly.  Exit codes: 0 success, 2 usage or input error,
3 numerical failure.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .errors import BlowUp, CflViolation, FileUnreadable, PhasecorrError, SegmentTooLong
from .io import check_array, format_hotspot_report, read_series_csv, save_array, write_series_csv
from .market import _SERIES_FIELDS, _TRANSFORMS, build_series, load_ohlc_csv
from .simulator import _EQUATIONS, SolverConfig, run as run_simulation
from .spectral import TimeSeries, analyze, power_spectrum, segmented_bispectrum
from .spectral import (_DETRENDS, _WINDOWS, _check_grid_params, _check_overlap,
                       _check_segment_length, _check_segments, _check_threshold)
from .synthetic import (
    _FREQUENCY_RULES,
    NoiseSpec,
    TriadSpec,
    gen_gaussian_box_muller,
    gen_triad,
    gen_white_uniform,
)

# what analyze writes besides its manifest, and report reads or references
ANALYSIS_FILES = ("raw_series.npy", "hotspots.txt")


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
        if key in values:
            raise click.BadParameter(f"key {key!r} given twice", ctx, param)
        values[key] = value.strip()
    ctx.default_map = values


def _checked(rule, *others):
    """Click callback that runs the library's ``rule`` on an option's value and the
    values of the options named in ``others``, which are eager so click has them
    first; a bad value is rejected, naming the flags, before any input is read."""
    def callback(ctx: click.Context, param: click.Parameter, value):
        try:
            return value if value is None else rule(value, *(ctx.params[o] for o in others))
        except ValueError as exc:
            flags = [p.opts[0] for p in ctx.command.params if p is param or p.name in others]
            raise click.BadParameter(str(exc), ctx, param, flags)
    return callback


def _defaults(func) -> dict:
    """The default of each parameter of ``func`` that has one: what an option feeding
    that parameter defaults to."""
    return {name: p.default for name, p in inspect.signature(func).parameters.items()
            if p.default is not p.empty}


_ANALYZE_DEFAULTS = _defaults(analyze)
_SERIES_DEFAULTS = _defaults(build_series)
_NOISE_KINDS = {"uniform": gen_white_uniform, "gaussian": gen_gaussian_box_muller}


config_option = click.option(
    "--config", type=str, is_eager=True, expose_value=False, callback=_read_config,
    help="File of key=value option values; explicit flags win.")


def _write_manifest(out: Path, command: str, params: dict,
                    inputs: list[str], outputs: list[str], **resolved) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in params.items() if k != "out"},
        "version": __version__,
        # the outputs' bits depend on numpy's FFT and default_rng
        "numpy": np.__version__,
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
        **resolved,
    }
    if "seed" in params:
        manifest["seed"] = params["seed"]
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _prepare_out(out: str) -> Path:
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot make --out directory {out}: {exc.strerror}")
    return path


def _write_generated(ctx: click.Context, command: str, out: str, make) -> None:
    """Write the series ``make()`` returns to ``series.csv`` in ``out``, with its
    manifest; a bad spec is a usage error, raised before ``out`` is made."""
    try:
        series = make()
    except (PhasecorrError, ValueError) as exc:
        raise click.UsageError(str(exc))
    out_dir = _prepare_out(out)
    write_series_csv(out_dir / "series.csv", series)
    _write_manifest(out_dir, command, ctx.params, [], ["series.csv"])
    click.echo(f"wrote {out_dir / 'series.csv'} ({len(series)} samples)")


@click.group(context_settings={"show_default": True})
@click.version_option(__version__)
def main() -> None:
    """Spectral phase-correlation toolkit."""


@main.group()
def generate() -> None:
    """Generate synthetic benchmark series."""


@generate.command("triad")
@click.option("--coupled/--uncoupled", "coupled", default=True,
              help="Tie the third phase to the sum of the first two.")
@click.option("--omega-a", type=float, required=True, help="First frequency, rad/sample.")
@click.option("--omega-b", type=float, required=True, help="Second frequency, rad/sample.")
@click.option("--frequency-rule", type=click.Choice(_FREQUENCY_RULES),
              default=TriadSpec.frequency_rule)
@click.option("--n", type=int, required=True, help="Number of samples.")
@click.option("--noise", type=float, default=TriadSpec.noise_amplitude)
@click.option("--phase-block", type=int, default=0,
              help="Redraw phases every this many samples (0 = fixed phases).")
@click.option("--seed", type=int, default=TriadSpec.seed)
@click.option("--out", type=str, default=".")
@config_option
@click.pass_context
def cmd_generate_triad(ctx, coupled, omega_a, omega_b, frequency_rule, n, noise,
                       phase_block, seed, out):
    """Write a three-cosine series with or without quadratic phase coupling."""
    _write_generated(ctx, "generate triad", out, lambda: gen_triad(TriadSpec(
        omega_alpha=omega_a, omega_beta=omega_b,
        coupling="phase_sum" if coupled else "independent", frequency_rule=frequency_rule,
        n_samples=n, noise_amplitude=noise, seed=seed, phase_block=phase_block or None)))


@generate.command("noise")
@click.option("--kind", type=click.Choice(list(_NOISE_KINDS)), default="uniform")
@click.option("--n", type=int, required=True, help="Number of samples.")
@click.option("--amplitude", type=float, default=NoiseSpec.amplitude)
@click.option("--seed", type=int, default=NoiseSpec.seed)
@click.option("--out", type=str, default=".")
@config_option
@click.pass_context
def cmd_generate_noise(ctx, kind, n, amplitude, seed, out):
    """Write uniform white noise or Box-Muller Gaussian noise."""
    _write_generated(ctx, "generate noise", out, lambda: _NOISE_KINDS[kind](
        NoiseSpec(n_samples=n, amplitude=amplitude, seed=seed)))


@main.command("simulate")
@click.argument("equation", type=click.Choice(_EQUATIONS))
@click.option("--n", type=int, default=SolverConfig.n_grid, help="Grid points (power of two).")
@click.option("--length", type=float, default=SolverConfig.length)
@click.option("--dt", type=float, default=SolverConfig.dt)
@click.option("--nu", type=float, default=SolverConfig.nu)
@click.option("--forcing", type=float, default=SolverConfig.forcing_amplitude)
@click.option("--steps", type=int, default=SolverConfig.n_steps)
@click.option("--probe-index", type=int, default=SolverConfig.probe_index)
@click.option("--snapshot-stride", type=int, default=SolverConfig.snapshot_stride,
              help="Steps between snapshots (0 = final only).")
@click.option("--seed", type=int, default=SolverConfig.seed)
@click.option("--out", type=str, default=".")
@config_option
@click.pass_context
def cmd_simulate(ctx, equation, n, length, dt, nu, forcing, steps, probe_index,
                 snapshot_stride, seed, out):
    """Run the forced 1-D solver and write the probe series and field snapshots."""
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
    outputs = ["probe.csv"]
    write_series_csv(out_dir / "probe.csv", result.probe_series)
    for step_no, u in result.snapshots:
        name = f"snap_{step_no:08d}.npy"
        save_array(out_dir / name, u)
        outputs.append(name)
    _write_manifest(out_dir, f"simulate {equation}", ctx.params, [], outputs)
    click.echo(f"completed {config.n_steps} steps; outputs in {out_dir}")


@main.command("analyze")
@click.argument("input_path", type=str)
@click.option("--ohlc", is_flag=True, default=False, help="Input is an OHLCV CSV.")
@click.option("--field", "price_field", type=click.Choice(_SERIES_FIELDS),
              default=_SERIES_DEFAULTS["price_field"])
@click.option("--transform", type=click.Choice(_TRANSFORMS), default=_SERIES_DEFAULTS["transform"])
@click.option("--segments", type=click.IntRange(min=1), default=_ANALYZE_DEFAULTS["segments"],
              callback=_checked(_check_segments, "segment_length"),
              help="Target segment count (segment length = largest power of two that fits).")
@click.option("--segment-length", type=int, default=_ANALYZE_DEFAULTS["segment_length"],
              callback=_checked(_check_segment_length), is_eager=True,
              help="Explicit power-of-two length, at least 8.")
@click.option("--overlap", type=float, default=_ANALYZE_DEFAULTS["overlap_fraction"],
              callback=_checked(_check_overlap),
              help="Fraction of a segment shared with the next, in [0, 1).")
@click.option("--window", type=click.Choice(_WINDOWS), default=_ANALYZE_DEFAULTS["window"])
@click.option("--detrend", type=click.Choice(_DETRENDS), default=_ANALYZE_DEFAULTS["detrend"])
@click.option("--threshold", type=str, default=_ANALYZE_DEFAULTS["threshold"],
              callback=_checked(_check_threshold))
@click.option("--min-segments", type=click.IntRange(min=0),
              default=_ANALYZE_DEFAULTS["min_segments"])
@click.option("--out", type=str, default=".")
@config_option
@click.pass_context
def cmd_analyze(ctx, input_path, ohlc, price_field, transform, segments, segment_length,
                overlap, window, detrend, threshold, min_segments, out):
    """Run the full spectral analysis on a series and print the verdict."""
    # a value from the command line or --config counts as given, even the default one
    if not ohlc and any(ctx.get_parameter_source(name) is not ParameterSource.DEFAULT
                        for name in _SERIES_DEFAULTS):
        raise click.UsageError("--field and --transform apply only with --ohlc")
    try:
        if ohlc:
            ticks, _ = load_ohlc_csv(input_path)
            series = build_series(ticks, price_field=price_field, transform=transform)
        else:
            series = read_series_csv(input_path)
        grid, hotspots = analyze(series, segment_length, segments=segments,
                                 overlap_fraction=overlap, window=window, detrend=detrend,
                                 threshold=threshold, min_segments=min_segments)
    except (PhasecorrError, ValueError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)

    out_dir = _prepare_out(out)
    save_array(out_dir / "raw_series.npy", series.values)
    (out_dir / "hotspots.txt").write_text(format_hotspot_report(hotspots))
    # the grid is not written: segmented_bispectrum rebuilds it from the series, the
    # resolved length and the config, as report --render does
    _write_manifest(out_dir, "analyze", ctx.params, [input_path], list(ANALYSIS_FILES),
                    segment_length=grid.segment_length)
    click.echo(hotspots.verdict.value)


# (panel, plot kind, rendered image): every panel is drawn from the series in
# raw_series.npy; the spectrum's power is ``power_spectrum(np.fft.fft(series))``
# and the heatmap's dense b^2 map is ``segmented_bispectrum(TimeSeries(series),
# **params).dense()``, with the grid parameters that index.json gives that panel
REPORT_PANELS = (
    ("raw", "line", "raw.png"),
    ("spectrum", "power_spectrum", "spectrum.png"),
    ("bicoherence_heatmap", "bicoherence", "heatmap.png"),
)


def _grid_params(path: Path, n_samples: int) -> dict:
    """The ``segmented_bispectrum`` arguments of an analysis of ``n_samples``
    samples, from its manifest."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        config = manifest["config"]
        params = {"segment_length": manifest["segment_length"],
                  "overlap_fraction": config["overlap"], "window": config["window"],
                  "detrend": config["detrend"]}
        _check_grid_params(n_samples, **params)
    except (OSError, ValueError, KeyError, TypeError, SegmentTooLong) as exc:
        # a manifest written before the grid was dropped records no segment_length
        raise FileUnreadable(f"{path} gives no grid parameters ({type(exc).__name__}: "
                             f"{exc}); run analyze again") from exc
    return params


@main.command("report")
@click.argument("analysis_dir", type=str)
@click.option("--out", type=str, default=".")
@click.option("--render/--no-render", default=False,
              help="Also rasterize panels to PNG when matplotlib is available.")
@click.pass_context
def cmd_report(ctx, analysis_dir, out, render):
    """Assemble the three-panel data bundle from a completed analyze run.

    The bundle refers to the panels and the verdict by paths relative to
    itself, so the analysis must stay put.
    """
    src = Path(analysis_dir)
    src_real, out_real = src.resolve(), Path(out).resolve()
    if out_real == src_real:
        raise click.UsageError("--out must not be the analysis directory")
    inputs = [src / name for name in (*ANALYSIS_FILES, "manifest.json")]
    for path in inputs:
        if not path.exists():
            click.echo(f"missing input file: {path}", err=True)
            sys.exit(2)
    try:
        params = _grid_params(src / "manifest.json", check_array(src / "raw_series.npy"))
    except PhasecorrError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    out_dir = _prepare_out(out)
    series = os.path.relpath(src_real / "raw_series.npy", out_real)
    panels = [{"name": panel, "file": series, "kind": kind} for panel, kind, _ in REPORT_PANELS]
    panels[-1]["params"] = params  # the heatmap's grid
    index = {"panels": panels,
             "verdict_file": os.path.relpath(src_real / "hotspots.txt", out_real)}
    (out_dir / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    outputs = ["index.json"]
    if render:
        outputs.extend(_render_panels(src / "raw_series.npy", out_dir, params))
    _write_manifest(out_dir, "report", ctx.params, [str(p) for p in inputs], outputs)
    click.echo(f"report written to {out_dir}")


def _render_panels(series_path: Path, out_dir: Path, params: dict) -> list[str]:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        click.echo("matplotlib unavailable; skipping rendering", err=True)
        return []
    series = np.load(series_path, allow_pickle=False)
    rendered = []
    for _, kind, image in REPORT_PANELS:
        fig, ax = plt.subplots()
        if kind == "line":
            ax.plot(series, lw=0.5)
            ax.set_xlabel("t"); ax.set_ylabel("value")
        elif kind == "power_spectrum":
            power = power_spectrum(np.fft.fft(series))
            nz = np.flatnonzero(power > 0)
            ax.loglog(nz, power[nz], lw=0.5)
            ax.set_xlabel("bin"); ax.set_ylabel("power")
        else:
            grid = segmented_bispectrum(TimeSeries(series), **params)
            ax.imshow(grid.dense(), origin="lower", aspect="auto", cmap="viridis")
            ax.set_xlabel("k2"); ax.set_ylabel("k1")
        fig.savefig(out_dir / image, metadata={"Software": ""})
        plt.close(fig)
        rendered.append(image)
    return rendered


if __name__ == "__main__":
    main()
