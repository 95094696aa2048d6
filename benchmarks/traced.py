"""Run one phasecorr CLI command in-process with a span around every layer call.

usage: python3 traced.py SPANS_JSON COMMAND [ARGS...]

The CLI, io, spectral and simulator modules call each other through
module-global names, so replacing those names with timing wrappers traces
the exact CLI path without touching the package. Spans stay in memory and
are written to SPANS_JSON when the command ends, as
``{"exit_code": int, "spans": [[name, start, end, parent, attrs], ...]}``
with times from ``time.perf_counter`` in seconds and ``parent`` the index
of the enclosing span (or null).
"""

from __future__ import annotations

import functools
import json
import sys
import time

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else None
        span = [name, _now(), None, parent, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = _now()
        self._open.pop()

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        """Replace ``module.attr`` by a wrapper recording span ``name``.

        ``attrs`` maps the call's result to a dict of counts kept on the span.
        Names the module no longer has are skipped.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span[4] = attrs(result)
            return result

        setattr(module, attr, timed)


def _grid_counts(grid) -> dict:
    return {"segments": int(grid.segments_averaged), "grid_bins": int(len(grid.values))}


def _hotspot_counts(report) -> dict:
    return {"hotspots": len(report.hotspots)}


def _cleaning_counts(result) -> dict:
    _, report = result
    return {
        "rows_in": report.n_records_in,
        "rows_out": report.n_records_out,
        "dropped_invalid": report.n_dropped_invalid,
        "dropped_duplicate": report.n_dropped_duplicate,
        "gaps": report.n_gaps,
    }


def instrument(tracer: Tracer) -> None:
    import phasecorr.cli as cli
    import phasecorr.io as io
    import phasecorr.simulator as simulator
    import phasecorr.spectral as spectral

    for attr in ("read_series_csv", "write_series_csv", "write_spectrum_csv",
                 "write_grid_csv", "write_heatmap_csv", "format_hotspot_report"):
        tracer.wrap(cli, attr, f"io.{attr}")
    tracer.wrap(cli, "segmented_bispectrum", "spectral.segmented_bispectrum", _grid_counts)
    tracer.wrap(cli, "detect_hotspots", "spectral.detect_hotspots", _hotspot_counts)
    tracer.wrap(cli, "dft_forward", "spectral.dft_forward")
    tracer.wrap(cli, "power_spectrum", "spectral.power_spectrum")
    tracer.wrap(cli, "load_ohlc_csv", "market.load_ohlc_csv", _cleaning_counts)
    tracer.wrap(cli, "build_series", "market.build_series")
    tracer.wrap(cli, "run_simulation", "simulator.run")
    tracer.wrap(cli, "gen_triad", "synthetic.gen_triad")
    # callers inside the package
    tracer.wrap(io, "bicoherence", "spectral.bicoherence")
    tracer.wrap(spectral, "bicoherence", "spectral.bicoherence")
    tracer.wrap(spectral, "auto_threshold", "spectral.auto_threshold")
    tracer.wrap(simulator, "step", "simulator.step")
    tracer.wrap(simulator, "init_field", "simulator.init_field")
    tracer.wrap(simulator, "spatial_energy_spectrum", "simulator.spatial_energy_spectrum")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.begin("cli.import")
    import click
    import phasecorr.cli
    tracer.end(span)
    instrument(tracer)

    span = tracer.begin("cli.main")
    try:
        phasecorr.cli.main(cli_args, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    finally:
        tracer.end(span)
    with open(spans_path, "w") as fh:
        json.dump({"exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
