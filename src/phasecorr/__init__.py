"""Spectral phase-correlation toolkit: triple-product Fourier analysis for
detecting planted phase relationships in time series, with synthetic
benchmark generators, a forced 1-D pseudo-spectral solver, and OHLCV
market-data ingestion."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    BispectrumGrid,
    HotspotReport,
    TimeSeries,
    Verdict,
    analyze,
    auto_threshold,
    bicoherence,
    bispectrum,
    detect_hotspots,
    dft_forward,
    power_spectrum,
    segmented_bispectrum,
)
from .synthetic import (  # noqa: F401
    NoiseSpec,
    TriadSpec,
    box_muller_pair,
    gen_gaussian_box_muller,
    gen_triad,
    gen_white_uniform,
)
from .simulator import (  # noqa: F401
    FieldState,
    SimOutput,
    SolverConfig,
    init_field,
    run,
    spatial_energy_spectrum,
    step,
)
from .market import (  # noqa: F401
    CleaningReport,
    TickSeries,
    build_series,
    load_ohlc_csv,
)
