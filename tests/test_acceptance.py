"""End-to-end acceptance checks.

Each test prints one ``criterion NN ...: PASS/FAIL`` line directly to the
terminal (bypassing capture) so a full run gives a ten-line scorecard.
"""

import math
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from phasecorr import (
    NoiseSpec,
    SolverConfig,
    TimeSeries,
    TriadSpec,
    Verdict,
    analyze,
    bispectrum,
    box_muller_pair,
    build_series,
    detect_hotspots,
    dft_forward,
    gen_gaussian_box_muller,
    gen_triad,
    gen_white_uniform,
    init_field,
    load_ohlc_csv,
    power_spectrum,
    run,
    segmented_bispectrum,
    spatial_energy_spectrum,
    step,
)

from oracles import dft_direct

SEG = 4096
K_ALPHA = round(0.22 * SEG / (2 * math.pi))  # 143
K_BETA = round(0.375 * SEG / (2 * math.pi))  # 244

PAPER_BURGERS = dict(n_grid=1024, length=2 * math.pi, dt=1e-4, nu=3e-3,
                     forcing_amplitude=6.0, equation="burgers")


def report(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"criterion {number:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name}: {detail}"


def triad_series(coupled, seed):
    spec = TriadSpec(
        omega_alpha=0.22, omega_beta=0.375,
        coupling="phase_sum" if coupled else "independent",
        n_samples=64 * SEG, seed=seed, phase_block=SEG,
    )
    return gen_triad(spec)


def test_criterion_01_dft_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(200):
        n = (8, 16, 32, 64)[i % 4]
        series = TimeSeries(values=rng.normal(size=n))
        fast = dft_forward(series)
        direct = dft_direct(series.values)
        worst = max(worst, np.abs(fast - direct).max() / np.abs(direct).max())
    elapsed = time.perf_counter() - t0
    report(capsys, 1, "dft matches direct-sum oracle", worst < 1e-10 and elapsed < 5.0,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_coupled_triad_detection(capsys):
    t0 = time.perf_counter()
    grid, rep = analyze(triad_series(True, seed=42), SEG)
    b2 = grid.bicoherence_at(K_BETA, K_ALPHA)
    verdict = rep.verdict
    elapsed = time.perf_counter() - t0
    ok = b2 > 0.9 and verdict is Verdict.PHASE_CORRELATED and elapsed < 10.0
    report(capsys, 2, "coupled triad flagged PhaseCorrelated", ok,
           f"b2({K_ALPHA},{K_BETA})={b2:.4f}, verdict={verdict.value}, {elapsed:.1f}s")


def test_criterion_03_uncoupled_triad_null(capsys):
    t0 = time.perf_counter()
    false_positives = 0
    for seed in range(20):
        _, rep = analyze(triad_series(False, seed=seed), SEG)
        if rep.verdict is Verdict.PHASE_CORRELATED:
            false_positives += 1
    elapsed = time.perf_counter() - t0
    report(capsys, 3, "uncoupled triad stays null", false_positives <= 1 and elapsed < 60.0,
           f"{false_positives}/20 false positives, {elapsed:.1f}s")


def test_criterion_04_white_noise_null(capsys):
    full = gen_white_uniform(NoiseSpec(n_samples=660_000, seed=5))
    seg = 8192
    trimmed = TimeSeries(values=full.values[: 64 * seg])
    grid = segmented_bispectrum(trimmed, seg)
    n_hotspots = len(detect_hotspots(grid).hotspots)

    power = power_spectrum(dft_forward(full))
    half = len(power) - 1
    k = np.arange(half // 100, half + 1)
    slope = np.polyfit(np.log(k), np.log(power[k]), 1)[0]
    ok = n_hotspots == 0 and abs(slope) < 0.05
    report(capsys, 4, "white noise: no hotspots, flat spectrum", ok,
           f"{n_hotspots} hotspots, slope {slope:+.4f}")


def test_criterion_05_box_muller_statistics(capsys):
    g = gen_gaussian_box_muller(NoiseSpec(n_samples=660_000, seed=2)).values
    spot_zero = box_muller_pair(1.0, 0.3)
    spot_one = box_muller_pair(math.exp(-0.5), 0.0)
    ok = (abs(g.mean()) < 0.01 and abs(g.std() - 1.0) < 0.01
          and abs(spot_zero) < 1e-12 and abs(spot_one - 1.0) < 1e-12)
    report(capsys, 5, "gaussian sampler moments and spot values", ok,
           f"mean {g.mean():+.4f}, std {g.std():.4f}")


def test_criterion_06_diffusion_analytic(capsys):
    config = SolverConfig(n_grid=256, dt=1e-4, nu=1.0, forcing_amplitude=0.0,
                          equation="diffusion", n_steps=1000)
    state = init_field(config)
    for _ in range(config.n_steps):
        state = step(state, config)
    x = np.arange(config.n_grid) * (config.length / config.n_grid)
    err = np.abs(state.u - math.exp(-0.1) * np.sin(x)).max()
    report(capsys, 6, "diffusion matches analytic decay", err < 1e-8,
           f"max err {err:.2e}")


def test_criterion_07_burgers_spectral_depreciation(capsys):
    t0 = time.perf_counter()
    out = run(SolverConfig(n_steps=100_000, seed=0, **PAPER_BURGERS))
    elapsed = time.perf_counter() - t0
    E = spatial_energy_spectrum(out.final_state)
    k_max = len(E) - 1  # highest resolvable mode
    top = np.arange(k_max // 10, k_max + 1)
    prev = np.arange(k_max // 100, k_max // 10)
    ratio = E[prev].mean() / E[top].mean()
    ok = np.isfinite(out.final_state.u).all() and ratio >= 10.0 and elapsed < 600.0
    report(capsys, 7, "forced solver stable with high-k rolloff", ok,
           f"decade ratio {ratio:.0f}, {elapsed:.0f}s")


def test_criterion_08_turbulence_null(capsys):
    seg = 1024
    consistent = 0
    for seed in range(20):
        out = run(SolverConfig(n_steps=64 * seg, seed=seed, **PAPER_BURGERS))
        _, rep = analyze(out.probe_series, seg)
        if rep.verdict is Verdict.FULLY_DEVELOPED_TURBULENCE_CONSISTENT:
            consistent += 1
    report(capsys, 8, "turbulent probe reads as uncorrelated", consistent >= 19,
           f"{consistent}/20 seeds")


def _ohlc_fixture(tmp_path, coupled, name):
    values = 100.0 + triad_series(coupled, seed=17).values[: 32 * 1024]
    rows = ["datetime,open,high,low,close,volume"]
    session_start = datetime(2020, 1, 6, 9, 0)
    minute = 0
    for raw in values:
        v = float(raw)
        ts = session_start + timedelta(minutes=minute)
        rows.append(f"{ts:%Y-%m-%d %H:%M},{v!r},{v + 0.01!r},{v - 0.01!r},{v!r},10")
        minute += 1
        if minute == 8 * 60:
            minute = 0
            session_start += timedelta(days=1)
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return path


def _pipeline_verdict(path):
    ticks, _ = load_ohlc_csv(path)
    _, rep = analyze(build_series(ticks), 1024)
    return rep.verdict


def test_criterion_09_market_pipeline(capsys, tmp_path):
    v_coupled = _pipeline_verdict(_ohlc_fixture(tmp_path, True, "coupled.csv"))
    v_uncoupled = _pipeline_verdict(_ohlc_fixture(tmp_path, False, "uncoupled.csv"))

    malformed = tmp_path / "malformed.csv"
    malformed.write_text(
        "datetime,open,high,low,close,volume\n"
        "2020-01-06 09:15,100,101,99.5,100.5,1000\n"
        "2020-01-06 09:16,100.5,102,100,101,1200\n"
        "2020-01-06 09:16,100.5,102,100,101,900\n"   # duplicate minute
        "2020-01-06 09:17,100,99,101,100,500\n"      # high below low
        "2020-01-07 09:15,101,102,100,101,800\n"     # next session
    )
    _, rep = load_ohlc_csv(malformed)
    counts_ok = (rep.n_records_in == 5 and rep.n_records_out == 3
                 and rep.n_dropped_invalid == 1 and rep.n_dropped_duplicate == 1
                 and rep.n_gaps == 1 and rep.sessions_detected == 2)
    ok = (v_coupled is Verdict.PHASE_CORRELATED
          and v_uncoupled is Verdict.FULLY_DEVELOPED_TURBULENCE_CONSISTENT
          and counts_ok)
    report(capsys, 9, "market ingest end to end", ok,
           f"coupled={v_coupled.value}, uncoupled={v_uncoupled.value}, "
           f"counts {'exact' if counts_ok else 'WRONG'}")


def test_criterion_10_property_suite(capsys):
    rng = np.random.default_rng(99)
    failures = []

    for case in range(50):
        x = rng.normal(size=64)
        series = TimeSeries(values=x)
        F = dft_forward(series)
        B = bispectrum(dft_forward(series))

        shift = int(rng.integers(1, 64))
        B_shift = bispectrum(dft_forward(TimeSeries(values=np.roll(x, shift))))
        if not np.allclose(B.values, B_shift.values, rtol=1e-9, atol=1e-6):
            failures.append(f"shift invariance, case {case}")

        c = float(rng.uniform(0.5, 3.0))
        B_scaled = bispectrum(dft_forward(TimeSeries(values=c * x)))
        if not np.allclose(B_scaled.values, c**3 * B.values, rtol=1e-9):
            failures.append(f"cubic scaling, case {case}")
        from phasecorr import bicoherence
        if not np.allclose(bicoherence(B_scaled), bicoherence(B), rtol=1e-9):
            failures.append(f"bicoherence scale invariance, case {case}")

        if not math.isclose(np.sum(x**2), np.sum(np.abs(F) ** 2) / 64, rel_tol=1e-10):
            failures.append(f"parseval, case {case}")

        if not np.allclose(F[1:][::-1], np.conj(F[1:]), rtol=1e-9, atol=1e-9):
            failures.append(f"conjugate symmetry, case {case}")

    config = SolverConfig(n_grid=64, dt=1e-3, nu=0.05, forcing_amplitude=0.0,
                          equation="burgers", n_steps=5)
    for case in range(50):
        coeffs = rng.normal(size=4)
        x = np.arange(64) * (config.length / 64)
        u = sum(c * np.sin((k + 1) * x) for k, c in enumerate(coeffs))
        state = init_field(config)
        state = type(state)(u=u - u.mean())
        energy = np.sum(state.u**2)
        for _ in range(config.n_steps):
            state = step(state, config)
            e = np.sum(state.u**2)
            if e > energy * (1 + 1e-12):
                failures.append(f"energy monotonicity, case {case}")
                break
            energy = e

    report(capsys, 10, "algebraic invariants across 50 seeded cases",
           not failures, failures[0] if failures else "all held")
