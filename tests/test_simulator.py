import math

import numpy as np
import pytest

from phasecorr import (
    FieldState,
    SolverConfig,
    init_field,
    run,
    simulator,
    spatial_energy_spectrum,
    step,
)
from phasecorr.errors import BlowUp, CflViolation
from phasecorr.simulator import FORCING_BLOCK, _forcing_block

from oracles import legacy_run, legacy_step, reference_forcing


def diffusion_config(**kw):
    base = dict(n_grid=256, dt=1e-4, nu=1.0, forcing_amplitude=0.0,
                equation="diffusion", seed=0, n_steps=10)
    base.update(kw)
    return SolverConfig(**base)


def burgers_config(**kw):
    base = dict(n_grid=256, dt=1e-4, nu=0.01, forcing_amplitude=0.0,
                equation="burgers", seed=0, n_steps=10)
    base.update(kw)
    return SolverConfig(**base)


class TestInitField:
    def test_quarter_points(self):
        state = init_field(SolverConfig(n_grid=16, equation="diffusion"))
        assert state.u[0] == pytest.approx(0.0, abs=1e-15)
        assert state.u[4] == pytest.approx(1.0)
        assert state.u[8] == pytest.approx(0.0, abs=1e-12)
        assert state.u[12] == pytest.approx(-1.0)

    def test_zero_mean(self):
        for n in (16, 64, 1024):
            state = init_field(SolverConfig(n_grid=n, equation="diffusion"))
            assert abs(state.u.mean()) < 1e-12

    def test_peak_near_one(self):
        state = init_field(SolverConfig(n_grid=1024))
        assert abs(np.abs(state.u).max() - 1.0) < 1e-5


class TestStep:
    def test_diffusion_analytic_decay(self):
        config = diffusion_config(n_steps=1000)
        state = init_field(config)
        for _ in range(config.n_steps):
            state = step(state, config)
        x = np.arange(config.n_grid) * (config.length / config.n_grid)
        exact = math.exp(-0.1) * np.sin(x)
        assert np.abs(state.u - exact).max() < 1e-8

    def test_burgers_constant_field_unchanged(self):
        config = burgers_config()
        state = FieldState(u=np.full(256, 0.37))
        out = step(state, config)
        assert np.abs(out.u - 0.37).max() < 1e-12

    def test_temporal_convergence_order(self):
        # self-convergence of the inviscid-term integrator against a dt/8 reference
        def advance(dt, steps):
            config = burgers_config(dt=dt, n_steps=steps)
            state = init_field(config)
            for _ in range(steps):
                state = step(state, config)
            return state.u

        T, dt = 0.128, 0.016
        ref = advance(dt / 8, int(T / dt * 8))
        e1 = np.abs(advance(dt, int(T / dt)) - ref).max()
        e2 = np.abs(advance(dt / 2, int(T / dt * 2)) - ref).max()
        order = math.log2(e1 / e2)
        assert order >= 3.5

    def test_cfl_violation(self):
        config = burgers_config(dt=10.0)
        with pytest.raises(CflViolation):
            step(init_field(config), config)

    def test_blowup_detected(self):
        # a constant field has no diffusion, so it stays above the limit
        config = diffusion_config()
        state = FieldState(u=np.full(256, 2e6))
        with pytest.raises(BlowUp):
            step(state, config)

    def test_dealiasing_zeroes_high_modes(self):
        config = burgers_config()
        state = init_field(config)  # single k=1 mode, well below n/3
        out = step(state, config)
        F = np.fft.rfft(out.u)
        k = np.fft.rfftfreq(config.n_grid, d=1.0 / config.n_grid)
        # zeroed in spectral space; re-transforming the physical field leaves roundoff
        assert np.abs(F[k > config.n_grid // 3]).max() < 1e-13 * np.abs(F).max()


class TestRun:
    def test_deterministic(self):
        config = burgers_config(forcing_amplitude=2.0, n_steps=50, seed=13)
        a = run(config)
        b = run(config)
        assert np.array_equal(a.probe_series.values, b.probe_series.values)
        assert np.array_equal(a.final_state.u, b.final_state.u)

    def test_probe_length_and_snapshots(self):
        config = diffusion_config(n_steps=25, snapshot_stride=10)
        out = run(config)
        assert len(out.probe_series.values) == 25
        # snapshots at steps 10, 20 plus the final state
        assert len(out.snapshots) == 3

    @pytest.mark.parametrize("stride, steps", [(0, [25]), (5, [5, 10, 15, 20, 25]),
                                               (10, [10, 20, 25])])
    def test_snapshot_steps(self, stride, steps):
        out = run(diffusion_config(n_steps=25, snapshot_stride=stride))
        assert [s for s, _ in out.snapshots] == steps
        assert np.array_equal(out.snapshots[-1][1], out.final_state.u)

    def test_diffusion_monotone_decay(self):
        config = diffusion_config(n_steps=500, probe_index=64)  # probe at the sine peak
        out = run(config)
        mags = np.abs(out.probe_series.values)
        assert (np.diff(mags) < 0).all()

    def test_unforced_energy_monotone(self):
        for equation in ("burgers", "diffusion"):
            config = SolverConfig(n_grid=128, dt=1e-3, nu=0.05, forcing_amplitude=0.0,
                                  equation=equation, n_steps=200)
            state = init_field(config)
            energy = np.sum(state.u**2)
            for _ in range(config.n_steps):
                state = step(state, config)
                e = np.sum(state.u**2)
                assert e <= energy * (1 + 1e-12)
                energy = e

    def test_mean_conserved_under_forcing(self):
        config = burgers_config(forcing_amplitude=3.0, n_steps=10_000, dt=1e-4, nu=0.01)
        out = run(config)
        assert abs(out.final_state.u.mean()) < 1e-9


class TestAgainstLegacy:
    """The spectral-state step against the physical-space step it replaced."""

    @pytest.mark.parametrize("config", [
        SolverConfig(n_grid=256, dt=1e-4, nu=3e-3, forcing_amplitude=6.0, seed=5,
                     n_steps=2000, probe_index=17, snapshot_stride=700),
        SolverConfig(n_grid=1024, dt=1e-4, nu=3e-3, forcing_amplitude=6.0, seed=1,
                     n_steps=2000),
        SolverConfig(n_grid=256, dt=1e-3, nu=0.05, forcing_amplitude=4.0, seed=2,
                     equation="diffusion", n_steps=2000, snapshot_stride=500),
    ], ids=["burgers-256", "burgers-1024", "diffusion-256"])
    def test_run(self, config):
        out = run(config)
        probe, snapshots, final = legacy_run(config)
        assert np.abs(out.probe_series.values - probe).max() <= 1e-11
        assert [s for s, _ in out.snapshots] == [s for s, _ in snapshots]
        for (_, got), (_, want) in zip(out.snapshots, snapshots):
            assert np.abs(got - want).max() <= 1e-11
        assert (out.final_state.step, out.final_state.time) == (final.step, final.time)
        assert np.abs(out.final_state.u - final.u).max() <= 1e-11

    @pytest.mark.parametrize("equation", ["burgers", "diffusion"])
    def test_step_on_bare_state(self, equation):
        # a field with every mode, on a state at a later step and time
        config = SolverConfig(n_grid=128, dt=1e-3, nu=0.02, forcing_amplitude=3.0,
                              equation=equation, seed=4, n_steps=10)
        u = np.random.default_rng(6).normal(size=128)
        state = FieldState(u=u, time=0.37, step=12)
        got, want = step(state, config), legacy_step(state, config)
        assert (got.step, got.time) == (want.step, want.time) == (13, 0.37 + 1e-3)
        assert np.abs(got.u - want.u).max() <= 1e-12
        # a carried spectrum gives the same next step as the bare field
        again = step(FieldState(u=got.u, time=got.time, step=got.step), config)
        assert np.abs(step(got, config).u - again.u).max() <= 1e-12

    @pytest.mark.parametrize("kw, error, at", [
        (dict(equation="burgers", dt=2e-2, nu=1e-3, forcing_amplitude=40.0), CflViolation, 16),
        (dict(equation="burgers", dt=1e-2, nu=1e-3, forcing_amplitude=100.0), CflViolation, 80),
        (dict(equation="diffusion", dt=1e-2, nu=0.0, forcing_amplitude=1e7), BlowUp, 48),
    ], ids=["cfl-16", "cfl-80", "blowup-48"])
    def test_failure_step_index(self, kw, error, at):
        config = SolverConfig(n_grid=64, seed=3, n_steps=400, **kw)
        with pytest.raises(error) as got:
            run(config)
        with pytest.raises(error) as want:
            legacy_run(config)
        assert got.value.step == want.value.step == at

    def test_nan_field_is_blowup(self):
        config = diffusion_config()
        with pytest.raises(BlowUp):
            step(FieldState(u=np.full(256, np.nan)), config)

    @pytest.mark.parametrize("equation, at, ffts", [
        ("burgers", 1, 8), ("diffusion", 1, 1),
        ("burgers", FORCING_BLOCK, 9), ("diffusion", FORCING_BLOCK, 2),
    ], ids=["burgers-mid-block", "diffusion-mid-block", "burgers-seam", "diffusion-seam"])
    def test_carried_step_fft_count(self, monkeypatch, equation, at, ffts):
        # a step at a block seam also makes the batched forcing transform
        config = burgers_config(equation=equation, forcing_amplitude=1.0)
        _forcing_block.cache_clear()
        state = init_field(config)
        for _ in range(at):
            state = step(state, config)
        calls = []
        for name in ("rfft", "irfft"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name,
                                lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
        step(state, config)
        assert len(calls) == ffts


class PerStepForcing:
    """Stands in for ``_forcing_block``: row r of block b is drawn and
    transformed on its own, when step ``b * FORCING_BLOCK + r`` asks for it."""

    def __init__(self, seed, n_grid, amplitude, block):
        self.args = seed, n_grid, amplitude
        self.first = block * FORCING_BLOCK

    def __getitem__(self, row):
        return reference_forcing(*self.args, self.first + row)


class TestForcingBlock:
    """The time-blocked forcing against the per-step draw it replaced."""

    @pytest.mark.parametrize("n_grid", [256, 1024])
    @pytest.mark.parametrize("amplitude", [6.0, 0.0])
    def test_rows_equal_per_step_reference(self, n_grid, amplitude):
        for s in (0, 1, 62, 63, 64, 65, 127, 128, 1000):
            got = _forcing_block(9, n_grid, amplitude, s // FORCING_BLOCK)[s % FORCING_BLOCK]
            assert got.tobytes() == reference_forcing(9, n_grid, amplitude, s).tobytes()

    def test_block_is_read_only(self):
        block = _forcing_block(9, 256, 6.0, 0)
        assert block.shape == (FORCING_BLOCK, 129)
        with pytest.raises(ValueError):
            block[0, 1] = 0.0

    @pytest.mark.parametrize("config", [
        SolverConfig(n_grid=256, dt=1e-4, nu=3e-3, forcing_amplitude=6.0, seed=5,
                     n_steps=300, probe_index=17, snapshot_stride=50),
        SolverConfig(n_grid=1024, dt=1e-4, nu=3e-3, forcing_amplitude=6.0, seed=1,
                     n_steps=200, snapshot_stride=64),
        SolverConfig(n_grid=256, dt=1e-3, nu=0.05, forcing_amplitude=4.0, seed=2,
                     equation="diffusion", n_steps=200, snapshot_stride=70),
    ], ids=["burgers-256", "burgers-1024", "diffusion-256"])
    def test_run_byte_equal_to_per_step_forcing(self, monkeypatch, config):
        out = run(config)
        monkeypatch.setattr(simulator, "_forcing_block", PerStepForcing)
        want = run(config)
        assert out.probe_series.values.tobytes() == want.probe_series.values.tobytes()
        assert [s for s, _ in out.snapshots] == [s for s, _ in want.snapshots]
        for (_, got), (_, ref) in zip(out.snapshots, want.snapshots):
            assert got.tobytes() == ref.tobytes()
        assert out.final_state.u.tobytes() == want.final_state.u.tobytes()

    @pytest.mark.parametrize("equation", ["burgers", "diffusion"])
    def test_state_starting_mid_block(self, monkeypatch, equation):
        # a bare state at step 100 (row 36 of block 1), carried across the seam at 128
        config = burgers_config(equation=equation, forcing_amplitude=6.0, seed=8)
        u = np.sin(np.arange(256) * (2 * np.pi / 256)) + 0.1 * np.cos(np.arange(256))

        def advance():
            state = FieldState(u=u, time=0.5, step=100)
            for _ in range(40):
                state = step(state, config)
            return state

        got = advance()
        monkeypatch.setattr(simulator, "_forcing_block", PerStepForcing)
        want = advance()
        assert got.step == want.step == 140
        assert got.u.tobytes() == want.u.tobytes()


class TestCarriedMax:
    def test_carried_value_is_max_abs(self):
        config = burgers_config(forcing_amplitude=3.0, n_steps=5)
        state = init_field(config)
        for _ in range(5):
            state = step(state, config)
            assert state.umax == np.abs(state.u).max()

    def test_carried_value_feeds_cfl_check(self):
        # dt * umax / dx = 1e-4 * 1e5 / (2 pi / 256) >= 1 although |u| <= 1
        config = burgers_config()
        state = init_field(config)
        with pytest.raises(CflViolation):
            step(FieldState(u=state.u, umax=1e5), config)
        step(FieldState(u=state.u), config)


class TestSpatialSpectrum:
    def test_single_mode(self):
        state = init_field(SolverConfig(n_grid=1024))
        E = spatial_energy_spectrum(state)
        assert E[1] == pytest.approx((1024 / 2) ** 2, rel=1e-9)
        assert np.delete(E, 1).max() < 1e-9 * E[1]

    def test_zero_field(self):
        E = spatial_energy_spectrum(FieldState(u=np.zeros(64)))
        assert E.max() == 0.0
