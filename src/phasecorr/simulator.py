"""Pseudo-spectral solver for the stochastically forced 1-D Burgers and
diffusion equations on a periodic domain.

Spatial derivatives are evaluated in wavenumber space, the quadratic
nonlinearity is formed in physical space under the 2/3 dealiasing rule,
and time stepping is classical 4-stage Runge-Kutta with the forcing field
frozen across the stages of a step.  Forcing is i.i.d. uniform in [-A, A]
per grid point per step, demeaned and not scaled by sqrt(dt).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUp, CflViolation
from .spectral import TimeSeries

__all__ = [
    "SolverConfig",
    "FieldState",
    "SimOutput",
    "init_field",
    "step",
    "run",
    "spatial_energy_spectrum",
]

BLOWUP_LIMIT = 1e6


@dataclass
class SolverConfig:
    n_grid: int = 1024
    length: float = 2.0 * math.pi
    dt: float = 1e-4
    nu: float = 3e-3
    forcing_amplitude: float = 6.0
    equation: str = "burgers"
    seed: int = 0
    n_steps: int = 100_000
    probe_index: int = 0
    snapshot_stride: int = 0  # 0 = final snapshot only

    def __post_init__(self):
        if self.n_grid < 16 or self.n_grid & (self.n_grid - 1):
            raise ValueError(f"n_grid must be a power of two >= 16, got {self.n_grid}")
        if self.equation not in ("burgers", "diffusion"):
            raise ValueError(f"unknown equation {self.equation!r}")
        if not (0 < self.length < math.inf):
            raise ValueError(f"length must be positive and finite, got {self.length}")
        if not (0 < self.dt < math.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0 <= self.nu < math.inf):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu}")
        if not (0 <= self.forcing_amplitude < math.inf):
            raise ValueError(f"forcing_amplitude must be finite and >= 0, "
                             f"got {self.forcing_amplitude}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2 for a probe series, got {self.n_steps}")
        if self.snapshot_stride < 0:
            raise ValueError(f"snapshot_stride must be >= 0, got {self.snapshot_stride}")
        if not (0 <= self.probe_index < self.n_grid):
            raise ValueError("probe_index out of range")


@dataclass
class FieldState:
    u: np.ndarray
    time: float = 0.0
    step: int = 0


@dataclass
class SimOutput:
    probe_series: TimeSeries
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)  # (step, u)
    final_spatial_spectrum: np.ndarray = field(default_factory=lambda: np.zeros(0))
    final_state: FieldState | None = None


@functools.lru_cache(maxsize=8)
def _spectral_operators(n: int, length: float):
    """(ik, -k^2 prefactors on the rfft grid, 2/3-rule mask)."""
    k = np.fft.rfftfreq(n, d=1.0 / n)  # integer wavenumbers 0..n/2
    kphys = k * (2.0 * np.pi / length)
    mask = k <= n // 3
    return 1j * kphys, kphys**2, mask


def init_field(config: SolverConfig) -> FieldState:
    """u(x, 0) = sin(x_j) with x_j = j * length / n_grid."""
    x = np.arange(config.n_grid) * (config.length / config.n_grid)
    return FieldState(u=np.sin(2.0 * np.pi * x / config.length), time=0.0, step=0)


def _forcing(config: SolverConfig, step_index: int) -> np.ndarray:
    rng = np.random.default_rng([config.seed, step_index])
    f = config.forcing_amplitude * rng.uniform(-1.0, 1.0, config.n_grid)
    f -= f.mean()
    return f


def step(state: FieldState, config: SolverConfig) -> FieldState:
    """Advance one dt; pure function of (state, config).

    Raises CflViolation when dt * max|u| / dx >= 1 (burgers only) and
    BlowUp when the updated field is non-finite or exceeds 1e6.
    """
    n = config.n_grid
    ik, ksq, mask = _spectral_operators(n, config.length)
    nonlinear = config.equation == "burgers"

    u0 = state.u
    if nonlinear:
        cfl = config.dt * float(np.abs(u0).max()) / (config.length / n)
        if cfl >= 1.0:
            raise CflViolation(state.step, cfl)

    fh = np.fft.rfft(_forcing(config, state.step)) * mask

    def rhs(uh):
        r = -config.nu * ksq * uh + fh
        if nonlinear:
            u = np.fft.irfft(uh, n)
            ux = np.fft.irfft(ik * uh, n)
            r = r - np.fft.rfft(u * ux) * mask
        return r

    dt = config.dt
    uh = np.fft.rfft(u0) * mask
    r1 = rhs(uh)
    r2 = rhs(uh + 0.5 * dt * r1)
    r3 = rhs(uh + 0.5 * dt * r2)
    r4 = rhs(uh + dt * r3)
    uh = (uh + (dt / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)) * mask
    u = np.fft.irfft(uh, n)

    if not np.isfinite(u).all() or np.abs(u).max() > BLOWUP_LIMIT:
        raise BlowUp(state.step)
    return FieldState(u=u, time=state.time + dt, step=state.step + 1)


def run(config: SolverConfig) -> SimOutput:
    """Integrate n_steps from the sin(x) initial condition.

    Records the probe value after every step and ``(step, u)`` snapshots at
    every multiple of the stride and after the last step; fully reproducible
    from the seed.
    """
    state = init_field(config)
    probe = np.empty(config.n_steps)
    snapshots: list[tuple[int, np.ndarray]] = []
    for i in range(config.n_steps):
        state = step(state, config)
        probe[i] = state.u[config.probe_index]
        if config.snapshot_stride and state.step % config.snapshot_stride == 0:
            snapshots.append((state.step, state.u.copy()))
    if not snapshots or snapshots[-1][0] != state.step:
        snapshots.append((state.step, state.u.copy()))
    series = TimeSeries(
        values=probe,
        dt=config.dt,
        label=f"{config.equation}-probe{config.probe_index}-seed{config.seed}",
    )
    return SimOutput(
        probe_series=series,
        snapshots=snapshots,
        final_spatial_spectrum=spatial_energy_spectrum(state),
        final_state=state,
    )


def spatial_energy_spectrum(state: FieldState) -> np.ndarray:
    """E(k) = |u_hat(k)|^2 for k = 0..n/2, unnormalized forward transform."""
    n = len(state.u)
    F = np.fft.fft(state.u)
    return np.abs(F[: n // 2 + 1]) ** 2
