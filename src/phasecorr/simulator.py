"""Pseudo-spectral solver for the stochastically forced 1-D Burgers and
diffusion equations on a periodic domain.

The state is advanced in wavenumber space under the 2/3 dealiasing rule,
with classical 4-stage Runge-Kutta and the forcing field frozen across the
stages of a step.  The nonlinearity is taken in conservative form,
``(u u_x)^ = (ik/2) (u^2)^``: with only |k| <= n/3 retained, every alias of
the physical-space square lands above n/3 and is masked, so each stage needs
one inverse and one forward transform.  ``step`` returns the masked spectrum
and max|u| with the field and takes them back on the next call, so a run never
re-transforms its own field or reduces it twice; 8 real FFTs make a Burgers
step, plus one batched forcing transform per ``FORCING_BLOCK`` steps.  The
stage transforms write into two buffers made once per step, and the stage sums
run in place, each keeping the operand order of the plain expression, so it
rounds the same way.  Forcing is i.i.d.
uniform in [-A, A] per grid point per step, demeaned and not scaled by
sqrt(dt); the values of step s come from ``default_rng([seed, s])``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUp, CflViolation
from .spectral import TimeSeries, power_spectrum

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
# steps whose forcing spectra are drawn and transformed together
FORCING_BLOCK = 64
_EQUATIONS = ("burgers", "diffusion")


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
        if self.equation not in _EQUATIONS:
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.snapshot_stride < 0:
            raise ValueError(f"snapshot_stride must be >= 0, got {self.snapshot_stride}")
        if not (0 <= self.probe_index < self.n_grid):
            raise ValueError("probe_index out of range")


@dataclass
class FieldState:
    """The field after ``step`` steps.  ``uh`` is the masked rfft of ``u`` and
    ``umax`` its max|u|, which ``step`` sets on the state it returns, with ``u``
    read-only, and reuses on the next call; a state built or replaced by hand has
    neither, and ``step`` derives both from ``u``."""

    u: np.ndarray
    time: float = 0.0
    step: int = 0
    uh: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)
    umax: float | None = field(default=None, init=False, compare=False, repr=False)


@dataclass
class SimOutput:
    probe_series: TimeSeries
    final_state: FieldState
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)  # (step, u)


def _dealias_mask(n: int) -> np.ndarray:
    """The 2/3 rule on the rfft grid: keep integer wavenumbers k <= n/3."""
    return np.fft.rfftfreq(n, d=1.0 / n) <= n // 3


@functools.lru_cache(maxsize=8)
def _spectral_operators(n: int, length: float, nu: float):
    """(-nu k^2, 2/3-rule-masked ik/2, the mask itself) on the rfft grid."""
    kphys = np.fft.rfftfreq(n, d=1.0 / n) * (2.0 * np.pi / length)
    mask = _dealias_mask(n)
    return -nu * kphys**2, np.where(mask, 0.5j * kphys, 0.0), mask


def init_field(config: SolverConfig) -> FieldState:
    """u(x, 0) = sin(x_j) with x_j = j * length / n_grid."""
    x = np.arange(config.n_grid) * (config.length / config.n_grid)
    return FieldState(u=np.sin(2.0 * np.pi * x / config.length), time=0.0, step=0)


@functools.lru_cache(maxsize=2)
def _forcing_block(seed: int, n_grid: int, amplitude: float, block: int) -> np.ndarray:
    """Masked forcing spectra of steps ``block * FORCING_BLOCK`` onwards, one
    row per step (read-only).  Each row equals the rfft of that step's own
    draw, scaled and demeaned, times the mask.  A run reads one block at a
    time; the cache keeps two, about 0.5 MB each at n_grid = 1024."""
    first = block * FORCING_BLOCK
    f = np.empty((FORCING_BLOCK, n_grid))
    for row in range(FORCING_BLOCK):
        np.random.default_rng([seed, first + row]).random(out=f[row])
    # uniform(-1, 1) is -1 + 2 * random() in C; doubling is exact, so the bits match
    f *= 2.0
    f -= 1.0
    f *= amplitude
    f -= f.mean(axis=-1, keepdims=True)
    fh = np.fft.rfft(f, axis=-1)
    fh *= _dealias_mask(n_grid)
    fh.flags.writeable = False
    return fh


def step(state: FieldState, config: SolverConfig) -> FieldState:
    """Advance one dt; pure function of (state, config).

    Raises CflViolation when dt * max|u| / dx >= 1 (burgers only) and
    BlowUp when the updated field is non-finite or exceeds 1e6.
    """
    n = config.n_grid
    lin, ik_half, mask = _spectral_operators(n, config.length, config.nu)
    nonlinear = config.equation == "burgers"

    u, uh, umax = state.u, state.uh, state.umax
    if uh is None:
        uh = np.fft.rfft(u) * mask
        u = np.fft.irfft(uh, n)  # the dealiased field the spectrum stands for
        umax = float(np.abs(u).max())
    if nonlinear:
        cfl = config.dt * umax / (config.length / n)
        if cfl >= 1.0:
            raise CflViolation(state.step, cfl)

    block, row = divmod(state.step, FORCING_BLOCK)
    fh = _forcing_block(config.seed, n, config.forcing_amplitude, block)[row]

    # a stage's field and the transform of its square; the last irfft allocates,
    # because its array becomes the returned u
    u_stage = np.empty_like(u)
    sq_hat = np.empty_like(uh)

    # every term is masked, so the right-hand side and the update stay masked;
    # each in-place operation keeps the operand order of the plain expression
    # it stands for, so it rounds the same way
    def rhs(uh, u=None):
        r = lin * uh
        r += fh
        if nonlinear:
            if u is None:
                u = np.fft.irfft(uh, n, out=u_stage)
            nl = np.fft.rfft(np.multiply(u, u, out=u_stage), out=sq_hat)
            r -= np.multiply(ik_half, nl, out=nl)
        return r

    dt = config.dt
    r1 = rhs(uh, u)
    stage = np.multiply(0.5 * dt, r1)
    stage += uh
    r2 = rhs(stage)
    np.multiply(0.5 * dt, r2, out=stage)
    stage += uh
    r3 = rhs(stage)
    np.multiply(dt, r3, out=stage)
    stage += uh
    r4 = rhs(stage)
    # uh + (dt / 6) * (2 r2 + r1 + 2 r3 + r4), summed in r2's buffer in this
    # order: another order rounds differently
    acc = np.multiply(2.0, r2, out=r2)
    acc += r1
    acc += np.multiply(2.0, r3, out=r3)
    acc += r4
    np.multiply(dt / 6.0, acc, out=acc)
    acc += uh
    uh = acc
    u = np.fft.irfft(uh, n)

    umax = float(np.abs(u).max())
    if not umax <= BLOWUP_LIMIT:  # also true for NaN
        raise BlowUp(state.step)
    # uh stands for u on the next call, so u is read-only: an in-place change raises
    # rather than being stepped as the old field
    u.flags.writeable = False
    new = FieldState(u=u, time=state.time + dt, step=state.step + 1)
    new.uh, new.umax = uh, umax
    return new


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
    return SimOutput(probe_series=TimeSeries(values=probe), final_state=state,
                     snapshots=snapshots)


def spatial_energy_spectrum(state: FieldState) -> np.ndarray:
    """E(k) = |u_hat(k)|^2 for k = 0..n/2, unnormalized forward transform."""
    return power_spectrum(np.fft.fft(state.u))
