"""Seeded generators for the benchmark datasets: cosine triads with and
without quadratic phase coupling, uniform white noise, and Box-Muller
Gaussian noise."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FrequencyAboveNyquist
from .spectral import TimeSeries

__all__ = [
    "TriadSpec",
    "NoiseSpec",
    "gen_triad",
    "gen_white_uniform",
    "box_muller_pair",
    "gen_gaussian_box_muller",
]

_FREQUENCY_RULES = ("sum", "reciprocal")


@dataclass
class TriadSpec:
    """Three-cosine test signal.

    coupling       : "phase_sum" ties the third phase to the sum of the
                     first two; "independent" draws it separately.
    frequency_rule : "sum" puts the third frequency at wa + wb (the only
                     placement the triple-product detector can see);
                     "reciprocal" uses 1/wg = 1/wa + 1/wb.
    phase_block    : when set, phases are redrawn every ``phase_block``
                     samples (with the block-local clock restarted), which
                     is what makes segment averaging informative.  None
                     keeps one global phase draw for the whole series.
    """

    omega_alpha: float
    omega_beta: float
    coupling: str = "phase_sum"
    frequency_rule: str = "sum"
    n_samples: int = 65536
    noise_amplitude: float = 0.05
    seed: int = 0
    phase_block: int | None = None

    def __post_init__(self):
        if self.coupling not in ("independent", "phase_sum"):
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if self.frequency_rule not in _FREQUENCY_RULES:
            raise ValueError(f"unknown frequency_rule {self.frequency_rule!r}")
        if self.omega_alpha == self.omega_beta:
            raise ValueError("omega_alpha and omega_beta must differ")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not (0 <= self.noise_amplitude < math.inf):
            raise ValueError(f"noise_amplitude must be finite and >= 0, "
                             f"got {self.noise_amplitude}")
        if self.phase_block is not None and self.phase_block < 1:
            raise ValueError(f"phase_block must be >= 1 or None, got {self.phase_block}")
        for w in (self.omega_alpha, self.omega_beta):
            if not (0 < w < math.pi):
                raise FrequencyAboveNyquist(f"frequency {w} outside (0, pi)")
        if not (0 < self.omega_gamma < math.pi):
            raise FrequencyAboveNyquist(f"derived frequency {self.omega_gamma} outside (0, pi)")

    @property
    def omega_gamma(self) -> float:
        if self.frequency_rule == "sum":
            return self.omega_alpha + self.omega_beta
        return 1.0 / (1.0 / self.omega_alpha + 1.0 / self.omega_beta)


@dataclass
class NoiseSpec:
    n_samples: int
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not (0 <= self.amplitude < math.inf):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")


def gen_triad(spec: TriadSpec) -> TimeSeries:
    """cos(wa t + ta) + cos(wb t + tb) + cos(wg t + tg) plus uniform noise.

    tg = ta + tb under phase_sum coupling, an independent draw otherwise.
    Reproducible from the seed.
    """
    rng = np.random.default_rng(spec.seed)
    wa, wb, wg = spec.omega_alpha, spec.omega_beta, spec.omega_gamma
    n = spec.n_samples
    block = spec.phase_block or n
    out = np.empty(n)
    for start in range(0, n, block):
        m = min(block, n - start)
        t = np.arange(m)
        ta, tb = rng.uniform(0.0, 2.0 * np.pi, 2)
        if spec.coupling == "phase_sum":
            tg = ta + tb
        else:
            tg = rng.uniform(0.0, 2.0 * np.pi)
        seg = np.cos(wa * t + ta) + np.cos(wb * t + tb) + np.cos(wg * t + tg)
        if spec.noise_amplitude > 0:
            seg = seg + spec.noise_amplitude * rng.uniform(-1.0, 1.0, m)
        out[start : start + m] = seg
    return TimeSeries(values=out)


def gen_white_uniform(spec: NoiseSpec) -> TimeSeries:
    """I.i.d. uniform samples in [-amplitude, amplitude], exactly demeaned."""
    rng = np.random.default_rng(spec.seed)
    v = rng.uniform(-spec.amplitude, spec.amplitude, spec.n_samples)
    v -= v.mean()
    return TimeSeries(values=v)


def box_muller_pair(u1: float, u2: float) -> float:
    """sqrt(-2 ln u1) cos(2 pi u2) for u1 in (0, 1]."""
    if not (0.0 < u1 <= 1.0):
        raise DomainError(f"u1 must be in (0, 1], got {u1}")
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def gen_gaussian_box_muller(spec: NoiseSpec) -> TimeSeries:
    """Gaussian noise via the Box-Muller cosine branch, scaled by amplitude."""
    rng = np.random.default_rng(spec.seed)
    u1 = 1.0 - rng.random(spec.n_samples)  # (0, 1]
    u2 = rng.random(spec.n_samples)
    v = spec.amplitude * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return TimeSeries(values=v)
