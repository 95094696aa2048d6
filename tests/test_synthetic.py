import math

import numpy as np
import pytest

from phasecorr import (
    NoiseSpec,
    TriadSpec,
    box_muller_pair,
    dft_forward,
    gen_gaussian_box_muller,
    gen_triad,
    gen_white_uniform,
    power_spectrum,
)
from phasecorr.errors import DomainError, FrequencyAboveNyquist


class TestTriadSpec:
    def test_sum_rule(self):
        spec = TriadSpec(omega_alpha=0.22, omega_beta=0.375)
        assert spec.omega_gamma == pytest.approx(0.595)

    def test_reciprocal_rule(self):
        spec = TriadSpec(omega_alpha=0.22, omega_beta=0.375, frequency_rule="reciprocal")
        assert spec.omega_gamma == pytest.approx(1 / (1 / 0.22 + 1 / 0.375))

    def test_nyquist_guard(self):
        with pytest.raises(FrequencyAboveNyquist):
            TriadSpec(omega_alpha=2.0, omega_beta=1.5)  # sum 3.5 > pi

    def test_equal_frequencies_rejected(self):
        with pytest.raises(ValueError):
            TriadSpec(omega_alpha=0.3, omega_beta=0.3)

    @pytest.mark.parametrize("block", [0, -5])
    def test_phase_block_below_one_rejected(self, block):
        with pytest.raises(ValueError, match="phase_block"):
            TriadSpec(omega_alpha=0.22, omega_beta=0.375, phase_block=block)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -0.1])
    def test_noise_amplitude_not_finite_nonnegative_rejected(self, noise):
        with pytest.raises(ValueError, match="noise_amplitude"):
            TriadSpec(omega_alpha=0.22, omega_beta=0.375, noise_amplitude=noise)


    @pytest.mark.parametrize("kw, error, match", [
        ({"coupling": "sum"}, ValueError, "coupling"),
        ({"frequency_rule": "product"}, ValueError, "frequency_rule"),
        ({"n_samples": 1}, ValueError, "n_samples"),
        ({"omega_alpha": 0.0}, FrequencyAboveNyquist, "^frequency "),
        ({"omega_beta": math.pi}, FrequencyAboveNyquist, "^frequency "),
        ({"omega_alpha": -0.1}, FrequencyAboveNyquist, "^frequency "),
    ], ids=["coupling", "frequency-rule", "one-sample", "alpha-zero", "beta-pi",
            "alpha-negative"])
    def test_bad_field_rejected(self, kw, error, match):
        fields = dict(omega_alpha=0.22, omega_beta=0.375)
        fields.update(kw)
        with pytest.raises(error, match=match):
            TriadSpec(**fields)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -1.0])
def test_noise_spec_amplitude_rejected(amplitude):
    with pytest.raises(ValueError, match="amplitude"):
        NoiseSpec(n_samples=64, amplitude=amplitude)


@pytest.mark.parametrize("n_samples", [1, 0])
def test_noise_spec_short_rejected(n_samples):
    with pytest.raises(ValueError, match="n_samples"):
        NoiseSpec(n_samples=n_samples)


class TestGenTriad:
    def test_dominant_bins(self):
        n = 65536
        spec = TriadSpec(omega_alpha=0.22, omega_beta=0.375, n_samples=n,
                         noise_amplitude=0.0, seed=3)
        P = power_spectrum(dft_forward(gen_triad(spec)))
        expected = {round(w * n / (2 * np.pi)) for w in (0.22, 0.375, 0.595)}
        top3 = set(np.argsort(P)[-3:].tolist())
        assert top3 == expected

    def test_t0_value(self):
        spec = TriadSpec(omega_alpha=0.22, omega_beta=0.375, n_samples=16,
                         noise_amplitude=0.0, seed=9)
        s = gen_triad(spec)
        rng = np.random.default_rng(9)
        ta, tb = rng.uniform(0, 2 * np.pi, 2)
        tg = ta + tb
        assert s.values[0] == pytest.approx(math.cos(ta) + math.cos(tb) + math.cos(tg))

    def test_deterministic(self):
        spec = TriadSpec(omega_alpha=0.22, omega_beta=0.375, n_samples=1000, seed=5)
        a = gen_triad(spec).values
        b = gen_triad(spec).values
        assert np.array_equal(a, b)

    def test_phase_block_changes_blocks(self):
        spec = TriadSpec(omega_alpha=0.22, omega_beta=0.375, n_samples=2048,
                         noise_amplitude=0.0, seed=5, phase_block=512)
        v = gen_triad(spec).values
        # different phase draws mean the blocks differ
        assert not np.allclose(v[:512], v[512:1024])

    def test_independent_coupling_differs(self):
        base = dict(omega_alpha=0.22, omega_beta=0.375, n_samples=256, seed=4)
        a = gen_triad(TriadSpec(coupling="phase_sum", **base)).values
        b = gen_triad(TriadSpec(coupling="independent", **base)).values
        assert not np.allclose(a, b)


class TestGenWhiteUniform:
    def test_stats_at_paper_length(self):
        s = gen_white_uniform(NoiseSpec(n_samples=660_000, amplitude=1.0, seed=1))
        assert s.values.mean() == pytest.approx(0.0, abs=1e-15)
        assert s.values.var() == pytest.approx(1 / 3, rel=0.02)

    def test_two_samples_sum_to_zero(self):
        s = gen_white_uniform(NoiseSpec(n_samples=2, seed=0))
        assert s.values.sum() == pytest.approx(0.0, abs=1e-15)

    def test_flat_spectrum_slope(self):
        s = gen_white_uniform(NoiseSpec(n_samples=660_000, seed=2))
        P = power_spectrum(dft_forward(s))
        n = len(s)
        k = np.arange(n // 100, n // 2)
        slope = np.polyfit(np.log(k), np.log(P[k]), 1)[0]
        assert abs(slope) < 0.05


class TestBoxMuller:
    def test_u1_one_gives_zero(self):
        assert box_muller_pair(1.0, 0.123) == 0.0

    def test_exp_half(self):
        assert box_muller_pair(math.exp(-0.5), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_exp_minus_two(self):
        assert box_muller_pair(math.exp(-2.0), 0.5) == pytest.approx(-2.0, abs=1e-12)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            box_muller_pair(0.0, 0.5)
        with pytest.raises(DomainError):
            box_muller_pair(1.5, 0.5)


class TestGenGaussian:
    def test_paper_length_stats(self):
        s = gen_gaussian_box_muller(NoiseSpec(n_samples=660_000, amplitude=1.0, seed=1))
        assert abs(s.values.mean()) < 0.01
        assert abs(s.values.std() - 1.0) < 0.01

    def test_amplitude_zero(self):
        s = gen_gaussian_box_muller(NoiseSpec(n_samples=100, amplitude=0.0, seed=1))
        assert np.abs(s.values).max() == 0.0

    def test_seeds_differ(self):
        a = gen_gaussian_box_muller(NoiseSpec(n_samples=100, seed=1)).values
        b = gen_gaussian_box_muller(NoiseSpec(n_samples=100, seed=2)).values
        assert not np.allclose(a, b)

    def test_matches_scalar_pairs(self):
        spec = NoiseSpec(n_samples=50, amplitude=2.0, seed=7)
        s = gen_gaussian_box_muller(spec)
        rng = np.random.default_rng(7)
        u1 = 1.0 - rng.random(50)
        u2 = rng.random(50)
        expected = [2.0 * box_muller_pair(a, b) for a, b in zip(u1, u2)]
        assert np.allclose(s.values, expected, atol=1e-12)
