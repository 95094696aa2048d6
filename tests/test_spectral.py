
import numpy as np
import pytest

from phasecorr import (
    BispectrumGrid,
    TimeSeries,
    Verdict,
    bicoherence,
    bispectrum,
    detect_hotspots,
    dft_forward,
    power_spectrum,
    segmented_bispectrum,
)
from phasecorr.errors import (
    DomainTooSmall,
    LengthTooShort,
    NonFiniteInput,
    SegmentTooLong,
)

from oracles import bispectrum_direct, dft_direct, domain_pairs


def seeded_series(seed, n):
    return TimeSeries(np.random.default_rng(seed).normal(size=n))


class TestDftForward:
    def test_constant_signal(self):
        F = dft_forward(TimeSeries([1.0, 1.0, 1.0, 1.0]))
        assert F[0] == pytest.approx(4.0)
        assert np.abs(F[1:]).max() < 1e-12

    def test_single_bin_cosine(self):
        t = np.arange(16)
        F = dft_forward(TimeSeries(np.cos(2 * np.pi * 3 * t / 16)))
        assert abs(F[3]) == pytest.approx(8.0, rel=1e-12)
        assert abs(F[13]) == pytest.approx(8.0, rel=1e-12)
        others = np.delete(np.abs(F), [3, 13])
        assert others.max() < 1e-9

    def test_matches_direct_sum(self):
        s = seeded_series(42, 8)
        fast = dft_forward(s)
        direct = dft_direct(s.values)
        assert np.abs(fast - direct).max() < 1e-12

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            TimeSeries([1.0, np.nan, 2.0])

    def test_rejects_short(self):
        with pytest.raises(LengthTooShort):
            TimeSeries([1.0])

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = rng.normal(size=32)
            g = rng.normal(size=32)
            a, b = rng.normal(size=2)
            lhs = dft_forward(TimeSeries(a * f + b * g))
            rhs = a * dft_forward(TimeSeries(f)) + b * dft_forward(TimeSeries(g))
            assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_conjugate_symmetry(self):
        for seed in range(10):
            F = dft_forward(seeded_series(seed, 64))
            assert np.abs(F[1:] - np.conj(F[:0:-1])).max() < 1e-9 * np.abs(F).max()


class TestPowerSpectrum:
    def test_zero_spectrum(self):
        s = TimeSeries(np.zeros(16) + 0.0)
        assert power_spectrum(dft_forward(s)).max() == 0.0

    def test_cosine_power(self):
        t = np.arange(16)
        P = power_spectrum(dft_forward(TimeSeries(np.cos(2 * np.pi * 3 * t / 16))))
        assert P[3] == pytest.approx(64.0, rel=1e-12)
        assert np.delete(P, 3).max() < 1e-17

    def test_parseval(self):
        for seed in range(10):
            s = seeded_series(seed, 128)
            P = power_spectrum(dft_forward(s))
            n = len(s)
            rhs = (P[0] + P[n // 2] + 2 * P[1 : n // 2].sum()) / n
            assert rhs == pytest.approx(np.sum(s.values**2), rel=1e-9)


def triad_series(n, k_alpha, k_beta, theta_a, theta_b, theta_g):
    t = np.arange(n)
    wa = 2 * np.pi * k_alpha / n
    wb = 2 * np.pi * k_beta / n
    wg = 2 * np.pi * (k_alpha + k_beta) / n
    return TimeSeries(
        np.cos(wa * t + theta_a) + np.cos(wb * t + theta_b) + np.cos(wg * t + theta_g)
    )


class TestBispectrum:
    def test_zero_signal_zero_grid(self):
        g = bispectrum(dft_forward(TimeSeries(np.zeros(32))))
        assert np.abs(g.values).max() == 0.0

    def test_too_small(self):
        with pytest.raises(DomainTooSmall):
            bispectrum(dft_forward(TimeSeries([1.0, 2.0, 3.0, 4.0])))

    def test_coupled_triad_closed_form(self):
        # three unit cosines at bins 5, 9, 14 with theta_g = theta_a + theta_b
        ta, tb = 0.7, 1.9
        g = bispectrum(dft_forward(triad_series(256, 5, 9, ta, tb, ta + tb)))
        b = g.value_at(5, 9)
        assert abs(b) == pytest.approx((256 / 2) ** 3, rel=1e-9)
        assert abs(b.real - 2_097_152.0) < 1.0
        assert abs(np.angle(b)) < 1e-6

    def test_uncoupled_triad_phase(self):
        ta, tb, tg = 0.7, 1.9, 2.4
        g = bispectrum(dft_forward(triad_series(256, 5, 9, ta, tb, tg)))
        b = g.value_at(5, 9)
        assert abs(b) == pytest.approx((256 / 2) ** 3, rel=1e-9)
        assert np.angle(b) == pytest.approx(ta + tb - tg, abs=1e-6)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_matches_triple_loop_oracle(self, n):
        s = seeded_series(n, n)
        g = bispectrum(dft_forward(s))
        expected = bispectrum_direct(s.values)
        scale = max(abs(v) for v in expected.values())
        for i, pair in enumerate(zip(*domain_pairs(g.half))):
            want = expected[pair]
            assert abs(g.values[i] - want) <= 1e-10 * scale

    def test_time_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.normal(size=128)
            shift = int(rng.integers(1, 128))
            g0 = bispectrum(dft_forward(TimeSeries(v)))
            g1 = bispectrum(dft_forward(TimeSeries(np.roll(v, shift))))
            scale = np.abs(g0.values).max()
            assert np.abs(g0.values - g1.values).max() <= 1e-6 * scale

    def test_amplitude_scaling(self):
        v = np.random.default_rng(4).normal(size=64)
        c = 3.7
        g1 = bispectrum(dft_forward(TimeSeries(v)))
        gc = bispectrum(dft_forward(TimeSeries(c * v)))
        scale = np.abs(g1.values).max()
        assert np.abs(gc.values - c**3 * g1.values).max() <= 1e-9 * c**3 * scale
        assert np.abs(bicoherence(gc) - bicoherence(g1)).max() <= 1e-9

    def test_symmetry_fold(self):
        g = bispectrum(dft_forward(seeded_series(5, 64)))
        assert g.value_at(9, 4) == g.value_at(4, 9)


def assert_layout_matches_loop(g):
    """flat_index over every (k1, k2) in [-2, half + 2]^2, and coords over every
    flat index, against the loop-built principal domain."""
    k1, k2 = domain_pairs(g.half)
    flat = {(a, b): i for i, (a, b) in enumerate(zip(k1.tolist(), k2.tolist()))}
    span = range(-2, g.half + 3)
    want = [flat.get((max(a, b), min(a, b)), -1) for a in span for b in span]
    a, b = np.meshgrid(span, span, indexing="ij")
    assert g.flat_index(a, b).ravel().tolist() == want
    got1, got2 = g.coords(np.arange(len(g.values)))
    assert got1.tolist() == k1.tolist() and got2.tolist() == k2.tolist()


class TestDomainLayout:
    @pytest.mark.parametrize("half", range(0, 67))
    def test_closed_form_matches_loop(self, half):
        k1 = domain_pairs(half)[0].tolist()
        bins = len(k1)
        g = BispectrumGrid(np.zeros(bins, dtype=complex), np.zeros(bins), np.zeros(bins),
                           1, 2 * half)
        assert g.offsets.tolist() == [k1.index(a) for a in range(half + 1)] + [bins]
        assert_layout_matches_loop(g)

    @pytest.mark.parametrize("n", [8, 9, 16, 30, 64])
    def test_index_is_flat_position(self, n):
        g = bispectrum(dft_forward(seeded_series(n, n)))
        assert_layout_matches_loop(g)
        for i, (a, b) in enumerate(zip(*domain_pairs(g.half))):
            assert g._index(a, b) == i
            assert g._index(b, a) == i
        for a, b in [(g.half, 1), (-1, 0), (0, -1), (-3, 2), (g.half + 1, 0), (0, g.half + 1),
                     (10**6, 10**6), (2**62, 2**62), (2**70, 0), (0, -2**70)]:
            with pytest.raises(IndexError):
                g._index(a, b)
            with pytest.raises(IndexError):
                g.value_at(a, b)
            with pytest.raises(IndexError):
                g.bicoherence_at(a, b)

    def test_dense_map(self):
        g = segmented_bispectrum(seeded_series(6, 2048), 128)
        d = g.dense()
        b2 = bicoherence(g)
        assert d.shape == (65, 65)
        assert np.array_equal(d, d.T)
        k1, k2 = domain_pairs(g.half)
        assert np.array_equal(d[k1, k2], b2)
        k1, k2 = np.indices(d.shape)
        assert (d[k1 + k2 > g.half] == 0.0).all()


def per_segment_reference(values, seg_len, overlap, window, detrend):
    """Average of single-segment grids, one segment at a time."""
    step = max(1, int(round(seg_len * (1.0 - overlap))))
    t = np.arange(seg_len)
    grids = []
    for s in range(0, len(values) - seg_len + 1, step):
        seg = values[s : s + seg_len]
        if detrend == "demean":
            seg = seg - seg.mean()
        elif detrend == "linear":
            seg = seg - np.polyval(np.polyfit(t, seg, 1), t)
        if window == "hann":
            seg = seg * np.hanning(seg_len)
        grids.append(bispectrum(dft_forward(TimeSeries(seg))))
    return grids


class TestSegmentedBispectrum:
    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    @pytest.mark.parametrize("detrend", ["none", "demean", "linear"])
    @pytest.mark.parametrize("overlap", [0.0, 0.5])
    def test_matches_per_segment_reference(self, window, detrend, overlap):
        # 5 segments of 64 and a 21-sample tail that no segment reaches
        rng = np.random.default_rng(31)
        values = rng.normal(size=5 * 64 + 21) + 0.01 * np.arange(5 * 64 + 21)
        g = segmented_bispectrum(TimeSeries(values), 64, overlap_fraction=overlap,
                                 window=window, detrend=detrend)
        grids = per_segment_reference(values, 64, overlap, window, detrend)
        assert g.segments_averaged == len(grids) == (5 if overlap == 0.0 else 9)
        for name in ("values", "norm_a", "norm_b"):
            want = np.mean([getattr(r, name) for r in grids], axis=0)
            got = getattr(g, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_identical_segments_average_to_single(self):
        seg = triad_series(128, 5, 9, 0.3, 1.1, 1.4).values
        series = TimeSeries(np.tile(seg, 8))
        g_avg = segmented_bispectrum(series, 128, detrend="none")
        g_one = bispectrum(dft_forward(TimeSeries(seg)))
        assert g_avg.segments_averaged == 8
        assert g_avg.value_at(5, 9) == pytest.approx(g_one.value_at(5, 9), rel=1e-12)

    def test_segment_too_long(self):
        with pytest.raises(SegmentTooLong):
            segmented_bispectrum(seeded_series(0, 64), 128)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            segmented_bispectrum(seeded_series(0, 256), 100)

    def test_coupled_blocks_high_bicoherence(self):
        # fresh phases per block, third phase locked to the sum
        rng = np.random.default_rng(11)
        n_seg, seg = 32, 512
        t = np.arange(seg)
        ka, kb = 20, 45
        blocks = []
        for _ in range(n_seg):
            ta, tb = rng.uniform(0, 2 * np.pi, 2)
            blocks.append(
                np.cos(2 * np.pi * ka * t / seg + ta)
                + np.cos(2 * np.pi * kb * t / seg + tb)
                + np.cos(2 * np.pi * (ka + kb) * t / seg + ta + tb)
                + 0.05 * rng.uniform(-1, 1, seg)
            )
        g = segmented_bispectrum(TimeSeries(np.concatenate(blocks)), seg)
        assert g.bicoherence_at(ka, kb) > 0.9

    def test_uncoupled_blocks_low_bicoherence(self):
        rng = np.random.default_rng(12)
        n_seg, seg = 64, 512
        t = np.arange(seg)
        ka, kb = 20, 45
        blocks = []
        for _ in range(n_seg):
            ta, tb, tg = rng.uniform(0, 2 * np.pi, 3)
            blocks.append(
                np.cos(2 * np.pi * ka * t / seg + ta)
                + np.cos(2 * np.pi * kb * t / seg + tb)
                + np.cos(2 * np.pi * (ka + kb) * t / seg + tg)
                + 0.05 * rng.uniform(-1, 1, seg)
            )
        g = segmented_bispectrum(TimeSeries(np.concatenate(blocks)), seg)
        assert g.bicoherence_at(ka, kb) < 3 / np.sqrt(n_seg)

    @pytest.mark.parametrize("detrend, seed", [("demean", 23), ("linear", 3)])
    def test_detrended_dc_is_zero(self, detrend, seed):
        # white noise on an offset: detrending leaves only roundoff at k = 0, which
        # used to give b^2 hotspots on the k2 = 0 column, (0, 0) among them
        v = 100.0 + np.random.default_rng(seed).normal(size=64 * 64)
        g = segmented_bispectrum(TimeSeries(v), 64, detrend=detrend)
        d = g.dense()
        assert not d[0].any() and not d[:, 0].any()
        report = detect_hotspots(g)
        assert report.hotspots == []
        assert report.verdict is Verdict.FULLY_DEVELOPED_TURBULENCE_CONSISTENT

    @pytest.mark.parametrize("window, detrend", [("hann", "demean"), ("hann", "linear"),
                                                 ("rectangular", "none")])
    def test_real_dc_term_kept(self, window, detrend):
        v = 100.0 + np.random.default_rng(3).normal(size=64 * 64)
        g = segmented_bispectrum(TimeSeries(v), 64, window=window, detrend=detrend)
        d = g.dense()
        assert (d[0] > 0).sum() == g.half + 1
        assert d[0, 0] > 0.1

    def test_hann_and_overlap_run(self):
        s = seeded_series(1, 2048)
        g = segmented_bispectrum(s, 256, overlap_fraction=0.5, window="hann", detrend="linear")
        assert g.segments_averaged == 15
        b2 = bicoherence(g)
        assert b2.min() >= 0.0 and b2.max() <= 1.0 + 1e-12


class TestBicoherence:
    def test_single_segment_is_one_on_support(self):
        g = bispectrum(dft_forward(seeded_series(2, 64)))
        b2 = bicoherence(g)
        support = g.norm_a * g.norm_b > 0
        assert np.abs(b2[support] - 1.0).max() < 1e-9

    def test_bounded(self):
        for seed in range(5):
            s = seeded_series(seed, 4096)
            g = segmented_bispectrum(s, 256)
            b2 = bicoherence(g)
            assert b2.min() >= 0.0
            assert b2.max() <= 1.0 + 1e-12

    def test_matches_masked_division(self):
        g = segmented_bispectrum(seeded_series(4, 4096), 256)
        # zero normalisers on a third of the bins, as on bins with no power
        norm_a = np.where(np.arange(len(g.values)) % 3 == 0, 0.0, g.norm_a)
        g = BispectrumGrid(g.values, norm_a, g.norm_b, g.segments_averaged, g.segment_length)
        den = g.norm_a * g.norm_b
        nz = den > 0
        old = np.zeros(len(g.values))
        old[nz] = np.abs(g.values[nz]) ** 2 / den[nz]
        assert not nz.all()
        assert bicoherence(g).tobytes() == old.tobytes()


class TestDetectHotspots:
    def coupled_grid(self, n_seg=32, seg=512):
        rng = np.random.default_rng(21)
        t = np.arange(seg)
        ka, kb = 20, 45
        blocks = []
        for _ in range(n_seg):
            ta, tb = rng.uniform(0, 2 * np.pi, 2)
            blocks.append(
                np.cos(2 * np.pi * ka * t / seg + ta)
                + np.cos(2 * np.pi * kb * t / seg + tb)
                + np.cos(2 * np.pi * (ka + kb) * t / seg + ta + tb)
                + 0.05 * rng.uniform(-1, 1, seg)
            )
        return segmented_bispectrum(TimeSeries(np.concatenate(blocks)), seg), ka, kb

    def test_coupled_exactly_one_hotspot(self):
        g, ka, kb = self.coupled_grid()
        rep = detect_hotspots(g)
        assert rep.verdict is Verdict.PHASE_CORRELATED
        assert len(rep.hotspots) == 1
        assert (rep.hotspots[0][0], rep.hotspots[0][1]) == (kb, ka)
        assert all(h[2] > rep.threshold_used for h in rep.hotspots)

    def test_white_noise_no_hotspots(self):
        s = TimeSeries(np.random.default_rng(22).uniform(-1, 1, 64 * 512))
        rep = detect_hotspots(segmented_bispectrum(s, 512))
        assert rep.verdict is Verdict.FULLY_DEVELOPED_TURBULENCE_CONSISTENT
        assert rep.hotspots == []

    def test_inconclusive_below_min_segments(self):
        g = bispectrum(dft_forward(seeded_series(2, 64)))
        rep = detect_hotspots(g, min_segments=16)
        assert rep.verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("threshold", [float("nan"), -1.0, 0.0, float("inf"), 1.0, 5.0])
    def test_rejects_non_positive_threshold(self, threshold):
        g, _, _ = self.coupled_grid()
        with pytest.raises(ValueError):
            detect_hotspots(g, threshold=threshold)

    def test_matches_neighbour_loop_reference(self):
        # off-bin tones leak into many local maxima: every one must come out
        # exactly as the filled-map neighbour loop finds it
        rng = np.random.default_rng(23)
        n_seg, seg = 32, 256
        t = np.arange(seg)
        blocks = []
        for _ in range(n_seg):
            ta, tb = rng.uniform(0, 2 * np.pi, 2)
            blocks.append(np.cos(0.22 * t + ta) + np.cos(0.375 * t + tb)
                          + np.cos(0.595 * t + ta + tb) + 0.05 * rng.uniform(-1, 1, seg))
        g = segmented_bispectrum(TimeSeries(np.concatenate(blocks)), seg)
        for threshold in ("auto", 0.3, 0.05):
            rep = detect_hotspots(g, threshold=threshold)
            assert rep.hotspots == hotspots_reference(g, rep.threshold_used)
        assert len(rep.hotspots) > 100

    @pytest.mark.parametrize("level, window, detrend", [
        (3.5, "rectangular", "demean"), (0.0, "hann", "demean"), (0.0, "rectangular", "none")])
    @pytest.mark.parametrize("threshold", ["auto", 0.5])
    def test_no_signal_power_inconclusive(self, level, window, detrend, threshold):
        # no bin has a positive normaliser product, so no bin was tested
        g = segmented_bispectrum(TimeSeries(np.full(64 * 256, level)), 256,
                                 window=window, detrend=detrend)
        assert g.segments_averaged == 64
        assert not (g.norm_a * g.norm_b > 0).any()
        rep = detect_hotspots(g, threshold=threshold)
        assert rep.hotspots == []
        assert rep.verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("seg", [256, 1024])
    def test_builds_no_dense_map(self, seg):
        import tracemalloc

        s = TimeSeries(np.random.default_rng(24).uniform(-1, 1, 64 * seg))
        g = segmented_bispectrum(s, seg)
        tracemalloc.start()
        try:
            detect_hotspots(g, threshold=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (g.half + 1) ** 2 * 8

    def test_outside_neighbours_read_zero(self):
        # (6, 2) lies on the edge k1 + k2 = half, next to cells outside the domain;
        # the last flat bin, (8, 0), is larger and must not stand in for them
        k1, k2 = domain_pairs(8)
        b2 = np.zeros(len(k1))
        b2[(k1 == 6) & (k2 == 2)], b2[-1] = 0.5, 0.9
        ones = np.ones(len(k1))
        g = BispectrumGrid(np.sqrt(b2).astype(complex), ones, ones, 64, 16)
        rep = detect_hotspots(g, threshold=0.3)
        assert [h[:2] for h in rep.hotspots] == [(8, 0), (6, 2)]
        assert rep.hotspots == hotspots_reference(g, 0.3)

    def test_explicit_threshold(self):
        g, ka, kb = self.coupled_grid()
        rep = detect_hotspots(g, threshold=0.99999)
        assert rep.hotspots == []
        assert rep.verdict is Verdict.FULLY_DEVELOPED_TURBULENCE_CONSISTENT


def hotspots_reference(grid, thr):
    """Local maxima by an explicit eight-neighbour loop on a -1-filled map."""
    b2 = bicoherence(grid)
    half = grid.half
    k1, k2 = domain_pairs(half)
    dense = np.full((half + 3, half + 3), -1.0)
    dense[k1 + 1, k2 + 1] = b2
    dense[k2 + 1, k1 + 1] = b2
    found = []
    for i, (a, b) in enumerate(zip(k1.tolist(), k2.tolist())):
        around = dense[a : a + 3, b : b + 3].copy()
        around[1, 1] = -np.inf
        if b2[i] > thr and b2[i] >= around.max():
            found.append((a, b, float(b2[i]), float(abs(grid.values[i]))))
    found.sort(key=lambda h: h[2], reverse=True)
    return found
