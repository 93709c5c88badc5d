from __future__ import annotations

import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from confdist import (
    CalibrationRow,
    DomainError,
    Observation,
    PitSummary,
    Scenario,
    SweepConfig,
    bayes_cdf,
    exact_row,
    noncollision_pvalue,
    pit_sample,
    run_sweep,
)
from confdist import calibration
from confdist import specfun
from confdist.specfun import ConvergenceError, _cdf_grid, noncentral_chisq2_cdf
from oracles import mp_exact_means

# Exact sweep quantities for delta_true = 1.99, radius = 2.00 on part of
# the default sigma grid, frozen to six decimals during development from
# quadrature (mean_bayes, mean_cd, freq_bayes, freq_cd at threshold 0.95);
# exact_row's closed-form means and roots round to the same six decimals.
EXACT_TABLE = {
    0.25: (0.524240, 0.488762, 0.058157, 0.046022),
    1.0: (0.652101, 0.497382, 0.102282, 0.049020),
    16.0: (0.996116, 0.499981, 1.000000, 0.049988),
}


class TestScenarioAndConfig:
    def test_scenario_validation(self):
        Scenario(0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            Scenario(-1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            Scenario(1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            Scenario(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            Scenario(math.nan, 1.0, 2.0)

    def test_sweep_config_validation(self):
        cfg = SweepConfig(sigma_grid=(0.5, 2.0), n_reps=10, seed=0)
        assert cfg.threshold == 0.95
        with pytest.raises(DomainError):
            SweepConfig(sigma_grid=(2.0, 1.0), n_reps=10, seed=0)
        with pytest.raises(DomainError):
            SweepConfig(sigma_grid=(1.0, 1.0), n_reps=10, seed=0)
        with pytest.raises(DomainError):
            SweepConfig(sigma_grid=("a",), n_reps=10, seed=0)
        for grid, message in [
            ((), "sigma_grid must have a nonempty 1-d shape, got (0,)"),
            ((0.0, 1.0), "sigma_grid values must be finite and positive, got sigma_grid[0] = 0.0"),
            # the sign check runs before the order check
            ((2, 1, -1), "sigma_grid values must be finite and positive, got sigma_grid[2] = -1.0"),
            ("25", "sigma_grid entries must be numbers, got '25'"),
            (b"25", "sigma_grid entries must be numbers, got b'25'"),
        ]:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                SweepConfig(sigma_grid=grid, n_reps=10, seed=0)
        with pytest.raises(DomainError):
            SweepConfig(sigma_grid=(1.0,), n_reps=0, seed=0)
        with pytest.raises(DomainError):
            SweepConfig(sigma_grid=(1.0,), n_reps=10, seed=-1)
        with pytest.raises(DomainError):
            SweepConfig(sigma_grid=(1.0,), n_reps=10, seed=0, threshold=1.0)


def _ratios(scen: Scenario, seed: int, key: tuple[int, ...], n: int) -> np.ndarray:
    # the z column of _sample
    (z,) = calibration._sample(scen, seed, key, n, lambda z, x0: z)
    return z


def _one_draw(scen: Scenario, seed: int, key: tuple[int, ...], n: int) -> np.ndarray:
    # the rows of one (n, 2) normal draw from the keyed substream
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
    return rng.normal((scen.delta_true, 0.0), scen.sigma, size=(n, 2))


BLOCK = calibration._DRAW_ROWS


class TestSquaredNormRatios:
    def test_moments(self):
        # z = |y|^2 / sigma^2 is noncentral chi-square with 2 df and
        # noncentrality nu0 = (delta/sigma)^2: E z = nu0 + 2, Var z = 4 + 4 nu0,
        # and the sample variance has variance (k4 + 2 Var^2)/n with the
        # fourth cumulant k4 = 48 (2 + 4 nu0)
        scen = Scenario(1.99, 1.0, 2.0)
        n = 100_000
        z = _ratios(scen, 42, (0,), n)
        nu0 = (scen.delta_true / scen.sigma) ** 2
        var = 4.0 + 4.0 * nu0
        assert abs(z.mean() - (nu0 + 2.0)) <= 4.0 * math.sqrt(var / n)
        k4 = 48.0 * (2.0 + 4.0 * nu0)
        assert abs(z.var(ddof=1) - var) <= 4.0 * math.sqrt((k4 + 2.0 * var * var) / n)

    def test_tiny_noise_concentrates(self):
        scen = Scenario(3.0, 1e-9, 2.0)
        z = _ratios(scen, 0, (), 10)
        assert np.all(np.abs(np.sqrt(z) * scen.sigma - 3.0) < 1e-7)

    def test_deterministic_given_seed_and_key(self):
        scen = Scenario(1.5, 0.8, 2.0)
        a = _ratios(scen, 123, (1,), 50)
        assert np.array_equal(a, _ratios(scen, 123, (1,), 50))
        for other in ((), (0,), (2,), (1, 0)):
            assert not np.array_equal(a, _ratios(scen, 123, other, 50))

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_concatenate_to_one_draw(self, n):
        # the stream contract across block edges: replicate r is row r of one
        # (n, 2) draw, its |y| from math.hypot, bit for bit
        scen = Scenario(1.99, 0.7, 2.0)
        sizes = []
        (z,) = calibration._sample(scen, 9, (2,), n, lambda z, x0: sizes.append(z.size) or z)
        assert sizes == [min(BLOCK, n - start) for start in range(0, n, BLOCK)]
        ratio = np.array([math.hypot(y1, y2) for y1, y2 in _one_draw(scen, 9, (2,), n).tolist()])
        ratio /= scen.sigma
        assert z.tobytes() == (ratio * ratio).tobytes()

    def test_columns_share_each_block(self):
        # every column is called on the same z and x0, block by block
        scen = Scenario(1.99, 0.7, 2.0)
        n = BLOCK + 1
        seen = ([], [])

        def column(k):
            def f(z, x0):
                seen[k].append((z.tobytes(), x0))
                return z + k * x0
            return f

        z, shifted = calibration._sample(scen, 9, (2,), n, column(0), column(1))
        assert len(seen[0]) == 2 and seen[0] == seen[1]
        assert z.tobytes() == _ratios(scen, 9, (2,), n).tobytes()
        x0 = scen.radius / scen.sigma
        x0 *= x0
        assert all(x == x0 for _, x in seen[0])
        assert shifted.tobytes() == (z + x0).tobytes()


class TestExactRow:
    def test_calibration_identities_at_radius(self):
        for sigma in (2.5, 0.7):
            row = exact_row(Scenario(2.0, sigma, 2.0), threshold=0.95)
            assert abs(row.mean_cd - 0.5) <= 1e-15
            assert abs(row.freq_cd - 0.05) <= 1e-8

    def test_frozen_table(self):
        for sigma, want in EXACT_TABLE.items():
            row = exact_row(Scenario(1.99, sigma, 2.0))
            assert abs(row.mean_bayes - want[0]) <= 5e-6
            assert abs(row.mean_cd - want[1]) <= 5e-6
            assert abs(row.freq_bayes - want[2]) <= 5e-6
            assert abs(row.freq_cd - want[3]) <= 5e-6

    @pytest.mark.parametrize(
        "delta_true, sigma, radius",
        [(1.99, 0.25, 2.0), (1.99, 0.5, 2.0), (1.99, 1.0, 2.0), (1.99, 2.0, 2.0),
         (1.99, 16.0, 2.0), (2.0, 2.5, 2.0), (0.0, 1.0, 2.0), (2.0, 1.0, 5.0)],
    )
    def test_means_match_series_oracle(self, delta_true, sigma, radius):
        want_bayes, want_cd = mp_exact_means(delta_true, sigma, radius)
        row = exact_row(Scenario(delta_true, sigma, radius))
        assert abs(row.mean_bayes - want_bayes) <= 1e-14
        assert abs(row.mean_cd - want_cd) <= 1e-14

    def test_means_ordered_in_far_tails(self):
        # g >= 0 is added to G2(b^2, a^2); the form 1 - G2(a^2, b^2) - g/2
        # put mean_cd near -6e-275 where both means underflow
        for delta_true in (0.0, 0.4, 1.0, 1.5, 2.0, 3.0):
            for sigma in (0.01, 0.03, 0.1, 1.0, 30.0):
                for radius in (0.5, 2.0):
                    row = exact_row(Scenario(delta_true, sigma, radius))
                    assert 0.0 <= row.mean_cd <= row.mean_bayes <= 1.0, (delta_true, sigma, radius)

    def test_bayes_frequency_boundary(self):
        # At sigma = 8 the posterior non-collision probability exceeds
        # 0.95 for every possible observation, so the frequency is exactly 1.
        scen = Scenario(2.0, 8.0, 2.0)
        assert exact_row(scen, threshold=0.95).freq_bayes == 1.0
        assert exact_row(scen, threshold=0.98).freq_bayes < 1.0

    def test_evaluates_no_g2_pair_twice(self, monkeypatch):
        pairs = []
        monkeypatch.setattr(calibration, "noncentral_chisq2_cdf",
                            lambda x, nu: pairs.append((x, nu)) or noncentral_chisq2_cdf(x, nu))
        exact_row(Scenario(1.99, 1.0, 2.0))
        assert len(pairs) > 60 and len(set(pairs)) == len(pairs)

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            exact_row(Scenario(2.0, 1.0, 2.0), threshold=0.0)
        with pytest.raises(DomainError):
            exact_row(Scenario(2.0, 1.0, 2.0), threshold=1.0)

    @pytest.mark.parametrize("root, stray_at, g2_args", [
        ("Bayes threshold root nu_star", lambda lam, h: h == 2.0, "4.0, 0.0"),  # G2(x0, v)
        ("cd threshold root z_star", lambda lam, h: lam == 2.0, "0.0, 4.0"),  # G2(z, x0)
    ])
    def test_failed_root_is_named(self, monkeypatch, root, stray_at, g2_args):
        # a G2 result outside [0, 1] inside one threshold root (x0 = 4): the
        # error names that root and the row's inputs, and chains the guard's error
        series = specfun._cdf_series
        monkeypatch.setattr(specfun, "_cdf_series",
                            lambda lam, h: 1.5 if stray_at(lam, h) else series(lam, h))
        with pytest.raises(ConvergenceError) as info:
            exact_row(Scenario(1.99, 1.0, 2.0), threshold=0.95)
        guard = (f"noncentral_chisq2_cdf({g2_args}) produced 1.5 by the direct series, "
                 "outside [0, 1]")
        assert str(info.value) == ("delta_true and radius and sigma and threshold must let "
                                   f"exact_row solve its {root} ({guard}), "
                                   "got 1.99 and 2.0 and 1.0 and 0.95")
        assert info.value.args[1:] == (("delta_true", 1.99), ("radius", 2.0), ("sigma", 1.0),
                                       ("threshold", 0.95))
        assert isinstance(info.value.__cause__, ConvergenceError)
        assert str(info.value.__cause__) == guard


class TestRunSweep:
    def test_row_shape_and_monotone_sigma(self):
        cfg = SweepConfig(sigma_grid=(0.5, 2.0, 8.0), n_reps=400, seed=3)
        rows = run_sweep(1.99, 2.0, cfg)
        assert [r.sigma for r in rows] == [0.5, 2.0, 8.0]
        assert all(isinstance(r, CalibrationRow) for r in rows)
        for r in rows:
            for name in ("mean_bayes", "mean_cd", "freq_bayes", "freq_cd"):
                value = getattr(r, name)
                assert 0.0 <= value <= 1.0

    def test_repeat_and_worker_determinism(self):
        cfg = SweepConfig(sigma_grid=(0.5, 2.0), n_reps=3000, seed=7)
        base = run_sweep(1.99, 2.0, cfg)
        again = run_sweep(1.99, 2.0, cfg)
        threaded = run_sweep(1.99, 2.0, cfg, workers=3)
        assert base == again
        assert base == threaded

    def test_monte_carlo_matches_exact(self):
        n = 20_000
        cfg = SweepConfig(sigma_grid=(0.5, 2.0, 8.0), n_reps=n, seed=11)
        for row in run_sweep(1.99, 2.0, cfg):
            assert abs(row.mean_bayes - row.mean_bayes_exact) <= 4.0 * row.stderr_mean_bayes
            assert abs(row.mean_cd - row.mean_cd_exact) <= 4.0 * row.stderr_mean_cd
            for freq, freq_exact, stderr in (
                (row.freq_bayes, row.freq_bayes_exact, row.stderr_freq_bayes),
                (row.freq_cd, row.freq_cd_exact, row.stderr_freq_cd),
            ):
                binomial = math.sqrt(freq_exact * (1.0 - freq_exact) / n)
                tol = max(4.0 * stderr, 4.0 * binomial, 1e-9)
                assert abs(freq - freq_exact) <= tol

    def test_single_replicate_has_zero_stderr(self):
        cfg = SweepConfig(sigma_grid=(1.0,), n_reps=1, seed=0)
        row = run_sweep(1.99, 2.0, cfg)[0]
        assert row.stderr_mean_bayes == 0.0
        assert row.stderr_freq_cd == 0.0

    def test_input_validation(self):
        cfg = SweepConfig(sigma_grid=(1.0,), n_reps=10, seed=0)
        with pytest.raises(DomainError):
            run_sweep(-1.0, 2.0, cfg)
        with pytest.raises(DomainError):
            run_sweep(1.99, 0.0, cfg)
        with pytest.raises(DomainError):
            run_sweep(1.99, 2.0, cfg, workers=0)


def _pit_with_reseed(scen: Scenario, n: int, seeds=(1, 2)) -> PitSummary:
    critical = 1.63 / math.sqrt(n)
    summary = pit_sample(scen, n, seeds[0])
    if summary.ks_stat >= critical:
        summary = pit_sample(scen, n, seeds[1])
    return summary


class TestPitSample:
    def test_uniform_at_radius(self):
        n = 20_000
        summary = _pit_with_reseed(Scenario(2.0, 2.5, 2.0), n)
        assert summary.n == n
        assert summary.ks_stat < 1.63 / math.sqrt(n)
        assert abs(summary.mean_u - 0.5) < 0.02

    def test_shift_directions(self):
        assert pit_sample(Scenario(1.0, 2.5, 2.0), 5000, 1).mean_u < 0.45
        assert pit_sample(Scenario(4.0, 2.5, 2.0), 5000, 1).mean_u > 0.55

    def test_histogram_structure_and_repeat_determinism(self):
        scen = Scenario(2.0, 2.5, 2.0)
        a = pit_sample(scen, 2000, 5)
        assert a == pit_sample(scen, 2000, 5)
        assert len(a.histogram) == 20
        assert sum(a.histogram) == 2000
        assert all(count >= 0 for count in a.histogram)

    def test_histogram_bins_match_np_histogram(self, monkeypatch):
        # bin k counts u in [k/20, (k+1)/20) and the last bin is closed, as
        # np.histogram's are: each edge and its float neighbours land there
        edges = np.linspace(0.0, 1.0, 21)
        u = np.concatenate([edges, np.nextafter(edges[1:], 0.0),
                            np.nextafter(edges[:-1], 1.0), [0.0, 1.0]])
        u = np.concatenate([u, np.random.default_rng(0).random(100 - u.size)])
        np.random.default_rng(1).shuffle(u)
        monkeypatch.setattr(calibration, "_cdf_grid", lambda z, x0: u)
        scen = Scenario(2.0, 2.5, 2.0)
        want = np.histogram(u, bins=20, range=(0.0, 1.0))[0]
        assert pit_sample(scen, u.size, 1).histogram == tuple(want.tolist())
        # np.histogram leaves a nan out, so the bins no longer sum to n
        u[7] = math.nan
        with pytest.raises(DomainError, match="20 bins summing to n"):
            pit_sample(scen, u.size, 1)

    def test_sample_size_floor(self):
        with pytest.raises(DomainError):
            pit_sample(Scenario(2.0, 2.5, 2.0), 99, 1)

    def test_non_integer_counts_raise_domain_error(self):
        scen = Scenario(2.0, 2.5, 2.0)
        for bad in (math.inf, math.nan, 100.5, "200", True):
            with pytest.raises(DomainError, match="n must be an integer >= 100"):
                pit_sample(scen, bad, 1)
        with pytest.raises(DomainError):
            pit_sample(scen, 200, math.inf)
        with pytest.raises(DomainError):
            SweepConfig(sigma_grid=(1.0,), n_reps=math.nan, seed=0)

    def test_summary_validation(self):
        with pytest.raises(DomainError):
            PitSummary(n=100, ks_stat=0.01, histogram=(5,) * 19, mean_u=0.5)
        with pytest.raises(DomainError):
            PitSummary(n=100, ks_stat=0.01, histogram=(4,) * 20, mean_u=0.5)


def _documented_stream(scen: Scenario, seed: int, key: tuple[int, ...], n: int):
    # replicate r is row r of one (n, 2) normal draw from the substream
    # PCG64(SeedSequence(seed, spawn_key=key)), as the module docstring states
    y = _one_draw(scen, seed, key, n)
    return [Observation(float(y1), float(y2), scen.sigma) for y1, y2 in y]


class TestSamplingContract:
    def test_pit_recomputed_from_documented_stream(self):
        scen = Scenario(2.0, 2.5, 2.0)
        summary = pit_sample(scen, 200, 7)
        draws = _documented_stream(scen, 7, (), 200)
        u = np.array([noncollision_pvalue(o, scen.radius) for o in draws])
        counts = np.histogram(u, bins=20, range=(0.0, 1.0))[0]
        assert summary.histogram == tuple(int(c) for c in counts)
        assert abs(summary.mean_u - u.mean()) <= 1e-12

    def test_sweep_rows_recomputed_from_documented_stream(self):
        cfg = SweepConfig(sigma_grid=(0.5, 2.0), n_reps=300, seed=7)
        for s_idx, row in enumerate(run_sweep(1.99, 2.0, cfg)):
            scen = Scenario(1.99, row.sigma, 2.0)
            draws = _documented_stream(scen, 7, (s_idx,), 300)
            noncol_cd = np.array([noncollision_pvalue(o, 2.0) for o in draws])
            noncol_bayes = np.array([1.0 - bayes_cdf(o, 2.0) for o in draws])
            assert abs(row.mean_cd - noncol_cd.mean()) <= 1e-12
            assert abs(row.mean_bayes - noncol_bayes.mean()) <= 1e-12
            assert row.freq_cd == np.count_nonzero(noncol_cd > cfg.threshold) / 300
            assert row.freq_bayes == np.count_nonzero(noncol_bayes > cfg.threshold) / 300

    def test_workers_start_no_thread(self, monkeypatch):
        cfg = SweepConfig(sigma_grid=(0.5, 2.0), n_reps=500, seed=3)
        scen = Scenario(2.0, 2.5, 2.0)
        base = (run_sweep(1.99, 2.0, cfg), pit_sample(scen, 500, 3))

        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert (run_sweep(1.99, 2.0, cfg, workers=4), pit_sample(scen, 500, 3)) == base


class TestBlockedSampling:
    # three blocks, the last of 3 rows, against one draw reduced in one pass
    N = 2 * BLOCK + 3

    def _unblocked(self, scen: Scenario, seed: int, key: tuple[int, ...]):
        norm = [math.hypot(y1, y2) for y1, y2 in _one_draw(scen, seed, key, self.N).tolist()]
        ratio = np.array(norm) / scen.sigma
        radius_ratio = scen.radius / scen.sigma
        return ratio * ratio, radius_ratio * radius_ratio

    # x0 = 0.64 takes the direct series, x0 = 1600 the Rice rule; at these
    # seeds the sorted u sums to another mean, so the mean's order is checked
    @pytest.mark.parametrize("scen, seed", [(Scenario(2.0, 2.5, 2.0), 8),
                                            (Scenario(2.1, 0.05, 2.0), 9)])
    def test_pit_matches_unblocked_reference(self, scen, seed):
        n = self.N
        z, x0 = self._unblocked(scen, seed, ())
        u = _cdf_grid(z, x0)
        ranked = np.sort(u)
        steps = np.arange(1, n + 1) / n
        ks = max(float((steps - ranked).max()), float((ranked - steps + 1.0 / n).max()))
        counts = np.histogram(u, bins=20, range=(0.0, 1.0))[0]
        want = PitSummary(n, ks, tuple(int(c) for c in counts), float(u.mean()))
        assert float(ranked.mean()) != want.mean_u
        assert pit_sample(scen, n, seed) == want

    def test_sweep_matches_unblocked_reference(self):
        n = self.N
        cfg = SweepConfig(sigma_grid=(0.05, 0.5, 2.0), n_reps=n, seed=4)
        for s_idx, row in enumerate(run_sweep(1.99, 2.0, cfg)):
            scen = Scenario(1.99, row.sigma, 2.0)
            z, x0 = self._unblocked(scen, 4, (s_idx,))
            noncol_bayes = 1.0 - _cdf_grid(x0, z)
            noncol_cd = _cdf_grid(z, x0)
            freq_bayes = np.count_nonzero(noncol_bayes > cfg.threshold) / n
            freq_cd = np.count_nonzero(noncol_cd > cfg.threshold) / n
            assert row.mean_cd == noncol_cd.mean()
            assert row.stderr_mean_cd == noncol_cd.std(ddof=1) / math.sqrt(n)
            assert (row.freq_bayes, row.freq_cd) == (freq_bayes, freq_cd)
            assert row.stderr_freq_bayes == math.sqrt(freq_bayes * (1.0 - freq_bayes) / n)
            assert row.stderr_freq_cd == math.sqrt(freq_cd * (1.0 - freq_cd) / n)
            # a block's vector series may stop before the whole sample's would
            want = noncol_bayes.mean()
            assert abs(row.mean_bayes - want) <= 4 * math.ulp(want)
            want = noncol_bayes.std(ddof=1) / math.sqrt(n)
            assert abs(row.stderr_mean_bayes - want) <= 4 * math.ulp(want)
            assert exact_row(scen, cfg.threshold) == (
                row.mean_bayes_exact, row.mean_cd_exact, row.freq_bayes_exact, row.freq_cd_exact)

    def test_peak_memory_per_replicate(self):
        # tracemalloc sees numpy's buffers: one float64 per pit replicate and two
        # per sweep replicate stay, the draws and their temporaries do not
        n = 300_000
        scen = Scenario(2.0, 2.5, 2.0)
        cfg = SweepConfig(sigma_grid=(1.0,), n_reps=n, seed=1)
        pit_sample(scen, 100, 1)  # first-call costs outside the measure
        run_sweep(1.99, 2.0, SweepConfig(sigma_grid=(1.0,), n_reps=1, seed=1))
        for run, bound in ((lambda: pit_sample(scen, n, 1), 16),
                           (lambda: run_sweep(1.99, 2.0, cfg), 32)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / n < bound


    def test_sweep_holds_one_sigma_at_a_time(self):
        # the next sigma's two columns are filled after the last sigma's are
        # freed: 16 bytes per replicate stay, plus the 8 of a stderr temporary
        n = 200_000
        run_sweep(1.99, 2.0, SweepConfig(sigma_grid=(1.0,), n_reps=1, seed=1))
        tracemalloc.start()
        try:
            run_sweep(1.99, 2.0, SweepConfig(sigma_grid=(0.5, 1.0), n_reps=n, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 28

class TestScaleEquivariance:
    def test_exact_row_and_pit_do_not_depend_on_scale(self):
        # every input enters through its ratio to sigma, so scaling
        # delta_true, sigma and radius together by k changes no output
        base = Scenario(1.99, 2.5, 2.0)
        want_row = exact_row(base)
        want_pit = pit_sample(base, 1000, 5)
        for k in (1e-160, 1e-150, 1e150, 1e160):
            scen = Scenario(1.99 * k, 2.5 * k, 2.0 * k)
            assert exact_row(scen) == pytest.approx(want_row, rel=0.0, abs=1e-12)
            got = pit_sample(scen, 1000, 5)
            assert got.histogram == want_pit.histogram
            assert abs(got.mean_u - want_pit.mean_u) <= 1e-12


class TestAgainstIndependentResampling:
    def test_rotated_draws_match_exact_row(self):
        # Regression oracle bypassing the sweep machinery: raw numpy draws
        # around a rotated center, summarized through the public per
        # observation functions only.
        delta, sigma, radius, n = 1.99, 2.5, 2.0, 20_000
        angle = 0.73
        center = (delta * math.cos(angle), delta * math.sin(angle))
        rng = np.random.default_rng(99)
        y = rng.normal(center, sigma, size=(n, 2))
        noncol_cd = np.empty(n)
        noncol_bayes = np.empty(n)
        for i in range(n):
            o = Observation(float(y[i, 0]), float(y[i, 1]), sigma)
            noncol_cd[i] = noncollision_pvalue(o, radius)
            noncol_bayes[i] = 1.0 - bayes_cdf(o, radius)
        want = exact_row(Scenario(delta, sigma, radius))
        se_cd = noncol_cd.std(ddof=1) / math.sqrt(n)
        se_bayes = noncol_bayes.std(ddof=1) / math.sqrt(n)
        assert abs(noncol_cd.mean() - want.mean_cd) <= 4.0 * se_cd
        assert abs(noncol_bayes.mean() - want.mean_bayes) <= 4.0 * se_bayes
