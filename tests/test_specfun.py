from __future__ import annotations

import math
import re
import struct
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from confdist import specfun
from confdist.specfun import (
    MAX_ROWS,
    BracketError,
    ConvergenceError,
    DomainError,
    _cdf_grid,
    bessel_i0_scaled,
    invert_monotone,
    noncentral_chisq2_cdf,
    require_count,
    require_finite,
    require_nonnegative,
    require_open_unit,
    require_positive,
)
from oracles import mc_gamma2, mp_g2, rice_g2

# raw G2 results either side of the 1e-9 slack around [0, 1]: each is
# clamped to the float given, or (None) rejected with a ConvergenceError
OUTSIDE_UNIT = ((-5e-10, 0.0), (1.0 + 5e-10, 1.0), (-1e-8, None), (1.5, None), (math.nan, None))


def _clamped_or_message(g2, x, nu) -> str:
    # the repr of a G2 call's (first) value, or the message of its ConvergenceError
    try:
        return repr(float(np.ravel(g2(x, nu))[0]))
    except ConvergenceError as exc:
        return str(exc)

# Frozen oracle values. Each was computed from an independent route
# (40-digit power series, asymptotic expansion, Monte Carlo, closed forms)
# and is re-derived where the route is cheap enough to run inline.
I0_AT_1 = 1.2660658777520083356
I0E_AT_50 = 0.05656162664745419253
G2_AT_12_34 = 0.12691280098891489  # x = 1.2, nu = 3.4
G2_AT_4_064 = 0.7785049513655241   # x = 4.0, nu = 0.64

# Large-argument anchors for the Rice-quadrature path, frozen from a 40-digit
# evaluation of the Poisson mixture (the first was also confirmed by a
# 2e6-sample Monte Carlo run during development).
LARGE_ANCHORS = [
    (1500.0, 1450.0, 0.7382458421513260752),
    (1300.0, 1500.0, 0.003597304158308186088),
    (1600.0, 1500.0, 0.8957068785948703198),
    (4100.0, 4000.0, 0.7816659275293141393),
    (200.0, 1800.0, 0.0),
    (4000.0, 200.0, 1.0),
]

# Points near sqrt(x) = sqrt(nu) from nu = 1300 (with x > 1400) to 1e20, checked
# against the Rice-integral oracle; from nu = 1e12 up, sqrt(x) - sqrt(nu) is -3, 0 and 3.
RICE_GRID = [
    (1500.0, 1300.0),
    (1e4, 1e4),
    (1.02e4, 1e4),
    (2.25e4, 2.24e4),
    (1e5, 1.001e5),
    (1e6, 1.002e6),
    (1e6, 0.998e6),
    (1e7, 1e7),
    (1e8, 9.999e7),
    (1e8, 1.0001e8),
    (1e9, 1.00003e9),
    (1e10, 1e10),
] + [((math.sqrt(nu) + d) ** 2, nu) for nu in (1e12, 1e16, 1e20) for d in (-3.0, 0.0, 3.0)]


@pytest.fixture(scope="module")
def rice_grid():
    return {point: rice_g2(*point) for point in RICE_GRID}


def mp_i0_series(x: float, terms: int = 400) -> float:
    """Independent extended-precision power series for I0."""
    with mp.workdps(50):
        q = mp.mpf(x) ** 2 / 4
        total = mp.mpf(1)
        term = mp.mpf(1)
        for k in range(1, terms):
            term *= q / (k * k)
            total += term
            if term < total * mp.mpf(10) ** -45:
                break
        return float(total)


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0_scaled(0.0) == 1.0

    def test_matches_extended_precision_series(self):
        oracle = mp_i0_series(1.0)
        assert abs(oracle - I0_AT_1) <= 1e-15
        want = I0_AT_1 * math.exp(-1.0)
        assert abs(bessel_i0_scaled(1.0) - want) <= 1e-15 * want
        for x in (0.3, 2.0, 7.5, 20.0, 49.0):
            want = float(mp_i0_series(x) * mp.exp(-mp.mpf(x)))
            assert abs(bessel_i0_scaled(x) - want) <= 1e-15 * want

    def test_scaled_matches_asymptotic_expansion(self):
        # independent 4-term oracle: (2 pi x)^{-1/2} sum a_k / x^k,
        # a_k = ((2k-1)!!)^2 / (k! 8^k)
        x = 50.0
        series = 1.0 + 1.0 / (8 * x) + 9.0 / (2 * (8 * x) ** 2) + 225.0 / (6 * (8 * x) ** 3)
        oracle = series / math.sqrt(2.0 * math.pi * x)
        got = bessel_i0_scaled(x)
        assert abs(got - oracle) <= 1e-6 * oracle
        assert abs(got - I0E_AT_50) <= 1e-15 * I0E_AT_50

    def test_scaled_consistent_across_switchover(self):
        for x in (48.0, 49.9, 50.1, 55.0, 80.0):
            want = float(mp_i0_series(x) * mp.exp(-mp.mpf(x)))
            assert abs(bessel_i0_scaled(x) - want) <= 1e-15 * want

    def test_scaled_large_arguments(self):
        for x in (1e4, 1e6, 1e8):
            got = bessel_i0_scaled(x)
            leading = 1.0 / math.sqrt(2.0 * math.pi * x)
            assert 0.0 < got < 1.0
            assert abs(got - leading) <= 1e-3 * leading

    def test_domain_errors(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                bessel_i0_scaled(bad)


class TestNoncentralChisq2Cdf:
    def test_central_closed_form(self):
        for x in (0.1, 1.0, 4.0, 10.0, 50.0):
            want = 1.0 - math.exp(-0.5 * x)
            assert abs(noncentral_chisq2_cdf(x, 0.0) - want) <= 1e-12

    def test_zero_x(self):
        for nu in (0.0, 1.0, 50.0, 4000.0):
            assert noncentral_chisq2_cdf(0.0, nu) == 0.0

    def test_spot_value_against_mc_oracle(self):
        got = noncentral_chisq2_cdf(1.2, 3.4)
        assert abs(got - G2_AT_12_34) <= 1e-12
        estimate, se = mc_gamma2(1.2, 3.4, n=10_000_000, seed=20260819)
        assert abs(got - estimate) <= 4.0 * se

    def test_spot_value_near_reference_case(self):
        assert G2_AT_4_064 == mp_g2(4.0, 0.64)
        assert abs(noncentral_chisq2_cdf(4.0, 0.64) - G2_AT_4_064) <= 1e-12

    def test_large_argument_anchors(self):
        for x, nu, want in LARGE_ANCHORS:
            assert abs(noncentral_chisq2_cdf(x, nu) - want) <= 1e-12, (x, nu)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(1)
        for nu in rng.uniform(0.0, 60.0, size=12):
            xs = np.sort(rng.uniform(0.0, 80.0, size=40))
            vals = [noncentral_chisq2_cdf(float(x), float(nu)) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b - a >= -1e-13 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_nu(self):
        rng = np.random.default_rng(2)
        for x in rng.uniform(0.5, 80.0, size=12):
            nus = np.sort(rng.uniform(0.0, 60.0, size=40))
            vals = [noncentral_chisq2_cdf(float(x), float(nu)) for nu in nus]
            assert all(a - b >= -1e-13 for a, b in zip(vals, vals[1:]))

    def test_smooth_across_series_switchover(self):
        # direct recurrences hand over to the Rice quadrature at nu = 1400
        lo = noncentral_chisq2_cdf(1400.0, 1399.99)
        hi = noncentral_chisq2_cdf(1400.0, 1400.01)
        assert abs(lo - hi) < 5e-3
        assert lo >= hi  # still monotone in nu across the switch

    def test_marcum_complementarity(self):
        # 1 - G2(a^2, b^2) - G2(b^2, a^2) = exp(-(a-b)^2/2) * e^{-ab} I0(ab)
        grid = np.linspace(0.0, 8.0, 30)
        worst = 0.0
        for a in grid:
            for b in grid:
                lhs = (
                    1.0
                    - noncentral_chisq2_cdf(a * a, b * b)
                    - noncentral_chisq2_cdf(b * b, a * a)
                )
                rhs = math.exp(-0.5 * (a - b) ** 2) * bessel_i0_scaled(a * b)
                worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10

    def test_domain_errors(self):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                noncentral_chisq2_cdf(bad, 1.0)
            with pytest.raises(DomainError):
                noncentral_chisq2_cdf(1.0, bad)

    def test_result_clamped_or_rejected_outside_unit_interval(self, monkeypatch):
        # each raw result on the direct (x = 1) and the Rice (x = 2000 or
        # nu = 2000) path, scalar and vector; a rejection names the regime
        for raw, want in OUTSIDE_UNIT:
            monkeypatch.setattr(specfun, "_cdf_series",
                                lambda lam, h: np.full(np.broadcast(lam, h).shape, raw))
            monkeypatch.setattr(specfun, "_g2_rice", lambda x, nu: np.full(x.shape, raw))
            for x, nu, regime in ((1.0, 1.0, "direct series"), (2000.0, 1.0, "Rice rule"),
                                  (1.0, 2000.0, "Rice rule")):
                message = (f"noncentral_chisq2_cdf({x!r}, {nu!r}) produced {raw!r} "
                           f"by the {regime}, outside [0, 1]")
                want_outcome = message if want is None else repr(want)
                assert _clamped_or_message(noncentral_chisq2_cdf, x, nu) == want_outcome
                assert _clamped_or_message(_cdf_grid, np.array([x]), nu) == want_outcome

    def test_term_count_leaves_out_under_1e_17(self):
        # P(Poisson(m) >= K) grows with m, so for each term count K it is
        # largest at the last m in [0, 700] given K, found by bisection
        terms = specfun._series_terms
        worst = 0.0
        with mp.workdps(30):
            for k in range(terms(0.0), terms(700.0) + 1):
                lo, hi = 0.0, 700.0  # terms(lo) <= k < terms(hi), unless 700 is given k
                if terms(hi) <= k:
                    lo = hi
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if terms(mid) <= k else (lo, mid)
                worst = max(worst, mp.gammainc(terms(lo), 0, lo, regularized=True))
        assert worst < 1e-17
        assert terms(700.0) < 1401

    # the loop has no other exit: each call runs K(min(lam, h)) - 1 steps after the k = 0 term,
    # also where h > lam keeps the Poisson(h) CDF q below 1 throughout
    @pytest.mark.parametrize("lam, h", [(0.0, 3.0), (0.5, 7.25), (50.0, 60.0), (300.0, 330.0)])
    def test_series_runs_its_term_count(self, lam, h):
        class CountedLam(np.float64):  # counts the recurrence steps, one lam / k each
            terms = 0

            def __truediv__(self, k):
                CountedLam.terms += 1
                return float(self) / k

        steps = specfun._series_terms(min(lam, h)) - 1
        scalar = specfun._cdf_series(CountedLam(lam), h)
        assert CountedLam.terms == steps
        CountedLam.terms = 0
        vector = specfun._cdf_series(CountedLam(lam), np.array([h]))
        assert CountedLam.terms == steps
        assert vector.tolist() == [scalar] == [noncentral_chisq2_cdf(2.0 * h, 2.0 * lam)]

    # B's lower tail, x << nu: the Poisson(x/2) CDF q rounds to 1 within the series, and
    # each term after must add nothing. Not clipped at 0, the terms with 1 - q < 0 put the
    # row element 5%, 100% and 0.18% off, and the scalar call 0.47% off at (9, 161.29)
    @pytest.mark.parametrize("x, nu", [(25.0, 161.29), (9.0, 161.29),
                                       (900.0, 36.870482378617375 ** 2)])
    def test_lower_tail_terms_clipped_at_zero(self, x, nu):
        want = mp_g2(x, nu)  # 4.22297e-15, 7.2261e-23 and 2.87941e-12
        # the row's element at x = 1400 runs the series to K(nu/2) terms for x too
        for got in (noncentral_chisq2_cdf(x, nu), _cdf_grid(np.array([x, 1400.0]), nu)[0]):
            assert abs(got / want - 1.0) < 5e-4

    def test_upper_tail_reaches_one(self):
        # 1 - G2(x, 4) < 1e-30 for x >= 200, so every value there rounds to 1
        xs = np.linspace(200.0, 1400.0, 1201)
        assert set(_cdf_grid(xs, 4.0).tolist()) == {1.0}
        assert {noncentral_chisq2_cdf(x, 4.0) for x in xs.tolist()} == {1.0}

    # near-limit accuracy: noncentralities near 1359, where the series sums
    # its most terms, checked against the 50-digit mixture
    @pytest.mark.parametrize("x, nu", [
        (1000.0, 1358.45),
        (1358.45, 1358.45),
        (1399.0, 1358.45),
        (1354.2880008797, 2 * 679.7162354159672),
        (1000.0, 2 * 699.086807539284),
    ])
    def test_stuck_poisson_tail_returns_series_sum(self, x, nu):
        got = noncentral_chisq2_cdf(x, nu)
        assert _cdf_grid(np.array([x]), nu)[0] == got
        assert abs(got - mp_g2(x, nu)) <= 1e-12

    def test_vector_result_outside_unit_interval(self, monkeypatch):
        # a one-element vector call clamps to the scalar's float or raises its message
        for raw, _ in OUTSIDE_UNIT:
            monkeypatch.setattr(specfun, "_g2_rice", lambda x, nu: np.full(x.shape, raw))
            scalar = _clamped_or_message(noncentral_chisq2_cdf, 2000.0, 1.0)
            assert _clamped_or_message(_cdf_grid, np.array([2000.0]), 1.0) == scalar
        # and a longer one names its first offending element
        monkeypatch.setattr(specfun, "_g2_rice", lambda x, nu: np.full(x.shape, 1.5))
        with pytest.raises(ConvergenceError, match=re.escape(
                "noncentral_chisq2_cdf(2000.0, 1.0) produced 1.5 by the Rice rule, outside")):
            _cdf_grid(np.array([1.0, 2000.0, 3000.0]), 1.0)


class TestLargeArgumentWindow:
    def test_rice_oracle_agrees_with_mixture_oracle_and_anchors(self):
        for x, nu in ((4.0, 0.64), (1.2, 3.4), (30.0, 25.0)):
            assert abs(rice_g2(x, nu) - mp_g2(x, nu)) <= 1e-15, (x, nu)
        for x, nu, want in LARGE_ANCHORS:
            assert abs(rice_g2(x, nu) - want) <= 1e-15, (x, nu)

    def test_matches_rice_oracle_up_to_1e10(self, rice_grid):
        errors = {p: noncentral_chisq2_cdf(*p) - want for p, want in rice_grid.items()}
        assert max(abs(e) for e in errors.values()) <= 1e-12, errors

    def test_gauss_legendre_literals(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert np.max(np.abs(specfun._GL_NODES - nodes)) <= 1e-15
        assert np.max(np.abs(specfun._GL_WEIGHTS - weights)) <= 1e-15
        assert np.array_equal(specfun._GL_NODES, -specfun._GL_NODES[::-1])
        assert np.array_equal(specfun._GL_WEIGHTS, specfun._GL_WEIGHTS[::-1])
        assert abs(specfun._GL_WEIGHTS.sum() - 2.0) <= 1e-15

    def test_memory_stays_bounded_at_huge_nu(self):
        tracemalloc.start()
        try:
            value = noncentral_chisq2_cdf(1e10, 1e10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.49 < value < 0.51
        assert peak < 8e6

    def test_memory_stays_bounded_for_long_arrays(self):
        # 144 nodes for each of 20,000 elements at once would take 23 MB per temporary
        x = np.full(20000, 1e10)
        tracemalloc.start()
        try:
            values = _cdf_grid(x, 1e10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(values == noncentral_chisq2_cdf(1e10, 1e10))
        assert peak < 8e6

    def test_window_edges_return_exact_values(self):
        cases = [((2000.0, 0.0), 1.0), ((1500.0, 1e-300), 1.0), ((1e-300, 2000.0), 0.0),
                 ((5e-324, 2000.0), 0.0), ((1402.0, 3.0), 1.0), ((3.0, 1500.0), 0.0)]
        for args, want in cases:
            assert noncentral_chisq2_cdf(*args) == want, args


class TestVectorHelpers:
    def test_grid_x_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 140.0, size=300))])
        for nu in (0.0, 0.64, 4.0, 63.36):
            got = _cdf_grid(xs, nu)
            want = np.array([noncentral_chisq2_cdf(float(x), nu) for x in xs])
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_grid_nu_matches_scalar(self):
        rng = np.random.default_rng(4)
        nus = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 140.0, size=300))])
        for x in (0.015625, 0.64, 16.0, 64.0):
            got = _cdf_grid(x, nus)
            want = np.array([noncentral_chisq2_cdf(x, float(nu)) for nu in nus])
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_fallback_paths_equal_scalar_exactly(self):
        # large elements (max(x, nu) > 1400) run the scalar call's Rice
        # quadrature, whatever the length and mix of the array
        rng = np.random.default_rng(5)
        # a sigma = 0.01 sweep row: squared ratios of 1,000 draws around 2
        z = np.sum((rng.standard_normal((1000, 2)) + [1.99 / 0.01, 0.0]) ** 2, axis=1)
        cases = [
            (np.array([100.0, 1500.0, 2000.0]), 1450.0),
            (1500.0, np.array([0.0, 1450.0, 4000.0])),
            (np.array([5.0, 1500.0]), np.array([5.0, 1450.0])),
            (z, 4e4),
            (4e4, z),
        ]
        for x, nu in cases:
            got = _cdf_grid(x, nu)
            x, nu = np.broadcast_arrays(x, nu)
            want = np.array([noncentral_chisq2_cdf(float(a), float(b)) for a, b in zip(x, nu)])
            large = np.maximum(x, nu) > 1400.0
            assert large.any()
            assert np.array_equal(got[large], want[large])
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.fixture
    def series_calls(self, monkeypatch):
        # every (lam, h) pair handed to the series (here, all by _cdf_grid)
        calls, series = [], specfun._cdf_series

        def spy(lam, h):
            calls.append((lam, h))
            return series(lam, h)

        monkeypatch.setattr(specfun, "_cdf_series", spy)
        return calls

    def test_one_path_per_element(self, series_calls):
        # the series sees exactly the elements with max(x, nu) <= 1400, once,
        # and they get the bits of the same call on the row without the rest
        rng = np.random.default_rng(5)
        z = np.sum((rng.standard_normal((1000, 2)) + [1.99 / 0.01, 0.0]) ** 2, axis=1)
        cases = [
            (np.array([100.0, 1500.0, 2000.0]), 1300.0),
            (1300.0, np.array([0.0, 1450.0, 4000.0])),
            (np.array([5.0, 1500.0]), np.array([5.0, 1450.0])),
            # the large element's lam = 650 must not keep the small one's series running
            (np.array([1399.0, 2000.0]), np.array([2.0, 1300.0])),
            (900.0, np.array([1.0, 100.0, 1399.0, 1401.0, 2000.0, 1e6])),
            (np.array([0.0, 0.64, 1e4])[:, None], np.array([4.0, 1399.0, 1401.0])),
            (np.concatenate([z, [3.0, 900.0]]), 1300.0),
        ]
        for x, nu in cases:
            series_calls.clear()
            got = _cdf_grid(x, nu)
            wide_x, wide_nu = np.broadcast_arrays(x, nu)
            small = np.maximum(wide_x, wide_nu) <= 1400.0
            assert small.any() and not small.all()
            (lam, h), = series_calls
            assert np.max(np.maximum(2.0 * lam, 2.0 * h)) <= 1400.0
            assert np.broadcast(lam, h).size == np.count_nonzero(small)
            assert np.array_equal(got[small], _cdf_grid(wide_x[small], wide_nu[small]))

    def test_series_not_called_when_every_element_is_large(self, series_calls):
        for x, nu in ((np.array([2000.0, 3000.0]), 5.0), (1e4, np.linspace(0.0, 200.0, 17) ** 2)):
            got = _cdf_grid(x, nu)
            x, nu = np.broadcast_arrays(x, nu)
            want = [noncentral_chisq2_cdf(float(a), float(b)) for a, b in zip(x, nu)]
            assert np.array_equal(got, want)
        assert series_calls == []

    def test_scalar_argument_reaches_series_as_scalar(self, series_calls):
        # sweep and pit pair a 0-d x0 with a row of z: the recurrences on the
        # 0-d side stay scalar instead of widening to the row
        z = np.linspace(0.0, 200.0, 50)
        _cdf_grid(z, 64.0)
        _cdf_grid(64.0, z)
        _cdf_grid(np.float64(5.0), np.array(5.0))
        (lam0, h0), (lam1, h1), (lam2, h2) = series_calls
        assert (lam0.ndim, h0.shape, lam1.shape, h1.ndim) == (0, (50,), (50,), 0)
        assert lam2.ndim == h2.ndim == 0

    def test_zero_d_inputs_in_both_regimes(self):
        for x, nu in ((5.0, 5.0), (1399.0, 2.0), (0.0, 0.0), (2000.0, 1300.0), (1e4, 1e4), (5.0, 1e6)):
            for args in ((x, nu), (np.array(x), np.float64(nu))):
                got = _cdf_grid(*args)
                assert np.ndim(got) == 0 and got == noncentral_chisq2_cdf(x, nu), (x, nu)

    def test_empty_and_invalid_inputs(self):
        # invalid arguments are refused before _cdf_grid, as test_fuzz's spy checks
        assert _cdf_grid(np.array([]), 1.0).size == 0
        assert _cdf_grid(1.0, np.array([])).size == 0

    def test_outer_grid_matches_scalar(self):
        xs = np.array([0.0, 0.015625, 0.64, 4.0, 16.0, 63.36, 140.0])
        nus = np.array([0.0, 0.64, 4.0, 25.0, 63.36, 140.0])
        got = _cdf_grid(xs[:, None], nus[None, :])
        want = np.array([[noncentral_chisq2_cdf(x, nu) for nu in nus] for x in xs])
        assert got.shape == (xs.size, nus.size)
        assert np.max(np.abs(got - want)) <= 1e-12


def _bits(v: float) -> int:
    return struct.unpack("<q", struct.pack("<d", v))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


class TestInvertMonotone:
    def test_linear(self):
        # the least float x with x >= target is the target itself, from the
        # least subnormal to the largest float, in at most 65 calls of f
        for target in (5e-324, 1e-300, 1.0, 3.7, 1.5e308, sys.float_info.max):
            calls = []
            assert invert_monotone(lambda v: calls.append(v) or v, target) == target
            assert len(calls) <= 65, (target, len(calls))

    def test_square_root(self):
        got = invert_monotone(lambda v: v * v, 2.0)
        assert abs(got - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

    def test_cdf_inversion(self):
        got = invert_monotone(lambda v: noncentral_chisq2_cdf(v, 0.64), G2_AT_4_064)
        assert abs(got - 4.0) <= 1e-8

    def test_endpoint_targets(self):
        # the roots at both ends of the bracket
        assert invert_monotone(lambda v: v, 0.0) == 0.0
        assert invert_monotone(lambda v: v, sys.float_info.max) == sys.float_info.max

    def test_evaluation_order(self):
        # f(0) first, then f(largest float), then the floats at the midpoints
        # of the bit patterns of [0, largest float], until the patterns of lo
        # and hi are adjacent; every point reaches f as a Python float
        calls = []

        def f(v):
            calls.append(v)
            return v

        got = invert_monotone(f, 10.0)
        assert calls[:2] == [0.0, sys.float_info.max]
        lo, hi, mids = 0, _bits(sys.float_info.max), []
        while hi - lo > 1:
            mid = (lo + hi) // 2
            mids.append(_float(mid))
            lo, hi = (mid, hi) if mids[-1] < 10.0 else (lo, mid)
        assert calls[2:] == mids and mids[0] == math.nextafter(1.5, 0.0)
        assert got == _float(hi) == 10.0 and math.nextafter(_float(lo), math.inf) == got
        assert len(calls) == 65 and all(type(v) is float for v in calls)

    def test_root_is_least_float_reaching_target(self):
        # f(root) >= target > f(the float below root), at every scale
        cases = [
            (lambda v: v * v, 2.0),
            (lambda v: noncentral_chisq2_cdf(v, 0.64), G2_AT_4_064),
            (lambda v: noncentral_chisq2_cdf(v, 1e6), 0.95),
            (lambda v: 1e-300 * v, 3e-300),
            (lambda v: v / 3.0, 1.5e-323),  # a subnormal root
            (lambda v: math.sqrt(v), 1.2e154),
        ]
        for f, target in cases:
            root = invert_monotone(f, target)
            assert f(root) >= target > f(math.nextafter(root, 0.0)), (target, root)

    def test_non_monotone_f_gives_a_crossing(self):
        # f reaches the target on an island [1e-300, 2e-300] that the bisection
        # never probes; the root is still a crossing between adjacent floats
        def f(v):
            return 1.0 if 1e-300 <= v <= 2e-300 else (0.0 if v < 1.0 else v)

        root = invert_monotone(f, 0.5)
        assert f(root) >= 0.5 > f(math.nextafter(root, 0.0))
        assert root == 1.0 and f(1.5e-300) >= 0.5  # not the least float reaching 0.5

    def test_target_covered_at_zero_returns_zero(self):
        for target in (-1.0, 0.25):
            calls = []
            assert invert_monotone(lambda v: calls.append(v) or 0.25 + v, target) == 0.0
            assert calls == [0.0]

    def test_unreachable_target(self):
        # f(0) and f(largest float), and no further call
        calls = []
        largest = sys.float_info.max
        with pytest.raises(BracketError, match=re.escape(f"target 1.0 up to f({largest!r})")):
            invert_monotone(lambda v: calls.append(v) or 0.0, 1.0)
        assert calls == [0.0, largest]

    def test_target_beyond_largest_float(self):
        # f reaches the target only at twice the largest float
        calls = []
        largest = sys.float_info.max
        message = re.escape(f"target {largest!r} up to f({largest!r})")
        with pytest.raises(BracketError, match=message):
            invert_monotone(lambda v: calls.append(v) or 0.5 * v, largest)
        assert calls == [0.0, largest]

    def test_domain_errors(self):
        for target in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"^target .*, got {target!r}$"):
                invert_monotone(lambda v: v, target)


class TestArgumentChecks:
    def test_accepted_values(self):
        assert require_finite("a", -2) == -2.0
        assert require_nonnegative("a", 0) == 0.0
        assert require_positive("a", 3) == 3.0
        assert require_open_unit("a", 0.25) == 0.25
        assert require_finite("a", " -2.5e1\n") == -25.0  # what float() reads
        assert require_nonnegative("a", True) == 1.0
        assert require_count("a", 5.0, 1) == 5
        assert isinstance(require_count("a", np.int64(7), 0), int)

    def test_rejected_values_name_the_argument(self):
        cases = [
            (require_finite, (math.nan,)),
            (require_finite, (-math.inf,)),
            (require_nonnegative, (-1e-300,)),
            (require_nonnegative, (math.inf,)),
            (require_positive, (0.0,)),
            (require_positive, (math.nan,)),
            (require_open_unit, (1.0,)),
            (require_open_unit, (math.nan,)),
            (require_count, (0, 1)),
            (require_count, (1.5, 1)),
            (require_count, (math.inf, 1)),
            (require_count, (math.nan, 1)),
            (require_count, (False, 0)),
            (require_count, ("3", 0)),
            (require_count, (None, 0)),
        ]
        # what float() refuses, by ValueError, TypeError or OverflowError
        cases += [(check, (bad,)) for bad in ("a", None, 10**400, [0.5])
                  for check in (require_finite, require_nonnegative, require_positive,
                                require_open_unit)]
        for check, args in cases:
            with pytest.raises(DomainError, match="^arg "):
                check("arg", *args)

    def test_count_bound_is_numpys_array_limit(self):
        # a broadcast (n, 2) float64 view takes no memory, so the limit itself is tried
        assert np.broadcast_to(0.0, (MAX_ROWS, 2)).shape == (MAX_ROWS, 2)
        with pytest.raises(ValueError):
            np.broadcast_to(0.0, (MAX_ROWS + 1, 2))
        assert require_count("a", MAX_ROWS, 1, MAX_ROWS) == MAX_ROWS
        assert require_count("a", 10**30, 0) == 10**30  # no maximum given: seeds
        with pytest.raises(DomainError, match=f"^arg must be at most {MAX_ROWS}, got {10**30}$"):
            require_count("arg", 10**30, 1, MAX_ROWS)
