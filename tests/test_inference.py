from __future__ import annotations

import math
import re

import numpy as np
import pytest

from confdist import (
    DomainError,
    Observation,
    bayes_cdf,
    cd_cdf,
    collision_confidence,
    level_interval,
    median,
    noncollision_pvalue,
    tabulate_curves,
)
from confdist import inference
from confdist.specfun import bessel_i0_scaled, noncentral_chisq2_cdf
from oracles import mp_g2

# Reference case used throughout: |y| = 5.00, sigma = 2.50, radius = 2.00.
# Tabulated summary values for it (3-decimal granularity) are 4.29 / 5.61
# for the medians, [0.00, 8.63] / [2.01, 9.57] for the 90% intervals, and
# 0.05 for the posterior collision probability. The frozen constants below
# add full precision, derived from a 50-digit series evaluation plus
# bisection during development.
C_AT_RADIUS = 0.2214950486344759
B_AT_RADIUS = 0.049518176429118856
MEDIAN_CD = 4.2857406995887235
MEDIAN_BAYES = 5.6145056427399900
CD_HI_90 = 8.6291095249866719
BAYES_LO_90 = 2.0087294641485777
BAYES_HI_90 = 9.5656323594780738


@pytest.fixture
def obs():
    return Observation.from_norm(5.00, 2.50)


class TestObservation:
    def test_pair_construction_and_norm(self):
        o = Observation(3.0, 4.0, 1.5)
        assert o.norm == 5.0
        assert o.sigma == 1.5

    def test_from_norm(self):
        o = Observation.from_norm(5.0, 2.5)
        assert (o.y1, o.y2) == (5.0, 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            Observation(1.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            Observation(1.0, 2.0, -1.0)
        with pytest.raises(DomainError):
            Observation(math.nan, 0.0, 1.0)
        with pytest.raises(DomainError):
            Observation(0.0, math.inf, 1.0)
        with pytest.raises(DomainError, match="^y1 and y2 must give a finite norm"):
            Observation(1.7e308, -1.7e308, 1e300)
        with pytest.raises(DomainError):
            Observation.from_norm(-0.5, 1.0)

    def test_frozen(self):
        o = Observation(1.0, 2.0, 3.0)
        with pytest.raises(AttributeError):
            o.sigma = 4.0


class TestCdfs:
    def test_bayes_cdf_zero_delta(self, obs):
        assert bayes_cdf(obs, 0.0) == 0.0

    def test_cd_cdf_atom_at_zero(self, obs):
        want = math.exp(-obs.norm ** 2 / (2.0 * obs.sigma ** 2))
        got = cd_cdf(obs, 0.0)
        assert got > 0.0
        assert abs(got - want) <= 1e-14

    def test_reference_point_values(self, obs):
        assert abs(cd_cdf(obs, 2.0) - C_AT_RADIUS) <= 1e-12
        assert abs(bayes_cdf(obs, 2.0) - B_AT_RADIUS) <= 1e-12
        # the posterior assigns about 5% to the collision event
        assert abs(bayes_cdf(obs, 2.0) - 0.05) <= 0.0005

    def test_cdfs_approach_one(self, obs):
        assert cd_cdf(obs, 60.0) > 1.0 - 1e-12
        assert bayes_cdf(obs, 60.0) > 1.0 - 1e-12

    def test_degenerate_zero_norm(self):
        o = Observation.from_norm(0.0, 1.0)
        assert cd_cdf(o, 0.0) == 1.0
        assert bayes_cdf(o, 0.0) == 0.0

    def test_invalid_delta(self, obs):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                cd_cdf(obs, bad)
            with pytest.raises(DomainError):
                bayes_cdf(obs, bad)

    def test_squared_ratios_out_of_float_range(self):
        # |y|^2 overflows, sigma^2 underflows to 0, delta^2 overflows to inf
        cases = [
            (Observation.from_norm(1e200, 1.0), 1.0),
            (Observation.from_norm(1.0, 1e-200), 1.0),
            (Observation.from_norm(1.0, 1.0), 1e300),
        ]
        for o, delta in cases:
            for fn in (bayes_cdf, cd_cdf):
                with pytest.raises(DomainError, match="sigma"):
                    fn(o, delta)
        with pytest.raises(DomainError):
            tabulate_curves(Observation.from_norm(1e200, 1.0), [0.0, 1.0])

    def test_arguments_keep_their_arithmetic(self):
        # B and C evaluate G2 at exactly (delta/sigma)**2 and (|y|/sigma)**2,
        # each ratio formed before its square
        for norm, sigma, delta in [(5.0, 2.5, 2.0), (0.3, 0.7, 1.1), (40.0, 0.9, 37.0)]:
            o = Observation.from_norm(norm, sigma)
            x, nu = (delta / sigma) ** 2, (norm / sigma) ** 2
            assert bayes_cdf(o, delta) == noncentral_chisq2_cdf(x, nu)
            assert cd_cdf(o, delta) == 1.0 - noncentral_chisq2_cdf(nu, x)


class TestSummaries:
    def test_median_values(self, obs):
        med_cd = median(obs, "cd")
        med_b = median(obs, "bayes")
        assert not med_cd.at_boundary and not med_b.at_boundary
        assert abs(med_cd.value - 4.29) <= 0.01
        assert abs(med_b.value - 5.61) <= 0.01
        assert abs(med_cd.value - MEDIAN_CD) <= 1e-6
        assert abs(med_b.value - MEDIAN_BAYES) <= 1e-6

    def test_median_round_trip(self, obs):
        assert abs(cd_cdf(obs, median(obs, "cd").value) - 0.5) <= 1e-8
        assert abs(bayes_cdf(obs, median(obs, "bayes").value) - 0.5) <= 1e-8

    def test_median_at_boundary(self):
        o = Observation.from_norm(0.1, 10.0)
        med = median(o, "cd")
        assert med == (0.0, True)
        assert not median(o, "bayes").at_boundary

    def test_level_interval_values(self, obs):
        cd_iv = level_interval(obs, "cd", 0.90)
        b_iv = level_interval(obs, "bayes", 0.90)
        assert cd_iv.lo == 0.0 and cd_iv.lo_clipped
        assert abs(cd_iv.hi - 8.63) <= 0.01
        assert abs(cd_iv.hi - CD_HI_90) <= 1e-6
        assert not b_iv.lo_clipped
        assert abs(b_iv.lo - 2.01) <= 0.01 and abs(b_iv.hi - 9.57) <= 0.01
        assert abs(b_iv.lo - BAYES_LO_90) <= 1e-6
        assert abs(b_iv.hi - BAYES_HI_90) <= 1e-6

    def test_level_interval_quantile_round_trip(self, obs):
        b_iv = level_interval(obs, "bayes", 0.90)
        assert abs(bayes_cdf(obs, b_iv.lo) - 0.05) <= 1e-8
        assert abs(bayes_cdf(obs, b_iv.hi) - 0.95) <= 1e-8
        cd_iv = level_interval(obs, "cd", 0.90)
        assert abs(cd_cdf(obs, cd_iv.hi) - 0.95) <= 1e-8

    def test_intervals_nest_as_level_grows(self, obs):
        prev = level_interval(obs, "bayes", 0.5)
        for level in (0.9, 0.99, 0.999):
            cur = level_interval(obs, "bayes", level)
            assert cur.lo <= prev.lo + 1e-12
            assert cur.hi >= prev.hi - 1e-12
            prev = cur

    def test_unclipped_cd_interval(self):
        o = Observation.from_norm(8.0, 1.0)
        iv = level_interval(o, "cd", 0.90)
        assert not iv.lo_clipped and iv.lo > 0.0
        assert abs(cd_cdf(o, iv.lo) - 0.05) <= 1e-8

    def test_level_validation(self, obs):
        for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(DomainError):
                level_interval(obs, "bayes", bad)

    def test_level_whose_upper_probability_rounds_to_one(self, obs):
        # (1 + level)/2 rounds to 1.0 at the float just below 1, and only there,
        # so that upper end would be wherever the float CDF first reaches 1
        top = math.nextafter(1.0, 0.0)
        assert 0.5 * (1.0 + top) == 1.0 and 0.5 * (1.0 + math.nextafter(top, 0.0)) < 1.0
        for method in ("bayes", "cd"):
            with pytest.raises(DomainError, match=r"^level .*, got 0\.9999999999999999$"):
                level_interval(obs, method, top)
            assert level_interval(obs, method, math.nextafter(top, 0.0)).hi > 0.0

    def test_method_validation(self, obs):
        with pytest.raises(DomainError):
            median(obs, "posterior")
        with pytest.raises(DomainError):
            level_interval(obs, "frequentist", 0.9)
        with pytest.raises(DomainError, match=r"^method must be 'bayes' or 'cd', got \['cd'\]$"):
            median(obs, ["cd"])  # unhashable: no dict lookup may raise TypeError

    @pytest.mark.parametrize("method", ["bayes", "cd"])
    def test_median_evaluates_no_g2_pair_twice(self, monkeypatch, obs, method):
        pairs = []
        monkeypatch.setattr(inference, "noncentral_chisq2_cdf",
                            lambda x, nu: pairs.append((x, nu)) or noncentral_chisq2_cdf(x, nu))
        median(obs, method)
        assert len(pairs) > 30 and len(set(pairs)) == len(pairs)


class TestCollisionQuantities:
    def test_reference_value(self, obs):
        assert collision_confidence(obs, 2.0) == cd_cdf(obs, 2.0)
        assert abs(noncollision_pvalue(obs, 2.0) - (1.0 - C_AT_RADIUS)) <= 1e-12

    def test_complementarity(self, obs):
        total = collision_confidence(obs, 2.0) + noncollision_pvalue(obs, 2.0)
        assert abs(total - 1.0) <= 1e-15

    def test_coincident_points(self):
        o = Observation.from_norm(0.0, 1.0)
        assert collision_confidence(o, 1.0) == 1.0

    def test_far_separation(self):
        o = Observation.from_norm(10.0, 0.5)
        assert collision_confidence(o, 2.0) <= 1e-12

    @pytest.mark.parametrize("a, r", [(10.0, 3.0), (20.0, 5.0)])
    def test_small_values_within_4_ulp(self, a, r):
        # C(R) near 2.4e-12 and 7.4e-51 at (|y|/sigma, R/sigma) = (a, r): 1 - G2
        # rounds no further from the oracle than G2's own last bits near 1
        got = collision_confidence(Observation.from_norm(a, 1.0), r)
        assert abs(got - (1.0 - mp_g2(a * a, r * r, dps=50))) <= 4 * 2.0**-52

    def test_radius_validation(self, obs):
        for bad in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                collision_confidence(obs, bad)


class TestCurves:
    def test_confidence_curve_vanishes_at_median(self, obs):
        assert tabulate_curves(obs, [median(obs, "cd").value]).cc[0] <= 1e-8
        assert tabulate_curves(obs, [median(obs, "bayes").value]).cred[0] <= 1e-8

    def test_curve_levels_at_interval_endpoints(self, obs):
        cd_iv = level_interval(obs, "cd", 0.90)
        b_iv = level_interval(obs, "bayes", 0.90)
        assert abs(tabulate_curves(obs, [cd_iv.hi]).cc[0] - 0.90) <= 1e-7
        assert abs(tabulate_curves(obs, [b_iv.lo]).cred[0] - 0.90) <= 1e-7
        assert abs(tabulate_curves(obs, [b_iv.hi]).cred[0] - 0.90) <= 1e-7

    def test_curve_at_zero(self, obs):
        table = tabulate_curves(obs, [0.0])
        assert abs(table.cc[0] - abs(1.0 - 2.0 * cd_cdf(obs, 0.0))) <= 1e-15
        assert table.cred[0] == 1.0


class TestStructuralDominance:
    def test_identity_on_randomized_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            delta = float(rng.uniform(0.0, 6.0))
            norm = float(rng.uniform(0.0, 6.0))
            sigma = float(rng.uniform(0.3, 3.0))
            o = Observation.from_norm(norm, sigma)
            a = delta / sigma
            b = norm / sigma
            gap = cd_cdf(o, delta) - bayes_cdf(o, delta)
            want = math.exp(-0.5 * (a - b) ** 2) * bessel_i0_scaled(a * b)
            assert abs(gap - want) <= 1e-10
            assert gap >= -1e-12

    def test_median_ordering(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            o = Observation.from_norm(float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.4, 3.0)))
            assert median(o, "cd").value <= median(o, "bayes").value + 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            norm = float(rng.uniform(0.1, 6.0))
            sigma = float(rng.uniform(0.3, 3.0))
            delta = float(rng.uniform(0.0, 6.0))
            scale = float(rng.uniform(0.5, 4.0))
            base = Observation.from_norm(norm, sigma)
            scaled = Observation.from_norm(scale * norm, scale * sigma)
            assert abs(cd_cdf(base, delta) - cd_cdf(scaled, scale * delta)) <= 1e-12
            assert abs(bayes_cdf(base, delta) - bayes_cdf(scaled, scale * delta)) <= 1e-12

    def test_roots_scale_equivariant_at_tiny_scales(self):
        # the reference case shrunk and grown by powers of ten: B(R) and C(R)
        # do not move, and roots, solved in delta/sigma, scale by k to a few
        # ulps (those of k and of the division by it)
        def roots(k):
            o = Observation.from_norm(5.0 * k, 2.5 * k)
            iv = level_interval(o, "cd", 0.90)
            return [median(o, "bayes").value / k, median(o, "cd").value / k, iv.lo / k, iv.hi / k]

        def at_radius(k):
            o = Observation.from_norm(5.0 * k, 2.5 * k)
            return [bayes_cdf(o, 2.0 * k), cd_cdf(o, 2.0 * k)]

        want, want_at_radius = roots(1.0), at_radius(1.0)
        for k in (1e-160, 1e-150, 1e-60, 1e-12, 1e12, 1e60, 1e160):
            assert roots(k) == pytest.approx(want, rel=1e-15)
            assert at_radius(k) == pytest.approx(want_at_radius, rel=0.0, abs=1e-15)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            norm = float(rng.uniform(0.1, 6.0))
            sigma = float(rng.uniform(0.3, 3.0))
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            delta = float(rng.uniform(0.0, 6.0))
            rotated = Observation(norm * math.cos(angle), norm * math.sin(angle), sigma)
            aligned = Observation.from_norm(rotated.norm, sigma)
            assert cd_cdf(rotated, delta) == cd_cdf(aligned, delta)
            assert bayes_cdf(rotated, delta) == bayes_cdf(aligned, delta)


class TestTabulateCurves:
    def test_values_on_small_grid(self, obs):
        table = tabulate_curves(obs, [0.0, 2.0, MEDIAN_CD, MEDIAN_BAYES])
        assert table.b[0] == 0.0
        assert abs(table.c[0] - math.exp(-2.0)) <= 1e-14
        assert abs(table.c[1] - C_AT_RADIUS) <= 1e-12
        assert abs(table.c[2] - 0.5) <= 1e-9
        assert abs(table.b[3] - 0.5) <= 1e-9
        assert np.max(np.abs(table.cc - np.abs(1.0 - 2.0 * table.c))) <= 1e-15
        assert np.max(np.abs(table.cred - np.abs(1.0 - 2.0 * table.b))) <= 1e-15

    def test_dominance_identity_per_row(self, obs):
        grid = np.linspace(0.0, 12.0, 49)
        table = tabulate_curves(obs, grid)
        a = grid / obs.sigma
        b = obs.norm / obs.sigma
        want = np.array(
            [math.exp(-0.5 * (ai - b) ** 2) * bessel_i0_scaled(ai * b) for ai in a]
        )
        assert np.max(np.abs((table.c - table.b) - want)) <= 1e-10

    def test_vector_columns_match_per_point_calls(self):
        # |y|/sigma near 835 puts every point on the Rice quadrature
        obs = Observation.from_norm(1010.3, 1.21011)
        grid = np.linspace(1005.46, 1015.14, 17)
        table = tabulate_curves(obs, grid)
        b = np.array([bayes_cdf(obs, d) for d in grid])
        c = np.array([cd_cdf(obs, d) for d in grid])
        assert np.max(np.abs(table.b - b)) <= 1e-15
        assert np.max(np.abs(table.c - c)) <= 1e-15

    def test_grid_validation(self, obs):
        with pytest.raises(DomainError):
            tabulate_curves(obs, [1.0, 1.0])
        with pytest.raises(DomainError):
            tabulate_curves(obs, [2.0, 1.0])
        for grid, message in [
            ([], "grid must have a nonempty 1-d shape, got (0,)"),
            ([[0.0, 1.0]], "grid must have a nonempty 1-d shape, got (1, 2)"),
            ([-1.0, 1.0], "grid values must be finite and nonnegative, got grid[0] = -1.0"),
            (["a", 1.0], "grid entries must be numbers, got grid[0] = 'a'"),
            # refused whole: not read per character, nor as a 0-d array
            ("0:1:3", "grid entries must be numbers, got '0:1:3'"),
            (3, "grid entries must be numbers, got 3"),
        ]:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                tabulate_curves(obs, grid)

    @pytest.mark.parametrize("norm, sigma", [
        (5.0, 2.5), (37.0, 1.0), (37.5, 1.0), (1010.3, 1.21011),
    ])
    def test_columns_nondecreasing_within_unit_interval(self, norm, sigma):
        # |y|/sigma of 5, 37, 37.5 and 835; delta/sigma reaches |y|/sigma + 40,
        # so the grid crosses G2's direct/Rice boundary at max(x, nu) = 1400
        grid = np.linspace(0.0, norm + 40.0 * sigma, 2001)
        table = tabulate_curves(Observation.from_norm(norm, sigma), grid)
        for col in (table.b, table.c):
            assert 0.0 <= col.min() and col.max() <= 1.0
            # two G2 values, each within the 1e-12 contract
            assert np.diff(col).min() >= -2e-12
