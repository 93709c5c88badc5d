"""Metamorphic relations: transformations of the inputs that must leave the
outputs bit-identical, or move them exactly. They need no oracle, so they
check seeded log-uniform draws at float cost.

Medians and interval ends are solved in delta/sigma and then multiplied by
sigma, so they scale bit for bit too.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from confdist import (
    Observation,
    Scenario,
    SweepConfig,
    bayes_cdf,
    cd_cdf,
    level_interval,
    pit_sample,
    run_sweep,
    tabulate_curves,
)
from confdist.cli import main


def log_uniform(rng: np.random.Generator, lo: float, hi: float, size) -> np.ndarray:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size)


def draws(seed: int, n: int) -> list[tuple[float, float, float]]:
    """n triples (|y|, delta, sigma): sigma in [1e-2, 1e2] and both ratios to
    it in [1e-4, 1e4], so every length lies in [1e-6, 1e6] and any scaling
    by 2^k for -1000 <= k <= 500 keeps it a normal float."""
    rng = np.random.default_rng(seed)
    sigma = log_uniform(rng, 1e-2, 1e2, n)
    ratios = log_uniform(rng, 1e-4, 1e4, (2, n))
    return list(zip((ratios[0] * sigma).tolist(), (ratios[1] * sigma).tolist(), sigma.tolist()))


@pytest.mark.parametrize("k", [-1000, -40, 10, 500])
def test_power_of_two_scaling_leaves_b_and_c_unchanged(k):
    # every G2 argument is a squared ratio, formed after an exact division
    scale = 2.0 ** k
    for norm, delta, sigma in draws(1, 200):
        obs = Observation.from_norm(norm, sigma)
        scaled = Observation.from_norm(norm * scale, sigma * scale)
        for cdf in (bayes_cdf, cd_cdf):
            assert cdf(scaled, delta * scale) == cdf(obs, delta), (cdf, norm, delta, sigma)


@pytest.mark.parametrize("k", [-40, 10])
def test_power_of_two_scaling_leaves_curve_tables_unchanged(k):
    scale = 2.0 ** k
    for norm, top, sigma in draws(2, 20):
        grid = np.linspace(0.0, top, 50)
        table = tabulate_curves(Observation.from_norm(norm, sigma), grid)
        scaled = tabulate_curves(Observation.from_norm(norm * scale, sigma * scale), grid * scale)
        assert scaled.b.tobytes() == table.b.tobytes(), (norm, top, sigma)
        assert scaled.c.tobytes() == table.c.tobytes(), (norm, top, sigma)


@pytest.mark.parametrize("k", [-11, 10])
def test_power_of_two_scaling_leaves_sweep_and_pit_unchanged(k):
    # the draws are loc + scale * z, so scaling delta_true and sigma scales
    # each replicate exactly; only the sigma column moves
    scale = 2.0 ** k
    rng = np.random.default_rng(3)
    for _ in range(3):
        delta_true, radius = log_uniform(rng, 1e-2, 1e2, 2).tolist()
        sigma_grid = tuple(np.sort(log_uniform(rng, 1e-2, 1e2, 3)).tolist())
        config = SweepConfig(sigma_grid, n_reps=200, seed=5)
        rows = run_sweep(delta_true, radius, config)
        scaled_config = SweepConfig(tuple(s * scale for s in sigma_grid), n_reps=200, seed=5)
        scaled = run_sweep(delta_true * scale, radius * scale, scaled_config)
        assert scaled == [dataclasses.replace(row, sigma=row.sigma * scale) for row in rows]

        sigma = sigma_grid[1]
        summary = pit_sample(Scenario(delta_true, sigma, radius), 500, 7)
        scaled_scenario = Scenario(delta_true * scale, sigma * scale, radius * scale)
        assert pit_sample(scaled_scenario, 500, 7) == summary


ROOTS = ("median_cd", "median_bayes", "cd_lo", "cd_hi", "bayes_lo", "bayes_hi")
UNCHANGED = ("level", "b_radius", "c_radius", "pvalue", "median_cd_at_boundary",
             "median_bayes_at_boundary", "cd_lo_clipped", "bayes_lo_clipped")


def analyze_json(capsys, *inputs: float) -> dict:
    argv = ["analyze", "--format", "json"]
    for flag, value in zip(("--norm", "--sigma", "--radius", "--level"), inputs):
        argv += [flag, repr(value)]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("k", [-40, 10])
def test_power_of_two_scaling_of_analyze_output(capsys, k):
    # what analyze prints: the probabilities and flags bit for bit, and the
    # echoed lengths and each root exactly 2^k times
    scale = 2.0 ** k
    rng = np.random.default_rng(7)
    sigma = log_uniform(rng, 1e-2, 1e2, 40)
    ratios = log_uniform(rng, 1e-2, 40.0, (2, 40))
    levels = rng.uniform(0.5, 0.99, 40)
    for s, (a, r), level in zip(sigma.tolist(), ratios.T.tolist(), levels.tolist()):
        norm, radius = a * s, r * s
        base = analyze_json(capsys, norm, s, radius, level)
        scaled = analyze_json(capsys, norm * scale, s * scale, radius * scale, level)
        case = (norm, s, radius, level)
        assert [scaled[key] for key in UNCHANGED] == [base[key] for key in UNCHANGED], case
        for key in ("norm", "sigma", "radius", *ROOTS):
            assert scaled[key] == base[key] * scale, (key, *case)


def test_sign_flips_and_swap_leave_outputs_unchanged():
    rng = np.random.default_rng(4)
    for (a, b, sigma), delta in zip(draws(4, 200), log_uniform(rng, 1e-6, 1e6, 200).tolist()):
        obs = Observation(a, b, sigma)
        expected = (obs.norm, bayes_cdf(obs, delta), cd_cdf(obs, delta))
        for y1, y2 in ((-a, b), (a, -b), (-a, -b), (b, a), (-b, a), (b, -a), (-b, -a)):
            other = Observation(y1, y2, sigma)
            got = (other.norm, bayes_cdf(other, delta), cd_cdf(other, delta))
            assert got == expected, (y1, y2, sigma, delta)


def test_b_and_c_with_swapped_roles_sum_to_one():
    # in units of sigma, B(a | |y| = b) = G2(a^2, b^2) and C(b | |y| = a) = 1 - G2(a^2, b^2)
    for a, b, sigma in draws(5, 300):
        total = bayes_cdf(Observation.from_norm(b, sigma), a) + cd_cdf(
            Observation.from_norm(a, sigma), b)
        assert abs(total - 1.0) <= math.ulp(1.0), (a, b, sigma, total)


# Order relations need no oracle either. B <= C and monotone curves hold
# exactly in theory, but G2 promises 1e-12 absolute, and its series and
# the complement 1 - G2 carry noise of a few ulp(1) near 0 and 1: C can
# round to 0 where B keeps a tail of 1e-17, and either curve can step back
# by up to 3 ulp(1). So these relations are asserted to FLOOR, and a
# break of the exact relation marks the test as an expected failure.
FLOOR = 4 * math.ulp(1.0)


def expect_exact(breaks: list) -> None:
    if breaks:
        pytest.xfail(f"{len(breaks)} exact breaks within {FLOOR:.1e}, first {breaks[0]}")


def test_bayes_cdf_stays_below_cd_cdf():
    # the gap C - B is a nonnegative Bessel term, and both are probabilities
    breaks = []
    for norm, delta, sigma in draws(6, 300):
        obs = Observation.from_norm(norm, sigma)
        b, c = bayes_cdf(obs, delta), cd_cdf(obs, delta)
        assert 0.0 <= b <= c + FLOOR and c <= 1.0, (norm, delta, sigma, b, c)
        if b > c:
            breaks.append((norm, delta, sigma, b, c))
    expect_exact(breaks)


def test_curve_tables_are_monotone_in_delta():
    breaks = []
    for norm, top, sigma in draws(7, 40):
        table = tabulate_curves(Observation.from_norm(norm, sigma), np.linspace(0.0, top, 200))
        for curve in (table.b, table.c):
            step = float(np.diff(curve).min())
            assert step >= -FLOOR, (norm, top, sigma, step)
            if step < 0.0:
                breaks.append((norm, top, sigma, step))
    expect_exact(breaks)


def test_level_intervals_are_nested():
    for norm, _, sigma in draws(8, 15):
        obs = Observation.from_norm(norm, sigma)
        for method in ("cd", "bayes"):
            inner, middle, outer = (level_interval(obs, method, level)
                                    for level in (0.5, 0.9, 0.99))
            assert outer.lo <= middle.lo <= inner.lo <= inner.hi <= middle.hi <= outer.hi, (
                norm, sigma, method)


def test_cd_atom_at_zero_is_exp_of_minus_half_squared_ratio():
    # C(0 | y) = P(chi2_2 > |y|^2 / sigma^2) = exp(-|y|^2 / (2 sigma^2))
    for norm, _, sigma in draws(9, 300):
        atom = cd_cdf(Observation.from_norm(norm, sigma), 0.0)
        assert abs(atom - math.exp(-0.5 * (norm / sigma) ** 2)) <= 1e-16, (norm, sigma, atom)
