"""Independent numerical oracles shared by the test modules."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


def mc_gamma2(x: float, nu: float, n: int, seed: int, chunk: int = 2_500_000):
    """Monte Carlo estimate of P(|Z + mu|^2 <= x), Z bivariate standard
    normal, |mu|^2 = nu. Returns (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    shift = math.sqrt(nu)
    hits = 0
    remaining = n
    while remaining > 0:
        m = min(chunk, remaining)
        z1 = rng.standard_normal(m)
        z2 = rng.standard_normal(m)
        hits += int(np.count_nonzero((z1 + shift) ** 2 + z2 ** 2 <= x))
        remaining -= m
    p = hits / n
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
    return p, se


def mp_g2(x: float, nu: float, dps: int = 50) -> float:
    """Noncentral chi-square (2 df) CDF G2(x, nu) from its Poisson mixture
    sum_k Pois(k; nu/2) P(k+1, x/2), summed in mpmath at `dps` digits.

    The sum stops once the Poisson mass left out is below 10**(5 - dps);
    every P(k+1, x/2) lies in [0, 1], so that bounds the truncation error.
    The term count grows like nu/2: meant for moderate noncentralities."""
    with mp.workdps(dps):
        half_x = mp.mpf(x) / 2
        lam = mp.mpf(nu) / 2
        cutoff = mp.mpf(10) ** (5 - dps)
        weight = mp.exp(-lam)
        mass = weight
        total = weight * mp.gammainc(1, 0, half_x, regularized=True)
        k = 0
        while 1 - mass > cutoff:
            k += 1
            weight *= lam / k
            mass += weight
            total += weight * mp.gammainc(k + 1, 0, half_x, regularized=True)
        return float(total)


def rice_g2(x: float, nu: float, dps: int = 30) -> float:
    """Noncentral chi-square (2 df) CDF G2(x, nu) from the Rice density of
    |Z + mu|, |mu| = a = sqrt(nu):
        G2 = int_0^sqrt(x) t e^{-(t-a)^2/2} I0e(a t) dt,
    integrated in mpmath at `dps` digits by Gauss-Legendre quadrature on
    unit steps of [a-40, a+40].

    Outside that band the Gaussian factor is below e^{-800}, so the cost
    and the accuracy do not depend on the size of x or nu."""
    with mp.workdps(dps):
        a = mp.sqrt(mp.mpf(nu))
        top = min(mp.sqrt(mp.mpf(x)), a + 40)
        lo = max(mp.mpf(0), a - 40)
        if top <= lo:
            return 0.0

        def density(t):
            return t * mp.exp(-(t - a) ** 2 / 2) * mp.besseli(0, a * t) * mp.exp(-a * t)

        edges = [lo]
        while edges[-1] + 1 < top:
            edges.append(edges[-1] + 1)
        edges.append(top)
        return float(mp.quad(density, edges, method="gauss-legendre"))
