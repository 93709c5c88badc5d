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


def _poisson_weights(mean, eps):
    """Poisson(k; mean) for k = 0, 1, ... (mpmath), stopping on the first
    term past the mean that is below eps: the tail left out is then below
    eps times a geometric factor."""
    weight = mp.exp(-mean)
    k = 0
    while k <= mean or weight >= eps:
        yield k, weight
        k += 1
        weight *= mean / k


def mp_exact_means(delta_true: float, sigma: float, radius: float, dps: int = 30):
    """(mean_bayes, mean_cd) of the sweep's exact twins from Poisson-mixture
    series in mpmath at `dps` digits. With x0 = (R/sigma)^2, nu0 =
    (delta_true/sigma)^2, W ~ G2(., x0) and Z ~ G2(., nu0) independent:
        mean_cd = P(W <= Z)
                = sum_ij Pois(i; x0/2) Pois(j; nu0/2) P(Bin(i+j+1, 1/2) >= i+1),
        1 - mean_bayes = E[G2(x0, Z)]
                = sum_k P(K=k) P(Gamma(k+1) <= x0/2),  K | J ~ NegBin(J+1, 1/2),
    where J ~ Pois(nu0/2) is the Poisson index of Z/2 ~ Gamma(J+1).
    Each sum stops on its term size; every factor after the weights lies
    in [0, 1], so the truncation error is about 10**-dps per sum."""
    with mp.workdps(dps):
        eps = mp.mpf(10) ** (-dps)
        half_x = (mp.mpf(radius) / sigma) ** 2 / 2
        half_nu = (mp.mpf(delta_true) / sigma) ** 2 / 2
        half = mp.mpf(1) / 2

        # P(W <= Z): W/2, Z/2 are Gamma(i+1), Gamma(j+1), and W <= Z
        # exactly when at least i+1 of the first i+j+1 arrivals of two
        # merged unit-rate Poisson processes belong to the W process.
        mean_cd = mp.mpf(0)
        for i, wi in _poisson_weights(half_x, eps):
            tail = half ** (i + 1)  # P(Bin(i+1, 1/2) >= i+1)
            pmf = (i + 1) * half ** (i + 1)  # P(Bin(n, 1/2) = i) at n = i+1
            inner = mp.mpf(0)
            for j, wj in _poisson_weights(half_nu, eps):
                inner += wj * tail
                n = i + j + 1
                tail += pmf / 2  # P(Bin(n+1, 1/2) >= i+1)
                pmf *= mp.mpf(n + 1) / (2 * (n + 1 - i))
            mean_cd += wi * inner

        # P(Gamma(k+1) <= x0/2) = 1 - sum_{m <= k} Pois(m; x0/2)
        gamma_cdf = []
        below, term = mp.mpf(0), mp.exp(-half_x)
        one_minus_bayes = mp.mpf(0)
        for j, wj in _poisson_weights(half_nu, eps):
            nb = half ** (j + 1)  # NegBin(k; j+1, 1/2) at k = 0
            k = 0
            while k <= j + 1 or nb >= eps:
                while len(gamma_cdf) <= k:
                    below += term
                    term *= half_x / (len(gamma_cdf) + 1)
                    gamma_cdf.append(1 - below)
                one_minus_bayes += wj * nb * gamma_cdf[k]
                nb *= mp.mpf(k + j + 1) / (2 * (k + 1))
                k += 1
        return float(1 - one_minus_bayes), float(mean_cd)
