"""Output checks for confdist CLI calls, independent of confdist's code.

Every op's stdout is parsed against its format's schema (text, csv or
json) and checked for invariants that hold for any correct program:

- analyze and curve: 0 <= B <= C <= 1, pvalue = 1 - C, the gap identity
  C - B = exp(-(a - b)^2 / 2) I0e(a b) with a = delta/sigma and
  b = |y|/sigma (mpmath `besseli`), nondecreasing curve columns, the
  confidence quantiles at or below the posterior ones, and each median
  inside its interval;
- sweep: each Monte Carlo mean within 5 standard errors of its exact
  twin;
- pit: a 20-bin histogram summing to n, a KS statistic consistent with
  uniformity, and a verdict consistent with the printed critical value.

A `deep` check (json output only) also compares B(R), C(R) and the CDF
on both sides of every reported root with a 30-digit Poisson-mixture
G2 computed here in mpmath.

Tolerances follow the printed precision: json carries full floats, csv
ten significant digits, text three decimals (analyze) or six
significant digits (the tables).
"""

from __future__ import annotations

import json
import math
import re

import mpmath as mp

# oracle agreement: the program promises 1e-12 absolute on G2 and 1e-10
# on roots
PROB_TOL = 1e-12
ROOT_TOL = 1e-9
# Monte Carlo means against their exact twins; the twins themselves are
# quadratures with up to 1e-8 absolute error
MC_Z = 5.0
EXACT_ABS = 2e-8
# sqrt(n) * KS above this has probability about 1e-6 under uniformity.
# The program's own verdict uses the 1% value 1.63; a check at that level
# would fail about one correct pit op in a hundred.
KS_FAIL = 2.69
KS_CRITICAL_1PCT = 1.63
# curves: the gap identity is evaluated at most at this many grid points
GAP_POINTS = 9

ANALYZE_KEYS = (
    "norm,sigma,radius,level,b_radius,c_radius,pvalue,"
    "median_cd,median_cd_at_boundary,median_bayes,median_bayes_at_boundary,"
    "cd_lo,cd_hi,cd_lo_clipped,bayes_lo,bayes_hi,bayes_lo_clipped"
).split(",")
CURVE_KEYS = ["delta", "B", "C", "cc", "cred"]
SWEEP_KEYS = (
    "sigma,mean_bayes,mean_cd,freq_bayes,freq_cd,mean_bayes_exact,"
    "mean_cd_exact,freq_bayes_exact,freq_cd_exact,stderr_mean_bayes,stderr_mean_cd"
).split(",")
PIT_KEYS = ["bin_lo", "bin_hi", "count"]


class CheckError(Exception):
    """An op's output is malformed or wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, expected {want!r} (tol {tol:g})")


# ---------------------------------------------------------------- oracles

def g2(x: float, nu: float) -> mp.mpf:
    """P(X <= x) for X noncentral chi-square, 2 df, noncentrality nu, as
    the Poisson mixture sum_k Pois(k; nu/2) P(Pois(x/2) >= k + 1), summed
    in 30-digit arithmetic over the +/- (10 sqrt(nu/2) + 20) window of
    Poisson weights (the mass outside is below 1e-20)."""
    with mp.workdps(30):
        x, nu = mp.mpf(x), mp.mpf(nu)
        if x == 0:
            return mp.mpf(0)
        lam, h = nu / 2, x / 2
        if lam == 0:
            return -mp.expm1(-h)
        span = 10 * mp.sqrt(lam) + 20
        k_lo = max(0, int(mp.floor(lam - span)))
        k_hi = int(mp.ceil(lam + span))
        w = mp.exp(-lam + k_lo * mp.log(lam) - mp.loggamma(k_lo + 1))
        t = mp.exp(-h + k_lo * mp.log(h) - mp.loggamma(k_lo + 1))
        q = mp.gammainc(k_lo + 1, h, regularized=True)  # P(Pois(h) <= k_lo)
        tiny = mp.mpf(10) ** -40
        acc = mp.mpf(0)
        for k in range(k_lo, k_hi + 1):
            upper = 1 - q
            if upper < tiny:
                break
            acc += w * upper
            w = w * lam / (k + 1)
            t = t * h / (k + 1)
            q += t
        return +acc


def oracle_b(delta: float, norm: float, sigma: float) -> mp.mpf:
    """Posterior CDF B(delta | y), from the same float arguments the
    program forms."""
    s2 = sigma * sigma
    return g2(delta * delta / s2, norm ** 2 / s2)


def oracle_c(delta: float, norm: float, sigma: float) -> mp.mpf:
    """Confidence CDF C(delta | y)."""
    s2 = sigma * sigma
    with mp.workdps(30):
        return 1 - g2(norm ** 2 / s2, delta * delta / s2)


def gap(delta: float, norm: float, sigma: float) -> float:
    """C - B at delta: exp(-(a - b)^2 / 2) * exp(-a b) * I0(a b)."""
    with mp.workdps(30):
        a, b = mp.mpf(delta) / sigma, mp.mpf(norm) / sigma
        return float(mp.exp(-(a - b) ** 2 / 2 - a * b) * mp.besseli(0, a * b))


# ---------------------------------------------------------------- parsers

def _floats(cells, what: str) -> list[float]:
    try:
        values = [float(c) for c in cells]
    except (TypeError, ValueError):
        raise CheckError(f"{what}: non-numeric cell in {cells!r}")
    _require(all(math.isfinite(v) for v in values), f"{what}: non-finite value")
    return values


def _bool(cell: str, what: str) -> bool:
    _require(cell in ("true", "false"), f"{what}: {cell!r} is not true/false")
    return cell == "true"


def _csv(text: str, keys: list[str]) -> list[list[str]]:
    _require(text.endswith("\n"), "output does not end with a newline")
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == ",".join(keys), f"bad csv header {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(keys) for r in rows), "csv row with the wrong column count")
    return rows


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckError(f"invalid json: {exc}")


def _table(text: str, keys: list[str]) -> list[list[float]]:
    _require(text.endswith("\n"), "output does not end with a newline")
    lines = text.splitlines()
    _require(bool(lines) and lines[0].split() == keys, f"bad table header {lines[:1]!r}")
    rows = [line.split() for line in lines[1:]]
    _require(all(len(r) == len(keys) for r in rows), "table row with the wrong column count")
    return [_floats(r, "table") for r in rows]


def _json_fields(obj, keys, what: str) -> None:
    _require(isinstance(obj, dict) and list(obj) == list(keys), f"{what}: keys {list(obj)!r}")


_NUM = r"(-?\d+\.\d{3})"
_ANALYZE_TEXT = [
    re.compile(rf"distance analysis: \|y\| = {_NUM}, sigma = {_NUM}, radius = {_NUM}$"),
    re.compile(rf"  posterior collision probability  B\(R\)     = {_NUM}$"),
    re.compile(rf"  collision confidence             C\(R\)     = {_NUM}$"),
    re.compile(rf"  non-collision p-value            1 - C\(R\) = {_NUM}$"),
    re.compile(rf"  median distance, confidence = {_NUM}( \(at boundary\))?$"),
    re.compile(rf"  median distance, posterior  = {_NUM}( \(at boundary\))?$"),
    re.compile(rf"  ([\d.]+)% confidence interval = \[{_NUM}, {_NUM}\]"
               rf"( \(lower endpoint clipped\))?$"),
    re.compile(rf"  ([\d.]+)% credible interval   = \[{_NUM}, {_NUM}\]"
               rf"( \(lower endpoint clipped\))?$"),
]


def parse_analyze(text: str, fmt: str) -> dict:
    if fmt == "json":
        obj = _json(text)
        _json_fields(obj, ANALYZE_KEYS, "analyze json")
        for key in ANALYZE_KEYS:
            flag = key.endswith(("_at_boundary", "_clipped"))
            _require(isinstance(obj[key], bool) == flag, f"analyze json: {key} has wrong type")
        return obj
    if fmt == "csv":
        rows = _csv(text, ANALYZE_KEYS)
        _require(len(rows) == 1, "analyze csv must hold one row")
        return {
            k: _bool(c, k) if k.endswith(("_at_boundary", "_clipped")) else _floats([c], k)[0]
            for k, c in zip(ANALYZE_KEYS, rows[0])
        }
    _require(text.endswith("\n"), "output does not end with a newline")
    lines = text.splitlines()
    _require(len(lines) == len(_ANALYZE_TEXT), f"analyze text has {len(lines)} lines")
    m = []
    for pattern, line in zip(_ANALYZE_TEXT, lines):
        match = pattern.match(line)
        _require(match is not None, f"analyze text line {line!r} does not parse")
        m.append(match.groups())
    _require(m[6][0] == m[7][0], "interval levels differ")
    return {
        "norm": float(m[0][0]), "sigma": float(m[0][1]), "radius": float(m[0][2]),
        "level": float(m[6][0]) / 100.0,
        "b_radius": float(m[1][0]), "c_radius": float(m[2][0]), "pvalue": float(m[3][0]),
        "median_cd": float(m[4][0]), "median_cd_at_boundary": m[4][1] is not None,
        "median_bayes": float(m[5][0]), "median_bayes_at_boundary": m[5][1] is not None,
        "cd_lo": float(m[6][1]), "cd_hi": float(m[6][2]), "cd_lo_clipped": m[6][3] is not None,
        "bayes_lo": float(m[7][1]), "bayes_hi": float(m[7][2]),
        "bayes_lo_clipped": m[7][3] is not None,
    }


def parse_curve(text: str, fmt: str) -> dict[str, list[float]]:
    if fmt == "json":
        obj = _json(text)
        _json_fields(obj, ["rows"], "curve json")
        for row in obj["rows"]:
            _json_fields(row, CURVE_KEYS, "curve json row")
        rows = [_floats([row[k] for k in CURVE_KEYS], "curve json") for row in obj["rows"]]
    elif fmt == "csv":
        rows = [_floats(r, "curve csv") for r in _csv(text, CURVE_KEYS)]
    else:
        rows = _table(text, CURVE_KEYS)
    return {k: [r[i] for r in rows] for i, k in enumerate(CURVE_KEYS)}


def parse_sweep(text: str, fmt: str) -> list[dict[str, float]]:
    if fmt == "json":
        obj = _json(text)
        _json_fields(obj, ["rows"], "sweep json")
        for row in obj["rows"]:
            _json_fields(row, SWEEP_KEYS, "sweep json row")
        rows = [_floats([row[k] for k in SWEEP_KEYS], "sweep json") for row in obj["rows"]]
    elif fmt == "csv":
        rows = [_floats(r, "sweep csv") for r in _csv(text, SWEEP_KEYS)]
    else:
        rows = _table(text, SWEEP_KEYS)
    return [dict(zip(SWEEP_KEYS, r)) for r in rows]


_PIT_TEXT_HEAD = [
    re.compile(r"pit uniformity check: delta_true = \S+, sigma = \S+, radius = \S+, n = (\d+)$"),
    re.compile(r"  ks statistic      = (\S+)$"),
    re.compile(r"  1% critical value = (\S+)  \(1\.63 / sqrt\(n\)\)$"),
    re.compile(r"  verdict: (consistent with uniform|NOT consistent with uniform \(.*\))$"),
    re.compile(r"  mean of 1 - C\(R\|Y\) = (\S+)$"),
    re.compile(r"  histogram \(20 bins over \[0, 1\]\):$"),
]
_PIT_TEXT_BIN = re.compile(r"    \[(\d\.\d\d), (\d\.\d\d)\)  (\d+)$")


def parse_pit(text: str, fmt: str) -> dict:
    """Returns n (None for csv), ks, critical, consistent, mean_u and the
    histogram as (lo, hi, count) rows."""
    if fmt == "json":
        obj = _json(text)
        _json_fields(obj, ["n", "ks_stat", "ks_critical_1pct", "uniform_consistent",
                           "mean_u", "histogram"], "pit json")
        for row in obj["histogram"]:
            _json_fields(row, PIT_KEYS, "pit json bin")
        return {
            "n": obj["n"], "ks": obj["ks_stat"], "critical": obj["ks_critical_1pct"],
            "consistent": obj["uniform_consistent"], "mean_u": obj["mean_u"],
            "histogram": [(r["bin_lo"], r["bin_hi"], r["count"]) for r in obj["histogram"]],
        }
    if fmt == "csv":
        rows = _csv(text, PIT_KEYS)
        hist = [(*_floats(r[:2], "pit csv"), int(r[2])) for r in rows]
        return {"n": None, "histogram": hist}
    _require(text.endswith("\n"), "output does not end with a newline")
    lines = text.splitlines()
    _require(len(lines) == len(_PIT_TEXT_HEAD) + 20, f"pit text has {len(lines)} lines")
    head = []
    for pattern, line in zip(_PIT_TEXT_HEAD, lines):
        match = pattern.match(line)
        _require(match is not None, f"pit text line {line!r} does not parse")
        head.append(match.groups())
    hist = []
    for line in lines[len(_PIT_TEXT_HEAD):]:
        match = _PIT_TEXT_BIN.match(line)
        _require(match is not None, f"pit text line {line!r} does not parse")
        hist.append((float(match[1]), float(match[2]), int(match[3])))
    return {
        "n": int(head[0][0]), "ks": float(head[1][0]), "critical": float(head[2][0]),
        "consistent": head[3][0] == "consistent with uniform", "mean_u": float(head[4][0]),
        "histogram": hist,
    }


# ---------------------------------------------------------------- checks

def _slack(fmt: str, text_slack: float) -> float:
    """Absolute rounding allowance for one printed value in [0, 1]."""
    return {"json": 2e-15, "csv": 6e-11}.get(fmt, text_slack)


def _check_root(cdf, root: float, p: float, what: str) -> None:
    """The true p-quantile lies within ROOT_TOL of root: cdf(root - tol)
    <= p <= cdf(root + tol), with the G2 contract as slack."""
    below = cdf(max(root - ROOT_TOL, 0.0)) if root > 0.0 else mp.mpf(0)
    above = cdf(root + ROOT_TOL)
    _require(below <= p + PROB_TOL and above >= p - PROB_TOL,
             f"{what} = {root!r} is not within {ROOT_TOL:g} of the {p!r} quantile "
             f"(oracle cdf {float(below)!r} .. {float(above)!r})")


def check_analyze(params: dict, text: str, fmt: str, deep: bool) -> None:
    r = parse_analyze(text, fmt)
    slack = _slack(fmt, 5.01e-4)
    value_tol = {"json": 0.0, "csv": 1e-9}.get(fmt)
    for key in ("norm", "sigma", "radius", "level"):
        want = params[key]
        tol = 5.01e-4 if value_tol is None else value_tol * abs(want)
        _close(r[key], want, tol, f"echoed {key}")
    b, c = r["b_radius"], r["c_radius"]
    _require(0.0 <= b <= c + 2 * (slack + PROB_TOL) and c <= 1.0,
             f"need 0 <= B <= C <= 1: {b}, {c}")
    _close(r["pvalue"], 1.0 - c, 2 * slack, "pvalue = 1 - C(R)")
    norm, sigma, radius = params["norm"], params["sigma"], params["radius"]
    _close(c - b, gap(radius, norm, sigma), 2 * (slack + PROB_TOL), "gap identity C(R) - B(R)")

    root_slack = 5.01e-4 if fmt == "text" else ROOT_TOL * max(1.0, norm + 10.0 * sigma)
    for method in ("cd", "bayes"):
        med, lo, hi = r[f"median_{method}"], r[f"{method}_lo"], r[f"{method}_hi"]
        if r[f"median_{method}_at_boundary"]:
            _require(med == 0.0, f"{method} median flagged at boundary but {med}")
        if r[f"{method}_lo_clipped"]:
            _require(lo == 0.0, f"{method} lower endpoint flagged clipped but {lo}")
        _require(lo <= med + root_slack and med <= hi + root_slack,
                 f"{method} median {med} outside its interval [{lo}, {hi}]")
    # C >= B pointwise, so every confidence quantile sits at or below the
    # matching posterior quantile
    for cd_key, b_key in (("median_cd", "median_bayes"), ("cd_lo", "bayes_lo"),
                          ("cd_hi", "bayes_hi")):
        _require(r[cd_key] <= r[b_key] + 2 * root_slack,
                 f"{cd_key} {r[cd_key]} above {b_key} {r[b_key]}")
    if not deep:
        return

    def cdf_b(d):
        return oracle_b(d, norm, sigma)

    def cdf_c(d):
        return oracle_c(d, norm, sigma)

    _close(b, float(cdf_b(radius)), PROB_TOL, "B(R) against the mpmath oracle")
    _close(c, float(cdf_c(radius)), PROB_TOL, "C(R) against the mpmath oracle")
    level = params["level"]
    p_lo, p_hi = 0.5 * (1.0 - level), 0.5 * (1.0 + level)
    for method, cdf in (("cd", cdf_c), ("bayes", cdf_b)):
        if r[f"median_{method}_at_boundary"]:
            _require(cdf(0.0) >= 0.5 - PROB_TOL, f"{method} median wrongly at boundary")
        else:
            _check_root(cdf, r[f"median_{method}"], 0.5, f"median_{method}")
        if r[f"{method}_lo_clipped"]:
            _require(cdf(0.0) >= p_lo - PROB_TOL, f"{method}_lo wrongly clipped")
        else:
            _check_root(cdf, r[f"{method}_lo"], p_lo, f"{method}_lo")
        _check_root(cdf, r[f"{method}_hi"], p_hi, f"{method}_hi")


def check_curve(params: dict, text: str, fmt: str, deep: bool) -> None:
    cols = parse_curve(text, fmt)
    lo, hi, count = params["grid"]
    norm, sigma = params["norm"], params["sigma"]
    delta, bs, cs = cols["delta"], cols["B"], cols["C"]
    _require(len(delta) == count, f"curve has {len(delta)} rows, expected {count}")
    slack = _slack(fmt, 5.01e-7)
    delta_rel = {"json": 1e-14, "csv": 1e-9}.get(fmt, 1e-5)
    # the grid the program evaluated; printed deltas may be rounded
    grid = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    for i, (d, want) in enumerate(zip(delta, grid)):
        _close(d, want, delta_rel * want, f"grid point {i}")
    for i in range(count):
        b, c = bs[i], cs[i]
        _require(0.0 <= b <= c + 2 * (slack + PROB_TOL) and c <= 1.0,
                 f"need 0 <= B <= C <= 1 at delta={delta[i]}: {b}, {c}")
        _close(cols["cc"][i], abs(1.0 - 2.0 * c), 3 * slack, f"cc at row {i}")
        _close(cols["cred"][i], abs(1.0 - 2.0 * b), 3 * slack, f"cred at row {i}")
        if i:
            _require(b >= bs[i - 1] - PROB_TOL - slack and c >= cs[i - 1] - PROB_TOL - slack,
                     f"curve decreases at row {i}")
    stride = max(1, (count - 1) // (GAP_POINTS - 1))
    for i in range(0, count, stride):
        _close(cs[i] - bs[i], gap(grid[i], norm, sigma), 2 * (slack + PROB_TOL),
               f"gap identity at delta={grid[i]}")
    if deep:
        for i in (count // 2, count - 1):
            _close(bs[i], float(oracle_b(delta[i], norm, sigma)), PROB_TOL,
                   f"B({delta[i]}) against the mpmath oracle")
            _close(cs[i], float(oracle_c(delta[i], norm, sigma)), PROB_TOL,
                   f"C({delta[i]}) against the mpmath oracle")


def check_sweep(params: dict, text: str, fmt: str, deep: bool) -> None:
    rows = parse_sweep(text, fmt)
    grid = params["sigma_grid"]
    _require(len(rows) == len(grid), f"sweep has {len(rows)} rows for {len(grid)} sigmas")
    slack = _slack(fmt, 5.01e-7)
    for row, sigma in zip(rows, grid):
        _close(row["sigma"], sigma, 1e-6 * sigma, "sweep sigma column")
        for key in SWEEP_KEYS[1:9]:
            _require(0.0 <= row[key] <= 1.0, f"{key} = {row[key]} outside [0, 1]")
        for side in ("bayes", "cd"):
            se = row[f"stderr_mean_{side}"]
            _require(se >= 0.0, f"negative stderr for {side}")
            _close(row[f"mean_{side}"], row[f"mean_{side}_exact"],
                   MC_Z * se * (1.0 + 1e-5) + EXACT_ABS + 2 * slack,
                   f"mean_{side} at sigma={sigma} against its exact twin")


def check_pit(params: dict, text: str, fmt: str, deep: bool) -> None:
    r = parse_pit(text, fmt)
    n = params["n"]
    hist = r["histogram"]
    _require(len(hist) == 20, f"pit histogram has {len(hist)} bins")
    for i, (lo, hi, _) in enumerate(hist):
        _close(lo, i / 20.0, 1e-12, "bin edge")
        _close(hi, (i + 1) / 20.0, 1e-12, "bin edge")
    _require(sum(h[2] for h in hist) == n, "histogram counts do not sum to n")
    if fmt == "csv":
        return
    _require(r["n"] == n, f"pit reports n = {r['n']}, expected {n}")
    rel = 1e-12 if fmt == "json" else 1e-5
    critical = KS_CRITICAL_1PCT / math.sqrt(n)
    _close(r["critical"], critical, rel * critical, "1% critical value")
    if abs(r["ks"] - r["critical"]) > rel * critical:  # text rounding can tie them
        _require(r["consistent"] == (r["ks"] <= r["critical"]),
                 "verdict contradicts ks and critical")
    _require(0.0 <= r["mean_u"] <= 1.0, "mean of U outside [0, 1]")
    _require(0.0 < r["ks"] <= KS_FAIL / math.sqrt(n),
             f"ks {r['ks']} above {KS_FAIL}/sqrt(n): U is not uniform")


CHECKS = {
    "analyze": check_analyze,
    "curve": check_curve,
    "sweep": check_sweep,
    "pit": check_pit,
}


def check_op(op, stdout: str, deep: bool = False) -> None:
    """Raise CheckError unless stdout is a correct output for op."""
    CHECKS[op.command](op.params, stdout, op.fmt, deep)
