"""Seeded operation streams for the two benchmark workloads.

Each workload is an endless, deterministic sequence of `Op`s drawn from
the run seed; run.py consumes it in a closed loop (one client, the
next op starts when the previous one exits) until its time is up. An op
is one `confdist` CLI call. `params` holds the values the program was
given, parsed back from the argv strings, so the checks see exactly
what the program saw.

The input that sets an op's cost (|y|/sigma) follows a golden-ratio
sequence from a seeded start rather than independent draws: the first n
values of any seed cover the range evenly, so a run sees the same mix of
op costs whatever the seed and however many ops fit in it, which keeps
latency quantiles steady across seeds.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

_FORMATS = ("json", "csv", "text")
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# size of the probe curve the traced run appends: the CLI's default grid
PROBE_CURVE_POINTS = 481

# high_snr: analyze and curve calls in turn. A curve (17 points,
# |y|/sigma log-uniform over [100, 1000], nu = 1e4 .. 1e6) takes 0.05 to
# 0.6 s of compute; analyze runs six bisections of about 45 G2 calls
# each, so its |y|/sigma stops at 150, where it takes 0.4 to 0.7 s. The
# two kinds of op then share one cost range, so neither the median nor
# the tail percentile (p55 to p70, as the op count of a run moves with
# the machine's speed) sits on a jump between them. The mean op is about
# 1.4 s, and a 46-second run (which also times a reference for every two
# ops, see run.py) has more than 25 ops.
HIGH_SNR_CURVE_RANGE = (100.0, 1000.0)
HIGH_SNR_ANALYZE_RANGE = (100.0, 150.0)
HIGH_SNR_CURVE_POINTS = 17

# calibration: op sizes chosen so one op takes about as long as
# `import confdist` plus half a second of replicate work.
SWEEP_N_REPS = 1000
SWEEP_SIGMA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
PIT_N = 10000


@dataclass(frozen=True)
class Op:
    """One CLI call: `argv` after `confdist`, plus what the checks need."""

    command: str
    argv: tuple[str, ...]
    fmt: str
    params: dict = field(default_factory=dict)
    # index (within the run) of an earlier op whose stdout must match
    # byte for byte, or None
    twin: int | None = None

    @property
    def replicates(self) -> int:
        if self.command == "sweep":
            return self.params["n_reps"] * len(self.params["sigma_grid"])
        if self.command == "pit":
            return self.params["n"]
        return 0


def _num(value: float) -> str:
    return f"{value:.6g}"


def make_op(command: str, fmt: str, twin: int | None = None, extra: dict | None = None,
            **args) -> Op:
    """Build the argv; numbers are printed to 6 digits and parsed back,
    so params hold exactly the values the program reads."""
    argv = [command]
    params = dict(extra or {})
    for name, value in args.items():
        text = _num(value) if isinstance(value, float) else str(value)
        argv += [f"--{name.replace('_', '-')}", text]
        params.setdefault(name, type(value)(text))
    argv += ["--format", fmt]
    return Op(command, tuple(argv), fmt, params, twin)


def _curve(fmt: str, norm: float, sigma: float, lo: float, hi: float, points: int) -> Op:
    lo_s, hi_s = _num(lo), _num(hi)
    return make_op("curve", fmt, extra={"grid": (float(lo_s), float(hi_s), points)},
                   norm=norm, sigma=sigma, grid=f"{lo_s}:{hi_s}:{points}")


def _even(rng: random.Random):
    """Endless draws in [0, 1) from a seeded start, each a golden-ratio
    step from the last, so that every prefix covers [0, 1) evenly."""
    u = rng.random()
    while True:
        yield u
        u = (u + _GOLDEN) % 1.0


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * math.exp(u * math.log(hi / lo))


def high_snr(seed: int):
    """analyze and curve calls in turn at |y|/sigma >= 100: pivoted
    scalar G2 bound."""
    rng = random.Random(seed)
    curve_snr = _even(rng)
    analyze_snr = _even(rng)
    for i in itertools.count():
        fmt = _FORMATS[(i // 2) % 3]
        sigma = _log_uniform(rng.random(), 0.1, 10.0)
        if i % 2 == 0:
            b = _log_uniform(next(analyze_snr), *HIGH_SNR_ANALYZE_RANGE)
            yield make_op(
                "analyze", fmt,
                norm=b * sigma, sigma=sigma,
                radius=sigma * (b + rng.uniform(-3.0, 3.0)),
                level=rng.uniform(0.5, 0.99),
            )
        else:
            b = _log_uniform(next(curve_snr), *HIGH_SNR_CURVE_RANGE)
            yield _curve(fmt, b * sigma, sigma, (b - 4.0) * sigma, (b + 4.0) * sigma,
                         HIGH_SNR_CURVE_POINTS)


def calibration(seed: int):
    """sweep and pit calls, each run at --workers 1 and then --workers 2."""
    rng = random.Random(seed)
    grid = ",".join(_num(s) for s in SWEEP_SIGMA_GRID)
    for i in itertools.count(0, 2):
        fmt = _FORMATS[(i // 4) % 3]
        mc_seed = rng.randrange(1 << 31)
        if (i // 2) % 2 == 0:
            command = "sweep"
            extra = {"sigma_grid": SWEEP_SIGMA_GRID}
            args = dict(delta_true=1.99, radius=2.0, sigma_grid=grid, n_reps=SWEEP_N_REPS,
                        seed=mc_seed)
        else:
            command = "pit"
            extra = None
            radius = rng.uniform(0.5, 5.0)
            args = dict(delta_true=radius, sigma=_log_uniform(rng.random(), 0.25, 16.0),
                        radius=radius, n=PIT_N, seed=mc_seed)
        yield make_op(command, fmt, extra=extra, workers=1, **args)
        yield make_op(command, fmt, twin=i, extra=extra, workers=2, **args)


def probes() -> list[Op]:
    """Fixed ops the traced run appends, so that every layer metric
    exists on every workload: both G2 regimes, a 481-point curve, a sweep
    at each worker count and a pit."""
    grid = ",".join(_num(s) for s in SWEEP_SIGMA_GRID)
    sweep = dict(delta_true=1.99, radius=2.0, sigma_grid=grid, n_reps=SWEEP_N_REPS, seed=1)
    return [
        make_op("analyze", "json", norm=3.0, sigma=1.0, radius=2.0, level=0.9),
        make_op("analyze", "json", norm=150.0, sigma=1.0, radius=151.0, level=0.9),
        _curve("csv", 3.0, 1.0, 0.0, 12.0, PROBE_CURVE_POINTS),
        make_op("sweep", "csv", extra={"sigma_grid": SWEEP_SIGMA_GRID}, workers=1, **sweep),
        make_op("sweep", "csv", extra={"sigma_grid": SWEEP_SIGMA_GRID}, workers=2, **sweep),
        make_op("pit", "json", delta_true=2.0, sigma=1.0, radius=2.0, n=PIT_N, seed=1, workers=1),
    ]


WORKLOADS = {
    "calibration": calibration,
    "high_snr": high_snr,
}
