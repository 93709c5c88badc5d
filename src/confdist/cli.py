"""Command-line frontend for the distance-inference library.

Subcommands:
    analyze  summarize one observation (posterior and confidence quantities)
    curve    tabulate both cumulative curves over a delta grid
    sweep    Monte Carlo calibration sweep with exact twins
    pit      uniformity diagnostic for 1 - C(R|Y) under a chosen truth

Output goes to stdout unless --output names a file; --format selects
text, csv, or json. A flat "key = value" config file can supply any
parameter (keys match the long flag names); explicit flags win. Exit
codes: 0 success, 2 usage or validation error, 1 numerical failure.

Each command is one table of Param entries (COMMANDS): the argparse flags,
config keys, flag > config > default precedence and usage checks derive from it.
Its runner returns one Record, and _render is the one place that formats a
Record as text, csv or json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calibration import Scenario, SweepConfig, pit_sample, run_sweep
from .inference import (
    Observation,
    bayes_cdf,
    collision_confidence,
    level_interval,
    median,
    noncollision_pvalue,
    tabulate_curves,
)
from .specfun import (
    BracketError,
    ConvergenceError,
    DomainError,
    require_count,
    require_finite,
    require_nonnegative,
    require_open_unit,
    require_positive,
)

__all__ = ["main", "UsageError"]

# numerator of the two-sided 1% KS critical value
KS_CRITICAL_1PCT = 1.63

CURVE_HEADER = "delta,B,C,cc,cred"
SWEEP_HEADER = (
    "sigma,mean_bayes,mean_cd,freq_bayes,freq_cd,mean_bayes_exact,"
    "mean_cd_exact,freq_bayes_exact,freq_cd_exact,stderr_mean_bayes,stderr_mean_cd"
)
PIT_HEADER = "bin_lo,bin_hi,count"
ANALYZE_HEADER = (
    "norm,sigma,radius,level,b_radius,c_radius,pvalue,"
    "median_cd,median_cd_at_boundary,median_bayes,median_bayes_at_boundary,"
    "cd_lo,cd_hi,cd_lo_clipped,bayes_lo,bayes_hi,bayes_lo_clipped"
)


class UsageError(Exception):
    """Invalid flag or config input; mapped to exit code 2."""


REQUIRED = object()  # Param.default of a parameter that has none


class Param(NamedTuple):
    """One command-line parameter. cast reads flag and config text; default
    is config text, None (optional) or REQUIRED; rule(flag, value) returns
    the accepted value or raises DomainError or UsageError naming the flag."""

    flag: str
    cast: Callable[[str], object]
    help: str
    default: object = None
    rule: Callable[[str, object], object] | None = None
    metavar: str | None = None
    choices: tuple[str, ...] | None = None

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")


def _grid(flag: str, text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag} must look like lo:hi:n, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"{flag} must look like lo:hi:n with numeric parts, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0.0 or hi <= lo or count < 2:
        raise UsageError(f"{flag} needs 0 <= lo < hi and n >= 2, got {text!r}")
    return np.linspace(lo, hi, count)


def _sigma_grid(flag: str, text: str) -> tuple[float, ...]:
    # SweepConfig checks that the entries are positive and increasing
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated numbers, got {text!r}")


NORM = Param("--norm", float, "observed displacement norm |y|", rule=require_nonnegative)
SIGMA = Param("--sigma", float, "per-coordinate noise scale", REQUIRED, require_positive)
RADIUS = Param("--radius", float, "collision radius R", REQUIRED, require_positive)
DELTA_TRUE = Param("--delta-true", float, "true distance", REQUIRED, require_nonnegative)
SEED = Param("--seed", int, "base seed", "1", partial(require_count, minimum=0))
WORKERS = Param("--workers", int, "accepted for compatibility; has no effect", "1",
                partial(require_count, minimum=1))
OUTPUT = Param("--output", str, "write to this file instead of stdout", metavar="PATH")
FORMAT = Param("--format", str, "output format", choices=("text", "csv", "json"))


def _resolve(params: tuple[Param, ...], args, cfg: dict[str, str]) -> argparse.Namespace:
    """Each parameter's value by flag > config > default, then its rule."""
    unknown = sorted(set(cfg) - {p.key for p in params})
    if unknown:
        raise UsageError(f"config contains keys not used by this command: {', '.join(unknown)}")
    values = {}
    for p in params:
        value = getattr(args, p.key)
        text = cfg.get(p.key, p.default)
        if value is None and text is REQUIRED:
            raise UsageError(f"{p.flag} is required")
        if value is None and text is not None:
            try:
                value = p.cast(text)
            except ValueError:
                raise UsageError(f"config value {text!r} is invalid for {p.flag}")
        values[p.key] = value
    for p in params:
        value = values[p.key]
        if value is None:
            continue
        if p.choices and value not in p.choices:
            raise UsageError(f"{p.flag} must be one of {', '.join(p.choices)}")
        if p.rule:
            values[p.key] = p.rule(p.flag, value)
    return argparse.Namespace(**values)


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}")
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"--config: line {lineno} is not of the form key = value")
        key, _, value = stripped.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _cell(value, spec: str) -> str:
    if isinstance(value, int):
        return str(value).lower()  # a bool prints as true or false
    return format(float(value), spec)


class Record(NamedTuple):
    """What a command prints: named fields, an optional table and prose lines."""

    fields: dict
    columns: Sequence[str] = ()
    rows: Sequence[Sequence] = ()
    key: str = "rows"
    prose: Sequence[str] = ()


def _render(fmt: str, record: Record) -> str:
    """json writes the fields, then the table's rows under its key; csv and
    right-aligned text write the table, or else the fields as its one row,
    but text writes the prose lines instead when a command gives them."""
    fields, columns, rows, key, prose = record
    if fmt == "json":
        table = {key: [dict(zip(columns, row)) for row in rows]} if columns else {}
        return json.dumps({**fields, **table}, indent=2) + "\n"
    if fmt == "text" and prose:
        return "".join(line + "\n" for line in prose)
    if not columns:
        columns, rows = list(fields), [list(fields.values())]
    spec = ".10g" if fmt == "csv" else ".6g"
    lines = [columns, *([_cell(value, spec) for value in row] for row in rows)]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in lines)
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join("  ".join(c.rjust(w) for c, w in zip(line, widths)) + "\n" for line in lines)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"--output: cannot write {path}: {exc}")


def _observation(v: argparse.Namespace) -> Observation:
    if v.norm is not None and (v.y1 is not None or v.y2 is not None):
        raise UsageError("pass either --norm or the --y1/--y2 pair, not both")
    if v.norm is not None:
        return Observation.from_norm(v.norm, v.sigma)
    if v.y1 is None or v.y2 is None:
        raise UsageError("provide --norm, or both --y1 and --y2")
    return Observation(v.y1, v.y2, v.sigma)


def _analyze(v: argparse.Namespace) -> Record:
    obs = _observation(v)
    b_r = bayes_cdf(obs, v.radius)
    c_r = collision_confidence(obs, v.radius)
    pval = noncollision_pvalue(obs, v.radius)
    med_cd = median(obs, "cd")
    med_b = median(obs, "bayes")
    iv_cd = level_interval(obs, "cd", v.level)
    iv_b = level_interval(obs, "bayes", v.level)
    values = [
        obs.norm, obs.sigma, v.radius, v.level, b_r, c_r, pval,
        med_cd.value, med_cd.at_boundary, med_b.value, med_b.at_boundary,
        iv_cd.lo, iv_cd.hi, iv_cd.lo_clipped, iv_b.lo, iv_b.hi, iv_b.lo_clipped,
    ]
    pct = f"{100.0 * v.level:g}%"
    boundary = {True: " (at boundary)", False: ""}
    clipped = {True: " (lower endpoint clipped)", False: ""}
    return Record(dict(zip(ANALYZE_HEADER.split(","), values)), prose=(
        f"distance analysis: |y| = {obs.norm:.3f}, sigma = {obs.sigma:.3f}, "
        f"radius = {v.radius:.3f}",
        f"  posterior collision probability  B(R)     = {b_r:.3f}",
        f"  collision confidence             C(R)     = {c_r:.3f}",
        f"  non-collision p-value            1 - C(R) = {pval:.3f}",
        f"  median distance, confidence = {med_cd.value:.3f}{boundary[med_cd.at_boundary]}",
        f"  median distance, posterior  = {med_b.value:.3f}{boundary[med_b.at_boundary]}",
        f"  {pct} confidence interval = [{iv_cd.lo:.3f}, {iv_cd.hi:.3f}]"
        f"{clipped[iv_cd.lo_clipped]}",
        f"  {pct} credible interval   = [{iv_b.lo:.3f}, {iv_b.hi:.3f}]{clipped[iv_b.lo_clipped]}",
    ))


def _curve(v: argparse.Namespace) -> Record:
    table = tabulate_curves(Observation.from_norm(v.norm, v.sigma), v.grid)
    rows = np.column_stack((table.delta, table.b, table.c, table.cc, table.cred)).tolist()
    return Record({}, CURVE_HEADER.split(","), rows)


def _sweep(v: argparse.Namespace) -> Record:
    config = SweepConfig(v.sigma_grid, v.n_reps, v.seed, v.threshold)
    rows = run_sweep(v.delta_true, v.radius, config, workers=v.workers)
    columns = SWEEP_HEADER.split(",")
    return Record({}, columns, [[getattr(row, name) for name in columns] for row in rows])


def _pit(v: argparse.Namespace) -> Record:
    summary = pit_sample(Scenario(v.delta_true, v.sigma, v.radius), v.n, v.seed)
    critical = KS_CRITICAL_1PCT / math.sqrt(summary.n)
    consistent = summary.ks_stat <= critical
    rows = [[i / 20.0, (i + 1) / 20.0, count] for i, count in enumerate(summary.histogram)]
    fields = {"n": summary.n, "ks_stat": summary.ks_stat, "ks_critical_1pct": critical,
              "uniform_consistent": consistent, "mean_u": summary.mean_u}
    verdict = ("consistent with uniform" if consistent else
               f"NOT consistent with uniform ({summary.ks_stat:.6g} > {critical:.6g})")
    return Record(fields, PIT_HEADER.split(","), rows, "histogram", (
        f"pit uniformity check: delta_true = {v.delta_true:.6g}, sigma = {v.sigma:.6g}, "
        f"radius = {v.radius:.6g}, n = {summary.n}",
        f"  ks statistic      = {summary.ks_stat:.6g}",
        f"  1% critical value = {critical:.6g}  ({KS_CRITICAL_1PCT:.6g} / sqrt(n))",
        f"  verdict: {verdict}",
        f"  mean of 1 - C(R|Y) = {summary.mean_u:.6g}",
        "  histogram (20 bins over [0, 1]):",
        *(f"    [{lo:.2f}, {hi:.2f})  {count}" for lo, hi, count in rows),
    ))


# command -> (summary, runner, parameters); runners call the library by
# its module-level names here, so that a tracer can patch them
COMMANDS = {
    "analyze": ("summarize a single observation", _analyze, (
        NORM,
        Param("--y1", float, "first displacement coordinate", rule=require_finite),
        Param("--y2", float, "second displacement coordinate", rule=require_finite),
        SIGMA,
        RADIUS,
        Param("--level", float, "interval level", "0.90", require_open_unit),
        FORMAT._replace(default="text"),
        OUTPUT,
    )),
    "curve": ("tabulate both cumulative curves", _curve, (
        NORM._replace(default=REQUIRED),
        SIGMA,
        Param("--grid", str, "delta grid", "0:12:481", _grid, metavar="LO:HI:N"),
        FORMAT._replace(default="csv"),
        OUTPUT,
    )),
    "sweep": ("Monte Carlo calibration sweep", _sweep, (
        DELTA_TRUE._replace(default="1.99"),
        RADIUS._replace(default="2.00"),
        Param("--sigma-grid", str, "noise scales", "0.25,0.5,1,2,4,8,16", _sigma_grid,
              metavar="S1,S2,..."),
        Param("--n-reps", int, "replicates per sigma", "100000", partial(require_count, minimum=1)),
        SEED,
        Param("--threshold", float, "high-probability threshold", "0.95", require_open_unit),
        WORKERS,
        FORMAT._replace(default="csv"),
        OUTPUT,
    )),
    "pit": ("PIT uniformity diagnostic", _pit, (
        DELTA_TRUE,
        SIGMA,
        RADIUS,
        Param("--n", int, "number of draws, at least 100", "100000",
              partial(require_count, minimum=100)),
        SEED,
        WORKERS,
        FORMAT._replace(default="text"),
        OUTPUT,
    )),
}


def _help(p: Param) -> str:
    if p.default is REQUIRED:
        return f"{p.help} (required)"
    return p.help if p.default is None else f"{p.help} (default {p.default})"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confdist",
        description="Distance between two noisy points: Bayesian posterior "
                    "versus confidence distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, params) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for p in params:
            command.add_argument(p.flag, type=p.cast, choices=p.choices, metavar=p.metavar,
                                 help=_help(p))
        command.add_argument("--config", metavar="FILE",
                             help="flat key = value file supplying parameter defaults")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _, run, params = COMMANDS[args.command]
    try:
        cfg = _load_config(args.config) if args.config else {}
        values = _resolve(params, args, cfg)
        _write_output(_render(values.format, run(values)), values.output)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0
