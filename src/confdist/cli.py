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
which only split the command line, the config keys and the flag > config >
default precedence derive from it; _resolve casts each value's text once, the
domain checks are the library's, and _report names each input by its flag.
A runner returns one Record, and _render alone formats it as text, csv or json.
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
from .specfun import MAX_ROWS, ConfdistError, DomainError, require_count

__all__ = ["main", "UsageError"]

# numerator of the two-sided 1% KS critical value
KS_CRITICAL_1PCT = 1.63
# the flag whose count sizes each command's arrays: main names it when they
# do not fit in memory, though numpy can index them
COUNT_FLAGS = {"curve": "--grid", "sweep": "--n-reps", "pit": "--n"}

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


class UsageError(ConfdistError):
    """Invalid flag or config input; mapped to exit code 2."""


REQUIRED = object()  # Param.default of a parameter that has none


class Param(NamedTuple):
    """One command-line parameter. cast reads its flag, config or default text;
    default is text, None (optional) or REQUIRED."""

    flag: str
    cast: Callable[[str], object]
    help: str
    default: object = None
    metavar: str | None = None
    choices: tuple[str, ...] | None = None

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")


def _grid(text: str) -> np.ndarray:
    # only what linspace needs; tabulate_curves checks the points it makes
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--grid must look like lo:hi:n, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"--grid must look like lo:hi:n with numeric parts, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"--grid needs finite lo and hi, got {text!r}")
    if not math.isfinite(hi - lo):  # else linspace's step overflows to nan points
        raise UsageError(f"--grid needs a finite span hi - lo, got {text!r}")
    return np.linspace(lo, hi, require_count("--grid point count", count, 2, MAX_ROWS))


NORM = Param("--norm", float, "observed displacement norm |y|")
SIGMA = Param("--sigma", float, "per-coordinate noise scale", REQUIRED)
RADIUS = Param("--radius", float, "collision radius R", REQUIRED)
DELTA_TRUE = Param("--delta-true", float, "true distance", REQUIRED)
SEED = Param("--seed", int, "base seed", "1")
WORKERS = Param("--workers", int, "accepted for compatibility; has no effect", "1")
OUTPUT = Param("--output", str, "write to this file instead of stdout", metavar="PATH")
FORMAT = Param("--format", str, "output format", choices=("text", "csv", "json"))


def _resolve(params: tuple[Param, ...], args, cfg: dict[str, str]) -> argparse.Namespace:
    """Each parameter's text by flag > config > default, cast once and within its choices."""
    unknown = sorted(set(cfg) - {p.key for p in params})
    if unknown:
        raise UsageError(f"--config: keys not used by this command: {', '.join(unknown)}")
    values = {}
    for p in params:
        text = vars(args).get(p.key, cfg.get(p.key, p.default))
        if text is REQUIRED:
            raise UsageError(f"{p.flag} is required")
        try:
            values[p.key] = None if text is None else p.cast(text)
        except ValueError:
            rule = "must be an integer" if p.cast is int else "must be a number"
            raise UsageError(rule, (p.key, text)) from None
        if p.choices and values[p.key] not in p.choices:
            raise UsageError(f"must be one of {', '.join(p.choices)}", (p.key, text))
    return argparse.Namespace(**values)


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
        key = key.strip().replace("-", "_")
        if key in cfg:
            raise UsageError(f"--config: line {lineno} repeats key {key}")
        cfg[key] = value.strip()
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
        raise UsageError("--norm and the --y1/--y2 pair cannot both be given")
    if v.norm is not None:
        return Observation.from_norm(v.norm, v.sigma)
    if v.y1 is None or v.y2 is None:
        raise UsageError("--norm, or both --y1 and --y2, is required")
    return Observation(v.y1, v.y2, v.sigma)


def _analyze(v: argparse.Namespace) -> Record:
    obs = _observation(v)
    c_r = collision_confidence(obs, v.radius)
    b_r = bayes_cdf(obs, v.radius)
    pval = noncollision_pvalue(obs, v.radius)
    iv_cd = level_interval(obs, "cd", v.level)
    iv_b = level_interval(obs, "bayes", v.level)
    med_cd = median(obs, "cd")
    med_b = median(obs, "bayes")
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
    grid = _grid(v.grid)  # its text is read before any library check
    table = tabulate_curves(Observation.from_norm(v.norm, v.sigma), grid)
    rows = np.column_stack((table.delta, table.b, table.c, table.cc, table.cred)).tolist()
    return Record({}, CURVE_HEADER.split(","), rows)


def _sweep(v: argparse.Namespace) -> Record:
    config = SweepConfig(v.sigma_grid, v.n_reps, v.seed, v.threshold)
    rows = run_sweep(v.delta_true, v.radius, config, workers=v.workers)
    columns = SWEEP_HEADER.split(",")
    return Record({}, columns, [[getattr(row, name) for name in columns] for row in rows])


def _pit(v: argparse.Namespace) -> Record:
    require_count("workers", v.workers, 1)  # pit_sample takes no worker count
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
        Param("--y1", float, "first displacement coordinate"),
        Param("--y2", float, "second displacement coordinate"),
        SIGMA,
        RADIUS,
        Param("--level", float, "interval level", "0.90"),
        FORMAT._replace(default="text"),
        OUTPUT,
    )),
    "curve": ("tabulate both cumulative curves", _curve, (
        NORM._replace(default=REQUIRED),
        SIGMA,
        Param("--grid", str, "delta grid", "0:12:481", metavar="LO:HI:N"),
        FORMAT._replace(default="csv"),
        OUTPUT,
    )),
    "sweep": ("Monte Carlo calibration sweep", _sweep, (
        DELTA_TRUE._replace(default="1.99"),
        RADIUS._replace(default="2.00"),
        Param("--sigma-grid", partial(str.split, sep=","), "noise scales",
              "0.25,0.5,1,2,4,8,16", metavar="S1,S2,..."),
        Param("--n-reps", int, "replicates per sigma", "100000"),
        SEED,
        Param("--threshold", float, "high-probability threshold", "0.95"),
        WORKERS,
        FORMAT._replace(default="csv"),
        OUTPUT,
    )),
    "pit": ("PIT uniformity diagnostic", _pit, (
        DELTA_TRUE,
        SIGMA,
        RADIUS,
        Param("--n", int, "number of draws, at least 100", "100000"),
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
            metavar = "{%s}" % ",".join(p.choices) if p.choices else p.metavar
            command.add_argument(p.flag, default=argparse.SUPPRESS, metavar=metavar, help=_help(p))
        command.add_argument("--config", metavar="FILE",
                             help="flat key = value file supplying parameter defaults")
    return parser


def _report(exc: ConfdistError, command: str, values: argparse.Namespace | None) -> int:
    """Print exc, each input named by its flag (|y| by --norm or else --y1 and --y2, delta
    by --radius or --grid, sigma by sweep's --sigma-grid): exit 2, or 1 for a numerical failure."""
    flags = {p.key: p.flag for p in COMMANDS[command][2]}
    flags.setdefault("sigma", "--sigma-grid")  # sweep has no --sigma
    flags["|y|"] = "--norm" if getattr(values, "norm", None) is not None else "--y1 and --y2"
    flags["delta"] = "--radius" if command == "analyze" else "--grid"
    refused = isinstance(exc, (UsageError, DomainError))
    prefix = "error: " if refused else "numerical failure: "
    print(prefix + exc.render(lambda name: flags.get(name, name)), file=sys.stderr)
    return 2 if refused else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _, run, params = COMMANDS[args.command]
    values = None
    try:
        cfg = {} if args.config is None else _load_config(args.config)
        values = _resolve(params, args, cfg)
        _write_output(_render(values.format, run(values)), values.output)
    except ConfdistError as exc:
        failure = exc
    except MemoryError:
        if args.command not in COUNT_FLAGS:
            raise
        key = COUNT_FLAGS[args.command][2:].replace("-", "_")
        failure = DomainError("must give arrays that fit in memory", (key, getattr(values, key)))
    else:
        return 0
    return _report(failure, args.command, values)
