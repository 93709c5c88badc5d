"""A corpus of CLI calls and the one runner that records what each prints.

CORPUS lists command lines, split as a shell would split them. "{tmp}"
stands for a scratch directory: the runner writes CONFIGS there first,
and an --output file under it is read back and recorded as "file". A
record holds the exit code and the stdout, stderr and output-file text,
each split at "\\n" so that a moved line is one line of a diff.

tests/golden/cli.json holds the records (python tests/golden/regen.py
writes it, and --exact lists what moved); tests/test_cli_corpus.py
replays the corpus against it. faults() states the rules every record
keeps, whatever its command line.

GRAMMAR draws command lines over every command and flag for
tests/test_fuzz.py: a flag added to the CLI is added here too.
"""

from __future__ import annotations

import io
import random
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from confdist.cli import main
from confdist.specfun import MAX_ROWS

REFERENCE = "--norm 5 --sigma 2.5 --radius 2"
PIT = "pit --delta-true 2 --sigma 2.5 --radius 2 --n 200"
SWEEP = "sweep --sigma-grid 0.5,2,8 --n-reps 300 --seed 4"
CURVE = "curve --norm 5 --sigma 2.5 --grid 0:12:9"
FORMATS = ("text", "csv", "json")

CONFIGS: dict[str, str | bytes] = {
    "analyze.cfg": "# reference case\nnorm = 5\nsigma = 2.5\nradius = 4\n",
    "curve.cfg": "norm = 5\nsigma = 2.5\ngrid = 0:8:5\nformat = json\n",
    "sweep.cfg": "sigma-grid = 0.5,2\nn-reps = 200\nseed = 4\nthreshold = 0.9\n",
    # a leading UTF-8 byte-order mark is not part of the first key
    "pit_bom.cfg": "\ufeffdelta-true = 2\nsigma = 2.5\nradius = 2\nn = 500\n",
    "repeated.cfg": "delta-true = 2\nsigma = 2.5\nradius = 2\ndelta_true = 3\n",
    "unknown.cfg": "norm = 5\nsigma = 2.5\nradius = 2\nbogus = 1\n",
    "malformed.cfg": "norm 5\n",
    "cast.cfg": "norm = 5\nsigma = abc\nradius = 2\n",
    "domain.cfg": "norm = 5\nsigma = 0\nradius = 2\n",
    "yaml.cfg": "norm = 5\nsigma = 2.5\nradius = 2\nformat = yaml\n",
    "xml.cfg": "format = xml\n",
    "not_utf8.cfg": b"\xff\xfe",
}

CORPUS = [
    # every command in every format, to stdout and to a file
    *(f"analyze {REFERENCE} --format {fmt}" for fmt in FORMATS),
    *(f"{CURVE} --format {fmt}" for fmt in FORMATS),
    *(f"{SWEEP} --format {fmt}" for fmt in FORMATS),
    *(f"{PIT} --format {fmt}" for fmt in FORMATS),
    *(f"analyze {REFERENCE} --format {fmt} --output {{tmp}}/out" for fmt in FORMATS),
    f"{CURVE} --output {{tmp}}/out",
    f"{SWEEP} --format json --output {{tmp}}/out",
    f"{PIT} --format csv --output {{tmp}}/out",
    f"analyze {REFERENCE} --output -",
    # defaults: the 481-point curve grid and the seven sweep noise scales
    "curve --norm 5 --sigma 2.5",
    "sweep --n-reps 50",
    "analyze --y1 3 --y2 4 --sigma 2.5 --radius 2 --format csv",
    "analyze --y1 -3 --y2 -4 --sigma 2.5 --radius 2 --format json",
    # C's atom at 0 holds the confidence median
    "analyze --norm 0.5 --sigma 1 --radius 1 --format json",
    "analyze --norm 0 --sigma 1 --radius 1",
    "analyze --norm 5 --sigma 2.5 --radius 2 --level 0.5 --format csv",
    "sweep --delta-true 0 --radius 2 --sigma-grid 1 --n-reps 100 --threshold 0.999",
    "sweep --sigma-grid 1 --n-reps 1 --seed 0 --format csv",
    "pit --delta-true 1 --sigma 2.5 --radius 2 --n 500 --format json",
    "pit --delta-true 4 --sigma 2.5 --radius 2 --n 500",
    f"{PIT} --workers 2 --format json",
    f"{SWEEP} --workers 3 --format csv",
    # config files: flag > config > default
    "analyze --config {tmp}/analyze.cfg --format csv",
    "analyze --config {tmp}/analyze.cfg --radius 2 --format json",
    "curve --config {tmp}/curve.cfg",
    "curve --config {tmp}/curve.cfg --format csv --output {tmp}/out",
    "sweep --config {tmp}/sweep.cfg --format json",
    "pit --config {tmp}/pit_bom.cfg --format json",
    # usage errors
    "analyze --norm 5 --radius 2",
    "curve --sigma 2.5",
    "pit --sigma 1 --radius 2",
    "analyze --norm 5 --y1 3 --y2 4 --sigma 2.5 --radius 2",
    "analyze --y1 3 --sigma 2.5 --radius 2",
    "analyze --norm abc --sigma 2.5 --radius 2",
    "sweep --n-reps 1.5",
    "pit --config {tmp}/repeated.cfg",
    "analyze --config {tmp}/unknown.cfg",
    "analyze --config {tmp}/malformed.cfg",
    "analyze --config {tmp}/cast.cfg",
    "analyze --config {tmp}/domain.cfg",
    "analyze --config {tmp}/yaml.cfg",
    "analyze --config {tmp}/absent.cfg",
    "analyze --config '' --norm 5 --sigma 2.5 --radius 2",
    "analyze --config {tmp}/not_utf8.cfg",
    f"analyze {REFERENCE} --output {{tmp}}",
    # domain errors, each printed under the flag that set the value
    f"analyze {REFERENCE} --norm -1",
    "analyze --y1 nan --y2 4 --sigma 2.5 --radius 2",
    "analyze --y1 3 --y2 inf --sigma 2.5 --radius 2",
    # a pair whose norm |y| overflows, though |y|/sigma would not; and one
    # whose norm stays finite
    "analyze --y1 1.7e308 --y2 1.7e308 --sigma 1e300 --radius 1",
    "analyze --y1 1e308 --y2 1e308 --sigma 1e300 --radius 1 --format json",
    f"analyze {REFERENCE} --sigma 0",
    f"analyze {REFERENCE} --radius -2",
    f"analyze {REFERENCE} --level 1",
    f"analyze {REFERENCE} --level 1.5",
    "sweep --n-reps 10 --delta-true -1",
    "sweep --n-reps 10 --threshold 0",
    "sweep --n-reps 10 --threshold 1.0",
    "sweep --n-reps 10 --seed -1",
    "sweep --n-reps 10 --workers 0",
    "sweep --n-reps 0",
    "sweep --n-reps 10 --radius 0",
    "sweep --n-reps 10 --sigma-grid 1,-2",
    "sweep --n-reps 10 --sigma-grid 0,1",
    "sweep --n-reps 10 --sigma-grid 2,1",
    "sweep --n-reps 10 --sigma-grid 0.5,.,2",
    "sweep --n-reps 10 --sigma-grid " + ",".join(map(str, range(1, 31))) + ",29",
    "sweep --n-reps 10 --sigma-grid 1,inf",
    f"{PIT} --n 99",
    f"{PIT} --delta-true nan",
    f"{PIT} --sigma -1",
    f"{PIT} --radius inf",
    f"{PIT} --seed -3",
    f"{PIT} --workers 0",
    "curve --norm -0.5 --sigma 2.5",
    "curve --norm 5 --sigma 0",
    # --grid: its lo:hi:n form, then what tabulate_curves refuses
    "curve --norm 5 --sigma 2.5 --grid 0:12",
    "curve --norm 5 --sigma 2.5 --grid a:b:c",
    "curve --norm 5 --sigma 2.5 --grid 0:12:2.5",
    "curve --norm 5 --sigma 1 --grid 5:1:10",
    "curve --norm 5 --sigma 1 --grid=-1:4:10",
    "curve --norm 5 --sigma 1 --grid 0:12:1",
    "curve --norm 5 --sigma 1 --grid 0:inf:3",
    "curve --norm 5 --sigma 1 --grid=-1e308:1e308:3",
    "curve --norm 5 --sigma 1 --grid 0:1:100000000000000000000",
    "curve --norm 5 --sigma 1 --grid 0:5e-324:3",
    "curve --norm 5 --sigma 1 --grid 0:1e-322:30",
    "curve --norm 5 --sigma 1 --grid 0:5e-324:30000",
    # counts no numpy array can hold
    f"{PIT} --n 100000000000000000000000",
    f"{PIT} --n 4611686018427387904",
    "sweep --n-reps 100000000000000000000000 --sigma-grid 1",
    # more than one bad input: which is reported first
    "sweep --workers 0 --n-reps 0",
    "analyze --norm abc --sigma 2.5 --radius 2 --config {tmp}/absent.cfg",
    "curve --norm -1 --sigma 1 --grid 5:1:10",
    "curve --norm 5 --sigma 1 --grid 5:1:10 --config {tmp}/xml.cfg",
    "sweep --n-reps 10 --sigma-grid 0.5,.,2 --config {tmp}/xml.cfg",
    "pit --delta-true 2 --sigma 1 --radius 2 --workers 0 --config {tmp}/xml.cfg",
    # squared ratios that leave float range, named by the flags that set them
    "analyze --norm 1e200 --sigma 1 --radius 1",
    "analyze --y1 1e200 --y2 0 --sigma 1 --radius 1",
    "analyze --norm 1 --sigma 1e-200 --radius 1",
    "analyze --norm 1 --sigma 1 --radius 1e300",
    "curve --norm 1e200 --sigma 1",
    "curve --norm 1 --sigma 1e-200 --grid 0:1:3",
    "curve --norm 1 --sigma 1 --grid 0:1e300:3",
    "pit --delta-true 0 --sigma 1e-160 --radius 2 --n 100",
    "sweep --delta-true 0 --radius 2 --sigma-grid 1e-160 --n-reps 10",
    "sweep --delta-true 2 --sigma-grid 1e-160 --n-reps 10",
    # huge sigma: |y|^2 and sigma^2 overflow, every ratio stays finite
    "sweep --sigma-grid 1e200 --n-reps 10 --format json",
    "sweep --sigma-grid 1,1e154 --n-reps 10 --format csv",
    "pit --delta-true 2 --sigma 1e200 --radius 2 --n 100 --format json",
    # a draw |y| past the largest float, though |y|/sigma stays near 1
    "pit --delta-true 1.7e308 --sigma 1.7e308 --radius 1.7e308 --n 100",
    "sweep --delta-true 1.7e308 --radius 1.7e308 --sigma-grid 1.7e308 --n-reps 10",
    # |y|/sigma past the square root of the largest float, in a sweep: names the grid entry
    "sweep --delta-true 1e200 --radius 1 --sigma-grid 1e-200 --n-reps 10",
    # roots anywhere in the float range, and the one beyond it (exit 1)
    "analyze --norm 1e-320 --sigma 1e-320 --radius 1e-320 --format json",
    "analyze --norm 3e-315 --sigma 3e-315 --radius 3e-315 --format json",
    "analyze --norm 5e-160 --sigma 2.5e-160 --radius 2e-160 --format csv",
    # the smallest sigma: B has no atom at 0, so no B quantile is flagged, and
    # each root is the nearest subnormal to d * sigma
    "analyze --norm 0 --sigma 5e-324 --radius 1e-323 --format csv",
    "analyze --norm 1e308 --sigma 1e307 --radius 1e308 --format json",
    "analyze --norm 1e154 --sigma 1 --radius 1e154 --format json",
    "analyze --norm 1.3407807929942596e154 --sigma 1 --radius 1 --format json",
    "sweep --delta-true 1.3e154 --radius 1e154 --sigma-grid 1 --n-reps 2 --format json",
    "analyze --norm 1.7e308 --sigma 1e307 --radius 1e307 --format json",
    # near-limit accuracy: G2 at noncentralities near 1359, where the series sums its most terms
    "analyze --norm 36.870482378617375 --sigma 1 --radius 30 --format json",
    "sweep --delta-true 36.8 --radius 35 --sigma-grid 1 --n-reps 200 --seed 2 --format json",
    # every u = 1.0, counted in the last bin
    "pit --delta-true 100 --sigma 1 --radius 2 --n 100",
    "pit --delta-true 100 --sigma 1 --radius 2 --n 100 --format json",
    # tails with no relative accuracy yet, at |y|/sigma, R/sigma from 5, 0.01 to 40, 30
    *(f"analyze --norm {norm} --sigma 1 --radius {radius} --format {fmt}"
      for norm, radius in (("5", "0.01"), ("10", "1"), ("10", "3"), ("20", "5"), ("40", "30"))
      for fmt in ("csv", "json")),
    "curve --norm 40 --sigma 1 --grid 30:50:9 --format json",
    "curve --norm 12.7 --sigma 1 --grid 0:40:41 --format csv",
    # every C element on the Rice rule, from delta = 0
    "curve --norm 100 --sigma 1 --grid 0:200:17 --format json",
    # the extreme level: (1 + level)/2 rounds to 1
    f"analyze {REFERENCE} --level 0.9999999999999999 --format csv",
    f"analyze {REFERENCE} --level 0.9999999999999999 --format json",
    f"analyze {REFERENCE} --level 0.99 --format json",
    # deep levels whose Bayes upper end needs B within 1e-14 of 1 (roots
    # 24.6040512375 and 25.7720530046)
    f"analyze {REFERENCE} --level 0.99999999999999 --format json",
    f"analyze {REFERENCE} --level 0.9999999999999998 --format json",
    # small sigma: many G2 arguments past the direct series
    "sweep --sigma-grid 0.01 --n-reps 200 --format json",
    "analyze --norm 150 --sigma 1 --radius 140 --format json",
    "curve --norm 1000 --sigma 1 --grid 990:1010:5 --format json",
]


def run(command: str, tmp: Path) -> dict[str, object]:
    """Run one corpus command in-process, CONFIGS already written to tmp."""
    argv = [arg.replace("{tmp}", str(tmp)) for arg in shlex.split(command)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse refused the line's syntax (an unknown flag, a flag without
            # its value, no command); its usage line wraps at the terminal
            # width, so only its error line is kept
            code = exc.code
            stderr = io.StringIO(stderr.getvalue().splitlines()[-1] + "\n")
    record = {"exit": code, "stdout": stdout.getvalue().split("\n"),
              "stderr": stderr.getvalue().replace(str(tmp), "{tmp}").split("\n")}
    if "--output" in argv:
        target = Path(argv[argv.index("--output") + 1])
        if target.is_file():
            record["file"] = target.read_text(encoding="utf-8").split("\n")
            target.unlink()
    return record


def write_configs(tmp: Path) -> None:
    for name, content in CONFIGS.items():
        (tmp / name).write_bytes(content if isinstance(content, bytes) else content.encode())


NON_FINITE = re.compile(r"(?<![a-z])(nan|inf|infinity)(?![a-z])", re.IGNORECASE)
ERROR_PREFIX = {1: "numerical failure: --", 2: "error: --"}


def faults(record: dict[str, object]) -> list[str]:
    """How a record breaks the rules that every command line keeps. Exit 0
    prints no nan or infinity to stdout or the --output file, and nothing
    to stderr. Exit 2, a refused input, and exit 1, a numerical failure,
    print nothing to stdout and one stderr line that starts with the flag at
    fault: "error: --" and "numerical failure: --"."""
    code, err = record["exit"], record["stderr"]
    if code == 0:
        bad = [f"{key} line {i}: {line}" for key in ("stdout", "file")
               for i, line in enumerate(record.get(key, ()), 1) if NON_FINITE.search(line)]
        return bad + ([] if err == [""] else [f"exit 0 with stderr {err}"])
    prefix = ERROR_PREFIX.get(code)
    if prefix is None or record["stdout"] != [""] or len(err) != 2 or not err[0].startswith(prefix):
        return [f"exit {code} with stdout {record['stdout'][:3]} and stderr {err}"]
    return []


# The fuzz grammar. Each line draws one scale, 1e-290 to 1e280. Lengths
# (|y|, a radius, a distance, a grid end) lie 1e-8 to 1e12 times it and
# noise scales within a factor of 10 of it. A drawn flag takes hostile text
# instead of a valid value with probability HOSTILE. Valid counts stay
# small, so that every line runs in milliseconds.
HOSTILE = 0.08
FLOATS = ("nan", "inf", "-inf", "-0", "0", "5e-324", "1e-310", "1e308", "1.7976931348623157e308",
          "-1e308", "1e999", "-1", "abc", "", "1e", "0x1p3")
COUNTS = ("0", "-1", "1.5", "abc", "", "1e3", str(MAX_ROWS + 1), "100000000000000000000000")


def _length(rng: random.Random, scale: float) -> str:
    return repr(scale * 10.0 ** rng.uniform(-8.0, 12.0))


def _sigma(rng: random.Random, scale: float) -> str:
    return repr(scale * 10.0 ** rng.uniform(-1.0, 1.0))


def _grid(rng: random.Random, scale: float) -> str:
    lo, hi = sorted(float(_length(rng, scale)) for _ in range(2))
    return f"{rng.choice((0.0, lo))!r}:{hi!r}:{rng.randint(2, 500)}"


def _sigma_grid(rng: random.Random, scale: float) -> str:
    return ",".join(sorted({_sigma(rng, scale) for _ in range(rng.randint(1, 4))}, key=float))


def _pick(*values: str):
    return lambda rng, scale: rng.choice(values)


LENGTH = (_length, FLOATS, 0.95)
SIGNED = (lambda rng, scale: rng.choice(("", "-")) + _length(rng, scale), FLOATS, 0.3)
SIGMA = (_sigma, FLOATS, 0.95)
UNIT = (lambda rng, scale: rng.choice((repr(rng.random()), "0.5", "0.99999999999999",
                                       "0.9999999999999999", "5e-324")),
        ("0", "1", "1.5", "-0.5", "nan", "inf", "abc"), 0.5)
SEED = (lambda rng, scale: str(rng.choice((0, 1, rng.getrandbits(32), 2 ** 64, 10 ** 30))),
        COUNTS, 0.5)
WORKERS = (lambda rng, scale: str(rng.randint(1, 3)), COUNTS, 0.3)
FORMAT = (_pick("text", "csv", "json"), ("yaml", "", "JSON"), 0.85)
OUTPUT = (_pick("{tmp}/out", "-"), ("{tmp}", "{tmp}/absent/out"), 0.3)
CONFIG = (_pick(*(f"{{tmp}}/{name}" for name in CONFIGS)), ("{tmp}/absent.cfg",), 0.1)

# command -> {flag: (valid value, hostile values, share of lines that pass it)}
GRAMMAR = {
    "analyze": {"--norm": (_length, FLOATS, 0.7),
                "--y1": SIGNED, "--y2": SIGNED, "--sigma": SIGMA, "--radius": LENGTH,
                "--level": UNIT, "--format": FORMAT, "--output": OUTPUT},
    "curve": {"--norm": LENGTH, "--sigma": SIGMA, "--grid": (_grid, (
        "0:12", "a:b:c", "5:1:10", "-1:4:10", "0:inf:3", "0:1:1", "0:1:2.5", "nan:1:3",
        "0:5e-324:30", "-1e308:1e308:3", f"0:1:{MAX_ROWS + 1}"), 0.7),
              "--format": FORMAT, "--output": OUTPUT},
    "sweep": {"--delta-true": LENGTH, "--radius": LENGTH, "--sigma-grid": (_sigma_grid, (
        "1,-2", "2,1", "0,1", "1,,2", ".", "1,inf", "nan", ""), 0.85),
              # always drawn: the default is 100,000 replicates per noise scale
              "--n-reps": (lambda rng, scale: str(rng.randint(1, 6000)), COUNTS, 1.0),
              "--seed": SEED, "--threshold": UNIT, "--workers": WORKERS,
              "--format": FORMAT, "--output": OUTPUT},
    "pit": {"--delta-true": LENGTH, "--sigma": SIGMA, "--radius": LENGTH,
            "--n": (lambda rng, scale: str(rng.randint(100, 6000)), (*COUNTS, "99"), 1.0),
            "--seed": SEED, "--workers": WORKERS, "--format": FORMAT, "--output": OUTPUT},
}


def _argv(flag: str, value: str) -> list[str]:
    # argparse reads "-1e-05" as a flag of its own unless it is joined
    return [f"{flag}={value}"] if value.startswith("-") and value != "-" else [flag, value]


def fuzz_command(rng: random.Random) -> str:
    """One command line drawn from GRAMMAR, with {tmp} for the scratch directory."""
    command = rng.choice(sorted(GRAMMAR))
    scale = 10.0 ** rng.uniform(-290.0, 280.0)
    argv = [command]
    for flag, (draw, hostile, share) in {**GRAMMAR[command], "--config": CONFIG}.items():
        if rng.random() < share:
            argv += _argv(flag, rng.choice(hostile) if rng.random() < HOSTILE else draw(rng, scale))
    return shlex.join(argv)


# a valid line per command; one flag set again at its end takes its last value
VALID = {"analyze": f"analyze {REFERENCE}", "curve": CURVE, "sweep": SWEEP, "pit": PIT,
         "pair": "analyze --y1 3 --y2 4 --sigma 2.5 --radius 2"}


def hostile_commands() -> list[str]:
    """Each hostile value of each flag in GRAMMAR, alone on a valid line of
    its command, so that no other fault is reported before it."""
    return [shlex.join([*shlex.split(VALID["pair" if flag in ("--y1", "--y2") else command]),
                        *_argv(flag, value)])
            for command, flags in GRAMMAR.items()
            for flag, (_, hostile, _) in {**flags, "--config": CONFIG}.items()
            for value in hostile]
