"""Replay the CLI corpus (tests/cli_corpus.py) against tests/golden/cli.json.

Exit codes, stderr and every non-numeric stdout token must match exactly.
A number must match within the contract of its field, so that another
numpy or platform may move it only as far as the program promises; a
token printed with fewer digits than that must match as printed. After
an intended change of output, `python tests/golden/regen.py --exact`
lists what moved and `python tests/golden/regen.py` rewrites the file.
Every record, recorded and replayed, also keeps the rules of
cli_corpus.faults, so that a rewrite cannot record a nan or a stray error
line as expected.

Tier-1 runs this file against src/; CI runs it again from outside the
checkout, against the installed package.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from cli_corpus import CORPUS, faults, run, write_configs

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8"))

# absolute tolerance of each field by its contract: G2 holds 1e-12, so B, C,
# their complement and the closed-form means do, and |1 - 2 C| twice that; a
# frequency read at a root of z moves with the root's 1e-10 times a density
# of z below 1/2, plus G2's 1e-12
ABSOLUTE = {
    **dict.fromkeys(("B", "C", "b_radius", "c_radius", "pvalue",
                     "mean_bayes_exact", "mean_cd_exact"), 1e-12),
    **dict.fromkeys(("cc", "cred"), 2e-12),
    **dict.fromkeys(("freq_bayes_exact", "freq_cd_exact"), 1e-10),
}
ROOTS = ("median_cd", "median_bayes", "cd_lo", "cd_hi", "bayes_lo", "bayes_hi")
MONTE_CARLO = ("mean_bayes", "mean_cd", "freq_bayes", "freq_cd",
               "stderr_mean_bayes", "stderr_mean_cd", "ks_stat", "mean_u")


def tolerance(field: str, record: dict) -> float:
    """How far a field may move; 0 for inputs and counts."""
    if field in ROOTS:  # the roots' contract, relative below scale 1
        return 1e-10 * min(1.0, float(record["norm"]) + float(record["sigma"]))
    if field in MONTE_CARLO:
        # summaries of probabilities: another numpy may round a vector exp
        # or order a sum differently, by a few ulps of 1
        return 4 * math.ulp(1.0)
    return ABSOLUTE.get(field, 0.0)


def same_number(field: str, old: str | float, new: str | float, record: dict,
                digits: int | None) -> bool:
    """Whether new matches old within field's tolerance. A token printed to
    digits significant digits matches as printed unless its last digit is
    finer than the tolerance; then each side's rounding adds half a digit."""
    if old == new:
        return True
    try:
        a, b = float(old), float(new)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    tol = tolerance(field, record)
    if digits is not None and a != 0.0:
        step = 10.0 ** (math.floor(math.log10(abs(a))) - digits + 1)
        if step > tol:
            return False
        tol += step
    return abs(b - a) <= tol


def json_mismatches(old, new) -> list[str]:
    if list(old) != list(new):
        return [f"keys {list(old)} -> {list(new)}"]
    bad = []
    for key, a in old.items():
        b = new[key]
        if isinstance(a, list):
            if len(a) != len(b):
                bad.append(f"{key}: {len(a)} rows -> {len(b)}")
                continue
            for i, (x, y) in enumerate(zip(a, b)):
                bad += [f"{key}[{i}].{m}" for m in json_mismatches(x, y)]
        elif type(a) is not type(b) or not (
                a == b or isinstance(a, float) and same_number(key, a, b, old, None)):
            bad.append(f"{key}: {a!r} -> {b!r}")
    return bad


def table_mismatches(old: list[str], new: list[str]) -> list[str]:
    """A csv or text table, or a record as a one-row table, by column."""
    csv = "," in old[0]
    split = (lambda line: line.split(",")) if csv else str.split
    if len(old) != len(new) or old[0] != new[0]:
        return [f"{len(old)} lines headed {old[0]!r} -> {len(new)} headed {new[0]!r}"]
    header, bad = split(old[0]), []
    for i, (a, b) in enumerate(zip(old[1:], new[1:]), 2):
        cells = list(zip(header, split(a), split(b)))
        record = {field: x for field, x, _ in cells}
        if len(split(a)) != len(split(b)) or not all(
                same_number(field, x, y, record, 10 if csv else 6) for field, x, y in cells):
            bad.append(f"line {i}: {a!r} -> {b!r}")
    return bad


def output_mismatches(old: list[str], new: list[str]) -> list[str]:
    if old == new:
        return []
    text = "\n".join(old)
    if text.startswith("{"):
        return json_mismatches(json.loads(text), json.loads("\n".join(new)))
    if old[0] and not any(c.isdigit() for c in old[0]):
        return table_mismatches(old, new)
    # prose prints three decimals or six significant digits, coarser than
    # any contract, so it matches as printed
    return ["prose differs"]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    write_configs(tmp)
    return tmp


def test_every_command_has_one_record():
    assert len(set(CORPUS)) == len(CORPUS)
    assert list(GOLDEN) == CORPUS


def test_every_record_keeps_the_rules():
    assert {command: faults(record) for command, record in GOLDEN.items()
            if faults(record)} == {}


@pytest.mark.parametrize("command", CORPUS)
def test_replay(scratch, command):
    old, new = GOLDEN[command], run(command, scratch)
    assert faults(new) == []
    assert (new["exit"], new["stderr"]) == (old["exit"], old["stderr"])
    assert ("file" in new) == ("file" in old)
    for key in ("stdout", "file"):
        if key in old:
            assert output_mismatches(old[key], new[key]) == [], key
