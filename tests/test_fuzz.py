"""Any command line returns or refuses. Command lines come from
cli_corpus.GRAMMAR, over every command and flag: a seeded draw at scales
from 1e-290 to 1e280 with hostile values mixed in, and each hostile value
alone on a valid line. Each must keep cli_corpus.faults' rules, with no
traceback and no RuntimeWarning, and every vector G2 call on the way gets
the finite, nonnegative ratios that _cdf_grid leaves its callers to check."""

from __future__ import annotations

import random
import traceback
import warnings
from collections import Counter

import numpy as np
import pytest

from cli_corpus import GRAMMAR, faults, fuzz_command, hostile_commands, run, write_configs
from confdist import calibration, inference
from confdist.cli import COMMANDS

SEED = 16
LINES = 400


@pytest.fixture
def scratch(tmp_path):
    write_configs(tmp_path)
    return tmp_path


@pytest.fixture
def vector_g2_shapes(monkeypatch):
    """The result shape of each vector G2 call its test makes, through a spy
    on both callers' _cdf_grid that fails on a negative, nan or infinite ratio."""
    shapes = []

    def spy(cdf_grid):
        def checked(x, nu):
            for arg in (x, nu):
                arg = np.asarray(arg, dtype=float)
                assert np.isfinite(arg).all() and (arg.size == 0 or arg.min() >= 0.0), arg
            shapes.append(np.broadcast_shapes(np.shape(x), np.shape(nu)))
            return cdf_grid(x, nu)
        return checked

    for module in (calibration, inference):
        monkeypatch.setattr(module, "_cdf_grid", spy(module._cdf_grid))
    return shapes


def broken(commands: list[str], tmp) -> tuple[dict[str, object], Counter]:
    """The commands that break a rule, with what they broke, and the count
    of each (command, exit code)."""
    bad, exits = {}, Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for command in commands:
            try:
                record = run(command, tmp)
            except Exception:  # a traceback, or a RuntimeWarning raised as one
                bad[command] = traceback.format_exc(limit=-3)
                continue
            exits[command.split()[0], record["exit"]] += 1
            if faults(record):
                bad[command] = faults(record)
    return bad, exits


def test_grammar_draws_every_flag():
    assert {name: set(flags) for name, flags in GRAMMAR.items()} == {
        name: {p.flag for p in params} for name, (_, _, params) in COMMANDS.items()}


def test_drawn_command_lines_keep_the_rules(scratch, vector_g2_shapes):
    rng = random.Random(SEED)
    bad, exits = broken([fuzz_command(rng) for _ in range(LINES)], scratch)
    assert bad == {}
    # the draw both runs and refuses every command, many times over
    assert min(exits[name, code] for name in GRAMMAR for code in (0, 2)) >= 10, exits
    assert len(vector_g2_shapes) >= 100


def test_each_hostile_value_keeps_the_rules(scratch, vector_g2_shapes):
    assert broken(hostile_commands(), scratch)[0] == {}
    assert vector_g2_shapes
