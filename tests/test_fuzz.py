"""Any command line returns or refuses. Command lines come from
cli_corpus.GRAMMAR, over every command and flag: a seeded draw at scales
from 1e-290 to 1e280 with hostile values mixed in, and each hostile value
alone on a valid line. Each must keep cli_corpus.faults' rules, with no
traceback and no RuntimeWarning."""

from __future__ import annotations

import random
import traceback
import warnings
from collections import Counter

import pytest

from cli_corpus import GRAMMAR, faults, fuzz_command, hostile_commands, run, write_configs
from confdist.cli import COMMANDS

SEED = 16
LINES = 400


@pytest.fixture
def scratch(tmp_path):
    write_configs(tmp_path)
    return tmp_path


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


def test_drawn_command_lines_keep_the_rules(scratch):
    rng = random.Random(SEED)
    bad, exits = broken([fuzz_command(rng) for _ in range(LINES)], scratch)
    assert bad == {}
    # the draw both runs and refuses every command, many times over
    assert min(exits[name, code] for name in GRAMMAR for code in (0, 2)) >= 10, exits


def test_each_hostile_value_keeps_the_rules(scratch):
    assert broken(hostile_commands(), scratch)[0] == {}
