"""Write tests/golden/cli.json from the CLI corpus, or list what moved.

    python tests/golden/regen.py           run the corpus, rewrite cli.json
    python tests/golden/regen.py --exact   run the corpus, compare its bytes
                                           with cli.json, print every moved
                                           token and each added record; exit
                                           1 if a record moved (an added one
                                           is not a move)

Runs the source tree it sits in (src/ goes first on sys.path), with a
numpy RuntimeWarning raised as an error, as the tests run.
"""

from __future__ import annotations

import argparse
import difflib
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "cli.json"
TESTS = GOLDEN.parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from cli_corpus import CORPUS, run, write_configs  # noqa: E402


def record_corpus() -> dict[str, dict]:
    warnings.simplefilter("error", RuntimeWarning)
    with tempfile.TemporaryDirectory() as tmp:
        write_configs(Path(tmp))
        return {command: run(command, Path(tmp)) for command in CORPUS}


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def moved_tokens(old: list[str], new: list[str]) -> list[str]:
    """Each number that moved between two line lists, with its difference;
    a line that moved otherwise is shown whole, and a unified diff is
    shown where the lines do not pair up."""
    if len(old) != len(new):
        return list(difflib.unified_diff(old, new, "old", "new", lineterm="", n=0))
    moved = []
    for i, (a, b) in enumerate(zip(old, new), 1):
        if a == b:
            continue
        tokens = re.split(r"[\s,]+", a), re.split(r"[\s,]+", b)
        pairs = [(x, y) for x, y in zip(*tokens) if x != y]
        numbers = [(_number(x), _number(y)) for x, y in pairs]
        if len(tokens[0]) == len(tokens[1]) and all(None not in pair for pair in numbers):
            moved += [f"line {i}: {x} -> {y} ({v - u:+.3g})"
                      for (x, y), (u, v) in zip(pairs, numbers)]
        else:
            moved += [f"line {i}: - {a}", f"line {i}: + {b}"]
    return moved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exact", action="store_true",
                        help="compare with cli.json instead of rewriting it")
    args = parser.parse_args()
    records = record_corpus()
    if not args.exact:
        GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                          encoding="utf-8")
        print(f"wrote {len(records)} records to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    moved = added = 0
    for command in [*records, *(c for c in golden if c not in records)]:
        old, new = golden.get(command), records.get(command)
        if old == new:
            continue
        print(command)
        if old is None:
            added += 1
            first = new["stderr"][0]
            print(f"  added: exit {new['exit']}" + (f", {first}" if first else ""))
            continue
        moved += 1
        if new is None:
            print("  only in cli.json")
            continue
        for key in ("exit", "stdout", "stderr", "file"):
            a, b = old.get(key), new.get(key)
            if a == b:
                continue
            if key == "exit" or a is None or b is None:
                print(f"  {key}: {a!r} -> {b!r}")
                continue
            for line in moved_tokens(a, b):
                print(f"  {key} {line}")
    print(f"{moved} moved, {added} added")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
