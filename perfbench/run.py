"""confdist benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload high_snr --seed 1 --seconds 46 --trace 0

With --trace 0 every op is one `python -m confdist ...` call in a fresh
interpreter, timed from spawn to exit, run closed loop with one client
until --seconds have passed. Every timing is scaled by a reference
process timed next to it, to take out the drift of the machine's speed
(see REFERENCE below). The end-to-end metrics are:

    setup_s         median wall time of `python -c "import confdist"`
    latency_p50_s   median op latency
    latency_tail_s  highest op-latency percentile with ten samples beyond it
    ops_per_s       ops completed per second of op time
    peak_rss_mb     largest max-RSS of any op process

With --trace 1 the same op stream runs in-process through
`confdist.cli.main` with spans around each layer boundary (see
tracing.py), and the per-layer metrics are printed instead.

Every op's output is checked (checks.py). The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the lines before it are
a human-readable table. The program is taken from ./src of the current
directory; without it the run exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import checks
import workloads
from procs import SRC, child_env, run_python

# a correct op of any workload finishes in under 7 s on a 2-core machine
OP_DEADLINE_S = 20.0
SETUP_REPS = 5
# deep oracle checks per command (analyze, curve) per run
DEEP_PER_COMMAND = 1

# The benchmark runs on a VM that shares its host, and the speed of every
# process on it moves by up to a third, both from second to second and
# over minutes: enough to move the median of a whole run by as much. So
# the run also times a fixed reference process next to every timed
# child, and reports each child's time scaled by REFERENCE_NOMINAL_S over
# the time of its reference. The reference loads the libraries confdist
# is built on, so that it slows down as the ops do, but never confdist
# itself (isolated mode: no PYTHONPATH, no ./src), so nothing a change to
# the program does moves it. Timings are in seconds at the machine speed
# at which the reference takes REFERENCE_NOMINAL_S, about this VM's own.
# A reference serves the two ops next to it: ops 2k and 2k + 1 of the
# loop run right before and right after reference k.
REFERENCE = ["-I", "-c", "import numpy, scipy.integrate"]
REFERENCE_NOMINAL_S = 0.9


def time_reference(env: dict[str, str]) -> float:
    run = run_python(REFERENCE, env, OP_DEADLINE_S)
    if run.returncode != 0:
        sys.exit(f"reference run failed:\n{run.stderr}")
    return run.seconds


def time_setup(env: dict[str, str]) -> list[float]:
    """`import confdist` times, each scaled by a reference run just
    before it."""
    times = []
    for _ in range(SETUP_REPS):
        reference = time_reference(env)
        run = run_python(["-c", "import confdist"], env, OP_DEADLINE_S)
        if run.returncode != 0:
            sys.exit(f"import confdist failed:\n{run.stderr}")
        times.append(run.seconds * REFERENCE_NOMINAL_S / reference)
    return times


def closed_loop(ops, seconds: float, env: dict[str, str], deadline: float = OP_DEADLINE_S):
    """Run ops one after another, and a reference after every other op,
    until `seconds` have passed; returns the (op, OpRun, reference
    seconds) triples and the wall time of the loop."""
    runs = []
    start = time.perf_counter()
    for op in ops:
        if runs and time.perf_counter() - start >= seconds:
            break
        run = run_python(["-m", "confdist", *op.argv], env, deadline)
        if len(runs) % 2 == 0:
            reference = time_reference(env)
        runs.append((op, run, reference))
    return runs, time.perf_counter() - start


def verify(ops: list, outputs: list[str], codes: list[int | None]) -> list[str | None]:
    """Per op: None if it succeeded, else why it failed. The first json
    analyze and curve ops get the mpmath oracle check."""
    deep_left = {"analyze": DEEP_PER_COMMAND, "curve": DEEP_PER_COMMAND}
    verdicts = []
    for op, out, code in zip(ops, outputs, codes):
        if code is None:
            verdicts.append("missed its deadline")
            continue
        if code != 0:
            verdicts.append(f"exit code {code}")
            continue
        deep = op.fmt == "json" and deep_left.get(op.command, 0) > 0
        if deep:
            deep_left[op.command] -= 1
        try:
            checks.check_op(op, out, deep=deep)
            if op.twin is not None and out != outputs[op.twin]:
                raise checks.CheckError(f"output differs from op {op.twin} (other --workers)")
        except checks.CheckError as exc:
            verdicts.append(str(exc))
            continue
        verdicts.append(None)
    return verdicts


def latency_tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    still has ten samples above it, or the maximum for ten or fewer."""
    xs = sorted(latencies)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def end_to_end(workload: str, seed: int, seconds: float):
    """Returns (metrics, ops, verdicts, notes)."""
    env = child_env()
    setup = time_setup(env)
    runs, wall = closed_loop(workloads.WORKLOADS[workload](seed), seconds, env)
    ops = [op for op, _, _ in runs]
    verdicts = verify(ops, [r.stdout for _, r, _ in runs], [r.returncode for _, r, _ in runs])
    latencies = [r.seconds * REFERENCE_NOMINAL_S / ref for _, r, ref in runs]
    busy = sum(latencies)
    tail, pct, beyond = latency_tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "ops_per_s": (len(runs) / busy, "1/s"),
        "peak_rss_mb": (max(r.max_rss_mb for _, r, _ in runs), "MB"),
    }
    notes = [
        f"workload {workload}, seed {seed}: {len(runs)} ops and {(len(runs) + 1) // 2} "
        f"reference runs in {wall:.2f} s",
        f"latency_tail_s is p{pct:.1f} of {len(runs)} samples, {beyond} beyond it",
        f"timings are scaled to a {REFERENCE_NOMINAL_S} s reference; unscaled medians: op "
        f"{statistics.median(r.seconds for _, r, _ in runs):.4f} s, reference "
        f"{statistics.median(ref for _, _, ref in runs[::2]):.4f} s",
    ]
    reps = sum(op.replicates for op in ops)
    if reps:
        notes.append(f"replicates_per_s {reps / busy:.6g} 1/s ({reps} replicates over "
                     f"{busy:.2f} s of scaled op time)")
    return metrics, ops, verdicts, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "confdist" / "__init__.py").is_file():
        print(f"no confdist sources under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        import tracing
        metrics, ops, verdicts, notes = tracing.traced_run(
            args.workload, args.seed, args.seconds, child_env(), verify)
    else:
        metrics, ops, verdicts, notes = end_to_end(args.workload, args.seed, args.seconds)

    failed = sum(v is not None for v in verdicts)
    for note in notes:
        print(note)
    print(f"{failed} of {len(ops)} ops failed (failed_share {failed / len(ops):.4g})")
    for i, (op, verdict) in enumerate(zip(ops, verdicts)):
        if verdict is not None:
            print(f"FAILED op {i}: {' '.join(op.argv)}: {verdict}")
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
