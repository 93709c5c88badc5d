"""Traced in-process run: per-layer metrics of confdist.

The workload's op stream runs through `confdist.cli.main` in this
process. Each op runs twice, alternately: once plain and once with the
tracer installed; the two outputs must match, and the ratio of their
wall times is the tracing overhead. A fixed set of probe ops follows, so
that every layer metric exists on every workload.

The tracer replaces, for the duration of one call, the names each
module imports from the layer below (`confdist.cli.median`,
`confdist.inference.invert_monotone`, `confdist.calibration.exact_row`,
...) with wrappers that record a span: name, start, end, parent span
and op id. Spans stay in memory and are written to
`.bench_out/trace-<workload>-<seed>.json` when the run ends. The scalar
G2 (`noncentral_chisq2_cdf`) is called up to thousands of times per op,
so it gets a counter and a time sum per op and regime instead of a span;
its time still counts as child time of the enclosing span. Self time is
span time minus the time of its children. A name that a later version
of confdist no longer has is skipped, and the metrics built on it are
left out of the result.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

import workloads
from procs import ROOT, SRC, run_python

IMPORT_REPS = 3
# count metrics are taken over this many leading ops, so that they repeat
# exactly for a given seed whatever the machine speed
COUNT_OPS = 6
# max(x, nu) above this leaves G2's direct series for the pivoted one
G2_DIRECT_LIMIT = 1400.0


def _reps(args, kwargs):
    config = args[2]
    return {"reps": config.n_reps * len(config.sigma_grid),
            "workers": kwargs.get("workers", args[3] if len(args) > 3 else 1)}


# (module, name, attributes recorded from the call's arguments)
SPANS = [
    ("confdist.cli", "bayes_cdf", None),
    ("confdist.cli", "collision_confidence", None),
    ("confdist.cli", "noncollision_pvalue", None),
    ("confdist.cli", "median", None),
    ("confdist.cli", "level_interval", None),
    ("confdist.cli", "tabulate_curves", lambda a, k: {"points": len(a[1])}),
    ("confdist.cli", "run_sweep", _reps),
    ("confdist.cli", "pit_sample", lambda a, k: {"reps": a[1]}),
    ("confdist.calibration", "exact_row", None),
]
BISECTIONS = [("confdist.inference", "invert_monotone"),
              ("confdist.calibration", "invert_monotone")]
G2_CALLERS = ["confdist.inference", "confdist.calibration"]


class Tracer:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent, op, child_ns, attrs]
        self.spans: list[list] = []
        # (op, key) -> [calls, ns]
        self.counts: dict[tuple, list[int]] = defaultdict(lambda: [0, 0])
        self.op = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, attrs=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [name, 0, 0, stack[-1] if stack else None, self.op, 0,
                   attrs(args, kwargs) if attrs else None]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
                if rec[3] is not None:
                    self.spans[rec[3]][5] += rec[2] - rec[1]
        return wrapper

    def g2(self, fn):
        def wrapper(x, nu):
            start = time.perf_counter_ns()
            try:
                return fn(x, nu)
            finally:
                elapsed = time.perf_counter_ns() - start
                key = "g2_large" if max(x, nu) > G2_DIRECT_LIMIT else "g2_small"
                count = self.counts[(self.op, key)]
                count[0] += 1
                count[1] += elapsed
                stack = self._stack()
                if stack:
                    self.spans[stack[-1]][5] += elapsed
        return wrapper

    def bisection(self, name: str, fn):
        def counted(f):
            def evaluate(x):
                self.counts[(self.op, "bisect_eval")][0] += 1
                return f(x)
            return evaluate
        traced = self.span(name, fn)
        return lambda f, *args, **kwargs: traced(counted(f), *args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        patches = []
        for module, name, attrs in SPANS:
            patches.append((module, name, lambda fn, n=f"{module}.{name}", a=attrs:
                            self.span(n, fn, a)))
        for module, name in BISECTIONS:
            patches.append((module, name, lambda fn, n=f"{module}.{name}": self.bisection(n, fn)))
        for module in G2_CALLERS:
            patches.append((module, "noncentral_chisq2_cdf", self.g2))
        saved = []
        try:
            for module, name, make in patches:
                mod = importlib.import_module(module)
                if hasattr(mod, name):
                    saved.append((mod, name, getattr(mod, name)))
                    setattr(mod, name, make(getattr(mod, name)))
            yield
        finally:
            for mod, name, original in reversed(saved):
                setattr(mod, name, original)


def call_cli(main, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def import_times(env) -> dict[str, float]:
    """Median cumulative import time (s) of confdist and scipy.integrate,
    from `python -X importtime -c "import confdist"`."""
    samples = defaultdict(list)
    for _ in range(IMPORT_REPS):
        run = run_python(["-X", "importtime", "-c", "import confdist"], env, 60.0)
        for line in run.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("confdist", "scipy.integrate"):
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {name: statistics.median(values) for name, values in samples.items()}


def layer_metrics(tracer: Tracer, imports: dict, overhead: float) -> dict:
    spans = tracer.spans
    metrics = {}

    def put(name, value, unit):
        if value is not None:
            metrics[name] = (value, unit)

    def mean_ms(name):
        durations = [s[2] - s[1] for s in spans if s[0] == name]
        return sum(durations) / len(durations) / 1e6 if durations else None

    def per(total_ns, amount, scale):
        return total_ns / amount / scale if amount else None

    put("import.confdist_s", imports.get("confdist"), "s")
    put("import.scipy_integrate_s", imports.get("scipy.integrate"), "s")
    mains = [s for s in spans if s[0] == "confdist.cli.main"]
    put("cli.main_self_ms",
        statistics.median((s[2] - s[1] - s[5]) / 1e6 for s in mains) if mains else None, "ms")
    put("inference.median_ms", mean_ms("confdist.cli.median"), "ms")
    put("inference.level_interval_ms", mean_ms("confdist.cli.level_interval"), "ms")
    tabulate = [s for s in spans if s[0] == "confdist.cli.tabulate_curves"]
    put("inference.tabulate_us_per_point",
        per(sum(s[2] - s[1] for s in tabulate), sum(s[6]["points"] for s in tabulate), 1e3),
        "us")

    counted = defaultdict(int)
    totals = defaultdict(lambda: [0, 0])
    for (op, key), (calls, ns) in tracer.counts.items():
        if isinstance(op, int) and op < COUNT_OPS:
            counted[key] += calls
        totals[key][0] += calls
        totals[key][1] += ns
    if "g2_small" in totals or "g2_large" in totals:
        put("specfun.g2_calls_per_op",
            (counted["g2_small"] + counted["g2_large"]) / COUNT_OPS, "count")
    if "bisect_eval" in totals:
        put("specfun.bisect_evals_per_op", counted["bisect_eval"] / COUNT_OPS, "count")
    for regime in ("small", "large"):
        calls, ns = totals.get(f"g2_{regime}", (0, 0))
        put(f"specfun.g2_us_{regime}_nu", per(ns, calls, 1e3), "us")

    sweeps = [(i, s) for i, s in enumerate(spans) if s[0] == "confdist.cli.run_sweep"]
    exact_in = defaultdict(int)
    for s in spans:
        if s[0] == "confdist.calibration.exact_row" and s[3] is not None:
            exact_in[s[3]] += s[2] - s[1]
    put("calibration.run_sweep_self_us_per_rep",
        per(sum(s[2] - s[1] - exact_in[i] for i, s in sweeps),
            sum(s[6]["reps"] for _, s in sweeps), 1e3), "us")
    pits = [s for s in spans if s[0] == "confdist.cli.pit_sample"]
    put("calibration.pit_us_per_rep",
        per(sum(s[2] - s[1] for s in pits), sum(s[6]["reps"] for s in pits), 1e3), "us")
    put("calibration.exact_row_ms", mean_ms("confdist.calibration.exact_row"), "ms")
    by_workers = {w: [sum(s[2] - s[1] for _, s in sweeps if s[6]["workers"] == w),
                      sum(s[6]["reps"] for _, s in sweeps if s[6]["workers"] == w)]
                  for w in (1, 2)}
    if all(ns and reps for ns, reps in by_workers.values()):
        put("calibration.workers2_speedup",
            per(*by_workers[1], 1.0) / per(*by_workers[2], 1.0), "ratio")
    put("trace.overhead_share", overhead, "ratio")
    return metrics


def write_trace(path, tracer: Tracer, metrics: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    payload = {
        "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "self_ns", "attrs"],
        "spans": [[n, a, b, p, op, b - a - child, attrs]
                  for n, a, b, p, op, child, attrs in tracer.spans],
        "counts": [[op, key, calls, ns] for (op, key), (calls, ns) in tracer.counts.items()],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    path.write_text(json.dumps(payload))


def traced_run(workload: str, seed: int, seconds: float, env, verify):
    """Returns (metrics, ops, verdicts, notes) like run.end_to_end."""
    sys.path.insert(0, str(SRC))
    import confdist.cli

    imports = import_times(env)
    tracer = Tracer()
    traced_main = tracer.span("confdist.cli.main", confdist.cli.main)
    ops, outputs, codes = [], [], []
    plain_ns = traced_ns = 0
    mismatched = []
    stream = workloads.WORKLOADS[workload](seed)
    start = time.perf_counter()
    while len(ops) < COUNT_OPS or time.perf_counter() - start < seconds:
        op = next(stream)
        t0 = time.perf_counter_ns()
        plain = call_cli(confdist.cli.main, op.argv)
        t1 = time.perf_counter_ns()
        tracer.op = len(ops)
        with tracer.installed():
            t2 = time.perf_counter_ns()
            code, out = call_cli(traced_main, op.argv)
            t3 = time.perf_counter_ns()
        plain_ns += t1 - t0
        traced_ns += t3 - t2
        if (code, out) != plain:
            mismatched.append(len(ops))
        ops.append(op)
        outputs.append(out)
        codes.append(code)
    measured = len(ops)
    for i, op in enumerate(workloads.probes()):
        tracer.op = f"probe-{i}"
        with tracer.installed():
            code, out = call_cli(traced_main, op.argv)
        ops.append(op)
        outputs.append(out)
        codes.append(code)
    tracer.op = None

    verdicts = verify(ops, outputs, codes)
    for i in mismatched:
        verdicts[i] = verdicts[i] or "traced output differs from the plain run"
    metrics = layer_metrics(tracer, imports, traced_ns / plain_ns - 1.0)
    trace_path = ROOT / ".bench_out" / f"trace-{workload}-{seed}.json"
    write_trace(trace_path, tracer, metrics)
    notes = [f"workload {workload}, seed {seed}, traced in-process: {measured} ops plus "
             f"{len(ops) - measured} probes; spans in {trace_path}"]
    return metrics, ops, verdicts, notes
