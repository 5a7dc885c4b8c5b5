"""ctxsim benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload compiled --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics
with tracing off; with ``--trace 1`` it measures the per-layer metrics
from spans recorded around the calls into each layer, plus the tracing
overhead.  Every run checks the program's outputs.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record (environment, checks, digests, every
figure), which is also written to ``bench/out/``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

# Single-client runs: keep the BLAS pool at one thread unless the caller
# chose otherwise.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
REPORT_CALLS = 9
WORKLOAD_NAMES = ("compiled", "poq", "circuit", "exact")

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_us": "us", "op_tail_us": "us",
                    "setup_s": "s", "peak_rss_mb": "MB", "report_s": "s"}


def _import_package():
    if not (ROOT / "src" / "ctxsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ctxsim sources under {ROOT / 'src'}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


def build_workload(name: str, seed: int):
    """Import the package, build the workload and warm it up."""
    import workloads
    workload = workloads.WORKLOADS[name](seed, OUT)
    workload.warm_up()
    return workload


def setup_probe(name: str, seed: int) -> float:
    """Cold set-up in this process: imports, construction, warm-up ops."""
    t0 = time.perf_counter()
    build_workload(name, seed)
    return time.perf_counter() - t0


def probe_setups(name: str, seed: int) -> list:
    """Set-up times of SETUP_PROBES fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Loop:
    """Closed loop over a workload's cycle of ops, one block at a time.

    One client: the next op starts when the previous one returns.  Every
    op's latency is kept, and the values of the workload's prefix; later
    values are checked as they come and dropped, so memory does not grow
    with run length.  An op that raises counts as failed and its first
    traceback is kept.  The loop stops only between blocks (whole cycles,
    unless the workload cuts its cycle into blocks of the same mix), and
    ``run`` may be called again to continue where it stopped without
    counting the work done in between.

    A shared machine drifts between fast and slow spells lasting seconds,
    and a median over the ops of a whole run follows whichever spell held
    most of it, jumping between the two.  So the figures are built from
    spans short enough to sit in one spell: latency medians per window of
    whole blocks of at least WINDOW_S seconds, averaged over the windows;
    tail percentiles per tail window of whole blocks with ten samples
    beyond the percentile, averaged over their middle half; and
    throughput from each op of the cycle's mean latency.
    """

    WINDOW_S = 1.0

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.values = []
        self.configs = []
        self.latency_ns = array("q")
        self.failed = 0
        self.first_error = None
        self.misses = {}  # config -> ops after the prefix that failed their check
        self.pos = 0  # place in the cycle of the next op
        width = len(workload.cycle())
        self.pos_ns = array("q", bytes(8 * width))  # summed latency per place
        self.pos_runs = array("q", bytes(8 * width))  # ops run per place
        self.elapsed_ns = 0
        self.windows = []  # (first op, end op) per closed window
        self._window = [0, 0]  # first op and loop time of the open window
        self.tail_windows = []  # (first op, end op) per closed tail window
        self._tail_min_ops = tail_window_ops(workload.tail_pct)
        # per op, with a tracer: first and last span index, start and end
        self.op_spans = (array("q"), array("q"), array("q"), array("q"))

    def run(self, min_seconds: float, min_cycles: int) -> None:
        """Run whole blocks until the loop totals meet both minimums."""
        ops = self.workload.cycle()
        block = self.workload.block_ops or len(ops)
        streams = self.workload.streams
        clock = time.perf_counter_ns
        values, configs, lat = self.values, self.configs, self.latency_ns
        pos_ns, pos_runs = self.pos_ns, self.pos_runs
        tracer = self.tracer
        first, last, op_start, op_end = self.op_spans
        window = self._window
        workload = self.workload
        prefix_ops = workload.prefix_cycles * len(ops)
        while len(lat) < min_cycles * len(ops) or self.elapsed_ns < min_seconds * 1e9:
            b0 = clock()
            for pos in range(self.pos, self.pos + block):
                config, fn = ops[pos]
                rng = streams[config]
                if tracer is not None:
                    first.append(len(tracer))
                t0 = clock()
                try:
                    value = fn(rng)
                except Exception:  # an op failure is counted, not fatal
                    value = None
                    self.failed += 1
                    if self.first_error is None:
                        self.first_error = traceback.format_exc()
                t1 = clock()
                if tracer is not None:
                    last.append(len(tracer))
                    op_start.append(t0)
                    op_end.append(t1)
                if len(lat) < prefix_ops:
                    values.append(value)
                    configs.append(config)
                elif value is not None and not (
                        value == values[pos] if workload.inputs_repeat
                        else workload.value_ok(pos, config, value)):
                    self.misses[config] = self.misses.get(config, 0) + 1
                lat.append(t1 - t0)
                pos_ns[pos] += t1 - t0
                pos_runs[pos] += 1
            took = clock() - b0
            self.pos = (self.pos + block) % len(ops)
            self.elapsed_ns += took
            window[1] += took
            if window[1] >= self.WINDOW_S * 1e9:
                self.windows.append((window[0], len(lat)))
                window[:] = [len(lat), 0]
            start = self.tail_windows[-1][1] if self.tail_windows else 0
            if len(lat) - start >= self._tail_min_ops:
                self.tail_windows.append((start, len(lat)))

    @property
    def ops(self) -> int:
        return len(self.latency_ns)

    def ops_per_s(self) -> float:
        """Ops of one cycle over the cycle's expected time, the sum of each
        op's mean latency; over whole cycles this is ops per loop second,
        and a cycle left part-run does not skew the mix.  Needs a whole
        cycle run."""
        if not all(self.pos_runs):
            raise ValueError("ops_per_s needs every op of the cycle run at least once")
        cycle_ns = sum(t / n for t, n in zip(self.pos_ns, self.pos_runs))
        return len(self.pos_ns) / cycle_ns * 1e9

    def p50_us(self) -> float:
        """Mean over the windows of each window's median latency; a last
        window shorter than half of WINDOW_S joins the one before it."""
        bounds = list(self.windows)
        start, ns = self._window
        if start < self.ops:
            if bounds and ns < self.WINDOW_S * 1e9 / 2:
                bounds[-1] = (bounds[-1][0], self.ops)
            else:
                bounds.append((start, self.ops))
        return statistics.fmean(percentile_us(self.latency_ns[a:b], 50) for a, b in bounds)

    def tail_us(self) -> tuple:
        """Interquartile mean over the tail windows of each window's tail
        percentile, and the number of windows; ops after the last full
        tail window join it."""
        bounds = list(self.tail_windows) or [(0, 0)]
        bounds[-1] = (bounds[-1][0], self.ops)
        pct = self.workload.tail_pct
        tails = [percentile_us(self.latency_ns[a:b], pct) for a, b in bounds]
        return interquartile_mean(tails), len(tails)


def interquartile_mean(values) -> float:
    """Mean of the middle half: a quarter of the values, rounded down,
    dropped from each end."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def percentile_us(latency_ns, pct: int) -> float:
    """Nearest-rank percentile, in microseconds."""
    ordered = sorted(latency_ns)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1] / 1e3


def tail_beyond(n: int, pct: int) -> int:
    return n - max(1, -(-pct * n // 100))


def tail_window_ops(pct: int) -> int:
    """Fewest ops with ten samples beyond the pct percentile."""
    n = 10
    while tail_beyond(n, pct) < 10:
        n += 10
    return n


def report_call(workload, tracer=None) -> tuple:
    """One in-process ``cli.main`` call; returns (seconds, report), the
    report being the parsed JSON or, when the call failed, the error text."""
    from ctxsim import cli
    buf, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(workload.report_argv())
    except Exception:  # a crashing report is a failed check, not a crashed run
        code = None
        err.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if code != 0:
        return seconds, f"exit {code}: {err.getvalue().strip()}"
    return seconds, json.loads(buf.getvalue())


def output_checks(workload, loop: Loop, reports: list) -> list:
    """Every check of a run.  Called after peak memory is read, so the
    checks' own arrays never count as the program's."""
    import workloads
    checks = list(workload.setup_checks) + workload.check_values(loop.values)
    checks += [workloads.Check(f"{config} after the prefix", False, f"{n} ops off target")
               for config, n in sorted(loop.misses.items())]
    checks += workload.rate_checks(loop.configs, loop.values)
    for report in reports:
        checks += (workload.report_checks(report) if isinstance(report, dict)
                   else [workloads.Check("report call", False, report)])
    return checks


def environment(seed: int) -> dict:
    def cache(level: int) -> str | None:
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                if int((index / "level").read_text()) == level and \
                        (index / "type").read_text().strip() in ("Unified", "Data"):
                    return (index / "size").read_text().strip()
            except (OSError, ValueError):
                continue
        return None

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # never report the commit of an enclosing repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu, "l2": cache(2), "l3": cache(3),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit or "unavailable (not a git checkout)",
        "seed": seed,
    }


def untraced_run(args) -> dict:
    setups = probe_setups(args.workload, args.seed)
    t0 = time.perf_counter()
    workload = build_workload(args.workload, args.seed)
    own_setup = time.perf_counter() - t0
    import workloads

    # the report calls are spread over the timed loop, so they sample the
    # same machine conditions as the ops; the loop does not count them
    loop = Loop(workload)
    report_times, reports = [], []
    for i in range(1, REPORT_CALLS + 1):
        loop.run(args.seconds * i / REPORT_CALLS,
                 workload.prefix_cycles if i == REPORT_CALLS else 0)
        seconds, report = report_call(workload)
        report_times.append(seconds)
        reports.append(report)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = output_checks(workload, loop, reports)
    failed_checks = [c for c in checks if not c.ok]
    pct = workload.tail_pct
    tail, tail_windows = loop.tail_us()
    metrics = {
        "ops_per_s": loop.ops_per_s(),
        "op_p50_us": loop.p50_us(),
        "op_tail_us": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "report_s": interquartile_mean(report_times),
    }
    return {
        "workload": args.workload, "trace": 0, "seconds": args.seconds,
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "failed_frac": loop.failed / loop.ops,
        "bound_misses": len(failed_checks),
        "op_tail": {"percentile": pct, "ops": loop.ops, "windows": tail_windows,
                    "min_window_ops": tail_window_ops(pct)},
        "ops": loop.ops, "loop_s": loop.elapsed_ns / 1e9,
        "windows": len(loop.windows),
        "setup_probes_s": setups, "setup_this_process_s": own_setup,
        "report_argv": workload.report_argv(), "report_s_all": report_times,
        "digest": {"outputs": workloads.digest(workload.digest_outputs(loop.configs, loop.values))},
        "checks": [c.as_dict() for c in checks],
        "first_error": loop.first_error,
        "attempted": loop.ops, "failed": loop.failed,
        "correct": not failed_checks and loop.failed == 0,
    }


def traced_run(args) -> dict:
    """Untraced pass over the prefix, then the same prefix traced."""
    import numpy as np
    import tracer as tracing
    import workloads

    untraced = Loop(build_workload(args.workload, args.seed))
    untraced.run(0, untraced.workload.prefix_cycles)

    workload = build_workload(args.workload, args.seed)
    tracer = tracing.Tracer()
    traced = Loop(workload, tracer)
    tracer.install()
    try:
        traced.run(0, workload.prefix_cycles)
    finally:
        tracer.uninstall()

    report_tracer = tracing.Tracer()
    _, report = report_call(workload, report_tracer)

    spans = tracer.arrays()
    ops = {k: np.frombuffer(a, dtype=np.int64).copy()
           for k, a in zip(("first", "last", "start", "end"), traced.op_spans)}
    violations = tracing.consistency_violations(spans, ops)
    totals = tracer.totals(spans)
    report_totals = report_tracer.totals(report_tracer.arrays())

    n_ops = traced.ops
    metrics = {}
    for name, (calls, self_ns, incl_ns) in totals.items():
        if name == "cli.main":
            calls, self_ns, incl_ns = report_totals[name]
            per = 1
        else:
            per = n_ops
        metrics[f"{name}.calls"] = (calls / per, "count")
        metrics[f"{name}.self_us"] = (self_ns / per / 1e3, "us")
        if name in tracing.PER_CALL:
            metrics[f"{name}.us_per_call"] = (incl_ns / calls / 1e3 if calls else 0.0, "us")
    c = tracer.counters
    metrics["qsim.max_amps"] = (c["qsim.max_amps"], "count")
    metrics["qsim.bytes_computed"] = (c["qsim.bytes_computed"] / n_ops, "B")
    metrics["qfhe.enc_classical.bits"] = (c["qfhe.enc_classical.bits"] / n_ops, "count")
    for gate in ("and", "xor", "not", "const"):
        key = f"qfhe.ceval.{gate}_gates"
        metrics[key] = (c[key] / n_ops, "count")
    metrics["games.nc_value_with_table.tables"] = (
        c["games.nc_value_with_table.tables"] / n_ops, "count")
    hadamard = c["opad.enc.circuit.hadamard_measures"]
    metrics["opad.enc.circuit.d_nonzero_ratio"] = (
        c["opad.enc.circuit.rounds"] / hadamard if hadamard else 0.0, "ratio")
    metrics["trace.ops_per_s"] = (traced.ops_per_s(), "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced.ops_per_s(), "1/s")
    metrics["trace.overhead_pct"] = (
        (untraced.ops_per_s() / traced.ops_per_s() - 1) * 100, "%")

    outputs_u = workloads.digest(workload.digest_outputs(untraced.configs, untraced.values))
    outputs_t = workloads.digest(workload.digest_outputs(traced.configs, traced.values))
    calls_digest = workloads.digest({
        "calls": {k: v[0] for k, v in totals.items() if k != "cli.main"},
        "counters": c})
    checks = output_checks(workload, traced, [report]) + [
        workloads.Check("tracing leaves outputs unchanged", outputs_u == outputs_t,
                        f"untraced {outputs_u}, traced {outputs_t}"),
        workloads.Check("span nesting within ops", violations == 0,
                        f"{violations} violations over {len(spans['name'])} spans"),
    ]
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    np.savez(span_file, names=np.array(tracer.names), **spans,
             **{f"op_{k}": v for k, v in ops.items()})
    failed_checks = [ch for ch in checks if not ch.ok]
    failed = untraced.failed + traced.failed
    return {
        "workload": args.workload, "trace": 1, "seconds": args.seconds,
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": n_ops, "spans": len(spans["name"]), "span_file": str(span_file.relative_to(ROOT)),
        "digest": {"outputs": outputs_t, "calls": calls_digest},
        "bound_misses": len(failed_checks),
        "checks": [ch.as_dict() for ch in checks],
        "first_error": untraced.first_error or traced.first_error,
        "attempted": untraced.ops + n_ops, "failed": failed,
        "correct": not failed_checks and failed == 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_package()
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    OUT.mkdir(exist_ok=True)
    record = traced_run(args) if args.trace else untraced_run(args)
    path = OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
