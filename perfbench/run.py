"""situnet benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each op is one ``situnet`` command run
through ``situnet.cli.main`` in this process; the next op starts when the
previous one and its output check have finished.  With ``--trace 0`` the
run measures the cycles that fit ``--seconds`` on a slow host and the last
stdout line holds the end-to-end metrics; with ``--trace 1`` the ops of a
fixed number of cycles run once untraced and once traced, and it holds the
per-layer metrics.  ``--workload all`` runs every workload in
its own process.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# Seconds one cycle took in the slowest host phase seen on a 2-core Xeon.
# An end-to-end run measures --seconds / this many whole cycles, so every run
# measures the same ops, and a run stays within --seconds on a slow host.
CYCLE_SECONDS = {"generate": 1.5, "eval-lw": 2.0, "eval-gibbs": 3.2, "infer-lw": 4.5}
TRACE_CYCLES = {"generate": 3, "eval-lw": 3, "eval-gibbs": 1, "infer-lw": 1}
END_TO_END_UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms", "ops_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_situnet():
    """Import situnet from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "situnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no situnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import situnet

    if Path(situnet.__file__).resolve().parent != SRC / "situnet":
        raise SystemExit(f"error: imported situnet from {situnet.__file__}, not {SRC}")
    return situnet


def child_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports situnet and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import situnet"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - started


def environment(args) -> dict:
    import numpy

    from bench_workloads import GIBBS_BURN_IN, GIBBS_SAMPLES

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "gibbs_burn_in": GIBBS_BURN_IN,
            "gibbs_samples": GIBBS_SAMPLES}


def run_op(cli, workload, op):
    """Run one command; returns (seconds, exit code, stdout, stderr)."""
    workload.reset()
    argv = workload.argv(op)
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as error:  # the client keeps running; the op counts as failed
            code = f"{type(error).__name__}: {error}"
    return time.perf_counter() - started, code, out.getvalue(), err.getvalue()


class Tally:
    """Latencies and outcomes of one pass over ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.op_rates: list[float] = []      # per cycle: successful ops / busy seconds
        self.query_rates: list[float] = []   # per cycle: answered queries / busy seconds
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.wrong = 0

    def fail(self, reason: str) -> None:
        reason = reason.strip().splitlines()[0][:160] if reason.strip() else "no message"
        self.failures[reason] = self.failures.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_ops(cli, workload, cycles, tracer=None) -> Tally:
    """Closed loop over the ops of the given cycles.  An op's time covers
    only the command; its output check runs after it, untimed."""
    from bench_workloads import OpFailed

    tally = Tally()
    for cycle in cycles:
        busy, succeeded, queries = 0.0, 0, 0
        for op in cycle:
            if tracer is not None:
                tracer.begin_op(tally.attempted)
            elapsed, code, stdout, stderr = run_op(cli, workload, op)
            if tracer is not None:
                tracer.end_op()
            tally.attempted += 1
            busy += elapsed
            if code != 0:
                tally.fail(str(code) if isinstance(code, str) else stderr.strip().rpartition("\n")[2])
                continue
            try:
                workload.check(op, stdout)
            except OpFailed as error:
                tally.wrong += 1
                tally.fail(f"check: {error}")
                continue
            tally.latencies.append(elapsed)
            succeeded += 1
            queries += workload.queries(op, stdout)
        tally.op_rates.append(succeeded / busy)
        tally.query_rates.append(queries / busy)
    return tally


def tail(latencies) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; the maximum when that percentile would fall below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict, float]:
    """(end-to-end metric values, percentile of the tail value)."""
    if not tally.latencies:
        raise SystemExit("error: no op succeeded, so no latency can be reported")
    value, percentile = tail(tally.latencies)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": 1000.0 * statistics.median(tally.latencies),
        "latency_tail_ms": 1000.0 * value,
        "ops_per_s": statistics.median(tally.op_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, percentile


def traced_run(cli, workload, cycles, tracer):
    """Run the cycles untraced, then traced; per-layer metrics and both passes' tally."""
    from bench_trace import TRACE_POINTS, layer_metrics

    plain = run_ops(cli, workload, cycles)
    tracer.install(TRACE_POINTS)
    try:
        traced = run_ops(cli, workload, cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced.attempted)
    overhead = 1000.0 * (statistics.median(traced.latencies) - statistics.median(plain.latencies))
    metrics["trace.overhead_p50_ms"] = (overhead, "ms")
    metrics["trace.ops"] = (traced.attempted, "count")
    traced.attempted += plain.attempted
    traced.wrong += plain.wrong
    for reason, n in plain.failures.items():
        traced.failures[reason] = traced.failures.get(reason, 0) + n
    return metrics, traced


def run_workload(args) -> int:
    situnet = import_situnet()
    from bench_trace import Tracer
    from bench_workloads import make_workload, op_cycles
    from situnet import cli

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        import_s = statistics.median(child_import_seconds() for _ in range(SETUP_REPEATS))
        prep = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload = make_workload(args.workload, Path(situnet.data_path()), work)
            workload.prepare()
            n_cycles = (TRACE_CYCLES[args.workload] if args.trace else
                        max(1, round(args.seconds / CYCLE_SECONDS[args.workload])))
            cycles = list(itertools.islice(op_cycles(args.workload, args.seed, workload.words),
                                           n_cycles))
            prep.append(time.perf_counter() - started)
        setup_s = import_s + statistics.median(prep)

        record = {"environment": environment(args)}
        if args.trace:
            tracer = Tracer()
            metrics, tally = traced_run(cli, workload, cycles, tracer)
        else:
            tally = run_ops(cli, workload, cycles)
            values, percentile = end_to_end(tally, setup_s)
            metrics = {name: (values[name], END_TO_END_UNITS[name]) for name in values}
            record["tail_percentile"] = percentile
            record["tail_samples"] = len(tally.latencies)
            record["queries_per_s"] = statistics.median(tally.query_rates) or None
            record["latencies_ms"] = [round(1000.0 * t, 3) for t in tally.latencies]
            record["accuracy_min_pct"] = workload.accuracy()
        record["fail_ratio"] = tally.failed / tally.attempted
        record["failures"] = tally.failures
        record.update(workload.record())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(results / f"{suffix}-spans.tsv")
    report(record, tally)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


def report(record: dict, tally: Tally) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print("environment " + json.dumps(record["environment"]))
    for name, cell in record["metrics"].items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  (p{record['tail_percentile']:.1f} of {record['tail_samples']} ops)"
        print(f"{name:40s} {cell['value']:.6g} {cell['unit']}{extra}")
    for name, unit in (("queries_per_s", "1/s"), ("accuracy_min_pct", "%")):
        if record.get(name) is not None:
            print(f"{name:40s} {record[name]:.6g} {unit}")
    print(f"{'fail_ratio':40s} {record['fail_ratio']:.6g} ({tally.failed} of {tally.attempted} ops)")
    for reason, n in sorted(record["failures"].items()):
        print(f"  failed x{n}: {reason}")
    for scenario, value in record.get("bundled_digests", {}).items():
        print(f"  artifacts digest {scenario}: {value}")


def run_all(args) -> int:
    from bench_workloads import WORKLOADS

    summary, status = {}, 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
