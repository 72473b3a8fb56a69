#!/usr/bin/env python3
"""Benchmark of numsgps: verification and scan jobs, as a user runs them.

    python3 perfbench/run.py --workload transport --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py) as a closed loop on one thread: the next
job starts when the previous one returns. Each job's output is checked against
its golden digest, where golden.json has one, and by the workload's own
independent checks. Prints a report with a run header, then as the last line
one JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics of the traced run (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import program
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SPANS_DIR = program.ROOT / ".perfbench_out"
SETUP_RUNS = 5
TAIL_BEYOND = 10


def run_header(seconds: float, trace: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "seconds": seconds,
        "trace": trace,
    }


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile of ``walls`` with
    at least ten samples beyond it, or the maximum when there are too few."""
    xs = sorted(walls)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def setup_times(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first job being ready,
    for SETUP_RUNS fresh interpreters (probe.py). Not scaled to the reference
    speed: spawning and importing do not track it."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


class Outcome:
    """One execution of a job: wall and CPU seconds, result or error.

    With a SpeedProbe, the time its samples took during the job is taken
    out, and ``speed`` becomes the reference speed during the job."""

    speed = 1.0

    def __init__(self, job, probe: SpeedProbe | None = None):
        stolen = (probe.wall, probe.cpu) if probe else (0.0, 0.0)
        self.start, cpu = time.perf_counter(), time.process_time()
        try:
            self.result, self.error = job.call(), None
        except Exception as exc:  # a failing job is counted, not fatal
            self.result, self.error = None, f"{type(exc).__name__}: {exc}"
        self.end = time.perf_counter()
        self.wall = self.end - self.start
        self.cpu = time.process_time() - cpu
        if probe:
            self.wall -= probe.wall - stolen[0]
            self.cpu -= probe.cpu - stolen[1]
            self.speed = probe.speed(self.start, self.end)


def traced_outcome(job, tracer, index: int) -> Outcome:
    with tracer.installed():
        tracer.start_job(index)
        return Outcome(job)


def judge(job, outcome: Outcome, golden: dict, digest) -> tuple[list[str], str | None]:
    """(problems, digest of the canonical output) for one execution."""
    if outcome.error is not None:
        return [f"{job.key}: raised {outcome.error}"], None
    text = job.canonical(outcome.result)
    got = digest(text)
    problems = [f"{job.key}: {p}" for p in job.check(outcome.result)]
    want = golden.get(job.key)
    if want is not None and want != got:
        problems.append(f"{job.key}: digest {got} != golden {want}")
    return problems, got


def measure(rounds, seconds: float, golden: dict, digest, tracer=None, probe=None):
    """Run whole rounds until the jobs have taken about ``seconds`` at the
    reference speed: stop after the round that brings the job time closest
    to it. Untraced jobs are scaled by ``probe``, when given. Returns the
    untraced outcomes, the traced ones (when tracing), the problems found and
    how many jobs had a golden digest."""
    plain, traced, problems = [], [], []
    checked = 0
    busy = 0.0
    for jobs in rounds:
        round_start = busy
        for job in jobs:
            index = len(plain)
            # a traced run alternates which copy goes first, so neither
            # always gets the warmer start
            if tracer is None:
                outcome = Outcome(job, probe)
            elif index % 2 == 0:
                outcome = Outcome(job)
                traced.append(traced_outcome(job, tracer, index))
            else:
                traced.append(traced_outcome(job, tracer, index))
                outcome = Outcome(job)
            plain.append(outcome)
            busy += outcome.wall * outcome.speed
            found, got = judge(job, outcome, golden, digest)
            checked += job.key in golden
            if tracer is not None:
                found_traced, got_traced = judge(job, traced[-1], golden, digest)
                found += [f"traced: {p}" for p in found_traced]
                if got != got_traced:
                    found.append(f"{job.key}: traced digest {got_traced} != untraced {got}")
            problems.append(found)
        if busy + (busy - round_start) / 2 >= seconds:
            break
    return plain, traced, problems, checked


def end_to_end(plain: list[Outcome], setups: list[float]) -> tuple[dict, list[str]]:
    """Metrics of the untraced run; times are at the reference speed."""
    walls = [o.wall * o.speed for o in plain]
    busy = sum(walls)
    value, pct, n = tail(walls)
    metrics = {
        "throughput_jobs_per_s": (len(plain) / busy, "jobs/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (value, "s"),
        "cpu_per_job_s": (sum(o.cpu * o.speed for o in plain) / len(plain), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {
        "job_tail_s": f"p{pct:.1f} of {n} jobs, {TAIL_BEYOND} beyond it" if n > TAIL_BEYOND
        else f"maximum of {n} jobs (too few for {TAIL_BEYOND} beyond)",
        "setup_s": f"median of {len(setups)} fresh interpreters, not scaled",
        "throughput_jobs_per_s": f"{len(plain)} jobs in {busy:.2f} s",
    }
    lines = [f"{k:24s} {v:.6g} {u}" + (f"  ({notes[k]})" if k in notes else "")
             for k, (v, u) in metrics.items()]
    raw = [o.wall for o in plain]
    lines.append(f"{'machine speed':24s} {statistics.median(o.speed for o in plain):.3f} x reference  "
                 f"(unscaled: {len(raw) / sum(raw):.6g} jobs/s, p50 {statistics.median(raw):.6g} s)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(plain: list[Outcome], traced: list[Outcome], tracer) -> tuple[dict, list[str]]:
    from tracer import LAYERS, span_times
    from workloads import CliResult

    jobs = len(traced)
    inclusive, self_time = span_times(tracer.spans)
    c = tracer.counts
    traced_s = sum(o.wall for o in traced)

    def per_job(x):
        return x / jobs

    def seconds(fn):
        return per_job(inclusive[fn])

    stdout = sum(len(o.result.stdout.encode()) for o in traced if isinstance(o.result, CliResult))
    metrics = {
        "factorizations.betti_s": (seconds("factorizations.betti_elements"), "s/job"),
        "factorizations.betti_calls": (per_job(c["betti_calls"]), "count/job"),
        "factorizations.betti_repeat_frac": (c["betti_repeats"] / max(c["betti_calls"], 1), "frac"),
        "factorizations.betti_found": (per_job(c["betti_found"]), "count/job"),
        "factorizations.minpres_s": (seconds("factorizations.minimal_presentation"), "s/job"),
        "factorizations.verify_s": (seconds("factorizations.verify_minimal_presentation"), "s/job"),
        "factorizations.graph_s": (seconds("factorizations.factorization_graph"), "s/job"),
        "factorizations.enum_s": (seconds("factorizations.factorizations"), "s/job"),
        "factorizations.enumerated": (per_job(c["enumerated"]), "count/job"),
        "weighted.profile_s": (seconds("weighted.weighted_delta_profile"), "s/job"),
        "weighted.profile_calls": (per_job(c["profile_calls"]), "count/job"),
        "weighted.profile_gaps": (per_job(c["profile_gaps"]), "count/job"),
        "weighted.extreme_tables_s": (seconds("weighted.weighted_extreme_tables"), "s/job"),
        "weighted.length_set_s": (seconds("weighted.weighted_length_set"), "s/job"),
        "semigroup.members": (per_job(c["semigroup_members"]), "count/job"),
        "semigroup.residue_classes": (per_job(c["residue_classes"]), "count/job"),
        "parametric.members": (per_job(c["family_members"]), "count/job"),
        "quasipoly.fit_s": (seconds("quasipoly.fit"), "s/job"),
        "quasipoly.detect_s": (seconds("quasipoly.detect"), "s/job"),
        "cli.stdout_bytes": (per_job(stdout), "B/job"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (per_job(self_time[layer]), "s/job")
    metrics["trace.job_s"] = (per_job(traced_s), "s/job")
    metrics["trace.spans"] = (per_job(len(tracer.spans)), "count/job")
    # per-job ratios pair copies run back to back, so machine drift cancels
    overhead = statistics.median(t.wall / p.wall for p, t in zip(plain, traced)) - 1
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics = dict(sorted(metrics.items()))
    lines = [f"{k:36s} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append("layer shares of traced job time:")
    outside = traced_s - sum(self_time[layer] for layer in LAYERS)
    for layer in LAYERS:
        lines.append(f"  {layer:16s} {self_time[layer] / traced_s:7.1%}")
    lines.append(f"  {'(benchmark)':16s} {outside / traced_s:7.1%}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def write_spans(path: Path, header: dict, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="default 0; seed 1000003 is held out for checking claims")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        program.load_numsgps()
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload]
    header = {"workload": args.workload, "seed": args.seed, **run_header(args.seconds, args.trace)}
    print("# " + json.dumps(header))
    rounds = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        tracer = Tracer()
        plain, traced, problems, checked = measure(
            rounds, args.seconds, golden, workloads.digest, tracer=tracer)
        metrics, lines = per_layer(plain, traced, tracer)
        spans_file = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_file, header, tracer.spans)
        lines.append(f"spans written to {spans_file.relative_to(program.ROOT)}")
    else:
        setups = setup_times(args.workload, args.seed)
        with SpeedProbe() as probe:
            plain, _, problems, checked = measure(
                rounds, args.seconds, golden, workloads.digest, probe=probe)
        # during the run each job's speed lacked the samples taken after it
        for outcome in plain:
            outcome.speed = probe.speed(outcome.start, outcome.end)
        metrics, lines = end_to_end(plain, setups)
    failed = sum(1 for found in problems if found)
    for found in problems:
        for line in found[:3]:
            print(f"FAIL {line}")
    for line in lines:
        print(line)
    print(f"{'failed_frac':24s} {failed / len(plain):.6g} frac  "
          f"({failed} of {len(plain)} jobs; {checked} had a golden digest)")
    print(f"# run took {time.perf_counter() - start:.1f} s")
    result = {"correct": failed == 0, "attempted": len(plain), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
