"""Record the golden digests of the jobs' canonical outputs into golden.json.

    python3 perfbench/golden.py [WORKLOAD ...]

transport and family_scan draw from finite pools, and every job of those
pools is recorded, so any seed's jobs are checked. weighted_oracle draws
fresh inputs; the first WEIGHTED_JOBS jobs of the default and the held-out
seed are recorded. A job whose independent checks fail is reported and
nothing is written. Takes about ten minutes on a 2-core VM.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import program

GOLDEN = Path(__file__).resolve().parent / "golden.json"
WEIGHTED_JOBS = 900


def jobs_of(workload: str):
    import workloads

    if workload == "transport":
        return workloads.transport_pool()
    if workload == "family_scan":
        return workloads.scan_pool()
    jobs = []
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        stream = itertools.chain.from_iterable(workloads.weighted_rounds(seed))
        jobs += itertools.islice(stream, WEIGHTED_JOBS)
    return jobs


def record(workload: str) -> tuple[dict, list[str]]:
    import workloads

    digests, problems = {}, []
    for job in jobs_of(workload):
        result = job.call()
        problems += [f"{job.key}: {p}" for p in job.check(result)]
        digests[job.key] = workloads.digest(job.canonical(result))
    return digests, problems


def main(argv: list[str]) -> int:
    program.load_numsgps()
    import workloads

    recorded = {}
    for name in argv or sorted(workloads.WORKLOADS):
        digests, problems = record(name)
        for line in problems:
            print(f"FAIL {name}: {line}")
        if problems:
            return 1
        recorded[name] = digests
        print(f"{name}: {len(digests)} digests")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.update(recorded)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
