"""Set-up probe: a fresh interpreter imports numsgps and builds the first job
of a workload, then prints the monotonic clock. run.py spawns it and takes
the difference to its own clock reading before the spawn.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
import time

import program

if __name__ == "__main__":
    program.load_numsgps()
    import workloads

    workload, seed = sys.argv[1], int(sys.argv[2])
    next(workloads.WORKLOADS[workload](seed))
    print(time.perf_counter())
