"""Print the seconds one set-up takes: import irscollab, then build a workload.

Usage: python3 perfbench/probe_setup.py <workload> <seed>

NumPy is imported before the clock starts.  Its import dominated the set-up
and varied by half between runs, and no change to this package can move it.
The clock is also paused while the benchmark's own workloads module loads.
run.py starts this several times per run and reports the median as setup_s,
since an import can be timed only once per process.
"""

import sys
from time import perf_counter

import library


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    library.cap_blas_threads()
    import numpy  # noqa: F401

    start = perf_counter()
    library.load()
    imported = perf_counter() - start
    import workloads

    start = perf_counter()
    workloads.WORKLOADS[name](seed)
    print(repr(imported + perf_counter() - start))


if __name__ == "__main__":
    main()
