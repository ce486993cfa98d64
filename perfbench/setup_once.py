"""One cold set-up of the benchmark, timed: imports, hotspot layouts, one
warm-up call.  Prints the seconds taken.

    python3 perfbench/setup_once.py <workload> <seed>

run.py starts this several times per run and reports the median as setup_s.
"""

import sys
from time import perf_counter


def main(workload: str, seed: int) -> float:
    t0 = perf_counter()
    import workloads  # numpy, scipy and locmst from the checkout

    workloads.check_locmst_source()
    workloads.build_layouts()
    workloads.warm_up(workload, seed)
    return perf_counter() - t0


if __name__ == "__main__":
    print(main(sys.argv[1], int(sys.argv[2])))
