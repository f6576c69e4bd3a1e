"""Set-up for one benchmark run: imports the package, generates the
seeded inputs and writes the input documents.

    python3 bench/prepare.py WORKLOAD SEED OUT-DIR
"""

import os
import sys

import operad_forge  # noqa: F401  (import time is part of set-up)
from workloads import write_inputs


if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1:]
    os.makedirs(out_dir, exist_ok=True)
    write_inputs(workload, int(seed), out_dir)
