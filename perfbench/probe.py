"""Set-up probe: a fresh interpreter that builds one workload's inputs.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

run.py times this process from spawn to its first line of output, which it
prints as soon as chemolab is imported and the inputs are built: that span
is one sample of ``setup_s``.  The line is a JSON object with the set-up's
own breakdown (import time, kinetics construction time).
"""

import json
import sys
from pathlib import Path

import run  # noqa: F401  (pins the BLAS threads before numpy is imported)
import workloads


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(run.SRC))
    inputs = workloads.WORKLOADS[name].setup(seed, workdir)
    print(json.dumps(inputs.timings), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
