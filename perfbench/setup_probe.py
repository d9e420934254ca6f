"""Set a workload up in a fresh process, then exit.

``python3 perfbench/setup_probe.py WORKLOAD SEED SIZE TMP_DIR``

The caller takes this process's CPU time (user + system, from
``getrusage(RUSAGE_CHILDREN)``): interpreter start, importing numpy and
fundiv, and building the workload's inputs.  Its median over the probes of
a run is that run's ``setup_s``.
"""

import sys
from pathlib import Path

import workloads

name, seed, size, tmp_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
workloads.setup(name, seed, size, tmp_dir)
