"""Memory gates: a script run in a child process under an address-space cap.

``run_gate`` runs a gate's script with one BLAS thread and glibc's mmap
threshold pinned at its default 128 KiB, which turns off its dynamic
rise: every array of 128 KiB or more is mapped and unmapped on its own,
so VmSize follows the live arrays, and freed heap blocks do not decide
how much of the cap a gate's code gets. The script runs after
``PRELUDE``, so it can read a field of its ``/proc/self/status`` with
``status`` and cap ``RLIMIT_AS`` at its VmSize plus a headroom with
``cap_address_space``.
"""

import os
import subprocess
import sys
from pathlib import Path

import embalign

PRELUDE = """
import resource

def status(field):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":"))

def cap_address_space(headroom):
    vm_size = status("VmSize")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (vm_size * 1024 + headroom, hard))
    return vm_size
"""


def run_gate(script: str, *argv) -> subprocess.CompletedProcess:
    """``script`` after ``PRELUDE`` in a child, with ``argv`` as its
    arguments: the finished process, its output captured as text."""
    src = Path(embalign.__file__).resolve().parents[1]
    env = os.environ | {"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
                        "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                        "MALLOC_MMAP_THRESHOLD_": str(128 << 10)}
    return subprocess.run([sys.executable, "-c", PRELUDE + script, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
