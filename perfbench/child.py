"""Child processes of the benchmark (run.py starts them; not for direct use).

    child.py setup <workload> <seed> <work_dir> [<spans_out> <run_id>]
        Generate the world of each of the workload's parts and write every
        input file into `<work_dir>/<part>/`; print the set-up time as
        JSON. With a spans file, trace the library calls.
    child.py cli <spans_out> <run_id> <embalign argv...>
        Run one CLI command in-process through `embalign.cli.main` with
        every traced function wrapped; exit with its status.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from spans import Tracer, instrument


def setup(workload: str, seed: str, work_dir: str, spans_out=None, run_id=None) -> int:
    import numpy as np

    import embalign  # noqa: F401  (import time is not set-up time)
    from workloads import WORKLOADS, write_inputs

    tracer = None
    if spans_out is not None:
        tracer = Tracer(run_id, "setup")
        instrument(tracer)
    start = time.perf_counter()
    for part in WORKLOADS[workload]:
        part_dir = Path(work_dir) / part
        part_dir.mkdir(exist_ok=True)
        write_inputs(part, int(seed), part_dir)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.write(spans_out)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({"setup_s": elapsed, "numpy": np.__version__,
                      "blas": f"{blas.get('name')} {blas.get('version')}"}))
    return 0


def cli(spans_out: str, run_id: str, *argv: str) -> int:
    tracer = Tracer(run_id, argv[0])
    span = tracer.begin("cli.import")
    import embalign.cli

    tracer.end(span)
    instrument(tracer)
    try:
        return embalign.cli.main(list(argv))
    finally:
        tracer.write(spans_out)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    raise SystemExit({"setup": setup, "cli": cli}[mode](*rest))
