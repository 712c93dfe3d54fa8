"""embalign benchmark: runs the real CLI on seeded synthetic worlds.

    python3 perfbench/run.py --workload {experiments,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. Each CLI command is its own process
(`python -m embalign.cli`), started one at a time under its own
RLIMIT_AS, with the BLAS thread count pinned. The last line of stdout is
the result: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`). The line before it holds the run's details: environment,
every sample and every failed check. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from spans import CLI_COMMANDS, TRACED  # noqa: E402
from workloads import PARTS, WORKLOADS, Op, mem_cap, sequence  # noqa: E402

# One BLAS thread, at most nproc: the parent's polling and the OS keep any
# other core, and `fit --kind linear` writes the same bytes on every run.
BLAS_THREADS = 1
SETUP_REPS = 3  # setup_s is their median
# Timed sequences repeat until the next one would end nearer to the end
# of `--seconds` than the last one did, and at least this many run.
# Run-to-run spread on a shared 2-vCPU machine comes from drifts in its
# speed over seconds to minutes, so what steadies wall_s is a long
# measured window, not a count.
MIN_REPS = 1
RUN_BUDGET_S = 165.0  # every op is killed at this point of the run
POLL_S = 0.002
MB = 1e6

END_TO_END = [
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("success_rate", "fraction"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric, in BENCHMARK.json order."""
    out = [("cli.import_s", "s")]
    for cmd in CLI_COMMANDS:
        out += [(f"cli.{cmd}.s", "s"), (f"cli.{cmd}.peak_rss_mb", "MB")]
    extra = {
        "store.load_embeddings": [("calls", "count"), ("mb", "MB"), ("mb_per_s", "MB/s")],
        "store.save_embeddings": [("calls", "count"), ("mb", "MB"), ("mb_per_s", "MB/s")],
        "store.load_pairs": [("rows", "count")],
        "store.align_pairs": [("rows", "count")],
        "store.EmbeddingSet.restrict": [("calls", "count")],
        "mapping.fit_linear": [("calls", "count"), ("samples", "count")],
        "mapping.fit_rotation": [("calls", "count"), ("samples", "count")],
        "mapping.apply_map": [("rows", "count"), ("dropped", "count")],
        "verification.build_templates": [("calls", "count"), ("media", "count"),
                                         ("templates", "count"), ("dropped", "count")],
        "verification.score_pairs": [("calls", "count"), ("pairs", "count"),
                                     ("dropped_pairs", "count"),
                                     ("gather_mb_computed", "MB")],
        "verification.roc": [("scores", "count")],
        "experiments.sample_eval_pairs": [("candidate_pairs_computed", "count")],
        "experiments.run_attack": [("rank_mb_computed", "MB")],
    }
    names = [f"{m}.{a}" for m, a, _ in TRACED]
    names.insert(names.index("store.align_pairs") + 1, "store.EmbeddingSet.restrict")
    for name in names:
        out.append((f"{name}.s", "s"))
        out += [(f"{name}.{key}", unit) for key, unit in extra.get(name, [])]
    out += [("trace.wall_s", "s"), ("trace.unspanned_s", "s"),
            ("trace.overhead_frac", "fraction")]
    return out


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    status: int | None  # exit code, negative for a signal, None on timeout
    stderr: str


def run_process(argv, cwd: Path, stdout_path: Path, mem_cap: int, deadline: float) -> Proc:
    """Run one child to completion under RLIMIT_AS, killed at `deadline`.

    Peak RSS comes from this child's own rusage (`os.wait4`), since
    RUSAGE_CHILDREN keeps the maximum over every child ever waited for.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("EMBALIGN_SEED", None)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (mem_cap, mem_cap))

    stderr_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, preexec_fn=limit_memory)
        timed_out = False
        pid = 0
        try:
            while True:
                pid, wait_status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    timed_out = True
                    proc.kill()
                    pid, wait_status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(POLL_S)
        except BaseException:
            if not pid:  # not reaped yet
                proc.kill()
                os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Proc(wall_s=wall, rss_mb=usage.ru_maxrss * 1024 / MB,
                status=None if timed_out else proc.returncode,
                stderr=stderr_path.read_text(errors="replace")[-2000:])


@dataclass
class OpResult:
    command: str
    wall_s: float
    rss_mb: float
    errors: list[str] = field(default_factory=list)
    digest: str = ""


def run_op(op: Op, work_dir: Path, deadline: float, trace=None) -> OpResult:
    """One CLI command, run in its part's directory; `trace` is
    (spans_path, run_id) for the traced run."""
    part_dir = work_dir / op.part
    for rel in op.outputs:
        (part_dir / rel).unlink(missing_ok=True)
    if trace is None:
        argv = [sys.executable, "-m", "embalign.cli", *op.args]
    else:
        argv = [sys.executable, str(HERE / "child.py"), "cli", str(trace[0]), trace[1], *op.args]
    stdout_path = work_dir / "op.out"
    proc = run_process(argv, part_dir, stdout_path, PARTS[op.part].mem_cap, deadline)
    result = OpResult(op.command, proc.wall_s, proc.rss_mb)
    if proc.status != 0:
        why = "timed out" if proc.status is None else f"exit status {proc.status}"
        result.errors.append(f"{op.command} {why}: {proc.stderr.strip()[-500:]}")
        return result
    stdout = stdout_path.read_bytes()
    digest = hashlib.sha256(stdout)
    try:
        files = {rel: (part_dir / rel).read_bytes() for rel in op.outputs}
        for rel in op.outputs:
            digest.update(files[rel])
        result.errors += op.check(json.loads(stdout), files)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.errors.append(f"{op.command} output unreadable: {exc!r}")
    result.digest = digest.hexdigest()
    return result


def run_setup(workload: str, seed: int, work_dir: Path, deadline: float, trace=None) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed), str(work_dir)]
    if trace is not None:
        argv += [str(trace[0]), trace[1]]
    proc = run_process(argv, work_dir, work_dir / "setup.out", mem_cap(workload), deadline)
    if proc.status != 0:
        raise RuntimeError(f"set-up failed ({proc.status}): {proc.stderr}")
    info = json.loads((work_dir / "setup.out").read_text())
    info["wall_s"] = proc.wall_s
    digest = hashlib.sha256()
    inputs = [p for part in WORKLOADS[workload] for p in (work_dir / part).iterdir()]
    for path in sorted(p for p in inputs if p.suffix in (".cfeb", ".csv", ".json")):
        with open(path, "rb") as f:
            digest.update(str(path.relative_to(work_dir)).encode()
                          + hashlib.file_digest(f, "sha256").digest())
    info["digest"] = digest.hexdigest()
    return info


def run_sequence(ops, work_dir, deadline, reference, trace=None) -> list[OpResult]:
    """Run the ops in order; an output whose bytes differ from the first
    repetition's fails its op. `trace` is (spans_dir, run_id) for the
    traced sequence, whose op i writes its spans to `op<i>.json`."""
    results = []
    for i, op in enumerate(ops):
        spans = None if trace is None else (trace[0] / f"op{i}.json", trace[1])
        result = run_op(op, work_dir, deadline, spans)
        if not result.errors and i in reference and reference[i] != result.digest:
            result.errors.append(f"{op.command} output differs from repetition 0")
        if not result.errors:
            reference.setdefault(i, result.digest)
        results.append(result)
    return results


def self_times(span_files) -> tuple[dict, dict]:
    """Aggregate spans: per name, summed self time, call count and counts."""
    totals: dict[str, dict] = {}
    spans_out = []
    for path in span_files:
        spans = json.loads(Path(path).read_text())
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span in spans:
            agg = totals.setdefault(span["name"], {"s": 0.0, "calls": 0, "span_s": 0.0})
            agg["s"] += span["end"] - span["start"] - child_time[span["id"]]
            agg["span_s"] += span["end"] - span["start"]
            agg["calls"] += 1
            for key, value in span["counts"].items():
                agg[key] = agg.get(key, 0) + value
        spans_out += spans
    return totals, spans_out


def layer_metrics(totals: dict, cli_procs: list[OpResult], traced_wall: float,
                  untraced_wall: float, setup_wall: float) -> dict:
    values = {}
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.peak_rss_mb"] = max(
            [p.rss_mb for p in cli_procs if p.command == cmd], default=0.0)
    values["cli.import_s"] = totals.get("cli.import", {}).get("s", 0.0)
    for name, agg in totals.items():
        if name == "cli.import":
            continue
        for key, value in agg.items():
            if key != "span_s":
                values[f"{name}.{key}"] = value
    for name in ("store.load_embeddings", "store.save_embeddings"):
        agg = totals.get(name)
        values[f"{name}.mb_per_s"] = agg["mb"] / agg["span_s"] if agg else 0.0
    values["trace.wall_s"] = traced_wall + setup_wall
    values["trace.unspanned_s"] = values["trace.wall_s"] - sum(a["s"] for a in totals.values())
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in per_layer_metrics()}


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return {"p": p, "value": sorted(samples)[max(math.ceil(p / 100 * n) - 1, 0)]}


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like on Ctrl-C: the running child is killed and
    # waited for, and the work dir is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "embalign" / "cli.py").is_file():
        print(f"error: no embalign sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    parts = WORKLOADS[args.workload]
    run_id = uuid.uuid4().hex
    work_dir = WORK / f"{args.workload}-{args.seed}-{run_id[:8]}"
    work_dir.mkdir(parents=True)
    try:
        trace_dir = work_dir / "spans"
        setups = []
        if args.trace:
            trace_dir.mkdir()
            setups.append(run_setup(args.workload, args.seed, work_dir, deadline,
                                    (trace_dir / "setup.json", run_id)))
        else:
            for _ in range(SETUP_REPS):
                setups.append(run_setup(args.workload, args.seed, work_dir, deadline))
        ops = sequence(args.workload, args.seed)
        reference: dict[int, str] = {}
        reps: list[list[OpResult]] = []
        measure_start = time.perf_counter()
        while True:
            reps.append(run_sequence(ops, work_dir, deadline, reference))
            now = time.perf_counter()
            last = sum(r.wall_s for r in reps[-1])
            if len(reps) >= MIN_REPS and now + last / 2 - measure_start >= args.seconds:
                break
            # stop short of the deadline; a traced run still owes one sequence
            if now + last * (2.5 if args.trace else 1.2) > deadline:
                break
        traced = []
        if args.trace:
            traced = run_sequence(ops, work_dir, deadline, reference, (trace_dir, run_id))
        errors = [e for rep in reps + [traced] for r in rep for e in r.errors]
        if any(s["digest"] != setups[0]["digest"] for s in setups):
            errors.append("set-up repetitions wrote different input files")
        attempted = sum(len(rep) for rep in reps) + len(traced)
        failed = sum(1 for rep in reps + [traced] for r in rep if r.errors)
        walls = [sum(r.wall_s for r in rep) for rep in reps]
        wall_s = statistics.median(walls)
        if args.trace:
            totals, spans = self_times(sorted(trace_dir.glob("*.json")))
            metrics = layer_metrics(totals, traced, sum(r.wall_s for r in traced), wall_s,
                                    setups[0]["wall_s"])
        else:
            spans = []
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "peak_rss_mb": {"value": max(r.rss_mb for rep in reps for r in rep),
                                "unit": "MB"},
                "setup_s": {"value": statistics.median(s["setup_s"] for s in setups),
                            "unit": "s"},
                "success_rate": {"value": 1.0 - failed / attempted, "unit": "fraction"},
            }
        detail = {
            "workload": args.workload,
            "work": {part: PARTS[part].work for part in parts},
            "world": {part: PARTS[part].world | {"seed": args.seed} for part in parts},
            "env": {
                "seed": args.seed,
                "blas_threads": BLAS_THREADS,
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": setups[0]["numpy"],
                "blas": setups[0]["blas"],
                "git_sha": git_sha(),
                "mem_cap_bytes": {part: PARTS[part].mem_cap for part in parts},
            },
            "wall_s": {"median": wall_s, "samples": len(walls), "values": walls,
                       "tail": tail_percentile(walls)},
            "setup_s": [s["setup_s"] for s in setups],
            "ops": [[{"command": r.command, "wall_s": r.wall_s, "rss_mb": r.rss_mb}
                     for r in rep] for rep in reps + ([traced] if traced else [])],
            "errors": errors,
            "run_s": time.perf_counter() - start,
        }
        results_dir = WORK / "results"
        results_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{run_id[:8]}"
        (results_dir / f"{stem}.json").write_text(json.dumps(detail | {"metrics": metrics}))
        if spans:
            (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
