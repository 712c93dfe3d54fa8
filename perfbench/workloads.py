"""The benchmark's workloads and their parts: world specs, input files,
the timed CLI command sequence of each part, and the checks on every
command's output.

A part is one synthetic world with the CLI commands run on it (`sweep`,
`attack`, `pipeline`); a workload runs one or more parts in order, each in
its own subdirectory of the work dir. Every input is derived from the
benchmark seed: each world uses it as its `SynthSpec.seed`, `sweep` and
`attack` pass it as `--seed`, and the `pipeline` pair list is drawn from a
Philox stream keyed on it.
Reference bands for the accuracy checks were measured on the seed commit
(see README.md); structural fields are checked exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

GB = 1 << 30

SWEEP_COUNTS = [8 << i for i in range(9)]  # 8 ... 2048
SWEEP_KINDS = ["linear", "rotation"]
SWEEP_REPS = 3
SWEEP_IMPOSTORS = 50_000

PIPELINE_GENUINE = 50_000
PIPELINE_IMPOSTORS = 150_000
PIPELINE_FARS = [1e-1, 1e-2, 1e-3, 1e-4]

ATTACK_ENROLL = 2000
ATTACK_KS = [1, 5, 10]

# Accuracy bands (low, high): the range over seeds at the seed commit,
# widened on each side by that range or 0.04, whichever is larger, and
# rounded outwards. The sweep bands come from seeds 1-40 and 205, the
# others from seeds 1-8. They pass through BLAS, so they are checked by
# tolerance, not by bytes.
_HIGH = (0.96, 1.0)
SWEEP_MEAN_TAR_BAND = {
    ("linear", 8): (0.53, 0.7), ("linear", 16): (0.92, 1.0),
    ("linear", 32): (0.95, 1.0), ("linear", 64): _HIGH,
    # m == dim: the square least-squares fit is at its worst conditioned,
    # and the mean TAR ranged from 0.32 to 1.0 over those seeds, so only
    # its range is checked here
    ("linear", 128): (0.0, 1.0),
    ("rotation", 8): (0.0, 0.13), ("rotation", 16): (0.09, 0.28),
    ("rotation", 32): (0.55, 0.76), ("rotation", 64): (0.95, 1.0),
    **{(kind, c): _HIGH for kind in SWEEP_KINDS for c in SWEEP_COUNTS if c >= 256},
    ("rotation", 128): _HIGH,
}
PIPELINE_TAR_BAND = {1e-1: (0.95, 1.0), 1e-2: (0.92, 1.0), 1e-3: (0.79, 0.9),
                     1e-4: (0.51, 0.77)}
ATTACK_RANK_BAND = {1: (0.49, 0.58), 5: (0.71, 0.81), 10: (0.78, 0.88)}


@dataclass(frozen=True)
class Op:
    """One CLI command of a part: its argv after `embalign`, the files it
    writes (relative to the part's directory, where it runs) and a check
    of its stdout and files."""

    part: str
    command: str
    args: list[str]
    outputs: list[str]
    check: Callable[[dict, dict[str, bytes]], list[str]]


@dataclass(frozen=True)
class Part:
    world: dict
    # RLIMIT_AS of every CLI process of the part, so a memory regression
    # fails the op instead of exhausting the machine. Measured VmPeak at
    # one BLAS thread: sweep 0.32 GB, pipeline 2.81 GB (verify), attack
    # 1.84 GB; the rest is headroom, including OpenBLAS's per-thread
    # buffers should the thread count be raised.
    mem_cap: int
    work: dict = field(default_factory=dict)


PARTS = {
    "sweep": Part(
        dict(dim=128, num_subjects=1000, media_per_subject=10, frames_per_video=3,
             within_class_noise=0.3, cross_model_noise=0.1, planted_kind="rotation"),
        mem_cap=1 * GB,
        work={"points": len(SWEEP_COUNTS) * len(SWEEP_KINDS) * SWEEP_REPS,
              "impostor_pairs": SWEEP_IMPOSTORS},
    ),
    "pipeline": Part(
        dict(dim=512, num_subjects=5000, media_per_subject=10,
             within_class_noise=2.0, cross_model_noise=0.5, planted_kind="rotation"),
        mem_cap=4 * GB,
        work={"media": 50_000, "pairs": PIPELINE_GENUINE + PIPELINE_IMPOSTORS},
    ),
    "attack": Part(
        dict(dim=128, num_subjects=3000, media_per_subject=10,
             within_class_noise=2.0, cross_model_noise=0.5, planted_kind="rotation"),
        mem_cap=3 * GB,
        work={"probes": 14_000, "gallery": 2800},
    ),
}

# Each workload's parts, run in this order. `experiments` evaluates one
# fixed protocol many times (sweep) and then ranks probes (attack), on two
# small 128-d worlds; `pipeline` is the one-shot fit/apply/verify run at
# large n.
WORKLOADS = {
    "experiments": ("sweep", "attack"),
    "pipeline": ("pipeline",),
}


def mem_cap(workload: str) -> int:
    """RLIMIT_AS of the workload's set-up: the largest cap of its parts."""
    return max(PARTS[part].mem_cap for part in WORKLOADS[workload])


def _band(errors: list[str], what: str, value: float, band) -> None:
    if not band[0] <= value <= band[1]:
        errors.append(f"{what} = {value!r} outside reference band {band}")


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


# -- input files ------------------------------------------------------------


def write_inputs(name: str, seed: int, work_dir: Path) -> None:
    """Generate the world and write every input file of a part.

    The set-ups of a workload's parts are the benchmark's set-up; the
    caller times them together as `setup_s`.
    """
    from embalign import SynthSpec, generate_world, save_embeddings, save_manifest

    spec = SynthSpec(seed=seed, **PARTS[name].world)
    set_a, set_b, manifest, _ = generate_world(spec)
    save_embeddings(set_a, work_dir / "model_a.cfeb")
    save_embeddings(set_b, work_dir / "model_b.cfeb")
    save_manifest(manifest, work_dir / "manifest.csv")
    common = {"manifest": "manifest.csv"}
    if name == "sweep":
        config = common | {
            "source": {"embeddings": "model_a.cfeb"},
            "target": {"embeddings": "model_b.cfeb"},
            "kinds": SWEEP_KINDS,
            "sample_counts": SWEEP_COUNTS,
            "repetitions": SWEEP_REPS,
            "impostor_pairs": SWEEP_IMPOSTORS,
            "far": 1e-2,
        }
        (work_dir / "sweep.json").write_text(json.dumps(config), encoding="utf-8")
    elif name == "attack":
        config = common | {
            "unknown": {"embeddings": "model_a.cfeb"},
            "attacker": {"embeddings": "model_b.cfeb"},
            "map_kind": "rotation",
            "enroll_pairs": ATTACK_ENROLL,
            "k_values": ATTACK_KS,
        }
        (work_dir / "attack.json").write_text(json.dumps(config), encoding="utf-8")
    else:
        _write_pipeline_pairs(spec, seed, work_dir / "pairs.csv")


def _write_pipeline_pairs(spec, seed: int, path: Path) -> None:
    """50k genuine pairs drawn from the 225k available plus 150k distinct
    impostor pairs, over the one-image templates `T_<media id>`.

    The benchmark writes this list itself because `synth --pairs-out`
    builds `np.triu_indices` over all 50k templates (about 20 GB).
    """
    import numpy as np

    per = spec.media_per_subject
    n = spec.num_subjects * per
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xBE7C]))
    ia, ib = np.triu_indices(per, k=1)
    per_subject = ia.size
    pick = np.sort(rng.choice(spec.num_subjects * per_subject, PIPELINE_GENUINE,
                              replace=False))
    subject, k = np.divmod(pick, per_subject)
    gen_a, gen_b = subject * per + ia[k], subject * per + ib[k]

    imp_a = np.empty(0, dtype=np.int64)
    imp_b = np.empty(0, dtype=np.int64)
    while imp_a.size < PIPELINE_IMPOSTORS:
        draw = rng.integers(0, n, size=(2, 2 * PIPELINE_IMPOSTORS))
        lo, hi = draw.min(axis=0), draw.max(axis=0)
        keep = lo // per != hi // per
        key = np.concatenate([imp_a * n + imp_b, lo[keep] * n + hi[keep]])
        _, first = np.unique(key, return_index=True)
        first.sort()
        key = key[first][:PIPELINE_IMPOSTORS]
        imp_a, imp_b = np.divmod(key, n)

    def tid(row):
        return f"T_s{row // per:05d}_m{row % per:03d}"

    lines = ["template_id_a,template_id_b"]
    lines += [f"{tid(a)},{tid(b)}" for a, b in zip(gen_a.tolist(), gen_b.tolist())]
    lines += [f"{tid(a)},{tid(b)}" for a, b in zip(imp_a.tolist(), imp_b.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- command sequences and output checks ------------------------------------


def _check_sweep(out: dict, files: dict[str, bytes]) -> list[str]:
    errors: list[str] = []
    _expect(errors, "sweep points (stdout)", out.get("points"),
            PARTS["sweep"].work["points"])
    result = json.loads(files["out/sweep/sweep.json"])
    points = result["points"]
    _expect(errors, "sweep points", len(points), PARTS["sweep"].work["points"])
    _expect(errors, "sweep kinds", sorted({p["kind"] for p in points}), SWEEP_KINDS)
    _expect(errors, "sweep counts", sorted({p["sample_count"] for p in points}),
            SWEEP_COUNTS)
    for m in result["means"]:
        key = (m["kind"], m["sample_count"])
        _band(errors, f"mean TAR {key}", m["mean_tar"], SWEEP_MEAN_TAR_BAND[key])
    return errors


def _check_attack(out: dict, files: dict[str, bytes]) -> list[str]:
    errors: list[str] = []
    result = json.loads(files["out/attack/attack.json"])
    _expect(errors, "gallery_size", result["gallery_size"],
            PARTS["attack"].work["gallery"])
    _expect(errors, "probe_count", result["probe_count"],
            PARTS["attack"].work["probes"])
    _expect(errors, "k values", sorted(int(k) for k in result["rank_k_accuracy"]),
            ATTACK_KS)
    for k, acc in result["rank_k_accuracy"].items():
        _band(errors, f"rank-{k}", acc, ATTACK_RANK_BAND[int(k)])
    return errors


def _check_fit(kind: str):
    def check(out: dict, files: dict[str, bytes]) -> list[str]:
        errors: list[str] = []
        _expect(errors, "fit kind", out.get("kind"), kind)
        _expect(errors, "fit samples", out.get("m"), PARTS["pipeline"].work["media"])
        dim = PARTS["pipeline"].world["dim"]
        size = len(files[f"{kind}.cfem"])
        if size < 8 * dim * dim:
            errors.append(f"{kind}.cfem holds {size} bytes, less than a {dim}x{dim} map")
        return errors

    return check


def _check_apply(out: dict, files: dict[str, bytes]) -> list[str]:
    errors: list[str] = []
    _expect(errors, "applied count", out.get("count"), PARTS["pipeline"].work["media"])
    _expect(errors, "applied dropped", out.get("dropped"), [])
    _expect(errors, "applied model id", out.get("model_id"), "B")
    return errors


def _check_verify(out: dict, files: dict[str, bytes]) -> list[str]:
    errors: list[str] = []
    _expect(errors, "genuine_count", out.get("genuine_count"), PIPELINE_GENUINE)
    _expect(errors, "impostor_count", out.get("impostor_count"), PIPELINE_IMPOSTORS)
    _expect(errors, "dropped_pairs", out.get("dropped_pairs"), 0)
    _expect(errors, "far_targets", out.get("far_targets"), PIPELINE_FARS)
    for far, tar in zip(PIPELINE_FARS, out.get("tar_at_far", [])):
        if far <= 1e-3 and not 0.0 < tar < 1.0:
            errors.append(f"TAR at FAR {far} = {tar!r} not strictly inside (0, 1)")
        _band(errors, f"TAR at FAR {far}", tar, PIPELINE_TAR_BAND[far])
    return errors


def part_sequence(name: str, seed: int) -> list[Op]:
    """The part's timed CLI commands, run in order from its directory."""
    if name == "sweep":
        return [Op(name, "sweep", ["sweep", "sweep.json", "--out", "out/sweep",
                                   "--seed", str(seed)],
                   ["out/sweep/sweep.json", "out/sweep/sweep.csv"], _check_sweep)]
    if name == "attack":
        return [Op(name, "attack", ["attack", "attack.json", "--out", "out/attack",
                                    "--seed", str(seed)],
                   ["out/attack/attack.json", "out/attack/attack.csv"], _check_attack)]
    fars = ",".join(repr(f) for f in PIPELINE_FARS)
    return [
        Op(name, "fit", ["fit", "model_a.cfeb", "model_b.cfeb", "--kind", "linear",
                         "--out", "linear.cfem"], ["linear.cfem"], _check_fit("linear")),
        Op(name, "fit", ["fit", "model_a.cfeb", "model_b.cfeb", "--kind", "rotation",
                         "--out", "rotation.cfem"], ["rotation.cfem"], _check_fit("rotation")),
        Op(name, "apply", ["apply", "rotation.cfem", "model_a.cfeb", "--out", "applied.cfeb"],
           ["applied.cfeb"], _check_apply),
        Op(name, "verify", ["verify", "applied.cfeb", "model_b.cfeb", "manifest.csv",
                            "pairs.csv", "--far", fars], [], _check_verify),
    ]

def sequence(workload: str, seed: int) -> list[Op]:
    """The workload's timed CLI commands: its parts' sequences in order."""
    return [op for part in WORKLOADS[workload] for op in part_sequence(part, seed)]
