"""Command-line front end.

Subcommands: ingest, fit, apply, verify, grid, sweep, attack, synth.
Machine-readable JSON goes to stdout; logs and errors go to stderr.
Exit status contract: 0 success, 1 io error, 2 validation error.

Seed precedence: --seed flag > config file value > EMBALIGN_SEED
environment variable > 0, for every command that takes a seed (synth
included). A seed outside [0, 2**64) is a validation error. A --jobs
flag is accepted for symmetry with parallel runners; results are
independent of its value.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, mapping, store, synthetic, verification
from .errors import EmbAlignError, ProtocolError

log = logging.getLogger("embalign")

SEED_ENV_VAR = "EMBALIGN_SEED"


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _parse_fars(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse FAR list {text!r}") from None


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return args.seed
    seed = config.get("seed")
    if seed is not None:
        if type(seed) is not int:
            raise ValueError(f"config seed must be an integer, got {seed!r}")
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    return 0 if env is None else int(env)


def _load_config(path) -> tuple[dict, Path]:
    cfg_path = Path(path)
    try:
        config = json.loads(cfg_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config, cfg_path.parent


def _cfg_path(base: Path, value) -> Path:
    if not isinstance(value, str):
        raise ValueError(f"config path must be a string, got {value!r}")
    p = Path(value)
    return p if p.is_absolute() else base / p


def _require(config: dict, key: str, what: str):
    if key not in config:
        raise ValueError(f"{what} config missing required key {key!r}")
    return config[key]


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)


def cmd_ingest(args) -> int:
    with open(args.source, newline="", encoding="utf-8") as f:
        rows = [row for row in store.csv_rows(f, args.source) if row]
    if rows and rows[0] and rows[0][0] == "media_id":
        rows = rows[1:]
    if not rows:
        vectors = np.zeros((0, 0), dtype=np.float32)
        media_ids: tuple[str, ...] = ()
    else:
        width = len(rows[0]) - 1
        if width < 1:
            raise ValueError("ingest rows need a media id plus vector components")
        media_ids = tuple(r[0] for r in rows)
        try:
            vectors = np.array(
                [[float(v) for v in r[1:]] for r in rows], dtype=np.float32
            )
        except ValueError as exc:
            raise ValueError(f"non-numeric vector component: {exc}") from None
        if vectors.shape[1] != width:
            raise ValueError("inconsistent vector widths in ingest input")
    embeddings = store.EmbeddingSet(
        model_id=args.model_id, media_ids=media_ids, vectors=vectors
    )
    store.save_embeddings(embeddings, args.out)
    _emit(
        {
            "model_id": embeddings.model_id,
            "dim": embeddings.dim,
            "count": len(embeddings),
            "out": str(args.out),
        }
    )
    return 0


def cmd_fit(args) -> int:
    source = store.load_embeddings(args.source)
    target = store.load_embeddings(args.target)
    fitted, report = mapping.fit(args.kind, source, target)
    mapping.save_map(fitted, args.out)
    log.info("wrote %s map to %s", fitted.kind, args.out)
    _emit(report.to_dict())
    return 0


def cmd_apply(args) -> int:
    fitted = mapping.load_map(args.map)
    embeddings = store.load_embeddings(args.embeddings)
    mapped = mapping.apply_map(fitted, embeddings)
    store.save_embeddings(mapped, args.out)
    _emit(
        {
            "model_id": mapped.model_id,
            "count": len(mapped),
            "dropped": list(mapped.dropped),
            "out": str(args.out),
        }
    )
    return 0


def cmd_verify(args) -> int:
    side_a = store.load_embeddings(args.a)
    side_b = store.load_embeddings(args.b)
    manifest = store.load_manifest(args.manifest)
    pairs = store.load_pairs(args.pairs, manifest)
    if args.map is not None:
        fitted = mapping.load_map(args.map)
        side_a = mapping.apply_map(fitted, side_a)
    plan = verification.EvalPlan(manifest, side_a.media_ids, pairs)
    scored = plan.score(plan.templates(side_a), plan.templates(side_b))
    report = verification.roc(scored, _parse_fars(args.far))
    if args.scores_out:
        verification.scores_to_csv(scored, args.scores_out)
    _emit(report.to_dict())
    return 0


def _load_model_entry(entry: dict, base: Path, what: str) -> store.EmbeddingSet:
    path = _cfg_path(base, _require(entry, "embeddings", what))
    embeddings = store.load_embeddings(path)
    if "id" in entry:
        embeddings = dataclasses.replace(embeddings, model_id=str(entry["id"]))
    return embeddings


def _split_and_pair(models, config, base, manifest, seed):
    """Split every model by template and load or sample the evaluation
    pairs; sampled pairs take every genuine pair among the verification
    templates, so a split that leaves no subject two of them is refused
    here, where its cause is known."""
    enroll_fraction = float(config.get("enroll_fraction", 0.5))
    enroll_media, verify_media = experiments.split_by_template(
        manifest, enroll_fraction, seed
    )
    split = [
        (full.restrict(enroll_media), full.restrict(verify_media)) for full in models
    ]
    if "pairs" in config:
        return split, store.load_pairs(_cfg_path(base, config["pairs"]), manifest)
    verify_templates = sorted(
        {
            manifest.by_media[mid].template_id
            for mid in verify_media
            if mid in manifest.by_media
        }
    )
    subjects = [manifest.template_subject[tid] for tid in verify_templates]
    if len(set(subjects)) == len(subjects):
        raise ProtocolError(
            "no genuine pair to sample: no subject keeps two verification "
            f"templates at enroll_fraction {enroll_fraction}"
        )
    n_impostor = int(config.get("impostor_pairs", 20000))
    return split, experiments.sample_eval_pairs(
        manifest, verify_templates, n_impostor, seed
    )


def cmd_grid(args) -> int:
    config, base = _load_config(args.config)
    seed = _resolve_seed(args, config)
    manifest = store.load_manifest(_cfg_path(base, _require(config, "manifest", "grid")))
    model_entries = _require(config, "models", "grid")
    models = [_load_model_entry(e, base, "grid model") for e in model_entries]
    kinds = config.get("kinds", [mapping.LINEAR, mapping.ROTATION, mapping.IDENTITY])
    fars = [float(f) for f in config.get("fars", experiments.DEFAULT_FARS)]
    split, pairs = _split_and_pair(models, config, base, manifest, seed)
    result = experiments.run_grid(split, manifest, pairs, kinds, fars)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "grid.json").write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
    _write_csv(out_dir / "grid.csv", result.csv_rows())
    _emit({"cells": len(result.cells), "out": str(out_dir), "seed": seed})
    return 0


def cmd_sweep(args) -> int:
    config, base = _load_config(args.config)
    seed = _resolve_seed(args, config)
    manifest = store.load_manifest(_cfg_path(base, _require(config, "manifest", "sweep")))
    source = _load_model_entry(_require(config, "source", "sweep"), base, "sweep source")
    target = _load_model_entry(_require(config, "target", "sweep"), base, "sweep target")
    kinds = config.get("kinds", [mapping.LINEAR, mapping.ROTATION])
    far = float(config.get("far", 1e-2))
    repetitions = int(config.get("repetitions", 3))
    split, pairs = _split_and_pair([source, target], config, base, manifest, seed)
    enroll_size = len(split[0][0])
    if "sample_counts" in config:
        counts = [int(c) for c in config["sample_counts"]]
    else:
        counts = []
        c = 2
        while c <= enroll_size:
            counts.append(c)
            c *= 2
    result = experiments.run_sweep(
        split[0], split[1], manifest, pairs, kinds, counts, repetitions, far, seed
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.json").write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
    _write_csv(out_dir / "sweep.csv", result.csv_rows())
    _emit({"points": len(result.points), "out": str(out_dir), "seed": seed})
    return 0


def cmd_attack(args) -> int:
    config, base = _load_config(args.config)
    seed = _resolve_seed(args, config)
    manifest = store.load_manifest(_cfg_path(base, _require(config, "manifest", "attack")))
    unknown = _load_model_entry(_require(config, "unknown", "attack"), base, "attack unknown")
    attacker = _load_model_entry(
        _require(config, "attacker", "attack"), base, "attack attacker"
    )
    map_kind = config.get("map_kind", mapping.ROTATION)
    enroll_pairs = int(_require(config, "enroll_pairs", "attack"))
    k_values = [int(k) for k in config.get("k_values", [1, 5, 10])]

    enroll_ids, gallery_ids, probe_ids = experiments.split_attack(
        unknown, attacker, manifest, enroll_pairs, seed
    )
    gallery = experiments.subject_gallery(attacker.restrict(gallery_ids), manifest)
    result = experiments.run_attack(
        unknown.restrict(enroll_ids),
        attacker.restrict(enroll_ids),
        unknown.restrict(probe_ids),
        gallery,
        manifest,
        map_kind,
        k_values,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "attack.json").write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
    rows = [["k", "accuracy"]]
    rows += [[k, repr(v)] for k, v in sorted(result.rank_k_accuracy.items())]
    _write_csv(out_dir / "attack.csv", rows)
    _emit(result.to_dict() | {"out": str(out_dir), "seed": seed})
    return 0


def cmd_synth(args) -> int:
    config, _ = _load_config(args.config)
    spec = synthetic.SynthSpec.from_dict(config | {"seed": _resolve_seed(args, config)})
    set_a, set_b, manifest, ground_truth = synthetic.generate_world(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "model_a": out_dir / "model_a.cfeb",
        "model_b": out_dir / "model_b.cfeb",
        "manifest": out_dir / "manifest.csv",
    }
    store.save_embeddings(set_a, paths["model_a"])
    store.save_embeddings(set_b, paths["model_b"])
    store.save_manifest(manifest, paths["manifest"])
    summary = {k: str(v) for k, v in paths.items()}
    if ground_truth is not None:
        gt_path = out_dir / "ground_truth.cfem"
        mapping.save_map(ground_truth, gt_path)
        summary["ground_truth"] = str(gt_path)
    else:
        summary["ground_truth"] = None
    if args.pairs_out:
        pairs = experiments.sample_eval_pairs(
            manifest, manifest.template_subject.keys(), args.impostor_pairs, spec.seed
        )
        store.save_pairs(pairs, args.pairs_out)
        summary["pairs"] = str(args.pairs_out)
    summary["media_count"] = len(set_a)
    summary["seed"] = spec.seed
    _emit(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embalign",
        description="Fit and evaluate maps between embedding spaces.",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="log more to stderr"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker count hint; results are independent of it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert an embeddings CSV to .cfeb")
    p.add_argument("source", help="CSV of media_id followed by vector components")
    p.add_argument("--model-id", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit a map between two embedding files")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--kind", required=True, choices=mapping.MAP_KINDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("apply", help="apply a map file to an embedding file")
    p.add_argument("map")
    p.add_argument("embeddings")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("verify", help="template verification ROC over a pair list")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("manifest")
    p.add_argument("pairs")
    p.add_argument("--map", default=None, help="map a's space into b's before scoring")
    p.add_argument("--far", default="1e-1,1e-2,1e-3,1e-4,1e-5,1e-6")
    p.add_argument("--scores-out", default=None)
    p.set_defaults(func=cmd_verify)

    for name, func, help_text in (
        ("grid", cmd_grid, "cross-model TAR grid from a JSON config"),
        ("sweep", cmd_sweep, "sample-count sensitivity sweep from a JSON config"),
        ("attack", cmd_attack, "gallery re-identification attack from a JSON config"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("synth", help="generate a synthetic world from a spec JSON")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pairs-out", default=None, help="also write an evaluation pair list")
    p.add_argument("--impostor-pairs", type=int, default=20000)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except (EmbAlignError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
