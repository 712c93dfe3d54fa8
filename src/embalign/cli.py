"""Command-line front end.

Subcommands: ingest, fit, apply, verify, grid, sweep, attack, synth.
Machine-readable JSON goes to stdout; logs and errors go to stderr.
Exit status contract: 0 success, 1 io error or out of memory, 2
validation error.

grid, sweep, attack and synth read their JSON config with one reader,
``_read_config``, into a frozen dataclass that declares each key's type
and default: ``GridConfig``, ``SweepConfig``, ``AttackConfig``,
``synthetic.SynthSpec``. Unknown keys, missing required keys and values
not of the exact JSON type are validation errors naming the file and key;
ranges are checked by the library. Seed precedence: --seed flag > config
value (``null`` falls through) > EMBALIGN_SEED environment variable > 0.
A --jobs flag is accepted for symmetry with parallel runners; results are
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
import typing
from pathlib import Path

import numpy as np

from . import experiments, mapping, rng, store, synthetic, verification
from .errors import EmbAlignError, FileFormatError, ProtocolError

log = logging.getLogger("embalign")

SEED_ENV_VAR = "EMBALIGN_SEED"


@dataclasses.dataclass(frozen=True)
class ModelRef:
    """A config's model: an embeddings file and an optional new model id."""

    embeddings: Path
    id: str | None = None

    def load(self) -> store.EmbeddingSet:
        loaded = store.load_embeddings(self.embeddings)
        return loaded if self.id is None else dataclasses.replace(loaded, model_id=self.id)


@dataclasses.dataclass(frozen=True)
class GridConfig:
    manifest: Path
    models: tuple[ModelRef, ...]
    kinds: tuple[str, ...] = (mapping.LINEAR, mapping.ROTATION, mapping.IDENTITY)
    fars: tuple[float, ...] = experiments.DEFAULT_FARS
    enroll_fraction: float = 0.5
    impostor_pairs: int = 20000
    pairs: Path | None = None
    seed: int = 0


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    manifest: Path
    source: ModelRef
    target: ModelRef
    kinds: tuple[str, ...] = (mapping.LINEAR, mapping.ROTATION)
    # None: every power of two from 2 up to the enrollment size
    sample_counts: tuple[int, ...] | None = None
    repetitions: int = 3
    far: float = 1e-2
    enroll_fraction: float = 0.5
    impostor_pairs: int = 20000
    pairs: Path | None = None
    seed: int = 0


@dataclasses.dataclass(frozen=True)
class AttackConfig:
    manifest: Path
    unknown: ModelRef
    attacker: ModelRef
    enroll_pairs: int
    map_kind: str = mapping.ROTATION
    k_values: tuple[int, ...] = (1, 5, 10)
    seed: int = 0


def _typed(value, hint, path: Path, key: str = ""):
    """The JSON ``value`` as ``hint``: a dataclass, ``tuple[X, ...]``,
    ``X | None``, ``Path``, ``int``, ``float`` or ``str``. ``key`` names
    ``value``'s place in the file ``path`` in the error when it does not fit."""
    where = f"{path}: {key}: " if key else f"{path}: "
    if dataclasses.is_dataclass(hint):
        if type(value) is not dict:
            raise ValueError(f"{where}expected an object, got {value!r}")
        fields = {f.name: f for f in dataclasses.fields(hint)}
        for name in value:
            if name not in fields:
                raise ValueError(f"{where}unknown key {name!r}")
        for name, field in fields.items():
            if name not in value and field.default is dataclasses.MISSING:
                raise ValueError(f"{where}missing required key {name!r}")
        hints = typing.get_type_hints(hint)
        return hint(**{
            name: _typed(v, hints[name], path, f"{key}.{name}" if key else name)
            for name, v in value.items()
        })
    if type(None) in typing.get_args(hint):  # X | None
        return None if value is None else _typed(value, typing.get_args(hint)[0], path, key)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        if type(value) is not list:
            raise ValueError(f"{where}expected an array, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_typed(v, item, path, f"{key}[{i}]") for i, v in enumerate(value))
    if hint is Path:
        if type(value) is not str:
            raise ValueError(f"{where}config path must be a string, got {value!r}")
        return path.parent / value
    if hint is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return value  # an integer is a number too
    if hint is not float and type(value) is hint:
        return value
    name = {int: "an integer", float: "a finite number", str: "a string"}[hint]
    raise ValueError(f"{where}expected {name}, got {value!r}")


def _read_config(args, schema):
    """The UTF-8 JSON object in the file ``args.config`` as the dataclass
    ``schema``, its seed taken from --seed, the config, EMBALIGN_SEED or 0
    and checked by ``rng.check_seed``, naming where it came from."""
    path = Path(args.config)
    try:
        values = json.loads(path.read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if type(values) is not dict:
        raise ValueError(f"{path}: config must be a JSON object")
    seed = _typed(values.pop("seed", None), int | None, path, "seed")
    where = f"{path}: seed"
    if args.seed is not None:
        seed, where = args.seed, "--seed"
    elif seed is None:
        env, where = os.environ.get(SEED_ENV_VAR, "0"), SEED_ENV_VAR
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR}={env!r} is not an integer seed") from None
    _check_early(rng.check_seed, seed, where)
    return _typed(values | {"seed": seed}, schema, path)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _write_outputs(args, name: str, result, summary: dict) -> None:
    """Write ``result`` as --out's ``<name>.json`` and ``<name>.csv``; print ``summary``."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.json").write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
    with open(out_dir / f"{name}.csv", "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(result.csv_rows())
    _emit(summary | {"out": str(out_dir)})


def _parse_fars(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse FAR list {text!r}") from None


def _check_early(check, value, where: str) -> None:
    """Refuse ``value`` by the library's range ``check`` before any input
    is loaded, naming ``where`` it came from."""
    try:
        check(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def cmd_ingest(args) -> int:
    with open(args.source, newline="", encoding="utf-8") as f:
        rows = [(n, row) for n, row in enumerate(store.csv_rows(f, args.source), 1) if row]
    if rows and rows[0][1][0] == "media_id":
        rows = rows[1:]
    if not rows:
        vectors = np.zeros((0, 0), dtype=np.float32)
        media_ids: tuple[str, ...] = ()
    else:
        width = len(rows[0][1]) - 1
        if width < 1:
            raise ValueError("ingest rows need a media id plus vector components")
        for n, row in rows:
            if len(row) != width + 1:
                raise FileFormatError(f"{args.source}:{n}: {len(row) - 1} vector components, "
                                      f"but line {rows[0][0]} has {width}")
        media_ids = tuple(row[0] for _, row in rows)
        try:
            vectors = np.array(
                [[float(v) for v in row[1:]] for _, row in rows], dtype=np.float32
            )
        except ValueError as exc:
            raise ValueError(f"non-numeric vector component: {exc}") from None
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
    cond = report.condition_diagnostic  # JSON has no Infinity: it prints as null
    _emit(report.to_dict() | {"condition_diagnostic": cond if np.isfinite(cond or 0) else None})
    return 0


def cmd_apply(args) -> int:
    fitted = mapping.load_map(args.map)
    embeddings = store.load_embeddings(args.embeddings)
    count, dropped = mapping.save_mapped(fitted, embeddings, args.out)
    _emit(
        {
            "model_id": fitted.target_model_id,
            "count": count,
            "dropped": list(dropped),
            "out": str(args.out),
        }
    )
    return 0


def cmd_verify(args) -> int:
    fars = _parse_fars(args.far)
    _check_early(verification.check_fars, fars, "--far")
    side_a = store.load_embeddings(args.a)
    manifest = store.load_manifest(args.manifest)
    pairs = store.load_pairs(args.pairs, manifest)
    if args.map is not None:
        fitted = mapping.load_map(args.map)
        side_a = mapping.apply_map(fitted, side_a)
    plan = verification.EvalPlan(manifest, side_a.media_ids, pairs)
    del pairs  # the plan holds its codes
    templates_a = plan.templates(side_a)
    del side_a  # only its templates are scored; free it before side b is read
    # side b's templates are built and scored a chunk at a time
    scored = plan.score(templates_a, store.load_embeddings(args.b))
    report = verification.roc(scored, fars)
    if args.scores_out:
        verification.scores_to_csv(scored, args.scores_out)
    _emit(report.to_dict())
    return 0


def _split_and_pair(config, refs):
    """Load the manifest and split it by template, load or sample the
    evaluation pairs, then load each model and keep only its split (a
    loaded model's split holds its ids and offsets, and its rows are read
    by the experiment). Given pairs must name verification templates
    only, and sampled pairs take every genuine pair among them, so a list
    naming an enrollment template, or a split leaving no subject two
    verification templates, is refused before any model is read."""
    manifest = store.load_manifest(config.manifest)
    enroll_media, verify_media = experiments.split_by_template(
        manifest, config.enroll_fraction, config.seed
    )
    codes = np.unique(manifest.template_codes[manifest.rows_of(verify_media)])
    verify_templates = sorted(manifest.template_ids[c] for c in codes)
    if config.pairs is not None:
        pairs = store.load_pairs(config.pairs, manifest)
        verified = set(verify_templates)
        enrolled = next((t for t in pairs.template_ids if t not in verified), None)
        if enrolled is not None:
            raise ProtocolError(
                f"{config.pairs}: pair template {enrolled!r} is in the enrollment split; "
                "evaluation pairs must name verification templates only"
            )
    else:
        subjects = manifest.template_subjects[codes]
        if np.unique(subjects).size == subjects.size:
            raise ProtocolError(
                "no genuine pair to sample: no subject keeps two verification "
                f"templates at enroll_fraction {config.enroll_fraction}"
            )
        pairs = experiments.sample_eval_pairs(
            manifest, verify_templates, config.impostor_pairs, config.seed
        )
    split = []
    for ref in refs:
        full = ref.load()
        split.append((full.restrict(enroll_media), full.restrict(verify_media)))
        del full  # its ids go before the next model is loaded
    return manifest, split, pairs


def cmd_grid(args) -> int:
    config = _read_config(args, GridConfig)
    _check_early(verification.check_fars, config.fars, f"{Path(args.config)}: fars")
    _check_early(experiments.check_impostor_count, config.impostor_pairs,
                 f"{Path(args.config)}: impostor_pairs")
    manifest, split, pairs = _split_and_pair(config, config.models)
    result = experiments.run_grid(split, manifest, pairs, config.kinds, config.fars)
    _write_outputs(args, "grid", result, {"cells": len(result.cells), "seed": config.seed})
    return 0


def cmd_sweep(args) -> int:
    config = _read_config(args, SweepConfig)
    _check_early(verification.check_fars, [config.far], f"{Path(args.config)}: far")
    _check_early(experiments.check_impostor_count, config.impostor_pairs,
                 f"{Path(args.config)}: impostor_pairs")
    manifest, split, pairs = _split_and_pair(config, [config.source, config.target])
    counts = config.sample_counts
    if counts is None:
        counts = [2**k for k in range(1, len(split[0][0]).bit_length())]
    result = experiments.run_sweep(
        split[0], split[1], manifest, pairs, config.kinds, counts,
        config.repetitions, config.far, config.seed,
    )
    _write_outputs(args, "sweep", result, {"points": len(result.points), "seed": config.seed})
    return 0


def cmd_attack(args) -> int:
    config = _read_config(args, AttackConfig)
    manifest = store.load_manifest(config.manifest)
    unknown, attacker = config.unknown.load(), config.attacker.load()
    enroll_ids, gallery_ids, probe_ids = experiments.split_attack(
        unknown, attacker, manifest, config.enroll_pairs, config.seed
    )
    gallery = experiments.subject_gallery(attacker.restrict(gallery_ids), manifest)
    result = experiments.run_attack(
        unknown.restrict(enroll_ids), attacker.restrict(enroll_ids),
        unknown.restrict(probe_ids), gallery, manifest, config.map_kind, config.k_values,
    )
    _write_outputs(args, "attack", result, result.to_dict() | {"seed": config.seed})
    return 0


def cmd_synth(args) -> int:
    spec = _read_config(args, synthetic.SynthSpec)
    set_a, set_b, manifest, ground_truth = synthetic.generate_world(spec)
    if args.pairs_out:
        pairs = experiments.sample_eval_pairs(
            manifest, manifest.template_ids, args.impostor_pairs, spec.seed
        )
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
        ("synth", cmd_synth, "generate a synthetic world from a spec JSON"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)
    # synth's own flags; p is its parser
    p.add_argument("--pairs-out", default=None, help="also write an evaluation pair list")
    p.add_argument("--impostor-pairs", type=int, default=20000)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (EmbAlignError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
