"""In-memory spans around calls into embalign's public functions.

`instrument(tracer)` rebinds each traced function at every name it is
reachable through inside the `embalign` package (module attributes and
the by-value imports of `embalign.experiments` alike), so the CLI's own
call paths are traced without touching the package source. Spans share
the run id, carry a parent link and are written out once, at the end.

Span names are the per-layer metric prefixes: `<module>.<function>`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

MB = 1e6


def _load_counts(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / MB}


def _save_counts(args, kwargs, result):
    return {"mb": os.path.getsize(args[1]) / MB}


def _fit_counts(args, kwargs, result):
    return {"samples": result[1].m}


def _apply_counts(args, kwargs, result):
    return {"rows": len(result), "dropped": len(result.dropped)}


def _templates_counts(args, kwargs, result):
    return {"media": len(args[0]), "templates": len(result), "dropped": len(result.dropped)}


def _score_counts(args, kwargs, result):
    # two float64 gathers of (pairs, dim) before the einsum
    dim = args[0].dim
    return {"pairs": len(result), "dropped_pairs": result.dropped_pairs,
            "gather_mb_computed": len(result) * dim * 16 / MB}


def _roc_counts(args, kwargs, result):
    return {"scores": result.genuine_count + result.impostor_count}


def _candidates_counts(args, kwargs, result):
    # np.triu_indices(n, k=1) over the given templates
    n = len(args[1])
    return {"candidate_pairs_computed": n * (n - 1) // 2}


def _attack_counts(args, kwargs, result):
    import numpy as np

    # per (probe, gallery) cell: float64 score, int64 argsort index, the
    # gathered subject string and the bool match
    itemsize = 8 + 8 + np.array(args[3].subject_ids).dtype.itemsize + 1
    return {"rank_mb_computed": result.probe_count * result.gallery_size * itemsize / MB}


def _len_counts(args, kwargs, result):
    return {"rows": len(result)}


def _align_counts(args, kwargs, result):
    return {"rows": result[0].shape[0]}


# (module, attribute, counts) of every traced library function
TRACED = [
    ("store", "load_embeddings", _load_counts),
    ("store", "save_embeddings", _save_counts),
    ("store", "load_manifest", None),
    ("store", "load_pairs", _len_counts),
    ("store", "align_pairs", _align_counts),
    ("mapping", "fit_linear", _fit_counts),
    ("mapping", "fit_rotation", _fit_counts),
    ("mapping", "apply_map", _apply_counts),
    ("mapping", "load_map", None),
    ("verification", "build_templates", _templates_counts),
    ("verification", "score_pairs", _score_counts),
    ("verification", "roc", _roc_counts),
    ("experiments", "run_sweep", None),
    ("experiments", "sample_eval_pairs", _candidates_counts),
    ("experiments", "split_by_template", None),
    ("experiments", "subject_gallery", None),
    ("experiments", "run_attack", _attack_counts),
    ("synthetic", "generate_world", None),
]
CLI_COMMANDS = ["fit", "apply", "verify", "sweep", "attack"]


class Tracer:
    def __init__(self, run_id: str, process: str):
        self.run_id = run_id
        self.process = process
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> dict:
        span = {"run": self.run_id, "process": self.process, "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None, "name": name,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function, and the CLI commands, at all their names."""
    import embalign.cli as cli
    from embalign.store import EmbeddingSet

    modules = [m for n, m in sys.modules.items() if n == "embalign" or n.startswith("embalign.")]
    for module_name, attr, counts in TRACED:
        original = getattr(sys.modules[f"embalign.{module_name}"], attr)
        traced = tracer.wrap(f"{module_name}.{attr}", original, counts)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, traced)
    EmbeddingSet.restrict = tracer.wrap("store.EmbeddingSet.restrict", EmbeddingSet.restrict)
    for command in CLI_COMMANDS:
        name = f"cmd_{command}"
        setattr(cli, name, tracer.wrap(f"cli.{command}", getattr(cli, name)))
