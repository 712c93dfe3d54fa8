"""Experiment orchestration: cross-model grids, sample-count sweeps, and
the gallery re-identification attack.

All experiments enforce fit/eval hygiene structurally. Grid and sweep
share one split check (enrollment media, used to fit maps, and
verification media, used to build evaluated templates, are disjoint and
the same for every model) and one map-evaluation step (fit, map,
templates, score, ROC) through one EvalPlan. The attack's paired
enrollment must be disjoint from its probes.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields
from itertools import compress, product, repeat

import numpy as np

from .errors import DataError, ProtocolError, UnknownIdError
from .mapping import MappingMatrix, _shared_fits, apply_map, check_kinds, fit, mapped_chunks
from .rng import Purpose, stream
from .store import EmbeddingSet, MediaManifest, PairList, piece_rows, score_pieces
from .verification import EvalPlan, TemplateSet, build_templates, roc

DEFAULT_FARS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
DIAGONAL_KIND = "unmapped"

@dataclass(frozen=True)
class GridCell:
    source: str
    target: str
    kind: str
    fit_sample_count: int
    tars: tuple[float, ...]


@dataclass(frozen=True)
class GridResult:
    """A cell per (source, target, kind). Its JSON is its fields, and its
    CSV a row per cell and FAR: the cell's fields but ``tars``, then
    ``far`` and ``tar``."""

    far_targets: tuple[float, ...]
    cells: tuple[GridCell, ...]

    def cell(self, source: str, target: str, kind: str) -> GridCell:
        for c in self.cells:
            if (c.source, c.target, c.kind) == (source, target, kind):
                return c
        raise KeyError((source, target, kind))

    def tar(self, source: str, target: str, kind: str, far: float) -> float:
        return self.cell(source, target, kind).tars[
            self.far_targets.index(float(far))
        ]

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[list]:
        names = [f.name for f in fields(GridCell) if f.name != "tars"]
        rows = [names + ["far", "tar"]]
        for c in self.cells:
            values = [getattr(c, name) for name in names]
            rows.extend(values + [far, tar] for far, tar in zip(self.far_targets, c.tars))
        return rows


@dataclass(frozen=True)
class SweepPoint:
    kind: str
    sample_count: int
    repetition: int
    tar: float


@dataclass(frozen=True)
class SweepResult:
    """A point per (kind, sample count, repetition). Its JSON is its
    fields plus ``means``, the mean TAR of each kind and count; its CSV a
    row of fields per point."""

    far_target: float
    repetitions: int
    points: tuple[SweepPoint, ...]

    def mean_tar(self, kind: str, sample_count: int) -> float:
        tars = [p.tar for p in self.points if (p.kind, p.sample_count) == (kind, sample_count)]
        if not tars:
            raise KeyError((kind, sample_count))
        return float(np.mean(tars))

    def to_dict(self) -> dict:
        kinds = sorted({p.kind for p in self.points})
        counts = sorted({p.sample_count for p in self.points})
        means = [{"kind": k, "sample_count": c, "mean_tar": self.mean_tar(k, c)}
                 for k in kinds for c in counts]
        return asdict(self) | {"means": means}

    def csv_rows(self) -> list[list]:
        return [[f.name for f in fields(SweepPoint)]] + [list(astuple(p)) for p in self.points]


@dataclass(frozen=True)
class AttackResult:
    gallery_size: int
    probe_count: int
    rank_k_accuracy: dict[int, float]

    def to_dict(self) -> dict:
        # a JSON object's keys are strings
        accuracy = {str(k): v for k, v in sorted(self.rank_k_accuracy.items())}
        return asdict(self) | {"rank_k_accuracy": accuracy}

    def csv_rows(self) -> list[list]:
        return [["k", "accuracy"]] + [list(kv) for kv in sorted(self.rank_k_accuracy.items())]


def split_by_template(
    manifest: MediaManifest, enroll_fraction: float, seed: int
) -> tuple[frozenset[str], frozenset[str]]:
    """Disjoint (enrollment, verification) media sets, split by template.

    The split is stratified per subject so every subject keeps templates
    on both sides where possible; all media of a template land on the
    same side, which keeps evaluated templates free of fit media.
    """
    if not 0.0 < enroll_fraction < 1.0:
        raise ValueError("enroll_fraction must be in (0, 1)")
    owner = manifest.subject_rank[manifest.template_subjects]
    # template codes subject by subject in sorted order, each by template id
    order = np.lexsort((manifest.template_rank, owner))
    sizes = np.bincount(owner, minlength=len(manifest.subject_ids))
    enrolled = np.zeros(len(manifest.template_ids), dtype=bool)
    for i, (start, n) in enumerate(zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist())):
        picked = stream(seed, Purpose.SPLIT, i).permutation(n)
        n_enroll = min(max(int(round(enroll_fraction * n)), 1), n - 1) if n > 1 else 0
        enrolled[order[start + picked[:n_enroll]]] = True
    side = enrolled[manifest.template_codes]
    return (frozenset(compress(manifest.media_ids, side.tolist())),
            frozenset(compress(manifest.media_ids, (~side).tolist())))


def _genuine_pairs(subjects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position pair (i, j), i < j, with equal ``subjects`` codes,
    listed subject by subject."""
    order = np.argsort(subjects, kind="stable")
    grouped = subjects[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    sizes = np.diff(np.append(starts, grouped.size))
    # each position's partners are the later positions of its subject
    partners = np.repeat(starts + sizes, sizes) - 1 - np.arange(grouped.size)
    first = np.repeat(np.arange(grouped.size) + 1, partners)
    offset = np.arange(first.size) - np.repeat(np.cumsum(partners) - partners, partners)
    return np.repeat(order, partners), order[first + offset]


def _triangle_pairs(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j), i < j < n, at each row-major ``index`` of the strict
    upper triangle of an n x n matrix. Counted from the last row, row u
    holds u + 1 pairs; each index's u comes from a float64 square root,
    off by at most one, then corrected exactly in integers."""
    back = n * (n - 1) // 2 - 1 - index
    u = ((np.sqrt(8 * back + 1) - 1) // 2).astype(np.int64)
    u -= u * (u + 1) // 2 > back
    u += (u + 1) * (u + 2) // 2 <= back
    i = n - 2 - u
    return i, i + 1 + u - (back - u * (u + 1) // 2)


def check_impostor_count(n_impostor: int) -> None:
    """ValueError for a negative impostor pair count."""
    if n_impostor < 0:
        raise ValueError(f"impostor pair count must be >= 0, got {n_impostor}")


def sample_eval_pairs(
    manifest: MediaManifest,
    template_ids,
    n_impostor: int,
    seed: int,
) -> PairList:
    """All genuine pairs among the given templates plus a uniform sample
    of impostor pairs without replacement.

    Candidate pairs (i, j), i < j, of the sorted templates are ranked in
    row-major order of the upper triangle; genuine pairs come first, in
    that order, then the sampled impostors in that order. The impostor
    sample draws ranks among the non-genuine candidates and maps each to
    its triangle index between the genuine ones, so no pair array over all
    candidates is built. The draw itself, ``Generator.choice`` without
    replacement, builds one int64 per candidate when more than 1/50 of
    them are taken: at most 400 bytes per requested impostor. ValueError
    for a negative ``n_impostor``.
    """
    check_impostor_count(n_impostor)
    templates = sorted(template_ids)
    known = manifest.template_code
    for tid in templates:
        if tid not in known:
            raise UnknownIdError(f"template {tid!r} not in manifest")
    for tid, following in zip(templates, templates[1:]):
        if tid == following:
            raise DataError(f"self-pair {tid!r}")
    n = len(templates)
    subjects = manifest.template_subjects[np.fromiter(map(known.__getitem__, templates),
                                                      np.intp, n)]
    gen_a, gen_b = _genuine_pairs(subjects)
    # row-major triangle index of each genuine pair
    triangle = gen_a * n - gen_a * (gen_a + 1) // 2 + gen_b - gen_a - 1
    order = np.argsort(triangle)
    side_a, side_b, triangle = [gen_a[order]], [gen_b[order]], triangle[order]
    candidates = n * (n - 1) // 2 - triangle.size
    if n_impostor > 0 and candidates:
        take = min(n_impostor, candidates)
        rng = stream(seed, Purpose.PAIRS)
        chosen = rng.choice(candidates, size=take, replace=False)
        chosen.sort()
        # rank k's index is k plus the genuine indices below it: those with
        # at most k non-genuine indices before them
        chosen += np.searchsorted(triangle - np.arange(triangle.size), chosen, "right")
        imp_a, imp_b = _triangle_pairs(chosen, n)
        side_a.append(imp_a)
        side_b.append(imp_b)
    return PairList.coded(templates, np.concatenate(side_a), np.concatenate(side_b))


def _check_splits(models) -> None:
    """Each (enrollment, verification) pair comes from one model, every
    model has the same two media sets, and the two sets are disjoint."""
    enroll_ids = set(models[0][0].media_ids)
    verify_ids = set(models[0][1].media_ids)
    for enroll, verify in models:
        if enroll.model_id != verify.model_id:
            raise ValueError(
                f"split model ids differ: {enroll.model_id!r} vs {verify.model_id!r}"
            )
        if set(enroll.media_ids) != enroll_ids or set(verify.media_ids) != verify_ids:
            raise ProtocolError("models must share enrollment and verification splits")
    overlap = enroll_ids & verify_ids
    if overlap:
        raise ProtocolError(
            f"enrollment and verification splits overlap on {len(overlap)} media"
        )


def _tars(plan: EvalPlan, source: TemplateSet, target: TemplateSet, fars):
    """TAR at each FAR target of ``source`` scored against ``target``."""
    return roc(plan.score(source, target), fars).tar_at_far


def _mapped_tars(plan: EvalPlan, fitted: MappingMatrix, verify_source: EmbeddingSet,
                 target: TemplateSet, fars):
    """One map evaluation: map the source's verification media with the
    map ``fitted`` on the paired enrollment, and score their templates
    against ``target``."""
    mapped = plan.templates(apply_map(fitted, verify_source))
    return _tars(plan, mapped, target, fars)


def run_grid(
    models,
    manifest: MediaManifest,
    pairs: PairList,
    kinds,
    fars=DEFAULT_FARS,
) -> GridResult:
    """TAR grid over every ordered model pair and map kind.

    ``models`` is a sequence of (enrollment, verification) EmbeddingSet
    tuples sharing the same enrollment media and the same verification
    media across models. Diagonal cells are single-model evaluations of
    the unmapped verification embeddings, computed once regardless of the
    requested kinds; off-diagonal cells fit on the enrollment split and
    evaluate source-mapped templates against target templates. Every
    cell is evaluated through one EvalPlan, and each split set's rows are
    read into one array once (``EmbeddingSet.in_memory``), as every row of
    cells reads them again. A source's row of cells fits
    from shared statistics (``mapping._shared_fits``): each ordered pair's
    X^T Y, ||X||^2 and ||Y||^2 serve every kind, and the source's X^T X
    and its eigendecomposition every target, held only while the row runs;
    each map has the bits ``fit`` gives.
    """
    models = list(models)
    if not models:
        raise ValueError("run_grid needs at least one model")
    kinds = check_kinds(kinds)
    fars = tuple(float(f) for f in fars)
    _check_splits(models)
    ids = [enroll.model_id for enroll, _ in models]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate model ids in grid: {ids}")
    # every cell reads its models' rows again: read each split's file once
    models = [(enroll.in_memory(), verify.in_memory()) for enroll, verify in models]

    plan = EvalPlan(manifest, models[0][1].media_ids, pairs)
    templates = [plan.templates(verify) for _, verify in models]
    cells = [
        GridCell(ids[i], ids[i], DIAGONAL_KIND, 0, _tars(plan, t, t, fars))
        for i, t in enumerate(templates)
    ]
    for i, (enroll_i, verify_i) in enumerate(models):
        targets = [j for j in range(len(models)) if j != i]
        fits = _shared_fits(kinds, enroll_i, [models[j][0] for j in targets])
        for (j, kind), (fitted, _) in zip(product(targets, kinds), fits):
            tars = _mapped_tars(plan, fitted, verify_i, templates[j], fars)
            cells.append(GridCell(ids[i], ids[j], kind, fitted.fit_sample_count, tars))
    return GridResult(far_targets=fars, cells=tuple(cells))


def run_sweep(
    model_a,
    model_b,
    manifest: MediaManifest,
    pairs: PairList,
    kinds,
    sample_counts,
    repetitions: int,
    far: float,
    seed: int = 0,
) -> SweepResult:
    """Map quality versus enrollment sample count.

    For each (kind, count, repetition) a fresh uniform subset of the
    enrollment media is drawn without replacement from the stream keyed
    on seed and (repetition << 32) | count, the map is fit on the subset,
    and TAR at ``far`` is evaluated on the full verification split
    through one EvalPlan shared by every point. Every point reads the
    enrollment sets and the source's verification set again, so their
    rows are read into arrays once (``EmbeddingSet.in_memory``); the
    target's verification templates are built once.
    """
    enroll_a, verify_a = model_a
    enroll_b, verify_b = model_b
    _check_splits([model_a, model_b])
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    kinds = check_kinds(kinds)
    counts = [int(c) for c in sample_counts]
    enroll_ids = sorted(enroll_a.media_ids)
    for c in counts:
        if not 1 <= c <= len(enroll_ids):
            raise ValueError(
                f"sample count {c} outside [1, {len(enroll_ids)}] enrollment media"
            )

    # every point reads these rows again: read each from its file once
    enroll_a, enroll_b, verify_a = (s.in_memory() for s in (enroll_a, enroll_b, verify_a))
    plan = EvalPlan(manifest, verify_a.media_ids, pairs)
    target = plan.templates(verify_b)
    points: list[SweepPoint] = []
    for kind, count, rep in product(kinds, counts, range(repetitions)):
        rng = stream(seed, Purpose.SWEEP, (rep << 32) | count)
        picked = rng.choice(len(enroll_ids), size=count, replace=False)
        subset = [enroll_ids[i] for i in picked]
        fitted, _ = fit(kind, enroll_a.restrict(subset), enroll_b.restrict(subset))
        tars = _mapped_tars(plan, fitted, verify_a, target, [far])
        points.append(SweepPoint(kind, count, rep, tars[0]))
    return SweepResult(
        far_target=float(far), repetitions=repetitions, points=tuple(points)
    )


def split_attack(
    unknown: EmbeddingSet,
    attacker: EmbeddingSet,
    manifest: MediaManifest,
    enroll_pairs: int,
    seed: int,
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """Subject-disjoint (enrollment, gallery, probe) media for ``run_attack``.

    Over the media both models embed, shuffled subjects fill the paired
    enrollment until it holds ``enroll_pairs`` media. Each other subject
    puts the first half of its media (rounded up) in the gallery and the
    rest in the probes. With no enrollment subject among the probes, a
    chance-level control stays at chance: the map cannot memorize
    per-subject correspondences for the probe population.
    """
    media = sorted(set(unknown.media_ids) & set(attacker.media_ids))
    if enroll_pairs < 1 or enroll_pairs >= len(media):
        raise ValueError(
            f"enroll_pairs must be at least 1 and below the {len(media)} media "
            "both models embed"
        )
    ranks = manifest.subject_rank[manifest.subject_codes[manifest.rows_of(media)]]
    # owner: each medium's subject among those present, in sorted order
    _, owner, sizes = np.unique(ranks, return_inverse=True, return_counts=True)
    shuffled = stream(seed, Purpose.ATTACK).permutation(sizes.size)
    # subjects fill the enrollment in shuffled order until it holds enroll_pairs
    cut = int(np.searchsorted(np.cumsum(sizes[shuffled]), enroll_pairs)) + 1
    if cut >= sizes.size:
        raise ValueError("enroll_pairs leaves no subjects for gallery and probes")
    place = np.empty_like(shuffled)
    place[shuffled] = np.arange(sizes.size)
    enrolled = place[owner] < cut
    # each medium's position among its subject's media, which are in id order
    by_owner = np.argsort(owner, kind="stable")
    within = np.empty_like(owner)
    within[by_owner] = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    in_gallery = within < (sizes[owner] + 1) // 2
    return (
        frozenset(list(compress(media, enrolled.tolist()))[:enroll_pairs]),
        frozenset(compress(media, (~enrolled & in_gallery).tolist())),
        frozenset(compress(media, (~enrolled & ~in_gallery).tolist())),
    )


def subject_gallery(embeddings: EmbeddingSet, manifest: MediaManifest) -> TemplateSet:
    """One template per subject, aggregating all of a subject's media.

    Builds a synthetic manifest whose template ids are the subject ids
    and runs the standard template pipeline over it.
    """
    subjects = manifest.subject_ids
    codes = manifest.subject_codes[manifest.rows_of(embeddings.media_ids)]
    by_subject = MediaManifest(
        (mid, subjects[s], subjects[s], None)
        for mid, s in zip(embeddings.media_ids, codes.tolist())
    )
    return build_templates(embeddings, by_subject)


def _first_hits(scores: np.ndarray, probe_codes: np.ndarray, gallery_codes: np.ndarray,
                work: np.ndarray, ahead: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each probe's 0-based rank of its first true-subject gallery entry,
    in the order a stable sort of -scores gives (+0.0 and -0.0 tie).
    Scores must be finite and every probe code must be in the gallery.
    ``work`` is float scratch of the shape of ``scores``, and ``ahead``
    and ``mask`` bool scratch of that shape."""
    np.equal(gallery_codes, probe_codes[:, None], out=mask)
    work.fill(-np.inf)
    np.copyto(work, scores, where=mask)
    best = work.argmax(axis=1)
    best_score = scores[np.arange(len(best)), best][:, None]
    # ahead: tied at a lower gallery index, or scoring higher
    np.equal(scores, best_score, out=ahead)
    ahead &= np.less(np.arange(scores.shape[1]), best[:, None], out=mask)
    ahead |= np.greater(scores, best_score, out=mask)
    return np.count_nonzero(ahead, axis=1)


def run_attack(
    unknown_enroll: EmbeddingSet,
    attacker_enroll: EmbeddingSet,
    probes: EmbeddingSet,
    gallery: TemplateSet,
    manifest: MediaManifest,
    map_kind: str,
    k_values,
) -> AttackResult:
    """Gallery re-identification of embeddings from an unknown model.

    Fits a map from the unknown model's space into the attacker's space
    on the paired enrollment, maps each probe, ranks the gallery by inner
    product, and reports rank-k accuracy: the fraction of probes whose
    true subject appears within the top k gallery entries.

    Ranking counts instead of sorting. Gallery entries are ordered by
    descending score, ties broken by lower gallery index; a probe's first
    hit is its best-scoring entry of the true subject (the lowest index
    among equal scores), and its rank is the number of entries scoring
    higher plus those scoring equal at a lower index. The gallery may
    hold several templates per subject. Probes are mapped a chunk at a
    time by ``mapping.mapped_chunks``, and each chunk's kept probes are
    scored and ranked a ``store.score_pieces`` piece at a time, into
    scratch allocated once: memory past the gallery is a mapped chunk and
    a piece's scores and ranking scratch, whatever the numbers of probes
    and gallery entries. The first probe, in probe order, whose subject
    the manifest lacks (UnknownIdError) or the gallery lacks
    (ProtocolError) stops the attack.
    """
    shared = set(unknown_enroll.media_ids) & set(attacker_enroll.media_ids)
    if not shared:
        raise ValueError("attack requires at least one paired enrollment embedding")
    overlap = shared & set(probes.media_ids)
    if overlap:
        raise ProtocolError(
            f"paired enrollment overlaps probe media on {len(overlap)} ids"
        )
    ks = sorted({int(k) for k in k_values})
    if not ks:
        raise ValueError("k_values must be non-empty")
    if ks[0] < 1 or ks[-1] > len(gallery):
        raise ValueError(f"k values must lie in [1, {len(gallery)}]")

    mapping, _ = fit(map_kind, unknown_enroll, attacker_enroll)
    chunks = mapped_chunks(mapping, probes)
    code = {sid: i for i, sid in enumerate(manifest.subject_ids)}
    # a gallery subject the manifest lacks takes a code no probe has
    gallery_codes = np.array([code.get(sid, len(code)) for sid in gallery.subject_ids])
    # -1 for a probe the manifest lacks
    subject_codes = np.append(manifest.subject_codes, -1)
    # float and bool scratch for the longest piece, shared by every piece,
    # so the peak does not depend on where the allocator places them
    scores = np.empty((min(piece_rows(len(gallery)), len(probes)), len(gallery)))
    work = np.empty_like(scores)
    ahead, mask = np.empty((2, *scores.shape), dtype=bool)
    hits = np.zeros(len(ks), dtype=np.int64)
    ranked = 0
    for rows, chunk, keep in chunks:
        kept = np.flatnonzero(keep)
        media = list(compress(probes.media_ids[rows], keep.tolist()))
        probe_codes = subject_codes[
            np.fromiter(map(manifest.media_row.get, media, repeat(-1)), np.intp, len(media))
        ]
        failing = ~np.isin(probe_codes, gallery_codes)
        if failing.any():
            i = int(failing.argmax())
            # the first failing probe decides: UnknownIdError if the manifest lacks it
            manifest.rows_of(media[i : i + 1])
            sid = manifest.subject_ids[probe_codes[i]]
            raise ProtocolError(f"probe subject {sid!r} absent from gallery")
        for piece in score_pieces(kept.size, len(gallery)):
            k = piece.stop - piece.start
            np.matmul(chunk[kept[piece]], gallery.vectors.T, out=scores[:k])
            first_hit = _first_hits(scores[:k], probe_codes[piece], gallery_codes,
                                    work[:k], ahead[:k], mask[:k])
            hits += np.count_nonzero(first_hit[:, None] < ks, axis=0)
        ranked += kept.size
    if not ranked:
        raise ValueError("no probes survived mapping")
    return AttackResult(
        gallery_size=len(gallery),
        probe_count=ranked,
        rank_k_accuracy={k: hit / ranked for k, hit in zip(ks, hits.tolist())},
    )
