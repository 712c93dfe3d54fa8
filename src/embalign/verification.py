"""Template aggregation, inner-product scoring, and TAR@FAR ROC analysis.

Template pipeline (per template):
    1. every media vector is L2-normalized;
    2. media sharing a video id are averaged into one feature, and the
       raw average is used as-is (not renormalized);
    3. image features and video-average features are summed;
    4. the sum is L2-normalized.

Media are taken in sorted id order, images before videos and videos in
sorted video-id order, and every sum adds left to right in that order, so
templates are bit-identical under any input row order.

An experiment evaluates one protocol (manifest, verification media, pair
list) at many points that differ only in the map. EvalPlan compiles that
protocol once, on the manifest's integer codes: one lexsort groups the
media rows into features and templates, and each pair side becomes a
template code with a genuine label from the codes' subjects. A point
then costs a few vectorised passes over the rows, and each side's pair
rows are read through ``store.float_chunks``, the one chunked float64
row reader, so scoring memory is bounded in the number of pairs. No
Python object is made per pair: ScoredPairs is a store.PairList over the
plan's codes, with one score and one genuine label per pair, so its
template ids are decoded only when read. build_templates and score_pairs
compile a plan for one call.

Templates take one float64 copy of the media rows: the rows are
normalized and summed in it when every template is one image in media
order, and otherwise each summing step gathers its rows. The template
set adopts the result, marked read-only, without copying it again.

Pairs are scored by the plain inner product, which equals cosine
similarity because templates are unit length. ROC analysis uses exact
counting with "score >= threshold accepts": for a FAR target f the
threshold is the smallest impostor score whose realized impostor
acceptance fraction stays <= f, so ties resolve conservatively and the
realized FAR never exceeds the target.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, DimensionError, ProtocolError, UnknownIdError
from .store import (
    DEGENERATE_NORM,
    UNIT_NORM_TOL,
    EmbeddingSet,
    MediaManifest,
    PairList,
    _decoded,
    _frozen_array,
    float_chunks,
    row_norms,
)

# row codes of a pair template that is not a row of the scored side
_UNKNOWN = -1
_DROPPED = -2


@dataclass(frozen=True)
class TemplateSet:
    """Unit-length aggregated template vectors keyed by template id.

    ``dropped`` lists template ids excluded because their feature sum was
    degenerate (all-zero); pairs referencing them are dropped downstream.
    """

    model_id: str
    template_ids: tuple[str, ...]
    subject_ids: tuple[str, ...]
    vectors: np.ndarray
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vecs.ndim != 2:
            raise DataError(f"template vectors must be 2-D, got {vecs.shape}")
        object.__setattr__(self, "vectors", _frozen_array(vecs))
        object.__setattr__(self, "template_ids", tuple(self.template_ids))
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))
        object.__setattr__(self, "dropped", tuple(self.dropped))
        n = vecs.shape[0]
        if len(self.template_ids) != n or len(self.subject_ids) != n:
            raise DataError("template ids, subject ids, and rows must align")
        if len(set(self.template_ids)) != n:
            raise DataError("duplicate template ids")
        if n:
            norms = row_norms(self.vectors)
            if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):
                raise DataError("template vectors must be unit length within 1e-6")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.template_ids)

    def index_of(self, template_id: str) -> int:
        try:
            return self._index[template_id]
        except AttributeError:
            index = {tid: i for i, tid in enumerate(self.template_ids)}
            object.__setattr__(self, "_index", index)
            return index[template_id]


@dataclass(frozen=True, init=False, eq=False)
class ScoredPairs(PairList):
    """A ``PairList`` with one inner-product score and one genuine/impostor
    label per pair, and the count of pairs dropped before scoring.

    The coding of the pairs, ``coded`` (which takes ``scores``,
    ``genuine`` and ``dropped_pairs`` as keywords), iteration and the
    self-pair check are the pair list's; the constructor takes each
    side's template ids.
    """

    scores: np.ndarray
    genuine: np.ndarray
    dropped_pairs: int = 0

    def __init__(self, template_ids_a, template_ids_b, scores, genuine, dropped_pairs=0):
        ids_a, ids_b = tuple(template_ids_a), tuple(template_ids_b)
        if len(ids_a) != len(ids_b):
            raise DataError("scored pair fields must have equal length")
        pairs = PairList(zip(ids_a, ids_b))
        self._adopt(pairs.template_ids, pairs.codes_a, pairs.codes_b,
                    scores=scores, genuine=genuine, dropped_pairs=dropped_pairs)

    def _adopt_fields(self, scores, genuine, dropped_pairs=0) -> None:
        object.__setattr__(self, "scores", _frozen_array(scores, np.float64))
        object.__setattr__(self, "genuine", _frozen_array(genuine, bool))
        object.__setattr__(self, "dropped_pairs", dropped_pairs)
        if not len(self) == self.scores.shape[0] == self.genuine.shape[0]:
            raise DataError("scored pair fields must have equal length")
        if not np.all(np.isfinite(self.scores)):
            raise DataError("scores contain non-finite values")


@dataclass(frozen=True)
class RocReport:
    """TAR at each requested FAR, with the thresholds that realized them."""

    far_targets: tuple[float, ...]
    tar_at_far: tuple[float, ...]
    thresholds: tuple[float, ...]
    genuine_count: int
    impostor_count: int
    dropped_pairs: int = 0

    def __post_init__(self):
        object.__setattr__(self, "far_targets", tuple(float(f) for f in self.far_targets))
        object.__setattr__(self, "tar_at_far", tuple(float(t) for t in self.tar_at_far))
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        if not (len(self.far_targets) == len(self.tar_at_far) == len(self.thresholds)):
            raise DataError("report fields must have equal length")
        for t in self.tar_at_far:
            if not 0.0 <= t <= 1.0:
                raise DataError(f"TAR {t} outside [0, 1]")
        ordered = sorted(zip(self.far_targets, self.tar_at_far))
        for (_, lo), (_, hi) in zip(ordered, ordered[1:]):
            if hi < lo:
                raise DataError("TAR must be non-decreasing in FAR")

    def tar(self, far_target: float) -> float:
        return self.tar_at_far[self.far_targets.index(float(far_target))]

    def to_dict(self) -> dict:
        return asdict(self)


def _read_only(values: np.ndarray) -> np.ndarray:
    """A fresh array marked read-only, so a frozen result adopts it."""
    values.setflags(write=False)
    return values


def _normalized(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 copy of the rows scaled to unit length, and which rows are
    usable; a row with norm below DEGENERATE_NORM becomes zero."""
    rows = vectors.astype(np.float64)
    norms = row_norms(rows)
    ok = norms >= DEGENERATE_NORM
    rows[~ok] = 0.0
    rows /= np.where(ok, norms, 1.0)[:, None]
    return rows, ok


def _ordered_sums(values: np.ndarray, members: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Row g is the left-to-right sum of values[members[starts[g]:starts[g + 1]]].

    Every sum has the bits of adding the group's rows in order onto +0.0,
    as ``np.sum(axis=0)`` does over the stacked rows (a lone -0.0 sums to
    +0.0). When every group has a row, each starts from its first row,
    and adding +0.0 in place maps -0.0 as the zero start does; if those
    first rows are all of ``values`` in order, every group holds one row
    and the sums are made in ``values`` itself, with no gather. The other
    positions add in one vectorised pass each; positions every group has
    add onto the whole accumulator, with no index over the groups.
    """
    first = starts[:-1]
    sizes = np.diff(starts)
    shared = int(sizes.min()) if sizes.size else 0
    if shared:
        heads = members[first]
        if heads.size == len(values) and np.array_equal(heads, np.arange(heads.size)):
            acc = values
        else:
            acc = values[heads]
        acc += 0.0
    else:
        acc = np.zeros((sizes.size, values.shape[1]))
    for j in range(1, shared):
        acc += values[members[first + j]]
    for j in range(shared, int(sizes.max(initial=0))):
        live = np.flatnonzero(sizes > j)
        acc[live] += values[members[first[live] + j]]
    return acc


class _Grouping:
    """The rows of one media order grouped into features and templates.

    Templates are in sorted id order. Within a template, its features
    are its images by media id, then its videos by video id; a video's
    frames are listed by media id. One lexsort on the manifest's sorted
    ranks of those ids gives that order. Rows that ``usable`` marks False
    take no part; a template left without features keeps its place.
    """

    def __init__(self, media_ids, manifest: MediaManifest, usable=None):
        media = manifest.rows_of(media_ids)
        template_rank = manifest.template_rank[manifest.template_codes[media]]
        ranks = np.unique(template_rank)
        self.template_codes = np.argsort(manifest.template_rank)[ranks]
        live = np.arange(media.size) if usable is None else np.flatnonzero(usable)
        media, template_rank = media[live], template_rank[live]
        video = manifest.video_codes[media]
        is_video = video >= 0
        media_rank = manifest.media_rank[media]
        # a -1 video code reads the appended 0, which np.where then discards
        video_rank = np.append(manifest.video_rank, 0)[video]
        feature_key = np.where(is_video, video_rank, media_rank)
        order = np.lexsort((media_rank, feature_key, is_video, template_rank))
        self.rows = live[order]
        keys = (template_rank[order], is_video[order], feature_key[order])
        first = np.zeros(order.size, dtype=bool)
        first[:1] = True
        for key in keys:
            first[1:] |= key[1:] != key[:-1]
        self.feature_starts = np.append(np.flatnonzero(first), order.size)
        feature_template = np.searchsorted(ranks, keys[0][first])
        self.template_starts = np.searchsorted(
            feature_template, np.arange(ranks.size + 1)
        )

    def sums(self, normalized: np.ndarray) -> np.ndarray:
        """Per template, the sum of its features in order; zero when it has
        none. A feature is the mean of its frames: an image is a one-frame
        feature, and x / 1 is x. ``normalized`` is scratch: when every
        feature and template holds one row in order, the sums are made in
        it."""
        features = _ordered_sums(normalized, self.rows, self.feature_starts)
        features /= np.diff(self.feature_starts)[:, None]
        return _ordered_sums(features, np.arange(len(features)), self.template_starts)


class EvalPlan:
    """One verification protocol, compiled once and evaluated many times.

    Compiled for a manifest, the media order of the verification set and
    a pair list: it holds the media-to-video-to-template grouping as row
    arrays, and each pair side as an int32 template code: the manifest's
    code, or a code past the manifest's templates for an id it lacks.
    Genuine labels come from the codes' subjects. Experiments evaluate
    every point, which differ only in the map, through one plan; each
    template set's row per code is resolved once and cached on the set.
    """

    def __init__(self, manifest: MediaManifest, media_ids, pairs: PairList):
        self._manifest = manifest
        self._media_ids = tuple(media_ids)
        self._grouping = _Grouping(self._media_ids, manifest)
        known = manifest.template_code
        extra = [tid for tid in pairs.template_ids if tid not in known]
        self._extra = {tid: len(known) + k for k, tid in enumerate(extra)}
        self._template_ids = manifest.template_ids + tuple(extra)
        table = self._codes_of(pairs.template_ids)
        self._side_a = _read_only(table[pairs.codes_a])
        self._side_b = _read_only(table[pairs.codes_b])
        subjects = np.append(manifest.template_subjects, np.full(len(extra), -1))
        self._genuine = _read_only(subjects[self._side_a] == subjects[self._side_b])

    def _codes_of(self, template_ids) -> np.ndarray:
        """The plan's code of each id, or -1 for an id it does not know."""
        known, extra = self._manifest.template_code, self._extra
        codes = (known.get(tid, extra.get(tid, -1)) for tid in template_ids)
        return np.fromiter(codes, np.int32, len(template_ids))

    def templates(self, embeddings: EmbeddingSet) -> TemplateSet:
        """``build_templates(embeddings, manifest)``. The compiled grouping
        serves a set with the compiled media order and no degenerate row;
        any other set is grouped afresh."""
        normalized, usable = _normalized(embeddings.vectors)
        grouping = self._grouping
        if embeddings.media_ids != self._media_ids or not usable.all():
            grouping = _Grouping(embeddings.media_ids, self._manifest, usable)
        totals = grouping.sums(normalized)
        del normalized  # frees the rows x dim copy, unless the sums are in it
        # one np.dot per row is what np.linalg.norm computes for one vector,
        # so each norm matches it bit for bit; a vectorised row norm does not
        norms = np.sqrt(np.fromiter(map(np.dot, totals, totals), float, len(totals)))
        keep = norms >= DEGENERATE_NORM
        vectors = totals if keep.all() else totals[keep]
        vectors /= norms[keep, None]
        vectors.setflags(write=False)
        manifest = self._manifest
        codes = grouping.template_codes
        return TemplateSet(
            model_id=embeddings.model_id,
            template_ids=_decoded(manifest.template_ids, codes[keep]),
            subject_ids=_decoded(manifest.subject_ids,
                                 manifest.template_subjects[codes[keep]]),
            vectors=vectors,
            dropped=_decoded(manifest.template_ids, codes[~keep]),
        )

    def _rows_in(self, side: TemplateSet) -> np.ndarray:
        """Per plan code: its row in ``side``, else _DROPPED or _UNKNOWN.
        Cached on ``side`` for this plan."""
        cached = side.__dict__.get("_plan_rows")
        if cached is not None and cached[0] is self:
            return cached[1]
        rows = np.full(len(self._template_ids), _UNKNOWN, dtype=np.int32)
        codes = self._codes_of(side.template_ids)
        rows[codes[codes >= 0]] = np.flatnonzero(codes >= 0)
        codes = self._codes_of(side.dropped)
        rows[codes[codes >= 0]] = _DROPPED
        object.__setattr__(side, "_plan_rows", (self, rows))
        return rows

    def _raise_unknown(self, p: int, row_a: np.ndarray, row_b: np.ndarray):
        ta, tb = self._template_ids[self._side_a[p]], self._template_ids[self._side_b[p]]
        if row_a[p] == _UNKNOWN:
            raise UnknownIdError(f"template {ta!r} not in side-a set")
        if row_b[p] == _UNKNOWN:
            raise UnknownIdError(f"template {tb!r} not in side-b set")
        missing = tb if ta in self._manifest.template_code else ta
        raise UnknownIdError(f"template {missing!r} not in manifest")

    def score(self, a: TemplateSet, b: TemplateSet) -> ScoredPairs:
        """``score_pairs(a, b, pairs, manifest)`` over the compiled pairs,
        gathered and scored in the chunks of ``float_chunks``: memory is
        2 x chunk x dim floats. No per-pair Python object is made: the
        result holds the plan's codes."""
        if a.dim != b.dim:
            raise DimensionError(f"template dimensions differ: {a.dim} vs {b.dim}")
        side_a, side_b = self._side_a, self._side_b
        row_a = self._rows_in(a)[side_a]
        row_b = self._rows_in(b)[side_b]
        keep = (row_a != _DROPPED) & (row_b != _DROPPED)
        in_manifest = np.maximum(side_a, side_b) < len(self._manifest.template_ids)
        bad = keep & ((row_a < 0) | (row_b < 0) | ~in_manifest)
        if bad.any():
            self._raise_unknown(int(np.argmax(bad)), row_a, row_b)
        genuine = self._genuine
        if not keep.all():
            kept = np.flatnonzero(keep)
            row_a, row_b = row_a[kept], row_b[kept]
            side_a, side_b, genuine = (_read_only(x[kept]) for x in (side_a, side_b, genuine))
        scores = np.empty(row_a.size)
        chunks = zip(float_chunks(a.vectors, row_a), float_chunks(b.vectors, row_b))
        for (rows, chunk_a), (_, chunk_b) in chunks:
            scores[rows] = np.einsum("ij,ij->i", chunk_a, chunk_b)
        return ScoredPairs.coded(
            self._template_ids, side_a, side_b, scores=_read_only(scores), genuine=genuine,
            dropped_pairs=self._side_a.size - row_a.size,
        )


def build_templates(embeddings: EmbeddingSet, manifest: MediaManifest) -> TemplateSet:
    """Aggregate media embeddings into unit-length templates.

    Only templates with at least one medium present in the set appear in
    the output. Media are processed in sorted id order (and videos in
    sorted video-id order) so the result is bit-identical regardless of
    the input row order. A template whose feature sum is all-zero is
    excluded and reported via ``dropped``.
    """
    plan = EvalPlan(manifest, embeddings.media_ids, PairList())
    return plan.templates(embeddings)


def score_pairs(
    a: TemplateSet,
    b: TemplateSet,
    pairs: PairList,
    manifest: MediaManifest,
) -> ScoredPairs:
    """Inner-product scores for each pair, side a against side b.

    Pair order is preserved. Pairs referencing templates that were
    dropped as degenerate on either side are skipped and counted in
    ``dropped_pairs``; ids unknown to both the set and its dropped list
    raise UnknownIdError.
    """
    return EvalPlan(manifest, (), pairs).score(a, b)


def scores_to_csv(scored: ScoredPairs, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["template_id_a", "template_id_b", "score", "genuine"])
        for (a, b), s, g in zip(scored, scored.scores, scored.genuine):
            writer.writerow([a, b, repr(float(s)), str(bool(g)).lower()])


def check_fars(far_targets) -> list[float]:
    """The FAR targets as floats; ValueError unless there is at least one
    and each lies in (0, 1]."""
    fars = [float(f) for f in far_targets]
    if not fars:
        raise ValueError("far_targets must be non-empty")
    for f in fars:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"FAR target {f} outside (0, 1]")
    return fars


def roc(scored: ScoredPairs, far_targets) -> RocReport:
    """TAR at each FAR target by exact counting, no interpolation.

    For target f the threshold is the smallest impostor score t with
    (#{impostor >= t} / impostor_count) <= f; when even the largest
    impostor score exceeds the budget the threshold is placed just above
    it, giving a realized FAR of zero. TAR is the fraction of genuine
    scores >= t.
    """
    fars = check_fars(far_targets)
    gen = np.sort(scored.scores[scored.genuine])
    imp = np.sort(scored.scores[~scored.genuine])
    if imp.size == 0:
        raise ProtocolError("ROC analysis needs at least one impostor pair")
    if gen.size == 0:
        raise ProtocolError("ROC analysis needs at least one genuine pair")
    # the distinct impostor scores are the starts of the sorted runs
    first = np.flatnonzero(np.r_[True, imp[1:] != imp[:-1]])
    values = imp[first]
    realized_far = (imp.size - first) / imp.size
    thresholds: list[float] = []
    tars: list[float] = []
    for f in fars:
        admissible = realized_far <= f
        if admissible.any():
            t = float(values[int(np.argmax(admissible))])
        else:
            t = float(np.nextafter(values[-1], np.inf))
        accepted = gen.size - int(np.searchsorted(gen, t, side="left"))
        thresholds.append(t)
        tars.append(accepted / gen.size)
    return RocReport(
        far_targets=tuple(fars),
        tar_at_far=tuple(tars),
        thresholds=tuple(thresholds),
        genuine_count=int(gen.size),
        impostor_count=int(imp.size),
        dropped_pairs=scored.dropped_pairs,
    )
