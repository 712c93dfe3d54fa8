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
then costs a few vectorised passes over the rows, and pairs are scored a
piece of ``store.pair_chunks`` at a time, each piece's rows taken
straight from the two float64 template matrices, so scoring memory is
bounded in the number of pairs and a piece's rows stay in cache. No
Python object is made per pair: ScoredPairs is a store.PairList over the
plan's codes, with one score and one genuine label per pair, so its
template ids are decoded only when read. build_templates and score_pairs
compile a plan for one call.

Templates are built a chunk at a time: whole templates covering at most
one gather block of media (``store.group_chunks``), or one larger
template on its own. A chunk's rows are gathered as float64 into one
buffer by ``store.float_chunks``, the one row reader, made unit length
in it by ``store.unit_rows``, and summed in it when every feature and
template is one row, else each summing step gathers its rows; so a set
is read once. A chunk divides its feature sums by their usable rows only
when some feature has more than one: dividing by 1 moves no bit. Every
side of a plan is a source of blocks of templates: a held template set
is one block; an embedding set's blocks are its chunks, built one at a
time, or its tiles (``store.template_tiles``), each collected from its
chunks into one buffer. ``templates`` is one tile of every template,
which the template set adopts without copying it again, its degenerate
templates compacted out in place. ``score`` is a block nested-loop join:
it holds side a one tile at a time and walks side b's chunks once per
tile, so its memory is bounded by a tile, not by side a's templates.
Every template row and every pair's score is computed on its own, so
each has the same bits however the rows are chunked or tiled.

Pairs are scored by the plain inner product, which equals cosine
similarity because templates are unit length. ROC analysis uses exact
counting with "score >= threshold accepts": for a FAR target f the
threshold is the smallest impostor score whose realized impostor
acceptance fraction stays <= f, so ties resolve conservatively and the
realized FAR never exceeds the target.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .errors import DataError, DimensionError, ProtocolError, UnknownIdError
from .store import (
    DEGENERATE_NORM,
    EmbeddingSet,
    MediaManifest,
    PairList,
    _decoded,
    _frozen_array,
    float_chunks,
    group_chunks,
    kept_rows,
    pair_chunks,
    template_tiles,
    unit_length,
    unit_rows,
    write_pair_csv,
)

log = logging.getLogger(__name__)

# row codes of a pair template that is not a row of the scored side
_UNKNOWN = -1
_DROPPED = -2


@dataclass(frozen=True, eq=False)
class TemplateSet:
    """Unit-length aggregated template vectors keyed by template id.

    ``dropped`` lists template ids excluded because their feature sum was
    degenerate (all-zero); pairs referencing them are dropped downstream.
    No id is listed twice, kept or dropped. A set equals only itself.
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
        if len(set(self.template_ids + self.dropped)) != n + len(self.dropped):
            raise DataError("duplicate template ids, kept or dropped")
        if not unit_length(self.vectors):
            raise DataError("template vectors must be unit length within 1e-6")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.template_ids)


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


def _ordered_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Row g is the left-to-right sum of values[starts[g]:starts[g + 1]].

    Every sum has the bits of adding the group's rows in order onto +0.0,
    as ``np.sum(axis=0)`` does over them (a lone -0.0 sums to +0.0). When
    every group has a row, each starts from its first row, and adding +0.0
    in place maps -0.0 as the zero start does; when every group holds one
    row, the sums are made in ``values`` itself, with no gather. The other
    positions add in one vectorised pass each; positions every group has
    add onto the whole accumulator, with no index over the groups.
    """
    first = starts[:-1]
    sizes = np.diff(starts)
    shared = int(sizes.min()) if sizes.size else 0
    if shared:
        acc = values if first.size == len(values) else values[first]
        acc += 0.0
    else:
        acc = np.zeros((sizes.size, values.shape[1]))
    for j in range(1, shared):
        acc += values[first + j]
    for j in range(shared, int(sizes.max(initial=0))):
        live = np.flatnonzero(sizes > j)
        acc[live] += values[first[live] + j]
    return acc


def _timed(walk, *args):
    """The tiles of ``walk(*args)``, logging once they end the seconds
    spent building them and the mean seconds the caller spent on each, a
    pass over side b."""
    built = passed = 0.0
    count = 0
    start = time.perf_counter()
    for tile in walk(*args):
        made = time.perf_counter()
        built += made - start
        yield tile
        start = time.perf_counter()
        passed += start - made
        count += 1
    built += time.perf_counter() - start
    log.info("side a tiles built in %.3f s; each pass over side b took %.3f s",
             built, passed / max(count, 1))


class _Grouping:
    """The rows of one media order grouped into features and templates.

    Templates are in sorted id order. Within a template, its features
    are its images by media id, then its videos by video id; a video's
    frames are listed by media id. One lexsort on the manifest's sorted
    ranks of those ids gives that order.
    """

    def __init__(self, media_ids, manifest: MediaManifest):
        media = manifest.rows_of(media_ids)
        template_rank = manifest.template_rank[manifest.template_codes[media]]
        ranks = np.unique(template_rank)
        self.template_codes = np.argsort(manifest.template_rank)[ranks]
        video = manifest.video_codes[media]
        is_video = video >= 0
        media_rank = manifest.media_rank[media]
        # a -1 video code reads the appended 0, which np.where then discards
        video_rank = np.append(manifest.video_rank, 0)[video]
        feature_key = np.where(is_video, video_rank, media_rank)
        self.rows = order = np.lexsort((media_rank, feature_key, is_video, template_rank))
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

    def chunks(self, vectors: np.ndarray, tile: slice = slice(None)):
        """Per chunk of whole templates of ``tile`` (``store.group_chunks``),
        its rows gathered by ``store.float_chunks``: ``(templates, totals,
        keep)``, the slice of templates, each one's sum of features, and
        which sums have a norm of at least DEGENERATE_NORM; those are scaled
        to unit length. A feature is the mean of its usable frames as
        ``unit_rows`` leaves them (a degenerate row is +0.0 and adds
        nothing); an image is a one-frame feature. ``totals`` is the gather
        buffer when every feature and template holds one row, so it is valid
        until the next chunk is taken."""
        feature_starts = self.feature_starts
        first, stop, _ = tile.indices(self.template_starts.size - 1)
        template_starts = self.template_starts[first : stop + 1]
        media_starts = feature_starts[template_starts]
        groups = group_chunks(media_starts)
        media = [slice(int(media_starts[g.start]), int(media_starts[g.stop])) for g in groups]
        del media_starts  # 8 bytes a template, not to be held while the chunks are built
        for templates, (_, rows) in zip(groups, float_chunks(vectors, self.rows, media)):
            features = template_starts[templates.start : templates.stop + 1]
            starts = feature_starts[features[0] : features[-1] + 1] - feature_starts[features[0]]
            usable = np.diff(np.append(0, np.cumsum(unit_rows(rows)))[starts])
            sums = _ordered_sums(rows, starts)
            if usable.max(initial=0) > 1:
                # a feature of one usable row, or none, is its sum: dividing
                # it by 1 moves no bit, so a chunk of such features skips it
                sums /= np.maximum(usable, 1)[:, None]
            totals = _ordered_sums(sums, features - features[0])
            # a stack of 1 x d @ d x 1 products runs one dot per row, which
            # is what np.linalg.norm computes for one vector, so each norm
            # matches it bit for bit; a vectorised row norm does not
            lengths = np.sqrt(np.matmul(totals[:, None, :], totals[:, :, None]).ravel())
            keep = lengths >= DEGENERATE_NORM
            totals /= np.where(keep, lengths, 1.0)[:, None]
            yield slice(first + templates.start, first + templates.stop), totals, keep

    def tiles(self, vectors: np.ndarray, slices: list[slice]):
        """Per slice of templates in ``slices``, ``(tile, totals, keep)``: its
        ``chunks`` collected into one buffer that holds the longest tile,
        reused for every tile, so a tile is valid until the next is taken;
        a tile as long as the buffer is the buffer itself."""
        longest = max(tile.stop - tile.start for tile in slices)
        buffer, kept = np.empty((longest, vectors.shape[1])), np.empty(longest, dtype=bool)
        for tile in slices:
            n = tile.stop - tile.start
            totals = buffer if n == longest else buffer[:n]
            for templates, chunk, keep in self.chunks(vectors, tile):
                rows = slice(templates.start - tile.start, templates.stop - tile.start)
                totals[rows], kept[rows] = chunk, keep
                del chunk  # a view of the gather buffer, which goes with the chunks
            yield tile, totals, kept[:n]


class EvalPlan:
    """One verification protocol, compiled once and evaluated many times.

    Compiled for a manifest, the media order of the verification set and
    a pair list: it holds the media-to-video-to-template grouping as row
    arrays, and each pair side as an int32 template code from one
    id-to-code dict: the manifest's code, or a code past the manifest's
    templates for an id it lacks.
    Genuine labels come from the codes' subjects. Experiments evaluate
    every point, which differ only in the map, through one plan.
    ``verify`` scores both sides' embeddings through it without building
    either side's template set.
    """

    def __init__(self, manifest: MediaManifest, media_ids, pairs: PairList):
        self._manifest = manifest
        self._media_ids = tuple(media_ids)
        self._grouping = _Grouping(self._media_ids, manifest)
        code = manifest.template_code
        extra = [tid for tid in pairs.template_ids if tid not in code]
        if extra:
            # a new dict: the manifest's is shared, and copying it always
            # would hold a second dict of every template id
            code = code | dict(zip(extra, range(len(code), len(code) + len(extra))))
        self._code = code
        self._template_ids = manifest.template_ids + tuple(extra)
        table = self._codes_of(pairs.template_ids)
        self._side_a = _read_only(table[pairs.codes_a])
        self._side_b = _read_only(table[pairs.codes_b])
        subjects = np.append(manifest.template_subjects, np.full(len(extra), -1))
        self._genuine = _read_only(subjects[self._side_a] == subjects[self._side_b])

    def _codes_of(self, template_ids) -> np.ndarray:
        """The plan's code of each id, or -1 for an id it does not know."""
        return np.fromiter(map(self._code.get, template_ids, repeat(-1)), np.int32,
                           len(template_ids))

    def _grouping_of(self, embeddings: EmbeddingSet) -> _Grouping:
        """The compiled grouping for a set in the compiled media order, else
        the set's own."""
        if embeddings.media_ids == self._media_ids:
            return self._grouping
        return _Grouping(embeddings.media_ids, self._manifest)

    def _side(self, side: TemplateSet | EmbeddingSet, tiled: bool = False):
        """``(rows, codes, walk)``: per plan code, its row in ``side``, else
        _DROPPED or _UNKNOWN; the code of each of its templates; and a
        function giving a new walk over its blocks ``(templates, vectors,
        keep)`` of consecutive templates. A held template set is one block,
        its own vectors. An embedding set's blocks come from its
        ``_grouping_of``: its chunks or, ``tiled``, its tiles of
        ``store.template_tiles``, whose count is logged, and whose walk
        logs its times when it ends (``_timed``)."""
        if isinstance(side, TemplateSet):
            codes = self._codes_of(side.template_ids)
            dropped = self._codes_of(side.dropped)
            whole = [(slice(0, len(side)), side.vectors, np.ones(len(side), dtype=bool))]
            walk = partial(iter, whole)
        else:
            grouping = self._grouping_of(side)
            codes, dropped = grouping.template_codes, self._codes_of(())
            walk = partial(grouping.chunks, side.vectors)
            if tiled:
                tiles = template_tiles(codes.size, side.dim)
                log.info("side a held in tiles: templates=%d tiles=%d passes_over_side_b=%d",
                         codes.size, len(tiles), len(tiles))
                walk = partial(_timed, grouping.tiles, side.vectors, tiles)
        rows = np.full(len(self._template_ids), _UNKNOWN, dtype=np.int32)
        known = codes >= 0
        rows[codes[known]] = np.flatnonzero(known)
        rows[dropped[dropped >= 0]] = _DROPPED
        return rows, codes, walk

    def templates(self, embeddings: EmbeddingSet) -> TemplateSet:
        """``build_templates(embeddings, manifest)``: the grouping's templates
        as one tile (``_Grouping.tiles``), which the set adopts."""
        grouping = self._grouping_of(embeddings)
        codes = grouping.template_codes
        ((_, totals, keep),) = grouping.tiles(embeddings.vectors, [slice(0, codes.size)])
        manifest = self._manifest
        return TemplateSet(
            model_id=embeddings.model_id,
            template_ids=_decoded(manifest.template_ids, codes[keep]),
            subject_ids=_decoded(manifest.subject_ids,
                                 manifest.template_subjects[codes[keep]]),
            vectors=_read_only(totals if keep.all() else kept_rows(totals, keep)),
            dropped=_decoded(manifest.template_ids, codes[~keep]),
        )

    def _raise_unknown(self, p: int, row_a: np.ndarray, row_b: np.ndarray):
        ta, tb = self._template_ids[self._side_a[p]], self._template_ids[self._side_b[p]]
        if row_a[p] == _UNKNOWN:
            raise UnknownIdError(f"template {ta!r} not in side-a set")
        if row_b[p] == _UNKNOWN:
            raise UnknownIdError(f"template {tb!r} not in side-b set")
        missing = tb if ta in self._manifest.template_code else ta
        raise UnknownIdError(f"template {missing!r} not in manifest")

    def score(self, a: TemplateSet | EmbeddingSet, b: TemplateSet | EmbeddingSet) -> ScoredPairs:
        """``score_pairs(a, b, pairs, manifest)`` over the compiled pairs.

        A block nested-loop join over the blocks of ``_side``: side a is
        walked one tile at a time (a held set is one tile, used as it is),
        and side b's chunks once per tile (a held set is one chunk). Each
        (tile, chunk) bucket's pairs are scored a piece of ``pair_chunks``
        at a time, the piece's rows taken straight from the two blocks. A
        chunk holding all of b's templates takes its pairs unsorted; else
        the pairs are sorted once by side-b row, so each chunk takes one
        run of that order; a tile short of all of a's templates keeps the
        pairs of its rows. A template a tile or a chunk finds degenerate is
        marked dropped as it is walked. Memory past a's tile (at most
        ``store._TILE_BUDGET`` bytes) and b's chunk is one piece's rows of
        each side, 2 x 128 x dim floats, a float64 score per pair and, when
        b has more than one chunk, an index per pair. No per-pair Python
        object is made: the result holds the plan's codes."""
        rows_a, codes_a, tiles = self._side(a, tiled=True)
        rows_b, codes_b, chunks = self._side(b)
        if a.dim != b.dim:
            raise DimensionError(f"template dimensions differ: {a.dim} vs {b.dim}")
        side_a, side_b = self._side_a, self._side_b
        row_a, row_b = rows_a[side_a], rows_b[side_b]
        scorable = (row_a >= 0) & (row_b >= 0)
        scores = np.empty(side_a.size)
        by_b = None
        for tile, vectors_a, kept_a in tiles():
            for templates, vectors_b, kept_b in chunks():
                if templates.stop - templates.start == codes_b.size:
                    # unsorted: a sort cost `sweep` 0.13 s of its 2 s (50,000 pairs)
                    pairs = np.flatnonzero(scorable)
                else:
                    if by_b is None:
                        # scorable pairs by side-b row, the rest first: a chunk's are one run
                        keyed = np.where(scorable, row_b, -1)
                        by_b = np.argsort(keyed, kind="stable")
                        runs = np.cumsum(np.bincount(keyed + 1, minlength=codes_b.size + 1))
                        del keyed
                    pairs = by_b[runs[templates.start] : runs[templates.stop]]
                if tile.stop - tile.start != codes_a.size:
                    pairs = pairs[(row_a[pairs] >= tile.start) & (row_a[pairs] < tile.stop)]
                ia, ib = row_a[pairs] - tile.start, row_b[pairs] - templates.start
                for piece in pair_chunks(pairs.size):
                    scores[pairs[piece]] = np.einsum(
                        "ij,ij->i", vectors_a[ia[piece]], vectors_b[ib[piece]])
                rows_b[codes_b[templates][~kept_b]] = _DROPPED
            rows_a[codes_a[tile][~kept_a]] = _DROPPED
        row_a = rows_a[side_a]
        row_b = rows_b[side_b]
        keep = (row_a != _DROPPED) & (row_b != _DROPPED)
        in_manifest = np.maximum(side_a, side_b) < len(self._manifest.template_ids)
        bad = keep & ((row_a < 0) | (row_b < 0) | ~in_manifest)
        if bad.any():
            self._raise_unknown(int(np.argmax(bad)), row_a, row_b)
        genuine = self._genuine
        if not keep.all():
            kept = np.flatnonzero(keep)
            scores = scores[kept]
            side_a, side_b, genuine = (_read_only(x[kept]) for x in (side_a, side_b, genuine))
        return ScoredPairs.coded(
            self._template_ids, side_a, side_b, scores=_read_only(scores), genuine=genuine,
            dropped_pairs=self._side_a.size - scores.size,
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
    """One CSV row per pair: its two template ids, the repr of its score
    and its label as true or false, written by ``store.write_pair_csv``
    a piece at a time, so no list over every pair is built."""
    write_pair_csv(scored, path,
                   score=lambda piece: scored.scores[piece].tolist(),
                   genuine=lambda piece: map(("false", "true").__getitem__,
                                             scored.genuine[piece].tolist()))


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
    gen, imp = scored.scores[scored.genuine], scored.scores[~scored.genuine]
    gen.sort()
    imp.sort()
    if imp.size == 0:
        raise ProtocolError("ROC analysis needs at least one impostor pair")
    if gen.size == 0:
        raise ProtocolError("ROC analysis needs at least one genuine pair")
    n = imp.size
    thresholds: list[float] = []
    tars: list[float] = []
    for f in fars:
        # the smallest i whose realized FAR (n - i) / n is within f; at n
        # it is 0. Inside a run of ties the run's end is the first
        # admissible threshold.
        i = bisect_left(range(n + 1), True, key=lambda i: (n - i) / n <= f)
        if 0 < i < n and imp[i] == imp[i - 1]:
            i = int(np.searchsorted(imp, imp[i], side="right"))
        t = float(imp[i]) if i < n else float(np.nextafter(imp[-1], np.inf))
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
