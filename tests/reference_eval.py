"""Reference manifest, pair list and pair sampler: dicts of per-media
entries, tuples of id pairs, and the sampler over np.triu_indices of every
candidate pair. The oracle for the integer codes of `embalign.store` and
`embalign.experiments.sample_eval_pairs`: the same tables, pairs and
sampled pair lists, and the same error type and message on the same
input, whichever check fails first. `triangle_pair` decodes one upper
triangle index exactly through `math.isqrt`, the oracle for the sampler's
vectorized decode. `decoded` turns a `MediaManifest`'s
columns into this manifest, so every reference below takes either.

Reference protocol splits and canonical order: the enroll/verify split
by template, the attack's subject split and the canonical row order of
`derive_model`, each built from per-subject dicts of lists. The oracle
for the code-based `split_by_template`, `split_attack` and
`embalign.synthetic._canonical_rows`: the same sets, blocks and rows, and
the same error type and message.

Reference template aggregation and pair scoring: one template and one
pair at a time, in plain loops. Reference attack ranking: a full stable
argsort of every probe's scores against the whole gallery.

Reference embedding-file loader: the whole vector array read in one
pass through a bounded window and copied into an array the set keeps.
The oracle for `embalign.store.load_embeddings`, whose set reads its rows
from the file when asked: every read must give these bytes, and every
refusal the same error type and message.

The oracle for `embalign.verification`. Its compiled plan must return
exactly what these loops return, bit for bit: the same template ids,
dropped ids, vectors, scores, genuine labels and dropped-pair counts, and
UnknownIdError on the same inputs. Also the oracle for the ranking in
`embalign.experiments.run_attack`, which must give the same rank-k
accuracies, float for float. Reference linear fit: the SVD pseudoinverse
of the whole design matrix, the oracle for `embalign.mapping.fit_linear`,
which must return the same bytes wherever it falls back to the SVD and
the same map to 1e-9 relative where it solves from the Gram.

Reference synthetic worlds: one subject at a time, each subject's mean
normalized on its own, its rows mean + scale * noise from a fresh noise
array, and cross-model noise added from a fresh array per subject. The
oracle for `embalign.synthetic.generate_world` and `derive_model`, which
draw every mean into one array, normalize them in one pass and draw noise
into the rows: the same manifest and the same bytes.
"""

from math import isqrt

import numpy as np

from embalign import (
    LINEAR,
    ConsistencyError,
    DataError,
    DimensionError,
    EmbeddingSet,
    FitReport,
    MappingMatrix,
    MediaEntry,
    ScoredPairs,
    TemplateSet,
    TruncationError,
    UnknownIdError,
)
from embalign.mapping import SVD_RCOND
from embalign.rng import Purpose, stream
from embalign import store
from embalign.synthetic import _bounded_linear, _haar_rotation
from embalign.store import (
    _MANIFEST_HEADER,
    _PAIRS_HEADER,
    DEGENERATE_NORM,
    BinaryReader,
    _csv_table,
)


class Manifest:
    """Per-media entries in dicts, checked entry by entry: media ids are
    unique, a template has one subject, and a video one template."""

    def __init__(self, entries):
        entries = tuple(entries)
        by_media: dict[str, MediaEntry] = {}
        template_subject: dict[str, str] = {}
        template_media: dict[str, list[str]] = {}
        video_template: dict[str, str] = {}
        for e in entries:
            if e.media_id in by_media:
                raise DataError(f"duplicate media id {e.media_id!r} in manifest")
            by_media[e.media_id] = e
            prior = template_subject.get(e.template_id)
            if prior is not None and prior != e.subject_id:
                raise ConsistencyError(
                    f"template {e.template_id!r} mapped to subjects "
                    f"{prior!r} and {e.subject_id!r}"
                )
            template_subject[e.template_id] = e.subject_id
            template_media.setdefault(e.template_id, []).append(e.media_id)
            if e.video_id is not None:
                vt = video_template.get(e.video_id)
                if vt is not None and vt != e.template_id:
                    raise ConsistencyError(
                        f"video {e.video_id!r} spans templates {vt!r} "
                        f"and {e.template_id!r}"
                    )
                video_template[e.video_id] = e.template_id
        self.entries = entries
        self.by_media = by_media
        self.template_subject = template_subject
        self.template_media = {t: tuple(m) for t, m in template_media.items()}

    def subject_of_media(self, media_id: str) -> str:
        entry = self.by_media.get(media_id)
        if entry is None:
            raise UnknownIdError(f"media id {media_id!r} not in manifest")
        return entry.subject_id


def decoded(manifest) -> Manifest:
    """The reference manifest of a ``MediaManifest``'s columns, row by row;
    a reference manifest as it is."""
    if isinstance(manifest, Manifest):
        return manifest
    return Manifest(map(
        MediaEntry,
        manifest.media_ids,
        map(manifest.subject_ids.__getitem__, manifest.subject_codes.tolist()),
        map(manifest.template_ids.__getitem__, manifest.template_codes.tolist()),
        map((manifest.video_ids + (None,)).__getitem__, manifest.video_codes.tolist()),
    ))


def split_by_template(manifest, enroll_fraction: float, seed: int):
    """Each subject's templates, sorted, shuffled by its own SPLIT stream
    (subjects indexed in sorted order); the first share enroll."""
    manifest = decoded(manifest)
    if not 0.0 < enroll_fraction < 1.0:
        raise ValueError("enroll_fraction must be in (0, 1)")
    by_subject: dict[str, list[str]] = {}
    for tid, sid in manifest.template_subject.items():
        by_subject.setdefault(sid, []).append(tid)
    enroll_media: set[str] = set()
    verify_media: set[str] = set()
    for i, sid in enumerate(sorted(by_subject)):
        templates = sorted(by_subject[sid])
        order = stream(seed, Purpose.SPLIT, i).permutation(len(templates))
        n_enroll = int(round(enroll_fraction * len(templates)))
        n_enroll = min(max(n_enroll, 1), len(templates) - 1) if len(templates) > 1 else 0
        for j, k in enumerate(order):
            side = enroll_media if j < n_enroll else verify_media
            side.update(manifest.template_media[templates[k]])
    return frozenset(enroll_media), frozenset(verify_media)


def split_attack(unknown, attacker, manifest, enroll_pairs: int, seed: int):
    """Shuffled subjects of the shared media fill the enrollment; each
    other subject's sorted media split in halves, gallery then probes."""
    manifest = decoded(manifest)
    media = sorted(set(unknown.media_ids) & set(attacker.media_ids))
    if enroll_pairs < 1 or enroll_pairs >= len(media):
        raise ValueError(
            f"enroll_pairs must be at least 1 and below the {len(media)} media "
            "both models embed"
        )
    by_subject: dict[str, list[str]] = {}
    for mid in media:
        by_subject.setdefault(manifest.subject_of_media(mid), []).append(mid)
    subjects = sorted(by_subject)
    rng = stream(seed, Purpose.ATTACK)
    subject_order = [subjects[i] for i in rng.permutation(len(subjects))]
    enroll_ids: set[str] = set()
    cut = 0
    while cut < len(subject_order) and len(enroll_ids) < enroll_pairs:
        enroll_ids.update(by_subject[subject_order[cut]])
        cut += 1
    if cut >= len(subject_order):
        raise ValueError("enroll_pairs leaves no subjects for gallery and probes")
    gallery_ids: set[str] = set()
    probe_ids: set[str] = set()
    for sid in subject_order[cut:]:
        mids = by_subject[sid]
        half = (len(mids) + 1) // 2
        gallery_ids.update(mids[:half])
        probe_ids.update(mids[half:])
    return (
        frozenset(sorted(enroll_ids)[:enroll_pairs]),
        frozenset(gallery_ids),
        frozenset(probe_ids),
    )


def canonical_rows(manifest, media_ids) -> tuple[list[slice], list[int]]:
    """The subject blocks of the manifest's media, subjects in sorted
    order and each subject's media sorted, and the row of each of
    ``media_ids`` in that order."""
    manifest = decoded(manifest)
    by_subject: dict[str, list[str]] = {}
    for e in manifest.entries:
        by_subject.setdefault(e.subject_id, []).append(e.media_id)
    order: list[str] = []
    blocks = []
    for sid in sorted(by_subject):
        blocks.append(slice(len(order), len(order) + len(by_subject[sid])))
        order += sorted(by_subject[sid])
    row_of = {mid: r for r, mid in enumerate(order)}
    try:
        return blocks, [row_of[mid] for mid in media_ids]
    except KeyError as exc:
        raise UnknownIdError(f"media id {exc.args[0]!r} not in manifest") from None


def world_entries(spec) -> list[MediaEntry]:
    """The media of a synthetic world, subject by subject: each subject's
    media in videos of ``frames_per_video`` frames, the rest stills."""
    entries = []
    for s in range(spec.num_subjects):
        sid = f"s{s:05d}"
        media = [f"{sid}_m{m:03d}" for m in range(spec.media_per_subject)]
        k = spec.frames_per_video or len(media) + 1
        for v in range(len(media) // k):
            vid = f"{sid}_v{v:03d}"
            entries += [MediaEntry(mid, sid, f"T_{vid}", vid) for mid in media[v * k : (v + 1) * k]]
        entries += [MediaEntry(mid, sid, f"T_{mid}", None)
                    for mid in media[len(media) // k * k :]]
    return entries


def clustered_rows(seed, mean_purpose, noise_purpose, sizes, dim, level) -> np.ndarray:
    """Subject i's rows, one subject at a time: its mean from its own
    stream, normalized on its own, plus ``level / sqrt(dim)`` times a
    fresh noise array from its own stream; not normalized."""
    scale = level / np.sqrt(dim)
    rows = []
    for i, size in enumerate(sizes):
        mean = stream(seed, mean_purpose, i).standard_normal((1, dim))
        store.unit_rows(mean)
        noise = stream(seed, noise_purpose, i).standard_normal((size, dim))
        rows.append(mean + scale * noise)
    return np.concatenate(rows)


def derive_model(base: EmbeddingSet, manifest, planted_kind: str, cross_model_noise: float,
                 within_class_noise: float, seed: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The normalized rows of a model derived over ``base``'s media, in its
    row order, and the planted matrix (None for an independent model).
    The rows are made in canonical order over every manifest medium."""
    blocks, take = canonical_rows(manifest, base.media_ids)
    dim = base.dim
    planted = None
    if planted_kind == "independent":
        rows = clustered_rows(seed, Purpose.MEAN_B, Purpose.NOISE_B,
                              [b.stop - b.start for b in blocks], dim, within_class_noise)
    else:
        grid = np.zeros((blocks[-1].stop, dim))
        grid[take] = np.asarray(base.vectors, dtype=np.float64)
        plant = _haar_rotation if planted_kind == "rotation" else _bounded_linear
        planted = plant(dim, stream(seed, Purpose.PLANTED))
        rows = grid @ planted
        if cross_model_noise > 0:
            scale = cross_model_noise / np.sqrt(dim)
            for i, block in enumerate(blocks):
                noise = stream(seed, Purpose.NOISE_X, i).standard_normal(rows[block].shape)
                rows[block] += scale * noise
    rows = rows[take]
    store.unit_rows(rows)
    return rows, planted


def generate_world(spec) -> tuple[list[MediaEntry], np.ndarray, np.ndarray, np.ndarray | None]:
    """A synthetic world's media, its model-A and model-B rows in media
    order and its planted matrix."""
    entries = world_entries(spec)
    rows_a = clustered_rows(spec.seed, Purpose.MEAN_A, Purpose.NOISE_A,
                            [spec.media_per_subject] * spec.num_subjects, spec.dim,
                            spec.within_class_noise)
    store.unit_rows(rows_a)
    set_a = EmbeddingSet("A", tuple(e.media_id for e in entries), rows_a)
    rows_b, planted = derive_model(set_a, Manifest(entries), spec.planted_kind,
                                   spec.cross_model_noise, spec.within_class_noise, spec.seed)
    return entries, rows_a, rows_b, planted


def load_embeddings(path) -> EmbeddingSet:
    """The set of a .cfeb file with its vectors in one array, read through
    a window of store._READ_WINDOW bytes; a record the window cannot hold
    whole, or one cut short or not UTF-8, is read through the checked
    fields."""
    with BinaryReader(path, store._MAGIC, "an embedding file") as reader:
        dim, count = reader.unpack("<IQ", "dimension and record count")
        if count * (2 + 4 * dim) > reader.remaining:
            raise TruncationError(
                f"{path}: header declares {count} records of dimension {dim}, "
                f"more than the {reader.remaining} bytes that follow"
            )
        row_bytes = 4 * dim
        vectors = np.empty((count, dim), dtype="<f4")
        rows = memoryview(vectors.reshape(-1).view(np.uint8))
        media_ids = []
        window = bytearray(min(store._READ_WINDOW, reader.remaining))
        view = memoryview(window)
        i = 0
        while i < count:
            filled, pos = reader.peek_into(view), 0
            try:
                while i < count and pos + 2 <= filled:
                    start = pos + 2 + (window[pos] | window[pos + 1] << 8)
                    stop = start + row_bytes
                    if stop > filled:
                        break
                    media_ids.append(window[pos + 2 : start].decode("utf-8"))
                    rows[i * row_bytes : (i + 1) * row_bytes] = view[start:stop]
                    pos, i = stop, i + 1
            except UnicodeDecodeError:
                pass
            reader.skip(pos)
            if pos == 0:
                media_ids.append(reader.string(f"record {i} id"))
                rows[i * row_bytes : (i + 1) * row_bytes] = reader.take(
                    row_bytes, f"record {i} vector"
                )
                i += 1
        model_id = reader.string("model id")
        reader.end("model id")
    vectors.setflags(write=False)
    return EmbeddingSet(model_id=model_id, media_ids=tuple(media_ids), vectors=vectors)


def load_manifest(path) -> Manifest:
    return Manifest(
        MediaEntry(media_id, subject_id, template_id, video_id or None)
        for media_id, subject_id, template_id, video_id in _csv_table(
            path, _MANIFEST_HEADER, "manifest"
        )
    )


def pair_tuple(pairs) -> tuple[tuple[str, str], ...]:
    """The pairs as str tuples; DataError on the first self-pair."""
    pairs = tuple((str(a), str(b)) for a, b in pairs)
    for a, b in pairs:
        if a == b:
            raise DataError(f"self-pair {a!r}")
    return pairs


def load_pairs(path, manifest=None) -> tuple[tuple[str, str], ...]:
    pairs = [(a, b) for a, b in _csv_table(path, _PAIRS_HEADER, "pair")]
    if manifest is not None:
        for a, b in pairs:
            for tid in (a, b):
                if tid not in manifest.template_subject:
                    raise UnknownIdError(f"pair references unknown template {tid!r}")
    return pair_tuple(pairs)


def sample_eval_pairs(manifest, template_ids, n_impostor: int, seed: int):
    """Every genuine pair of the sorted templates and a uniform sample of
    the impostor pairs, both in np.triu_indices order."""
    templates = sorted(template_ids)
    for tid in templates:
        if tid not in manifest.template_subject:
            raise UnknownIdError(f"template {tid!r} not in manifest")
    subjects = np.array([manifest.template_subject[t] for t in templates])
    n = len(templates)
    ia, ib = np.triu_indices(n, k=1)
    same = subjects[ia] == subjects[ib]
    pairs = [(templates[i], templates[j]) for i, j in zip(ia[same], ib[same])]
    imp_a, imp_b = ia[~same], ib[~same]
    if n_impostor > 0 and imp_a.size:
        take = min(n_impostor, imp_a.size)
        rng = stream(seed, Purpose.PAIRS)
        chosen = rng.choice(imp_a.size, size=take, replace=False)
        chosen.sort()
        pairs.extend(
            (templates[i], templates[j]) for i, j in zip(imp_a[chosen], imp_b[chosen])
        )
    return pair_tuple(pairs)


def triangle_pair(index: int, n: int) -> tuple[int, int]:
    """The (i, j), i < j < n, at row-major ``index`` of the strict upper
    triangle of an n x n matrix, exactly, through ``isqrt``."""
    # rows counted from the last: row u from the end holds u + 1 pairs
    back = n * (n - 1) // 2 - 1 - index
    u = (isqrt(8 * back + 1) - 1) // 2
    i = n - 2 - u
    return i, i + 1 + u - (back - u * (u + 1) // 2)


def _normalize_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(rows, axis=1)
    ok = norms >= DEGENERATE_NORM
    out = np.zeros_like(rows)
    out[ok] = rows[ok] / norms[ok, None]
    return out, ok


def build_templates(embeddings: EmbeddingSet, manifest) -> TemplateSet:
    manifest = decoded(manifest)
    for mid in embeddings.media_ids:
        if mid not in manifest.by_media:
            raise UnknownIdError(f"media id {mid!r} not in manifest")

    vectors = embeddings.vectors.astype(np.float64)
    normalized, media_ok = _normalize_rows(vectors)

    by_template: dict[str, list[str]] = {}
    for mid in embeddings.media_ids:
        by_template.setdefault(manifest.by_media[mid].template_id, []).append(mid)

    row = dict(zip(embeddings.media_ids, range(len(embeddings))))
    template_ids: list[str] = []
    subject_ids: list[str] = []
    rows: list[np.ndarray] = []
    dropped: list[str] = []
    for tid in sorted(by_template):
        videos: dict[str, list[str]] = {}
        images: list[str] = []
        for mid in sorted(by_template[tid]):
            if not media_ok[row[mid]]:
                continue
            vid = manifest.by_media[mid].video_id
            if vid is None:
                images.append(mid)
            else:
                videos.setdefault(vid, []).append(mid)
        features = [normalized[row[mid]] for mid in images]
        for vid in sorted(videos):
            frames = np.stack(
                [normalized[row[mid]] for mid in videos[vid]]
            )
            features.append(frames.mean(axis=0))
        if not features:
            dropped.append(tid)
            continue
        total = np.sum(features, axis=0)
        norm = float(np.linalg.norm(total))
        if norm < DEGENERATE_NORM:
            dropped.append(tid)
            continue
        template_ids.append(tid)
        subject_ids.append(manifest.template_subject[tid])
        rows.append(total / norm)

    matrix = np.stack(rows) if rows else np.zeros((0, embeddings.dim))
    return TemplateSet(
        model_id=embeddings.model_id,
        template_ids=tuple(template_ids),
        subject_ids=tuple(subject_ids),
        vectors=matrix,
        dropped=tuple(dropped),
    )


def score_pairs(
    a: TemplateSet,
    b: TemplateSet,
    pairs,
    manifest,
) -> ScoredPairs:
    """``pairs`` is any iterable of (a, b) template ids; ``manifest`` a
    MediaManifest or a Manifest."""
    manifest = decoded(manifest)
    if a.dim != b.dim:
        raise DimensionError(f"template dimensions differ: {a.dim} vs {b.dim}")
    dropped_a = set(a.dropped)
    dropped_b = set(b.dropped)
    row_a = dict(zip(a.template_ids, range(len(a))))
    row_b = dict(zip(b.template_ids, range(len(b))))
    ids_a: list[str] = []
    ids_b: list[str] = []
    idx_a: list[int] = []
    idx_b: list[int] = []
    genuine: list[bool] = []
    dropped_pairs = 0
    for ta, tb in pairs:
        if ta in dropped_a or tb in dropped_b:
            dropped_pairs += 1
            continue
        try:
            ia = row_a[ta]
        except KeyError:
            raise UnknownIdError(f"template {ta!r} not in side-a set") from None
        try:
            ib = row_b[tb]
        except KeyError:
            raise UnknownIdError(f"template {tb!r} not in side-b set") from None
        for tid in (ta, tb):
            if tid not in manifest.template_subject:
                raise UnknownIdError(f"template {tid!r} not in manifest")
        ids_a.append(ta)
        ids_b.append(tb)
        idx_a.append(ia)
        idx_b.append(ib)
        genuine.append(
            manifest.template_subject[ta] == manifest.template_subject[tb]
        )
    if idx_a:
        scores = np.einsum("ij,ij->i", a.vectors[idx_a], b.vectors[idx_b])
    else:
        scores = np.zeros(0)
    return ScoredPairs(
        template_ids_a=tuple(ids_a),
        template_ids_b=tuple(ids_b),
        scores=scores,
        genuine=np.array(genuine, dtype=bool),
        dropped_pairs=dropped_pairs,
    )


def first_hits(scores: np.ndarray, probe_subjects, gallery_subjects) -> np.ndarray:
    """Each probe's 0-based position of its first true-subject entry in
    the gallery sorted by descending score, ties kept in gallery order."""
    order = np.argsort(-scores, axis=1, kind="stable")
    ranked_match = np.array(gallery_subjects)[order] == np.array(probe_subjects)[:, None]
    return ranked_match.argmax(axis=1)


def rank_k_accuracy(mapped: EmbeddingSet, gallery: TemplateSet, manifest, ks) -> dict[int, float]:
    """Rank-k accuracy of mapped probes, scored against the whole gallery
    in one product."""
    manifest = decoded(manifest)
    probe_subjects = [manifest.subject_of_media(mid) for mid in mapped.media_ids]
    hits = first_hits(mapped.vectors @ gallery.vectors.T, probe_subjects,
                      gallery.subject_ids)
    return {k: float(np.mean(hits < k)) for k in ks}


def fit_linear_svd(source_rows, target_rows) -> tuple[MappingMatrix, FitReport]:
    """Least-squares map through the SVD of the m x d design matrix, with
    singular values below SVD_RCOND * sigma_max truncated (minimum norm on
    rank-deficient inputs), and the residual from one m x d product."""
    x = np.asarray(source_rows, dtype=np.float64)
    y = np.asarray(target_rows, dtype=np.float64)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.size and s[0] > 0:
        keep = s > SVD_RCOND * s[0]
    else:
        keep = np.zeros(s.shape, dtype=bool)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    matrix = vt.T @ (inv[:, None] * (u.T @ y))
    retained = s[keep]
    cond = float(retained[0] / retained[-1]) if retained.size else float("inf")
    diff = x @ matrix - y
    residual = float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))
    mapping = MappingMatrix(LINEAR, "", "", matrix, x.shape[0])
    return mapping, FitReport(LINEAR, x.shape[0], residual, cond)


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: stricter than ==, which takes -0.0
    for 0.0."""
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def assert_same_templates(got: TemplateSet, want: TemplateSet) -> None:
    assert got.model_id == want.model_id
    assert got.template_ids == want.template_ids
    assert got.subject_ids == want.subject_ids
    assert got.dropped == want.dropped
    assert same_bits(got.vectors, want.vectors)


def assert_same_scores(got: ScoredPairs, want: ScoredPairs) -> None:
    assert got.template_ids_a == want.template_ids_a
    assert got.template_ids_b == want.template_ids_b
    assert got.dropped_pairs == want.dropped_pairs
    assert np.array_equal(got.genuine, want.genuine)
    assert same_bits(got.scores, want.scores)
