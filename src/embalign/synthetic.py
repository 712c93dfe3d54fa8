"""Seeded synthetic worlds: identity-clustered embeddings for two model
spaces with a planted ground-truth relationship.

Subjects are unit mean directions drawn uniformly on the sphere; each
medium's model-A vector is normalize(mean + within-class noise). Noise
is isotropic Gaussian scaled so its expected norm is sigma_w (per
component std sigma_w / sqrt(dim)); sigma therefore measures the
perturbation size relative to the unit mean, which keeps verification
on the synthetic world separable for sigma_w <= 0.3 at any dimension.
Model B is derived per planted kind:

* rotation    - normalize(vector_A @ R* + cross-model noise) for a
                Haar-uniform planted rotation R*;
* linear      - the same with a planted full-rank matrix of condition
                number <= 10;
* independent - regenerated from fresh subject means, unrelated to A.

``generate_world`` and ``derive_model`` derive model B on one path.
Randomness comes from ``embalign.rng`` streams keyed by (seed, purpose,
subject index), one stream per subject and purpose; a stream is keyed
without drawing OS entropy. Subjects are indexed in sorted subject-id
order, and each subject's media draw their noise in media-id order. The
planted product is taken over every manifest medium in that same order,
so BLAS always sees the same matrix shape. A derived vector therefore
depends only on the seed, the manifest and its own base vector: not on
the base set's row order, on which other media it holds, or on worker
count. Rows are normalized by ``store.unit_rows``, so a derived row with
no direction is +0.0. The subject means are drawn into one array, each
into its row, and normalized in one pass; each subject's noise is drawn
straight into its rows and scaled and shifted there. The sets adopt the
arrays made for them, read-only, without a copy. Each noise level must
be finite and >= 0, else ValueError.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .mapping import LINEAR, MappingMatrix, ROTATION
from .rng import Purpose, check_seed, stream
from .store import EmbeddingSet, MediaEntry, MediaManifest, unit_rows

PLANTED_ROTATION = "rotation"
PLANTED_LINEAR = "linear"
PLANTED_INDEPENDENT = "independent"
PLANTED_KINDS = (PLANTED_ROTATION, PLANTED_LINEAR, PLANTED_INDEPENDENT)


def _check_levels(**levels: float) -> None:
    """ValueError naming the first noise level that is not finite and >= 0."""
    for name, level in levels.items():
        if not (math.isfinite(level) and level >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {level!r}")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a synthetic world; defaults are the desk-scale setup."""

    dim: int = 64
    num_subjects: int = 200
    media_per_subject: int = 10
    frames_per_video: int | None = None
    within_class_noise: float = 0.15
    cross_model_noise: float = 0.05
    planted_kind: str = PLANTED_ROTATION
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.num_subjects < 1 or self.media_per_subject < 1:
            raise ValueError("subject and media counts must be >= 1")
        if self.frames_per_video is not None and self.frames_per_video < 1:
            raise ValueError("frames_per_video must be >= 1 when set")
        _check_levels(within_class_noise=self.within_class_noise,
                      cross_model_noise=self.cross_model_noise)
        if self.planted_kind not in PLANTED_KINDS:
            raise ValueError(f"unknown planted kind {self.planted_kind!r}")
        check_seed(self.seed)

    def to_dict(self) -> dict:
        return asdict(self)


def _haar_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform member of SO(dim) via sign-fixed QR, det forced to +1."""
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def _bounded_linear(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank matrix with condition number bounded by 10."""
    gauss = rng.standard_normal((dim, dim))
    u, _, vt = np.linalg.svd(gauss)
    singular = np.sort(rng.uniform(1.0, 10.0, size=dim))[::-1]
    return u @ (singular[:, None] * vt)


def random_rotation(dim: int, seed: int) -> MappingMatrix:
    """Haar-uniform rotation wrapped as a MappingMatrix (oracle helper)."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    matrix = _haar_rotation(dim, stream(seed, Purpose.ORACLE_ROTATION))
    return MappingMatrix(
        kind=ROTATION,
        source_model_id="",
        target_model_id="",
        matrix=matrix,
        fit_sample_count=0,
    )


def _manifest_entries(spec: SynthSpec):
    """The entries in media order: subject by subject, media by index."""
    for s in range(spec.num_subjects):
        sid = f"s{s:05d}"
        media = [f"{sid}_m{m:03d}" for m in range(spec.media_per_subject)]
        if spec.frames_per_video is None:
            for mid in media:
                yield MediaEntry(mid, sid, f"T_{mid}", None)
        else:
            k = spec.frames_per_video
            n_videos = len(media) // k
            for v in range(n_videos):
                vid = f"{sid}_v{v:03d}"
                for mid in media[v * k : (v + 1) * k]:
                    yield MediaEntry(mid, sid, f"T_{vid}", vid)
            for mid in media[n_videos * k :]:
                yield MediaEntry(mid, sid, f"T_{mid}", None)


def _noise_scale(level: float, dim: int) -> float:
    # per-component std so the expected noise norm equals `level`
    return level / np.sqrt(dim)


def _clustered(seed, mean_purpose, noise_purpose, blocks, rows, level) -> np.ndarray:
    """``rows`` filled with unnormalized mean + noise. Subject block i takes
    its unit mean and its media's noise from the streams of the two
    purposes keyed by i."""
    dim = rows.shape[1]
    means = np.empty((len(blocks), dim))
    for i, mean in enumerate(means):
        stream(seed, mean_purpose, i).standard_normal(out=mean)
    unit_rows(means)
    scale = _noise_scale(level, dim)
    for i, block in enumerate(blocks):
        subject = rows[block]
        stream(seed, noise_purpose, i).standard_normal(out=subject)
        subject *= scale
        subject += means[i]
    return rows


def _canonical_rows(manifest: MediaManifest, media_ids) -> tuple[list[slice], np.ndarray]:
    """The canonical order of the manifest's media is subject by subject in
    sorted order, each subject's media by id. Its subject row slices, in
    that order, and the canonical row of each of ``media_ids``;
    UnknownIdError names the first that is not in the manifest."""
    owner = manifest.subject_rank[manifest.subject_codes]
    order = np.lexsort((manifest.media_rank, owner))
    ends = np.cumsum(np.bincount(owner, minlength=len(manifest.subject_ids))).tolist()
    canonical = np.empty_like(order)
    canonical[order] = np.arange(order.size)
    blocks = [slice(start, stop) for start, stop in zip([0] + ends, ends)]
    return blocks, canonical[manifest.rows_of(media_ids)]


def _derive(count, blocks, take, base, planted_kind, cross_model_noise,
            within_class_noise, seed, model_id):
    """Derive a model space over ``base``'s media. The manifest's ``count``
    media are laid out in canonical order: ``blocks`` are its subject row
    slices in sorted subject order, and ``take`` selects ``base``'s rows
    from it (None: all, in order). A planted kind lays ``base`` out in one
    float64 row per medium, held only until the product is made."""
    dim = base.dim
    ground_truth = None
    if planted_kind == PLANTED_INDEPENDENT:
        rows = _clustered(seed, Purpose.MEAN_B, Purpose.NOISE_B, blocks,
                          np.empty((count, dim)), within_class_noise)
    else:
        rng = stream(seed, Purpose.PLANTED)
        if planted_kind == PLANTED_ROTATION:
            kind, planted = ROTATION, _haar_rotation(dim, rng)
        else:
            kind, planted = LINEAR, _bounded_linear(dim, rng)
        grid = base.vectors
        if take is not None:
            grid = np.zeros((count, dim))
            grid[take] = base.vectors
        rows = grid @ planted
        del grid
        if cross_model_noise > 0:
            scale = _noise_scale(cross_model_noise, dim)
            for i, block in enumerate(blocks):
                noise = stream(seed, Purpose.NOISE_X, i).standard_normal(rows[block].shape)
                rows[block] += scale * noise
        ground_truth = MappingMatrix(
            kind=kind,
            source_model_id=base.model_id,
            target_model_id=model_id,
            matrix=planted,
            fit_sample_count=0,
        )
    if take is not None:
        rows = rows[take]
    unit_rows(rows)
    rows.setflags(write=False)
    derived = EmbeddingSet(model_id=model_id, media_ids=base.media_ids, vectors=rows)
    return derived, ground_truth


def generate_world(
    spec: SynthSpec,
) -> tuple[EmbeddingSet, EmbeddingSet, MediaManifest, MappingMatrix | None]:
    """Two embedding sets over shared media, models "A" and "B", their
    manifest, and the planted ground-truth map (None for independent
    worlds).

    Deterministic for a fixed spec: repeated calls are bit-identical.
    Model B is ``derive_model(model_a, manifest, ...)`` with the spec's
    kind, noise levels and seed, as long as the media ids sort in
    generation order (at most 100,000 subjects and 1,000 media each).
    The model-A array is allocated before any per-medium or per-subject
    Python object, so a world too big to hold fails at once.
    """
    per = spec.media_per_subject
    vectors_a = np.empty((spec.num_subjects * per, spec.dim))
    manifest = MediaManifest(_manifest_entries(spec))
    blocks = [slice(s * per, (s + 1) * per) for s in range(spec.num_subjects)]
    _clustered(spec.seed, Purpose.MEAN_A, Purpose.NOISE_A, blocks, vectors_a,
               spec.within_class_noise)
    unit_rows(vectors_a)
    vectors_a.setflags(write=False)
    set_a = EmbeddingSet(model_id="A", media_ids=manifest.media_ids, vectors=vectors_a)
    set_b, ground_truth = _derive(
        len(vectors_a), blocks, None, set_a, spec.planted_kind,
        spec.cross_model_noise, spec.within_class_noise, spec.seed, "B",
    )
    return set_a, set_b, manifest, ground_truth


def derive_model(
    base: EmbeddingSet,
    manifest: MediaManifest,
    *,
    planted_kind: str,
    cross_model_noise: float = 0.05,
    within_class_noise: float = 0.15,
    seed: int = 0,
    model_id: str = "C",
) -> tuple[EmbeddingSet, MappingMatrix | None]:
    """Derive another model space over the same media as ``base``.

    For rotation/linear kinds the new space is a planted transform of the
    base vectors plus cross-model noise; for independent it is rebuilt
    from fresh per-subject means. Useful for grids with three or more
    models sharing one media population. Each derived vector is the same
    bytes under any row order or subset of ``base``; the work grows with
    the manifest, not with ``base``, and at most two float64 arrays of the
    manifest's size are held. Raises UnknownIdError for a base medium
    missing from the manifest, and ValueError for a noise level that is
    not finite and >= 0.
    """
    if planted_kind not in PLANTED_KINDS:
        raise ValueError(f"unknown planted kind {planted_kind!r}")
    _check_levels(cross_model_noise=cross_model_noise,
                  within_class_noise=within_class_noise)
    blocks, take = _canonical_rows(manifest, base.media_ids)
    return _derive(len(manifest), blocks, take, base, planted_kind, cross_model_noise,
                   within_class_noise, seed, model_id)
