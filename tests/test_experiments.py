import dataclasses
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_eval as reference
from memory_gate import run_gate
from embalign import (
    DIAGONAL_KIND,
    EmbeddingSet,
    MediaEntry,
    MediaManifest,
    ProtocolError,
    SynthSpec,
    TemplateSet,
    UnknownIdError,
    apply_map,
    build_templates,
    experiments,
    fit,
    generate_world,
    identity_map,
    roc,
    run_attack,
    run_grid,
    run_sweep,
    sample_eval_pairs,
    score_pairs,
    split_attack,
    split_by_template,
    store,
    subject_gallery,
)


def make_world(**kw):
    defaults = dict(dim=32, num_subjects=40, media_per_subject=6, seed=5)
    defaults.update(kw)
    spec = SynthSpec(**defaults)
    a, b, manifest, gt = generate_world(spec)
    return spec, a, b, manifest, gt


def split_world(a, b, manifest, seed=1, fraction=0.5, impostors=4000):
    enroll, verify = split_by_template(manifest, fraction, seed)
    by_media = reference.decoded(manifest).by_media
    verify_templates = {by_media[m].template_id for m in verify}
    pairs = sample_eval_pairs(manifest, verify_templates, impostors, seed)
    models = [
        (a.restrict(enroll), a.restrict(verify)),
        (b.restrict(enroll), b.restrict(verify)),
    ]
    return models, pairs


class TestSplitAndPairs:
    def test_split_disjoint_and_deterministic(self):
        _, _, _, manifest, _ = make_world()
        enroll, verify = split_by_template(manifest, 0.5, seed=3)
        assert not (enroll & verify)
        assert enroll | verify == set(manifest.media_ids)
        again = split_by_template(manifest, 0.5, seed=3)
        assert (enroll, verify) == again
        other = split_by_template(manifest, 0.5, seed=4)
        assert (enroll, verify) != other

    def test_split_keeps_template_media_together(self):
        manifest = MediaManifest(
            [
                MediaEntry("a", "s1", "t1", "v1"),
                MediaEntry("b", "s1", "t1", "v1"),
                MediaEntry("c", "s1", "t2", None),
                MediaEntry("d", "s1", "t3", None),
            ]
        )
        enroll, verify = split_by_template(manifest, 0.5, seed=0)
        assert ({"a", "b"} <= enroll) or ({"a", "b"} <= verify)

    def test_split_fraction_validated(self):
        _, _, _, manifest, _ = make_world()
        with pytest.raises(ValueError):
            split_by_template(manifest, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_by_template(manifest, 1.0, seed=0)

    def test_sample_pairs_contents(self):
        _, _, _, manifest, _ = make_world(num_subjects=10, media_per_subject=4)
        templates = list(manifest.template_ids)
        pairs = sample_eval_pairs(manifest, templates, 100, seed=2)
        subject = reference.decoded(manifest).template_subject
        genuine = [(x, y) for x, y in pairs.pairs if subject[x] == subject[y]]
        impostor = [(x, y) for x, y in pairs.pairs if subject[x] != subject[y]]
        # all within-subject combinations present: 10 subjects x C(4,2)
        assert len(genuine) == 10 * 6
        assert len(impostor) == 100
        assert len(set(pairs.pairs)) == len(pairs.pairs)

    def test_sample_pairs_deterministic(self):
        _, _, _, manifest, _ = make_world()
        templates = list(manifest.template_ids)
        first = sample_eval_pairs(manifest, templates, 500, seed=9)
        second = sample_eval_pairs(manifest, templates, 500, seed=9)
        assert first.pairs == second.pairs

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([2, 3, 2**17]), st.integers(2, 2**17)), st.data())
    def test_triangle_decode_matches_isqrt(self, n, data):
        # the first and last index, row starts and the indices beside them,
        # where a float64 square root lands nearest a row boundary
        total = n * (n - 1) // 2
        rows = data.draw(st.lists(st.integers(0, n - 2), max_size=10))
        starts = [r * n - r * (r + 1) // 2 + step for r in rows for step in (-1, 0, 1)]
        picks = data.draw(st.lists(st.integers(0, total - 1), max_size=10))
        index = [0, total - 1] + [t for t in starts if 0 <= t < total] + picks
        i, j = experiments._triangle_pairs(np.array(index, dtype=np.int64), n)
        want = [reference.triangle_pair(t, n) for t in index]
        assert list(zip(i.tolist(), j.tolist())) == want


class TestRunGrid:
    def test_planted_rotation_near_diagonal(self):
        _, a, b, manifest, _ = make_world(
            dim=32, num_subjects=60, media_per_subject=8, seed=11
        )
        models, pairs = split_world(a, b, manifest, impostors=8000)
        grid = run_grid(models, manifest, pairs, ["rotation"], [1e-2])
        diag = grid.tar("A", "A", DIAGONAL_KIND, 1e-2)
        cross = grid.tar("A", "B", "rotation", 1e-2)
        assert abs(diag - cross) <= 0.02

    def test_identity_on_independent_models_is_random(self):
        # 4 media per subject -> one independent genuine pair per subject
        # in the verification split
        _, a, b, manifest, _ = make_world(
            dim=32,
            num_subjects=300,
            media_per_subject=4,
            planted_kind="independent",
            seed=17,
        )
        models, pairs = split_world(a, b, manifest, impostors=6000)
        grid = run_grid(models, manifest, pairs, ["identity"], [0.1])
        tar = grid.tar("A", "B", "identity", 0.1)
        report_cell = grid.cell("A", "B", "identity")
        se = math.sqrt(0.1 * 0.9 / 300)
        assert abs(tar - 0.1) <= 3 * se
        assert report_cell.fit_sample_count == 0

    def test_single_model_grid_matches_plain_verification(self):
        _, a, _, manifest, _ = make_world(seed=23)
        models, pairs = split_world(a, a, manifest)
        grid = run_grid([models[0]], manifest, pairs, ["linear"], [1e-1, 1e-2])
        assert len(grid.cells) == 1
        templates = build_templates(models[0][1], manifest)
        report = roc(
            score_pairs(templates, templates, pairs, manifest), [1e-1, 1e-2]
        )
        assert grid.cells[0].tars == report.tar_at_far
        assert grid.cells[0].kind == DIAGONAL_KIND

    def test_overlapping_splits_rejected(self):
        _, a, b, manifest, _ = make_world()
        models, pairs = split_world(a, b, manifest)
        bad = [(a, a), (b, b)]
        with pytest.raises(ProtocolError):
            run_grid(bad, manifest, pairs, ["rotation"], [1e-1])

    def test_mismatched_splits_rejected(self):
        _, a, b, manifest, _ = make_world()
        (ea, va), (eb, vb) = split_world(a, b, manifest)[0]
        other_enroll, _ = split_by_template(manifest, 0.5, seed=99)
        eb_bad = b.restrict(other_enroll)
        with pytest.raises(ProtocolError):
            run_grid(
                [(ea, va), (eb_bad, vb)],
                manifest,
                split_world(a, b, manifest)[1],
                ["rotation"],
                [1e-1],
            )

    def test_cell_count_arithmetic_three_models(self):
        _, a, b, manifest, _ = make_world(num_subjects=30, media_per_subject=4)
        from embalign import derive_model

        c, _ = derive_model(a, manifest, planted_kind="rotation", seed=77, model_id="C")
        enroll, verify = split_by_template(manifest, 0.5, seed=1)
        by_media = reference.decoded(manifest).by_media
        vt = {by_media[m].template_id for m in verify}
        pairs = sample_eval_pairs(manifest, vt, 2000, seed=1)
        models = [
            (m.restrict(enroll), m.restrict(verify)) for m in (a, b, c)
        ]
        kinds = ["linear", "rotation", "identity"]
        grid = run_grid(models, manifest, pairs, kinds, [1e-1])
        assert len(grid.cells) == 3 * 2 * len(kinds) + 3
        diagonals = [c for c in grid.cells if c.kind == DIAGONAL_KIND]
        assert len(diagonals) == 3

    def test_diagonal_invariant_to_requested_kinds(self):
        _, a, b, manifest, _ = make_world()
        models, pairs = split_world(a, b, manifest)
        full = run_grid(models, manifest, pairs, ["linear", "rotation"], [1e-1])
        none = run_grid(models, manifest, pairs, [], [1e-1])
        for model_id in ("A", "B"):
            assert full.tar(model_id, model_id, DIAGONAL_KIND, 1e-1) == none.tar(
                model_id, model_id, DIAGONAL_KIND, 1e-1
            )


class TestRunSweep:
    def test_full_enrollment_single_rep_equals_grid(self):
        _, a, b, manifest, _ = make_world(seed=31)
        models, pairs = split_world(a, b, manifest)
        full = len(models[0][0])
        sweep = run_sweep(
            models[0], models[1], manifest, pairs, ["rotation"], [full], 1, 1e-2, 0
        )
        grid = run_grid(models, manifest, pairs, ["rotation"], [1e-2])
        assert sweep.points[0].tar == grid.tar("A", "B", "rotation", 1e-2)

    def test_three_repetitions_per_count(self):
        _, a, b, manifest, _ = make_world(seed=37)
        models, pairs = split_world(a, b, manifest)
        sweep = run_sweep(
            models[0], models[1], manifest, pairs, ["rotation"], [8, 16], 3, 1e-2, 0
        )
        assert len(sweep.points) == 6
        for count in (8, 16):
            reps = [p.repetition for p in sweep.points if p.sample_count == count]
            assert sorted(reps) == [0, 1, 2]
        # distinct derived seeds draw distinct subsets; TARs may tie, but
        # the mean is well-defined either way
        assert 0.0 <= sweep.mean_tar("rotation", 8) <= 1.0

    def test_deterministic_and_seed_sensitive(self):
        _, a, b, manifest, _ = make_world(seed=41)
        models, pairs = split_world(a, b, manifest)
        args = (models[0], models[1], manifest, pairs, ["linear"], [8], 2, 1e-2)
        assert run_sweep(*args, 5) == run_sweep(*args, 5)

    def test_repetition_streams_do_not_collide_across_seeds(self, monkeypatch):
        # a stream keyed on seed + repetition gives seed 7 / repetition 1
        # the subset of seed 8 / repetition 0
        _, a, b, manifest, _ = make_world(seed=43)
        models, pairs = split_world(a, b, manifest)
        subsets = []
        real_fit = experiments.fit

        def recording_fit(kind, source, target):
            subsets.append(tuple(source.media_ids))
            return real_fit(kind, source, target)

        monkeypatch.setattr(experiments, "fit", recording_fit)
        args = (models[0], models[1], manifest, pairs, ["linear"], [8])
        run_sweep(*args, 2, 1e-2, 7)
        run_sweep(*args, 1, 1e-2, 8)
        seed7_rep0, seed7_rep1, seed8_rep0 = subsets
        assert seed7_rep1 != seed8_rep0
        assert seed7_rep0 != seed7_rep1

    def test_count_exceeding_enrollment_rejected(self):
        _, a, b, manifest, _ = make_world()
        models, pairs = split_world(a, b, manifest)
        with pytest.raises(ValueError):
            run_sweep(
                models[0], models[1], manifest, pairs, ["linear"],
                [len(models[0][0]) + 1], 1, 1e-2, 0,
            )

    def test_zero_repetitions_rejected(self):
        _, a, b, manifest, _ = make_world()
        models, pairs = split_world(a, b, manifest)
        with pytest.raises(ValueError):
            run_sweep(
                models[0], models[1], manifest, pairs, ["linear"], [4], 0, 1e-2, 0
            )

    def test_overlapping_splits_rejected(self):
        _, a, b, manifest, _ = make_world()
        _, pairs = split_world(a, b, manifest)
        with pytest.raises(ProtocolError, match="splits overlap"):
            run_sweep((a, a), (b, b), manifest, pairs, ["rotation"], [4], 1, 1e-1)

    @pytest.mark.parametrize("side", [0, 1])
    def test_mismatched_splits_rejected(self, side):
        _, a, b, manifest, _ = make_world()
        models, pairs = split_world(a, b, manifest)
        other = split_by_template(manifest, 0.5, seed=99)[side]
        bad = list(models[1])
        bad[side] = b.restrict(other)
        with pytest.raises(ProtocolError, match="must share enrollment and verification"):
            run_sweep(models[0], tuple(bad), manifest, pairs, ["rotation"], [4], 1, 1e-1)


class TestMapKinds:
    @pytest.mark.parametrize("experiment", ["grid", "sweep"])
    def test_unknown_kind_refused_before_any_plan_or_fit(self, monkeypatch, experiment):
        _, a, b, manifest, _ = make_world()
        models, pairs = split_world(a, b, manifest)
        calls = []
        monkeypatch.setattr(experiments, "EvalPlan", lambda *args: calls.append("EvalPlan"))
        monkeypatch.setattr(experiments, "fit", lambda *args: calls.append("fit"))
        monkeypatch.setattr(experiments, "_shared_fits", lambda *args: calls.append("fit"))
        kinds = ["linear", "affine"]
        with pytest.raises(ValueError, match="unknown map kind 'affine'"):
            if experiment == "grid":
                run_grid(models, manifest, pairs, kinds, [1e-1])
            else:
                run_sweep(models[0], models[1], manifest, pairs, kinds, [4], 1, 1e-1)
        assert calls == []

    def test_unknown_kind_raised_only_in_mapping(self):
        package = Path(experiments.__file__).parent
        users = sorted(p.name for p in package.glob("*.py")
                       if "unknown map kind" in p.read_text())
        assert users == ["mapping.py"]


class ReferencePlan:
    """EvalPlan's interface over the reference loops: every call
    aggregates and scores from scratch, one template and one pair at a
    time."""

    def __init__(self, manifest, media_ids, pairs):
        self.manifest = manifest
        self.pairs = pairs

    def templates(self, embeddings):
        return reference.build_templates(embeddings, self.manifest)

    def score(self, a, b):
        return reference.score_pairs(a, b, self.pairs, self.manifest)


def sharing_world(degenerate: bool):
    """A small video world split for evaluation. With ``degenerate``, model
    A's verification vector is zero for one video frame: templates over
    that set skip the frame, and every mapped set loses its row, so it no
    longer has the media the plan was compiled for."""
    _, a, b, manifest, _ = make_world(
        dim=12, num_subjects=30, media_per_subject=10, frames_per_video=3, seed=43
    )
    models, pairs = split_world(a, b, manifest, impostors=3000)
    if degenerate:
        verify_a = models[0][1]
        by_media = reference.decoded(manifest).by_media
        frame = min(m for m in verify_a.media_ids if by_media[m].video_id)
        vectors = verify_a.vectors.copy()
        vectors[verify_a.media_ids.index(frame)] = 0.0
        models[0] = (models[0][0], dataclasses.replace(verify_a, vectors=vectors))
    return models, pairs, manifest


class TestPlanSharing:
    """run_sweep and run_grid evaluate every point through one compiled
    plan; the result must equal evaluating each point from scratch with the
    reference loops (apply_map, build_templates, score_pairs, roc)."""

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_sweep_equals_per_point_reference(self, monkeypatch, degenerate):
        models, pairs, manifest = sharing_world(degenerate)
        args = (models[0], models[1], manifest, pairs,
                ["linear", "rotation", "identity"], [4, 12, 40], 2, 1e-1, 3)
        shared = run_sweep(*args)
        monkeypatch.setattr(experiments, "EvalPlan", ReferencePlan)
        assert shared == run_sweep(*args)

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_grid_equals_per_point_reference(self, monkeypatch, degenerate):
        models, pairs, manifest = sharing_world(degenerate)
        args = (models, manifest, pairs, ["linear", "rotation", "identity"],
                [1e-1, 1e-2])
        shared = run_grid(*args)
        monkeypatch.setattr(experiments, "EvalPlan", ReferencePlan)
        assert shared == run_grid(*args)

    def test_grid_fits_equal_one_fit_per_cell(self, monkeypatch):
        # run_grid fits each source's row from shared statistics; fitting
        # every cell on its own with fit gives the same grid
        models, pairs, manifest = sharing_world(degenerate=False)
        models.append(tuple(dataclasses.replace(s, model_id="C") for s in models[0]))
        args = (models, manifest, pairs, ["rotation", "identity", "linear"], [1e-1, 1e-2])
        shared = run_grid(*args)

        def one_fit_per_cell(kinds, source, targets):
            return (fit(kind, source, target) for target in targets for kind in kinds)

        monkeypatch.setattr(experiments, "_shared_fits", one_fit_per_cell)
        assert shared == run_grid(*args)

    def test_degenerate_world_changes_the_mapped_media(self):
        models, _, _ = sharing_world(degenerate=True)
        verify_a = models[0][1]
        mapped = apply_map(identity_map(verify_a.dim), verify_a)
        assert len(mapped.dropped) == 1
        assert mapped.media_ids != verify_a.media_ids


def with_media(embeddings, media_id, row):
    """``embeddings`` with one more row, ``media_id``, at the end."""
    return EmbeddingSet(embeddings.model_id, embeddings.media_ids + (media_id,),
                        np.vstack([embeddings.vectors, row]))


def attack_setup(planted_kind="rotation", seed=3, **kw):
    defaults = dict(
        dim=32,
        num_subjects=75,
        media_per_subject=6,
        planted_kind=planted_kind,
        seed=seed,
    )
    defaults.update(kw)
    spec = SynthSpec(**defaults)
    a, b, manifest, _ = generate_world(spec)
    subjects = sorted(manifest.subject_ids)
    by_media = reference.decoded(manifest).by_media
    enroll_subjects, target_subjects = set(subjects[:25]), subjects[25:]
    enroll = {m for m in a.media_ids if by_media[m].subject_id in enroll_subjects}
    gallery_ids, probe_ids = set(), set()
    for sid in target_subjects:
        mids = sorted(m for m in a.media_ids if by_media[m].subject_id == sid)
        half = (len(mids) + 1) // 2
        gallery_ids.update(mids[:half])
        probe_ids.update(mids[half:])
    gallery = subject_gallery(b.restrict(gallery_ids), manifest)
    return a, b, manifest, enroll, probe_ids, gallery


class TestRunAttack:
    def test_noiseless_planted_rotation_rank_one(self):
        a, b, manifest, enroll, probes, gallery = attack_setup(
            within_class_noise=0.0, cross_model_noise=0.0
        )
        result = run_attack(
            a.restrict(enroll), b.restrict(enroll), a.restrict(probes),
            gallery, manifest, "rotation", [1],
        )
        assert result.rank_k_accuracy[1] == 1.0
        assert result.gallery_size == 50

    def test_rank_k_monotone_and_exhaustive(self):
        a, b, manifest, enroll, probes, gallery = attack_setup()
        ks = [1, 5, 25, 50]
        result = run_attack(
            a.restrict(enroll), b.restrict(enroll), a.restrict(probes),
            gallery, manifest, "rotation", ks,
        )
        accs = [result.rank_k_accuracy[k] for k in ks]
        assert accs == sorted(accs)
        assert result.rank_k_accuracy[50] == 1.0

    def test_every_probe_mapped_to_zero_rejected(self):
        # the minimum-norm linear map sends the directions the enrollment
        # never spans to zero, and the probes lie along them
        eye = np.eye(4)
        manifest = MediaManifest([MediaEntry(m, s, m) for m, s in (
            ("e1", "s0"), ("e2", "s0"), ("g1", "s1"), ("p1", "s1"), ("g2", "s2"), ("p2", "s2"))])
        gallery = subject_gallery(EmbeddingSet("B", ("g1", "g2"), eye[2:]), manifest)
        with pytest.raises(ValueError, match="no probes survived mapping"):
            run_attack(EmbeddingSet("A", ("e1", "e2"), eye[:2]),
                       EmbeddingSet("B", ("e1", "e2"), eye[:2]),
                       EmbeddingSet("A", ("p1", "p2"), eye[2:]),
                       gallery, manifest, "linear", [1])

    def test_zero_pairs_rejected(self):
        a, b, manifest, enroll, probes, gallery = attack_setup()
        empty = a.restrict([])
        with pytest.raises(ValueError):
            run_attack(
                empty, b.restrict([]), a.restrict(probes),
                gallery, manifest, "rotation", [1],
            )

    def test_enrollment_probe_overlap_rejected(self):
        a, b, manifest, enroll, probes, gallery = attack_setup()
        leaky = set(enroll) | {next(iter(probes))}
        with pytest.raises(ProtocolError):
            run_attack(
                a.restrict(leaky), b.restrict(leaky), a.restrict(probes),
                gallery, manifest, "rotation", [1],
            )

    def test_probe_subject_absent_rejected(self):
        a, b, manifest, enroll, probes, gallery = attack_setup()
        # gallery built without one target subject
        missing = gallery.subject_ids[0]
        by_media = reference.decoded(manifest).by_media
        reduced_media = [
            m for m in b.media_ids
            if by_media[m].subject_id not in (missing,)
            and by_media[m].subject_id in set(gallery.subject_ids)
        ]
        reduced = subject_gallery(b.restrict(reduced_media), manifest)
        with pytest.raises(ProtocolError):
            run_attack(
                a.restrict(enroll), b.restrict(enroll), a.restrict(probes),
                reduced, manifest, "rotation", [1],
            )

    def test_probe_not_in_manifest_named(self):
        a, b, manifest, enroll, probes, gallery = attack_setup()
        known = a.restrict(probes)
        with_ghost = with_media(known, "ghost", known.vectors[0])
        with pytest.raises(UnknownIdError, match=r"^media id 'ghost' not in manifest$"):
            run_attack(
                a.restrict(enroll), b.restrict(enroll), with_ghost,
                gallery, manifest, "rotation", [1],
            )

    @pytest.mark.parametrize("ghost_first", [False, True])
    def test_first_failing_probe_decides(self, ghost_first):
        a, b, manifest, enroll, probes, gallery = attack_setup()
        absent = min(probes)
        by_media = reference.decoded(manifest).by_media
        subject = by_media[absent].subject_id
        kept = set(gallery.subject_ids) - {subject}
        reduced = subject_gallery(
            b.restrict(m for m in b.media_ids if by_media[m].subject_id in kept), manifest
        )
        row = a.vectors[a.media_ids.index(absent)]
        ids = ["ghost", absent] if ghost_first else [absent, "ghost"]
        ordered = EmbeddingSet("A", ids, np.stack([row, row]))
        error, message = (
            (UnknownIdError, r"^media id 'ghost' not in manifest$") if ghost_first
            else (ProtocolError, rf"^probe subject '{subject}' absent from gallery$")
        )
        with pytest.raises(error, match=message):
            run_attack(
                a.restrict(enroll), b.restrict(enroll), ordered,
                reduced, manifest, "rotation", [1],
            )

    def test_k_out_of_range_rejected(self):
        a, b, manifest, enroll, probes, gallery = attack_setup()
        with pytest.raises(ValueError):
            run_attack(
                a.restrict(enroll), b.restrict(enroll), a.restrict(probes),
                gallery, manifest, "rotation", [0],
            )
        with pytest.raises(ValueError):
            run_attack(
                a.restrict(enroll), b.restrict(enroll), a.restrict(probes),
                gallery, manifest, "rotation", [len(gallery) + 1],
            )

    def test_deterministic(self):
        a, b, manifest, enroll, probes, gallery = attack_setup()
        args = (
            a.restrict(enroll), b.restrict(enroll), a.restrict(probes),
            gallery, manifest, "rotation", [1, 5],
        )
        assert run_attack(*args) == run_attack(*args)


SCORE_VALUES = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]


@st.composite
def score_cases(draw):
    """Scores from a few values, +0.0 and -0.0 among them, so exact ties
    are common; gallery subject codes repeat, and every probe's code is in
    the gallery."""
    n = draw(st.integers(1, 6))
    size = draw(st.integers(1, 8))
    scores = draw(arrays(np.float64, (n, size), elements=st.sampled_from(SCORE_VALUES)))
    gallery_codes = draw(arrays(np.int64, size, elements=st.integers(0, 2)))
    present = sorted(set(gallery_codes.tolist()))
    probe_codes = draw(arrays(np.int64, n, elements=st.sampled_from(present)))
    return scores, probe_codes, gallery_codes


@st.composite
def attack_cases(draw):
    """Probes and a gallery TemplateSet built directly from a small pool of
    unit vectors (signed basis vectors and random directions): duplicated
    gallery rows tie exactly, and subjects may hold several templates.
    The score budget is drawn so that a piece of ``score_pieces`` holds 3
    to 5 rows against the gallery, and the probe counts sit at the edges
    of those pieces and of ``row_chunks``."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    directions = rng.standard_normal((3, dim))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    pool = np.vstack([np.eye(dim), -np.eye(dim), directions])
    size = draw(st.integers(1, 8))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    subjects = draw(st.lists(st.sampled_from(["s0", "s1", "s2"]),
                             min_size=size, max_size=size))
    gallery = TemplateSet("B", [f"g{i}" for i in range(size)], subjects, pool[rows])
    piece = draw(st.integers(3, 5))
    budget = 8 * size * piece
    n = draw(st.sampled_from([1, 2, piece - 1, piece, piece + 1, 2 * piece + 1,
                              store._ROW_CHUNK, store._ROW_CHUNK + 1]))
    media = [f"p{i:05d}" for i in range(n)]
    probe_subjects = rng.choice(sorted(set(subjects)), size=n)
    manifest = MediaManifest(
        [MediaEntry("e0", "enroll", "te0", None)]
        + [MediaEntry(m, str(s), "t" + m, None) for m, s in zip(media, probe_subjects)]
    )
    probes = EmbeddingSet("A", media, pool[rng.integers(len(pool), size=n)])
    enroll = EmbeddingSet("A", ["e0"], pool[:1]), EmbeddingSet("B", ["e0"], pool[:1])
    return enroll, probes, gallery, manifest, budget


# run_attack with argv[1] probes against an argv[2]-template 8-d gallery,
# in a child under an address-space cap of its VmSize, once the inputs are
# built and a first attack has set up the BLAS buffers, plus 32 MiB.
# Neither the probes x gallery float64 score matrix (720 MB at 30,000 x
# 3,000) nor ranking scratch that grows with the gallery (18 B an entry for
# 1,024 probes: 55 MB at 3,000 templates, 737 MB at 40,000) fits; ranking
# a piece of at most 2 MiB of scores at a time does. Measured at one BLAS
# thread: both runs pass at 8 MiB above that VmSize and fail at 4.
MEMORY_GATE = """
import json
import sys
import numpy as np
from embalign import EmbeddingSet, MediaEntry, MediaManifest, TemplateSet, run_attack

n_probes, n_gallery = map(int, sys.argv[1:])
dim = 8
rng = np.random.default_rng(0)

def unit(n):
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]

subjects = [f"s{i:05d}" for i in range(n_gallery)]
gallery = TemplateSet("B", subjects, subjects, unit(n_gallery))
media = [f"p{i:05d}" for i in range(n_probes)]
owners = rng.integers(n_gallery, size=n_probes)
manifest = MediaManifest(
    [MediaEntry(m, subjects[o], "t" + m, None) for m, o in zip(media, owners)]
)
probes = EmbeddingSet("A", media, unit(n_probes))
seed_row = unit(1)
enroll_a = EmbeddingSet("A", ["e0"], seed_row)
enroll_b = EmbeddingSet("B", ["e0"], seed_row)

attack = enroll_a, enroll_b, probes, gallery, manifest, "identity", [1, 10]
# a first attack on a few probes sets up the BLAS buffers
run_attack(*attack[:2], probes.restrict(media[:64]), *attack[3:])
cap_address_space(32 << 20)
result = run_attack(*attack)
print(json.dumps(result.to_dict()))
"""


def hit_buffers(scores):
    """The float and two bool scratch buffers ``_first_hits`` takes."""
    return (np.empty_like(scores), *np.empty((2, *scores.shape), dtype=bool))


class TestAttackRanking:
    """run_attack ranks by counting, in probe chunks; the reference ranks
    by a full stable argsort of every probe's scores."""

    @settings(max_examples=400, deadline=None)
    @given(score_cases())
    def test_counting_matches_stable_argsort(self, case):
        scores, probe_codes, gallery_codes = case
        got = experiments._first_hits(scores, probe_codes, gallery_codes,
                                      *hit_buffers(scores))
        want = reference.first_hits(scores, probe_codes, gallery_codes)
        assert np.array_equal(got, want)

    def test_signed_zeros_tie_by_lower_index(self):
        # entry 1 (-0.0) is the subject's first hit; entry 0 (+0.0) ties
        # with it at a lower index, so it ranks ahead
        scores = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -1.0]])
        gallery_codes = np.array([1, 0, 0])
        probe_codes = np.array([0, 1])
        got = experiments._first_hits(scores, probe_codes, gallery_codes,
                                      *hit_buffers(scores))
        assert got.tolist() == [1, 0]
        assert np.array_equal(got, reference.first_hits(scores, probe_codes, gallery_codes))

    def test_masks_written_into_buffers(self):
        # a full piece against the attack benchmark's gallery size: the
        # subject, tie and lower-index masks go into the caller's buffers
        size = 2800
        k = store.piece_rows(size)
        rng = np.random.default_rng(6)
        scores = rng.standard_normal((k, size))
        gallery_codes = rng.integers(0, 700, size)
        probe_codes = gallery_codes[rng.integers(0, size, k)]
        buffers = hit_buffers(scores)
        tracemalloc.start()
        try:
            got = experiments._first_hits(scores, probe_codes, gallery_codes, *buffers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k * size
        assert np.array_equal(got, reference.first_hits(scores, probe_codes, gallery_codes))

    @settings(max_examples=150, deadline=None)
    @given(attack_cases())
    def test_rank_k_matches_oracle_for_every_k(self, case):
        enroll, probes, gallery, manifest, budget = case
        ks = range(1, len(gallery) + 1)
        with mock.patch.object(store, "_SCORE_BUDGET", budget):
            result = run_attack(*enroll, probes, gallery, manifest, "identity", ks)
        mapped = apply_map(identity_map(probes.dim), probes)
        assert result.probe_count == len(probes)
        assert result.rank_k_accuracy == reference.rank_k_accuracy(
            mapped, gallery, manifest, ks
        )

    def test_no_one_row_chunk(self):
        # pieces against galleries of one entry, the chunk test's, the
        # attack benchmark's, and one so wide that 3 rows pass the budget
        for width in (1, 375, 2800, 10**6):
            rows = store.piece_rows(width)
            assert rows >= 3
            assert rows == 3 or rows * width * 8 <= store._SCORE_BUDGET
            edges = {m * rows + d for m in (1, 2, 3) for d in (-1, 0, 1, 2)}
            for n in sorted({*range(1, 12), *edges, store._ROW_CHUNK, store._ROW_CHUNK + 1}):
                pieces = store.score_pieces(n, width)
                assert pieces[0].start == 0 and pieces[-1].stop == n
                assert all(a.stop == b.start for a, b in zip(pieces, pieces[1:]))
                sizes = [p.stop - p.start for p in pieces]
                assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1
                assert n == 1 or min(sizes) >= 2

    def test_chunk_plus_one_probes_match_oracle(self, monkeypatch):
        a, b, manifest, enroll, probe_media, gallery = attack_setup(
            num_subjects=400, within_class_noise=2.0, cross_model_noise=0.5
        )
        unknown, attacker = a.restrict(enroll), b.restrict(enroll)
        rows = store.piece_rows(len(gallery))
        probes = a.restrict(sorted(probe_media)[: rows + 1])
        pieces, used = experiments.score_pieces, []

        def spy(n, width):
            used.append(pieces(n, width))
            return used[-1]

        monkeypatch.setattr(experiments, "score_pieces", spy)
        ks = range(1, len(gallery) + 1)
        result = run_attack(unknown, attacker, probes, gallery, manifest, "rotation", ks)
        mapping, _ = experiments.fit("rotation", unknown, attacker)
        mapped = apply_map(mapping, probes)
        assert len(mapped) == rows + 1
        half = (rows + 1) // 2
        assert used == [[slice(0, half), slice(half, rows + 1)]]
        assert result.rank_k_accuracy == reference.rank_k_accuracy(
            mapped, gallery, manifest, ks
        )
        assert 0.0 < result.rank_k_accuracy[1] < 1.0

    def test_pieces_of_two_chunks_with_degenerate_probes_match_oracle(self, monkeypatch):
        # a gallery of the attack benchmark's size, where a piece's scores
        # have the bits of the same rows in one whole product; two
        # row_chunks chunks of probes, each with degenerate rows, each cut
        # into several pieces
        dim, size, n = 32, 2800, store._ROW_CHUNK + 900
        rng = np.random.default_rng(11)
        gallery_rows = rng.standard_normal((size, dim))
        gallery_rows /= np.linalg.norm(gallery_rows, axis=1)[:, None]
        subjects = [f"s{i:04d}" for i in range(size // 2)] * 2
        gallery = TemplateSet("B", [f"g{i:04d}" for i in range(size)], subjects, gallery_rows)
        owners = rng.integers(size, size=n)
        probe_rows = gallery_rows[owners] + 0.2 * rng.standard_normal((n, dim))
        degenerate = [0, 7, n // 2 - 1, n // 2 + 3, n - 1]
        probe_rows[degenerate] = 0.0
        media = [f"p{i:05d}" for i in range(n)]
        manifest = MediaManifest(
            [MediaEntry("e0", "enroll", "te0", None)]
            + [MediaEntry(m, subjects[o], "t" + m, None) for m, o in zip(media, owners)]
        )
        probes = EmbeddingSet("A", media, probe_rows)
        seed_row = gallery_rows[:1]
        enroll = EmbeddingSet("A", ["e0"], seed_row), EmbeddingSet("B", ["e0"], seed_row)
        pieces, used = experiments.score_pieces, []

        def spy(count, width):
            used.append(pieces(count, width))
            return used[-1]

        monkeypatch.setattr(experiments, "score_pieces", spy)
        ks = [1, 2, 5, 50, size]
        result = run_attack(*enroll, probes, gallery, manifest, "identity", ks)
        mapped = apply_map(identity_map(dim), probes)
        assert len(mapped.dropped) == len(degenerate)
        assert result.probe_count == n - len(degenerate)
        assert len(used) == 2 and all(len(chunk) > 1 for chunk in used)
        assert sum(chunk[-1].stop for chunk in used) == result.probe_count
        assert result.rank_k_accuracy == reference.rank_k_accuracy(mapped, gallery, manifest, ks)
        assert 0.0 < result.rank_k_accuracy[1] < 1.0

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_memory_bounded_in_probes(self):
        done = run_gate(MEMORY_GATE, 30_000, 3_000)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout)
        assert result["probe_count"] == 30_000
        assert result["gallery_size"] == 3_000

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_memory_bounded_in_gallery(self):
        done = run_gate(MEMORY_GATE, 2_048, 40_000)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout)
        assert result["probe_count"] == 2_048
        assert result["gallery_size"] == 40_000


class TestSplitAttack:
    def world(self):
        _, a, b, manifest, _ = make_world(num_subjects=30, media_per_subject=5, seed=8)
        return a, b, manifest

    def subjects(self, manifest, media):
        by_media = reference.decoded(manifest).by_media
        return {by_media[m].subject_id for m in media}

    @pytest.mark.parametrize("enroll_pairs", [1, 12, 40])
    def test_subject_disjoint_sides(self, enroll_pairs):
        a, b, manifest = self.world()
        enroll, gallery, probes = split_attack(a, b, manifest, enroll_pairs, seed=3)
        assert len(enroll) == enroll_pairs
        assert not (enroll & gallery or enroll & probes or gallery & probes)
        assert not self.subjects(manifest, enroll) & self.subjects(manifest, gallery | probes)
        assert self.subjects(manifest, probes) <= self.subjects(manifest, gallery)
        assert split_attack(a, b, manifest, enroll_pairs, seed=3) == (enroll, gallery, probes)
        assert split_attack(a, b, manifest, enroll_pairs, seed=4) != (enroll, gallery, probes)

    def test_only_shared_media_split(self):
        a, b, manifest = self.world()
        b = b.restrict(b.media_ids[10:])
        enroll, gallery, probes = split_attack(a, b, manifest, 12, seed=3)
        assert enroll | gallery | probes <= set(b.media_ids)

    @pytest.mark.parametrize("enroll_pairs", [0, 150])
    def test_enroll_pairs_out_of_range(self, enroll_pairs):
        a, b, manifest = self.world()
        message = r"^enroll_pairs must be at least 1 and below the 150 media both models embed$"
        with pytest.raises(ValueError, match=message):
            split_attack(a, b, manifest, enroll_pairs, seed=3)

    @pytest.mark.parametrize("shared", [0, 1])
    def test_fewer_than_two_shared_media(self, shared):
        a, b, manifest = self.world()
        b = b.restrict(b.media_ids[:shared])
        message = (rf"^enroll_pairs must be at least 1 and below the {shared} media "
                   "both models embed$")
        with pytest.raises(ValueError, match=message):
            split_attack(a, b, manifest, 1, seed=3)

    def test_shared_medium_not_in_manifest_named(self):
        a, b, manifest = self.world()
        row = a.vectors[0]
        # the shared media are looked up in sorted order; one only a holds is not
        a = with_media(with_media(with_media(a, "zz_ghost", row), "ghost", row), "a_only", row)
        b = with_media(with_media(b, "zz_ghost", row), "ghost", row)
        with pytest.raises(UnknownIdError, match=r"^media id 'ghost' not in manifest$"):
            split_attack(a, b, manifest, 12, seed=3)
        split_attack(a, b.restrict(b.media_ids[:-2]), manifest, 12, seed=3)

    def test_enroll_pairs_leaving_no_subjects(self):
        a, b, manifest = self.world()
        # 30 subjects of 5 media: 146 enrollment media take every subject
        with pytest.raises(ValueError, match="enroll_pairs leaves no subjects"):
            split_attack(a, b, manifest, 146, seed=3)


class TestSubjectGallery:
    def test_one_template_per_subject(self):
        _, a, _, manifest, _ = make_world(num_subjects=12, media_per_subject=3)
        gallery = subject_gallery(a, manifest)
        assert len(gallery) == 12
        assert set(gallery.template_ids) == set(gallery.subject_ids)
        norms = np.linalg.norm(gallery.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)
