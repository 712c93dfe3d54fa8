import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eval as reference
from memory_gate import run_gate
from embalign import (
    EmbeddingSet,
    PairList,
    SynthSpec,
    align_pairs,
    apply_map,
    build_templates,
    derive_model,
    fit_rotation,
    generate_world,
    identity_map,
    random_rotation,
    roc,
    sample_eval_pairs,
    score_pairs,
)
from embalign.errors import UnknownIdError
from embalign.synthetic import PLANTED_KINDS

BAD_LEVELS = [-0.1, -math.inf, math.nan, math.inf]
LEVELS = ["within_class_noise", "cross_model_noise"]


class TestSynthSpec:
    def test_defaults_are_desk_scale(self):
        spec = SynthSpec()
        assert spec.dim == 64
        assert spec.num_subjects == 200
        assert spec.media_per_subject == 10
        assert spec.within_class_noise == 0.15
        assert spec.cross_model_noise == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(dim=1)
        with pytest.raises(ValueError):
            SynthSpec(within_class_noise=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(planted_kind="affine")
        with pytest.raises(ValueError):
            SynthSpec(num_subjects=0)


class TestNoiseLevels:
    """One rule for both noise levels, in SynthSpec and derive_model: each
    must be finite and >= 0."""

    @pytest.mark.parametrize("level", BAD_LEVELS)
    @pytest.mark.parametrize("field", LEVELS)
    def test_spec_refuses(self, field, level):
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            SynthSpec(**{field: level})

    @pytest.mark.parametrize("level", BAD_LEVELS)
    @pytest.mark.parametrize("kind", PLANTED_KINDS)
    @pytest.mark.parametrize("field", LEVELS)
    def test_derive_model_refuses(self, field, kind, level):
        # unchecked, a negative or NaN cross-model noise reads as none, a
        # negative within-class noise draws a reflected independent world,
        # and an infinite level ends in non-finite embeddings
        a, _, manifest, _ = generate_world(SynthSpec(dim=4, num_subjects=3,
                                                     media_per_subject=2))
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            derive_model(a, manifest, planted_kind=kind, **{field: level})

    @pytest.mark.parametrize("kind", PLANTED_KINDS)
    def test_zero_levels_accepted(self, kind):
        spec = SynthSpec(dim=4, num_subjects=3, media_per_subject=2, planted_kind=kind,
                         within_class_noise=0.0, cross_model_noise=0.0)
        a, b, manifest, _ = generate_world(spec)
        derived, _ = derive_model(a, manifest, planted_kind=kind, within_class_noise=0.0,
                                  cross_model_noise=0.0, model_id="B")
        assert derived.vectors.tobytes() == b.vectors.tobytes()


@st.composite
def world_specs(draw, dim, planted_kind):
    return SynthSpec(
        dim=dim,
        num_subjects=draw(st.integers(1, 9)),
        media_per_subject=draw(st.integers(1, 7)),
        frames_per_video=draw(st.sampled_from([None, 3])),
        within_class_noise=draw(st.sampled_from([0.0, 0.15, 2.0])),
        cross_model_noise=draw(st.sampled_from([0.0, 0.05, 0.5])),
        planted_kind=planted_kind,
        seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestWorldOracle:
    """generate_world and derive_model against the one-subject-at-a-time
    reference generator, byte for byte."""

    @pytest.mark.parametrize("kind", PLANTED_KINDS)
    @pytest.mark.parametrize("dim", [2, 3, 7, 9, 64, 129, 512])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_world_matches_reference(self, dim, kind, data):
        spec = data.draw(world_specs(dim, kind))
        random = data.draw(st.randoms(use_true_random=False))
        float32_base = data.draw(st.booleans())
        a, b, manifest, ground_truth = generate_world(spec)
        entries, rows_a, rows_b, planted = reference.generate_world(spec)
        assert reference.decoded(manifest).entries == tuple(entries)
        assert a.media_ids == b.media_ids == tuple(e.media_id for e in entries)
        assert reference.same_bits(a.vectors, rows_a)
        assert reference.same_bits(b.vectors, rows_b)
        if planted is None:
            assert ground_truth is None
        else:
            assert ground_truth.kind == spec.planted_kind
            assert reference.same_bits(ground_truth.matrix, planted)

        # a permuted subset of A, in float64 or float32, as another base
        pick = random.sample(range(len(a)), random.randint(1, len(a)))
        vectors = a.vectors[pick].astype(np.float32 if float32_base else np.float64)
        base = EmbeddingSet("A", [a.media_ids[i] for i in pick], vectors)
        options = dict(planted_kind=spec.planted_kind, seed=(spec.seed + 1) % 2**64,
                       cross_model_noise=spec.cross_model_noise,
                       within_class_noise=spec.within_class_noise)
        derived, derived_truth = derive_model(base, manifest, **options)
        rows, derived_planted = reference.derive_model(base, manifest, **options)
        assert derived.media_ids == base.media_ids
        assert reference.same_bits(derived.vectors, rows)
        if derived_planted is None:
            assert derived_truth is None
        else:
            assert reference.same_bits(derived_truth.matrix, derived_planted)

    @pytest.mark.parametrize("kind", PLANTED_KINDS)
    def test_sets_own_their_read_only_arrays(self, kind):
        spec = SynthSpec(dim=8, num_subjects=5, media_per_subject=3, planted_kind=kind)
        a, b, manifest, _ = generate_world(spec)
        derived, _ = derive_model(a.restrict(a.media_ids[::2]), manifest, planted_kind=kind)
        for vectors in (a.vectors, b.vectors, derived.vectors):
            assert vectors.base is None and not vectors.flags.writeable


WORLD_MEMORY_GATE = """
import json
import numpy as np
from embalign import SynthSpec, generate_world

spec = SynthSpec(dim=512, num_subjects=2_000, media_per_subject=10, seed=5)
np.ones((64, 64)) @ np.ones((64, 64))
# the two sets' arrays and one more set's worth of room: every set adopts
# the array made for it, so no set is held twice
cap_address_space(3 * spec.num_subjects * spec.media_per_subject * spec.dim * 8)
a, b, manifest, planted = generate_world(spec)
print(json.dumps({"media": [len(a), len(b), len(manifest)],
                  "owned": [v.base is None and not v.flags.writeable
                            for v in (a.vectors, b.vectors)]}))
"""


class TestWorldMemory:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_world_memory_bounded(self):
        done = run_gate(WORLD_MEMORY_GATE)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout)
        assert result == {"media": [20_000] * 3, "owned": [True, True]}


class TestGenerateWorld:
    def small(self, **kw):
        defaults = dict(dim=16, num_subjects=20, media_per_subject=5, seed=11)
        defaults.update(kw)
        return SynthSpec(**defaults)

    def test_deterministic_bit_identical(self):
        spec = self.small()
        a1, b1, _, gt1 = generate_world(spec)
        a2, b2, _, gt2 = generate_world(spec)
        assert a1.vectors.tobytes() == a2.vectors.tobytes()
        assert b1.vectors.tobytes() == b2.vectors.tobytes()
        assert gt1.matrix.tobytes() == gt2.matrix.tobytes()

    def test_different_seeds_differ(self):
        a1, _, _, _ = generate_world(self.small(seed=1))
        a2, _, _, _ = generate_world(self.small(seed=2))
        assert a1.vectors.tobytes() != a2.vectors.tobytes()

    def test_all_vectors_unit_norm(self):
        for kind in ("rotation", "linear", "independent"):
            a, b, _, _ = generate_world(self.small(planted_kind=kind))
            assert a.normalized
            assert b.normalized

    def test_manifest_matches_media(self):
        a, _, manifest, _ = generate_world(self.small())
        assert set(a.media_ids) == set(manifest.media_ids)
        assert len(manifest.template_ids) == 100  # one template per medium

    def test_video_grouping(self):
        spec = self.small(media_per_subject=5, frames_per_video=2)
        _, _, manifest, _ = generate_world(spec)
        # 2 videos of 2 frames plus 1 leftover single-image template per subject
        entries = reference.decoded(manifest).entries
        for sid in manifest.subject_ids:
            tids = {e.template_id for e in entries if e.subject_id == sid}
            assert len(tids) == 3
        with_video = [e for e in entries if e.video_id is not None]
        assert len(with_video) == 20 * 4

    def test_noiseless_rotation_plant_exact(self):
        spec = self.small(within_class_noise=0.0, cross_model_noise=0.0)
        a, b, _, gt = generate_world(spec)
        assert np.allclose(b.vectors, a.vectors @ gt.matrix, atol=1e-12)

    def test_fit_recovers_planted_rotation(self):
        spec = self.small(
            num_subjects=20, media_per_subject=5, cross_model_noise=0.0
        )
        a, b, _, gt = generate_world(spec)
        x, y = align_pairs(a, b)
        assert x.shape[0] >= spec.dim
        mapping, _ = fit_rotation(x, y)
        assert np.linalg.norm(mapping.matrix - gt.matrix) < 1e-6

    def test_independent_has_no_ground_truth(self):
        a, b, _, gt = generate_world(self.small(planted_kind="independent"))
        assert gt is None
        assert a.media_ids == b.media_ids

    def test_linear_plant_bounded_condition(self):
        _, _, _, gt = generate_world(self.small(planted_kind="linear"))
        s = np.linalg.svd(gt.matrix, compute_uv=False)
        assert s[0] / s[-1] <= 10.0

    def test_independent_identity_map_tar_near_far(self):
        # two media per subject so genuine scores are independent draws
        spec = SynthSpec(
            dim=32,
            num_subjects=400,
            media_per_subject=2,
            planted_kind="independent",
            seed=21,
        )
        a, b, manifest, _ = generate_world(spec)
        mapped = apply_map(identity_map(spec.dim, target_model_id="B"), a)
        templates_a = build_templates(mapped, manifest)
        templates_b = build_templates(b, manifest)
        pairs = sample_eval_pairs(
            manifest, manifest.template_ids, 5000, seed=0
        )
        report = roc(score_pairs(templates_a, templates_b, pairs, manifest), [0.1])
        se = math.sqrt(0.1 * 0.9 / report.genuine_count)
        assert report.impostor_count >= 2000
        assert abs(report.tar_at_far[0] - 0.1) <= 3 * se

    def test_separability_floor(self):
        spec = SynthSpec(
            dim=16,
            num_subjects=100,
            media_per_subject=5,
            within_class_noise=0.3,
            seed=13,
        )
        a, _, manifest, _ = generate_world(spec)
        templates = build_templates(a, manifest)
        pairs = sample_eval_pairs(
            manifest, manifest.template_ids, 10000, seed=1
        )
        report = roc(score_pairs(templates, templates, pairs, manifest), [1e-2])
        assert report.tar_at_far[0] >= 0.95


class TestDeriveModel:
    def test_planted_kinds(self):
        spec = SynthSpec(dim=16, num_subjects=10, media_per_subject=4, seed=5)
        a, _, manifest, _ = generate_world(spec)
        derived, gt = derive_model(
            a, manifest, planted_kind="rotation", cross_model_noise=0.0,
            seed=7, model_id="C",
        )
        assert derived.model_id == "C"
        assert gt.kind == "rotation"
        assert np.allclose(derived.vectors, a.vectors @ gt.matrix, atol=1e-12)
        independent, gt2 = derive_model(
            a, manifest, planted_kind="independent", seed=7, model_id="D"
        )
        assert gt2 is None
        assert independent.normalized

    def test_deterministic(self):
        spec = SynthSpec(dim=8, num_subjects=5, media_per_subject=3, seed=5)
        a, _, manifest, _ = generate_world(spec)
        d1, _ = derive_model(a, manifest, planted_kind="linear", seed=3)
        d2, _ = derive_model(a, manifest, planted_kind="linear", seed=3)
        assert d1.vectors.tobytes() == d2.vectors.tobytes()

    @pytest.mark.parametrize("kind", ["rotation", "linear", "independent"])
    def test_rows_independent_of_base_order_and_subset(self, kind):
        spec = SynthSpec(dim=33, num_subjects=9, media_per_subject=5, seed=2)
        a, _, manifest, _ = generate_world(spec)
        options = dict(planted_kind=kind, cross_model_noise=0.05, seed=4)
        full, _ = derive_model(a, manifest, **options)
        expected = {mid: full.vectors[i].tobytes() for i, mid in enumerate(full.media_ids)}
        rng = np.random.default_rng(0)
        bases = []
        for n in (1, 2, 7, len(a) // 2, len(a)):
            # a shuffled subset: n random rows in random order
            pick = rng.permutation(len(a))[:n]
            bases.append(EmbeddingSet("A", [a.media_ids[i] for i in pick], a.vectors[pick]))
        for base in bases:
            derived, _ = derive_model(base, manifest, **options)
            assert derived.media_ids == base.media_ids
            for i, mid in enumerate(derived.media_ids):
                assert derived.vectors[i].tobytes() == expected[mid]

    @pytest.mark.parametrize("kind", ["rotation", "linear"])
    def test_zero_base_row_derives_a_zero_row(self, kind):
        # with no cross-model noise a zero base row has no direction:
        # store.unit_rows sets it to +0.0, without a warning, and every
        # other row is as derived from a base without it
        spec = SynthSpec(dim=16, num_subjects=4, media_per_subject=3, seed=5)
        a, _, manifest, _ = generate_world(spec)
        vectors = np.array(a.vectors)
        vectors[4] = 0.0
        options = dict(planted_kind=kind, cross_model_noise=0.0, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derived, _ = derive_model(EmbeddingSet("A", a.media_ids, vectors), manifest,
                                      **options)
        assert derived.vectors[4].tobytes() == np.zeros(16).tobytes()
        others = np.arange(len(a)) != 4
        full, _ = derive_model(a, manifest, **options)
        assert derived.vectors[others].tobytes() == full.vectors[others].tobytes()

    def test_medium_missing_from_manifest_rejected(self):
        spec = SynthSpec(dim=4, num_subjects=3, media_per_subject=2, seed=1)
        a, _, manifest, _ = generate_world(spec)
        stray = EmbeddingSet("A", ("stray",), np.ones((1, 4)))
        with pytest.raises(UnknownIdError, match="stray"):
            derive_model(stray, manifest, planted_kind="rotation")


class TestRandomRotation:
    def test_construction_contract(self):
        for dim in (2, 5, 33):
            rotation = random_rotation(dim, seed=1)
            m = rotation.matrix
            assert np.allclose(m.T @ m, np.eye(dim), atol=1e-10)
            assert abs(np.linalg.det(m) - 1.0) <= 1e-10

    def test_seed_determinism(self):
        a = random_rotation(6, seed=42)
        b = random_rotation(6, seed=42)
        c = random_rotation(6, seed=43)
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.matrix.tobytes() != c.matrix.tobytes()

    def test_2d_angle_uniform(self):
        # Kolmogorov-Smirnov against the uniform CDF on [0, 2*pi)
        n = 10000
        angles = np.empty(n)
        for k in range(n):
            m = random_rotation(2, seed=k).matrix
            angles[k] = math.atan2(m[0, 1], m[0, 0]) % (2.0 * math.pi)
        u = np.sort(angles / (2.0 * math.pi))
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
        assert ks < 0.02

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError):
            random_rotation(1, seed=0)
