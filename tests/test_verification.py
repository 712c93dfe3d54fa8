import ast
import json
import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eval as reference
from memory_gate import run_gate
from embalign import store, verification
from embalign import (
    DataError,
    DimensionError,
    EmbeddingSet,
    EvalPlan,
    MediaEntry,
    MediaManifest,
    PairList,
    ProtocolError,
    RocReport,
    ScoredPairs,
    TemplateSet,
    UnknownIdError,
    build_templates,
    random_rotation,
    roc,
    score_pairs,
    scores_to_csv,
)


def embset(ids, vectors, model_id="m"):
    return EmbeddingSet(
        model_id=model_id, media_ids=tuple(ids), vectors=np.asarray(vectors, float)
    )


def scored_from(gen_scores, imp_scores):
    scores = list(gen_scores) + list(imp_scores)
    genuine = [True] * len(gen_scores) + [False] * len(imp_scores)
    ids_a = tuple(f"a{i}" for i in range(len(scores)))
    ids_b = tuple(f"b{i}" for i in range(len(scores)))
    return ScoredPairs(
        template_ids_a=ids_a,
        template_ids_b=ids_b,
        scores=np.array(scores, float),
        genuine=np.array(genuine, bool),
    )


def roc_oracle(gen, imp, far_targets):
    """Exhaustive sweep over distinct impostor scores, brute counting.

    Picks the smallest candidate threshold whose realized impostor
    acceptance fraction stays at or below each target; when none
    qualifies the threshold moves just above the largest impostor score.
    """
    gen = np.asarray(gen, float)
    imp = np.asarray(imp, float)
    candidates = sorted(set(imp.tolist()))
    out = []
    for f in far_targets:
        chosen = None
        for t in candidates:
            if np.sum(imp >= t) / imp.size <= f:
                chosen = t
                break
        if chosen is None:
            chosen = float(np.nextafter(max(candidates), math.inf))
        tar = float(np.sum(gen >= chosen) / gen.size)
        out.append((chosen, tar))
    return out


class TestBuildTemplates:
    def manifest(self):
        return MediaManifest(
            [
                MediaEntry("img1", "s1", "t1", None),
                MediaEntry("img2", "s1", "t1", None),
                MediaEntry("frameA", "s2", "t2", "vid1"),
                MediaEntry("frameB", "s2", "t2", "vid1"),
                MediaEntry("img3", "s2", "t2", None),
                MediaEntry("solo", "s3", "t3", None),
            ]
        )

    def test_single_image_normalized(self):
        manifest = MediaManifest([MediaEntry("solo", "s3", "t3", None)])
        templates = build_templates(embset(["solo"], [[3.0, 0.0]]), manifest)
        assert templates.template_ids == ("t3",)
        assert np.allclose(templates.vectors, [[1.0, 0.0]])
        assert templates.subject_ids == ("s3",)

    def test_two_image_symmetric_sum(self):
        manifest = MediaManifest(
            [MediaEntry("img1", "s1", "t1"), MediaEntry("img2", "s1", "t1")]
        )
        templates = build_templates(
            embset(["img1", "img2"], [[1.0, 0.0], [0.0, 1.0]]), manifest
        )
        r = math.sqrt(2.0) / 2.0
        assert np.allclose(templates.vectors, [[r, r]], atol=1e-12)

    def test_video_plus_image_pipeline(self):
        # frames (1,0) and (0,1) average to (0.5, 0.5), used raw;
        # image (1,0) stays unit; sum = (1.5, 0.5); normalized.
        templates = build_templates(
            embset(
                ["frameA", "frameB", "img3"],
                [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
            ),
            self.manifest(),
        )
        expected = np.array([1.5, 0.5]) / np.linalg.norm([1.5, 0.5])
        assert np.allclose(templates.vectors, [expected], atol=1e-12)

    def test_media_normalized_before_aggregation(self):
        # scaling one image must not change the template direction
        manifest = MediaManifest(
            [MediaEntry("img1", "s1", "t1"), MediaEntry("img2", "s1", "t1")]
        )
        base = build_templates(
            embset(["img1", "img2"], [[1.0, 0.0], [0.0, 1.0]]), manifest
        )
        scaled = build_templates(
            embset(["img1", "img2"], [[9.0, 0.0], [0.0, 1.0]]), manifest
        )
        assert np.allclose(base.vectors, scaled.vectors, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        ids = ["frameA", "frameB", "img1", "img2", "img3", "solo"]
        vectors = rng.standard_normal((6, 5))
        base = build_templates(embset(ids, vectors), self.manifest())
        perm = [3, 0, 5, 2, 4, 1]
        shuffled = build_templates(
            embset([ids[i] for i in perm], vectors[perm]), self.manifest()
        )
        assert base.template_ids == shuffled.template_ids
        assert np.array_equal(base.vectors, shuffled.vectors)

    def test_templates_without_media_absent(self):
        templates = build_templates(embset(["solo"], [[1.0, 1.0]]), self.manifest())
        assert templates.template_ids == ("t3",)

    def test_unknown_media_rejected(self):
        with pytest.raises(UnknownIdError):
            build_templates(embset(["ghost"], [[1.0, 0.0]]), self.manifest())

    def test_degenerate_template_dropped(self):
        manifest = MediaManifest(
            [MediaEntry("a", "s1", "t1"), MediaEntry("b", "s1", "t1"),
             MediaEntry("c", "s2", "t2")]
        )
        templates = build_templates(
            embset(["a", "b", "c"], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), manifest
        )
        assert templates.template_ids == ("t2",)
        assert templates.dropped == ("t1",)


class TestTemplateNorms:
    """Each template's norm is the square root of one batched product per
    row, which has the bits of ``np.linalg.norm`` on that row only while
    numpy runs a stack of 1 x d @ d x 1 products as one dot per row: a
    numpy that changes that dispatch fails here."""

    @pytest.mark.parametrize("dim", [3, 64, 127, 128, 512, 1024])
    def test_batched_products_have_the_bits_of_one_dot_per_row(self, dim):
        rng = np.random.default_rng(dim)
        rows = rng.standard_normal((4000, dim)) * 10.0 ** rng.integers(-3, 4, (4000, 1))
        batched = np.matmul(rows[:, None, :], rows[:, :, None]).ravel()
        per_row = np.fromiter(map(np.dot, rows, rows), float, len(rows))
        assert batched.tobytes() == per_row.tobytes()
        norms = np.array([np.linalg.norm(row) for row in rows])
        assert np.sqrt(batched).tobytes() == norms.tobytes()

    @pytest.mark.parametrize("dim", [3, 64, 127, 128, 512, 1024])
    def test_single_image_templates_divide_by_linalg_norm(self, dim):
        rng = np.random.default_rng(dim)
        n = 3000
        rows = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4, (n, 1))
        ids = [f"m{i:05d}" for i in range(n)]
        manifest = MediaManifest([MediaEntry(m, f"s{i // 3}", f"t{m}") for i, m in enumerate(ids)])
        templates = build_templates(embset(ids, rows), manifest)
        unit = rows / np.linalg.norm(rows, axis=1)[:, None]
        want = unit / np.array([np.linalg.norm(row) for row in unit])[:, None]
        assert templates.vectors.tobytes() == want.tobytes()


class TestScorePairs:
    def setup_sets(self):
        manifest = MediaManifest(
            [
                MediaEntry("m1", "s1", "t1"),
                MediaEntry("m2", "s1", "t2"),
                MediaEntry("m3", "s2", "t3"),
            ]
        )
        a = TemplateSet(
            model_id="A",
            template_ids=("t1", "t2", "t3"),
            subject_ids=("s1", "s1", "s2"),
            vectors=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
        )
        return manifest, a

    def test_identical_templates_score_one(self):
        manifest, a = self.setup_sets()
        scored = score_pairs(a, a, PairList(pairs=(("t1", "t2"),)), manifest)
        # t1 . t2 = 0 here; check t1 against itself through side b
        scored = score_pairs(a, a, PairList(pairs=(("t1", "t3"),)), manifest)
        assert scored.scores[0] == pytest.approx(1.0)
        assert not scored.genuine[0]

    def test_orthogonal_templates_score_zero(self):
        manifest, a = self.setup_sets()
        scored = score_pairs(a, a, PairList(pairs=(("t1", "t2"),)), manifest)
        assert scored.scores[0] == pytest.approx(0.0)
        assert scored.genuine[0]

    def test_pair_order_preserved(self):
        manifest, a = self.setup_sets()
        pairs = PairList(pairs=(("t2", "t3"), ("t1", "t2"), ("t1", "t3")))
        scored = score_pairs(a, a, pairs, manifest)
        assert scored.template_ids_a == ("t2", "t1", "t1")
        assert scored.template_ids_b == ("t3", "t2", "t3")

    def test_unresolvable_id_rejected(self):
        manifest, a = self.setup_sets()
        with pytest.raises(UnknownIdError):
            score_pairs(a, a, PairList(pairs=(("t1", "t9"),)), manifest)

    def test_dropped_templates_skip_pairs(self):
        manifest, a = self.setup_sets()
        b = TemplateSet(
            model_id="B",
            template_ids=("t1", "t2"),
            subject_ids=("s1", "s1"),
            vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
            dropped=("t3",),
        )
        pairs = PairList(pairs=(("t1", "t3"), ("t1", "t2")))
        scored = score_pairs(a, b, pairs, manifest)
        assert len(scored) == 1
        assert scored.dropped_pairs == 1

    def test_dim_mismatch(self):
        manifest, a = self.setup_sets()
        b = TemplateSet(
            model_id="B",
            template_ids=("t2",),
            subject_ids=("s1",),
            vectors=np.array([[1.0, 0.0, 0.0]]),
        )
        with pytest.raises(DimensionError):
            score_pairs(a, b, PairList(pairs=(("t1", "t2"),)), manifest)

    @pytest.mark.parametrize("kept, dropped", [
        (("t0", "t1"), ("t1",)),
        (("t0", "t1"), ("t2", "t0")),
        (("t0", "t1"), ("t2", "t2")),
        (("t0",), ("t1", "t2", "t1")),
    ])
    def test_id_kept_and_dropped_or_dropped_twice_refused(self, kept, dropped):
        # a pair to an id both kept and dropped would be dropped silently,
        # though the set holds its vector
        with pytest.raises(DataError, match="duplicate template ids"):
            TemplateSet("A", kept, ("s0",) * len(kept), np.eye(len(kept), 2), dropped=dropped)

    def test_distinct_dropped_ids_accepted(self):
        side = TemplateSet("A", ("t0", "t1"), ("s0", "s1"), np.eye(2), dropped=("t2", "t3"))
        assert side.dropped == ("t2", "t3")

    def test_symmetric_under_side_swap(self):
        manifest, a = self.setup_sets()
        rotation = random_rotation(2, seed=3)
        b = TemplateSet(
            model_id="B",
            template_ids=a.template_ids,
            subject_ids=a.subject_ids,
            vectors=a.vectors @ rotation.matrix,
        )
        pairs = PairList(pairs=(("t1", "t2"), ("t2", "t3")))
        swapped = PairList(pairs=(("t2", "t1"), ("t3", "t2")))
        forward = score_pairs(a, b, pairs, manifest)
        backward = score_pairs(b, a, swapped, manifest)
        assert np.allclose(forward.scores, backward.scores, atol=1e-12)

    def test_common_rotation_leaves_scores_unchanged(self):
        manifest, a = self.setup_sets()
        rotation = random_rotation(2, seed=4).matrix
        rotated = TemplateSet(
            model_id="A",
            template_ids=a.template_ids,
            subject_ids=a.subject_ids,
            vectors=a.vectors @ rotation,
        )
        pairs = PairList(pairs=(("t1", "t2"), ("t1", "t3"), ("t2", "t3")))
        base = score_pairs(a, a, pairs, manifest)
        spun = score_pairs(rotated, rotated, pairs, manifest)
        assert np.allclose(base.scores, spun.scores, atol=1e-8)

    def test_csv_dump(self, tmp_path):
        manifest, a = self.setup_sets()
        scored = score_pairs(a, a, PairList(pairs=(("t1", "t3"),)), manifest)
        path = tmp_path / "scores.csv"
        scores_to_csv(scored, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "template_id_a,template_id_b,score,genuine"
        assert lines[1].startswith("t1,t3,1.0,false")

    def test_csv_pieces_write_each_pair(self, tmp_path):
        # more pairs than one piece of pair_chunks; each row as the pair's
        # ids, repr of its score and its label
        rng = np.random.default_rng(8)
        n = 1000
        ids = tuple(f"t{i}" for i in range(50))
        codes = rng.integers(0, 50, (2, n))
        codes[1] = (codes[0] + 1 + codes[1] % 49) % 50
        scored = ScoredPairs.coded(ids, *codes, scores=rng.standard_normal(n),
                                   genuine=rng.random(n) < 0.3)
        path = tmp_path / "scores.csv"
        scores_to_csv(scored, path)
        want = ["template_id_a,template_id_b,score,genuine"] + [
            f"{a},{b},{float(s)!r},{str(bool(g)).lower()}"
            for (a, b), s, g in zip(scored, scored.scores, scored.genuine)
        ]
        assert path.read_bytes() == ("\r\n".join(want) + "\r\n").encode()

    def test_csv_memory_does_not_grow_with_pairs(self, tmp_path):
        # decoding every pair's codes at once takes two lists of n ints
        n = 400_000
        ids = tuple(f"t{i}" for i in range(1000))
        codes = np.arange(n) % 1000
        scored = ScoredPairs.coded(ids, codes, (codes + 1) % 1000,
                                   scores=np.linspace(-1, 1, n), genuine=codes < 10)
        tracemalloc.start()
        try:
            scores_to_csv(scored, tmp_path / "scores.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestScoredPairs:
    """A scored pair list is a PairList with a score and a label per pair."""

    def test_is_a_pair_list(self):
        assert issubclass(ScoredPairs, PairList)
        scored = scored_from([0.9], [0.1])
        assert isinstance(scored, PairList)
        assert list(scored) == [("a0", "b0"), ("a1", "b1")]
        assert [f.name for f in fields(ScoredPairs)] == [
            "template_ids", "codes_a", "codes_b", "scores", "genuine", "dropped_pairs",
        ]
        own = set(vars(ScoredPairs))
        assert not own & {"coded", "_adopt", "__len__", "__iter__",
                          "template_ids_a", "template_ids_b"}

    def test_self_pair_refused(self):
        with pytest.raises(DataError, match="self-pair 't1'"):
            ScoredPairs(("t0", "t1"), ("t2", "t1"), [0.5, 0.5], [False, True])
        with pytest.raises(DataError, match="self-pair 't1'"):
            ScoredPairs.coded(("t0", "t1"), [1], [1], scores=[0.5], genuine=[True])

    def test_coded_checks_codes_and_fields(self):
        with pytest.raises(DataError, match="pair code 2 outside"):
            ScoredPairs.coded(("t0", "t1"), [0], [2], scores=[0.5], genuine=[True])
        with pytest.raises(DataError, match="equal length"):
            ScoredPairs.coded(("t0", "t1"), [0], [1], scores=[0.5, 0.1], genuine=[True])
        with pytest.raises(DataError, match="non-finite"):
            ScoredPairs.coded(("t0", "t1"), [0], [1], scores=[np.nan], genuine=[True])


@st.composite
def protocols(draw):
    """A random manifest, two embedding sets over it, side a again in a
    shuffled row order, and a pair list.

    Covers images and multi-frame videos, degenerate (zero) media rows,
    templates whose feature sum cancels to zero, templates with no media
    on a side, pairs through dropped or unknown templates, and media
    missing from the manifest.
    """
    dim = draw(st.integers(1, 7))
    n_templates = draw(st.integers(1, 6))
    n_subjects = draw(st.integers(1, 3))
    subjects = [draw(st.integers(0, n_subjects - 1)) for _ in range(n_templates)]
    n_media = draw(st.integers(1, 16))
    names = draw(st.permutations(range(n_media)))
    entries = []
    for m in range(n_media):
        t = draw(st.integers(0, n_templates - 1))
        video = draw(st.sampled_from([None, None, 0, 1]))
        entries.append(
            MediaEntry(
                f"m{names[m]:02d}",
                f"s{subjects[t]}",
                f"t{t}",
                None if video is None else f"v{t}_{video}",
            )
        )
    manifest = MediaManifest(entries)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def side(model_id, ghost):
        ids, rows = [], []
        for e in entries:
            if not draw(st.booleans()) and draw(st.booleans()):
                continue
            mode = draw(st.sampled_from(["normal", "integer", "zero", "negated"]))
            if mode == "normal":
                row = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
            elif mode == "integer":
                row = rng.integers(-1, 2, dim).astype(float)
            elif mode == "zero" or not rows:
                row = np.zeros(dim)
            else:
                # an exact opposite direction, so a template can cancel
                row = -4.0 * rows[draw(st.integers(0, len(rows) - 1))]
            ids.append(e.media_id)
            rows.append(row)
        if ghost:
            ids.append("ghost")
            rows.append(np.ones(dim))
        return embset(ids, np.array(rows).reshape(len(ids), dim), model_id)

    emb_a = side("A", draw(st.integers(0, 9)) == 0)
    emb_b = side("B", False)
    perm = draw(st.permutations(range(len(emb_a))))
    shuffled_a = embset(
        [emb_a.media_ids[i] for i in perm], emb_a.vectors[list(perm)], "A"
    )
    template_ids = [f"t{t}" for t in range(n_templates)] + ["t_unknown"]
    index_pairs = draw(
        st.lists(st.tuples(st.sampled_from(template_ids), st.sampled_from(template_ids)),
                 max_size=25)
    )
    pairs = PairList(pairs=tuple((x, y) for x, y in index_pairs if x != y))
    return manifest, emb_a, emb_b, shuffled_a, pairs


def unknown_id_message(fn, *args):
    """The message of the UnknownIdError that fn raises, or None."""
    try:
        fn(*args)
    except UnknownIdError as exc:
        return str(exc)
    return None


class TestOrderedSums:
    """_ordered_sums against np.sum over each group's stacked rows."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=8), st.integers(0, 2**32 - 1))
    def test_bits_of_np_sum(self, sizes, seed):
        rng = np.random.default_rng(seed)
        n = sum(sizes) + int(rng.integers(0, 3))
        values = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=(n, 3))
        members = rng.permutation(n)[: sum(sizes)]
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        want = [
            np.sum(values[members[lo:hi]], axis=0) if hi > lo else np.zeros(3)
            for lo, hi in zip(starts, starts[1:])
        ]
        got = verification._ordered_sums(values[members], starts)
        assert got.tobytes() == np.array(want).reshape(len(sizes), 3).tobytes()

    def test_one_row_groups_in_order_summed_in_place(self):
        values = np.array([[-0.0, 1.0], [2.0, -0.0]])
        starts = np.arange(3)
        got = verification._ordered_sums(values, starts)
        assert got is values
        assert got.tobytes() == np.array([[0.0, 1.0], [2.0, 0.0]]).tobytes()


# Both sides' templates and their scores for a 30,000-medium single-image
# world (dim 256) under an RLIMIT_AS of the VmSize after loading it, plus
# two rows x dim float64 arrays (the two template sets) and 64 MiB.
# Measured at one BLAS thread: this passes with no slack beyond the two
# template sets and fails 8 MiB below them; building templates through
# full-size temporaries (a gathered copy per summing step and a second
# copy of each set) needed 160 to 176 MiB of slack.
TEMPLATE_MEMORY_GATE = """
import json, tempfile
from pathlib import Path
import numpy as np
from embalign import (EvalPlan, PairList, SynthSpec, generate_world, load_embeddings,
                      save_embeddings)

set_a, set_b, manifest, _ = generate_world(
    SynthSpec(dim=256, num_subjects=3000, media_per_subject=10, seed=3))
with tempfile.TemporaryDirectory() as tmp:
    save_embeddings(set_a, Path(tmp) / "a.cfeb")
    save_embeddings(set_b, Path(tmp) / "b.cfeb")
    del set_a, set_b
    a = load_embeddings(Path(tmp) / "a.cfeb")
    b = load_embeddings(Path(tmp) / "b.cfeb")
tids = sorted(manifest.template_ids)
picks = np.random.default_rng(0).integers(0, len(tids), size=(40_000, 2))
pairs = PairList(tuple((tids[i], tids[j]) for i, j in picks if i != j)
                 + tuple((tids[i], tids[i + 1]) for i in range(0, len(tids), 10)))

cap_address_space(2 * len(a) * a.dim * 8 + (64 << 20))
plan = EvalPlan(manifest, a.media_ids, pairs)
scored = plan.score(plan.templates(a), plan.templates(b))
print(json.dumps({"media": len(a), "pairs": len(scored),
                  "genuine": int(scored.genuine.sum())}))
"""


class TestEvalPlanOracle:
    """The compiled plan against the reference loops, compared bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(protocols())
    def test_plan_matches_reference_loops(self, protocol):
        manifest, emb_a, emb_b, shuffled_a, pairs = protocol
        error = unknown_id_message(reference.build_templates, emb_a, manifest)
        if error is not None:
            assert unknown_id_message(build_templates, emb_a, manifest) == error
            assert unknown_id_message(build_templates, shuffled_a, manifest) == error
            assert unknown_id_message(EvalPlan, manifest, emb_a.media_ids, pairs) == error
            return
        want_a = reference.build_templates(emb_a, manifest)
        want_b = reference.build_templates(emb_b, manifest)
        plan = EvalPlan(manifest, emb_a.media_ids, pairs)
        for got in (
            build_templates(emb_a, manifest),
            build_templates(shuffled_a, manifest),
            plan.templates(emb_a),
            plan.templates(shuffled_a),
        ):
            reference.assert_same_templates(got, want_a)
        reference.assert_same_templates(plan.templates(emb_b), want_b)

        error = unknown_id_message(reference.score_pairs, want_a, want_b, pairs, manifest)
        if error is not None:
            assert unknown_id_message(score_pairs, want_a, want_b, pairs, manifest) == error
            assert unknown_id_message(plan.score, want_a, want_b) == error
            assert unknown_id_message(plan.score, want_a, emb_b) == error
            return
        want = reference.score_pairs(want_a, want_b, pairs, manifest)
        reference.assert_same_scores(score_pairs(want_a, want_b, pairs, manifest), want)
        reference.assert_same_scores(plan.score(want_a, want_b), want)
        reference.assert_same_scores(plan.score(want_a, emb_b), want)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_template_memory_bounded(self):
        done = run_gate(TEMPLATE_MEMORY_GATE)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout)
        assert result["media"] == 30_000
        assert result["pairs"] > 40_000
        assert result["genuine"] >= 3_000

    def test_one_grouping_for_a_set_in_the_compiled_order(self, monkeypatch):
        # degenerate rows become zero rows in the compiled grouping; only a
        # set in another media order is grouped afresh
        manifest, a, b, pairs = chunked_protocol(50, 3)
        row = {m: i for i, m in enumerate(b.media_ids)}
        b = embset(a.media_ids, np.asarray(b.vectors)[[row[m] for m in a.media_ids]], "B")
        assert b.media_ids == a.media_ids and not np.asarray(b.vectors).any(axis=1).all()
        made = []
        init = verification._Grouping.__init__
        monkeypatch.setattr(verification._Grouping, "__init__",
                            lambda self, *args: made.append(init(self, *args)))
        plan = EvalPlan(manifest, a.media_ids, pairs)
        templates_b = plan.templates(b)
        scored = plan.score(plan.templates(a), b)
        assert len(made) == 1 and templates_b.dropped == ("t00003", "t00004")
        assert scored.dropped_pairs > 0
        reference.assert_same_templates(templates_b, reference.build_templates(b, manifest))
        plan.templates(embset(a.media_ids[::-1], np.asarray(a.vectors)[::-1]))
        assert len(made) == 2

    def test_scores_span_many_chunks(self):
        # more pairs than one scoring chunk, on sides in different row orders
        rng = np.random.default_rng(11)
        n, dim = 400, 37
        entries = [
            MediaEntry(f"m{i:03d}", f"s{i // 2 % 40}", f"t{i // 2:03d}",
                       f"v{i // 2:03d}" if i % 4 < 2 else None)
            for i in range(n)
        ]
        manifest = MediaManifest(entries)
        ids = [e.media_id for e in entries]
        a = embset(ids, rng.standard_normal((n, dim)), "A")
        order = rng.permutation(n)
        b = embset([ids[i] for i in order], rng.standard_normal((n, dim)), "B")
        tids = sorted(manifest.template_ids)
        picks = rng.integers(0, len(tids), size=(20000, 2))
        pairs = PairList(
            pairs=tuple((tids[i], tids[j]) for i, j in picks if i != j)
        )
        assert len(pairs) > 4 * store._ROW_CHUNK
        plan = EvalPlan(manifest, a.media_ids, pairs)
        want_a = reference.build_templates(a, manifest)
        want_b = reference.build_templates(b, manifest)
        got_a, got_b = plan.templates(a), plan.templates(b)
        reference.assert_same_templates(got_a, want_a)
        reference.assert_same_templates(got_b, want_b)
        reference.assert_same_scores(
            plan.score(got_a, got_b), reference.score_pairs(want_a, want_b, pairs, manifest)
        )


def chunked_protocol(n_templates: int, seed: int, big: int = 5000):
    """A manifest of ``n_templates`` templates, mostly one image each, with
    3-frame videos, one template of ``big`` media (by default more than
    one template chunk holds), and two embedding sets over it: side b in
    another row order, with zero rows, two of them the only rows of the
    one-image templates t00003 and t00004, which b drops. Pairs are
    random, with genuine pairs and pairs through b's dropped templates."""
    rng = np.random.default_rng(seed)
    entries = []
    for t in range(n_templates):
        tid, sid = f"t{t:05d}", f"s{t // 3:05d}"
        if t == 7:
            entries += [MediaEntry(f"m{t:05d}_{k:04d}", sid, tid,
                                   f"v{t}_{k // 40}" if k % 2 else None) for k in range(big)]
        elif t % 5 == 0:
            entries += [MediaEntry(f"m{t:05d}_{k}", sid, tid, f"v{t}") for k in range(3)]
        else:
            entries.append(MediaEntry(f"m{t:05d}", sid, tid))
    manifest = MediaManifest(entries)
    ids = [e.media_id for e in entries]
    dim = 6
    a = embset(ids, rng.standard_normal((len(ids), dim)), "A")
    rows = rng.standard_normal((len(ids), dim))
    rows[rng.choice(len(ids), min(50, len(ids) // 10), replace=False)] = 0.0
    rows[[i for i, e in enumerate(entries) if e.template_id in ("t00003", "t00004")]] = 0.0
    order = rng.permutation(len(ids))
    b = embset([ids[i] for i in order], rows[order], "B")
    tids = manifest.template_ids
    picks = rng.integers(0, n_templates, size=(6000, 2))
    pairs = [(tids[i], tids[j]) for i, j in picks if i != j]
    pairs += [(tids[i], tids[i + 1]) for i in range(0, n_templates - 1, 3)]
    pairs += [("t00007", tids[-1]), ("t00003", "t00007"), (tids[-1], "t00003")]
    return manifest, a, b, PairList(tuple(pairs))


class TestScoreEmbeddingSide:
    """Side b as an embedding set, its templates built a chunk at a time,
    against its whole template set and the reference loops, bit for bit."""

    @pytest.mark.parametrize("n_templates, big", [
        *(pytest.param(n, 5000, id=str(n)) for n in (4095, 4097, 8193, 12291)),
        # side b is one chunk, so its pairs are taken unsorted
        pytest.param(60, 3, id="60-one-chunk"),
    ])
    def test_bits_of_whole_templates(self, n_templates, big):
        manifest, a, b, pairs = chunked_protocol(n_templates, n_templates, big)
        plan = EvalPlan(manifest, a.media_ids, pairs)
        _, codes_b, chunks = plan._side(b)
        walked = [templates for templates, _, _ in chunks()]
        assert (walked == [slice(0, codes_b.size)]) == (big < store._GATHER_BLOCK)
        templates_a = plan.templates(a)
        got = plan.score(templates_a, b)
        assert got.dropped_pairs > 0
        reference.assert_same_scores(
            got, score_pairs(build_templates(a, manifest), build_templates(b, manifest),
                             pairs, manifest))
        want_a = reference.build_templates(a, manifest)
        want_b = reference.build_templates(b, manifest)
        reference.assert_same_templates(templates_a, want_a)
        reference.assert_same_scores(got, reference.score_pairs(want_a, want_b, pairs, manifest))

    @pytest.mark.parametrize("unknown", ["t_ghost", "t00003"])
    def test_unknown_ids_same_message_and_pair(self, unknown):
        # side a lacks t00003; a pair from it to b's dropped t00004 is
        # dropped, not refused, though b's drops are known only once all
        # of b's chunks are built; the next pair is refused
        manifest, a, b, pairs = chunked_protocol(4097, 1)
        a = a.restrict([m for m in a.media_ids if not m.startswith("m00003")])
        pairs = PairList((("t00003", "t00004"), (unknown, "t00002")) + tuple(pairs))
        plan = EvalPlan(manifest, a.media_ids, pairs)
        error = unknown_id_message(plan.score, plan.templates(a), b)
        assert error == f"template {unknown!r} not in side-a set"
        want_a = reference.build_templates(a, manifest)
        want_b = reference.build_templates(b, manifest)
        assert unknown_id_message(reference.score_pairs, want_a, want_b, pairs,
                                  manifest) == error
        assert unknown_id_message(score_pairs, build_templates(a, manifest),
                                  build_templates(b, manifest), pairs, manifest) == error

    def test_pair_scores_computed_in_one_place(self):
        # one einsum scores every pair, whichever side b is
        source = Path(verification.__file__).read_text()
        assert source.count("einsum(") == 1

    def test_only_the_walker_tells_the_sides_apart(self):
        # score has one path: only EvalPlan._side tells a held template set
        # from an embedding set
        tree = ast.parse(Path(verification.__file__).read_text())
        plan = next(node for node in tree.body if getattr(node, "name", None) == "EvalPlan")
        methods = {node.name: node for node in plan.body if isinstance(node, ast.FunctionDef)}
        assert "isinstance(" not in ast.unparse(methods["score"])
        asking = [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                  for node in ast.walk(func) if isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "isinstance"
                  and re.search(r"\b(TemplateSet|EmbeddingSet)\b", ast.unparse(node.args[1]))]
        assert asking == ["_side"]


def tiled_protocol(n_templates: int, seed: int):
    """``chunked_protocol`` with no large template, where side a also
    drops a template: t00005, a 3-frame video whose rows are all zero."""
    manifest, a, b, pairs = chunked_protocol(n_templates, seed, big=3)
    rows = np.asarray(a.vectors).copy()
    rows[[i for i, m in enumerate(a.media_ids) if m.startswith("m00005")]] = 0.0
    a = embset(a.media_ids, rows, "A")
    pairs = PairList(tuple(pairs) + (("t00005", "t00001"), ("t00002", "t00005")))
    return manifest, a, b, pairs


# the _TILE_BUDGET giving each count of tiles, for n templates of dim d
TILE_BUDGETS = {
    "one-template-tiles": lambda n, d: 8 * d,
    "two-tiles": lambda n, d: 8 * d * -(-n // 2),
    "one-tile": lambda n, d: 8 * d * n,
}


class TestTiledSideA:
    """Side a as an embedding set, held one tile of templates at a time,
    against the reference loops, bit for bit."""

    @pytest.mark.parametrize("tiles", TILE_BUDGETS)
    @pytest.mark.parametrize("side_b", ["embeddings", "templates"])
    @pytest.mark.parametrize("n_templates", [
        # side b's embeddings are one chunk, so its pairs are taken unsorted
        pytest.param(60, id="b-one-chunk"),
        pytest.param(700, id="b-many-chunks"),
    ])
    def test_bits_of_whole_templates(self, monkeypatch, n_templates, side_b, tiles):
        manifest, a, b, pairs = tiled_protocol(n_templates, n_templates)
        plan = EvalPlan(manifest, a.media_ids, pairs)
        if side_b == "templates":
            b = plan.templates(b)
        _, codes_b, chunks = plan._side(b)
        walked = [templates for templates, _, _ in chunks()]
        assert (walked == [slice(0, codes_b.size)]) == (n_templates == 60 or side_b == "templates")
        monkeypatch.setattr(store, "_TILE_BUDGET", TILE_BUDGETS[tiles](n_templates, a.dim))
        _, codes_a, walk = plan._side(a, tiled=True)
        count = len(list(walk()))
        assert count == {"one-template-tiles": codes_a.size, "two-tiles": 2, "one-tile": 1}[tiles]
        got = plan.score(a, b)
        want_a = reference.build_templates(a, manifest)
        want_b = reference.build_templates(b, manifest) if side_b == "embeddings" else b
        assert "t00005" in want_a.dropped and {"t00003", "t00004"} <= set(want_b.dropped)
        want = reference.score_pairs(want_a, want_b, pairs, manifest)
        assert 0 < want.dropped_pairs < len(pairs)
        reference.assert_same_scores(got, want)

    @pytest.mark.parametrize("tiles", TILE_BUDGETS)
    @pytest.mark.parametrize("unknown", ["t_ghost", "t00003"])
    def test_unknown_ids_same_message_and_pair(self, monkeypatch, unknown, tiles):
        # side a lacks t00003 and drops t00005; pairs through a dropped
        # template are dropped, not refused, though the drops are known
        # only once every tile and chunk is built; the third pair is refused
        manifest, a, b, pairs = tiled_protocol(700, 1)
        a = a.restrict([m for m in a.media_ids if not m.startswith("m00003")])
        pairs = PairList((("t00003", "t00004"), ("t00005", "t_ghost"), (unknown, "t00002"))
                         + tuple(pairs))
        plan = EvalPlan(manifest, a.media_ids, pairs)
        monkeypatch.setattr(store, "_TILE_BUDGET", TILE_BUDGETS[tiles](699, a.dim))
        error = unknown_id_message(plan.score, a, b)
        assert error == f"template {unknown!r} not in side-a set"
        want_a = reference.build_templates(a, manifest)
        want_b = reference.build_templates(b, manifest)
        assert unknown_id_message(reference.score_pairs, want_a, want_b, pairs,
                                  manifest) == error

    def test_held_template_set_is_one_tile_used_as_is(self, monkeypatch):
        manifest, a, b, pairs = tiled_protocol(60, 3)
        plan = EvalPlan(manifest, a.media_ids, pairs)
        held = plan.templates(a)
        monkeypatch.setattr(store, "_TILE_BUDGET", 8 * held.dim)
        _, _, walk = plan._side(held, tiled=True)
        ((tile, vectors, keep),) = walk()
        assert tile == slice(0, len(held)) and vectors is held.vectors and keep.all()
        reference.assert_same_scores(plan.score(held, b), plan.score(a, b))


class TestRoc:
    def test_perfect_separation(self):
        scored = scored_from([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        report = roc(scored, [1e-3])
        assert report.tar_at_far == (1.0,)

    def test_worked_conservative_threshold(self):
        # one impostor (0.7) is admissible at f=0.34; threshold sits on it
        scored = scored_from([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
        report = roc(scored, [0.34])
        assert report.thresholds == (0.7,)
        assert report.tar_at_far[0] == pytest.approx(2.0 / 3.0)

    def test_matches_oracle_small(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n_gen = int(rng.integers(1, 40))
            n_imp = int(rng.integers(1, 40))
            if rng.random() < 0.5:
                gen = rng.standard_normal(n_gen)
                imp = rng.standard_normal(n_imp)
            else:
                # heavy ties
                gen = rng.integers(0, 5, n_gen) / 4.0
                imp = rng.integers(0, 5, n_imp) / 4.0
            fars = [0.01, 0.1, 0.25, 1.0 / max(n_imp, 1), 1.0]
            report = roc(scored_from(gen, imp), fars)
            expected = roc_oracle(gen, imp, fars)
            for i, (t, tar) in enumerate(expected):
                assert report.thresholds[i] == t
                assert report.tar_at_far[i] == tar

    def test_identical_distributions_tar_near_far(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal(6000)
        gen, imp = scores[:3000], scores[3000:]
        report = roc(scored_from(gen, imp), [0.1])
        se = math.sqrt(0.1 * 0.9 / 3000)
        assert abs(report.tar_at_far[0] - 0.1) <= 3 * se

    def test_monotone_in_far(self):
        rng = np.random.default_rng(7)
        gen = rng.standard_normal(500) + 0.5
        imp = rng.standard_normal(800)
        fars = [1e-3, 1e-2, 0.05, 0.2, 0.5, 1.0]
        report = roc(scored_from(gen, imp), fars)
        tars = list(report.tar_at_far)
        assert tars == sorted(tars)

    def test_no_impostors_rejected(self):
        with pytest.raises(ProtocolError):
            roc(scored_from([1.0], []), [0.1])

    def test_no_genuine_rejected(self):
        with pytest.raises(ProtocolError):
            roc(scored_from([], [0.5]), [0.1])

    def test_empty_far_targets_rejected(self):
        with pytest.raises(ValueError):
            roc(scored_from([1.0], [0.0]), [])

    def test_far_outside_range_rejected(self):
        scored = scored_from([1.0], [0.0])
        with pytest.raises(ValueError):
            roc(scored, [0.0])
        with pytest.raises(ValueError):
            roc(scored, [1.5])

    @settings(max_examples=40, deadline=None)
    @given(
        gen=st.lists(st.integers(-10, 10), min_size=1, max_size=60),
        imp=st.lists(st.integers(-10, 10), min_size=1, max_size=60),
        fars=st.lists(
            st.floats(0.001, 1.0, allow_nan=False), min_size=1, max_size=4
        ),
    )
    def test_oracle_agreement_property(self, gen, imp, fars):
        gen = [g / 10.0 for g in gen]
        imp = [i / 10.0 for i in imp]
        report = roc(scored_from(gen, imp), fars)
        expected = roc_oracle(gen, imp, fars)
        for i, (t, tar) in enumerate(expected):
            assert report.thresholds[i] == t
            assert report.tar_at_far[i] == tar

    def test_report_round_trips_dropped_pairs(self):
        scored = ScoredPairs(
            template_ids_a=("a0", "a1"),
            template_ids_b=("b0", "b1"),
            scores=np.array([0.9, 0.1]),
            genuine=np.array([True, False]),
            dropped_pairs=4,
        )
        report = roc(scored, [0.5])
        assert report.dropped_pairs == 4
        data = report.to_dict()
        assert data["dropped_pairs"] == 4
        assert set(data) == {
            "far_targets", "tar_at_far", "thresholds",
            "genuine_count", "impostor_count", "dropped_pairs",
        }


    @pytest.mark.parametrize("distinct", [False, True], ids=["tie-heavy", "all-distinct"])
    def test_roc_memory_one_sort(self, distinct):
        # a second sort of the impostors (np.unique) would add two sorted
        # copies, and an array per distinct impostor score (run starts,
        # their values and realized FARs) about 24 B a pair on all-distinct
        # scores; one sorted copy per side is 8 B a pair
        n = 400_000
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(n) if distinct else rng.integers(0, 1000, n) / 999.0
        genuine = rng.random(n) < 0.05
        ids = tuple(f"t{i}" for i in range(2 * n))
        scored = ScoredPairs.coded(ids, np.arange(n), np.arange(n, 2 * n),
                                   scores=scores, genuine=genuine)
        tracemalloc.start()
        try:
            roc(scored, [1e-1, 1e-2, 1e-3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n + (1 << 20)


class TestRocReportInvariants:
    def test_tar_outside_unit_interval_rejected(self):
        with pytest.raises(DataError):
            RocReport(
                far_targets=(0.1,),
                tar_at_far=(1.5,),
                thresholds=(0.0,),
                genuine_count=1,
                impostor_count=1,
            )

    def test_non_monotone_rejected(self):
        with pytest.raises(DataError):
            RocReport(
                far_targets=(0.1, 0.2),
                tar_at_far=(0.9, 0.5),
                thresholds=(0.0, 0.0),
                genuine_count=1,
                impostor_count=1,
            )
