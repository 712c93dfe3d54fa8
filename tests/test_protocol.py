"""The integer-coded protocol (manifest, pair list, evaluation plan, pair
sampler, protocol splits and canonical order) against the reference's
dicts, tuples, loops and triu sampler: the same tables, templates,
scores, sampled pairs and splits, and the same error type and message,
whichever check fails first."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eval as reference
from embalign import (
    EmbAlignError,
    EmbeddingSet,
    EvalPlan,
    MediaEntry,
    MediaManifest,
    PairList,
    TemplateSet,
    load_manifest,
    load_pairs,
    sample_eval_pairs,
    split_attack,
    split_by_template,
)
from embalign import synthetic


def outcome(fn, *args):
    """``(fn(*args), None)``, or ``(None, (type, message))`` of the
    library error it raises."""
    try:
        return fn(*args), None
    except (EmbAlignError, ValueError) as exc:
        return None, (type(exc), str(exc))


def embset(ids, rows, dim, model_id):
    return EmbeddingSet(model_id=model_id, media_ids=tuple(ids),
                        vectors=np.asarray(rows, float).reshape(len(ids), dim))


@st.composite
def protocol_files(draw):
    """The text of a manifest CSV and of a pair CSV, two embedding sides
    over the manifest's media and side a in another row order, and the
    inputs of one sampler call.

    Manifest rows come in shuffled order, with videos, and some break a
    rule: a repeated medium, a second subject for a template, or a video
    in a second template. Sides have zero rows (so templates drop), rows
    that cancel, and sometimes a medium the manifest lacks. Pairs and
    sampled templates name unknown templates, and sometimes a template
    twice.
    """
    dim = draw(st.integers(1, 5))
    n_templates = draw(st.integers(1, 6))
    subjects = [draw(st.integers(0, 2)) for _ in range(n_templates)]
    rows = []
    for m in range(draw(st.integers(1, 14))):
        t = draw(st.integers(0, n_templates - 1))
        video = draw(st.sampled_from(["", "", "0", "1"]))
        rows.append([f"m{m:02d}", f"s{subjects[t]}", f"t{t}", video and f"v{t}_{video}"])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = list(draw(st.sampled_from(rows)))
        breakage = draw(st.sampled_from(["duplicate", "subject", "video"]))
        if breakage == "subject":
            row[0], row[1] = f"x{len(rows)}", "s9"
        elif breakage == "video":
            row[0], row[2] = f"x{len(rows)}", f"t{draw(st.integers(0, n_templates))}"
            row[3] = row[3] or "v0_0"
        rows.append(row)
    rows = draw(st.permutations(rows))
    manifest = "media_id,subject_id,template_id,video_id\n" + "".join(
        ",".join(row) + "\n" for row in rows
    )

    template_ids = [f"t{t}" for t in range(n_templates)] + ["t_unknown"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(template_ids),
                                    st.sampled_from(template_ids)), max_size=25))
    if draw(st.integers(0, 4)):
        pairs = [(a, b) for a, b in pairs if a != b]
    pair_csv = "template_id_a,template_id_b\n" + "".join(f"{a},{b}\n" for a, b in pairs)

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    media = list(dict.fromkeys(row[0] for row in rows))

    def side(model_id, ghost):
        ids, vectors = [], []
        for mid in media:
            if not draw(st.booleans()) and draw(st.booleans()):
                continue
            mode = draw(st.sampled_from(["normal", "integer", "zero", "negated"]))
            if mode == "normal":
                row = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
            elif mode == "integer":
                row = rng.integers(-1, 2, dim).astype(float)
            elif mode == "zero" or not vectors:
                row = np.zeros(dim)
            else:
                row = -4.0 * vectors[draw(st.integers(0, len(vectors) - 1))]
            ids.append(mid)
            vectors.append(row)
        if ghost:
            at = draw(st.integers(0, len(ids)))
            ids.insert(at, "ghost")
            vectors.insert(at, np.ones(dim))
        return embset(ids, vectors, dim, model_id)

    emb_a = side("A", draw(st.integers(0, 9)) == 0)
    emb_b = side("B", False)
    perm = draw(st.permutations(range(len(emb_a))))
    shuffled_a = embset([emb_a.media_ids[i] for i in perm], emb_a.vectors[list(perm)],
                        dim, "A")
    sampled = draw(st.lists(st.sampled_from(template_ids[:-1] if draw(st.integers(0, 4))
                                            else template_ids), max_size=8))
    if draw(st.integers(0, 4)):
        sampled = list(dict.fromkeys(sampled))
    sample = (sampled, draw(st.integers(0, 30)), draw(st.integers(0, 2**16)))
    return manifest, pair_csv, (emb_a, shuffled_a, emb_b), sample


class TestCodesMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(protocol_files())
    def test_protocol_matches_reference(self, protocol):
        manifest_csv, pair_csv, (emb_a, shuffled_a, emb_b), sample = protocol
        with tempfile.TemporaryDirectory() as tmp:
            manifest_path, pair_path = Path(tmp) / "manifest.csv", Path(tmp) / "pairs.csv"
            manifest_path.write_text(manifest_csv, encoding="utf-8")
            pair_path.write_text(pair_csv, encoding="utf-8")

            want_manifest, error = outcome(reference.load_manifest, manifest_path)
            manifest, got_error = outcome(load_manifest, manifest_path)
            assert got_error == error
            if error is not None:
                return
            got_manifest = reference.decoded(manifest)
            assert got_manifest.entries == want_manifest.entries
            for view in ("by_media", "template_subject", "template_media"):
                got_view = getattr(got_manifest, view)
                assert list(got_view.items()) == list(getattr(want_manifest, view).items())
            # the code tables list their ids in order of first appearance
            assert manifest.template_ids == tuple(want_manifest.template_subject)
            assert manifest.subject_ids == tuple(dict.fromkeys(
                e.subject_id for e in want_manifest.entries))
            for mid in ("ghost", *manifest.media_ids[:3]):
                rows, error = outcome(manifest.rows_of, [mid])
                want, want_error = outcome(want_manifest.subject_of_media, mid)
                assert error == want_error
                if error is None:
                    assert manifest.subject_ids[manifest.subject_codes[rows[0]]] == want

            for checked in (False, True):
                want_pairs, error = outcome(reference.load_pairs, pair_path,
                                            want_manifest if checked else None)
                pairs, got_error = outcome(load_pairs, pair_path,
                                           manifest if checked else None)
                assert got_error == error
                if error is None:
                    assert pairs.pairs == want_pairs
            pairs, _ = outcome(load_pairs, pair_path)
            want_pairs, _ = outcome(reference.load_pairs, pair_path)

        sampled, n_impostor, seed = sample
        want, error = outcome(reference.sample_eval_pairs, want_manifest, sampled,
                              n_impostor, seed)
        got, got_error = outcome(sample_eval_pairs, manifest, sampled, n_impostor, seed)
        assert got_error == error
        if error is None:
            assert got.pairs == want

        if pairs is None:  # a self-pair: the pair CSV does not load
            return
        want_a, error = outcome(reference.build_templates, emb_a, want_manifest)
        plan, got_error = outcome(EvalPlan, manifest, emb_a.media_ids, pairs)
        assert got_error == error
        if error is not None:
            assert outcome(EvalPlan, manifest, shuffled_a.media_ids, pairs)[1] == (
                outcome(reference.build_templates, shuffled_a, want_manifest)[1]
            )
            return
        want_b = reference.build_templates(emb_b, want_manifest)
        got_a = plan.templates(emb_a)
        reference.assert_same_templates(got_a, want_a)
        reference.assert_same_templates(plan.templates(shuffled_a), want_a)
        got_b = plan.templates(emb_b)
        reference.assert_same_templates(got_b, want_b)
        for a, b, want_a, want_b in ((got_a, got_b, want_a, want_b),
                                     (got_b, got_a, want_b, want_a)):
            want, error = outcome(reference.score_pairs, want_a, want_b, want_pairs,
                                  want_manifest)
            got, got_error = outcome(plan.score, a, b)
            assert got_error == error
            if error is None:
                reference.assert_same_scores(got, want)


@st.composite
def split_worlds(draw):
    """A manifest in shuffled row order whose media, template and subject
    ids sort in another order than they appear, with videos and subjects
    of one template; two embedding sets over some of its media, which
    sometimes share a medium the manifest lacks; and the inputs of one call
    each of the enroll/verify split, the attack split and the canonical
    order."""
    shapes = [[draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 4)))]
              for _ in range(draw(st.integers(1, 6)))]
    n_templates = sum(map(len, shapes))
    n_media = sum(map(sum, shapes))
    subject_names = draw(st.permutations(range(len(shapes))))
    template_names = iter(draw(st.permutations(range(n_templates))))
    media_names = iter(draw(st.permutations(range(n_media))))
    entries = []
    for s, templates in enumerate(shapes):
        for size in templates:
            tid = f"t{next(template_names):02d}"
            video = f"v{tid}" if draw(st.booleans()) else None
            entries += [MediaEntry(f"m{next(media_names):02d}", f"s{subject_names[s]}",
                                   tid, video) for _ in range(size)]
    entries = draw(st.permutations(entries))
    media = [e.media_id for e in entries]

    shared = draw(st.lists(st.sampled_from(media), unique=True, min_size=min(2, len(media)),
                           max_size=len(media)))
    if draw(st.integers(0, 5)) == 0:
        shared.insert(draw(st.integers(0, len(shared))), "ghost")

    def embedded(model_id):
        ids = shared + [m for m in draw(st.permutations(media))[:draw(st.integers(0, 4))]
                        if m not in shared]
        ids = draw(st.permutations(ids))
        return embset(ids, np.zeros(len(ids)), 1, model_id)

    unknown, attacker = embedded("U"), embedded("K")
    enroll_pairs = draw(st.integers(1, max(1, len(shared) - 1)))
    base = draw(st.lists(st.sampled_from(media), unique=True, max_size=len(media)))
    if draw(st.integers(0, 5)) == 0:
        base.insert(draw(st.integers(0, len(base))), "ghost")
    fraction = draw(st.floats(0.2, 0.8))
    return entries, (unknown, attacker, enroll_pairs), base, fraction, draw(st.integers(0, 2**16))


def canonical(manifest, media_ids):
    blocks, take = synthetic._canonical_rows(manifest, media_ids)
    return blocks, take.tolist()


class TestSplitsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(split_worlds())
    def test_splits_match_reference(self, world):
        entries, (unknown, attacker, enroll_pairs), base, fraction, seed = world
        manifest = MediaManifest(entries)
        want_manifest = reference.decoded(manifest)
        assert want_manifest.entries == tuple(entries)
        assert (outcome(split_by_template, manifest, fraction, seed)
                == outcome(reference.split_by_template, want_manifest, fraction, seed))
        assert (outcome(split_attack, unknown, attacker, manifest, enroll_pairs, seed)
                == outcome(reference.split_attack, unknown, attacker, want_manifest,
                           enroll_pairs, seed))
        assert (outcome(canonical, manifest, base)
                == outcome(reference.canonical_rows, want_manifest, base))


class TestSamplerAtScale:
    def test_matches_triu_sampler(self):
        # 2,000 templates over subjects of 1 to 8 templates, in shuffled
        # manifest order: about 2M candidate pairs
        rng = np.random.default_rng(8)
        sizes = rng.integers(1, 9, size=500)
        owners = np.repeat(np.arange(sizes.size), sizes)[:2000]
        entries = [MediaEntry(f"m{i:04d}", f"s{o:03d}", f"t{i:04d}")
                   for i, o in zip(rng.permutation(owners.size), owners)]
        manifest = MediaManifest(entries)
        want_manifest = reference.Manifest(entries)
        templates = list(manifest.template_ids)
        genuine = int(sum(k * (k - 1) // 2 for k in np.bincount(owners)))
        for n_impostor in (1, 20_000, 10**7):
            got = sample_eval_pairs(manifest, templates, n_impostor, seed=3)
            want = reference.sample_eval_pairs(want_manifest, templates, n_impostor, 3)
            assert got.pairs == want
            total = len(templates) * (len(templates) - 1) // 2
            assert len(got) == genuine + min(n_impostor, total - genuine)


class TestPlanCodes:
    def test_side_rows_resolved_through_plan_codes(self):
        entries = [MediaEntry(f"m{i}", f"s{i // 2}", f"t{i}") for i in range(6)]
        manifest = MediaManifest(entries)
        rows = np.eye(6)
        side = embset([e.media_id for e in entries], rows, 6, "A")
        pairs = PairList([("t0", "t1"), ("t2", "t5"), ("t4", "t0")])
        plan = EvalPlan(manifest, side.media_ids, pairs)
        target = plan.templates(side)
        scored = plan.score(target, target)
        assert scored.template_ids_a == ("t0", "t2", "t4")
        assert scored.template_ids_b == ("t1", "t5", "t0")
        assert scored.genuine.tolist() == [True, False, False]

    def test_unknown_to_manifest_named_as_reference(self):
        # template sets that hold an id the manifest lacks: the pair names
        # the side that is missing from the manifest, as the loops do
        manifest = MediaManifest([MediaEntry("m0", "s0", "t0"), MediaEntry("m1", "s0", "t1")])
        side = TemplateSet("A", ("t0", "tx"), ("s0", "s9"), np.eye(2))
        for pair in (("t0", "tx"), ("tx", "t0"), ("tx", "t1")):
            pairs = PairList([pair])
            plan = EvalPlan(manifest, (), pairs)
            want = outcome(reference.score_pairs, side, side, [pair], manifest)
            assert want[1] is not None
            assert outcome(plan.score, side, side) == want
