import contextlib
import copy
import dataclasses
import importlib
import importlib.util
import io
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embalign import (
    LINEAR,
    EmbeddingSet,
    GridCell,
    GridResult,
    MappingMatrix,
    MediaEntry,
    MediaManifest,
    PairList,
    SweepPoint,
    SweepResult,
    SynthSpec,
    apply_map,
    build_templates,
    generate_world,
    identity_map,
    load_embeddings,
    load_manifest,
    load_map,
    load_pairs,
    random_rotation,
    roc,
    run_attack,
    run_grid,
    run_sweep,
    sample_eval_pairs,
    save_embeddings,
    save_manifest,
    save_map,
    save_pairs,
    score_pairs,
    split_attack,
    split_by_template,
    subject_gallery,
)
from embalign import cli, store
from embalign.cli import main
from memory_gate import run_gate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(*argv):
    """run_cli without a function-scoped fixture, for hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Synthetic planted-rotation world written through the CLI itself."""
    root = tmp_path_factory.mktemp("cli_world")
    config = root / "spec.json"
    config.write_text(
        json.dumps(
            {
                "dim": 16,
                "num_subjects": 30,
                "media_per_subject": 4,
                "within_class_noise": 0.15,
                "cross_model_noise": 0.0,
                "planted_kind": "rotation",
                "seed": 5,
            }
        )
    )
    out = root / "world"
    pairs = root / "pairs.csv"
    code = main(
        [
            "synth",
            str(config),
            "--out",
            str(out),
            "--pairs-out",
            str(pairs),
            "--impostor-pairs",
            "3000",
        ]
    )
    assert code == 0
    return {
        "root": root,
        "config": config,
        "a": out / "model_a.cfeb",
        "b": out / "model_b.cfeb",
        "manifest": out / "manifest.csv",
        "ground_truth": out / "ground_truth.cfem",
        "pairs": pairs,
    }


class TestSynth:
    def test_default_outputs_four_files(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"dim": 8, "num_subjects": 6,
                                      "media_per_subject": 3, "seed": 1}))
        out = tmp_path / "world"
        code, stdout, _ = run_cli(capsys, "synth", str(config), "--out", str(out))
        assert code == 0
        written = sorted(p.name for p in out.iterdir())
        assert written == [
            "ground_truth.cfem", "manifest.csv", "model_a.cfeb", "model_b.cfeb",
        ]
        summary = json.loads(stdout)
        assert summary["media_count"] == 18

    def test_independent_world_has_no_ground_truth(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(
            json.dumps({"dim": 8, "num_subjects": 6, "media_per_subject": 3,
                        "planted_kind": "independent", "seed": 1})
        )
        out = tmp_path / "world"
        code, stdout, _ = run_cli(capsys, "synth", str(config), "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["ground_truth"] is None
        assert not (out / "ground_truth.cfem").exists()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"dim": 8, "num_subjects": 4,
                                      "media_per_subject": 2, "seed": 1}))
        out1, out2, out3 = (tmp_path / n for n in ("w1", "w2", "w3"))
        run_cli(capsys, "synth", str(config), "--out", str(out1))
        run_cli(capsys, "synth", str(config), "--out", str(out2), "--seed", "9")
        run_cli(capsys, "synth", str(config), "--out", str(out3), "--seed", "9")
        base = (out1 / "model_a.cfeb").read_bytes()
        reseeded = (out2 / "model_a.cfeb").read_bytes()
        repeated = (out3 / "model_a.cfeb").read_bytes()
        assert base != reseeded
        assert reseeded == repeated

    def test_spec_round_trip(self, tmp_path, capsys):
        # synth of spec.to_dict() (its frames_per_video is null) writes
        # generate_world(spec)'s bytes
        spec = SynthSpec(dim=16, num_subjects=5, seed=9, planted_kind="linear")
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec.to_dict()))
        out, expected = tmp_path / "world", tmp_path / "expected"
        code, _, _ = run_cli(capsys, "synth", str(config), "--out", str(out))
        assert code == 0
        a, b, manifest, ground_truth = generate_world(spec)
        expected.mkdir()
        save_embeddings(a, expected / "model_a.cfeb")
        save_embeddings(b, expected / "model_b.cfeb")
        save_manifest(manifest, expected / "manifest.csv")
        save_map(ground_truth, expected / "ground_truth.cfem")
        for path in expected.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes()

    def test_unknown_key_refused(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"dim": 16, "bogus": 1}))
        out = tmp_path / "world"
        code, stdout, stderr = run_cli(capsys, "synth", str(config), "--out", str(out))
        assert_refused(code, stdout, stderr, out)
        assert f"{config}: unknown key 'bogus'" in stderr


@pytest.fixture(scope="module")
def large_sets(tmp_path_factory):
    """Two 120,000 x 256 float32 sets (117 MiB of vectors each) over the
    same media in opposite row orders, and a rotation map between them."""
    root = tmp_path_factory.mktemp("large")
    n, dim = 120_000, 256
    rng = np.random.default_rng(7)
    ids = [f"m{i:06d}" for i in range(n)]
    for name, order in (("a", ids), ("b", ids[::-1])):
        rows = rng.standard_normal((n, dim), dtype=np.float32)
        rows.setflags(write=False)
        save_embeddings(EmbeddingSet(name.upper(), order, rows), root / f"{name}.cfeb")
    save_map(random_rotation(dim, 3), root / "map.cfem")
    return root, n, dim


class TestFit:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_memory_bounded(self, large_sets, tmp_path):
        # The cap is seven sixteenths of one input set (51 MiB): a fit reads
        # both sets from their files a chunk at a time, and holds their
        # ids, their alignment and two float64 chunk buffers (16 MiB).
        # Measured at one BLAS thread: 41 MiB over the VmSize after imports
        # and the warm-up, 10 MiB to spare; holding both sets took 304 MiB.
        root, n, dim = large_sets
        done = run_memory_limited(tmp_path, 7 * n * dim // 4, "fit", root / "a.cfeb",
                                  root / "b.cfeb", "--kind", "linear",
                                  "--out", tmp_path / "m.cfem")
        assert done.returncode == 0, done.stderr[-2000:]
        assert json.loads(done.stdout)["m"] == n

    def test_rotation_fit_recovers_planted_map(self, world, tmp_path, capsys):
        out = tmp_path / "fitted.cfem"
        code, stdout, _ = run_cli(
            capsys, "fit", str(world["a"]), str(world["b"]),
            "--kind", "rotation", "--out", str(out),
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["kind"] == "rotation"
        assert report["m"] == 120
        fitted = load_map(out)
        planted = load_map(world["ground_truth"])
        assert np.linalg.norm(fitted.matrix - planted.matrix) < 1e-6

    def test_identity_kind_reports_zero_samples(self, world, tmp_path, capsys):
        out = tmp_path / "id.cfem"
        code, stdout, _ = run_cli(
            capsys, "fit", str(world["a"]), str(world["b"]),
            "--kind", "identity", "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["m"] == 0
        assert load_map(out).kind == "identity"

    @pytest.mark.parametrize("count", [2**36, 2**62, 3])
    def test_forged_record_count_exits_2(self, world, tmp_path, capsys, count):
        # a header declaring more records than the file holds: a 20-byte
        # file with a huge count, or a valid file claiming one record more
        forged = tmp_path / "forged.cfeb"
        if count == 3:
            save_embeddings(
                EmbeddingSet("A", ("x", "y"), np.eye(2, dtype=np.float32)), forged
            )
            raw = bytearray(forged.read_bytes())
            raw[10:18] = struct.pack("<Q", count)
            forged.write_bytes(bytes(raw))
        else:
            forged.write_bytes(b"CFEB" + struct.pack("<HIQ", 1, 512, count) + b"\x00\x00")
        out = tmp_path / "never.cfem"
        code, stdout, stderr = run_cli(
            capsys, "fit", str(forged), str(world["b"]), "--kind", "linear",
            "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ") and "Traceback" not in stderr
        assert not out.exists()

    def test_rotation_dimension_mismatch_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = tmp_path / "a.cfeb"
        b = tmp_path / "b.cfeb"
        save_embeddings(
            EmbeddingSet("A", ("x", "y"), rng.standard_normal((2, 4)).astype(np.float32)), a
        )
        save_embeddings(
            EmbeddingSet("B", ("x", "y"), rng.standard_normal((2, 6)).astype(np.float32)), b
        )
        code, _, stderr = run_cli(
            capsys, "fit", str(a), str(b), "--kind", "rotation",
            "--out", str(tmp_path / "m.cfem"),
        )
        assert code == 2
        assert "dimension" in stderr.lower()

    @pytest.mark.parametrize("kind", ["linear", "rotation"])
    def test_dimension_zero_exits_2(self, tmp_path, capsys, kind):
        # the loader takes a file of dimension 0; a fit has nothing to solve
        for name in ("a", "b"):
            save_embeddings(EmbeddingSet(name.upper(), ("x", "y", "z"),
                                         np.zeros((3, 0), dtype=np.float32)),
                            tmp_path / f"{name}.cfeb")
        out = tmp_path / "m.cfem"
        code, stdout, stderr = run_cli(
            capsys, "fit", str(tmp_path / "a.cfeb"), str(tmp_path / "b.cfeb"),
            "--kind", kind, "--out", str(out),
        )
        assert_refused(code, stdout, stderr, out)
        assert stderr == "error: fitting needs dimensions of at least 1, got 0 and 0\n"

    def test_condition_not_finite_prints_null(self, tmp_path, capsys):
        # a source of zero vectors retains no singular value, so its
        # condition is infinite, which JSON cannot hold
        rng = np.random.default_rng(1)
        ids = tuple(f"m{i}" for i in range(6))
        save_embeddings(EmbeddingSet("A", ids, np.zeros((6, 3), dtype=np.float32)),
                        tmp_path / "a.cfeb")
        save_embeddings(EmbeddingSet("B", ids, rng.standard_normal((6, 3), dtype=np.float32)),
                        tmp_path / "b.cfeb")
        code, stdout, _ = run_cli(
            capsys, "fit", str(tmp_path / "a.cfeb"), str(tmp_path / "b.cfeb"),
            "--kind", "linear", "--out", str(tmp_path / "m.cfem"),
        )
        assert code == 0

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        report = json.loads(stdout, parse_constant=refuse)
        assert report["condition_diagnostic"] is None
        assert report["m"] == 6 and report["residual_rms"] > 0

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "fit", str(tmp_path / "no.cfeb"), str(tmp_path / "no2.cfeb"),
            "--kind", "linear", "--out", str(tmp_path / "m.cfem"),
        )
        assert code == 1
        assert "io error" in stderr


class TestApplyAndIngest:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_memory_bounded(self, large_sets, tmp_path):
        # The cap is three eighths of one input set (44 MiB): apply reads
        # its input from the file, and maps and writes it a chunk at a
        # time, holding the ids and two float64 chunk buffers (16 MiB).
        # Measured at one BLAS thread: 27 MiB over the VmSize after imports
        # and the warm-up, 17 MiB to spare; holding the float64 output
        # until the save took 253 MiB.
        root, n, dim = large_sets
        done = run_memory_limited(tmp_path, 3 * n * dim // 2, "apply",
                                  root / "map.cfem", root / "a.cfeb",
                                  "--out", tmp_path / "mapped.cfeb")
        assert done.returncode == 0, done.stderr[-2000:]
        assert json.loads(done.stdout)["count"] == n

    def test_dropped_rows_match_the_library_byte_for_byte(self, world, tmp_path, capsys):
        # zero rows have no direction: the streamed file leaves them out,
        # and its header's record count is patched to the rows written
        source = load_embeddings(world["a"])
        rows = np.array(np.asarray(source.vectors))
        rows[::7] = 0.0
        zeroed = tmp_path / "zeroed.cfeb"
        save_embeddings(EmbeddingSet(source.model_id, source.media_ids, rows), zeroed)
        out = tmp_path / "applied.cfeb"
        code, stdout, stderr = run_cli(capsys, "apply", str(world["ground_truth"]),
                                       str(zeroed), "--out", str(out))
        assert code == 0, stderr
        mapped = apply_map(load_map(world["ground_truth"]), load_embeddings(zeroed))
        save_embeddings(mapped, tmp_path / "library.cfeb")
        assert out.read_bytes() == (tmp_path / "library.cfeb").read_bytes()
        assert json.loads(stdout) == {"model_id": "B", "count": len(mapped),
                                      "dropped": list(source.media_ids[::7]), "out": str(out)}
        assert len(mapped) == len(source) - len(source.media_ids[::7])
        assert sorted(os.listdir(tmp_path)) == ["applied.cfeb", "library.cfeb", "zeroed.cfeb"]

    def test_apply_over_its_input_writes_what_a_new_path_gets(self, world, tmp_path, capsys):
        fresh, same = tmp_path / "fresh.cfeb", tmp_path / "same.cfeb"
        same.write_bytes(world["a"].read_bytes())
        for source, out in ((world["a"], fresh), (same, same)):
            code, _, stderr = run_cli(capsys, "apply", str(world["ground_truth"]),
                                      str(source), "--out", str(out))
            assert code == 0, stderr
        assert same.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh.cfeb", "same.cfeb"]

    @pytest.mark.parametrize("command", ["apply", "verify"])
    def test_input_cut_after_the_load_exits_2(self, world, tmp_path, capsys,
                                              monkeypatch, command):
        # the set's rows are read from the file after the load: a file cut
        # in between is refused with the record it cut, not read short
        cut = tmp_path / "cut.cfeb"
        cut.write_bytes(world["a"].read_bytes())
        load = store.load_embeddings

        def load_then_cut(path):
            loaded = load(path)
            if Path(path) == cut:
                with open(cut, "r+b") as f:
                    f.truncate(cut.stat().st_size // 2)
            return loaded

        monkeypatch.setattr(store, "load_embeddings", load_then_cut)
        out = tmp_path / "out.cfeb"
        argv = {"apply": ["apply", world["ground_truth"], cut, "--out", out],
                "verify": ["verify", cut, world["b"], world["manifest"], world["pairs"],
                           "--scores-out", out]}[command]
        code, stdout, stderr = run_cli(capsys, *map(str, argv))
        assert_refused(code, stdout, stderr, out)
        assert stderr.startswith(f"error: {cut}: file ends inside record ")

    def test_apply_writes_mapped_set(self, world, tmp_path, capsys):
        mapped_path = tmp_path / "mapped.cfeb"
        code, stdout, _ = run_cli(
            capsys, "apply", str(world["ground_truth"]), str(world["a"]),
            "--out", str(mapped_path),
        )
        assert code == 0
        mapped = load_embeddings(mapped_path)
        assert mapped.model_id == "B"
        assert mapped.normalized
        assert json.loads(stdout)["dropped"] == []

    def test_ingest_round_trip(self, tmp_path, capsys):
        src = tmp_path / "vecs.csv"
        src.write_text("media_id,x0,x1\nm1,1.0,0.0\nm2,0.5,0.25\n")
        out = tmp_path / "vecs.cfeb"
        code, stdout, _ = run_cli(
            capsys, "ingest", str(src), "--model-id", "csv-model", "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout) == {
            "model_id": "csv-model", "dim": 2, "count": 2, "out": str(out),
        }
        loaded = load_embeddings(out)
        assert loaded.media_ids == ("m1", "m2")
        assert np.allclose(loaded.vectors, [[1.0, 0.0], [0.5, 0.25]])

    def test_ingest_header_only_writes_an_empty_set(self, tmp_path, capsys):
        src = tmp_path / "vecs.csv"
        src.write_text("media_id,x0,x1\n")
        out = tmp_path / "vecs.cfeb"
        code, stdout, _ = run_cli(
            capsys, "ingest", str(src), "--model-id", "empty", "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout) == {"model_id": "empty", "dim": 0, "count": 0, "out": str(out)}
        loaded = load_embeddings(out)
        assert (loaded.model_id, loaded.media_ids, loaded.dim) == ("empty", (), 0)

    def test_apply_refuses_a_product_that_overflows(self, tmp_path, capsys):
        # each mapped component is 1.5e308 * (0.6 + 0.8), past float64's range
        save_map(MappingMatrix(LINEAR, "A", "B", np.full((2, 2), 1.5e308), 1),
                 tmp_path / "big.cfem")
        save_embeddings(EmbeddingSet("A", ("m1",), np.array([[0.6, 0.8]])), tmp_path / "a.cfeb")
        out = tmp_path / "mapped.cfeb"
        # numpy also warns of the overflow; what is tested here is the refusal
        with np.errstate(over="ignore", invalid="ignore"):
            code, stdout, stderr = run_cli(capsys, "apply", str(tmp_path / "big.cfem"),
                                           str(tmp_path / "a.cfeb"), "--out", str(out))
        assert_refused(code, stdout, stderr, out)
        assert stderr == "error: embedding vectors contain non-finite values\n"

    def test_ingest_bad_value_exits_2(self, tmp_path, capsys):
        src = tmp_path / "vecs.csv"
        src.write_text("m1,1.0,zebra\n")
        code, _, _ = run_cli(
            capsys, "ingest", str(src), "--model-id", "x",
            "--out", str(tmp_path / "o.cfeb"),
        )
        assert code == 2

    def test_ingest_ragged_rows_exit_2(self, tmp_path, capsys):
        src = tmp_path / "vecs.csv"
        src.write_text("a,1,2\n\nb,3\n")
        out = tmp_path / "o.cfeb"
        code, stdout, stderr = run_cli(
            capsys, "ingest", str(src), "--model-id", "x", "--out", str(out)
        )
        assert_refused(code, stdout, stderr, out)
        assert f"{src}:3: 1 vector components, but line 1 has 2" in stderr


class TestVerify:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    @pytest.mark.parametrize("mapped", [False, True])
    def test_memory_bounded(self, tmp_path, mapped):
        # 15,000 single-image media at dim 1024; a set is n x dim float32
        # (58.6 MiB) and a template set twice that. The cap is side a's
        # template set (2 sets), as neither side's vectors are held (both
        # are read from their files a chunk at a time) and side b's
        # templates are scored a chunk at a time, plus 32 MiB for the
        # manifest, a template chunk of one gather block (4 MiB) and the
        # scoring pieces; with --map, the float64 mapped set and side a's
        # template set (4 sets), held while its templates are built, plus
        # 40 MiB. Measured at one BLAS thread, over the VmSize after
        # imports and the warm-up: 17 MiB (plain) and 24 MiB (--map) past
        # the sets, each 15 MiB under its cap. Template chunks of 3,750
        # rows (29 MiB) went 11 and 9 MiB over, and holding side b's whole
        # set while scoring (3 sets) is refused under the plain cap.
        n, dim = 15_000, 1024
        rng = np.random.default_rng(4)
        ids = [f"m{i:05d}" for i in range(n)]
        for name in ("a", "b"):
            rows = rng.standard_normal((n, dim), dtype=np.float32)
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            save_embeddings(EmbeddingSet(name.upper(), ids, rows), tmp_path / f"{name}.cfeb")
        manifest = MediaManifest(
            [MediaEntry(m, f"s{i // 10:04d}", f"T{m}") for i, m in enumerate(ids)]
        )
        save_manifest(manifest, tmp_path / "manifest.csv")
        pairs = [(f"T{ids[i]}", f"T{ids[i + k]}") for i in range(0, 2000, 2) for k in (1, 10)]
        save_pairs(PairList(tuple(pairs)), tmp_path / "pairs.csv")
        argv = ["verify", *(tmp_path / f for f in ("a.cfeb", "b.cfeb", "manifest.csv",
                                                   "pairs.csv")), "--far", "0.1"]
        if mapped:
            save_map(identity_map(dim), tmp_path / "map.cfem")
            argv += ["--map", tmp_path / "map.cfem"]
        sets, headroom = (4, 40 << 20) if mapped else (2, 32 << 20)
        done = run_memory_limited(tmp_path, sets * n * dim * 4 + headroom, *argv)
        assert done.returncode == 0, done.stderr[-2000:]
        report = json.loads(done.stdout)
        assert (report["genuine_count"], report["impostor_count"]) == (1000, 1000)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_template_chunks_gather_one_block(self, tmp_path):
        # 20,000 media at dim 1024 in templates of eight: side a's template
        # set is 2,500 x 1024 float64 (19.5 MiB). The cap is that set plus
        # 32 MiB for the manifest, the pairs and a template chunk, which
        # gathers at most one block of 512 rows (4 MiB a side). Measured at
        # one BLAS thread: 16 MiB past the template set, over the VmSize
        # after imports and the warm-up. Chunks of 4,000 rows (31 MiB)
        # needed 51 MiB past it.
        n, dim, per = 20_000, 1024, 8
        rng = np.random.default_rng(4)
        ids = [f"m{i:06d}" for i in range(n)]
        for name in ("a", "b"):
            rows = rng.standard_normal((n, dim), dtype=np.float32)
            save_embeddings(EmbeddingSet(name.upper(), ids, rows), tmp_path / f"{name}.cfeb")
        save_manifest(MediaManifest([MediaEntry(m, f"s{i // (2 * per):05d}", f"T{i // per:05d}")
                                     for i, m in enumerate(ids)]), tmp_path / "manifest.csv")
        templates = n // per
        save_pairs(PairList(tuple((f"T{i:05d}", f"T{(i + k) % templates:05d}")
                                  for i in range(templates) for k in (1, 7))),
                   tmp_path / "pairs.csv")
        done = run_memory_limited(tmp_path, templates * dim * 8 + (32 << 20), "verify",
                                  *(tmp_path / f for f in ("a.cfeb", "b.cfeb", "manifest.csv",
                                                           "pairs.csv")), "--far", "0.1")
        assert done.returncode == 0, done.stderr[-2000:]
        report = json.loads(done.stdout)
        assert report["genuine_count"] + report["impostor_count"] == 2 * templates

    def test_reads_only_the_asked_records(self, tmp_path, capsys, monkeypatch):
        # template ids T0, T1, T10, T100, ... sort in another order than
        # the file's records, so each gather block's rows lie scattered
        # through the file: only the runs of records asked for are read,
        # about their vectors' bytes, not everything between them (11.8 MB
        # from two 0.8 MB files, when a read spanned a window)
        rng = np.random.default_rng(6)
        n, dim = 6000, 32
        ids = [f"m{i:04d}" for i in range(n)]
        rows = rng.standard_normal((2, n, dim), dtype=np.float32)
        for name, side in zip("ab", rows):
            save_embeddings(EmbeddingSet(name.upper(), ids, side), tmp_path / f"{name}.cfeb")
        save_manifest(MediaManifest([MediaEntry(m, f"s{i // 6}", f"T{i // 3}")
                                     for i, m in enumerate(ids)]), tmp_path / "manifest.csv")
        save_pairs(PairList(tuple((f"T{t}", f"T{t + k}") for t in range(0, 1990, 2)
                                  for k in (1, 3))), tmp_path / "pairs.csv")
        read = []

        def preadv(fd, buffers, offset, real=os.preadv):
            read.append(real(fd, buffers, offset))
            return read[-1]

        monkeypatch.setattr(os, "preadv", preadv)
        code, stdout, _ = run_cli(capsys, "verify", *(str(tmp_path / f) for f in (
            "a.cfeb", "b.cfeb", "manifest.csv", "pairs.csv")), "--far", "0.1")
        assert code == 0
        asked = 2 * n * dim * 4
        assert asked <= sum(read) <= 2 * asked
        monkeypatch.undo()
        expected = roc(score_pairs(
            *(build_templates(load_embeddings(tmp_path / f"{name}.cfeb"),
                              load_manifest(tmp_path / "manifest.csv")) for name in "ab"),
            load_pairs(tmp_path / "pairs.csv"), load_manifest(tmp_path / "manifest.csv")),
            [0.1])
        assert json.loads(stdout) == json.loads(json.dumps(expected.to_dict()))

    def test_reads_each_file_once(self, tmp_path, capsys, monkeypatch):
        # side a's templates and side b's scored chunks each read their
        # file's vectors once; a row-norm pass before them read each twice
        rng = np.random.default_rng(6)
        n, dim = 6000, 32
        ids = [f"m{i:04d}" for i in range(n)]
        rows = rng.standard_normal((2, n, dim), dtype=np.float32)
        rows[1, ::7] = 0.0  # degenerate rows on side b
        for name, side in zip("ab", rows):
            save_embeddings(EmbeddingSet(name.upper(), ids, side), tmp_path / f"{name}.cfeb")
        save_manifest(MediaManifest([MediaEntry(m, f"s{i // 6}", f"T{i // 3:04d}")
                                     for i, m in enumerate(ids)]), tmp_path / "manifest.csv")
        save_pairs(PairList(tuple((f"T{t:04d}", f"T{t + k:04d}") for t in range(0, 1990, 2)
                                  for k in (1, 3))), tmp_path / "pairs.csv")
        read = []

        def preadv(fd, buffers, offset, real=os.preadv):
            read.append(real(fd, buffers, offset))
            return read[-1]

        monkeypatch.setattr(os, "preadv", preadv)
        code, _, _ = run_cli(capsys, "verify", *(str(tmp_path / f) for f in (
            "a.cfeb", "b.cfeb", "manifest.csv", "pairs.csv")), "--far", "0.1")
        assert code == 0
        files = sum((tmp_path / f"{name}.cfeb").stat().st_size for name in "ab")
        assert 2 * n * dim * 4 <= sum(read) <= files

    def test_single_model_matches_library_byte_for_byte(self, world, capsys):
        code, stdout, _ = run_cli(
            capsys, "verify", str(world["a"]), str(world["a"]),
            str(world["manifest"]), str(world["pairs"]), "--far", "1e-1,1e-2",
        )
        assert code == 0
        embeddings = load_embeddings(world["a"])
        manifest = load_manifest(world["manifest"])
        pairs = load_pairs(world["pairs"], manifest)
        templates = build_templates(embeddings, manifest)
        report = roc(score_pairs(templates, templates, pairs, manifest), [1e-1, 1e-2])
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert stdout == expected

    def test_cross_model_with_fitted_rotation_near_single_model(
        self, world, tmp_path, capsys
    ):
        fitted = tmp_path / "fit.cfem"
        run_cli(capsys, "fit", str(world["a"]), str(world["b"]),
                "--kind", "rotation", "--out", str(fitted))
        code, cross_out, _ = run_cli(
            capsys, "verify", str(world["a"]), str(world["b"]),
            str(world["manifest"]), str(world["pairs"]),
            "--map", str(fitted), "--far", "1e-2",
        )
        assert code == 0
        code, single_out, _ = run_cli(
            capsys, "verify", str(world["b"]), str(world["b"]),
            str(world["manifest"]), str(world["pairs"]), "--far", "1e-2",
        )
        assert code == 0
        cross = json.loads(cross_out)["tar_at_far"][0]
        single = json.loads(single_out)["tar_at_far"][0]
        assert abs(cross - single) <= 0.02

    def test_identity_map_on_independent_models_near_random(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(
            json.dumps(
                {
                    "dim": 32, "num_subjects": 200, "media_per_subject": 4,
                    "planted_kind": "independent", "seed": 8,
                }
            )
        )
        out = tmp_path / "world"
        pairs = tmp_path / "pairs.csv"
        run_cli(capsys, "synth", str(config), "--out", str(out),
                "--pairs-out", str(pairs), "--impostor-pairs", "5000")
        identity = tmp_path / "id.cfem"
        run_cli(capsys, "fit", str(out / "model_a.cfeb"), str(out / "model_b.cfeb"),
                "--kind", "identity", "--out", str(identity))
        code, stdout, _ = run_cli(
            capsys, "verify", str(out / "model_a.cfeb"), str(out / "model_b.cfeb"),
            str(out / "manifest.csv"), str(pairs),
            "--map", str(identity), "--far", "0.1",
        )
        assert code == 0
        report = json.loads(stdout)
        se = (0.1 * 0.9 / report["genuine_count"]) ** 0.5
        assert abs(report["tar_at_far"][0] - 0.1) <= 3 * se

    def test_scores_out_csv(self, world, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        code, _, _ = run_cli(
            capsys, "verify", str(world["a"]), str(world["a"]),
            str(world["manifest"]), str(world["pairs"]),
            "--far", "1e-1", "--scores-out", str(scores),
        )
        assert code == 0
        lines = scores.read_text().strip().splitlines()
        assert lines[0] == "template_id_a,template_id_b,score,genuine"
        assert len(lines) == 1 + len(load_pairs(world["pairs"]))

    def test_bad_far_list_exits_2(self, world, capsys):
        code, _, _ = run_cli(
            capsys, "verify", str(world["a"]), str(world["a"]),
            str(world["manifest"]), str(world["pairs"]), "--far", "abc",
        )
        assert code == 2

    def test_far_out_of_range_refused_before_loading(self, tmp_path, capsys):
        missing = [str(tmp_path / name) for name in ("a.cfeb", "b.cfeb", "m.csv", "p.csv")]
        code, stdout, stderr = run_cli(capsys, "verify", *missing, "--far", "0.1,0")
        assert (code, stdout) == (2, "")
        assert stderr == "error: --far: FAR target 0.0 outside (0, 1]\n"

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_pair_memory_bounded(self, tmp_path):
        # 4M pairs over 3,000 one-image templates at dim 8, so the pairs
        # are all of the memory: the cap is 17 B a pair (two int32 codes,
        # a float64 score and a bool label) plus 128 MiB. Measured at one
        # BLAS thread: the peak is 158 MiB over the imports and the
        # warm-up, 35 MiB under the cap; a tuple of ids per pair peaked
        # 1.36 GiB over them.
        n, n_pairs = 3000, 4_000_000
        rng = np.random.default_rng(6)
        ids = [f"m{i:04d}" for i in range(n)]
        for name in ("a", "b"):
            rows = rng.standard_normal((n, 8), dtype=np.float32)
            save_embeddings(EmbeddingSet(name.upper(), ids, rows), tmp_path / f"{name}.cfeb")
        save_manifest(
            MediaManifest(MediaEntry(m, f"s{i // 10:03d}", f"T{m}") for i, m in enumerate(ids)),
            tmp_path / "manifest.csv",
        )
        with open(tmp_path / "pairs.csv", "w", encoding="utf-8") as f:
            f.write("template_id_a,template_id_b\n")
            for start in range(0, n_pairs, 1 << 18):
                a = rng.integers(0, n, size=min(1 << 18, n_pairs - start))
                b = (a + rng.integers(1, n, size=a.size)) % n
                f.write("".join(f"Tm{x:04d},Tm{y:04d}\n" for x, y in zip(a.tolist(), b.tolist())))
        argv = ["verify", *(tmp_path / f for f in ("a.cfeb", "b.cfeb", "manifest.csv",
                                                   "pairs.csv")), "--far", "0.1"]
        done = run_memory_limited(tmp_path, 17 * n_pairs + (128 << 20), *argv)
        assert done.returncode == 0, done.stderr[-2000:]
        report = json.loads(done.stdout)
        assert report["genuine_count"] + report["impostor_count"] == n_pairs
        assert report["genuine_count"] > 0


class TestSynthPairs:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize and VmPeak from /proc")
    def test_pairs_out_memory_bounded(self, tmp_path):
        # the pipeline world's 50,000 one-image templates (5,000 subjects
        # of 10), at dim 8 since the sampler's work does not depend on it:
        # --pairs-out may add at most 256 MiB to synth's own peak VmSize.
        # Measured at one BLAS thread: it adds 24 MiB; a triu_indices over
        # every candidate pair asked for about 20 GB.
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"dim": 8, "num_subjects": 5000,
                                      "media_per_subject": 10, "seed": 2}))
        done = run_memory_limited(tmp_path, 1 << 30, "synth", config,
                                  "--out", tmp_path / "plain")
        assert done.returncode == 0, done.stderr[-2000:]
        rss = json.loads((tmp_path / "rss.json").read_text())
        headroom = (rss["vm_peak_kib"] - rss["vm_size_kib"]) * 1024 + (256 << 20)
        pairs = tmp_path / "pairs.csv"
        done = run_memory_limited(tmp_path, headroom, "synth", config, "--out",
                                  tmp_path / "paired", "--pairs-out", pairs)
        assert done.returncode == 0, done.stderr[-2000:]
        with open(pairs, encoding="utf-8") as f:
            assert sum(1 for _ in f) == 1 + 5000 * 45 + 20000


class TestExperimentCommands:
    def grid_config(self, world, kinds=("linear", "rotation", "identity")):
        return {
            "models": [
                {"id": "A", "embeddings": str(world["a"])},
                {"id": "B", "embeddings": str(world["b"])},
            ],
            "manifest": str(world["manifest"]),
            "kinds": list(kinds),
            "fars": [1e-1, 1e-2],
            "enroll_fraction": 0.5,
            "impostor_pairs": 2000,
            "seed": 3,
        }

    def test_grid_outputs(self, world, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(self.grid_config(world)))
        out = tmp_path / "grid"
        code, stdout, _ = run_cli(capsys, "grid", str(config), "--out", str(out))
        assert code == 0
        result = json.loads((out / "grid.json").read_text())
        # 2 ordered off-diagonal cells x 3 kinds + 2 diagonal cells
        assert len(result["cells"]) == 2 * 3 + 2
        csv_lines = (out / "grid.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + len(result["cells"]) * 2

    def test_three_model_grid_cell_count(self, world, tmp_path, capsys):
        third = tmp_path / "model_c.cfeb"
        embeddings = load_embeddings(world["a"])
        from embalign import derive_model

        manifest = load_manifest(world["manifest"])
        derived, _ = derive_model(
            embeddings, manifest, planted_kind="rotation", seed=9, model_id="C"
        )
        save_embeddings(derived, third)
        config_data = self.grid_config(world)
        config_data["models"].append({"id": "C", "embeddings": str(third)})
        config = tmp_path / "grid3.json"
        config.write_text(json.dumps(config_data))
        out = tmp_path / "grid3"
        code, _, _ = run_cli(capsys, "grid", str(config), "--out", str(out))
        assert code == 0
        result = json.loads((out / "grid.json").read_text())
        assert len(result["cells"]) == 3 * 2 * 3 + 3
        diagonal = [c for c in result["cells"] if c["kind"] == "unmapped"]
        assert len(diagonal) == 3

    def test_jobs_below_one_exits_2(self, world, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(self.grid_config(world)))
        out = tmp_path / "g"
        code, stdout, stderr = run_cli(capsys, "--jobs", "0", "grid", str(config), "--out", str(out))
        assert_refused(code, stdout, stderr, out)
        assert stderr == "error: --jobs must be >= 1\n"

    def test_jobs_flag_does_not_change_output(self, world, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(self.grid_config(world, kinds=("rotation",))))
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        run_cli(capsys, "--jobs", "1", "grid", str(config), "--out", str(out1))
        run_cli(capsys, "--jobs", "4", "grid", str(config), "--out", str(out2))
        assert (out1 / "grid.json").read_bytes() == (out2 / "grid.json").read_bytes()

    def test_sweep_rows_per_count(self, world, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "source": {"id": "A", "embeddings": str(world["a"])},
                    "target": {"id": "B", "embeddings": str(world["b"])},
                    "manifest": str(world["manifest"]),
                    "kinds": ["rotation"],
                    "sample_counts": [4, 16],
                    "repetitions": 3,
                    "far": 1e-2,
                    "impostor_pairs": 2000,
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "sweep"
        code, _, _ = run_cli(capsys, "sweep", str(config), "--out", str(out))
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "kind,sample_count,repetition,tar"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        for count in ("4", "16"):
            assert sum(1 for r in rows if r[1] == count) == 3

    def test_sweep_without_counts_takes_powers_of_two(self, world, tmp_path, capsys):
        values = command_configs(world)["sweep"] | {"sample_counts": None, "kinds": ["linear"],
                                                    "seed": 3}
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "sweep"
        code, _, _ = run_cli(capsys, "sweep", str(config), "--out", str(out))
        assert code == 0
        enroll, _ = split_by_template(load_manifest(world["manifest"]), 0.5, 3)
        counts = [p["sample_count"] for p in json.loads((out / "sweep.json").read_text())["points"]]
        # 2, 4, ... up to the largest power of two within the enrollment
        assert counts == [2**k for k in range(1, len(enroll).bit_length())]
        assert counts[-1] <= len(enroll) < 2 * counts[-1]

    @pytest.mark.parametrize("command", ["grid", "sweep"])
    def test_result_json_reads_back_by_field_name(self, world, tmp_path, capsys, command):
        # each JSON key and CSV column of a result is its field's name
        values = command_configs(world)[command] | {"seed": 4}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, command, str(config), "--out", str(out))
        assert code == 0
        data = json.loads((out / f"{command}.json").read_text())
        if command == "grid":
            read = GridResult(
                far_targets=tuple(data["far_targets"]),
                cells=tuple(GridCell(**c | {"tars": tuple(c["tars"])}) for c in data["cells"]),
            )
            header = [f.name for f in dataclasses.fields(GridCell)][:-1] + ["far", "tar"]
        else:
            read = SweepResult(far_target=data["far_target"], repetitions=data["repetitions"],
                               points=tuple(SweepPoint(**p) for p in data["points"]))
            header = [f.name for f in dataclasses.fields(SweepPoint)]
        assert read == library_result(world, command, values)
        assert (out / f"{command}.csv").read_text().splitlines()[0] == ",".join(header)

    def test_sweep_seed_repeatable(self, world, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "source": {"embeddings": str(world["a"])},
                    "target": {"embeddings": str(world["b"])},
                    "manifest": str(world["manifest"]),
                    "kinds": ["linear"],
                    "sample_counts": [8],
                    "repetitions": 2,
                    "far": 1e-1,
                    "impostor_pairs": 1000,
                }
            )
        )
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli(capsys, "sweep", str(config), "--out", str(out1), "--seed", "11")
        run_cli(capsys, "sweep", str(config), "--out", str(out2), "--seed", "11")
        assert (out1 / "sweep.json").read_bytes() == (out2 / "sweep.json").read_bytes()

    def test_env_var_provides_default_seed(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"dim": 8, "num_subjects": 4,
                                      "media_per_subject": 2}))
        out1, out2, out3 = (tmp_path / n for n in ("w1", "w2", "w3"))
        monkeypatch.setenv("EMBALIGN_SEED", "21")
        run_cli(capsys, "synth", str(config), "--out", str(out1))
        run_cli(capsys, "synth", str(config), "--out", str(out2))
        monkeypatch.setenv("EMBALIGN_SEED", "22")
        run_cli(capsys, "synth", str(config), "--out", str(out3))
        assert (out1 / "model_a.cfeb").read_bytes() == (out2 / "model_a.cfeb").read_bytes()
        assert (out1 / "model_a.cfeb").read_bytes() != (out3 / "model_a.cfeb").read_bytes()

    def test_attack_command(self, world, tmp_path, capsys):
        config = tmp_path / "attack.json"
        config.write_text(
            json.dumps(
                {
                    "unknown": {"embeddings": str(world["a"])},
                    "attacker": {"embeddings": str(world["b"])},
                    "manifest": str(world["manifest"]),
                    "map_kind": "rotation",
                    "enroll_pairs": 40,
                    "k_values": [1, 5],
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "attack"
        code, stdout, _ = run_cli(capsys, "attack", str(config), "--out", str(out))
        assert code == 0
        result = json.loads((out / "attack.json").read_text())
        assert result["rank_k_accuracy"]["1"] >= 0.9
        assert (out / "attack.csv").exists()

    @pytest.mark.parametrize("shared", [0, 1])
    def test_attack_fewer_than_two_shared_media_exits_2(self, world, tmp_path, capsys, shared):
        attacker = load_embeddings(world["b"])
        save_embeddings(attacker.restrict(attacker.media_ids[:shared]), tmp_path / "b.cfeb")
        config = tmp_path / "attack.json"
        config.write_text(json.dumps({
            "unknown": {"embeddings": str(world["a"])},
            "attacker": {"embeddings": str(tmp_path / "b.cfeb")},
            "manifest": str(world["manifest"]),
            "map_kind": "rotation",
            "enroll_pairs": 1,
            "k_values": [1],
        }))
        code, _, stderr = run_cli(capsys, "attack", str(config), "--out", str(tmp_path / "out"))
        assert code == 2
        assert stderr == (f"error: enroll_pairs must be at least 1 and below the {shared} "
                          "media both models embed\n")

    def test_attack_matches_library_byte_for_byte(self, tmp_path, capsys):
        # a noisy world, so the accuracies depend on which media the split picks
        spec = SynthSpec(dim=16, num_subjects=60, media_per_subject=6,
                         within_class_noise=2.0, cross_model_noise=0.5, seed=12)
        unknown, attacker, manifest, _ = generate_world(spec)
        save_embeddings(unknown, tmp_path / "a.cfeb")
        save_embeddings(attacker, tmp_path / "b.cfeb")
        save_manifest(manifest, tmp_path / "manifest.csv")
        config = tmp_path / "attack.json"
        config.write_text(json.dumps({
            "unknown": {"embeddings": "a.cfeb"},
            "attacker": {"embeddings": "b.cfeb"},
            "manifest": "manifest.csv",
            "map_kind": "linear",
            "enroll_pairs": 100,
            "k_values": [1, 5],
        }))
        out = tmp_path / "attack"
        code, _, _ = run_cli(capsys, "attack", str(config), "--out", str(out), "--seed", "4")
        assert code == 0

        unknown = load_embeddings(tmp_path / "a.cfeb")
        attacker = load_embeddings(tmp_path / "b.cfeb")
        manifest = load_manifest(tmp_path / "manifest.csv")
        enroll, gallery_media, probes = split_attack(unknown, attacker, manifest, 100, seed=4)
        gallery = subject_gallery(attacker.restrict(gallery_media), manifest)
        result = run_attack(
            unknown.restrict(enroll), attacker.restrict(enroll), unknown.restrict(probes),
            gallery, manifest, "linear", [1, 5],
        )
        expected = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        assert (out / "attack.json").read_text() == expected
        assert 0.0 < result.rank_k_accuracy[1] < 1.0

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_attack_memory_bounded_in_probes(self, tmp_path):
        # 40 subjects of 800 media at dim 1024, an identity map and one
        # subject's enrollment: 15,600 probes, whose float32 rows are 61
        # MiB. The cap is 144 MiB whatever the probe count: the attack
        # holds the sets' ids and offsets, and maps the probes a row chunk
        # at a time (two float64 buffers of 3,900 rows, 61 MiB). Measured at
        # one BLAS thread: 126 MiB over the VmSize after imports and the
        # warm-up; restricted sets that read their rows needed 194 MiB.
        subjects, media, dim = 40, 800, 1024
        ids = [f"m{i:06d}" for i in range(subjects * media)]
        rng = np.random.default_rng(3)
        for name in ("a", "b"):
            rows = rng.standard_normal((len(ids), dim), dtype=np.float32)
            save_embeddings(EmbeddingSet(name.upper(), ids, rows), tmp_path / f"{name}.cfeb")
            del rows
        save_manifest(MediaManifest([MediaEntry(m, f"s{i // media:03d}", f"t{i // media:03d}")
                                     for i, m in enumerate(ids)]), tmp_path / "manifest.csv")
        config = tmp_path / "attack.json"
        config.write_text(json.dumps({
            "unknown": {"embeddings": "a.cfeb"}, "attacker": {"embeddings": "b.cfeb"},
            "manifest": "manifest.csv", "map_kind": "identity", "enroll_pairs": media,
            "k_values": [1],
        }))
        done = run_memory_limited(tmp_path, 144 << 20, "attack", config,
                                  "--out", tmp_path / "out")
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout)
        assert (result["gallery_size"], result["probe_count"]) == (subjects - 1, 15_600)

    def test_bad_config_schema_exits_2(self, world, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"manifest": str(world["manifest"])}))
        code, _, stderr = run_cli(
            capsys, "grid", str(config), "--out", str(tmp_path / "g")
        )
        assert code == 2
        assert "models" in stderr

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        code, _, _ = run_cli(capsys, "grid", str(config), "--out", str(tmp_path / "g"))
        assert code == 2


class TestGridSplitMemory:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_one_full_model_held_while_splitting(self, tmp_path):
        # six models of 24,000 media at dim 256 (23.4 MiB each, one file
        # under six ids), ten media a template, one rotation per cell. The
        # cap is 10.5 sets (246 MiB), below the 2 sets per model the grid
        # would need to hold every full model beside its split, let alone
        # its working memory besides; keeping only each model's split as
        # it is loaded, and reading the splits' rows once in the grid,
        # needs 215 MiB over the VmSize after imports and the warm-up (31
        # MiB to spare, at one BLAS thread).
        n, dim, models = 24_000, 256, 6
        ids = [f"m{i:05d}" for i in range(n)]
        rows = np.random.default_rng(5).standard_normal((n, dim), dtype=np.float32)
        save_embeddings(EmbeddingSet("M", ids, rows), tmp_path / "m.cfeb")
        save_manifest(MediaManifest([MediaEntry(m, f"s{i // 40:04d}", f"t{i // 10:05d}")
                                     for i, m in enumerate(ids)]), tmp_path / "manifest.csv")
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "models": [{"id": f"M{k}", "embeddings": "m.cfeb"} for k in range(models)],
            "manifest": "manifest.csv", "kinds": ["rotation"], "fars": [0.1],
            "impostor_pairs": 1000, "seed": 1,
        }))
        out = tmp_path / "grid"
        done = run_memory_limited(tmp_path, (4 * models - 3) * n * dim * 2, "grid", config,
                                  "--out", out)
        assert done.returncode == 0, done.stderr[-2000:]
        cells = json.loads((out / "grid.json").read_text())["cells"]
        assert len(cells) == models * (models - 1) + models


class TestNoGenuinePairs:
    """Three templates per subject (two 3-frame videos and one image) at the
    default enroll_fraction 0.5: round(1.5) enrolls two of them, so no
    subject keeps two verification templates to form a genuine pair."""

    @pytest.mark.parametrize("command", ["grid", "sweep"])
    def test_split_without_genuine_pairs_exits_2(self, tmp_path, capsys, command):
        spec = SynthSpec(dim=24, num_subjects=40, media_per_subject=7,
                         frames_per_video=3, seed=11)
        a, b, manifest, _ = generate_world(spec)
        assert len(manifest.template_ids) == 3 * 40
        save_embeddings(a, tmp_path / "a.cfeb")
        save_embeddings(b, tmp_path / "b.cfeb")
        save_manifest(manifest, tmp_path / "manifest.csv")
        models = {"embeddings": "a.cfeb"}, {"embeddings": "b.cfeb"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "grid": {"models": list(models)},
            "sweep": {"source": models[0], "target": models[1]},
        }[command] | {"manifest": "manifest.csv"}))
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, command, str(config), "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ") and "Traceback" not in stderr
        assert ("no subject keeps two verification templates at enroll_fraction 0.5"
                in stderr)
        assert not out.exists()


def command_configs(world):
    """A small valid config for each command that reads one."""
    models = {"embeddings": str(world["a"])}, {"embeddings": str(world["b"])}
    manifest = {"manifest": str(world["manifest"])}
    return {
        "grid": manifest | {"models": list(models), "kinds": ["rotation"],
                            "impostor_pairs": 500},
        "sweep": manifest | {"source": models[0], "target": models[1],
                             "sample_counts": [8], "repetitions": 1,
                             "impostor_pairs": 500},
        "attack": manifest | {"unknown": models[0], "attacker": models[1],
                              "enroll_pairs": 40},
        "synth": {"dim": 4, "num_subjects": 3, "media_per_subject": 2},
    }


def library_result(world, command, values, pairs=None):
    """The result of ``command_configs``' grid or sweep ``values`` through
    the library: its split, its sampled pairs unless ``pairs`` is given,
    and its experiment."""
    manifest = load_manifest(world["manifest"])
    enroll, verify = split_by_template(manifest, 0.5, values["seed"])
    if pairs is None:
        codes = manifest.template_codes[manifest.rows_of(verify)]
        pairs = sample_eval_pairs(manifest, {manifest.template_ids[c] for c in codes},
                                  values["impostor_pairs"], values["seed"])
    models = [(m.restrict(enroll), m.restrict(verify))
              for m in (load_embeddings(world["a"]), load_embeddings(world["b"]))]
    if command == "grid":
        return run_grid(models, manifest, pairs, values["kinds"], cli.GridConfig.fars)
    return run_sweep(*models, manifest, pairs, cli.SweepConfig.kinds, values["sample_counts"],
                     values["repetitions"], cli.SweepConfig.far, values["seed"])


def without_models(values: dict, tmp_path) -> None:
    """Point every model of a config at a file that does not exist, so
    reading one would exit 1."""
    models = values.get("models", []) + [
        values[key] for key in ("source", "target", "unknown", "attacker") if key in values
    ]
    for model in models:
        model["embeddings"] = str(tmp_path / "missing.cfeb")


def assert_refused(code, stdout, stderr, out):
    """Exit 2 with one `error: ` line, no traceback and no output."""
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr
    assert not out.exists()


def set_key(values: dict, key: str, value) -> None:
    """Set the dotted ``key`` of a config; a number indexes a list."""
    *parents, last = [int(k) if k.isdigit() else k for k in key.split(".")]
    for k in parents:
        values = values[k]
    values[last] = value


class TestImpostorCount:
    @pytest.mark.parametrize("command", ["grid", "sweep", "synth"])
    def test_negative_count_exits_2(self, world, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        values = command_configs(world)[command]
        out, pairs = tmp_path / "out", tmp_path / "pairs.csv"
        argv = [command, str(config), "--out", str(out)]
        if command == "synth":
            argv += ["--impostor-pairs", "-5", "--pairs-out", str(pairs)]
        else:
            values["impostor_pairs"] = -1
            # inputs that do not exist: reading any of them would exit 1
            values["manifest"] = str(tmp_path / "missing.csv")
            without_models(values, tmp_path)
        config.write_text(json.dumps(values))
        code, stdout, stderr = run_cli(capsys, *argv)
        assert_refused(code, stdout, stderr, out)
        assert "impostor pair count must be >= 0" in stderr
        if command != "synth":
            assert stderr == (f"error: {config}: impostor_pairs: "
                              "impostor pair count must be >= 0, got -1\n")
        assert not pairs.exists()

    def test_zero_count_lists_the_genuine_pairs(self, world, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(command_configs(world)["synth"]))
        pairs = tmp_path / "pairs.csv"
        code, _, _ = run_cli(capsys, "synth", str(config), "--out", str(tmp_path / "out"),
                             "--impostor-pairs", "0", "--pairs-out", str(pairs))
        assert code == 0
        # 3 subjects of 2 one-image templates: one genuine pair each
        assert len(load_pairs(pairs)) == 3


class TestSeedRange:
    @pytest.mark.parametrize("command", ["grid", "sweep", "attack", "synth"])
    @pytest.mark.parametrize(
        "seed", ["-1", str(2**64), "env -3", "env abc", "config 1.5", "config true",
                 'config "7"', f"config {2**64}"]
    )
    def test_out_of_range_seed_exits_2(self, world, tmp_path, capsys, monkeypatch,
                                       command, seed):
        config = tmp_path / "config.json"
        values = command_configs(world)[command]
        if command != "synth":
            # inputs that do not exist: the seed is refused before any is read
            values["manifest"] = str(tmp_path / "missing.csv")
            without_models(values, tmp_path)
        out = tmp_path / "out"
        argv = [command, str(config), "--out", str(out)]
        if seed.startswith("env "):
            monkeypatch.setenv("EMBALIGN_SEED", seed.split()[1])
            where = "EMBALIGN_SEED"
        elif seed.startswith("config "):
            values["seed"] = json.loads(seed.split(maxsplit=1)[1])
            where = f"{config}: seed"
        else:
            argv += ["--seed", seed]
            where = "--seed"
        config.write_text(json.dumps(values))
        code, stdout, stderr = run_cli(capsys, *argv)
        assert_refused(code, stdout, stderr, out)
        # the config's path names the test, which holds "seed" too
        assert "seed" in stderr.replace(str(config), "")
        if seed == "env abc":
            assert "EMBALIGN_SEED" in stderr
        value = seed.split()[-1]
        if value.lstrip("-").isdigit():
            # one seed rule, naming where the seed came from
            assert stderr == f"error: {where}: seed must be in [0, 2**64), got {value}\n"


class TestGivenPairs:
    """A config's ``pairs`` list is scored as given, and must name
    verification templates only."""

    @pytest.mark.parametrize("command", ["grid", "sweep"])
    def test_verification_pairs_match_the_library(self, world, tmp_path, capsys, command):
        manifest = load_manifest(world["manifest"])
        _, verify = split_by_template(manifest, 0.5, 4)
        codes = manifest.template_codes[manifest.rows_of(verify)]
        pairs = sample_eval_pairs(manifest, {manifest.template_ids[c] for c in codes}, 300, 9)
        save_pairs(pairs, tmp_path / "pairs.csv")
        values = command_configs(world)[command] | {"seed": 4, "pairs": "pairs.csv"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, command, str(config), "--out", str(out))
        assert code == 0
        expected = library_result(world, command, values, load_pairs(tmp_path / "pairs.csv"))
        assert (out / f"{command}.json").read_text() == json.dumps(
            expected.to_dict(), indent=2, sort_keys=True)

    @pytest.mark.parametrize("command", ["grid", "sweep"])
    def test_enrollment_template_refused_before_any_model_is_read(
        self, world, tmp_path, capsys, command
    ):
        # synth --pairs-out lists pairs over every template of the manifest
        values = command_configs(world)[command] | {"seed": 4, "pairs": str(world["pairs"])}
        without_models(values, tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, command, str(config), "--out", str(out))
        assert_refused(code, stdout, stderr, out)
        manifest = load_manifest(world["manifest"])
        enroll, _ = split_by_template(manifest, 0.5, 4)
        enrolled = {manifest.template_ids[c] for c in manifest.template_codes[manifest.rows_of(enroll)]}
        first = next(t for t in load_pairs(world["pairs"]).template_ids if t in enrolled)
        assert stderr == (f"error: {world['pairs']}: pair template {first!r} is in the "
                          "enrollment split; evaluation pairs must name verification "
                          "templates only\n")


class TestHostileInput:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mutated_protocol_csv_exits_2(self, world, tmp_path_factory, data):
        """A manifest or pair list broken in one place (a field over the
        csv limit, a byte that is not UTF-8, a row of the wrong width, a
        repeated medium, a self-pair, an unknown template) exits 2 with
        one line naming ``path:line`` or the offending id."""
        which = data.draw(st.sampled_from(["manifest", "pairs"]))
        lines = world[which].read_bytes().splitlines(keepends=True)
        line = data.draw(st.integers(2, len(lines)))
        row = lines[line - 1].rstrip(b"\r\n")
        fields, ending = row.split(b","), lines[line - 1][len(row):]
        mutations = ["long field", "not utf-8", "wide row", "narrow row"]
        mutations += ["duplicate media"] if which == "manifest" else ["self-pair", "unknown"]
        mutation = data.draw(st.sampled_from(mutations))
        where = f"{{path}}:{line}:"
        if mutation == "long field":
            fields[0] = b"x" * 200_000
        elif mutation == "not utf-8":
            fields[0] = b"\xff" + fields[0]
        elif mutation == "wide row":
            fields.append(b"extra")
        elif mutation == "narrow row":
            fields.pop()
        elif mutation == "duplicate media":
            lines.append(lines[line - 1])
            where = repr(fields[0].decode())
        elif mutation == "self-pair":
            fields[1] = fields[0]
            where = f"self-pair {fields[0].decode()!r}"
        else:
            fields[data.draw(st.integers(0, 1))] = b"T_unknown"
            where = "'T_unknown'"
        lines[line - 1] = b",".join(fields) + ending
        path = tmp_path_factory.mktemp("mutated") / f"{which}.csv"
        path.write_bytes(b"".join(lines))
        files = {"manifest": world["manifest"], "pairs": world["pairs"], which: path}
        code, stdout, stderr = run_quiet("verify", world["a"], world["b"], files["manifest"],
                                         files["pairs"], "--far", "0.1")
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "Traceback" not in stderr
        assert where.format(path=path) in stderr

    @pytest.mark.parametrize("damage", ["truncated header", "bad utf-8 string"])
    @pytest.mark.parametrize("suffix", [".cfeb", ".cfem"])
    def test_damaged_binary_file_exits_2(self, world, tmp_path, capsys, suffix, damage):
        # the first id or model id string begins at byte 20 of world["a"]
        # and at byte 15 + 8 * 16 * 16 + 2 of the 16-d ground truth
        good = world["a"] if suffix == ".cfeb" else world["ground_truth"]
        raw = bytearray(good.read_bytes())
        if damage == "truncated header":
            raw = raw[:9]
        else:
            raw[20 if suffix == ".cfeb" else 15 + 8 * 16 * 16 + 2] = 0xFF
        bad = tmp_path / f"bad{suffix}"
        bad.write_bytes(bytes(raw))
        out = tmp_path / "out.cfeb"
        if suffix == ".cfeb":
            argv = ["fit", str(bad), str(world["b"]), "--kind", "linear"]
        else:
            argv = ["apply", str(bad), str(world["a"])]
        code, stdout, stderr = run_cli(capsys, *argv, "--out", str(out))
        assert_refused(code, stdout, stderr, out)
        assert f"{bad}: " in stderr

    @pytest.mark.parametrize("command", ["sweep", "ingest"])
    def test_overlong_csv_field_exits_2(self, world, tmp_path, capsys, command):
        # a field over the csv module's 131,072-character limit
        source = tmp_path / "bad.csv"
        source.write_text(world["manifest"].read_text() + "x" * 200_000 + ",s,t,\n")
        out = tmp_path / "out"
        if command == "ingest":
            argv = ["ingest", str(source), "--model-id", "m", "--out", str(out)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(
                command_configs(world)["sweep"] | {"manifest": str(source)}
            ))
            argv = ["sweep", str(config), "--out", str(out)]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert_refused(code, stdout, stderr, out)
        assert f"{source}:" in stderr and "field larger than field limit" in stderr

    @pytest.mark.parametrize("command, key", [
        ("grid", "manifest"), ("grid", "pairs"), ("grid", "models.0.embeddings"),
        ("sweep", "manifest"), ("sweep", "pairs"), ("sweep", "source.embeddings"),
        ("sweep", "target.embeddings"), ("attack", "manifest"),
        ("attack", "unknown.embeddings"), ("attack", "attacker.embeddings"),
    ])
    def test_non_string_config_path_exits_2(self, world, tmp_path, capsys, command, key):
        values = command_configs(world)[command]
        set_key(values, key, 5)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, command, str(config), "--out", str(out))
        assert_refused(code, stdout, stderr, out)
        assert "config path must be a string, got 5" in stderr

    @pytest.mark.parametrize("command", ["sweep", "ingest"])
    def test_non_utf8_csv_exits_2(self, world, tmp_path, capsys, command):
        lines = world["manifest"].read_bytes().splitlines(keepends=True)
        lines[59] = b"\xff" + lines[59]
        source = tmp_path / "bad.csv"
        source.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        if command == "ingest":
            argv = ["ingest", str(source), "--model-id", "m", "--out", str(out)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(
                command_configs(world)["sweep"] | {"manifest": str(source)}
            ))
            argv = ["sweep", str(config), "--out", str(out)]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert_refused(code, stdout, stderr, out)
        assert f"{source}:60: not UTF-8" in stderr

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_memory_error_exits_1(self, tmp_path):
        # an 8 TB world: the allocation fails at once, and under the limit
        # even where the system would overcommit it
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"dim": 10**12, "num_subjects": 1,
                                      "media_per_subject": 1}))
        out = tmp_path / "world"
        done = run_memory_limited(tmp_path, 256 << 20, "synth", config, "--out", out)
        assert done.returncode == 1, done.stderr[-2000:]
        assert done.stdout == ""
        assert done.stderr.startswith("error: out of memory: ")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert not out.exists()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_oversize_world_fails_before_building_it(self, tmp_path):
        # 10**10 media: the model-A array is refused before a Python object
        # is built per medium; built first, the manifest entries fill the
        # cap and the run ends in a MemoryError traceback after seconds
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"num_subjects": 10**9}))
        out = tmp_path / "world"
        done = run_memory_limited(tmp_path, 256 << 20, "synth", config, "--out", out)
        assert done.returncode == 1, done.stderr[-2000:]
        assert done.stdout == ""
        assert done.stderr.startswith("error: out of memory: ")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert not out.exists()
        rss = json.loads((tmp_path / "rss.json").read_text())
        assert rss["peak_kib"] - rss["after_imports_kib"] < 8 << 10


# main() under RLIMIT_AS = VmSize + headroom (argv[1], in bytes), taken
# after the imports and a first small GEMM, which maps the BLAS buffers
# outside the cap (about 33 MiB at one BLAS thread); the resident set and
# the VmSize then, and the peak resident set and peak VmSize at exit, in
# KiB, are written as JSON to the file argv[2]
MEMORY_LIMITED_MAIN = """
import json, sys
import numpy as np
from embalign.cli import main

headroom, report, *argv = sys.argv[1:]
np.ones((300, 300)) @ np.ones((300, 300))
after_imports = status("VmRSS")
vm_size = cap_address_space(int(headroom))
try:
    sys.exit(main(argv))
finally:
    with open(report, "w") as f:
        json.dump({"after_imports_kib": after_imports, "peak_kib": status("VmHWM"),
                   "vm_size_kib": vm_size, "vm_peak_kib": status("VmPeak")}, f)
"""


def run_memory_limited(tmp_path, headroom: int, *argv):
    """MEMORY_LIMITED_MAIN through ``memory_gate.run_gate``, reporting to
    ``tmp_path / "rss.json"``: the finished process."""
    return run_gate(MEMORY_LIMITED_MAIN, headroom, tmp_path / "rss.json", *argv)


# Configs that broke the exit contract before the typed reader: a
# traceback at exit 1, a value silently coerced or a key ignored at
# exit 0, or a misleading message; then non-finite numbers. Each is
# (command, dotted key, value, the message after the config's path).
CONFIG_ESCAPES = [
    ("grid", "models", 5, "models: expected an array, got 5"),
    ("grid", "models", [5], "models[0]: expected an object, got 5"),
    ("grid", "kinds", 5, "kinds: expected an array, got 5"),
    ("grid", "enroll_fraction", None, "enroll_fraction: expected a finite number, got None"),
    ("sweep", "sample_counts", 5, "sample_counts: expected an array, got 5"),
    ("sweep", "far", [1], "far: expected a finite number, got [1]"),
    ("sweep", "source", 5, "source: expected an object, got 5"),
    ("attack", "k_values", 5, "k_values: expected an array, got 5"),
    ("synth", "dim", "x", "dim: expected an integer, got 'x'"),
    ("synth", "dim", 4.5, "dim: expected an integer, got 4.5"),
    ("synth", "num_subjects", 1e30, "num_subjects: expected an integer, got 1e+30"),
    ("synth", "within_class_noise", "0.1",
     "within_class_noise: expected a finite number, got '0.1'"),
    ("synth", "frames_per_video", 2.5, "frames_per_video: expected an integer, got 2.5"),
    ("grid", "impostor_pairs", 1.7, "impostor_pairs: expected an integer, got 1.7"),
    ("sweep", "impostor_pairs", 1.7, "impostor_pairs: expected an integer, got 1.7"),
    ("grid", "enroll_fraction", "0.5", "enroll_fraction: expected a finite number, got '0.5'"),
    ("sweep", "enroll_fraction", "0.5",
     "enroll_fraction: expected a finite number, got '0.5'"),
    ("sweep", "repetitions", 1.9, "repetitions: expected an integer, got 1.9"),
    ("sweep", "repetitions", True, "repetitions: expected an integer, got True"),
    ("sweep", "sample_counts", [8.9], "sample_counts[0]: expected an integer, got 8.9"),
    ("sweep", "far", True, "far: expected a finite number, got True"),
    ("attack", "k_values", [1.5], "k_values[0]: expected an integer, got 1.5"),
    ("attack", "k_values", [True], "k_values[0]: expected an integer, got True"),
    ("attack", "enroll_pairs", 30.7, "enroll_pairs: expected an integer, got 30.7"),
    ("grid", "models.0.id", [1], "models[0].id: expected a string, got [1]"),
    ("grid", "impostor_pair", 2000, "unknown key 'impostor_pair'"),
    ("sweep", "source.name", "A", "source: unknown key 'name'"),
    ("grid", "kinds", "rotation", "kinds: expected an array, got 'rotation'"),
    ("sweep", "far", float("nan"), "far: expected a finite number, got nan"),
    ("grid", "fars", [1e400], "fars[0]: expected a finite number, got inf"),
    ("synth", "cross_model_noise", 10**400, "cross_model_noise: expected a finite number"),
]

# The JSON types each key of the gate's configs accepts, a list's
# elements under "key[]"; required keys; keys that refuse 1e30.
ACCEPTS = {
    **dict.fromkeys(["manifest", "embeddings", "map_kind", "planted_kind", "kinds[]"], (str,)),
    "id": (str, type(None)),
    "sample_counts": (list, type(None)),
    **dict.fromkeys(["models", "kinds", "k_values", "fars"], (list,)),
    **dict.fromkeys(["models[]", "source", "target", "unknown", "attacker"], (dict,)),
    **dict.fromkeys(["impostor_pairs", "repetitions", "enroll_pairs", "sample_counts[]",
                     "k_values[]", "dim", "num_subjects", "media_per_subject"], (int,)),
    **dict.fromkeys(["far", "fars[]", "enroll_fraction", "within_class_noise"], (int, float)),
}
REQUIRED = {"manifest", "models", "source", "target", "unknown", "attacker", "enroll_pairs",
            "embeddings"}
HUGE_REFUSED = {"far", "fars[]", "enroll_fraction"} | {
    key for key, types in ACCEPTS.items() if types == (int,)
}


def gate_configs(world):
    """command_configs with every optional key the gate mutates set."""
    configs = copy.deepcopy(command_configs(world))
    configs["grid"] |= {"fars": [0.1], "enroll_fraction": 0.5}
    configs["grid"]["models"][0]["id"] = "A"
    configs["sweep"] |= {"kinds": ["rotation"], "far": 0.1}
    configs["attack"] |= {"map_kind": "rotation", "k_values": [1, 5]}
    configs["synth"] |= {"within_class_noise": 0.1, "planted_kind": "linear"}
    return configs


def config_keys(value, path=()):
    """(path, key type) of every dict key and list element in a config."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for k, v in items:
        yield path + (k,), k if isinstance(value, dict) else f"{path[-1]}[]"
        if isinstance(v, (dict, list)):
            yield from config_keys(v, path + (k,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# the values a hand-written config gets wrong most often
NEAR_MISSES = st.sampled_from([True, False, 0.5, 1e30, "7", None, [7], {}])


@st.composite
def mutated_configs(draw, configs):
    """A command and its gate config broken in one place: a value of a
    JSON type its key refuses (nested junk included), a required key
    dropped, an unknown key added, 1e30 for an integer, a FAR or a
    fraction, or a seed of 2**64 or more."""
    command = draw(st.sampled_from(sorted(configs)))
    values = copy.deepcopy(configs[command])
    keys = list(config_keys(values))
    mutations = ["swap", "unknown", "huge", "seed"]
    if any(kind in REQUIRED for _, kind in keys):
        mutations.append("missing")
    mutation = draw(st.sampled_from(mutations))
    if mutation == "seed":
        values["seed"] = 2**64 + draw(st.integers(0, 2**70))
        return command, values
    if mutation == "unknown":
        objects = [()] + [path for path, kind in keys if ACCEPTS[kind] == (dict,)]
        path = draw(st.sampled_from(objects))
        key = path + ("x-" + draw(st.text(max_size=6)),)
        value = draw(JSON_VALUES)
    else:
        wanted = {"swap": ACCEPTS, "huge": HUGE_REFUSED, "missing": REQUIRED}[mutation]
        key, kind = draw(st.sampled_from([(p, k) for p, k in keys if k in wanted]))
        value = 1e30
        if mutation == "swap":
            refused = (NEAR_MISSES | JSON_VALUES).filter(lambda v: type(v) not in ACCEPTS[kind])
            value = draw(refused)
    parent = values
    for k in key[:-1]:
        parent = parent[k]
    if mutation == "missing":
        del parent[key[-1]]
    else:
        parent[key[-1]] = value
    return command, values


class TestConfigSchema:
    @pytest.mark.parametrize(
        "command, key, value, message", CONFIG_ESCAPES,
        ids=[f"{c}-{k}={v!r:.12}" for c, k, v, _ in CONFIG_ESCAPES],
    )
    def test_escape_refused(self, world, tmp_path, capsys, command, key, value, message):
        values = command_configs(world)[command]
        set_key(values, key, value)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, command, str(config), "--out", str(out))
        assert_refused(code, stdout, stderr, out)
        assert stderr.startswith(f"error: {config}: {message}")

    @pytest.mark.parametrize("command, key, value, message", [
        ("sweep", "far", 1e30, "far: FAR target 1e+30 outside (0, 1]"),
        ("grid", "fars", [0.1, 0.0], "fars: FAR target 0.0 outside (0, 1]"),
        ("grid", "fars", [], "fars: far_targets must be non-empty"),
    ], ids=["sweep far", "grid fars", "grid no fars"])
    def test_far_out_of_range_refused_before_loading(
        self, world, tmp_path, capsys, command, key, value, message
    ):
        values = command_configs(world)[command]
        set_key(values, key, value)
        # inputs that do not exist: reading any of them would exit 1
        values["manifest"] = str(tmp_path / "missing.csv")
        for model in values.get("models", [values.get("source"), values.get("target")]):
            model["embeddings"] = str(tmp_path / "missing.cfeb")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, command, str(config), "--out", str(out))
        assert_refused(code, stdout, stderr, out)
        assert stderr == f"error: {config}: {message}\n"

    @pytest.mark.parametrize("content, message", [
        (b"{not json", "invalid JSON"),
        (b'{"dim": "\xff"}', "invalid JSON ('utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000, "invalid JSON (maximum recursion depth exceeded"),
        (b"[1]", "config must be a JSON object"),
    ], ids=["bad json", "bad utf-8", "deep nesting", "array"])
    def test_unreadable_config_refused(self, tmp_path, capsys, content, message):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, "synth", str(config), "--out", str(out))
        assert_refused(code, stdout, stderr, out)
        assert stderr.startswith(f"error: {config}: {message}")

    @pytest.mark.parametrize("command", ["grid", "sweep", "attack", "synth"])
    def test_gate_config_runs(self, world, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(gate_configs(world)[command]))
        code, _, stderr = run_cli(capsys, command, str(config), "--out", str(tmp_path / "o"))
        assert code == 0, stderr

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_config_refused(self, world, tmp_path_factory, data):
        # no mutation gives a size a valid type: a valid huge size, such as
        # synth num_subjects 10**9, would build a world for minutes
        command, values = data.draw(mutated_configs(gate_configs(world)))
        root = tmp_path_factory.mktemp("mutated")
        config = root / "config.json"
        config.write_text(json.dumps(values))
        code, stdout, stderr = run_quiet(command, config, "--out", root / "out")
        assert code in (1, 2)
        assert stdout == ""
        assert stderr.startswith(("error: ", "io error: ")) and stderr.count("\n") == 1
        assert "Traceback" not in stderr
        assert not (root / "out").exists()


class TestArgumentErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_kind_choice_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "a", "b", "--kind", "affine", "--out", "m"])
        assert exc.value.code == 2


class TestTracedNames:
    def test_every_traced_name_resolves(self):
        # perfbench/spans.py rebinds these names when it traces a run; one
        # that no longer resolves fails every traced run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for module, attr, _ in spans.TRACED:
            assert callable(getattr(importlib.import_module(f"embalign.{module}"), attr))
        assert callable(EmbeddingSet.restrict)
        for command in spans.CLI_COMMANDS:
            assert callable(getattr(cli, f"cmd_{command}"))
