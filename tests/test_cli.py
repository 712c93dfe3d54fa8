import json
import struct

import numpy as np
import pytest

from embalign import (
    EmbeddingSet,
    SynthSpec,
    build_templates,
    generate_world,
    load_embeddings,
    load_manifest,
    load_map,
    load_pairs,
    roc,
    run_attack,
    save_embeddings,
    save_manifest,
    score_pairs,
    split_attack,
    subject_gallery,
)
from embalign.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestFit:
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

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "fit", str(tmp_path / "no.cfeb"), str(tmp_path / "no2.cfeb"),
            "--kind", "linear", "--out", str(tmp_path / "m.cfem"),
        )
        assert code == 1
        assert "io error" in stderr


class TestApplyAndIngest:
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

    def test_ingest_bad_value_exits_2(self, tmp_path, capsys):
        src = tmp_path / "vecs.csv"
        src.write_text("m1,1.0,zebra\n")
        code, _, _ = run_cli(
            capsys, "ingest", str(src), "--model-id", "x",
            "--out", str(tmp_path / "o.cfeb"),
        )
        assert code == 2


class TestVerify:
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


class TestNoGenuinePairs:
    """Three templates per subject (two 3-frame videos and one image) at the
    default enroll_fraction 0.5: round(1.5) enrolls two of them, so no
    subject keeps two verification templates to form a genuine pair."""

    @pytest.mark.parametrize("command", ["grid", "sweep"])
    def test_split_without_genuine_pairs_exits_2(self, tmp_path, capsys, command):
        spec = SynthSpec(dim=24, num_subjects=40, media_per_subject=7,
                         frames_per_video=3, seed=11)
        a, b, manifest, _ = generate_world(spec)
        assert len(manifest.template_subject) == 3 * 40
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
    manifest = {"manifest": str(world["manifest"]), "impostor_pairs": 500}
    return {
        "grid": manifest | {"models": list(models), "kinds": ["rotation"]},
        "sweep": manifest | {"source": models[0], "target": models[1],
                             "sample_counts": [8], "repetitions": 1},
        "attack": manifest | {"unknown": models[0], "attacker": models[1],
                              "enroll_pairs": 40},
        "synth": {"dim": 4, "num_subjects": 3, "media_per_subject": 2},
    }


def assert_refused(code, stdout, stderr, out):
    """Exit 2 with one `error: ` line, no traceback and no output."""
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr
    assert not out.exists()


class TestSeedRange:
    @pytest.mark.parametrize("command", ["grid", "sweep", "attack", "synth"])
    @pytest.mark.parametrize(
        "seed", ["-1", str(2**64), "env -3", "config 1.5", "config true", 'config "7"']
    )
    def test_out_of_range_seed_exits_2(self, world, tmp_path, capsys, monkeypatch,
                                       command, seed):
        config = tmp_path / "config.json"
        values = command_configs(world)[command]
        out = tmp_path / "out"
        argv = [command, str(config), "--out", str(out)]
        if seed.startswith("env "):
            monkeypatch.setenv("EMBALIGN_SEED", seed.split()[1])
        elif seed.startswith("config "):
            values["seed"] = json.loads(seed.split(maxsplit=1)[1])
        else:
            argv += ["--seed", seed]
        config.write_text(json.dumps(values))
        code, stdout, stderr = run_cli(capsys, *argv)
        assert_refused(code, stdout, stderr, out)
        assert "seed" in stderr


class TestHostileInput:
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
        *parents, last = [int(k) if k.isdigit() else k for k in key.split(".")]
        entry = values
        for k in parents:
            entry = entry[k]
        entry[last] = 5
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, command, str(config), "--out", str(out))
        assert_refused(code, stdout, stderr, out)
        assert "config path must be a string, got 5" in stderr


class TestArgumentErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_kind_choice_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "a", "b", "--kind", "affine", "--out", "m"])
        assert exc.value.code == 2
