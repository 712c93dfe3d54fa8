import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from numpy.random import bit_generator

import embalign
from embalign import SynthSpec, derive_model, generate_world
from embalign.rng import Purpose, stream


class TestStream:
    def test_key_layout(self):
        # seed in the first key word, purpose << 48 | index in the second:
        # the layout every stored world and split was drawn with
        for seed, purpose, index in product([0, 5, 2**64 - 1], Purpose, [0, 9, 2**48 - 1]):
            key = np.array([seed, (purpose.value << 48) | index], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key))
            got = stream(seed, purpose, index)
            for field in ("key", "counter"):
                assert np.array_equal(got.bit_generator.state["state"][field],
                                      expected.bit_generator.state["state"][field])
            assert got.random(4).tobytes() == expected.random(4).tobytes()
            rows, want = np.empty((3, 5)), np.empty((3, 5))
            got.standard_normal(out=rows[1:])
            expected.standard_normal(out=want[1:])
            assert rows[1:].tobytes() == want[1:].tobytes()

    def test_keyed_without_os_entropy(self, monkeypatch):
        # the key is the whole state: no SeedSequence gathers OS entropy
        # (numpy's bit_generator.randbits) only for the key to override it
        drawn = []
        if hasattr(bit_generator, "randbits"):
            randbits = bit_generator.randbits
            monkeypatch.setattr(bit_generator, "randbits",
                                lambda bits: drawn.append(bits) or randbits(bits))
        seed_seq = stream(5, Purpose.SWEEP, 9).bit_generator.seed_seq
        assert drawn == []
        assert not isinstance(seed_seq, np.random.SeedSequence)
        key = seed_seq.generate_state(2, np.uint64)
        assert key.dtype == np.uint64 and key.tolist() == [5, (18 << 48) | 9]

    def test_import_loads_no_numpy_random(self):
        # numpy.random loads with the first stream, not with the package:
        # loaded at import, it added about 6 MB to the peak RSS of every
        # command, drawing or not
        src = Path(embalign.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", "import sys, embalign.cli; print('numpy.random' in sys.modules)"],
            env=os.environ | {"PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        )
        assert done.stdout == "False\n", done.stderr

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_edges_accepted(self, seed):
        stream(seed, Purpose.PLANTED, 2**48 - 1).random()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            stream(seed, Purpose.PLANTED)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_spec_takes_the_stream_seed_rule(self, seed):
        # one seed rule: a spec refuses what a stream refuses, when it is made
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
            SynthSpec(seed=seed)

    @pytest.mark.parametrize("index", [-1, 2**48])
    def test_index_out_of_range_rejected(self, index):
        with pytest.raises(ValueError, match="stream index must be in"):
            stream(0, Purpose.PLANTED, index)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            stream(5.5, Purpose.PLANTED)
        numpy_seed = stream(np.uint64(5), Purpose.PLANTED).random()
        assert numpy_seed == stream(5, Purpose.PLANTED).random()

    def test_unregistered_purpose_rejected(self):
        with pytest.raises(ValueError):
            stream(0, 7)


class TestOneHome:
    def test_purpose_codes_unique_and_stable(self):
        codes = [p.value for p in Purpose]
        assert len(set(codes)) == len(codes)
        assert all(0 <= c < 2**16 for c in codes)
        assert {p.name: p.value for p in Purpose} == {
            "PLANTED": 0, "MEAN_A": 1, "NOISE_A": 2, "NOISE_X": 3, "MEAN_B": 4,
            "NOISE_B": 5, "ORACLE_ROTATION": 6,
            "SPLIT": 16, "PAIRS": 17, "SWEEP": 18, "ATTACK": 19,
        }

    def test_philox_constructed_only_in_rng(self):
        package = Path(embalign.__file__).parent
        users = sorted(p.name for p in package.glob("*.py") if "Philox" in p.read_text())
        assert users == ["rng.py"]

    @pytest.mark.parametrize("kind", ["rotation", "linear", "independent"])
    @pytest.mark.parametrize("frames", [None, 3])
    def test_world_model_b_is_derive_model(self, kind, frames):
        spec = SynthSpec(dim=9, num_subjects=11, media_per_subject=7,
                         frames_per_video=frames, cross_model_noise=0.05,
                         planted_kind=kind, seed=13)
        a, b, manifest, ground_truth = generate_world(spec)
        derived, planted = derive_model(
            a, manifest, planted_kind=kind, cross_model_noise=spec.cross_model_noise,
            within_class_noise=spec.within_class_noise, seed=spec.seed, model_id="B",
        )
        assert derived.media_ids == b.media_ids
        assert derived.vectors.tobytes() == b.vectors.tobytes()
        if kind == "independent":
            assert planted is None and ground_truth is None
        else:
            assert planted.matrix.tobytes() == ground_truth.matrix.tobytes()
            fields = ("kind", "source_model_id", "target_model_id")
            assert [getattr(planted, f) for f in fields] == [
                getattr(ground_truth, f) for f in fields
            ]
