import ast
import copy
import dataclasses
import gc
import importlib
import inspect
import json
import os
import pickle
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embalign
import reference_eval as reference
from memory_gate import run_gate
from embalign import (
    AlignmentError,
    ConsistencyError,
    DataError,
    EmbAlignError,
    EmbeddingSet,
    EvalPlan,
    FileFormatError,
    MediaEntry,
    MediaManifest,
    PairList,
    TemplateSet,
    TruncationError,
    UnknownIdError,
    align_pairs,
    apply_map,
    fit,
    identity_map,
    load_embeddings,
    load_manifest,
    load_map,
    load_pairs,
    random_rotation,
    save_embeddings,
    save_manifest,
    save_map,
    save_pairs,
)
from embalign.mapping import MappingMatrix
from embalign import store
from embalign.store import (
    _PAIR_CHUNK,
    _ROW_CHUNK,
    aligned_rows,
    all_finite,
    float_chunks,
    group_chunks,
    pair_chunks,
    row_chunks,
    row_norms,
    unit_rows,
)


def traced_peak(call) -> int:
    """The peak bytes ``tracemalloc`` sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_set(ids, vectors, model_id="m", dtype=np.float32):
    return EmbeddingSet(
        model_id=model_id,
        media_ids=tuple(ids),
        vectors=np.asarray(vectors, dtype=dtype),
    )


class TestEmbeddingSet:
    def test_basic_fields(self):
        s = make_set(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        assert s.dim == 2
        assert len(s) == 2
        assert s.normalized

    def test_not_normalized(self):
        s = make_set(["a"], [[3.0, 4.0]])
        assert not s.normalized

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            make_set(["a", "a"], [[1.0, 0.0], [0.0, 1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            make_set(["a"], [[np.nan, 0.0]])
        with pytest.raises(DataError):
            make_set(["a"], [[np.inf, 0.0]])

    def test_row_count_mismatch(self):
        with pytest.raises(DataError):
            make_set(["a", "b"], [[1.0, 0.0]])

    def test_vectors_read_only(self):
        s = make_set(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            s.vectors[0, 0] = 5.0

    def test_restrict_preserves_order(self):
        s = make_set(["c", "a", "b"], [[1, 0], [0, 1], [1, 1]])
        sub = s.restrict({"b", "c"})
        assert sub.media_ids == ("c", "b")
        assert np.array_equal(sub.vectors, s.vectors[[0, 2]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_restrict_matches_row_by_row_selection(self, dtype):
        rng = np.random.default_rng(4)
        ids = [f"m{i:03d}" for i in rng.permutation(300)]
        s = make_set(ids, rng.standard_normal((300, 5)), dtype=dtype)
        wanted = set(rng.choice(ids, 120).tolist()) | {"not-in-set"}
        sub = s.restrict(wanted)
        keep = [i for i, mid in enumerate(ids) if mid in wanted]
        assert sub.media_ids == tuple(ids[i] for i in keep)
        assert sub.vectors.dtype == dtype
        assert sub.vectors.tobytes() == s.vectors[keep].tobytes()
        assert not sub.vectors.flags.writeable
        assert not np.shares_memory(sub.vectors, s.vectors)

    def test_caller_writable_array_copied(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        s = make_set(["a", "b"], vectors)
        vectors[0, 0] = 5.0
        assert s.vectors[0, 0] == 1.0

    def test_read_only_view_of_writable_base_copied(self):
        base = np.array([[1.0, 0.0], [0.0, 1.0]])
        view = base[:]
        view.setflags(write=False)
        s = make_set(["a", "b"], view, dtype=np.float64)
        base[0, 0] = 5.0
        assert s.vectors[0, 0] == 1.0
        assert not np.shares_memory(s.vectors, base)

    def test_read_only_owned_arrays_adopted(self):
        owned = np.array([[1.0, 0.0], [0.0, 1.0]])
        owned.setflags(write=False)
        assert make_set(["a", "b"], owned, dtype=np.float64).vectors is owned
        # an array over bytes does not own its data, so it is copied
        from_bytes = np.frombuffer(np.ones(4, "<f4").tobytes(), "<f4").reshape(2, 2)
        copied = make_set(["a", "b"], from_bytes).vectors
        assert copied is not from_bytes and not np.shares_memory(copied, from_bytes)
        assert np.array_equal(copied, from_bytes)
        # a dtype the set does not keep is converted, so copied
        assert make_set(["a", "b"], owned).vectors.dtype == np.float32


class TestRowNorms:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 3])
    def test_bits_of_linalg_norm_across_chunks(self, dtype, extra):
        n = 2 * _ROW_CHUNK + extra
        rng = np.random.default_rng(n)
        rows = (rng.standard_normal((n, 67)) * 10.0 ** rng.integers(-3, 4, (n, 1)))
        rows = rows.astype(dtype)
        want = np.linalg.norm(rows.astype(np.float64), axis=1)
        assert row_norms(rows).tobytes() == want.tobytes()

    def test_empty(self):
        assert row_norms(np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("n", [0, 1, 2, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1,
                                   2 * _ROW_CHUNK + 1, 3 * _ROW_CHUNK + 2, 50_000])
    def test_row_chunks_near_equal(self, n):
        chunks = row_chunks(n)
        if n == 0:
            assert chunks == []
            return
        count = -(-n // _ROW_CHUNK)
        # the bounds fit residuals were taken at before the helper held them
        bounds = [n * k // count for k in range(count + 1)]
        assert [c.start for c in chunks] + [chunks[-1].stop] == bounds
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        sizes = [c.stop - c.start for c in chunks]
        assert all(0 < size <= _ROW_CHUNK for size in sizes)
        assert max(sizes) - min(sizes) <= 1

    def test_linalg_norm_only_in_row_norms(self):
        # a row norm over a whole n x d array allocates two more n x d
        # arrays, so the library's row norms all go through row_norms
        package = Path(embalign.__file__).parent
        allowed = inspect.getsource(row_norms)
        for path in package.glob("*.py"):
            text = path.read_text()
            if path.name == "store.py":
                text = text.replace(allowed, "")
            assert "np.linalg.norm(" not in text, path.name

    @pytest.mark.parametrize("n", [4097, 5000])
    def test_memory_within_the_longest_chunk(self, n):
        # the rows are squared one _GATHER_BLOCK block at a time, so the
        # scratch is one block's float64 copy, whatever the chunk length
        dim = 512
        rows = np.random.default_rng(n).standard_normal((n, dim), dtype=np.float32)
        peak = traced_peak(lambda: row_norms(rows))
        assert peak <= store._GATHER_BLOCK * dim * 8 + n * 8 + (1 << 20)

    def test_unit_rows_divide_by_linalg_norm_and_zero_degenerate_rows(self):
        n = 2 * store._GATHER_BLOCK + 7
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((n, 67)) * 10.0 ** rng.integers(-3, 4, (n, 1))
        rows[[0, 600]] = 0.0
        rows[[3, n - 1]] *= 1e-16  # below DEGENERATE_NORM, negative entries included
        rows[5] = [store.DEGENERATE_NORM] + [0.0] * 66  # at the threshold: kept
        norms = np.linalg.norm(rows, axis=1)
        want = norms >= store.DEGENERATE_NORM
        with np.errstate(invalid="ignore"):
            unit = rows / norms[:, None]
        keep = unit_rows(rows)
        assert keep.dtype == bool and np.array_equal(keep, want)
        assert np.flatnonzero(~keep).tolist() == [0, 3, 600, n - 1]
        assert rows[keep].tobytes() == unit[keep].tobytes()
        assert rows[~keep].tobytes() == np.zeros((4, 67)).tobytes()  # +0.0, not -0.0


class TestFloatChunks:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", [None, "permuted", "repeated"])
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193, 12291])
    def test_gathers_the_rows_as_float64(self, n, order, dtype):
        rng = np.random.default_rng(n)
        vectors = rng.standard_normal((n, 5)).astype(dtype)
        index = {None: None, "permuted": rng.permutation(n),
                 "repeated": rng.integers(0, max(n, 1), size=n)}[order]
        want = (vectors if index is None else vectors[index]).astype(np.float64)
        slices, parts, first = [], [], None
        for rows, chunk in float_chunks(vectors, index):
            first = chunk if first is None else first
            assert chunk.dtype == np.float64
            assert np.shares_memory(chunk, first)
            slices.append(rows)
            parts.append(chunk.copy())
        assert slices == row_chunks(n)
        got = np.concatenate(parts) if parts else np.empty((0, 5))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sizes", [
        [1] * 10_000, [1] * 4096, [3] * 3000, [0, 2, 0] * 1500,
        [5000, 1, 1, 4095, 2, 4096, 4097], [],
    ], ids=["one-row", "one-chunk", "three-row", "empty groups", "large groups", "none"])
    def test_group_chunks_hold_whole_groups(self, sizes):
        # a chunk is gathered in one block: at most _GATHER_BLOCK rows, or
        # one longer group on its own
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        chunks = group_chunks(starts)
        assert [g for c in chunks for g in range(c.start, c.stop)] == list(range(len(sizes)))
        limit = store._GATHER_BLOCK
        for c in chunks:
            # within the limit or one longer group, and the next group
            # would not have fitted
            assert starts[c.stop] - starts[c.start] <= limit or c.stop - c.start == 1
            if c.stop < len(sizes):
                assert starts[c.stop + 1] - starts[c.start] > limit
        if set(sizes) == {1}:
            assert max(c.stop - c.start for c in chunks) == limit

    @staticmethod
    def _chunk_list(kind: str) -> list[slice]:
        """Row slices as a caller passes them: template chunks of whole
        groups (some empty, one longer than a block), one-row chunks, or
        empty chunks between others, the longest first."""
        if kind == "groups":
            sizes = np.random.default_rng(3).integers(0, 7, 600)
            sizes[100] = 700
            starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
            return [slice(int(starts[g.start]), int(starts[g.stop]))
                    for g in group_chunks(starts)]
        if kind == "one-row":
            return [slice(i, i + 1) for i in range(300)]
        bounds = [0, 1100, 1100, 1101, 1400, 1400, 1401, 1900, 1900]
        return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    @pytest.mark.parametrize("source", ["array", "file"])
    @pytest.mark.parametrize("order", [None, "permuted", "repeated"])
    @pytest.mark.parametrize("kind", ["groups", "one-row", "empty and longest first"])
    def test_gathers_each_given_chunk(self, tmp_path, kind, order, source):
        chunks = self._chunk_list(kind)
        n = chunks[-1].stop
        rng = np.random.default_rng(n)
        want = rng.standard_normal((n, 5)).astype(np.float32)
        vectors = want
        if source == "file":
            save_embeddings(make_set([f"r{i}" for i in range(n)], want), tmp_path / "s.cfeb")
            vectors = load_embeddings(tmp_path / "s.cfeb").vectors
        index = {None: None, "permuted": rng.permutation(n),
                 "repeated": rng.integers(0, n, n)}[order]
        seen, buffers = [], []
        for rows, chunk in float_chunks(vectors, index, chunks):
            picked = want[rows] if index is None else want[index[rows]]
            assert chunk.tobytes() == picked.astype(np.float64).tobytes()
            seen.append(rows)
            buffers.append(chunk.base)
        assert seen == chunks
        # one buffer, as long as the longest chunk, serves every chunk
        longest = max(rows.stop - rows.start for rows in chunks)
        assert all(buffer is buffers[0] for buffer in buffers)
        assert buffers[0].shape == (longest, 5)

    @pytest.mark.parametrize("n", [0, 1, _PAIR_CHUNK - 1, _PAIR_CHUNK, _PAIR_CHUNK + 1,
                                   10 * _PAIR_CHUNK + 3])
    def test_pair_chunks_cover_the_pairs(self, n):
        pieces = list(pair_chunks(n))
        assert [i for piece in pieces for i in range(piece.start, piece.stop)] == list(range(n))
        assert all(0 < piece.stop - piece.start <= _PAIR_CHUNK for piece in pieces)
        assert all(piece.stop - piece.start == _PAIR_CHUNK for piece in pieces[:-1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_all_finite_finds_a_value_in_any_chunk(self, dtype, bad):
        n = 2 * _ROW_CHUNK + 5
        rows = np.random.default_rng(7).standard_normal((n, 3)).astype(dtype)
        assert all_finite(rows) and all_finite(rows[:0])
        for row in (0, _ROW_CHUNK + 1, n - 1):
            damaged = rows.copy()
            damaged[row, 2] = bad
            assert not all_finite(damaged)

    def test_all_finite_memory_within_one_chunk(self):
        n, dim = 4 * _ROW_CHUNK, 256
        rows = np.ones((n, dim), dtype=np.float32)
        peak = traced_peak(lambda: all_finite(rows))
        assert peak <= _ROW_CHUNK * dim + (64 << 10)  # one chunk's bool mask

    def test_row_chunks_only_in_store(self):
        # every other module reads its rows through float_chunks and takes
        # its chunks, pieces and tiles from store's rules: it defines and
        # reads no _*_CHUNK, _*_BLOCK or _*_BUDGET size, cuts no near-equal
        # slices, and cuts no slices of its own by a fixed step or a count
        package = Path(embalign.__file__).parent
        sizes = r"_\w*_(CHUNK|BLOCK|BUDGET)"
        for path in package.glob("*.py"):
            if path.name == "store.py":
                continue
            text = path.read_text()
            assert "row_chunks(" not in text and "_near_equal(" not in text, path.name
            tree = ast.parse(text)
            names = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
            names += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
            names += [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                      for alias in node.names]
            assert not [name for name in names if re.fullmatch(sizes, name)], path.name
            calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
            steps = [ast.unparse(node) for node in calls
                     if ast.unparse(node.func) == "range" and len(node.args) == 3]
            cuts = [ast.unparse(node) for node in calls if ast.unparse(node.func) == "slice"
                    and any(isinstance(op, ast.FloorDiv) for op in ast.walk(node))]
            assert not steps and not cuts, (path.name, steps, cuts)

    @pytest.mark.parametrize("dim", [1, 6, 512])
    def test_template_tiles(self, monkeypatch, dim):
        # near-equal tiles of whole templates within the budget's bytes of
        # float64 rows; a row larger than the budget is a tile of its own
        budget = 10 * 8 * dim
        monkeypatch.setattr(store, "_TILE_BUDGET", budget)
        assert store.template_tiles(0, dim) == [slice(0, 0)]
        assert store.template_tiles(10, dim) == [slice(0, 10)]
        assert store.template_tiles(11, dim) == [slice(0, 5), slice(5, 11)]
        assert store.template_tiles(23, dim) == [slice(0, 7), slice(7, 15), slice(15, 23)]
        for n in (1, 9, 10, 11, 19, 20, 21, 99, 1000):
            tiles = store.template_tiles(n, dim)
            sizes = [tile.stop - tile.start for tile in tiles]
            assert [tile.start for tile in tiles[1:]] == [tile.stop for tile in tiles[:-1]]
            assert (tiles[0].start, tiles[-1].stop) == (0, n)
            assert len(tiles) == -(-n // 10) and max(sizes) - min(sizes) <= 1
            assert max(sizes) * 8 * dim <= budget
        monkeypatch.setattr(store, "_TILE_BUDGET", 8 * dim - 1)
        assert store.template_tiles(3, dim) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_one_fixed_stride_rule(self):
        # store cuts slices by a fixed step in one place, store.strides
        text = (Path(embalign.__file__).parent / "store.py").read_text()
        steps = [(func.name, ast.unparse(node)) for func in ast.walk(ast.parse(text))
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)
                 if isinstance(node, ast.Call) and ast.unparse(node.func) == "range"
                 and len(node.args) == 3]
        assert steps == [("strides", "range(0, n, step)")]
        assert [list(store.strides(n, 4)) for n in (0, 3, 8, 9)] == [
            [], [slice(0, 3)], [slice(0, 4), slice(4, 8)],
            [slice(0, 4), slice(4, 8), slice(8, 9)]]

    def test_degenerate_norm_only_in_store_and_template_lengths(self):
        # rows are normalized by store.unit_rows alone; verification
        # compares only its template lengths with the threshold
        package = Path(embalign.__file__).parent
        compares = []
        for path in package.glob("*.py"):
            text = path.read_text()
            compares += [(path.name, ast.unparse(node)) for node in ast.walk(ast.parse(text))
                         if isinstance(node, ast.Compare) and "DEGENERATE_NORM" in ast.unparse(node)]
            if path.name not in ("store.py", "verification.py"):
                assert "DEGENERATE_NORM" not in text, path.name
        assert sorted(compares) == [("store.py", "norms >= DEGENERATE_NORM"),
                                    ("verification.py", "lengths >= DEGENERATE_NORM")]

    def test_one_float_reader_and_one_unit_length_rule(self):
        # rows are read as float64 by store.float_chunks alone, and only
        # store takes row norms or compares them with UNIT_NORM_TOL
        package = Path(embalign.__file__).parent
        for path in package.glob("*.py"):
            text = path.read_text()
            defined = {node.name for node in ast.walk(ast.parse(text))
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            assert not defined & {"_gathered", "float_groups"}, path.name
            if path.name != "store.py":
                assert "row_norms(" not in text and "UNIT_NORM_TOL" not in text, path.name

    def test_aligned_rows_only_in_store_and_shared_fits(self):
        # every fit of two sets aligns them in mapping._shared_fits
        package = Path(embalign.__file__).parent
        for path in package.glob("*.py"):
            text = path.read_text()
            if path.name == "mapping.py":
                shared = next(node for node in ast.parse(text).body
                              if getattr(node, "name", None) == "_shared_fits")
                assert text.count("aligned_rows(") == 1
                assert "aligned_rows(" in ast.get_source_segment(text, shared)
            elif path.name != "store.py":
                assert "aligned_rows(" not in text, path.name

    def test_cfeb_parsing_and_positioned_reads_only_in_store(self):
        # .cfeb records are parsed, and a loaded set's rows read, in store
        package = Path(embalign.__file__).parent
        names = ("CFEB", "_READ_WINDOW", "peek_into", "readinto", "pread", "FileRows(")
        for path in package.glob("*.py"):
            if path.name != "store.py":
                text = path.read_text()
                assert [name for name in names if name in text] == [], path.name


class TestReadme:
    def test_named_module_attributes_exist(self):
        # a helper that is deleted or renamed cannot stay documented
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        named = set(re.findall(r"`(store|mapping|verification|experiments)\.(\w+)", readme))
        assert named
        missing = [f"{module}.{name}" for module, name in sorted(named)
                   if not hasattr(importlib.import_module(f"embalign.{module}"), name)]
        assert missing == []


class TestEmbeddingFile:
    def test_single_row_round_trip(self, tmp_path):
        path = tmp_path / "one.cfeb"
        s = make_set(["a"], [[1.0, 0.0]])
        save_embeddings(s, path)
        loaded = load_embeddings(path)
        assert loaded.model_id == "m"
        assert loaded.media_ids == ("a",)
        assert loaded.dim == 2
        assert np.array_equal(loaded.vectors, np.array([[1.0, 0.0]], dtype=np.float32))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        s = make_set(
            [f"id{i:03d}" for i in range(50)],
            rng.standard_normal((50, 7)).astype(np.float32),
        )
        path = tmp_path / "x.cfeb"
        save_embeddings(s, path)
        loaded = load_embeddings(path)
        assert loaded.media_ids == s.media_ids
        assert np.asarray(loaded.vectors).tobytes() == s.vectors.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_save_has_the_bytes_of_the_format(self, tmp_path, dtype):
        n, dim = 2 * _ROW_CHUNK + 1, 3
        ids = [f"r{i}" for i in range(n)]
        vectors = np.random.default_rng(1).standard_normal((n, dim)).astype(dtype)
        path = tmp_path / "many.cfeb"
        save_embeddings(make_set(ids, vectors, model_id="mod", dtype=dtype), path)
        want = b"CFEB" + struct.pack("<HIQ", 1, dim, n)
        for media_id, row in zip(ids, vectors.astype("<f4")):
            want += struct.pack("<H", len(media_id)) + media_id.encode() + row.tobytes()
        want += struct.pack("<H", 3) + b"mod"
        assert path.read_bytes() == want

    @pytest.mark.parametrize("long_id", ["media", "model"])
    def test_refused_save_leaves_no_file(self, tmp_path, long_id):
        n = _ROW_CHUNK + 1
        ids = [f"r{i}" for i in range(n)]
        if long_id == "media":
            ids[-1] = "x" * 0x10000  # past the first records written
        model_id = "x" * 0x10000 if long_id == "model" else "m"
        path = tmp_path / "refused.cfeb"
        with pytest.raises(DataError, match=f"{long_id} id too long"):
            save_embeddings(make_set(ids, np.ones((n, 2)), model_id=model_id), path)
        assert not path.exists()

    @pytest.mark.parametrize("refused", ["media", "model", "map"])
    def test_refused_save_keeps_the_previous_file(self, tmp_path, refused):
        path = tmp_path / "kept"
        if refused == "map":
            save_map(identity_map(2), path)
            mapping = MappingMatrix("identity", "x" * 0x10000, "B", np.eye(2), 0)
            save = lambda: save_map(mapping, path)  # noqa: E731
        else:
            save_embeddings(make_set(["a"], [[1.0, 2.0]]), path)
            n = _ROW_CHUNK + 1
            ids = [f"r{i}" for i in range(n)]
            if refused == "media":
                ids[-1] = "x" * 0x10000  # past the first records written
            model_id = "x" * 0x10000 if refused == "model" else "m"
            refused_set = make_set(ids, np.ones((n, 2)), model_id=model_id)
            save = lambda: save_embeddings(refused_set, path)  # noqa: E731
        before = path.read_bytes()
        with pytest.raises(DataError, match="id too long"):
            save()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["kept"]

    def test_save_memory_does_not_grow_with_the_set(self, tmp_path):
        peaks = []
        for chunks in (3, 12):
            n = chunks * _ROW_CHUNK
            s = make_set([f"media{i:06d}" for i in range(n)],
                         np.random.default_rng(n).standard_normal((n, 64)))
            peaks.append(traced_peak(lambda: save_embeddings(s, tmp_path / "big.cfeb")))
        # one chunk's records are about 1.1 MB; the whole 12-chunk file is 13 MB
        assert peaks[1] <= peaks[0] + (64 << 10), peaks

    def test_load_memory_within_the_vectors(self, tmp_path):
        # a load holds the media ids and one int64 offset per record (twice
        # while its array grows), beside one read window, that window's
        # vectors staged for the finiteness check and their mask: 3.9 MB.
        # Keeping the vectors (61 MB) took 1.10x them.
        n, dim = 15_000, 1024
        rng = np.random.default_rng(2)
        s = make_set([f"m{i:05d}" for i in range(n)],
                     rng.standard_normal((n, dim), dtype=np.float32))
        path = tmp_path / "big.cfeb"
        save_embeddings(s, path)
        del s
        peak = traced_peak(lambda: load_embeddings(path))
        ids = n * (sys.getsizeof("m00000") + 2 * 8)  # the strings, a list and a tuple
        window = 2 * store._READ_WINDOW + store._READ_WINDOW // 4
        assert peak <= ids + 2 * n * 8 + window + (1 << 20)

    @pytest.mark.parametrize("dim", [3, 70_000])
    def test_window_size_changes_nothing(self, tmp_path, monkeypatch, dim):
        # records across window ends, and (at dim 70,000) records longer
        # than the window, read through the checked fields: every load,
        # damaged or not, ends as it does with the whole file in one window
        rng = np.random.default_rng(dim)
        ids = [f"media-{i}" * (1 + i % 5) for i in range(6)]
        path = tmp_path / "w.cfeb"
        save_embeddings(make_set(ids, rng.standard_normal((6, dim))), path)
        raw = path.read_bytes()
        step = max(1, len(raw) // 200)
        damaged = [raw[:cut] for cut in range(0, len(raw), step)]
        damaged += [raw[:k] + b"\xff" + raw[k + 1:] for k in range(18, len(raw), step)]
        damaged.append(raw)

        def outcome(data):
            path.write_bytes(data)
            try:
                loaded = load_embeddings(path)
            except EmbAlignError as exc:
                return type(exc), str(exc)
            return loaded.model_id, loaded.media_ids, np.asarray(loaded.vectors).tobytes()

        whole = [outcome(data) for data in damaged]
        monkeypatch.setattr(store, "_READ_WINDOW", 97)
        assert [outcome(data) for data in damaged] == whole
        assert whole[-1][1] == tuple(ids)

    def test_loaded_vectors_read_only(self, tmp_path):
        path = tmp_path / "e.cfeb"
        save_embeddings(make_set(["a", "b"], [[1.0, 0.0], [0.0, 1.0]]), path)
        vectors = np.asarray(load_embeddings(path).vectors)
        assert not vectors.flags.writeable
        with pytest.raises(ValueError):
            vectors[0, 0] = 5.0

    def test_empty_set(self, tmp_path):
        path = tmp_path / "empty.cfeb"
        s = make_set([], np.zeros((0, 4), dtype=np.float32))
        save_embeddings(s, path)
        loaded = load_embeddings(path)
        assert len(loaded) == 0
        assert loaded.dim == 4

    def test_row_order_preserved(self, tmp_path):
        s = make_set(["z", "a", "m"], [[1, 0], [0, 1], [1, 1]])
        path = tmp_path / "ord.cfeb"
        save_embeddings(s, path)
        assert load_embeddings(path).media_ids == ("z", "a", "m")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cfeb"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FileFormatError):
            load_embeddings(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.cfeb"
        path.write_bytes(b"CFEB" + struct.pack("<H", 9) + b"\x00" * 12)
        with pytest.raises(FileFormatError):
            load_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        # header declares 3 records but only 2 are present
        path = tmp_path / "trunc.cfeb"
        s = make_set(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        save_embeddings(s, path)
        raw = bytearray(path.read_bytes())
        raw[10:18] = struct.pack("<Q", 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncationError):
            load_embeddings(path)

    @pytest.mark.parametrize("count", [2**36, 2**62])
    def test_forged_count_rejected_before_allocating(self, tmp_path, count):
        # 20 bytes declaring `count` records of dimension 512: far more
        # than the file holds, and more memory than numpy can allocate
        path = tmp_path / "forged.cfeb"
        path.write_bytes(b"CFEB" + struct.pack("<HIQ", 1, 512, count) + b"\x00\x00")
        assert path.stat().st_size == 20
        with pytest.raises(TruncationError):
            load_embeddings(path)

    def test_one_record_short_past_the_header_check(self, tmp_path):
        # long ids make the short file still pass the header's size bound,
        # so the record scan is what finds the missing record
        path = tmp_path / "short.cfeb"
        s = make_set(["a" * 60, "b" * 60], [[1.0, 0.0], [0.0, 1.0]])
        save_embeddings(s, path)
        raw = bytearray(path.read_bytes())
        raw[10:18] = struct.pack("<Q", 3)
        path.write_bytes(bytes(raw))
        assert 3 * (2 + 4 * 2) <= len(raw) - 18
        with pytest.raises(TruncationError):
            load_embeddings(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "extra.cfeb"
        s = make_set(["a"], [[1.0, 0.0]])
        save_embeddings(s, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FileFormatError):
            load_embeddings(path)

    def test_non_finite_in_file(self, tmp_path):
        path = tmp_path / "nan.cfeb"
        s = make_set(["a"], [[1.0, 0.0]])
        save_embeddings(s, path)
        raw = bytearray(path.read_bytes())
        # overwrite the first float32 payload value with NaN
        offset = 4 + 2 + 4 + 8 + 2 + 1
        raw[offset : offset + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_embeddings(path)

    def test_nan_rejected_before_writing(self, tmp_path):
        with pytest.raises(DataError):
            make_set(["a"], [[float("nan"), 0.0]])

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(0, 12),
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip_property(self, tmp_path_factory, n, dim, seed):
        rng = np.random.default_rng(seed)
        s = make_set(
            [f"u{i}" for i in range(n)],
            (rng.standard_normal((n, dim)) * 10).astype(np.float32),
            model_id=f"model-{seed}",
        )
        path = tmp_path_factory.mktemp("rt") / "s.cfeb"
        save_embeddings(s, path)
        loaded = load_embeddings(path)
        assert loaded.model_id == s.model_id
        assert loaded.media_ids == s.media_ids
        assert np.asarray(loaded.vectors).tobytes() == s.vectors.tobytes()

    def test_enrollment_scale_file(self, tmp_path):
        # 11,856 x 512 payload: the enrollment-set shape used for fitting
        rng = np.random.default_rng(1)
        n, dim = 11856, 512
        vectors = rng.standard_normal((n, dim)).astype(np.float32)
        s = make_set([f"e{i:05d}" for i in range(n)], vectors)
        path = tmp_path / "big.cfeb"
        save_embeddings(s, path)
        id_bytes = sum(2 + len(f"e{i:05d}") for i in range(n))
        expected = 4 + 2 + 4 + 8 + id_bytes + n * dim * 4 + 2 + 1
        assert path.stat().st_size == expected
        loaded = load_embeddings(path)
        assert len(loaded) == n
        assert np.asarray(loaded.vectors).tobytes() == vectors.tobytes()


def cfeb_bytes(ids, vectors, model_id: str) -> bytes:
    """The .cfeb file of ``ids`` and float32 ``vectors``, written by hand,
    so that non-finite values and repeated ids can be stored."""
    out = b"CFEB" + struct.pack("<HIQ", 1, vectors.shape[1], len(ids))
    for media_id, row in zip(ids, vectors.astype("<f4")):
        out += struct.pack("<H", len(media_id.encode())) + media_id.encode() + row.tobytes()
    return out + struct.pack("<H", len(model_id.encode())) + model_id.encode()


def load_outcome(load, path):
    """The set ``load(path)`` gives, or the type and message it raises."""
    try:
        return load(path)
    except EmbAlignError as exc:
        return type(exc), str(exc)


# variable-length ids of one- to four-byte UTF-8 characters, the empty id
# (so ids repeat) included
_utf8_id = st.text(alphabet="aZ9\u00e9\u540d\U0001F600", max_size=9)


@st.composite
def _cfeb_reads(draw):
    """(file bytes, read window): a file of 0 to 7 records, possibly with a
    non-finite value, cut short, with a byte flipped or with a byte added."""
    dim = draw(st.integers(0, 9))
    ids = draw(st.lists(_utf8_id, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.standard_normal((len(ids), dim)).astype("<f4")
    if vectors.size and draw(st.booleans()):
        vectors.reshape(-1)[draw(st.integers(0, vectors.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    raw = cfeb_bytes(ids, vectors, draw(_utf8_id))
    damage = draw(st.sampled_from(["none", "cut", "flip", "extra"]))
    at = draw(st.integers(0, len(raw) - 1))
    if damage == "cut":
        raw = raw[:at]
    elif damage == "flip":
        raw = raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1:]
    elif damage == "extra":
        raw += b"\x00"
    # windows shorter than a record read it through the checked fields
    return raw, draw(st.sampled_from([1, 7, 16, 40, 97, store._READ_WINDOW]))


class TestFileRows:
    """A loaded set reads its rows from the file; the eager loader of
    reference_eval is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(case=_cfeb_reads(), data=st.data())
    def test_every_read_matches_the_eager_load(self, tmp_path_factory, case, data):
        raw, window = case
        path = tmp_path_factory.mktemp("rows") / "s.cfeb"
        path.write_bytes(raw)
        want = load_outcome(reference.load_embeddings, path)
        with mock.patch.object(store, "_READ_WINDOW", window):
            got = load_outcome(load_embeddings, path)
            if isinstance(want, tuple):
                assert got == want
                return
            assert (got.model_id, got.media_ids) == (want.model_id, want.media_ids)
            rows, oracle = got.vectors, want.vectors
            assert (rows.shape, rows.dtype, len(rows)) == (oracle.shape, oracle.dtype, len(oracle))
            assert np.asarray(rows).tobytes() == oracle.tobytes()
            n = len(rows)
            for i in range(-n, n):
                assert rows[i].tobytes() == oracle[i].tobytes()
            keys = data.draw(st.lists(st.slices(n), max_size=4))
            keys.append(np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                                 dtype=bool))
            if n:
                keys.append(np.array(data.draw(st.lists(st.integers(-n, n - 1), max_size=12)),
                                     dtype=np.intp))
            # keys numpy refuses, and 2-D keys, which FileRows refuses
            outside = st.one_of(st.integers(n, n + 3), st.integers(-n - 3, -n - 1))
            keys += [
                data.draw(outside),
                data.draw(st.lists(st.one_of(st.integers(-n, n - 1), outside) if n else outside,
                                   min_size=1, max_size=4)),
                np.array(data.draw(st.lists(st.booleans(), max_size=n + 2).filter(
                    lambda mask: len(mask) != n)), dtype=bool),
                data.draw(st.floats(-n, n)),
                np.array(data.draw(st.lists(st.floats(-n, n), max_size=3)), dtype=float),
                np.zeros((data.draw(st.integers(0, 2)), 2), dtype=np.intp),
            ]
            for key in keys:
                # a damaged header can claim a dimension of 2**30 over no
                # records, and numpy allocates a fancy index's result before
                # it checks the index; so numpy's first-axis rules are asked
                # of the row numbers, and the oracle's rows read once they hold
                try:
                    np.arange(n)[key]
                    want = oracle[key]
                except IndexError:
                    with pytest.raises(IndexError):
                        rows[key]
                    continue
                if want.ndim > 2:
                    for pick in (rows.__getitem__, rows.records):
                        with pytest.raises(IndexError, match="picks them along one axis"):
                            pick(key)
                else:
                    assert rows[key].tobytes() == want.tobytes(), key
                    # a key's records read as its rows do, as a reader of their own
                    assert np.asarray(rows.records(key)).tobytes() == want.tobytes(), key

    def test_ascending_reads_take_one_window_each(self, tmp_path):
        # 3,000 records of 71 bytes (a 5-byte id and 16 floats): the vectors
        # within a 4,096-byte window of a record's vector are 57 records, so
        # reading every row takes ceil(3000 / 57) = 53 reads, in any order
        # asked; every other record is one run, read through the record
        # between two, and every third record is a run of its own
        n = 3000
        vectors = np.random.default_rng(3).standard_normal((n, 16), dtype=np.float32)
        path = tmp_path / "w.cfeb"
        save_embeddings(make_set([f"r{i:04d}" for i in range(n)], vectors), path)
        rows = load_embeddings(path).vectors
        with mock.patch.object(os, "preadv", wraps=os.preadv) as preadv:
            every_third = np.arange(n) % 3 == 0
            assert rows[every_third].tobytes() == vectors[every_third].tobytes()
            assert preadv.call_count == 1000
            assert {len(call.args[1][0]) for call in preadv.call_args_list} == {64}
            preadv.reset_mock()
            every_other = np.arange(n) % 2 == 0
            assert rows[every_other].tobytes() == vectors[every_other].tobytes()
            assert preadv.call_count == 1
            assert len(preadv.call_args.args[1][0]) == 2998 * 71 + 64
            preadv.reset_mock()
            assert rows[:1500].tobytes() == vectors[:1500].tobytes()
            assert preadv.call_count == 1
            with mock.patch.object(store, "_READ_WINDOW", 4096):
                for key in (slice(None), np.random.default_rng(4).permutation(n)):
                    preadv.reset_mock()
                    assert rows[key].tobytes() == vectors[key].tobytes()
                    assert preadv.call_count == 53

    def test_file_cut_after_the_load_names_the_record(self, tmp_path):
        # records of 16 bytes after an 18-byte header; record 6's vector
        # starts at 18 + 6 * 16 + 4 = 118, and the file is cut 5 bytes in
        vectors = np.arange(30, dtype=np.float32).reshape(10, 3)
        path = tmp_path / "cut.cfeb"
        save_embeddings(make_set([f"r{i}" for i in range(10)], vectors), path)
        rows = load_embeddings(path).vectors
        with open(path, "r+b") as f:
            f.truncate(123)
        assert rows[:6].tobytes() == vectors[:6].tobytes()
        message = re.escape(f"{path}: file ends inside record 6 vector "
                            f"(need 12 bytes at offset 118)")
        for key in (slice(None), [9, 6, 0], 6):
            with pytest.raises(TruncationError, match=message):
                rows[key]
            # a reader of some records numbers them as the file does
            with pytest.raises(TruncationError, match=message):
                np.asarray(rows.records(key))
        with pytest.raises(TruncationError, match=message):
            np.asarray(rows)

    def test_unlinked_file_still_reads(self, tmp_path):
        vectors = np.random.default_rng(5).standard_normal((40, 3), dtype=np.float32)
        path = tmp_path / "gone.cfeb"
        save_embeddings(make_set([f"r{i}" for i in range(40)], vectors), path)
        loaded = load_embeddings(path)
        path.unlink()
        assert np.asarray(loaded.vectors).tobytes() == vectors.tobytes()
        kept = loaded.restrict({"r3", "r17"}).vectors
        assert np.asarray(kept).tobytes() == vectors[[3, 17]].tobytes()

    def test_restrict_reads_nothing_and_gives_the_eager_rows(self, tmp_path):
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((300, 5), dtype=np.float32)
        ids = [f"r{i:03d}" for i in range(300)]
        path = tmp_path / "v.cfeb"
        save_embeddings(make_set(ids, vectors), path)
        loaded = load_embeddings(path)
        kept = set(rng.choice(ids, 120, replace=False).tolist())
        with mock.patch.object(os, "preadv", wraps=os.preadv) as preadv:
            subset = loaded.restrict(kept)
            inner = subset.restrict(sorted(kept)[::3])
            assert preadv.call_count == 0
        eager = reference.load_embeddings(path)
        for got in (subset, inner):
            want = eager.restrict(got.media_ids)
            assert isinstance(got.vectors, store.FileRows)
            assert got.media_ids == want.media_ids
            assert np.asarray(got.vectors).tobytes() == want.vectors.tobytes()
            assert got.vectors[::-2].tobytes() == want.vectors[::-2].tobytes()

    @pytest.mark.skipif(not Path("/proc/self/fd").exists(),
                        reason="counts the process's descriptors in /proc")
    def test_restricted_view_outlives_its_set_and_leaks_no_descriptor(self, tmp_path):
        vectors = np.random.default_rng(9).standard_normal((50, 4), dtype=np.float32)
        path = tmp_path / "o.cfeb"
        save_embeddings(make_set([f"r{i:02d}" for i in range(50)], vectors), path)
        before = len(os.listdir("/proc/self/fd"))
        loaded = load_embeddings(path)
        views = [loaded.restrict({f"r{i:02d}" for i in range(k, 50, 7)}) for k in range(7)]
        del loaded
        gc.collect()
        for k, view in enumerate(views):
            assert np.asarray(view.vectors).tobytes() == vectors[k::7].tobytes()
        assert len(os.listdir("/proc/self/fd")) == before + 7
        del view, views
        assert len(os.listdir("/proc/self/fd")) == before

    def test_refuses_to_be_copied(self, tmp_path):
        # a copy would keep the descriptor that the reader closes
        path = tmp_path / "c.cfeb"
        save_embeddings(make_set(["a"], [[1.0, 0.0]]), path)
        loaded = load_embeddings(path)
        for copier in (copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError, match="np.asarray gives them as an array"):
                copier(loaded)

    def test_descriptor_closed_when_collected(self, tmp_path):
        path = tmp_path / "fd.cfeb"
        save_embeddings(make_set(["a", "b"], [[1.0, 0.0], [0.0, 1.0]]), path)
        src = Path(embalign.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", DESCRIPTOR_GATE, str(path)],
                              env=os.environ | {"PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout == "500\n"


# 500 loads, each set dropped after one read, with at most 64 descriptors
DESCRIPTOR_GATE = """
import resource, sys
from embalign import load_embeddings

_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
loads = 0
for _ in range(500):
    loaded = load_embeddings(sys.argv[1])
    assert loaded.vectors[1].tolist() == [0.0, 1.0]
    del loaded
    loads += 1
print(loads)
"""


class TestManifest:
    def test_video_sharing_template_ok(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "media_id,subject_id,template_id,video_id\n"
            "a,s1,t1,v1\n"
            "b,s1,t1,v1\n"
        )
        manifest = reference.decoded(load_manifest(path))
        assert manifest.template_media["t1"] == ("a", "b")
        assert manifest.by_media["a"].video_id == "v1"

    def test_template_two_subjects_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "media_id,subject_id,template_id,video_id\n"
            "a,s1,t1,\n"
            "b,s2,t1,\n"
        )
        with pytest.raises(ConsistencyError):
            load_manifest(path)

    def test_video_two_templates_rejected(self):
        with pytest.raises(ConsistencyError):
            MediaManifest(
                [
                    MediaEntry("a", "s1", "t1", "v1"),
                    MediaEntry("b", "s1", "t2", "v1"),
                ]
            )

    def test_duplicate_media_rejected(self):
        with pytest.raises(DataError):
            MediaManifest(
                [MediaEntry("a", "s1", "t1"), MediaEntry("a", "s1", "t1")]
            )

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("media,subject\nx,y\n")
        with pytest.raises(FileFormatError):
            load_manifest(path)

    @pytest.mark.parametrize("which", ["manifest", "pairs"])
    def test_csv_parse_error_names_line(self, tmp_path, which):
        # a field over the csv module's 131,072-character limit
        path = tmp_path / f"{which}.csv"
        header, row = {
            "manifest": ("media_id,subject_id,template_id,video_id", "a,s1,t1,"),
            "pairs": ("template_id_a,template_id_b", "t1,t2"),
        }[which]
        path.write_text(f"{header}\n{row}\n{'x' * 200_000},t3\n")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}:3: field larger")):
            {"manifest": load_manifest, "pairs": load_pairs}[which](path)

    @pytest.mark.parametrize("line", [1, 2, 300, 1000])
    @pytest.mark.parametrize("which", ["manifest", "pairs"])
    def test_non_utf8_names_line(self, tmp_path, which, line):
        # 1,000 lines of over 20 bytes, so the bad byte may lie past the
        # first chunks the text decoder reads
        path = tmp_path / f"{which}.csv"
        header, row = {
            "manifest": ("media_id,subject_id,template_id,video_id", "m{0:05d},s1,t{0:05d},"),
            "pairs": ("template_id_a,template_id_b", "t{0:05d},t{1:05d}"),
        }[which]
        lines = [header.encode()] + [row.format(i, i + 1).encode() for i in range(999)]
        lines[line - 1] = b"\xff" + lines[line - 1]
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}:{line}: not UTF-8")):
            {"manifest": load_manifest, "pairs": load_pairs}[which](path)

    def test_round_trip(self, tmp_path):
        manifest = MediaManifest(
            [
                MediaEntry("a", "s1", "t1", "v1"),
                MediaEntry("b", "s1", "t1", "v1"),
                MediaEntry("c", "s2", "t2", None),
            ]
        )
        path = tmp_path / "m.csv"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert reference.decoded(loaded).entries == reference.decoded(manifest).entries


class TestPairList:
    def test_self_pair_rejected(self):
        with pytest.raises(DataError):
            PairList(pairs=(("t1", "t1"),))

    def test_unknown_template_rejected(self, tmp_path):
        mpath = tmp_path / "m.csv"
        mpath.write_text("media_id,subject_id,template_id,video_id\na,s1,t1,\n")
        ppath = tmp_path / "p.csv"
        ppath.write_text("template_id_a,template_id_b\nt1,t9\n")
        manifest = load_manifest(mpath)
        with pytest.raises(UnknownIdError):
            load_pairs(ppath, manifest)
        # without a manifest the ids are not checked
        assert len(load_pairs(ppath)) == 1

    def test_round_trip(self, tmp_path):
        pairs = PairList(pairs=(("t1", "t2"), ("t2", "t3")))
        path = tmp_path / "p.csv"
        save_pairs(pairs, path)
        assert load_pairs(path).pairs == pairs.pairs

    def test_save_memory_does_not_grow_with_pairs(self, tmp_path):
        # decoding every pair's codes at once takes two lists of n ids
        n, templates = 400_000, 20_000
        ids = tuple(f"t{i}" for i in range(templates))
        codes = np.arange(n) % templates
        pairs = PairList.coded(ids, codes, (codes + 1) % templates)
        path = tmp_path / "pairs.csv"
        assert traced_peak(lambda: save_pairs(pairs, path)) < 1 << 20
        rows = "".join(f"t{c},t{(c + 1) % templates}\r\n" for c in codes.tolist())
        assert path.read_bytes() == ("template_id_a,template_id_b\r\n" + rows).encode()

    def test_coded_builds_the_named_pairs(self):
        pairs = PairList.coded(("a", "b", "c"), [0, 2], [1, 0])
        assert pairs.pairs == (("a", "b"), ("c", "a"))
        assert pairs.template_ids_a == ("a", "c")
        assert pairs.template_ids_b == ("b", "a")

    @pytest.mark.parametrize("codes_a, codes_b, message", [
        ([0], [-1], "pair code -1 outside"),
        ([3], [0], "pair code 3 outside"),
        ([0, 1], [7, 2], "pair code 7 outside"),
        ([0, 1], [2], "equal length"),
        ([1], [1], "self-pair 'b'"),
    ])
    def test_coded_refuses_bad_codes(self, codes_a, codes_b, message):
        with pytest.raises(DataError, match=message):
            PairList.coded(("a", "b", "c"), codes_a, codes_b)

    def test_coded_refuses_repeated_id(self):
        with pytest.raises(DataError, match="repeats a template id"):
            PairList.coded(("a", "b", "a"), [0], [1])

    def test_only_store_encodes_pairs(self):
        # PairList.coded is the one checked way to build coded pairs;
        # encode_pairs is the pair list's own id coder
        package = Path(embalign.__file__).parent
        users = sorted(p.name for p in package.glob("*.py")
                       if "encode_pairs(" in p.read_text())
        assert users == ["store.py"]


class TestAlignPairs:
    def test_intersection_semantics(self):
        a = make_set(["a", "b"], [[1, 0], [0, 1]])
        b = make_set(["b", "c"], [[2, 0], [0, 2]])
        ma, mb = align_pairs(a, b)
        assert ma.shape == (1, 2) and mb.shape == (1, 2)
        assert np.array_equal(ma, [[0.0, 1.0]])
        assert np.array_equal(mb, [[2.0, 0.0]])
        assert ma.dtype == np.float64

    def test_full_enrollment_intersection(self):
        n = 11856
        ids = [f"e{i}" for i in range(n)]
        rng = np.random.default_rng(2)
        a = make_set(ids, rng.standard_normal((n, 3)).astype(np.float32))
        b = make_set(list(reversed(ids)), rng.standard_normal((n, 3)).astype(np.float32))
        ma, mb = align_pairs(a, b)
        assert ma.shape[0] == n and mb.shape[0] == n

    def test_disjoint_sets_error(self):
        a = make_set(["a"], [[1, 0]])
        b = make_set(["b"], [[1, 0]])
        with pytest.raises(AlignmentError):
            align_pairs(a, b)

    def test_aligned_rows_index_the_sorted_shared_ids(self):
        a = make_set(["q", "b", "z", "a"], np.zeros((4, 2)))
        b = make_set(["a", "c", "q", "b"], np.zeros((4, 2)))
        rows_a, rows_b = aligned_rows(a, b)
        assert rows_a.dtype == rows_b.dtype == np.intp
        assert [a.media_ids[i] for i in rows_a] == ["a", "b", "q"]
        assert [b.media_ids[i] for i in rows_b] == ["a", "b", "q"]
        with pytest.raises(AlignmentError, match="no shared media ids between 'm' and 'n'"):
            aligned_rows(a, make_set(["x"], [[1, 0]], model_id="n"))

    def test_symmetric_in_content(self):
        rng = np.random.default_rng(3)
        a = make_set(["x", "y", "z"], rng.standard_normal((3, 4)).astype(np.float32))
        b = make_set(["y", "z", "w"], rng.standard_normal((3, 4)).astype(np.float32))
        ma, mb = align_pairs(a, b)
        mb2, ma2 = align_pairs(b, a)
        assert np.array_equal(ma, ma2)
        assert np.array_equal(mb, mb2)

    def test_chunked_gather_matches_row_by_row(self):
        n = 2 * _ROW_CHUNK + 3
        rng = np.random.default_rng(5)
        ids = [f"r{i:05d}" for i in range(n)]
        a = make_set(ids, rng.standard_normal((n, 5)).astype(np.float32))
        order = rng.permutation(n)
        b = make_set([ids[i] for i in order], rng.standard_normal((n, 3)))
        ma, mb = align_pairs(a, b)
        common = sorted(ids)
        row_a = dict(zip(a.media_ids, range(n)))
        row_b = dict(zip(b.media_ids, range(n)))
        want_a = np.array([a.vectors[row_a[m]] for m in common], dtype=np.float64)
        want_b = np.array([b.vectors[row_b[m]] for m in common], dtype=np.float64)
        assert ma.tobytes() == want_a.tobytes() and mb.tobytes() == want_b.tobytes()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_memory_bounded(self):
        done = run_gate(ALIGN_MEMORY_GATE)
        assert done.returncode == 0, done.stderr[-2000:]
        assert json.loads(done.stdout) == {"rows": [30_000, 30_000]}

    def test_deterministic_order(self):
        rng = np.random.default_rng(4)
        ids = [f"r{i}" for i in range(20)]
        a = make_set(ids, rng.standard_normal((20, 2)).astype(np.float32))
        b = make_set(ids[::-1], rng.standard_normal((20, 2)).astype(np.float32))
        first = align_pairs(a, b)
        second = align_pairs(a, b)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


# align_pairs on two 30,000 x 512 float32 sets under an RLIMIT_AS of the
# child's VmSize plus the two float64 design matrices (234 MiB) and 32 MiB.
# Measured at one BLAS thread: the chunked gather peaks 2 MiB above the
# designs; gathering each side's float32 rows whole before converting them
# peaks 61 MiB above.
ALIGN_MEMORY_GATE = """
import json
import numpy as np
from embalign import EmbeddingSet, align_pairs

m, dim = 30_000, 512
rng = np.random.default_rng(0)
ids = [f"m{i:05d}" for i in range(m)]
a = EmbeddingSet("A", ids, rng.standard_normal((m, dim), dtype=np.float32))
b = EmbeddingSet("B", ids[::-1], rng.standard_normal((m, dim), dtype=np.float32))

cap_address_space(2 * m * dim * 8 + (32 << 20))
x, y = align_pairs(a, b)
print(json.dumps({"rows": [x.shape[0], y.shape[0]]}))
"""


# Every UTF-8 byte of these characters, and every byte of the vectors and
# linear matrices below, is at least 0x30. So a length read from a
# misaligned offset is at least 0x130 (0x30 before a non-zero length low
# byte) and more than any file these strategies write holds: a damaged
# length or dimension cannot realign the parse into a valid file.
_id_text = st.text(alphabet="09AZaz\u00e9\u540d", min_size=1, max_size=4)


def _bytes_at_least_0x30(rng, shape, itemsize, high_bytes):
    raw = rng.integers(0x30, 0x80, size=(*shape, itemsize), dtype=np.uint8)
    raw[..., -1] = rng.choice(high_bytes, size=shape)
    return raw


@st.composite
def _cfeb_files(draw):
    """(set, offsets of its header bytes and of every length field)"""
    dim = draw(st.integers(1, 4))
    ids = draw(st.lists(_id_text, min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    raw = _bytes_at_least_0x30(rng, (len(ids), dim), 4, [0x3E, 0x3F])
    s = make_set(ids, raw.view("<f4")[..., 0], model_id=draw(_id_text))
    lengths, pos = [], 18
    for media_id in ids:
        lengths.append(pos)
        pos += 2 + len(media_id.encode()) + 4 * dim
    return s, list(range(18)) + lengths + [pos]


@st.composite
def _cfem_files(draw):
    """(map, offsets of its header bytes and of both length fields)"""
    kind = draw(st.sampled_from(["linear", "rotation", "identity"]))
    d_a = draw(st.integers(2, 4))
    d_b = draw(st.integers(1, 4)) if kind == "linear" else d_a
    seed = draw(st.integers(0, 2**32))
    matrix = {
        "linear": lambda: _bytes_at_least_0x30(
            np.random.default_rng(seed), (d_a, d_b), 8, [0x3F, 0x40]
        ).view("<f8")[..., 0],
        "rotation": lambda: random_rotation(d_a, seed).matrix,
        "identity": lambda: np.eye(d_a),
    }[kind]()
    source = draw(_id_text)
    mapping = MappingMatrix(
        kind=kind, source_model_id=source, target_model_id=draw(_id_text),
        matrix=matrix, fit_sample_count=draw(st.integers(0, 2**64 - 1)),
    )
    first = 15 + 8 * d_a * d_b
    return mapping, list(range(15)) + [first, first + 2 + len(source.encode())]


def _flips(raw: bytes, offsets, mask: int):
    for offset in offsets:
        for m in {mask} | {1 << bit for bit in range(8)}:
            damaged = bytearray(raw)
            damaged[offset] ^= m
            yield offset, bytes(damaged)


class TestBinaryCodec:
    """The .cfeb and .cfem formats share store's header and string codec."""

    def test_struct_imported_only_in_store(self):
        package = Path(embalign.__file__).parent
        importers = re.compile(r"^\s*(import|from)\s+struct\b", re.MULTILINE)
        users = sorted(p.name for p in package.glob("*.py") if importers.search(p.read_text()))
        assert users == ["store.py"]

    @pytest.mark.parametrize("field", ["record 0 id", "model id"])
    def test_bad_utf8_embedding_string(self, tmp_path, field):
        path = tmp_path / "bad.cfeb"
        save_embeddings(make_set(["abc"], [[1.0, 0.0]], model_id="xyz"), path)
        raw = bytearray(path.read_bytes())
        raw[20 if field == "record 0 id" else -3] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: {field} is not UTF-8")):
            load_embeddings(path)

    @pytest.mark.parametrize("field", ["source model id", "target model id"])
    def test_bad_utf8_map_string(self, tmp_path, field):
        path = tmp_path / "bad.cfem"
        save_map(MappingMatrix("identity", "abc", "xyz", np.eye(2), 0), path)
        raw = bytearray(path.read_bytes())
        raw[15 + 32 + 2 if field == "source model id" else -11] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: {field} is not UTF-8")):
            load_map(path)

    @settings(max_examples=60, deadline=None)
    @given(case=_cfeb_files(), mask=st.integers(1, 255))
    def test_damaged_embedding_file_refused(self, tmp_path_factory, case, mask):
        s, offsets = case
        path = tmp_path_factory.mktemp("cfeb") / "s.cfeb"
        save_embeddings(s, path)
        raw = path.read_bytes()
        assert np.asarray(load_embeddings(path).vectors).tobytes() == s.vectors.tobytes()
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(FileFormatError):
                load_embeddings(path)
        for offset, damaged in _flips(raw, offsets, mask):
            path.write_bytes(damaged)
            with pytest.raises(EmbAlignError):
                load_embeddings(path)

    @settings(max_examples=60, deadline=None)
    @given(case=_cfem_files(), mask=st.integers(1, 255))
    def test_damaged_map_file_refused(self, tmp_path_factory, case, mask):
        mapping, offsets = case
        path = tmp_path_factory.mktemp("cfem") / "m.cfem"
        save_map(mapping, path)
        raw = path.read_bytes()
        assert load_map(path).matrix.tobytes() == mapping.matrix.tobytes()
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(FileFormatError):
                load_map(path)
        for offset, damaged in _flips(raw, offsets, mask):
            path.write_bytes(damaged)
            try:
                loaded = load_map(path)
            except EmbAlignError:
                continue
            # a kind code may name another kind whose invariants the matrix
            # meets too (a rotation is also a linear map); nothing else loads
            assert offset == 6 and loaded.kind != mapping.kind
            assert loaded.matrix.tobytes() == mapping.matrix.tobytes()


def setattr_calls(node, func=None):
    """For each ``object.__setattr__`` call under ``node``: the name of its
    innermost enclosing function (None at module level) and its first
    argument as source text."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        if isinstance(child, ast.Call) and ast.unparse(child.func) == "object.__setattr__":
            yield func, ast.unparse(child.args[0]) if child.args else None
        yield from setattr_calls(child, inner)


class TestSetsHoldOnlyFields:
    """Embedding sets, template sets and maps hold only their dataclass
    fields: nothing writes into one once it is constructed."""

    def test_setattr_only_on_self_while_constructing(self):
        package = Path(embalign.__file__).parent
        writes = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            calls = list(setattr_calls(tree))
            # every use of object.__setattr__ is a call the walk sees
            uses = [n for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and ast.unparse(n) == "object.__setattr__"]
            assert len(uses) == len(calls), path.name
            writes += [(path.name, func, target) for func, target in calls]
        assert writes
        allowed = {"__post_init__", "_adopt", "_adopt_fields"}
        assert [w for w in writes if w[1] not in allowed or w[2] != "self"] == []

    def test_vars_hold_only_fields_after_use(self):
        rng = np.random.default_rng(4)
        entries = [MediaEntry(f"m{i:02d}", f"s{i // 4}", f"t{i // 2}") for i in range(24)]
        manifest = MediaManifest(entries)
        ids = [e.media_id for e in entries]
        a = EmbeddingSet("A", ids, rng.standard_normal((24, 6)))
        b = EmbeddingSet("B", ids[::-1], rng.standard_normal((24, 6)).astype(np.float32))
        mapping, _ = fit("linear", a, b)
        mapped = apply_map(mapping, a)
        aligned_rows(mapped, b)
        plan = EvalPlan(manifest, ids, PairList([("t0", "t1"), ("t0", "t2"), ("t3", "t5")]))
        side_a, side_b = plan.templates(mapped), plan.templates(b)
        for target in (side_b, b):
            assert len(plan.score(side_a, target)) == 3
        for held in (a, b, mapped, side_a, side_b, mapping):
            assert set(vars(held)) == {f.name for f in dataclasses.fields(held)}

    def test_equal_only_to_itself_and_hashable(self):
        for make in (lambda: EmbeddingSet("A", ("m0", "m1"), np.eye(2)),
                     lambda: TemplateSet("A", ("t0", "t1"), ("s0", "s1"), np.eye(2)),
                     lambda: identity_map(2)):
            first, second = make(), make()
            assert first == first and first != second
            assert len({first, second, first}) == 2
