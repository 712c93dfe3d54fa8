"""Embedding, manifest, and pair-list data model with file ingestion.

Binary embedding file (.cfeb):
    magic "CFEB" | version u16=1 | dim u32 | count u64 |
    count records of { id_len u16, id UTF-8, dim x float32 LE } |
    model_id as { len u16, UTF-8 }

Both binary formats, .cfeb here and .cfem in ``mapping``, share this
module's codec: ``BinaryReader`` checks the magic and u16 version, reads
u16-length-prefixed UTF-8 strings and fields bounded by the file's
length, and refuses trailing bytes; ``binary_header`` and
``binary_string`` write the header and the strings.

Manifest CSV has header ``media_id,subject_id,template_id,video_id``
(video_id may be empty). Pair CSV has header
``template_id_a,template_id_b``.

Manifests and pair lists are held as columns of integer codes, not as a
Python object per row: a ``MediaManifest`` keeps int32 template, subject
and video codes per medium into tables of the distinct ids, and a
``PairList`` two int32 code arrays into one table of template ids, filled
from the CSV through one dict. The protocol splits and derived models
read the manifest's codes, and it has no view decoded per medium; a pair
list's ``pairs`` tuples are a view built only when read.

Vectors are serialized as 32-bit floats, little-endian. Everything
downstream promotes to 64-bit before doing arithmetic.

A load scans the records once, through one bounded window of the open
file, and keeps the media ids, the file offset of each vector and the
open file, not the vectors: a loaded set's ``vectors`` are ``FileRows``,
which pick the rows asked for by numpy's index rules over the records'
offsets and read only the runs of asked records (at most one record
between two), with positioned reads through one window, so no row loop
holds a loaded set's vectors whole. The load checks each window's vectors
finite, and a read copies each window's rows out, in one gather that
indexes the window's bytes by the rows' offsets in it (``_byte_rows``). A
loaded set's ``restrict`` reads nothing: its subset is a ``FileRows``
over the kept records, so a command holds a subset's rows only where it
reads them again (``EmbeddingSet.in_memory``, which the sweep and the
grid take once). A binary file is saved through ``write_file``, into a
new file that replaces the old one only when it is whole; ``save_rows``
writes a .cfeb file a chunk at a time, and patches its header's count
when it writes fewer records than it declared. Sets hold only their
fields. They adopt a read-only array of the
dtype they keep that owns its data, and copy any other
(``_frozen_array``), so the library's producers (restrict, map
application, templates, scoring) mark their fresh arrays read-only and
hand them over; a producer that drops rows moves the kept ones to the
front of its fresh array and shrinks it in place (``kept_rows``), so the
set still adopts it. ``float_chunks`` is the one float64 row reader: over
given row slices, by default ``row_chunks``, it yields an array's rows,
or the rows an index picks, as float64 in one reused buffer, copied from
the array or the file _GATHER_BLOCK rows at a time, so no row loop makes
a full-size temporary. Alignment (``float_rows``), the fits and map
application (``float_products``) read its row chunks, and template
building its chunks of whole templates (``group_chunks``: at most
_GATHER_BLOCK rows, gathered in one block, or one larger group alone); a
verification holds side a's templates in ``template_tiles``, near-equal
tiles within _TILE_BUDGET bytes of float64 rows (40 MiB: five tiles of
39.1 MiB, so five passes over side b, for 50,000 512-d templates; the
trade curve is at _TILE_BUDGET). ``row_norms`` reads each
_GATHER_BLOCK-row block once and squares it as float64 into one scratch
block. A save writes _GATHER_BLOCK rows at a time, and
``all_finite`` checks a ``row_chunks`` chunk at a time. Rows are
normalized by ``unit_rows`` alone and checked unit length by
``unit_length`` alone. Pair scoring takes its rows a ``pair_chunks``
piece at a time, straight from the template matrices; the attack scores
each ``row_chunks`` chunk of mapped probes against its gallery a
``score_pieces`` piece at a time, sized by the gallery's width.
``aligned_rows`` gives the one row order of two sets' shared media, sorted
by media id, that every fit takes in ``mapping._shared_fits``.
"""

from __future__ import annotations

import csv
import os
import struct
import weakref
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    AlignmentError,
    ConsistencyError,
    DataError,
    FileFormatError,
    TruncationError,
    UnknownIdError,
)

_MAGIC = b"CFEB"
# the version of both binary formats
_VERSION = 1

# a vector counts as unit length when its norm is within this of 1
UNIT_NORM_TOL = 1e-6
# a vector with norm below this has no direction: it is excluded rather
# than normalized
DEGENERATE_NORM = 1e-12
# most rows in a chunk of row_chunks
_ROW_CHUNK = 4096
# most pairs in a piece of pair_chunks: two pieces' float64 rows stay in cache
_PAIR_CHUNK = 128
# most bytes of float64 scores in a piece of score_pieces: a piece's scores
# and their ranking scratch stay in cache
_SCORE_BUDGET = 1 << 21
# rows per copy when a row loop takes a set's rows (a fancy-indexed gather,
# or a read from a file) or a save writes them
_GATHER_BLOCK = 512
# most bytes of float64 template rows in a tile of template_tiles: a
# verification holds side a one tile at a time, and walks side b once a tile.
# `verify` of 50,000 512-d templates a side (medians of six runs, one BLAS
# thread, 2 vCPUs): 64 MiB, 4 tiles, 123.1 MiB peak in 2.14 s; 40 MiB, 5
# tiles of 39.1 MiB, 113.3 MiB in 2.30 s; 34 MiB, 6 tiles, 106.7 MiB in
# 2.52 s; 32 MiB, 7 tiles, 102.2 MiB in 2.60 s. 40 MiB is the smallest that
# keeps the 2.32 s that 64 MiB tiles took when a pass also divided by 1,
# copied each row_norms block and staged each loaded row
_TILE_BUDGET = 40 << 20
# bytes of the window a .cfeb load reads its records through
_READ_WINDOW = 1 << 20


def _frozen_array(values, dtype=None) -> np.ndarray:
    """``values`` as a read-only array that nothing writable can reach, so
    dataclass instances stay immutable.

    A read-only ndarray of ``dtype`` that owns its data is adopted as it
    is: a producer that marks its fresh array read-only hands it over.
    Any other value, any view included, is copied.
    """
    if (type(values) is np.ndarray and not values.flags.writeable
            and values.flags.owndata and (dtype is None or values.dtype == dtype)):
        return values
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _byte_rows(buffer, row_bytes: int) -> np.ndarray:
    """The ``row_bytes`` bytes from each byte offset of ``buffer`` on, one
    np.void element an offset, read in place (a 1-byte stride): indexing
    it by the offsets of rows copies those rows in one gather."""
    return np.ndarray((len(buffer) - row_bytes + 1,), (np.void, row_bytes), buffer,
                      strides=(1,))


def _near_equal(n: int, most: int) -> list[slice]:
    """As few near-equal consecutive slices of at most ``most`` rows as
    cover n rows."""
    count = -(-n // most)
    return [slice(n * k // count, n * (k + 1) // count) for k in range(count)]


def row_chunks(n: int) -> list[slice]:
    """Near-equal consecutive slices of at most _ROW_CHUNK rows covering n
    rows, so no chunk is a short remainder: a few rows can take a BLAS
    small-matrix kernel, whose products differ in the last bit from GEMM's."""
    return _near_equal(n, _ROW_CHUNK)


def piece_rows(width: int) -> int:
    """The most rows in a piece of ``score_pieces`` against ``width``
    columns: as many as keep the piece's float64 scores within
    _SCORE_BUDGET bytes, and at least 3, so that near-equal pieces of n >= 2
    rows hold at least 2 rows each."""
    return max(3, _SCORE_BUDGET // (8 * max(width, 1)))


def score_pieces(n: int, width: int) -> list[slice]:
    """Near-equal consecutive slices of at most ``piece_rows(width)`` rows
    covering n rows, for products of rows against ``width`` columns taken a
    piece at a time. No piece is one row unless n is 1: a 1-row product
    runs through gemv, whose scores can differ in the last bit from the
    same row's inside a GEMM."""
    return _near_equal(n, piece_rows(width))


def strides(n: int, step: int):
    """Consecutive slices of ``step`` rows covering n rows, the last one
    possibly shorter, made one at a time."""
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def pair_chunks(n: int):
    """``strides`` of _PAIR_CHUNK pairs covering n pairs, for loops that
    score each pair on its own: a piece's two sides of float64 rows stay
    in cache."""
    return strides(n, _PAIR_CHUNK)


def all_finite(rows: np.ndarray) -> bool:
    """Whether every entry of a 2-D array is finite, checked one
    ``row_chunks`` slice at a time, so no mask of the whole array is made."""
    return all(np.isfinite(rows[chunk]).all() for chunk in row_chunks(len(rows)))


def template_tiles(n: int, dim: int) -> list[slice]:
    """As few near-equal consecutive slices of n templates as keep each
    slice's float64 rows of ``dim`` within _TILE_BUDGET bytes, a template
    a slice when one row is larger; one empty slice for no templates, so
    a walk over the tiles still walks the other side once."""
    return _near_equal(n, max(1, _TILE_BUDGET // (8 * max(dim, 1)))) or [slice(0, 0)]


def group_chunks(starts: np.ndarray) -> list[slice]:
    """Consecutive slices of the groups whose rows are ``starts[g]:starts[g +
    1]``, each of whole groups covering at most _GATHER_BLOCK rows, or of
    one group that has more on its own: a chunk of small groups is
    gathered in one block."""
    chunks, lo, groups = [], 0, len(starts) - 1
    while lo < groups:
        hi = int(np.searchsorted(starts, starts[lo] + _GATHER_BLOCK, side="right")) - 1
        hi = min(max(hi, lo + 1), groups)
        chunks.append(slice(lo, hi))
        lo = hi
    return chunks


def float_chunks(vectors: np.ndarray, index: np.ndarray | None = None,
                 chunks: list[slice] | None = None):
    """For each slice ``rows`` of ``chunks`` (by default ``row_chunks`` of
    the rows read), ``(rows, chunk)``: the float64 rows
    ``vectors[index[rows]]``, or ``vectors[rows]`` without an index, in one
    buffer that holds the longest chunk, reused for every chunk, so a chunk
    is valid only until the next is taken. Rows are taken _GATHER_BLOCK at
    a time, so the copy before the cast (a fancy-indexed copy, or the rows
    read from a file) stays small."""
    if chunks is None:
        chunks = row_chunks(len(vectors) if index is None else index.size)
    longest = max((rows.stop - rows.start for rows in chunks), default=0)
    buffer = np.empty((longest, vectors.shape[1]))
    for rows in chunks:
        chunk = buffer[: rows.stop - rows.start]
        for block in strides(len(chunk), _GATHER_BLOCK):
            if index is None:
                chunk[block] = vectors[rows.start + block.start : rows.start + block.stop]
            else:
                chunk[block] = vectors[index[rows][block]]
        yield rows, chunk


def float_products(vectors: np.ndarray, matrix: np.ndarray, out: np.ndarray | None = None):
    """For each slice ``rows`` of ``row_chunks``, ``(rows, product)``: the
    float64 rows ``vectors[rows]`` of ``float_chunks`` times ``matrix``, one
    GEMM per chunk, written into ``out[rows]``, or without ``out`` into one
    buffer reused for every chunk, so a product is valid only until the
    next is taken."""
    chunks = row_chunks(len(vectors))
    if out is None:
        longest = max((rows.stop - rows.start for rows in chunks), default=0)
        buffer = np.empty((longest, matrix.shape[1]))
    for rows, chunk in float_chunks(vectors, chunks=chunks):
        product = buffer[: rows.stop - rows.start] if out is None else out[rows]
        # a product past float64's range is left to the caller's all_finite
        # check, which refuses it in one error and no warning
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(chunk, matrix, out=product)
        yield rows, product


def float_rows(vectors: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """The rows of ``float_chunks`` as one new float64 array."""
    rows = np.empty((len(vectors) if index is None else index.size, vectors.shape[1]))
    for chunk_rows, chunk in float_chunks(vectors, index):
        rows[chunk_rows] = chunk
    return rows


def kept_rows(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``rows[keep]`` in ``rows`` itself: the kept rows moved to its front
    _GATHER_BLOCK at a time, then the array shrunk to them in place, so it
    still owns its data and a set adopts it without a copy. ``rows`` must
    own its data, and no view of it may be alive."""
    kept = np.flatnonzero(keep)
    for block in strides(kept.size, _GATHER_BLOCK):
        # kept[i] >= i: a block reads rows that no earlier block wrote
        rows[block] = rows[kept[block]]
    rows.resize((kept.size, rows.shape[1]), refcheck=False)
    return rows


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The float64 L2 norm of each row of a 2-D array.

    sqrt(add.reduce(c * c, axis=1)) over blocks ``c`` of _GATHER_BLOCK rows,
    each block read once (from a ``FileRows``, one read) and squared as
    float64 into one scratch block, each row reduced on its own: bit for
    bit what ``np.linalg.norm(rows, axis=1)`` gives on the rows as float64.
    """
    n = rows.shape[0]
    norms = np.empty(n)
    squares = np.empty((min(n, _GATHER_BLOCK), rows.shape[1]))
    # squares past float64's range give an infinite norm, with no warning:
    # unit_length refuses the row, and unit_rows divides it to NaN
    with np.errstate(over="ignore"):
        for block in strides(n, _GATHER_BLOCK):
            r = rows[block]
            square = squares[: block.stop - block.start]
            np.multiply(r, r, out=square, dtype=np.float64)
            np.add.reduce(square, axis=1, out=norms[block])
    return np.sqrt(norms, out=norms)


def unit_length(rows: np.ndarray) -> bool:
    """Whether every row of a 2-D array has an L2 norm within UNIT_NORM_TOL
    of 1; true of no rows."""
    return bool(np.all(np.abs(row_norms(rows) - 1.0) <= UNIT_NORM_TOL))


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Divide each row of the float64 array ``rows`` by its ``row_norms``
    norm in place, setting a row below DEGENERATE_NORM, which has no
    direction, to +0.0; the mask of the rows kept."""
    norms = row_norms(rows)
    keep = norms >= DEGENERATE_NORM
    # an infinite row divides to NaN, with no warning: all_finite refuses it
    with np.errstate(invalid="ignore"):
        rows /= np.where(keep, norms, 1.0)[:, None]
    rows[~keep] = 0.0
    return keep


class FileRows:
    """The (count, dim) float32 vectors of records of a loaded .cfeb file,
    read from the file when asked for: the set a load returns holds these,
    not an array.

    It offers ``shape``, ``dtype`` and ``len``; a key picks records by
    numpy's index rules over the records' file offsets, numpy refusing
    what it refuses: an integer gives one row, a slice, integer array or
    bool mask the rows as a new array, and a key picking along two axes is
    refused. ``np.asarray`` gives all of them (read-only). ``records``
    picks records by the same rules as a new reader of the file, and reads
    nothing. Every request is read in ascending file order through one
    window buffer of its own, which the reader does not keep between
    requests: the runs of asked records, with at most
    one record between two of them, are read into it end to end, one
    positioned read a run or a piece of one, at most _READ_WINDOW bytes at
    a time, and each window's rows are copied to their places in the
    result in one gather, so the records between runs are not read and a
    run reads at most one record it was not asked for per row. A file cut short
    since the load raises TruncationError naming the first record it cut;
    a file unlinked since the load still reads. Each reader owns its
    descriptor (a load's, or a duplicate of it for ``records``), which
    closes when the reader is collected.
    """

    def __init__(self, path, fd: int, offsets: np.ndarray, dim: int,
                 file_offsets: np.ndarray | None = None):
        self.path = path
        self.shape = (offsets.size, dim)
        self.dtype = np.dtype("<f4")
        self._fd = fd
        # the file offset of the vector of each record this reader reads
        self._offsets = offsets
        # the file offset of every record's vector in the file, strictly
        # increasing: a record's place in it is its number in the file
        self._file_offsets = offsets if file_offsets is None else file_offsets
        weakref.finalize(self, os.close, fd)

    def __len__(self) -> int:
        return self.shape[0]

    def _starts(self, key) -> np.ndarray:
        """The file offsets of the vectors ``key`` picks."""
        starts = np.asarray(self._offsets[key])
        if starts.ndim > 1:
            raise IndexError(f"rows are read by a key that picks them along one axis, "
                             f"not one that picks shape {starts.shape}")
        return starts

    def __getitem__(self, key) -> np.ndarray:
        starts = self._starts(key)
        rows = self._read(starts.reshape(-1))
        return rows if starts.ndim else rows[0]

    def records(self, key) -> "FileRows":
        """The records ``key`` picks, by the rules of a key that reads them,
        as a reader of the same file through a duplicate of its
        descriptor: nothing is read, and it reads on once this reader is
        collected."""
        starts = self._starts(key).reshape(-1)
        return FileRows(self.path, os.dup(self._fd), starts, self.shape[1], self._file_offsets)

    def __reduce__(self):
        # a copy would keep the descriptor that this reader closes
        raise TypeError(f"the rows of {self.path} are read from its open file "
                        f"and cannot be copied; np.asarray gives them as an array")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("the rows of a file are read into a new array")
        rows = self[:] if dtype is None else self[:].astype(dtype, copy=False)
        rows.setflags(write=bool(copy))
        return rows

    def _read(self, starts: np.ndarray) -> np.ndarray:
        """The vectors at the file offsets ``starts``, each a record's."""
        n, row_bytes = starts.size, 4 * self.shape[1]
        out = np.empty((n, self.shape[1]), dtype=self.dtype)
        if not out.size:
            return out
        order = np.argsort(starts, kind="stable")
        starts = starts[order]
        ends = starts + row_bytes
        # a run ends where more than one record lies between two asked
        # ones, so it reads at most one record it was not asked for per row
        records = np.searchsorted(self._file_offsets, starts)
        runs = np.append(0, np.flatnonzero(np.diff(records) > 2) + 1)
        # each row's place in the runs' bytes laid end to end
        step = np.diff(starts, prepend=starts[0])
        step[runs[1:]] = row_bytes
        packed = np.cumsum(step)
        rows = out.view((np.void, row_bytes))[:, 0]
        # a window holds whole runs, or pieces of one, within _READ_WINDOW
        # bytes, or one row alone; its buffer lives for this request only
        buffer = np.empty(min(int(packed[-1]) + row_bytes, max(_READ_WINDOW, row_bytes)),
                          dtype=np.uint8)
        window, by_offset = memoryview(buffer), _byte_rows(buffer, row_bytes)
        i = 0
        while i < n:
            j = int(np.searchsorted(packed, packed[i] + _READ_WINDOW - row_bytes, side="right"))
            j = max(j, i + 1)
            lo = int(packed[i])
            # the first row of each run, or piece of one, in the window
            firsts = np.append(i, runs[np.searchsorted(runs, i, side="right") :
                                       np.searchsorted(runs, j)])
            stops = np.append(firsts[1:], j)
            for p, q, at, size in zip(firsts.tolist(), stops.tolist(),
                                      (packed[firsts] - lo).tolist(),
                                      (ends[stops - 1] - starts[firsts]).tolist()):
                self._fill(window[at : at + size], int(starts[p]), ends[p:q])
            rows[order[i:j]] = by_offset[packed[i:j] - lo]
            i = j
        return out

    def _fill(self, target: memoryview, offset: int, ends: np.ndarray):
        """Read ``target`` full from ``offset`` on; the file ending first
        raises TruncationError naming the first record, of those whose
        vectors end at ``ends``, that it cuts."""
        got = 0
        while got < len(target):
            count = os.preadv(self._fd, [target[got:]], offset + got)
            if not count:
                need = 4 * self.shape[1]
                start = int(ends[np.searchsorted(ends, offset + got, side="right")]) - need
                raise TruncationError(
                    f"{self.path}: file ends inside record "
                    f"{np.searchsorted(self._file_offsets, start)} vector "
                    f"(need {need} bytes at offset {start})"
                )
            got += count


_NON_FINITE = "embedding vectors contain non-finite values"


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """A matrix of d-dimensional embedding vectors keyed by media id.

    ``vectors`` is an (n, dim) float32 or float64 array, or the
    ``FileRows`` of a loaded file, which reads its rows when they are
    asked for; row i belongs to ``media_ids[i]``. ``dropped`` records media
    excluded by an upstream step (e.g. degenerate rows removed by map
    application); it is derived metadata and is not serialized. A set
    equals only itself.
    """

    model_id: str
    media_ids: tuple[str, ...]
    vectors: np.ndarray | FileRows
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
        # file rows were checked finite by the load that read them
        on_file = isinstance(self.vectors, FileRows)
        if not on_file:
            vecs = np.asarray(self.vectors)
            if vecs.ndim != 2:
                raise DataError(f"vectors must be 2-D, got shape {vecs.shape}")
            dtype = np.float32 if vecs.dtype == np.float32 else np.float64
            object.__setattr__(self, "vectors", _frozen_array(vecs, dtype=dtype))
        object.__setattr__(self, "media_ids", tuple(self.media_ids))
        object.__setattr__(self, "dropped", tuple(self.dropped))
        if len(self.media_ids) != self.vectors.shape[0]:
            raise DataError(
                f"{len(self.media_ids)} media ids for {self.vectors.shape[0]} rows"
            )
        if not (on_file or all_finite(self.vectors)):
            raise DataError(_NON_FINITE)
        if len(set(self.media_ids)) != len(self.media_ids):
            raise DataError("duplicate media ids in embedding set")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def normalized(self) -> bool:
        """True when every row has unit L2 norm (``unit_length``)."""
        return unit_length(self.vectors)

    def __len__(self) -> int:
        return len(self.media_ids)

    def restrict(self, media_ids) -> "EmbeddingSet":
        """Row subset over the given ids, preserving this set's row order.
        A loaded set's subset reads nothing: its vectors are the
        ``FileRows.records`` of the kept rows. Any other set's are the
        kept rows as a new array."""
        keep = np.fromiter(
            map(set(media_ids).__contains__, self.media_ids), bool, len(self)
        )
        if isinstance(self.vectors, FileRows):
            vectors = self.vectors.records(keep)
        else:
            vectors = self.vectors[keep]
            vectors.setflags(write=False)
        return EmbeddingSet(
            model_id=self.model_id,
            media_ids=tuple(compress(self.media_ids, keep.tolist())),
            vectors=vectors,
        )

    def in_memory(self) -> "EmbeddingSet":
        """This set with its rows in an array: a loaded set's read from its
        file once, for a caller that reads them many times; any other set
        as it is."""
        if not isinstance(self.vectors, FileRows):
            return self
        return EmbeddingSet(self.model_id, self.media_ids, np.asarray(self.vectors), self.dropped)


class MediaEntry(NamedTuple):
    """One manifest row; ``video_id`` is None for an image."""

    media_id: str
    subject_id: str
    template_id: str
    video_id: str | None = None


def _frozen_codes(codes: array) -> np.ndarray:
    """An ``array("i")`` of codes as a read-only int32 array."""
    return _frozen_array(np.frombuffer(codes, dtype=np.intc), dtype=np.int32)


def _sorted_rank(table: tuple[str, ...]) -> np.ndarray:
    """Per entry of ``table``, its position in ``sorted(table)``."""
    rank = np.empty(len(table), dtype=np.intp)
    rank[sorted(range(len(table)), key=table.__getitem__)] = np.arange(len(table))
    return rank


def _decoded(table: tuple, codes: np.ndarray):
    """The entries of ``table`` that ``codes`` name, in order."""
    return map(table.__getitem__, codes.tolist())


class MediaManifest:
    """Per-media metadata: subject, template, and optional video grouping,
    held as integer codes.

    ``media_ids`` lists the media in manifest order and ``media_row`` maps
    each to its row. Per row, ``template_codes``, ``subject_codes`` and
    ``video_codes`` (-1 for an image) are int32 codes into the tables
    ``template_ids``, ``subject_ids`` and ``video_ids``, each in order of
    first appearance; ``template_code`` maps a template id to its code and
    ``template_subjects`` holds each template's subject code. One pass
    over the rows builds and checks them all: media ids are unique, each
    template id maps to exactly one subject, and all media sharing a
    video id share a template id. The ``*_rank`` arrays give each id's
    position in sorted order, so a caller orders rows by id without
    decoding them.
    """

    def __init__(self, entries):
        media_ids: list[str] = []
        media_row: dict[str, int] = {}
        template_code: dict[str, int] = {}
        subject_code: dict[str, int] = {}
        video_code: dict[str, int] = {}
        template_subjects, video_templates = array("i"), array("i")
        templates, subjects, videos = array("i"), array("i"), array("i")
        for media_id, subject_id, template_id, video_id in entries:
            if media_id in media_row:
                raise DataError(f"duplicate media id {media_id!r} in manifest")
            media_row[media_id] = len(media_ids)
            media_ids.append(media_id)
            s = subject_code.setdefault(subject_id, len(subject_code))
            t = template_code.setdefault(template_id, len(template_code))
            if t == len(template_subjects):
                template_subjects.append(s)
            elif template_subjects[t] != s:
                prior = list(subject_code)[template_subjects[t]]
                raise ConsistencyError(
                    f"template {template_id!r} mapped to subjects "
                    f"{prior!r} and {subject_id!r}"
                )
            v = -1
            if video_id is not None:
                v = video_code.setdefault(video_id, len(video_code))
                if v == len(video_templates):
                    video_templates.append(t)
                elif video_templates[v] != t:
                    prior = list(template_code)[video_templates[v]]
                    raise ConsistencyError(
                        f"video {video_id!r} spans templates {prior!r} "
                        f"and {template_id!r}"
                    )
            templates.append(t)
            subjects.append(s)
            videos.append(v)
        self.media_ids = tuple(media_ids)
        self.media_row = media_row
        self.template_code = template_code
        self.template_ids = tuple(template_code)
        self.subject_ids = tuple(subject_code)
        self.video_ids = tuple(video_code)
        self.template_codes = _frozen_codes(templates)
        self.subject_codes = _frozen_codes(subjects)
        self.video_codes = _frozen_codes(videos)
        self.template_subjects = _frozen_codes(template_subjects)

    def __len__(self) -> int:
        return len(self.media_ids)

    def rows_of(self, media_ids) -> np.ndarray:
        """The manifest row of each of ``media_ids``; UnknownIdError names
        the first that is not in the manifest."""
        try:
            return np.fromiter(map(self.media_row.__getitem__, media_ids), np.intp)
        except KeyError as exc:
            raise UnknownIdError(f"media id {exc.args[0]!r} not in manifest") from None

    @cached_property
    def media_rank(self) -> np.ndarray:
        """Per row, the position of its media id in sorted order."""
        return _sorted_rank(self.media_ids)

    @cached_property
    def subject_rank(self) -> np.ndarray:
        """Per subject code, the position of its id in sorted order."""
        return _sorted_rank(self.subject_ids)

    @cached_property
    def template_rank(self) -> np.ndarray:
        """Per template code, the position of its id in sorted order."""
        return _sorted_rank(self.template_ids)

    @cached_property
    def video_rank(self) -> np.ndarray:
        """Per video code, the position of its id in sorted order."""
        return _sorted_rank(self.video_ids)


def encode_pairs(pairs) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The ids of (a, b) ``pairs`` as str, in one table in order of first
    appearance, and each side's int32 codes into it."""
    index: dict[str, int] = {}
    codes_a, codes_b = array("i"), array("i")
    for a, b in pairs:
        codes_a.append(index.setdefault(str(a), len(index)))
        codes_b.append(index.setdefault(str(b), len(index)))
    return tuple(index), _frozen_codes(codes_a), _frozen_codes(codes_b)


@dataclass(frozen=True, init=False, eq=False)
class PairList:
    """Template pairs for 1:1 verification scoring, held as integer codes.

    ``codes_a`` and ``codes_b`` are int32 codes into the one table of
    distinct ids ``template_ids``; no pair is a self-pair. Iterating gives
    the (a, b) id pairs; ``pairs`` is them as a tuple, and
    ``template_ids_a`` and ``template_ids_b`` each side's ids, built when
    they are read.
    """

    template_ids: tuple[str, ...]
    codes_a: np.ndarray
    codes_b: np.ndarray

    def __init__(self, pairs=()):
        self._adopt(*encode_pairs(pairs))

    @classmethod
    def coded(cls, template_ids, codes_a, codes_b, **fields) -> "PairList":
        """The pairs ``template_ids[codes_a[i]], template_ids[codes_b[i]]``,
        with a subclass's further ``fields`` as keywords: the one checked
        way to build coded pairs. DataError for a repeated id, sides of
        unequal length or a code outside ``[0, len(template_ids))``."""
        template_ids = tuple(template_ids)
        if len(set(template_ids)) != len(template_ids):
            raise DataError("pair table repeats a template id")
        codes = [np.asarray(side) for side in (codes_a, codes_b)]
        if codes[0].shape != codes[1].shape or codes[0].ndim != 1:
            raise DataError("pair sides must be 1-D and of equal length")
        n = len(template_ids)
        for side in codes:
            if side.size and not 0 <= side.min() <= side.max() < n:
                bad = side[(side < 0) | (side >= n)][0]
                raise DataError(f"pair code {bad} outside [0, {n})")
        pairs = cls.__new__(cls)
        pairs._adopt(template_ids, *(_frozen_array(side, np.int32) for side in codes), **fields)
        return pairs

    def _adopt(self, template_ids, codes_a, codes_b, **fields) -> None:
        same = codes_a == codes_b
        if same.any():
            raise DataError(f"self-pair {template_ids[codes_a[np.argmax(same)]]!r}")
        object.__setattr__(self, "template_ids", template_ids)
        object.__setattr__(self, "codes_a", codes_a)
        object.__setattr__(self, "codes_b", codes_b)
        self._adopt_fields(**fields)

    def _adopt_fields(self) -> None:
        """Adopt a subclass's per-pair fields; a plain pair list has none."""

    def __len__(self) -> int:
        return self.codes_a.size

    def __iter__(self):
        return zip(_decoded(self.template_ids, self.codes_a),
                   _decoded(self.template_ids, self.codes_b))

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(self)

    @property
    def template_ids_a(self) -> tuple[str, ...]:
        return tuple(_decoded(self.template_ids, self.codes_a))

    @property
    def template_ids_b(self) -> tuple[str, ...]:
        return tuple(_decoded(self.template_ids, self.codes_b))


def binary_header(magic: bytes, fmt: str, *fields) -> bytearray:
    """The magic, the format version and the ``fmt``-packed header fields."""
    return bytearray(magic + struct.pack("<H", _VERSION) + struct.pack(fmt, *fields))


def binary_string(text: str, what: str) -> bytes:
    """``text`` as UTF-8 behind its u16 byte length."""
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise DataError(f"{what} too long to serialize ({len(raw)} bytes)")
    return struct.pack("<H", len(raw)) + raw


class BinaryReader:
    """Sequential reads over one open binary file, each bounded by its length.

    Opening checks the file's magic and version; the reader is a context
    manager that closes the file. Every read names its field, so a file
    that ends early raises TruncationError saying inside which field, and
    a string that is not UTF-8 raises FileFormatError naming it.
    """

    def __init__(self, path, magic: bytes, what: str):
        self.path = path
        self.file = open(path, "rb")
        try:
            self.size = os.fstat(self.file.fileno()).st_size
            if self.file.read(4) != magic:
                raise FileFormatError(f"{path}: not {what} (bad magic)")
            self.pos = 4
            (version,) = self.unpack("<H", "version")
            if version != _VERSION:
                raise FileFormatError(f"{path}: unsupported version {version}")
        except BaseException:
            self.file.close()
            raise

    def __enter__(self) -> "BinaryReader":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()

    @property
    def remaining(self) -> int:
        return self.size - self.pos

    def take(self, n: int, what: str) -> bytes:
        self.file.seek(self.pos)
        data = self.file.read(n) if n <= self.remaining else b""
        if len(data) < n:
            raise TruncationError(
                f"{self.path}: file ends inside {what} "
                f"(need {n} bytes at offset {self.pos})"
            )
        self.pos += n
        return data

    def peek_into(self, window) -> int:
        """Fill ``window`` with the bytes from the read position on, without
        moving past them; the count read, short only at the end of the file."""
        self.file.seek(self.pos)
        return self.file.readinto(window)

    def skip(self, n: int) -> None:
        """Move the read position past ``n`` bytes that ``peek_into`` read."""
        self.pos += n

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def string(self, what: str) -> str:
        (n,) = self.unpack("<H", f"{what} length")
        raw = self.take(n, what)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(
                f"{self.path}: {what} is not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None

    def end(self, what: str) -> None:
        """Refuse bytes left over after the last field, ``what``."""
        if self.remaining:
            raise FileFormatError(
                f"{self.path}: {self.remaining} trailing bytes after {what}"
            )


def write_file(path, parts) -> None:
    """Write the byte strings ``parts`` to ``path``, the one way a binary
    file is saved: they go to a new file beside it, which replaces
    ``path`` only once every part is written. So a save that is refused or
    fails part way leaves what ``path`` held, and a set still reading the
    file that is replaced keeps reading the old one. A part may also be an
    ``(offset, bytes)`` pair, which overwrites the bytes written at
    ``offset``, as a header patched once the parts before it are known."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(temp, "xb") as f:
            for part in parts:
                if isinstance(part, tuple):
                    f.seek(part[0])
                    f.write(part[1])
                    f.seek(0, os.SEEK_END)
                else:
                    f.write(part)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


# the file offset of a .cfeb header's record count: after the magic, the
# version and the dimension
_COUNT_AT = len(_MAGIC) + 2 + 4


def _records(model_id: str, dim: int, count: int, chunks):
    """The bytes of a .cfeb file of the records in ``chunks``, each a
    sequence of media ids and their rows, converted and written
    _GATHER_BLOCK records at a time. The header declares ``count``
    records; when the chunks hold fewer, a last part patches it."""
    yield binary_header(_MAGIC, "<IQ", dim, count)
    written = 0
    for media_ids, rows in chunks:
        for block in strides(len(rows), _GATHER_BLOCK):
            payload = np.ascontiguousarray(rows[block], dtype="<f4")
            out = bytearray()
            for media_id, row in zip(media_ids[block], payload):
                out += binary_string(media_id, "media id")
                out += row.tobytes()
            written += len(payload)
            yield out
    yield binary_string(model_id, "model id")
    if written != count:
        yield _COUNT_AT, struct.pack("<Q", written)


def save_rows(path, model_id: str, dim: int, count: int, chunks) -> None:
    """Write the .cfeb file of the ``(media_ids, rows)`` ``chunks`` through
    ``write_file``, a chunk at a time: its header declares ``count``
    records, and is patched to the records written if the chunks hold
    fewer, before the new file replaces ``path``."""
    write_file(path, _records(model_id, dim, count, chunks))


def save_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write the binary embedding format; float32 payload, little-endian.

    A set whose vectors are already float32 round-trips bit-exactly
    through save/load; float64 vectors are rounded to float32 on disk.
    The records go to the file _GATHER_BLOCK at a time, through
    ``write_file``, so a save holds that many records, not the file, and
    one refused for an id too long to serialize leaves ``path`` as it was.
    """
    save_rows(path, embeddings.model_id, embeddings.dim, len(embeddings),
              [(embeddings.media_ids, embeddings.vectors)])


def load_embeddings(path) -> EmbeddingSet:
    """Read a .cfeb file, validating structure and invariants.

    The records are scanned once, through one window of at most
    _READ_WINDOW bytes allocated once, for their ids and offsets; each
    window's vectors are checked finite in one gather. The set keeps the
    media ids, the
    file offset of each vector and the open file, as ``FileRows``, and no
    vector: its rows are read from the file when they are asked for. A
    record the window cannot hold whole, or one that is cut short or not
    UTF-8, is read again through the reader's checked fields.

    Raises FileFormatError on a bad magic/version or a string that is not
    UTF-8, TruncationError when the payload is shorter than the declared
    dimension and count, and then DataError on non-finite values or
    duplicate media ids.
    """
    with BinaryReader(path, _MAGIC, "an embedding file") as reader:
        dim, count = reader.unpack("<IQ", "dimension and record count")
        # each record is at least an id length and a vector; check before
        # allocating so a forged count cannot ask for more memory than the file
        if count * (2 + 4 * dim) > reader.remaining:
            raise TruncationError(
                f"{path}: header declares {count} records of dimension {dim}, "
                f"more than the {reader.remaining} bytes that follow"
            )
        row_bytes = 4 * dim
        media_ids, offsets, finite = [], array("q"), True
        window = bytearray(min(_READ_WINDOW, reader.remaining))
        view = memoryview(window)
        i = 0
        while i < count:
            filled, pos, first = reader.peek_into(view), 0, len(offsets)
            try:
                while i < count and pos + 2 <= filled:
                    start = pos + 2 + (window[pos] | window[pos + 1] << 8)
                    stop = start + row_bytes
                    if stop > filled:
                        break
                    media_ids.append(window[pos + 2 : start].decode("utf-8"))
                    offsets.append(reader.pos + start)
                    pos, i = stop, i + 1
            except UnicodeDecodeError:
                pass  # record i starts the next window, so is read below
            if finite and dim and len(offsets) > first:
                # the window's vectors in one gather, by their starts in it
                at = np.frombuffer(offsets[first:], dtype=np.int64) - reader.pos
                finite = bool(np.isfinite(_byte_rows(window, row_bytes)[at].view("<f4")).all())
            reader.skip(pos)
            if pos == 0:
                # record i is longer than the window, or is cut short or not
                # UTF-8: the checked fields read it or raise the error naming it
                media_ids.append(reader.string(f"record {i} id"))
                offsets.append(reader.pos)
                vector = np.frombuffer(reader.take(row_bytes, f"record {i} vector"), "<f4")
                finite = finite and bool(np.isfinite(vector).all())
                i += 1
        model_id = reader.string("model id")
        reader.end("model id")
        if not finite:
            raise DataError(_NON_FINITE)
        vectors = FileRows(path, os.dup(reader.file.fileno()),
                           np.frombuffer(offsets, dtype=np.int64), dim)
    return EmbeddingSet(model_id=model_id, media_ids=tuple(media_ids), vectors=vectors)


_MANIFEST_HEADER = ["media_id", "subject_id", "template_id", "video_id"]
_PAIRS_HEADER = ["template_id_a", "template_id_b"]


def csv_rows(f, path):
    """The rows of an open CSV file; one that does not parse as CSV or is
    not UTF-8 raises FileFormatError at ``path:line``."""
    reader = csv.reader(f)
    try:
        yield from reader
    except csv.Error as exc:
        raise FileFormatError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        # the reader has not yet had the lines before the bad byte in its chunk
        line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
        raise FileFormatError(f"{path}:{line}: not UTF-8 ({exc.reason})") from None


def _csv_table(path, header: list[str], what: str):
    """The non-empty rows under ``header``, each as wide as it."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = csv_rows(f, path)
        if next(rows, None) != header:
            raise FileFormatError(f"{path}: {what} header must be {','.join(header)}")
        for lineno, row in enumerate(rows, start=2):
            if len(row) == len(header):
                yield row
            elif row:
                raise FileFormatError(
                    f"{path}:{lineno}: expected {len(header)} columns"
                )


def load_manifest(path) -> MediaManifest:
    """Read a manifest CSV; an empty video_id is an image."""
    return MediaManifest(
        (media_id, subject_id, template_id, video_id or None)
        for media_id, subject_id, template_id, video_id in _csv_table(
            path, _MANIFEST_HEADER, "manifest"
        )
    )


def save_manifest(manifest: MediaManifest, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(_MANIFEST_HEADER)
        writer.writerows(zip(
            manifest.media_ids,
            _decoded(manifest.subject_ids, manifest.subject_codes),
            _decoded(manifest.template_ids, manifest.template_codes),
            _decoded(manifest.video_ids + ("",), manifest.video_codes),
        ))


def load_pairs(path, manifest: MediaManifest | None = None) -> PairList:
    """Read a pair CSV into codes; with a manifest, every id must resolve
    to a template. The ids are checked in the order they first appear,
    row by row and side a before side b."""
    template_ids, codes_a, codes_b = encode_pairs(_csv_table(path, _PAIRS_HEADER, "pair"))
    if manifest is not None:
        for tid in template_ids:
            if tid not in manifest.template_code:
                raise UnknownIdError(f"pair references unknown template {tid!r}")
    return PairList.coded(template_ids, codes_a, codes_b)


def save_pairs(pairs: PairList, path) -> None:
    write_pair_csv(pairs, path)


def write_pair_csv(pairs: PairList, path, **columns) -> None:
    """Write the pair CSV header followed by the names of ``columns``, then
    a row per pair: its two template ids and its entry of each column, a
    function from a slice of the pairs to their entries. Rows are decoded
    and written a ``pair_chunks`` piece at a time, so no list over every
    pair is built."""
    ids = pairs.template_ids
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(_PAIRS_HEADER + list(columns))
        for piece in pair_chunks(len(pairs)):
            writer.writerows(zip(_decoded(ids, pairs.codes_a[piece]),
                                 _decoded(ids, pairs.codes_b[piece]),
                                 *(column(piece) for column in columns.values())))


def aligned_rows(a: EmbeddingSet, b: EmbeddingSet) -> tuple[np.ndarray, np.ndarray]:
    """The row indices into ``a`` and into ``b`` of the media the two sets
    share, ordered lexicographically by media id, so every alignment is
    independent of either set's on-disk order. Raises AlignmentError when
    the sets share no media."""
    common = sorted(set(a.media_ids) & set(b.media_ids))
    if not common:
        raise AlignmentError(
            f"no shared media ids between {a.model_id!r} and {b.model_id!r}"
        )
    return tuple(
        np.fromiter(map(dict(zip(s.media_ids, range(len(s)))).__getitem__, common),
                    np.intp, len(common))
        for s in (a, b)
    )


def align_pairs(a: EmbeddingSet, b: EmbeddingSet) -> tuple[np.ndarray, np.ndarray]:
    """Row-aligned float64 matrices over the media-id intersection, in the
    order of ``aligned_rows``, gathered through ``float_rows``. Raises
    AlignmentError when the sets share no media.
    """
    rows_a, rows_b = aligned_rows(a, b)
    return float_rows(a.vectors, rows_a), float_rows(b.vectors, rows_b)
