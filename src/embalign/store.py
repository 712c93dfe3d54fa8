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

Vectors are serialized as 32-bit floats, little-endian. Everything
downstream promotes to 64-bit before doing arithmetic.

A load reads the records in one pass and copies the vector payload once,
into the array the set keeps. Sets do not copy an array that is already
read-only and that nothing writable can reach (``_frozen_array``), so the
library's producers (load, restrict, map application, templates) mark
their fresh arrays read-only and hand them over. ``float_chunks`` is the
one chunked float64 row reader: over the row slices of ``row_chunks`` it
yields an array's rows, or the rows an index picks, as float64 in one
reused buffer, so no row loop makes a full-size temporary. Row norms
(``row_norms``), ``align_pairs`` (through ``float_rows``), the fit's
statistics and residuals, map application and pair scoring all read
through it; a save writes its records a ``row_chunks`` chunk at a time.
``aligned_rows`` gives the one row order of two sets' shared media, sorted
by media id, that every fit takes.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

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
# rows per fancy-indexed copy when float_chunks gathers rows into float64
_GATHER_BLOCK = 512


def _frozen_array(values, dtype=None) -> np.ndarray:
    """``values`` as a read-only array that nothing writable can reach, so
    dataclass instances stay immutable.

    A read-only ndarray of ``dtype`` that owns its data, or whose chain of
    bases ends in immutable ``bytes``, is adopted as it is: a producer
    that marks its fresh array read-only hands it over. Any other value,
    a read-only view of a writable array included, is copied.
    """
    if type(values) is np.ndarray and not values.flags.writeable:
        base = values.base
        while isinstance(base, np.ndarray):
            base = base.base
        if (dtype is None or values.dtype == dtype) and (
            values.flags.owndata or type(base) is bytes
        ):
            return values
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def row_chunks(n: int) -> list[slice]:
    """Near-equal consecutive slices of at most _ROW_CHUNK rows covering n
    rows, so no chunk is a short remainder: a few rows can take a BLAS
    small-matrix kernel, whose products differ in the last bit from GEMM's."""
    count = -(-n // _ROW_CHUNK)
    return [slice(n * k // count, n * (k + 1) // count) for k in range(count)]


def float_chunks(vectors: np.ndarray, index: np.ndarray | None = None):
    """For each slice ``rows`` of ``row_chunks``, ``(rows, chunk)``: the
    float64 rows ``vectors[index[rows]]``, or ``vectors[rows]`` without an
    index, in one buffer reused for every chunk, so a chunk is valid only
    until the next is taken. The buffer holds the longest chunk; indexed
    rows are gathered _GATHER_BLOCK at a time, so the fancy-indexed copy
    before the cast stays small."""
    chunks = row_chunks(len(vectors) if index is None else index.size)
    longest = max((rows.stop - rows.start for rows in chunks), default=0)
    buffer = np.empty((longest, vectors.shape[1]))
    for rows in chunks:
        chunk = buffer[: rows.stop - rows.start]
        if index is None:
            chunk[...] = vectors[rows]
        else:
            part = index[rows]
            for start in range(0, part.size, _GATHER_BLOCK):
                block = slice(start, start + _GATHER_BLOCK)
                chunk[block] = vectors[part[block]]
        yield rows, chunk


def float_rows(vectors: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """The rows of ``float_chunks`` as one new float64 array."""
    rows = np.empty((len(vectors) if index is None else index.size, vectors.shape[1]))
    for chunk_rows, chunk in float_chunks(vectors, index):
        rows[chunk_rows] = chunk
    return rows


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The float64 L2 norm of each row of a 2-D array.

    Computed as sqrt(add.reduce(c * c, axis=1)) over the chunks of
    ``float_chunks``: bit for bit what ``np.linalg.norm(rows, axis=1)``
    gives on the rows as float64, without its two full-size temporaries.
    """
    norms = np.empty(rows.shape[0])
    for chunk_rows, chunk in float_chunks(rows):
        chunk *= chunk
        np.add.reduce(chunk, axis=1, out=norms[chunk_rows])
    return np.sqrt(norms, out=norms)


@dataclass(frozen=True)
class EmbeddingSet:
    """A matrix of d-dimensional embedding vectors keyed by media id.

    ``vectors`` is an (n, dim) float32 or float64 array; row i belongs to
    ``media_ids[i]``. ``dropped`` records media excluded by an upstream
    step (e.g. degenerate rows removed by map application); it is derived
    metadata and is not serialized.
    """

    model_id: str
    media_ids: tuple[str, ...]
    vectors: np.ndarray
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
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
        if not np.all(np.isfinite(self.vectors)):
            raise DataError("embedding vectors contain non-finite values")
        if len(set(self.media_ids)) != len(self.media_ids):
            raise DataError("duplicate media ids in embedding set")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def normalized(self) -> bool:
        """True when every row has unit L2 norm within 1e-6."""
        if len(self) == 0:
            return True
        norms = row_norms(self.vectors)
        return bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL))

    def __len__(self) -> int:
        return len(self.media_ids)

    def index_of(self, media_id: str) -> int:
        try:
            return self._index[media_id]
        except AttributeError:
            index = {mid: i for i, mid in enumerate(self.media_ids)}
            object.__setattr__(self, "_index", index)
            return index[media_id]

    def restrict(self, media_ids) -> "EmbeddingSet":
        """Row subset over the given ids, preserving this set's row order."""
        keep = np.fromiter(
            map(set(media_ids).__contains__, self.media_ids), bool, len(self)
        )
        vectors = self.vectors[keep]
        vectors.setflags(write=False)
        return EmbeddingSet(
            model_id=self.model_id,
            media_ids=tuple(compress(self.media_ids, keep.tolist())),
            vectors=vectors,
        )


@dataclass(frozen=True)
class MediaEntry:
    media_id: str
    subject_id: str
    template_id: str
    video_id: str | None = None


class MediaManifest:
    """Per-media metadata: subject, template, and optional video grouping.

    Validates on construction that media ids are unique, that each
    template id maps to exactly one subject, and that all media sharing a
    video id share a template id.
    """

    def __init__(self, entries):
        entries = tuple(entries)
        by_media: dict[str, MediaEntry] = {}
        template_subject: dict[str, str] = {}
        template_media: dict[str, list[str]] = {}
        video_template: dict[str, str] = {}
        for e in entries:
            if e.media_id in by_media:
                raise DataError(f"duplicate media id {e.media_id!r} in manifest")
            by_media[e.media_id] = e
            prior = template_subject.get(e.template_id)
            if prior is not None and prior != e.subject_id:
                raise ConsistencyError(
                    f"template {e.template_id!r} mapped to subjects "
                    f"{prior!r} and {e.subject_id!r}"
                )
            template_subject[e.template_id] = e.subject_id
            template_media.setdefault(e.template_id, []).append(e.media_id)
            if e.video_id is not None:
                vt = video_template.get(e.video_id)
                if vt is not None and vt != e.template_id:
                    raise ConsistencyError(
                        f"video {e.video_id!r} spans templates {vt!r} "
                        f"and {e.template_id!r}"
                    )
                video_template[e.video_id] = e.template_id
        self.entries = entries
        self.by_media = by_media
        self.template_subject = template_subject
        self.template_media = {t: tuple(m) for t, m in template_media.items()}

    def __len__(self) -> int:
        return len(self.entries)

    def subject_of_media(self, media_id: str) -> str:
        entry = self.by_media.get(media_id)
        if entry is None:
            raise UnknownIdError(f"media id {media_id!r} not in manifest")
        return entry.subject_id


@dataclass(frozen=True)
class PairList:
    """Template pairs for 1:1 verification scoring."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        pairs = tuple((str(a), str(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for a, b in pairs:
            if a == b:
                raise DataError(f"self-pair {a!r}")

    def __len__(self) -> int:
        return len(self.pairs)


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
    """Sequential reads over one binary file, each bounded by its length.

    Opening reads the file and checks its magic and version. Every read
    names its field, so a file that ends early raises TruncationError
    saying inside which field, and a string that is not UTF-8 raises
    FileFormatError naming it.
    """

    def __init__(self, path, magic: bytes, what: str):
        self.path = path
        self.data = Path(path).read_bytes()
        self.buf = memoryview(self.data)
        if self.buf[:4] != magic:
            raise FileFormatError(f"{path}: not {what} (bad magic)")
        self.pos = 4
        (version,) = self.unpack("<H", "version")
        if version != _VERSION:
            raise FileFormatError(f"{path}: unsupported version {version}")

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.pos

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self.buf) - self.pos:
            raise TruncationError(
                f"{self.path}: file ends inside {what} "
                f"(need {n} bytes at offset {self.pos})"
            )
        self.pos += n
        return self.buf[self.pos - n : self.pos]

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


def save_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write the binary embedding format; float32 payload, little-endian.

    A set whose vectors are already float32 round-trips bit-exactly
    through save/load; float64 vectors are rounded to float32 on disk.
    The records go to the open file a ``row_chunks`` chunk at a time, so
    a save holds one chunk's records, not the file. A save refused for an
    id too long to serialize leaves no file behind.
    """
    try:
        with open(path, "wb") as f:
            f.write(binary_header(_MAGIC, "<IQ", embeddings.dim, len(embeddings)))
            for rows in row_chunks(len(embeddings)):
                payload = np.ascontiguousarray(embeddings.vectors[rows], dtype="<f4")
                out = bytearray()
                for media_id, row in zip(embeddings.media_ids[rows], payload):
                    out += binary_string(media_id, "media id")
                    out += row.tobytes()
                f.write(out)
            f.write(binary_string(embeddings.model_id, "model id"))
    except DataError:
        Path(path).unlink()
        raise


def load_embeddings(path) -> EmbeddingSet:
    """Read a .cfeb file, validating structure and invariants.

    Raises FileFormatError on a bad magic/version or a string that is not
    UTF-8, TruncationError when the payload is shorter than the declared
    dimension and count, and DataError on non-finite values or duplicate
    media ids.
    """
    reader = BinaryReader(path, _MAGIC, "an embedding file")
    dim, count = reader.unpack("<IQ", "dimension and record count")
    # each record is at least an id length and a vector; check before
    # allocating so a forged count cannot ask for more memory than the file
    if count * (2 + 4 * dim) > reader.remaining:
        raise TruncationError(
            f"{path}: header declares {count} records of dimension {dim}, "
            f"more than the {reader.remaining} bytes that follow"
        )
    row_bytes = 4 * dim
    vectors = np.empty((count, dim), dtype="<f4")
    rows = memoryview(vectors.reshape(-1).view(np.uint8))
    media_ids = []
    data, buf, pos = reader.data, reader.buf, reader.pos
    try:
        for i in range(count):
            start = pos + 2 + (data[pos] | data[pos + 1] << 8)
            stop = start + row_bytes
            if stop > len(data):
                raise IndexError  # the record runs past the end of the file
            media_ids.append(data[pos + 2 : start].decode("utf-8"))
            rows[i * row_bytes : (i + 1) * row_bytes] = buf[start:stop]
            pos = stop
    except (IndexError, UnicodeDecodeError):
        # the reader reads the failing record again and raises the error
        # that names its field
        reader.pos = pos
        reader.string(f"record {i} id")
        reader.take(row_bytes, f"record {i} vector")
        raise
    reader.pos = pos
    model_id = reader.string("model id")
    reader.end("model id")
    vectors.setflags(write=False)
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
    return MediaManifest(
        MediaEntry(media_id, subject_id, template_id, video_id or None)
        for media_id, subject_id, template_id, video_id in _csv_table(
            path, _MANIFEST_HEADER, "manifest"
        )
    )


def save_manifest(manifest: MediaManifest, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(_MANIFEST_HEADER)
        for e in manifest.entries:
            writer.writerow([e.media_id, e.subject_id, e.template_id, e.video_id or ""])


def load_pairs(path, manifest: MediaManifest | None = None) -> PairList:
    """Read a pair CSV; with a manifest, every id must resolve to a template."""
    pairs = [(a, b) for a, b in _csv_table(path, _PAIRS_HEADER, "pair")]
    if manifest is not None:
        known = manifest.template_subject
        for a, b in pairs:
            for tid in (a, b):
                if tid not in known:
                    raise UnknownIdError(f"pair references unknown template {tid!r}")
    return PairList(pairs=tuple(pairs))


def save_pairs(pairs: PairList, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(_PAIRS_HEADER)
        writer.writerows(pairs.pairs)


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
        np.fromiter(map(s.index_of, common), np.intp, len(common)) for s in (a, b)
    )


def align_pairs(a: EmbeddingSet, b: EmbeddingSet) -> tuple[np.ndarray, np.ndarray]:
    """Row-aligned float64 matrices over the media-id intersection, in the
    order of ``aligned_rows``, gathered through ``float_rows``. Raises
    AlignmentError when the sets share no media.
    """
    rows_a, rows_b = aligned_rows(a, b)
    return float_rows(a.vectors, rows_a), float_rows(b.vectors, rows_b)
