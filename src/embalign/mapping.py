"""Fitting, applying, and serializing maps between embedding spaces.

Three map kinds are supported, all in row-vector convention
(``mapped = rows @ matrix`` with matrix shape d_a x d_b):

* linear - the ordinary least-squares minimizer of
  sum_i ||x_i M - y_i||^2. A fit with at least as many samples as
  dimensions whose Gram matrix X^T X is well conditioned (smallest
  eigenvalue above GRAM_RCOND times the largest, so cond(X) < ~316) is
  solved from the eigendecomposition of that d x d Gram: the normal
  equations, whose relative error of a few cond(X)^2 * eps stays under
  1e-9 there. Every other fit (m < d, rank-deficient or ill-conditioned)
  goes through an SVD pseudoinverse of the m x d design, so
  rank-deficient fits return the minimum-Frobenius-norm solution.
* rotation - the optimal rotation about the origin: SVD of the
  uncentered cross-covariance X^T Y = U S Vh, recomposed as
  M = U I' Vh with I' = diag(1, ..., 1, det(U) * det(Vh)). The last
  diagonal entry (direction of least variance) flips sign exactly when
  needed to keep det(M) = +1, so reflections are never returned.
* identity - the d x d identity baseline.

Neither fit carries a bias term; point sets are deliberately left in
their original translation because embeddings live on the unit
hypersphere around the origin.

Every loop over rows here reads them through ``store.float_chunks``, the
one chunked float64 row reader: rows are ``(vectors, index)`` pairs, the
two sets' vectors with the row indices of their shared media in
``_shared_fits`` and the input arrays with no index in ``fit_linear`` and
``fit_rotation``.
Both fits read their rows once, summing the sufficient statistics X^T Y,
||X||^2, ||Y||^2 and, for linear fits, X^T X, so on the Gram and rotation
routes a fit holds its inputs plus O(chunk x d + d^2) and builds no m x d
design matrix; only the SVD route does, through ``store.float_rows``. The
residual comes from the same statistics in closed form unless that has
lost its digits to cancellation (below CLOSED_FORM_FLOOR of ||Y||^2),
when an explicit pass over the rows recomputes it. A fit is its
statistics (``_moments``) and a solve from them (``_solve``). Every fit
of two sets goes through ``_shared_fits``: ``fit`` is its one fit over
one target, and the grid's fits of one source share the statistics, one
X^T Y pass per target for every kind and one X^T X and eigendecomposition
per source.
Maps are applied a chunk at a time by ``mapped_chunks``, from the same
reader through ``store.float_products``, one GEMM per chunk of the rows
``float_chunks`` gives, and normalized by ``store.unit_rows``:
``apply_map`` collects its chunks, ``save_mapped`` writes each to a file
as it comes, and the attack ranks each as it comes.

Map file (.cfem), in the header and string codec of ``store``:
    magic "CFEM" | version u16=1 | kind u8 (0=linear,1=rotation,2=identity) |
    d_a u32 | d_b u32 | d_a*d_b float64 LE row-major |
    source_model_id { len u16, UTF-8 } | target_model_id { len u16, UTF-8 } |
    fit_sample_count u64
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import CorruptMapError, DataError, DimensionError, FileFormatError
from .store import (
    _NON_FINITE,
    BinaryReader,
    EmbeddingSet,
    aligned_rows,
    all_finite,
    binary_header,
    binary_string,
    float_chunks,
    float_products,
    float_rows,
    save_rows,
    unit_rows,
    write_file,
)

LINEAR = "linear"
ROTATION = "rotation"
IDENTITY = "identity"
MAP_KINDS = (LINEAR, ROTATION, IDENTITY)

ORTHOGONALITY_TOL = 1e-8
# relative cutoff below which singular values of the design matrix are dropped
SVD_RCOND = 1e-10
# smallest Gram eigenvalue, relative to the largest, for which a linear fit
# is solved from the Gram: cond(X) < 1 / sqrt(GRAM_RCOND), about 316
GRAM_RCOND = 1e-5
# least closed-form residual sum of squares, relative to ||Y||^2, that a
# fit reports; a smaller one is recomputed by the explicit pass
CLOSED_FORM_FLOOR = 1e-4

_MAP_MAGIC = b"CFEM"
_KIND_CODES = {LINEAR: 0, ROTATION: 1, IDENTITY: 2}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}


@dataclass(frozen=True, eq=False)
class MappingMatrix:
    """A d_a x d_b map between two embedding spaces plus fit metadata. A
    map equals only itself."""

    kind: str
    source_model_id: str
    target_model_id: str
    matrix: np.ndarray
    fit_sample_count: int

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise DataError(f"unknown map kind {self.kind!r}")
        mat = np.array(self.matrix, dtype=np.float64, copy=True)
        if mat.ndim != 2:
            raise DataError(f"map matrix must be 2-D, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise DataError("map matrix contains non-finite entries")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.kind == ROTATION:
            if mat.shape[0] != mat.shape[1]:
                raise DimensionError(
                    f"rotation map must be square, got {mat.shape[0]}x{mat.shape[1]}"
                )
            gram = mat.T @ mat
            if not np.allclose(gram, np.eye(mat.shape[0]), atol=ORTHOGONALITY_TOL):
                raise DataError("rotation map is not orthogonal within 1e-8")
            det = float(np.linalg.det(mat))
            if abs(det - 1.0) > ORTHOGONALITY_TOL:
                raise DataError(f"rotation map determinant {det} is not +1")
        elif self.kind == IDENTITY:
            if mat.shape[0] != mat.shape[1] or not np.array_equal(
                mat, np.eye(mat.shape[0])
            ):
                raise DataError("identity map matrix must be the identity")

    @property
    def d_a(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def d_b(self) -> int:
        return int(self.matrix.shape[1])


@dataclass(frozen=True)
class FitReport:
    """Fit summary: sample count, per-row RMS residual, and, for linear
    fits, the ratio of the largest to smallest retained singular value of
    the design matrix. A fit solved from the Gram takes it from the Gram's
    eigenvalues, as sqrt(w_max / w_min), equal to that ratio up to
    rounding. The identity baseline fits nothing: m is 0 and the residual
    None."""

    kind: str
    m: int
    residual_rms: float | None
    condition_diagnostic: float | None = None

    def __post_init__(self):
        if self.m < 1 and self.kind != IDENTITY:
            raise DataError("fit reports require at least one sample")
        if self.residual_rms is not None and self.residual_rms < 0:
            raise DataError("residual RMS cannot be negative")

    def to_dict(self) -> dict:
        return asdict(self)


def _fit_inputs(source_rows, target_rows) -> tuple[np.ndarray, np.ndarray]:
    """The two row matrices, a float32 or float64 array as it is (its rows
    are read as float64 a chunk at a time) and anything else as float64."""
    x, y = (rows if isinstance(rows, np.ndarray) and rows.dtype in (np.float32, np.float64)
            else np.asarray(rows, dtype=np.float64) for rows in (source_rows, target_rows))
    if x.ndim != 2 or y.ndim != 2:
        raise DataError("fit inputs must be 2-D row matrices")
    if not (all_finite(x) and all_finite(y)):
        raise DataError("fit inputs contain non-finite values")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(
            f"source has {x.shape[0]} rows but target has {y.shape[0]}"
        )
    if x.shape[0] < 1:
        raise ValueError("fitting requires at least one row pair")
    return x, y


class _Gram:
    """X^T X of a fit's source rows, and its eigendecomposition (w, V),
    taken on first use, so sources that serve many fits take it once."""

    def __init__(self, xtx: np.ndarray):
        self.xtx = xtx

    @cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.xtx)


@dataclass(frozen=True)
class _Moments:
    """The sufficient statistics of m paired rows: X^T Y, ||X||^2, ||Y||^2
    and, for linear fits, the Gram of X."""

    m: int
    xty: np.ndarray
    xx: float
    yy: float
    gram: _Gram | None


def _moments(x, y, gram: bool) -> _Moments:
    """The sums of ``_Moments`` over the chunks of ``float_chunks`` of the
    ``(vectors, index)`` pairs ``x`` and ``y``, each started from the first
    chunk's products: at m <= 4096 there is one chunk, with the bits of the
    same products on the whole design. X^T X is summed only with ``gram``."""
    sums = None
    for (rows, xc), (_, yc) in zip(float_chunks(*x), float_chunks(*y)):
        terms = [xc.T @ yc, np.array([np.vdot(xc, xc), np.vdot(yc, yc)])]
        if gram:
            terms.append(xc.T @ xc)
        if sums is None:
            sums = terms
        else:
            for total, term in zip(sums, terms):
                total += term
    xty, (xx, yy), *xtx = sums
    return _Moments(rows.stop, xty, float(xx), float(yy), _Gram(xtx[0]) if gram else None)


def _residual_rms(x, matrix: np.ndarray, y) -> float:
    """sqrt of the mean over rows of ||x_i M - y_i||^2, for the
    ``(vectors, index)`` pairs ``x`` and ``y``.

    Rows go through in the near-equal chunks of ``float_chunks``, so a
    fit's working set stays O(chunk x d + d^2) and every chunk's product
    has the bits of its rows inside one GEMM.
    """
    squared = []
    for (_, xc), (_, yc) in zip(float_chunks(*x), float_chunks(*y)):
        diff = xc @ matrix
        diff -= yc
        diff *= diff
        squared.append(np.sum(diff, axis=1))
    return float(np.sqrt(np.mean(np.concatenate(squared))))


def _normal_solve(moments: _Moments) -> tuple[np.ndarray, float] | None:
    """The least-squares map from the eigendecomposition X^T X = V W V^T,
    M = V W^-1 V^T X^T Y, with the condition sqrt(w_max / w_min); None
    when m < d or w_min is not above GRAM_RCOND * w_max."""
    if moments.m < moments.gram.xtx.shape[0]:
        return None
    w, v = moments.gram.eigen
    if not w[0] > GRAM_RCOND * w[-1]:
        return None
    matrix = v @ ((v.T @ moments.xty) / w[:, None])
    return matrix, float(np.sqrt(w[-1] / w[0]))


def _svd_solve(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """The minimum-norm least-squares map through the SVD pseudoinverse of
    X, with the ratio of its largest to smallest retained singular value."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.size and s[0] > 0:
        keep = s > SVD_RCOND * s[0]
    else:
        keep = np.zeros(s.shape, dtype=bool)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    matrix = vt.T @ (inv[:, None] * (u.T @ y))
    retained = s[keep]
    cond = float(retained[0] / retained[-1]) if retained.size else float("inf")
    return matrix, cond


def _rotation_solve(xty: np.ndarray) -> np.ndarray:
    """U I' Vh from the SVD X^T Y = U S Vh, with I' = diag(1, ..., 1,
    det(U) * det(Vh)) so the result is a proper rotation."""
    u, _, vt = np.linalg.svd(xty)
    sign = 1.0 if float(np.linalg.det(u)) * float(np.linalg.det(vt)) >= 0 else -1.0
    u_corrected = u.copy()
    u_corrected[:, -1] *= sign
    return u_corrected @ vt


def _check_dims(kind: str, d_x: int, d_y: int) -> None:
    if min(d_x, d_y) < 1:
        raise DimensionError(f"fitting needs dimensions of at least 1, got {d_x} and {d_y}")
    if kind == ROTATION and d_x != d_y:
        raise DimensionError(f"rotation requires equal dimensions, got {d_x} and {d_y}")


def _solve(kind: str, moments: _Moments, x, y, ids: dict) -> tuple[MappingMatrix, FitReport]:
    """A linear or rotation fit from the ``moments`` of the ``(vectors,
    index)`` pairs ``x`` and ``y``; only the SVD route gathers them into
    float64 design matrices, through ``float_rows``.

    The residual's sum of squares is taken in closed form from the
    moments, ||Y||^2 - 2 <M, X^T Y> + <M, X^T X M> (linear) or ||X||^2 +
    ||Y||^2 - 2 <R, X^T Y> (rotation), when it is at least
    CLOSED_FORM_FLOOR * ||Y||^2; a smaller one has lost too many digits
    to cancellation, and the explicit ``_residual_rms`` pass runs instead,
    as it does on the SVD route.
    """
    cond = closed = None
    if kind == ROTATION:
        matrix = _rotation_solve(moments.xty)
        closed = moments.xx + moments.yy - 2.0 * np.vdot(matrix, moments.xty)
    elif (solved := _normal_solve(moments)) is not None:
        matrix, cond = solved
        closed = (moments.yy - 2.0 * np.vdot(matrix, moments.xty)
                  + np.vdot(matrix, moments.gram.xtx @ matrix))
    else:
        matrix, cond = _svd_solve(float_rows(*x), float_rows(*y))
    if closed is not None and closed >= CLOSED_FORM_FLOOR * moments.yy:
        residual = float(np.sqrt(closed / moments.m))
    else:
        residual = _residual_rms(x, matrix, y)
    mapping = MappingMatrix(
        kind=kind, matrix=matrix, fit_sample_count=moments.m, **ids
    )
    return mapping, FitReport(kind, moments.m, residual, cond)


def _fit(kind: str, x, y, ids: dict) -> tuple[MappingMatrix, FitReport]:
    """``_solve`` from one ``_moments`` pass over ``fit_linear``'s or ``fit_rotation``'s arrays."""
    _check_dims(kind, x[0].shape[1], y[0].shape[1])
    return _solve(kind, _moments(x, y, gram=kind == LINEAR), x, y, ids)


def fit_linear(
    source_rows,
    target_rows,
    *,
    source_model_id: str = "",
    target_model_id: str = "",
) -> tuple[MappingMatrix, FitReport]:
    """Least-squares map M minimizing sum_i ||x_i M - y_i||^2.

    X^T X and X^T Y are summed over row chunks. With m >= d samples and a
    well-conditioned Gram (smallest eigenvalue of X^T X above GRAM_RCOND
    times the largest), M is solved from the d x d Gram's
    eigendecomposition, in O(m d^2) time and O(chunk x d + d^2) memory
    beyond the inputs; it agrees with the SVD solution to a few
    cond(X)^2 * eps relative, under 1e-9. Every other fit goes through the
    SVD of the design matrix with singular values below 1e-10 * sigma_max
    truncated, which yields the minimum-norm solution on rank-deficient
    inputs. Rectangular maps are permitted. The residual is guarded as
    in ``_solve``.
    """
    x, y = _fit_inputs(source_rows, target_rows)
    ids = {"source_model_id": source_model_id, "target_model_id": target_model_id}
    return _fit(LINEAR, (x, None), (y, None), ids)


def fit_rotation(
    source_rows,
    target_rows,
    *,
    source_model_id: str = "",
    target_model_id: str = "",
) -> tuple[MappingMatrix, FitReport]:
    """Optimal rotation about the origin between paired point sets.

    Sums the uncentered cross-covariance X^T Y over row chunks, takes its
    SVD and recomposes with unit singular values, flipping the sign of the
    last one when det(U) * det(Vh) = -1 so the result is always a proper
    rotation (det +1), never a reflection. Memory beyond the inputs is
    O(chunk x d + d^2); the residual is guarded as in ``_solve``.
    """
    x, y = _fit_inputs(source_rows, target_rows)
    ids = {"source_model_id": source_model_id, "target_model_id": target_model_id}
    return _fit(ROTATION, (x, None), (y, None), ids)


def identity_map(
    d: int, *, source_model_id: str = "", target_model_id: str = ""
) -> MappingMatrix:
    """The d x d identity baseline; applying it only renormalizes."""
    if d < 1:
        raise ValueError("identity map needs d >= 1")
    return MappingMatrix(
        kind=IDENTITY,
        source_model_id=source_model_id,
        target_model_id=target_model_id,
        matrix=np.eye(d),
        fit_sample_count=0,
    )


def check_kinds(kinds) -> list[str]:
    """``kinds`` as a list; ValueError naming the first that is not one of
    MAP_KINDS."""
    kinds = list(kinds)
    for kind in kinds:
        if kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {kind!r}")
    return kinds


def fit(
    kind: str, source: EmbeddingSet, target: EmbeddingSet
) -> tuple[MappingMatrix, FitReport]:
    """Fit a map of ``kind`` from ``source``'s space into ``target``'s:
    the one fit of ``_shared_fits`` over one target, so it refuses an
    unknown kind, then what ``_shared_fits`` refuses, in its order."""
    return next(_shared_fits(check_kinds([kind]), source, [target]))


def _shared_fits(kinds, source: EmbeddingSet, targets):
    """A (map, report) for each of ``targets`` and each of ``kinds`` in
    turn, from statistics the fits share: one pass per target sums X^T Y,
    ||X||^2 and ||Y||^2 for all its kinds, and the first also X^T X, which
    with its eigendecomposition serves every target.

    The identity needs equal dimensions and no samples. A linear or
    rotation fit takes the rows of the media the two sets share, in the
    order of ``aligned_rows``, and checks the dimensions before it sums
    any statistic. The Gram and rotation routes read those rows through
    ``float_chunks``, so a fit holds the two sets (for loaded sets, their
    ids) plus O(chunk x d + d^2); only the SVD route builds the float64
    design matrices, through ``float_rows``. Every target must hold the
    source's media, so that each alignment gives the source the same
    rows; this is asserted before the source's statistics are reused.
    """
    source_rows = gram = None
    for target in targets:
        ids = {"source_model_id": source.model_id, "target_model_id": target.model_id}
        x = moments = None
        for kind in kinds:
            if kind == IDENTITY:
                if source.dim != target.dim:
                    raise DimensionError(
                        f"identity map needs equal dimensions, got {source.dim} and {target.dim}"
                    )
                yield identity_map(source.dim, **ids), FitReport(IDENTITY, 0, None)
                continue
            if x is None:
                rows, target_rows = aligned_rows(source, target)
                x, y = (source.vectors, rows), (target.vectors, target_rows)
            _check_dims(kind, source.dim, target.dim)
            if moments is None:
                if source_rows is None:
                    source_rows = rows
                    moments = _moments(x, y, gram=LINEAR in kinds)
                    gram = moments.gram
                else:
                    assert np.array_equal(rows, source_rows), "targets hold other media"
                    moments = replace(_moments(x, y, gram=False), gram=gram)
            yield _solve(kind, moments, x, y, ids)


def mapped_chunks(mapping: MappingMatrix, embeddings: EmbeddingSet,
                  out: np.ndarray | None = None):
    """The set's rows mapped a ``row_chunks`` chunk at a time: for each
    chunk, ``(rows, chunk, keep)``, the product of ``store.float_products``
    (in ``out[rows]``, or without ``out`` in one buffer reused for every
    chunk) made unit length in place by ``store.unit_rows``, and the mask
    of the rows it kept. A chunk has the same bits either way.
    DimensionError, at once, for a set that does not fit the map."""
    if embeddings.dim != mapping.d_a:
        raise DimensionError(
            f"set dimension {embeddings.dim} does not match map input {mapping.d_a}"
        )
    return ((rows, chunk, unit_rows(chunk))
            for rows, chunk in float_products(embeddings.vectors, mapping.matrix, out))


def apply_map(mapping: MappingMatrix, embeddings: EmbeddingSet) -> EmbeddingSet:
    """Map every vector and L2-normalize the result.

    ``mapped_chunks`` maps the rows a chunk at a time straight into one
    float64 output: no float64 copy of the whole input is made.

    The output is tagged with the map's target model id and keeps media
    ids and row order. Rows whose mapped norm falls below 1e-12 have no
    direction to normalize; they are excluded and reported on the output
    set's ``dropped`` field.
    """
    mapped = np.empty((len(embeddings), mapping.d_b))
    keep = np.empty(len(embeddings), dtype=bool)
    for rows, _, kept in mapped_chunks(mapping, embeddings, mapped):
        keep[rows] = kept
    media_ids = embeddings.media_ids
    dropped = tuple(media_ids[i] for i in np.flatnonzero(~keep))
    if dropped:
        media_ids = tuple(compress(media_ids, keep.tolist()))
        mapped = mapped[keep]
    mapped.setflags(write=False)
    return EmbeddingSet(
        model_id=mapping.target_model_id,
        media_ids=media_ids,
        vectors=mapped,
        dropped=dropped,
    )


def save_mapped(mapping: MappingMatrix, embeddings: EmbeddingSet,
                path) -> tuple[int, tuple[str, ...]]:
    """``save_embeddings(apply_map(mapping, embeddings), path)`` a chunk of
    ``mapped_chunks`` at a time: each chunk's kept rows are written as
    they are mapped, through ``store.save_rows``, so no mapped set is held
    and every row has the bits ``apply_map`` gives it. The count of rows
    written and the media ids dropped."""
    chunks = mapped_chunks(mapping, embeddings)
    dropped: list[str] = []

    def kept():
        for rows, chunk, keep in chunks:
            media_ids = embeddings.media_ids[rows]
            if not keep.all():
                dropped.extend(compress(media_ids, (~keep).tolist()))
                media_ids, chunk = tuple(compress(media_ids, keep.tolist())), chunk[keep]
            if not all_finite(chunk):
                raise DataError(_NON_FINITE)
            yield media_ids, chunk

    save_rows(path, mapping.target_model_id, mapping.d_b, len(embeddings), kept())
    return len(embeddings) - len(dropped), tuple(dropped)


def save_map(mapping: MappingMatrix, path) -> None:
    code = _KIND_CODES[mapping.kind]
    out = binary_header(_MAP_MAGIC, "<BII", code, mapping.d_a, mapping.d_b)
    out += np.ascontiguousarray(mapping.matrix, dtype="<f8").tobytes()
    out += binary_string(mapping.source_model_id, "source model id")
    out += binary_string(mapping.target_model_id, "target model id")
    out += int(mapping.fit_sample_count).to_bytes(8, "little")
    write_file(path, [out])


def load_map(path) -> MappingMatrix:
    """Read a .cfem file, revalidating the kind's invariants.

    A rotation map that fails the orthogonality or determinant check (or
    an identity map whose matrix is not the identity) raises
    CorruptMapError.
    """
    with BinaryReader(path, _MAP_MAGIC, "a map file") as reader:
        (code,) = reader.unpack("<B", "kind")
        if code not in _CODE_KINDS:
            raise FileFormatError(f"{path}: unknown kind code {code}")
        d_a, d_b = reader.unpack("<II", "dimensions")
        raw = reader.take(d_a * d_b * 8, "matrix payload")
        source_model_id = reader.string("source model id")
        target_model_id = reader.string("target model id")
        (fit_sample_count,) = reader.unpack("<Q", "fit sample count")
        reader.end("fit sample count")
    try:
        return MappingMatrix(
            kind=_CODE_KINDS[code],
            source_model_id=source_model_id,
            target_model_id=target_model_id,
            matrix=np.frombuffer(raw, dtype="<f8").reshape(d_a, d_b),
            fit_sample_count=fit_sample_count,
        )
    except (DataError, DimensionError) as exc:
        raise CorruptMapError(f"{path}: {exc}") from exc
