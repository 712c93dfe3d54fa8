import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eval as reference
from memory_gate import run_gate
from embalign import mapping as mapping_module
from embalign import (
    AlignmentError,
    CorruptMapError,
    DataError,
    DimensionError,
    EmbeddingSet,
    IDENTITY,
    LINEAR,
    MappingMatrix,
    ROTATION,
    align_pairs,
    apply_map,
    fit,
    fit_linear,
    fit_rotation,
    identity_map,
    load_map,
    SynthSpec,
    generate_world,
    random_rotation,
    save_map,
)
from embalign.store import _ROW_CHUNK, float_rows, row_norms


def objective(matrix, x, y):
    diff = x @ matrix - y
    return float(np.sum(diff * diff))


def rotation_2d(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


class TestFitLinear:
    @pytest.mark.parametrize("fit_rows", [fit_linear, fit_rotation])
    def test_float32_rows_read_a_chunk_at_a_time(self, fit_rows):
        # float64 copies of the two inputs would take 39 MiB; their rows
        # are read as float64 a row chunk at a time (measured: 8.4 MiB)
        n, dim = 20_000, 128
        x, y = np.random.default_rng(6).standard_normal((2, n, dim), dtype=np.float32)
        tracemalloc.start()
        try:
            fitted, report = fit_rows(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * _ROW_CHUNK * dim * 8, peak
        want, want_report = fit_rows(x.astype(np.float64), y.astype(np.float64))
        assert reference.same_bits(fitted.matrix, want.matrix)
        assert report == want_report

    def test_self_map_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 5))
        mapping, _ = fit_linear(x, x)
        assert np.allclose(mapping.matrix, np.eye(5), atol=1e-10)

    def test_recovers_planted_matrix(self):
        rng = np.random.default_rng(1)
        planted = rng.standard_normal((6, 4))
        x = rng.standard_normal((30, 6))
        y = x @ planted
        mapping, report = fit_linear(x, y)
        assert np.linalg.norm(mapping.matrix - planted) < 1e-8
        assert report.m == 30
        assert report.residual_rms < 1e-10

    def test_rectangular_shapes_allowed(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 1024))
        y = rng.standard_normal((40, 512))
        mapping, report = fit_linear(x, y)
        assert mapping.matrix.shape == (1024, 512)
        assert mapping.kind == LINEAR
        assert report.condition_diagnostic is not None

    def test_matches_normal_equations_on_full_rank(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((25, 6))
        y = rng.standard_normal((25, 3))
        mapping, _ = fit_linear(x, y)
        expected = np.linalg.solve(x.T @ x, x.T @ y)
        assert np.allclose(mapping.matrix, expected, atol=1e-8)

    def test_local_minimum_probe(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal((15, 3))
        mapping, _ = fit_linear(x, y)
        base = objective(mapping.matrix, x, y)
        for i in range(4):
            for j in range(3):
                for delta in (1e-3, -1e-3):
                    bumped = mapping.matrix.copy()
                    bumped[i, j] += delta
                    assert objective(bumped, x, y) >= base

    def test_rank_deficient_returns_minimum_norm(self):
        # two identical rows: infinitely many minimizers, pick smallest norm
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        y = np.array([[2.0], [2.0]])
        mapping, _ = fit_linear(x, y)
        assert np.allclose(mapping.matrix, [[2.0], [0.0]], atol=1e-10)

    def test_condition_diagnostic(self):
        design = np.array([[3.0, 0.0], [0.0, 1.0]])
        _, report = fit_linear(design, design)
        assert report.condition_diagnostic == pytest.approx(3.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            fit_linear([[np.nan, 0.0]], [[1.0, 0.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_linear(np.zeros((0, 2)), np.zeros((0, 2)))


# cond(X) at which the Gram route ends: its Gram's condition is 1 / GRAM_RCOND
GRAM_BOUND = float(np.sqrt(1.0 / mapping_module.GRAM_RCOND))


def planted_design(seed, m, d_a, d_b, cond, weak, noise):
    """x = U diag(s) V^T with orthonormal U (m x d_a), orthogonal V and
    singular values s from 1 down to 1 / cond, scaled together; ``weak``
    of them sit at 1 / cond and the rest are spread geometrically. y is x
    times a planted d_a x d_b map, plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, d_a)))
    v, _ = np.linalg.qr(rng.standard_normal((d_a, d_a)))
    s = np.geomspace(1.0, 1.0 / cond, d_a)
    s[d_a - weak:] = 1.0 / cond
    x = (u * (rng.uniform(0.1, 10.0) * s)) @ v.T
    y = x @ rng.standard_normal((d_a, d_b)) + noise * rng.standard_normal((m, d_b))
    return x, y


@st.composite
def designs(draw, cond):
    d_a = draw(st.integers(2, 24))
    d_b = draw(st.integers(1, 24))
    m = d_a * draw(st.sampled_from([1, 1, 2, 7, 40]))
    weak = draw(st.integers(1, d_a - 1))
    noise = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    return planted_design(draw(st.integers(0, 2**32 - 1)), m, d_a, d_b, draw(cond),
                          weak, noise)


UNDER_BOUND = st.one_of(
    st.floats(0.0, np.log10(0.99 * GRAM_BOUND)).map(lambda e: 10.0**e),
    st.sampled_from([1.0, 0.99 * GRAM_BOUND]),
)
OVER_BOUND = st.one_of(
    st.floats(np.log10(1.01 * GRAM_BOUND), 8.0).map(lambda e: 10.0**e),
    st.sampled_from([1.01 * GRAM_BOUND, 0.99e4, 1.01e4]),
)


def relative_gap(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def paired_sets(m, dim, seed, noise=0.1):
    """Float32 sets "A" and "B" that share m media, each with one medium
    of its own, in two unrelated row orders; B's rows are A's times a
    planted rotation plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    ids = [f"m{i:05d}" for i in range(m + 2)]
    x = rng.standard_normal((m + 2, dim))
    y = x @ random_rotation(dim, seed=seed).matrix + noise * rng.standard_normal((m + 2, dim))
    sets = []
    for name, rows, part in (("A", x, slice(0, m + 1)), ("B", y, slice(1, m + 2))):
        order = rng.permutation(np.arange(m + 2)[part])
        sets.append(EmbeddingSet(name, [ids[i] for i in order], rows[order].astype(np.float32)))
    return sets[0], sets[1]


def reordered(embeddings, seed):
    order = np.random.default_rng(seed).permutation(len(embeddings))
    return EmbeddingSet(embeddings.model_id, [embeddings.media_ids[i] for i in order],
                        embeddings.vectors[order])


def direct_rotation(x, y):
    """The rotation from one SVD of the whole X^T Y, with the determinant fix."""
    u, _, vt = np.linalg.svd(x.T @ y)
    u[:, -1] *= 1.0 if np.linalg.det(u) * np.linalg.det(vt) >= 0 else -1.0
    return u @ vt


def gram_solve(x, y):
    """fit_linear's Gram route on row arrays: its map and condition, or None
    where the fit takes the SVD."""
    moments = mapping_module._moments((x, None), (y, None), gram=True)
    return mapping_module._normal_solve(moments)


class TestGramRoute:
    """fit_linear solves well-conditioned fits with m >= d from the Gram,
    to 1e-9 of the SVD oracle, and every other fit through the SVD, to the
    oracle's bytes."""

    @settings(max_examples=300, deadline=None)
    @given(designs(UNDER_BOUND))
    def test_gram_route_matches_svd_oracle(self, design):
        x, y = design
        assert gram_solve(x, y) is not None
        got, report = fit_linear(x, y)
        want, want_report = reference.fit_linear_svd(x, y)
        assert relative_gap(got.matrix, want.matrix) <= 1e-9
        assert report.condition_diagnostic == pytest.approx(
            want_report.condition_diagnostic, rel=1e-6)
        # a residual at rounding level (noise 0) is compared on y's scale
        y_rms = float(np.sqrt(np.mean(np.sum(y * y, axis=1))))
        assert report.residual_rms == pytest.approx(want_report.residual_rms,
                                                     rel=1e-9, abs=1e-9 * y_rms)

    @settings(max_examples=200, deadline=None)
    @given(designs(OVER_BOUND))
    def test_ill_conditioned_fits_take_the_svd(self, design):
        x, y = design
        assert gram_solve(x, y) is None
        self.assert_same_as_oracle(x, y)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 23),
           extra=st.integers(1, 24), d_b=st.integers(1, 24))
    def test_fewer_samples_than_dimensions_take_the_svd(self, seed, m, extra, d_b):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, m + extra))
        y = rng.standard_normal((m, d_b))
        assert gram_solve(x, y) is None
        self.assert_same_as_oracle(x, y)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d_a=st.integers(2, 24),
           data=st.data(), d_b=st.integers(1, 24))
    def test_rank_deficient_fits_take_the_svd(self, seed, d_a, data, d_b):
        rank = data.draw(st.integers(0, d_a - 1))
        m = d_a * data.draw(st.sampled_from([1, 3, 40]))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, d_a))
        y = rng.standard_normal((m, d_b))
        assert gram_solve(x, y) is None
        self.assert_same_as_oracle(x, y)

    def assert_same_as_oracle(self, x, y):
        got, report = fit_linear(x, y)
        want, want_report = reference.fit_linear_svd(x, y)
        assert reference.same_bits(got.matrix, want.matrix)
        assert report == want_report

    @pytest.mark.parametrize("factor, gram", [(0.99, True), (1.01, False)])
    def test_route_switches_at_the_bound(self, factor, gram):
        x, y = planted_design(3, 64, 16, 8, factor * GRAM_BOUND, 1, 0.1)
        solved = gram_solve(x, y)
        assert (solved is not None) == gram
        _, report = fit_linear(x, y)
        assert report.condition_diagnostic == pytest.approx(factor * GRAM_BOUND,
                                                            rel=1e-6)

    @pytest.mark.parametrize("dim", [8, 512])
    @pytest.mark.parametrize("m", [1, 2, 4095, 4096, 4097, 4098, 8194, 12291])
    def test_chunked_residual_has_the_bytes_of_one_product(self, dim, m):
        # a 2- or 3-row chunk at dim 512 takes a small-matrix kernel whose
        # products differ in the last bit from the same rows in one GEMM
        rng = np.random.default_rng(m)
        x = rng.standard_normal((m, dim))
        y = rng.standard_normal((m, dim))
        matrix = rng.standard_normal((dim, dim))
        product = x @ matrix
        diff = product - y
        want = float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))
        assert mapping_module._residual_rms((x, None), matrix, (y, None)) == want
        # exactly 0 only if every chunk's product has the bytes of its rows
        # in the one product
        assert mapping_module._residual_rms((x, None), matrix, (product, None)) == 0.0

    def test_fit_memory_bounded(self):
        done = run_gate(FIT_MEMORY_GATE)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout)
        assert result["m"] == [60_000, 60_000]
        assert result["condition"] < GRAM_BOUND


# Both fitters on 60,000 x 256 inputs (117 MiB each) under an RLIMIT_AS of
# the child's VmSize plus 64 MiB. Measured at one BLAS thread: the fits pass
# at 32 MiB above VmSize and fail at 16; an SVD of the design needs more
# than 256 MiB, and a residual over the whole m x d product one 117 MiB
# array.
FIT_MEMORY_GATE = """
import json
import numpy as np
from embalign import fit_linear, fit_rotation

m, dim = 60_000, 256
rng = np.random.default_rng(0)
x = rng.standard_normal((m, dim))
y = x @ rng.standard_normal((dim, dim))
y += rng.standard_normal((m, dim))

cap_address_space(64 << 20)
_, linear = fit_linear(x, y)
_, rotation = fit_rotation(x, y)
print(json.dumps({"m": [linear.m, rotation.m], "condition": linear.condition_diagnostic}))
"""


class TestFitRotation:
    def test_self_map_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 4))
        mapping, _ = fit_rotation(x, x)
        assert np.allclose(mapping.matrix, np.eye(4), atol=1e-10)

    def test_hand_worked_quarter_turn(self):
        source = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        target = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert np.array_equal(source.T @ target, np.array([[0.0, 2.0], [-1.0, 0.0]]))
        mapping, report = fit_rotation(source, target)
        assert np.allclose(mapping.matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
        assert np.allclose(source @ mapping.matrix, target, atol=1e-12)
        assert report.residual_rms < 1e-12
        assert report.condition_diagnostic is None

    def test_hand_worked_quarter_turn_matches_angle_sweep(self):
        source = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        target = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        mapping, _ = fit_rotation(source, target)
        thetas = np.linspace(0.0, 2.0 * np.pi, 100001)
        sweep = min(objective(rotation_2d(t), source, target) for t in thetas)
        assert objective(mapping.matrix, source, target) <= sweep + 1e-9

    def test_reflected_target_det_correction(self):
        source = np.array([[1.0, 0.0], [0.0, 1.0]])
        target = np.array([[1.0, 0.0], [0.0, -1.0]])
        cross = source.T @ target
        u, _, vt = np.linalg.svd(cross)
        assert np.linalg.det(u) * np.linalg.det(vt) == pytest.approx(-1.0)
        mapping, _ = fit_rotation(source, target)
        assert np.linalg.det(mapping.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(
            mapping.matrix.T @ mapping.matrix, np.eye(2), atol=1e-12
        )
        # every rotation ties on this instance; the fit must attain that value
        thetas = np.linspace(0.0, 2.0 * np.pi, 10001)
        sweep = min(objective(rotation_2d(t), source, target) for t in thetas)
        assert objective(mapping.matrix, source, target) <= sweep + 1e-9

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            fit_rotation(np.ones((3, 2)), np.ones((3, 4)))

    def test_always_proper_rotation_on_adversarial_inputs(self):
        rng = np.random.default_rng(6)
        for trial in range(200):
            d = int(rng.integers(2, 8))
            m = int(rng.integers(1, 10))
            x = rng.standard_normal((m, d))
            flip = np.eye(d)
            flip[-1, -1] = -1.0
            y = {
                0: rng.standard_normal((m, d)),
                1: x @ flip,
                2: -x,
            }[trial % 3]
            mapping, _ = fit_rotation(x, y)
            assert np.allclose(
                mapping.matrix.T @ mapping.matrix, np.eye(d), atol=1e-8
            )
            assert abs(np.linalg.det(mapping.matrix) - 1.0) <= 1e-8

    def test_invariant_to_positive_target_rescale(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 3))
        y = rng.standard_normal((10, 3))
        base, _ = fit_rotation(x, y)
        scaled, _ = fit_rotation(x, 3.7 * y)
        assert np.allclose(base.matrix, scaled.matrix, atol=1e-9)

    def test_uncentered_behavior_pinned(self):
        # translating both point sets changes the fit; the translated
        # optimum is atan2(3, 6) by the 2-D trace formula, i.e.
        # [[2, 1], [-1, 2]] / sqrt(5)
        source = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        target = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        shift = np.array([1.0, 1.0])
        mapping, _ = fit_rotation(source + shift, target + shift)
        expected = np.array([[2.0, 1.0], [-1.0, 2.0]]) / np.sqrt(5.0)
        assert np.allclose(mapping.matrix, expected, atol=1e-12)
        untranslated, _ = fit_rotation(source, target)
        assert not np.allclose(mapping.matrix, untranslated.matrix, atol=1e-3)

    def test_beats_random_rotations_in_3d(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            x = rng.standard_normal((6, 3))
            y = rng.standard_normal((6, 3))
            mapping, _ = fit_rotation(x, y)
            best = objective(mapping.matrix, x, y)
            for k in range(2000):
                candidate = random_rotation(3, seed=trial * 10000 + k)
                assert best <= objective(candidate.matrix, x, y) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), m=st.integers(1, 6))
    def test_2d_matches_dense_angle_sweep(self, seed, m):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, 2))
        y = rng.standard_normal((m, 2))
        mapping, _ = fit_rotation(x, y)
        thetas = np.linspace(0.0, 2.0 * np.pi, 200001)
        cos, sin = np.cos(thetas), np.sin(thetas)
        # objective evaluated directly on the sweep grid
        mx = np.stack([x[:, 0, None] * cos - x[:, 1, None] * sin,
                       x[:, 0, None] * sin + x[:, 1, None] * cos], axis=-1)
        residual = mx - y[:, None, :]
        sweep_min = float(np.min(np.sum(residual * residual, axis=(0, 2))))
        assert objective(mapping.matrix, x, y) <= sweep_min + 1e-9


class TestFitDispatch:
    def sets(self, dim_b=3):
        rng = np.random.default_rng(4)
        a = EmbeddingSet("A", ("u", "v", "w", "x"), rng.standard_normal((4, 3)))
        # shares three media with a, in another row order
        b = EmbeddingSet("B", ("x", "w", "u", "y"), rng.standard_normal((4, dim_b)))
        return a, b

    @pytest.mark.parametrize("kind, fitter", [(LINEAR, fit_linear), (ROTATION, fit_rotation)])
    def test_fits_the_shared_media(self, kind, fitter):
        a, b = self.sets()
        mapping, report = fit(kind, a, b)
        expected, expected_report = fitter(
            *align_pairs(a, b), source_model_id="A", target_model_id="B"
        )
        assert mapping.matrix.tobytes() == expected.matrix.tobytes()
        assert (mapping.kind, mapping.source_model_id, mapping.target_model_id) == (
            kind, "A", "B")
        assert report == expected_report and report.m == 3

    @pytest.mark.parametrize("dim", [8, 512])
    @pytest.mark.parametrize("kind", [LINEAR, ROTATION])
    def test_one_chunk_fit_keeps_the_bytes_of_one_product(self, kind, dim):
        # 4096 shared media, the most one chunk of row_chunks holds: the
        # fit has the bytes of the fitter on the aligned design, and of the
        # products X^T X and X^T Y taken over that whole design
        a, b = paired_sets(4096, dim, seed=dim)
        mapping, report = fit(kind, a, b)
        x, y = align_pairs(a, b)
        fitter = fit_linear if kind == LINEAR else fit_rotation
        expected, expected_report = fitter(x, y, source_model_id="A", target_model_id="B")
        assert reference.same_bits(mapping.matrix, expected.matrix)
        assert report == expected_report and report.m == 4096
        if kind == LINEAR:
            w, v = np.linalg.eigh(x.T @ x)
            whole = v @ ((v.T @ (x.T @ y)) / w[:, None])
        else:
            whole = direct_rotation(x, y)
        assert reference.same_bits(mapping.matrix, whole)

    def test_identity_fits_nothing(self):
        a, b = self.sets()
        mapping, report = fit(IDENTITY, a, b)
        assert np.array_equal(mapping.matrix, np.eye(3))
        assert (mapping.source_model_id, mapping.target_model_id) == ("A", "B")
        assert report.to_dict() == {"kind": IDENTITY, "m": 0, "residual_rms": None,
                                    "condition_diagnostic": None}

    def test_identity_dimension_mismatch(self):
        a, b = self.sets(dim_b=5)
        with pytest.raises(DimensionError, match="identity map needs equal dimensions"):
            fit(IDENTITY, a, b)

    def test_unknown_kind_rejected(self):
        a, b = self.sets()
        with pytest.raises(ValueError, match="unknown map kind 'affine'"):
            fit("affine", a, b)

    @pytest.mark.parametrize("fitter", [fit_linear, fit_rotation])
    @pytest.mark.parametrize("dims", [(0, 0), (0, 3), (3, 0)])
    def test_dimension_zero_refused(self, fitter, dims):
        # a fit has nothing to solve for in a space of dimension 0
        x, y = np.zeros((3, dims[0])), np.zeros((3, dims[1]))
        with pytest.raises(DimensionError, match="fitting needs dimensions of at least 1"):
            fitter(x, y)

    def test_error_order(self, monkeypatch):
        # an unknown kind is refused first, then the identity's dimensions,
        # then sets that share no media (a rotation's unequal dimensions
        # too), then a rotation's dimensions, before any statistic is summed
        a, b = self.sets(dim_b=5)
        apart = EmbeddingSet("C", ("p", "q"), np.ones((2, 5)))
        monkeypatch.setattr(mapping_module, "_moments", None)
        with pytest.raises(ValueError, match="unknown map kind 'affine'"):
            fit("affine", a, apart)
        with pytest.raises(DimensionError, match="identity map needs equal dimensions"):
            fit(IDENTITY, a, apart)
        for kind in (LINEAR, ROTATION):
            with pytest.raises(AlignmentError, match="no shared media ids between 'A' and 'C'"):
                fit(kind, a, apart)
        with pytest.raises(DimensionError, match="rotation requires equal dimensions, got 3 and 5"):
            fit(ROTATION, a, b)
        with pytest.raises(DimensionError, match="rotation requires equal dimensions"):
            next(mapping_module._shared_fits([ROTATION, LINEAR], a, [b]))


class TestStatisticsRoute:
    """fit sums X^T Y (and X^T X) over row chunks gathered from the two
    sets, to within 1e-9 of the oracles on the whole design, with bytes
    that depend on neither set's row order, and without building the
    design matrices outside the SVD route."""

    @pytest.mark.parametrize("dim", [8, 512])
    @pytest.mark.parametrize("m", [4095, 4096, 4097, 4098, 8194, 12291])
    @pytest.mark.parametrize("kind", [LINEAR, ROTATION])
    def test_maps_match_the_oracles(self, kind, m, dim):
        a, b = paired_sets(m, dim, seed=m)
        mapping, report = fit(kind, a, b)
        x, y = align_pairs(a, b)
        if kind == LINEAR:
            want = reference.fit_linear_svd(x, y)[0].matrix
        else:
            want = direct_rotation(x, y)
        assert relative_gap(mapping.matrix, want) <= 1e-9
        # the row-array fitters run the same pass over the aligned rows
        fitter = fit_linear if kind == LINEAR else fit_rotation
        rows_mapping, rows_report = fitter(x, y, source_model_id="A", target_model_id="B")
        assert reference.same_bits(mapping.matrix, rows_mapping.matrix)
        assert report == rows_report and report.m == m

    @pytest.mark.parametrize("kind", [LINEAR, ROTATION])
    def test_bytes_do_not_depend_on_row_order(self, kind):
        a, b = paired_sets(8194, 64, seed=6)
        mapping, report = fit(kind, a, b)
        for seed in (1, 2):
            again, again_report = fit(kind, reordered(a, seed), reordered(b, seed + 10))
            assert reference.same_bits(again.matrix, mapping.matrix)
            assert again_report == report

    @pytest.fixture
    def designs_built(self, monkeypatch):
        calls = []

        def spy(vectors, index=None):
            calls.append(id(vectors))
            return float_rows(vectors, index)

        monkeypatch.setattr(mapping_module, "float_rows", spy)
        return calls

    @pytest.mark.parametrize("kind", [LINEAR, ROTATION])
    def test_gram_and_rotation_routes_build_no_design(self, kind, designs_built):
        a, b = paired_sets(5000, 16, seed=7)
        fit(kind, a, b)
        assert designs_built == []

    def test_svd_route_builds_the_design(self, designs_built):
        a, b = paired_sets(10, 16, seed=8)  # fewer samples than dimensions
        mapping, report = fit(LINEAR, a, b)
        assert designs_built == [id(a.vectors), id(b.vectors)]
        expected, expected_report = reference.fit_linear_svd(*align_pairs(a, b))
        assert reference.same_bits(mapping.matrix, expected.matrix)
        assert report == expected_report

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the process's VmSize from /proc")
    def test_fit_from_sets_memory_bounded(self):
        done = run_gate(FIT_SETS_MEMORY_GATE)
        assert done.returncode == 0, done.stderr[-2000:]
        assert json.loads(done.stdout) == {"m": [30_000, 30_000]}


# fit on two 30,000 x 512 float32 sets (58.6 MiB each) under an RLIMIT_AS of
# the child's VmSize after loading them, plus 48 MiB. A first fit on 1,000
# of the rows sets up the BLAS and LAPACK buffers before VmSize is read.
# Measured at one BLAS thread with the fixed mmap threshold: both fits pass
# at 42 MiB above VmSize and fail at 40 (two 3,750-row float64 gather
# buffers, 29.3 MiB, and the d x d sums); gathering the two float64 design
# matrices (234 MiB) needs 290 MiB.
FIT_SETS_MEMORY_GATE = """
import json
import numpy as np
from embalign import EmbeddingSet, fit

m, dim = 30_000, 512
rng = np.random.default_rng(0)
ids = [f"m{i:05d}" for i in range(m)]
a = EmbeddingSet("A", ids, rng.standard_normal((m, dim), dtype=np.float32))
b = EmbeddingSet("B", ids[::-1], rng.standard_normal((m, dim), dtype=np.float32))
warm = EmbeddingSet("W", ids[:1000], a.vectors[:1000])
fit("linear", warm, warm), fit("rotation", warm, warm)

cap_address_space(48 << 20)
_, linear = fit("linear", a, b)
_, rotation = fit("rotation", a, b)
print(json.dumps({"m": [linear.m, rotation.m]}))
"""


class TestGuardedResidual:
    """The residual comes from the fit's statistics in closed form when
    that reads at least CLOSED_FORM_FLOOR of ||Y||^2, within 1e-9 of the
    explicit pass; otherwise it is the explicit pass's value."""

    @pytest.fixture
    def explicit_passes(self, monkeypatch):
        calls = []
        explicit = mapping_module._residual_rms

        def spy(x, matrix, y):
            vectors, index = x
            calls.append(len(vectors) if index is None else index.size)
            return explicit(x, matrix, y)

        monkeypatch.setattr(mapping_module, "_residual_rms", spy)
        return calls

    @staticmethod
    def world(dim, planted_kind, cross_model_noise, within_class_noise=0.15):
        set_a, set_b, _, _ = generate_world(SynthSpec(
            seed=3, dim=dim, num_subjects=500, media_per_subject=10,
            within_class_noise=within_class_noise, cross_model_noise=cross_model_noise,
            planted_kind=planted_kind))
        return set_a, set_b

    @pytest.mark.parametrize("kind", [LINEAR, ROTATION])
    @pytest.mark.parametrize("dim, planted_kind, cross_model_noise, within_class_noise", [
        (512, ROTATION, 0.5, 2.0),  # the benchmark pipeline's noise
        (64, LINEAR, 1e-3, 0.15),
    ])
    def test_closed_form_within_1e9_of_the_explicit_pass(
            self, explicit_passes, kind, dim, planted_kind, cross_model_noise,
            within_class_noise):
        a, b = self.world(dim, planted_kind, cross_model_noise, within_class_noise)
        mapping, report = fit(kind, a, b)
        assert explicit_passes == []
        x, y = align_pairs(a, b)
        explicit = mapping_module._residual_rms((x, None), mapping.matrix, (y, None))
        assert report.residual_rms == pytest.approx(explicit, rel=1e-9, abs=0)

    @pytest.mark.parametrize("kind", [LINEAR, ROTATION])
    @pytest.mark.parametrize("cross_model_noise", [0.0, 1e-3])
    def test_refused_closed_form_takes_the_explicit_pass(
            self, explicit_passes, kind, cross_model_noise):
        # a planted rotation, fit exactly at noise 0 and to about 1e-6 of
        # ||Y||^2 at noise 1e-3: below the floor
        a, b = self.world(64, ROTATION, cross_model_noise)
        mapping, report = fit(kind, a, b)
        assert explicit_passes == [5000]
        x, y = align_pairs(a, b)
        assert report.residual_rms == mapping_module._residual_rms(
            (x, None), mapping.matrix, (y, None))


class TestSharedFits:
    """``_shared_fits``, through which run_grid fits each source's row of
    cells, gives every (map, report) of ``fit`` on the same sets bit for
    bit, from one X^T Y pass per target and one X^T X and eigh per source."""

    @staticmethod
    def models(m, dim, noise, count=4, seed=0):
        """``count`` float32 sets over the same m media in unrelated row
        orders, each later one the first times a planted rotation plus
        ``noise``; the last of them is a linear map of the first."""
        rng = np.random.default_rng(seed)
        ids = [f"m{i:05d}" for i in range(m)]
        x = rng.standard_normal((m, dim))
        maps = [np.eye(dim)] + [random_rotation(dim, seed=seed + k).matrix
                                for k in range(1, count)]
        maps[-1] = maps[-1] * rng.uniform(0.5, 2.0, dim)
        sets = []
        for k, planted in enumerate(maps):
            rows = x @ planted + noise * rng.standard_normal((m, dim))
            order = rng.permutation(m)
            sets.append(EmbeddingSet(f"M{k}", [ids[i] for i in order],
                                     rows[order].astype(np.float32)))
        return sets

    @pytest.fixture
    def routes(self, monkeypatch):
        """The calls each route makes, by name."""
        calls = []
        for name in ("_moments", "_residual_rms", "_svd_solve"):
            original = getattr(mapping_module, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mapping_module, name, spy)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append("eigh") or eigh(a))
        return calls

    @pytest.mark.parametrize("m, dim, noise, route", [
        (5000, 16, 0.1, "closed form"),  # two row chunks
        (300, 8, 0.0, "explicit"),  # exact maps: below CLOSED_FORM_FLOOR
        (10, 16, 0.1, "svd"),  # fewer samples than dimensions
    ])
    def test_each_fit_has_the_bits_of_fit(self, routes, m, dim, noise, route):
        kinds = [LINEAR, IDENTITY, ROTATION]
        source, *targets = self.models(m, dim, noise)
        shared = list(mapping_module._shared_fits(kinds, source, targets))
        shared_routes = list(routes)
        routes.clear()
        want = [fit(kind, source, target) for target in targets for kind in kinds]
        assert len(shared) == len(want) == 3 * len(targets)
        for (got_map, got_report), (want_map, want_report) in zip(shared, want):
            assert reference.same_bits(got_map.matrix, want_map.matrix)
            assert (got_map.kind, got_map.source_model_id, got_map.target_model_id,
                    got_map.fit_sample_count) == (want_map.kind, want_map.source_model_id,
                                                  want_map.target_model_id,
                                                  want_map.fit_sample_count)
            assert got_report == want_report
        # one moments pass per target, one eigh per source, and the route
        # each fit takes is fit's
        fits = 2 * len(targets)
        assert routes.count("_moments") == fits
        assert shared_routes.count("_moments") == len(targets)
        assert routes.count("eigh") == (len(targets) if route != "svd" else 0)
        assert shared_routes.count("eigh") == (1 if route != "svd" else 0)
        # at noise 0 every fit is exact but the rotation onto the linear model
        explicit = {"closed form": 0, "explicit": fits - 1, "svd": len(targets)}[route]
        assert shared_routes.count("_residual_rms") == routes.count("_residual_rms") == explicit
        svd = len(targets) if route == "svd" else 0
        assert shared_routes.count("_svd_solve") == routes.count("_svd_solve") == svd

    def test_rotation_only_takes_no_gram(self, routes):
        source, *targets = self.models(500, 8, 0.1)
        shared = list(mapping_module._shared_fits([ROTATION], source, targets))
        assert [report for _, report in shared] == [
            fit(ROTATION, source, target)[1] for target in targets]
        assert "eigh" not in routes

    def test_failing_fit_raises_what_fit_raises(self):
        source, target = self.models(50, 4, 0.1, count=2)
        wide = EmbeddingSet("W", target.media_ids, np.hstack([target.vectors] * 2))
        fits = mapping_module._shared_fits([LINEAR, ROTATION], source, [target, wide])
        assert next(fits)[0].target_model_id == "M1"
        next(fits)
        assert next(fits)[0].d_b == 8
        with pytest.raises(DimensionError, match="rotation requires equal dimensions"):
            next(fits)
        with pytest.raises(DimensionError, match="identity map needs equal dimensions"):
            list(mapping_module._shared_fits([IDENTITY], source, [wide]))

    def test_targets_with_other_media_refused(self):
        source, first, second = self.models(50, 4, 0.1, count=3)
        fewer = second.restrict(second.media_ids[1:])
        fits = mapping_module._shared_fits([LINEAR], source, [first, fewer])
        next(fits)
        with pytest.raises(AssertionError, match="targets hold other media"):
            next(fits)


class TestIdentityAndApply:
    def test_identity_map_matrix(self):
        mapping = identity_map(2)
        assert np.array_equal(mapping.matrix, np.eye(2))
        assert mapping.kind == IDENTITY
        assert mapping.fit_sample_count == 0

    def test_apply_identity_normalizes(self):
        mapping = identity_map(2, target_model_id="B")
        embeddings = EmbeddingSet(
            model_id="A", media_ids=("v",), vectors=np.array([[3.0, 4.0]])
        )
        out = apply_map(mapping, embeddings)
        assert np.allclose(out.vectors, [[0.6, 0.8]], atol=1e-12)
        assert out.model_id == "B"
        assert out.normalized

    def test_apply_scaling_removed(self):
        mapping = MappingMatrix(
            kind=LINEAR,
            source_model_id="A",
            target_model_id="B",
            matrix=2.0 * np.eye(2),
            fit_sample_count=1,
        )
        embeddings = EmbeddingSet(
            model_id="A", media_ids=("v",), vectors=np.array([[3.0, 4.0]])
        )
        out = apply_map(mapping, embeddings)
        assert np.allclose(out.vectors, [[0.6, 0.8]], atol=1e-12)

    def test_rotation_preserves_unit_norm(self):
        rotation = random_rotation(16, seed=11)
        rng = np.random.default_rng(12)
        vecs = rng.standard_normal((8, 16))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        embeddings = EmbeddingSet(
            model_id="A", media_ids=tuple(f"m{i}" for i in range(8)), vectors=vecs
        )
        out = apply_map(rotation, embeddings)
        norms = np.linalg.norm(out.vectors, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_rotation_preserves_inner_products(self):
        rotation = random_rotation(10, seed=13)
        rng = np.random.default_rng(14)
        vecs = rng.standard_normal((6, 10))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        embeddings = EmbeddingSet(
            model_id="A", media_ids=tuple(f"m{i}" for i in range(6)), vectors=vecs
        )
        out = apply_map(rotation, embeddings)
        before = vecs @ vecs.T
        after = out.vectors @ out.vectors.T
        assert np.allclose(before, after, atol=1e-8)

    def test_planted_rotation_round_trip(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((50, 8))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        planted = random_rotation(8, seed=16)
        y = x @ planted.matrix
        mapping, _ = fit_rotation(x, y, target_model_id="B")
        embeddings = EmbeddingSet(
            model_id="A", media_ids=tuple(f"m{i}" for i in range(50)), vectors=x
        )
        out = apply_map(mapping, embeddings)
        assert np.allclose(out.vectors, y, atol=1e-10)

    def test_degenerate_rows_excluded_and_reported(self):
        mapping = MappingMatrix(
            kind=LINEAR,
            source_model_id="A",
            target_model_id="B",
            matrix=np.array([[1.0, 0.0], [0.0, 0.0]]),
            fit_sample_count=1,
        )
        embeddings = EmbeddingSet(
            model_id="A",
            media_ids=("keep", "gone"),
            vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        out = apply_map(mapping, embeddings)
        assert out.media_ids == ("keep",)
        assert out.dropped == ("gone",)

    def test_dimension_mismatch(self):
        mapping = identity_map(3)
        embeddings = EmbeddingSet(
            model_id="A", media_ids=("v",), vectors=np.array([[1.0, 0.0]])
        )
        with pytest.raises(DimensionError):
            apply_map(mapping, embeddings)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(50000, 512), (15000, 1024), (9000, 64), (5000, 128),
                                       (4099, 256), (4097, 128), (3, 128)])
    def test_chunked_product_has_the_bits_of_one_product(self, shape, dtype):
        rng = np.random.default_rng(shape[0])
        vectors = rng.standard_normal(shape).astype(dtype)
        vectors.setflags(write=False)
        mapping = MappingMatrix(LINEAR, "A", "B", rng.standard_normal((shape[1], shape[1])), 1)
        want = vectors.astype(np.float64) @ mapping.matrix
        want /= row_norms(want)[:, None]
        got = apply_map(mapping, EmbeddingSet("A", [f"m{i}" for i in range(shape[0])], vectors))
        assert reference.same_bits(got.vectors, want)

    def test_memory_within_one_chunk_buffer(self):
        # one 4096-row float64 gather buffer lives beside the output, and
        # unit_rows normalizes each chunk of the output in place with one
        # 512-row block of scratch (measured: 1.1 buffers)
        n, dim = 20_000, 512
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((n, dim)).astype(np.float32)
        vectors.setflags(write=False)
        embeddings = EmbeddingSet("A", [f"m{i}" for i in range(n)], vectors)
        mapping = MappingMatrix(LINEAR, "A", "B", rng.standard_normal((dim, dim)), 1)
        tracemalloc.start()
        try:
            mapped = apply_map(mapping, embeddings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = _ROW_CHUNK * dim * 8
        assert peak - mapped.vectors.nbytes <= 1.25 * buffer, (peak - mapped.vectors.nbytes) / buffer


class TestMappingMatrixInvariants:
    def test_rotation_kind_requires_orthogonal(self):
        with pytest.raises(DataError):
            MappingMatrix(
                kind=ROTATION,
                source_model_id="",
                target_model_id="",
                matrix=np.array([[1.0, 0.0], [0.0, 2.0]]),
                fit_sample_count=0,
            )

    def test_rotation_kind_rejects_reflection(self):
        with pytest.raises(DataError):
            MappingMatrix(
                kind=ROTATION,
                source_model_id="",
                target_model_id="",
                matrix=np.array([[1.0, 0.0], [0.0, -1.0]]),
                fit_sample_count=0,
            )

    def test_identity_kind_requires_identity(self):
        with pytest.raises(DataError):
            MappingMatrix(
                kind=IDENTITY,
                source_model_id="",
                target_model_id="",
                matrix=np.array([[1.0, 0.1], [0.0, 1.0]]),
                fit_sample_count=0,
            )


class TestMapFiles:
    def test_rotation_round_trip(self, tmp_path):
        rotation = random_rotation(512, seed=17)
        path = tmp_path / "rot.cfem"
        save_map(rotation, path)
        loaded = load_map(path)
        assert loaded.kind == ROTATION
        assert loaded.matrix.tobytes() == rotation.matrix.tobytes()

    def test_rectangular_linear_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        mapping = MappingMatrix(
            kind=LINEAR,
            source_model_id="pfe-1024",
            target_model_id="base-512",
            matrix=rng.standard_normal((1024, 512)),
            fit_sample_count=11856,
        )
        path = tmp_path / "lin.cfem"
        save_map(mapping, path)
        loaded = load_map(path)
        assert loaded.matrix.shape == (1024, 512)
        assert loaded.matrix.tobytes() == mapping.matrix.tobytes()
        assert loaded.source_model_id == "pfe-1024"
        assert loaded.target_model_id == "base-512"
        assert loaded.fit_sample_count == 11856

    def test_corrupted_rotation_rejected(self, tmp_path):
        rotation = random_rotation(4, seed=19)
        path = tmp_path / "rot.cfem"
        save_map(rotation, path)
        raw = bytearray(path.read_bytes())
        offset = 4 + 2 + 1 + 4 + 4
        raw[offset : offset + 8] = np.array([1.5]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptMapError):
            load_map(path)

    def test_identity_round_trip(self, tmp_path):
        mapping = identity_map(7, source_model_id="A", target_model_id="B")
        path = tmp_path / "id.cfem"
        save_map(mapping, path)
        loaded = load_map(path)
        assert loaded.kind == IDENTITY
        assert np.array_equal(loaded.matrix, np.eye(7))
