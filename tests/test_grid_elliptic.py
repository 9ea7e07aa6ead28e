import math

import numpy as np
import pytest
import scipy
import scipy.fftpack
import scipy.linalg
from scipy.fft._pocketfft import pypocketfft
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import chemolab as cl
from _reference import helmholtz_matrix, laplacian_matrix
from chemolab import elliptic
from chemolab.elliptic import (cell_values, cosine_coefficients, screened_symbol,
                               solve_dct_diagonal, solve_helmholtz_array)
from chemolab.errors import NonpositiveV, OutOfRange
from chemolab.evolve import DT_MAX_FACTOR
from chemolab.grid import (Field, Grid, cell_sums, chemotaxis_divergence,
                           chemotaxis_flux_derivative, face_divergence, face_gradients, integrate,
                           laplacian_apply, mode_groups)


def _grid_params(dim, length=math.pi):
    return cl.build_params(
        {"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": dim, "L": length}
    )


def _grid_1d(nx, length=math.pi):
    return cl.make_grid(_grid_params(1, length), nx)


def _grid_2d(nx, ny=None, lengths=(math.pi, math.pi)):
    p = cl.build_params(
        {"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1,
         "dim": 2, "L": lengths}
    )
    return cl.make_grid(p, (nx, ny or nx))


class TestMakeGrid:
    def test_cell_centers(self):
        g = _grid_1d(8)
        h = math.pi / 8
        assert g.spacings == (pytest.approx(h),)
        assert g.axis_centers(0)[0] == pytest.approx(0.5 * h)
        assert g.axis_centers(0)[-1] == pytest.approx(math.pi - 0.5 * h)

    def test_2d_cell_count(self):
        g = _grid_2d(16, lengths=(1.0, 1.0))
        assert g.n_cells == 256
        assert g.cell_volume == g.volume / 256
        # the cached scalars are not fields: equality and hash ignore them
        fresh = _grid_2d(16, lengths=(1.0, 1.0))
        assert g == fresh and hash(g) == hash(fresh)

    def test_3d_coordinates_and_cosine_product(self):
        g = Grid((1.0, 2.0, 3.0), (8, 9, 10))
        x, y, z = g.coordinates
        assert x.shape == y.shape == z.shape == (8, 9, 10)
        assert z[0, 0, :] == pytest.approx(g.axis_centers(2))
        expected = np.cos(math.pi * x) * np.cos(2 * math.pi * y / 2.0)
        assert g.cosine_product((1, 2)) == pytest.approx(expected, abs=1e-15)
        # missing trailing indices count as 0, to the bit
        assert g.cosine_product((1, 2)).tobytes() == g.cosine_product((1, 2, 0)).tobytes()

    def test_resolution_floor(self):
        with pytest.raises(OutOfRange):
            _grid_1d(4)

    def test_one_count_per_axis(self):
        p = cl.build_params({"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1,
                             "dim": 2, "L": math.pi})
        with pytest.raises(OutOfRange, match=r"^resolution: need 2 entries \(got 3\)$"):
            cl.make_grid(p, (8, 8, 8))

    def test_field_takes_the_grid_shape(self):
        with pytest.raises(OutOfRange, match=r"^field: values shape \(7,\) != grid shape \(8,\)$"):
            Field(np.ones(7), _grid_1d(8))


def _modes(g, count):
    return mode_groups(g.helmholtz_symbol, count)


class TestModeGroups:
    def test_1d_spectrum(self):
        g = _grid_1d(64)
        groups = _modes(g, 5)
        assert [members for _, members in groups] == [[(k,)] for k in range(5)]
        # sigma_h = 1 + k**2 up to the O(h**2) discretisation error
        assert [sigma for sigma, _ in groups] == pytest.approx([1, 2, 5, 10, 17], rel=5e-3)
        assert g.cosine_product(groups[0][1][0]) == pytest.approx(np.ones(64))

    def test_square_degeneracy(self):
        g = _grid_2d(16)
        sigma, members = _modes(g, 3)[1]
        assert sigma == pytest.approx(2.0, rel=5e-3)
        assert members == [(0, 1), (1, 0)]

    def test_grid_splits_a_continuum_group(self):
        # sigma = 26 on a square: (0,5),(5,0) and (3,4),(4,3) differ in sigma_h
        g = _grid_2d(32)
        groups = [(s, m) for s, m in _modes(g, 20) if 25.0 < s < 26.0]
        assert [m for _, m in groups] == [[(0, 5), (5, 0)], [(3, 4), (4, 3)]]
        assert [s for s, _ in groups] == pytest.approx([25.5020, 25.7306], abs=1e-4)
        for sigma, members in groups:
            assert {float(g.helmholtz_symbol[ks]) for ks in members} == {sigma}
            x, y = g.coordinates
            kx, ky = members[0]
            assert g.cosine_product(members[0]) == pytest.approx(np.cos(kx * x) * np.cos(ky * y))

    def test_count_capped_by_cells(self):
        g = _grid_1d(8)
        assert len(_modes(g, 9)) == 8
        p = _grid_params(1)
        k = cl.make_kinetics(p, "generalized-logistic")
        eq = cl.equilibrium_info(k, 1.0)
        with pytest.raises(OutOfRange, match="^mode: the grid has modes 1 to 7 "):
            cl.continuation(p, k, eq, 8, (4.2, 4.2), 1, g)

    def test_discrete_formula_matches_dense_eigensolver(self):
        g = _grid_1d(256)
        ours = [sigma for sigma, _ in _modes(g, 10)]
        dense = scipy.linalg.eigvalsh(helmholtz_matrix(g).toarray())
        assert ours == pytest.approx(list(dense[:10]), abs=1e-9)

    def test_discrete_eigen_residual(self):
        for g in (_grid_1d(128), Grid((1.0, 2.0, 1.5), (8, 9, 10))):
            A = helmholtz_matrix(g)
            for sigma, members in _modes(g, 6):
                for ks in members:
                    e = g.cosine_product(ks).ravel()
                    assert np.max(np.abs(A @ e - sigma * e)) < 1e-10

    def test_first_member_seeds_the_group(self):
        g = _grid_2d(16)
        _, members = _modes(g, 2)[1]
        assert members[0] == (0, 1)
        assert g.cosine_product(members[0]) == pytest.approx(np.cos(g.coordinates[1]))

    def test_members_are_lexicographic_whatever_the_roundoff(self):
        # the permutations of (1, 2, 2) on a cube differ in the last bits of
        # the symbol, and by value (2, 2, 1) would come first
        g = Grid((1.0,) * 3, (16,) * 3)
        groups = [m for _, m in _modes(g, 12)]
        assert all(members == sorted(members) for members in groups)
        assert [(1, 2, 2), (2, 1, 2), (2, 2, 1)] in groups
        assert len({float(g.helmholtz_symbol[ks]) for ks in [(1, 2, 2), (2, 2, 1)]}) == 2

    @seed(16)
    @settings(max_examples=10, deadline=None)
    @example(shape=(12, 12, 12), lengths=(0.5, 3.0, 10.0))  # the largest symbol
    @example(shape=(8, 9, 10), lengths=(1.0, 2.0, 1.5))
    @given(
        shape=st.one_of(st.tuples(st.integers(8, 12)),
                        st.tuples(st.integers(8, 12), st.integers(8, 12)),
                        st.tuples(st.integers(8, 12), st.integers(8, 12), st.integers(8, 12))),
        lengths=st.tuples(st.floats(0.5, 10.0), st.floats(0.5, 10.0), st.floats(0.5, 10.0)),
    )
    def test_groups_match_the_dense_spectrum(self, shape, lengths):
        g = Grid(lengths[: len(shape)], shape)
        groups = _modes(g, g.n_cells)
        A = helmholtz_matrix(g)
        dense = scipy.linalg.eigvalsh(A.toarray())
        sizes = [len(m) for _, m in groups]
        values = np.repeat([s for s, _ in groups], sizes)
        tol = 1e-13 * dense[-1]  # eigvalsh is accurate to about 2e-15 of the largest
        assert values == pytest.approx(dense, rel=1e-12, abs=tol)
        assert [int(np.sum(np.abs(dense - s) <= tol)) for s, _ in groups] == sizes
        members = [ks for _, m in groups for ks in m]
        assert len(set(members)) == g.n_cells
        modes = np.column_stack([g.cosine_product(ks).ravel() for ks in members])
        assert np.max(np.abs(A @ modes - values * modes)) < 1e-10


class TestHelmholtzSolve:
    def test_constant_source(self):
        g = _grid_1d(32)
        v = cl.solve_helmholtz(g, Field.constant(g, 3.5))
        assert v.values == pytest.approx(np.full(32, 3.5), abs=1e-13)

    def test_manufactured_cosine_second_order(self):
        errs = {}
        for nx in (128, 256):
            g = _grid_1d(nx)
            x = g.coordinates[0]
            v = cl.solve_helmholtz(g, Field(2.0 * np.cos(x), g))
            errs[nx] = float(np.max(np.abs(v.values - np.cos(x))))
        assert errs[256] < 4e-5
        assert 3.6 <= errs[128] / errs[256] <= 4.4

    def test_eigenfunction_relation(self):
        g = _grid_1d(64)
        for sigma, (ks,) in _modes(g, 4):
            mode = g.cosine_product(ks)
            v = cl.solve_helmholtz(g, Field(mode, g))
            assert v.values == pytest.approx(mode / sigma, abs=1e-9)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_compatibility_cell_sums(self, dim):
        g = _grid_1d(64) if dim == 1 else _grid_2d(24)
        rng = np.random.default_rng(7)
        src = Field(rng.uniform(0.5, 2.0, g.shape), g)
        v = cl.solve_helmholtz(g, src)
        total_v = integrate(v.values, g)
        total_s = integrate(src.values, g)
        assert abs(total_v - total_s) <= 1e-12 * abs(total_s)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_maximum_principle(self, dim):
        g = _grid_1d(64) if dim == 1 else _grid_2d(24)
        rng = np.random.default_rng(3)
        src = Field(rng.uniform(0.25, 4.0, g.shape), g)
        v = cl.solve_helmholtz(g, src)
        assert v.values.min() >= src.values.min() - 1e-10
        assert v.values.max() <= src.values.max() + 1e-10

    @pytest.mark.parametrize(
        "lengths, shape",
        [
            ((math.pi,), (16,)),
            ((math.pi, math.pi), (16, 16)),
            ((1.0, 2.5), (12, 20)),
            ((math.pi, math.pi), (9, 8)),
        ],
        ids=["1d-16", "2d-16x16", "2d-12x20-nonsquare", "2d-9x8"],
    )
    @pytest.mark.parametrize("system", ["helmholtz", "implicit-diffusion"])
    def test_solve_matches_dense_reference(self, system, lengths, shape):
        g = Grid(lengths, shape)
        rng = np.random.default_rng(11)
        rhs = rng.uniform(0.0, 1.0, g.shape)
        if system == "helmholtz":
            c = 1.0
            x = cl.solve_helmholtz(g, Field(rhs, g)).values
        else:
            c = DT_MAX_FACTOR * min(g.spacings) ** 2
            x = solve_dct_diagonal(g, rhs, screened_symbol(g, c))
        A = np.eye(g.n_cells) - c * laplacian_matrix(g).toarray()
        dense = scipy.linalg.solve(A, rhs.ravel())
        assert x.ravel() == pytest.approx(dense, abs=1e-12)
        assert abs(x.sum() - rhs.sum()) <= 1e-14 * rhs.sum()

    def test_operator_is_symmetric_positive_definite(self):
        g = _grid_2d(8)
        A = helmholtz_matrix(g).toarray()
        assert A == pytest.approx(A.T)
        assert scipy.linalg.eigvalsh(A).min() >= 1.0 - 1e-12

    @seed(9)
    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.one_of(st.tuples(st.integers(8, 256)),
                        st.tuples(st.integers(8, 48), st.integers(8, 48)),
                        st.tuples(st.integers(8, 12), st.integers(8, 12), st.integers(8, 12))),
        lengths=st.tuples(st.floats(0.5, 10.0), st.floats(0.5, 10.0), st.floats(0.5, 10.0)),
        data_seed=st.integers(0, 2**32 - 1), sparsity=st.floats(0.0, 0.9),
        scale=st.floats(1e-6, 1e6),
    )
    def test_chemical_mass_equals_source_mass(self, shape, lengths, data_seed, sparsity, scale):
        g = Grid(lengths[: len(shape)], shape)
        rng = np.random.default_rng(data_seed)
        source = scale * rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) >= sparsity)
        source.flat[0] = scale  # not identically zero
        v = solve_helmholtz_array(g, source)
        assert abs(v.sum() - source.sum()) <= 1e-13 * source.sum()

    @pytest.mark.parametrize("shape", [(16,), (64,), (12, 20), (16, 16)])
    def test_batched_solves_equal_row_by_row(self, shape):
        g = Grid((math.pi, 2.0)[: len(shape)], shape)
        rng = np.random.default_rng(4)
        rhs = rng.uniform(0.0, 2.0, (5,) + shape)
        c = rng.uniform(0.0, 0.5, 5)
        c_col = c.reshape((-1,) + (1,) * len(shape))
        screened = solve_dct_diagonal(g, rhs, screened_symbol(g, c_col))
        helmholtz = solve_helmholtz_array(g, rhs)
        for i in range(5):
            alone = solve_dct_diagonal(g, rhs[i], screened_symbol(g, c[i]))
            assert screened[i].tobytes() == alone.tobytes()
            assert helmholtz[i].tobytes() == solve_helmholtz_array(g, rhs[i]).tobytes()
        assert (solve_helmholtz_array(g, rhs[0]).tobytes()
                == solve_dct_diagonal(g, rhs[0], screened_symbol(g, 1.0)).tobytes())

    @pytest.mark.parametrize("shape", [(16,), (64,), (12, 20), (8, 8, 8)])
    def test_stacked_solve_keeps_the_implicit_bits_and_solves_the_chemical(self, shape):
        g = Grid((math.pi, 2.0, 3.0)[: len(shape)], shape)
        rng = np.random.default_rng(5)
        rhs = rng.uniform(0.0, 2.0, (3,) + shape)
        c = rng.uniform(0.0, 0.5, 3).reshape((-1,) + (1,) * len(shape))
        beta = np.array([0.5, 1.0, 7.0]).reshape(c.shape)
        v_factor = beta / g.helmholtz_symbol
        x, y = elliptic.solve_dct_stack(g, rhs, screened_symbol(g, c),
                                        np.stack((np.ones_like(v_factor), v_factor)))
        assert x.tobytes() == solve_dct_diagonal(g, rhs, screened_symbol(g, c)).tobytes()
        direct = solve_helmholtz_array(g, beta * x)
        assert np.max(np.abs(y - direct)) <= 1e-13 * np.max(np.abs(direct))
        assert cell_sums(y, g) == pytest.approx(cell_sums(direct, g), rel=1e-14)

    @pytest.mark.parametrize("entries", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)])
    def test_rejects_nonfinite_source(self, entries):
        g = _grid_1d(16)
        bad = np.ones(16)
        bad[3:3 + len(entries)] = entries
        with pytest.raises(OutOfRange, match="^source: must be finite$"):
            cl.solve_helmholtz(g, Field(bad, g))


class TestTransformKernel:
    """cosine_coefficients and cell_values call scipy's private pocketfft
    kernel directly, loaded from scipy.fft's own file; they must equal the
    public scipy.fftpack transforms bit for bit, so a scipy whose kernel
    changes fails here."""

    SHAPES = [((256,), ()), ((64, 64), ()), ((12, 20), ()), ((8, 8, 8), ()), ((64,), (5,))]
    ORIGIN = f"scipy {scipy.__version__}: {pypocketfft.__file__}"

    def test_kernel_is_scipy_fft_own_file(self):
        assert elliptic._POCKETFFT.__file__ == pypocketfft.__file__, self.ORIGIN

    @pytest.mark.parametrize("shape, batch", SHAPES)
    def test_kernel_copies_give_the_same_bits(self, shape, batch):
        # chemolab's copy of the extension and scipy.fft's, loaded in one process
        values = np.random.default_rng(7).uniform(-1.0, 2.0, batch + shape)
        for kind in (2, 3):
            for ax in range(len(batch), values.ndim):
                ours = elliptic.dct(values, kind, (ax,), 1, None, 1, None)
                theirs = pypocketfft.dct(values, kind, (ax,), 1, None, 1, None)
                assert ours.tobytes() == theirs.tobytes(), self.ORIGIN

    @pytest.mark.parametrize("shape, batch", SHAPES)
    def test_transforms_equal_scipy_fftpack(self, shape, batch):
        g = Grid((math.pi, 2.0, 3.0)[: len(shape)], shape)
        values = np.random.default_rng(7).uniform(-1.0, 2.0, batch + shape)
        given_values = values.copy()
        forward = inverse = values
        for ax in g.cell_axes:
            forward = scipy.fftpack.dct(forward, type=2, norm="ortho", axis=ax)
        for ax in g.cell_axes:
            inverse = scipy.fftpack.idct(inverse, type=2, norm="ortho", axis=ax)
        kernel = f"scipy {scipy.__version__} changed its pocketfft kernel"

        coeffs = cosine_coefficients(g, values)
        assert coeffs.shape == forward.shape and coeffs.tobytes() == forward.tobytes(), kernel
        assert values.tobytes() == given_values.tobytes()  # the forward keeps its input
        restored = cell_values(g, values)
        assert np.shares_memory(restored, values)  # the inverse overwrites its input
        assert values.tobytes() == restored.tobytes() == inverse.tobytes(), kernel

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("shape", [shape for shape, _ in SHAPES])
    def test_stacked_inverse_equals_the_separate_inverses(self, shape, batch):
        # solve_dct_stack inverts u's and v's coefficients as one (2, B, *shape) array
        g = Grid((math.pi, 2.0, 3.0)[: len(shape)], shape)
        pair = np.random.default_rng(7).uniform(-1.0, 2.0, (2, batch) + shape)
        first, second = (cell_values(g, half.copy()) for half in pair)
        stacked = cell_values(g, pair)
        assert stacked[0].tobytes() == first.tobytes()
        assert stacked[1].tobytes() == second.tobytes()


class TestEllipticIdentity:
    def test_constant_state_is_exact(self):
        g = _grid_1d(32)
        c, beta, kappa = 2.0, 1.5, 2.0
        u = Field.constant(g, c)
        v = Field.constant(g, beta * c**kappa)
        assert cl.elliptic_identity_residual(u, v, beta, kappa) == pytest.approx(0.0, abs=1e-12)

    def test_second_order_residual(self):
        res = {}
        for nx in (64, 128):
            g = _grid_1d(nx)
            x = g.coordinates[0]
            u = Field(1.0 + 0.5 * np.cos(x), g)
            v = cl.solve_helmholtz(g, Field(u.values, g))
            res[nx] = abs(cl.elliptic_identity_residual(u, v, 1.0, 1.0))
            assert res[nx] < 10.0 * g.spacings[0] ** 2 * g.volume
        assert res[64] / res[128] > 2.5

    def test_nonpositive_v(self):
        g = _grid_1d(16)
        u = Field.constant(g, 1.0)
        v = Field.constant(g, 1.0)
        v.values[5] = 0.0
        with pytest.raises(NonpositiveV):
            cl.elliptic_identity_residual(u, v, 1.0, 1.0)


class TestDiscreteCalculus:
    def test_laplacian_matrix_matches_apply(self):
        for g in (_grid_1d(16), _grid_2d(8, 12, lengths=(1.0, 2.0)),
                  Grid((1.0, 2.0, 1.5), (8, 9, 10))):
            rng = np.random.default_rng(5)
            u = rng.normal(size=g.shape)
            via_matrix = (laplacian_matrix(g) @ u.ravel()).reshape(g.shape)
            assert laplacian_apply(u, g) == pytest.approx(via_matrix)

    def test_divergence_telescopes(self):
        g = _grid_2d(12, 10)
        rng = np.random.default_rng(1)
        u = rng.normal(size=g.shape)
        assert abs(laplacian_apply(u, g).sum()) < 1e-11


class TestChemotaxisFlux:
    @pytest.mark.parametrize("shape, batch", [
        ((64,), ()), ((16, 20), ()), ((8, 8, 8), ()), ((64,), (3,)),
    ], ids=["1d", "2d", "3d-8", "batch-3x64"])
    def test_derivative_matches_central_differences(self, shape, batch):
        # chemotaxis_divergence is bilinear in (u, grad v), so the central
        # difference along (du, grad dv) is its derivative up to roundoff
        g = Grid((math.pi, 2.0, 1.5)[: len(shape)], shape)
        rng = np.random.default_rng(8)
        u, v, du, dv = (rng.uniform(0.5, 2.0, batch + shape) for _ in range(4))
        chi = rng.uniform(1.0, 5.0, batch).reshape(batch + (1,) * len(shape)) if batch else 3.7
        grad_v, grad_dv = face_gradients(v, g), face_gradients(dv, g)
        eps = 1e-4

        def divergence(sign):
            shifted = [gv + sign * eps * gd for gv, gd in zip(grad_v, grad_dv)]
            return chemotaxis_divergence(u + sign * eps * du, shifted, chi, g)

        central = (divergence(1.0) - divergence(-1.0)) / (2.0 * eps)
        derivative = chemotaxis_flux_derivative(u, grad_v, chi, g)
        exact = face_divergence(derivative(du, grad_dv), g)
        assert np.max(np.abs(central - exact)) <= 1e-6 * np.max(np.abs(exact))
