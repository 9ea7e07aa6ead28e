import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import chemolab as cl
from chemolab.elliptic import (
    discrete_sigma,
    helmholtz_matrix,
    solve_helmholtz_array,
    solve_screened_array,
)
from chemolab.errors import NonpositiveV, OutOfRange
from chemolab.evolve import DT_MAX_FACTOR
from chemolab.grid import Field, Grid, integrate, laplacian_apply


def _grid_1d(nx, length=math.pi):
    p = cl.build_params(
        {"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 1, "L": length}
    )
    return cl.make_grid(p, nx)


def _grid_2d(nx, ny=None, lengths=(math.pi, math.pi)):
    p = cl.build_params(
        {"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1,
         "dim": 2, "lengths": lengths}
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

    def test_resolution_floor(self):
        with pytest.raises(OutOfRange):
            _grid_1d(4)


class TestEigenpairs:
    def test_1d_spectrum(self):
        g = _grid_1d(64)
        pairs = cl.neumann_eigenvalues(g, 5)
        assert [e.sigma for e in pairs] == pytest.approx([1, 2, 5, 10, 17])
        assert all(e.multiplicity == 1 for e in pairs)
        assert pairs[0].eigenfunction.values == pytest.approx(np.ones(64))

    def test_square_degeneracy(self):
        g = _grid_2d(16)
        pairs = cl.neumann_eigenvalues(g, 3)
        assert pairs[1].sigma == pytest.approx(2.0)
        assert pairs[1].multiplicity == 2
        assert set(pairs[1].indices) == {(1, 0), (0, 1)}

    def test_grid_splits_a_continuum_group(self):
        # sigma = 26 on a square: (0,5),(5,0) and (3,4),(4,3) differ in sigma_h
        g = _grid_2d(32)
        pairs = [e for e in cl.neumann_eigenvalues(g, 14) if e.sigma == pytest.approx(26.0)]
        assert [set(e.indices) for e in pairs] == [{(0, 5), (5, 0)}, {(3, 4), (4, 3)}]
        assert [e.multiplicity for e in pairs] == [2, 2]
        assert [e.sigma_h for e in pairs] == pytest.approx([25.5020, 25.7306], abs=1e-4)
        for e in pairs:
            assert {discrete_sigma(g, ks) for ks in e.indices} == {e.sigma_h}
            x, y = g.coordinates
            kx, ky = e.index
            assert e.eigenfunction.values == pytest.approx(np.cos(kx * x) * np.cos(ky * y))

    def test_count_capped_by_cells(self):
        g = _grid_1d(8)
        with pytest.raises(OutOfRange):
            cl.neumann_eigenvalues(g, 9)

    def test_discrete_formula_matches_dense_eigensolver(self):
        g = _grid_1d(256)
        ours = sorted(discrete_sigma(g, (k,)) for k in range(10))
        dense = scipy.linalg.eigvalsh(helmholtz_matrix(g).toarray())
        assert ours == pytest.approx(list(dense[:10]), abs=1e-9)

    def test_discrete_eigen_residual(self):
        g = _grid_1d(128)
        A = helmholtz_matrix(g)
        for pair in cl.neumann_eigenvalues(g, 6):
            e = pair.eigenfunction.values
            assert np.max(np.abs(A @ e - pair.sigma_h * e)) < 1e-10

    def test_descriptor(self):
        g = _grid_2d(16)
        pairs = cl.neumann_eigenvalues(g, 2)
        assert "cos" in pairs[1].descriptor


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
        for pair in cl.neumann_eigenvalues(g, 4):
            v = cl.solve_helmholtz(g, pair.eigenfunction)
            assert v.values == pytest.approx(
                pair.eigenfunction.values / pair.sigma_h, abs=1e-9
            )

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
            x = solve_screened_array(g, rhs, c)
        A = np.eye(g.n_cells) - c * g.laplacian_matrix.toarray()
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
                        st.tuples(st.integers(8, 48), st.integers(8, 48))),
        lengths=st.tuples(st.floats(0.5, 10.0), st.floats(0.5, 10.0)),
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
        screened = solve_screened_array(g, rhs, c.reshape((-1,) + (1,) * len(shape)))
        helmholtz = solve_helmholtz_array(g, rhs)
        for i in range(5):
            assert screened[i].tobytes() == solve_screened_array(g, rhs[i], c[i]).tobytes()
            assert helmholtz[i].tobytes() == solve_helmholtz_array(g, rhs[i]).tobytes()
        assert (solve_helmholtz_array(g, rhs[0]).tobytes()
                == solve_screened_array(g, rhs[0], 1.0).tobytes())

    def test_rejects_nonfinite_source(self):
        g = _grid_1d(16)
        bad = np.ones(16)
        bad[3] = np.nan
        with pytest.raises(OutOfRange):
            cl.solve_helmholtz(g, Field(bad, g))


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
        for g in (_grid_1d(16), _grid_2d(8, 12, lengths=(1.0, 2.0))):
            rng = np.random.default_rng(5)
            u = rng.normal(size=g.shape)
            via_matrix = (g.laplacian_matrix @ u.ravel()).reshape(g.shape)
            assert laplacian_apply(u, g) == pytest.approx(via_matrix)

    def test_divergence_telescopes(self):
        g = _grid_2d(12, 10)
        rng = np.random.default_rng(1)
        u = rng.normal(size=g.shape)
        assert abs(laplacian_apply(u, g).sum()) < 1e-11
