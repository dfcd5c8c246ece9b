import dataclasses

import numpy as np
import pytest

from specvol.mesh import build_grid
from specvol.reconstruction import (
    build_reconstruction,
    legendre_eval,
    legendre_integral,
    moment_matrix,
    reconstruct_all,
)


def cell_averages_of(poly, grid):
    """Exact CV averages of a numpy polynomial via its antiderivative."""
    anti = poly.integ()
    lo, hi = grid.cv_edges[:, :-1], grid.cv_edges[:, 1:]
    return (anti(hi) - anti(lo)) / (hi - lo)


class TestLegendreEval:
    def test_degree_zero(self):
        assert legendre_eval(0, 0.7) == 1.0

    def test_degree_one(self):
        assert legendre_eval(1, -1.0) == -1.0

    def test_degree_two(self):
        assert legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    @pytest.mark.parametrize("m", range(8))
    def test_matches_numpy_legendre(self, m):
        xs = np.linspace(-1, 1, 41)
        ref = np.polynomial.legendre.legval(xs, [0.0] * m + [1.0])
        np.testing.assert_allclose(legendre_eval(m, xs), ref, atol=1e-13)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            legendre_eval(-1, 0.0)


class TestLegendreIntegral:
    @pytest.mark.parametrize("m", range(7))
    def test_against_quadrature(self, m):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        rng = np.random.default_rng(7)
        for _ in range(20):
            lo, hi = np.sort(rng.uniform(-1, 1, 2))
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            quad = half * np.sum(weights * legendre_eval(m, mid + half * nodes))
            assert legendre_integral(m, lo, hi) == pytest.approx(quad, abs=1e-13)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_full_interval_orthogonality(self, m):
        assert legendre_integral(m, -1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


class TestMomentMatrix:
    def test_first_column_is_ones(self):
        grid = build_grid(0.0, 1.0, 3, 4)
        np.testing.assert_allclose(moment_matrix(grid)[:, 0], 1.0, atol=1e-15)

    def test_k2_equidistant_closed_form(self):
        grid = build_grid(-1.0, 1.0, 1, 2)  # Gauss-Lobatto k=2 is equidistant
        np.testing.assert_allclose(
            moment_matrix(grid), [[1.0, -0.5], [1.0, 0.5]], atol=1e-15
        )

    def test_k4_constant_reproduction(self):
        grid = build_grid(0.0, 1.0, 2, 4)
        m = moment_matrix(grid)
        np.testing.assert_allclose(m @ np.array([1.0, 0, 0, 0]), np.ones(4), atol=1e-15)

    def test_inverse_round_trip(self):
        moments = moment_matrix(build_grid(0.0, 1.0, 2, 4))
        np.testing.assert_allclose(np.linalg.inv(moments) @ moments, np.eye(4), atol=1e-12)
        assert np.isfinite(np.linalg.cond(moments))


class TestOperatorCache:
    def test_grids_with_one_subdivision_share_the_operator(self):
        op = build_reconstruction(build_grid(0.0, 1.0, 3, 4))
        assert build_reconstruction(build_grid(-5.0, 5.0, 40, 4)) is op
        assert not op.combined.flags.writeable
        with pytest.raises(ValueError):
            op.combined[0, 0] = 1.0

    def test_kronecker_blocks_are_read_only(self):
        op = build_reconstruction(build_grid(0.0, 1.0, 3, 4))
        for m in (1, 3):
            reconstruct_all(op, np.zeros((3, 4, m)))
            assert not any(op._blocks[name, m].flags.writeable for name in ("left", "right"))

    def test_other_subdivisions_get_their_own_operator(self):
        grid = build_grid(0.0, 1.0, 3, 4)
        op = build_reconstruction(grid)
        assert build_reconstruction(build_grid(0.0, 1.0, 3, 5)) is not op
        # A second partition of the SV: faces at [-1, zeros of P_3, 1].
        zeros = np.polynomial.legendre.leggauss(3)[0]
        nodes = np.concatenate(([-1.0], zeros, [1.0]))
        lg = dataclasses.replace(grid, ref_nodes=nodes, ref_widths=np.diff(nodes))
        lg_op = build_reconstruction(lg)
        assert lg_op is not op
        assert build_reconstruction(dataclasses.replace(lg, ref_nodes=nodes.copy())) is lg_op
        np.testing.assert_allclose(lg_op.combined.sum(axis=1), 1.0, atol=1e-12)


class TestReconstruction:
    def test_constant_reproduction(self):
        grid = build_grid(0.0, 1.0, 4, 4)
        op = build_reconstruction(grid)
        for c in (-3.0, 0.0, 2.5):
            data = np.full((4, 4, 1), c)
            np.testing.assert_allclose(reconstruct_all(op, data), c, atol=1e-13)

    def test_row_sums_of_combined_operator(self):
        for k in (1, 2, 3, 4, 5):
            grid = build_grid(0.0, 1.0, 2, k)
            op = build_reconstruction(grid)
            np.testing.assert_allclose(op.combined.sum(axis=1), 1.0, atol=1e-12)

    def test_k2_linear_traces(self):
        grid = build_grid(-1.0, 1.0, 1, 2)
        op = build_reconstruction(grid)
        traces = reconstruct_all(op, np.array([[[-0.5], [0.5]]]))
        np.testing.assert_allclose(traces.ravel(), [-1.0, 0.0, 1.0], atol=1e-14)

    def test_k4_cubic_exact(self):
        grid = build_grid(-1.0, 1.0, 1, 4)
        op = build_reconstruction(grid)
        poly = np.polynomial.Polynomial([0.0, 0.0, 0.0, 1.0])  # x^3
        data = cell_averages_of(poly, grid)[..., None]
        traces = reconstruct_all(op, data)
        np.testing.assert_allclose(traces[0, :, 0], grid.ref_nodes**3, atol=1e-10)

    def test_two_sv_linear_interface_agreement(self):
        grid = build_grid(0.0, 1.0, 2, 2)
        op = build_reconstruction(grid)
        poly = np.polynomial.Polynomial([0.0, 1.0])  # x
        data = cell_averages_of(poly, grid)[..., None]
        traces = reconstruct_all(op, data)
        assert traces[0, -1, 0] == pytest.approx(0.5, abs=1e-14)
        assert traces[1, 0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_componentwise_application(self):
        grid = build_grid(0.0, 1.0, 3, 4)
        op = build_reconstruction(grid)
        rng = np.random.default_rng(3)
        data = rng.normal(size=(3, 4, 3))
        traces = reconstruct_all(op, data)
        for c in range(3):
            np.testing.assert_array_equal(
                traces[..., c], reconstruct_all(op, data[..., c : c + 1])[..., 0]
            )

    def test_dimension_mismatch_rejected(self):
        grid = build_grid(0.0, 1.0, 2, 4)
        op = build_reconstruction(grid)
        with pytest.raises(ValueError):
            reconstruct_all(op, np.zeros((2, 3, 1)))
