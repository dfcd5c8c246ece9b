import numpy as np
import pytest

from specvol.mesh import build_grid, gauss_legendre_rule, gauss_lobatto_nodes


def legendre_derivative(degree, x):
    """dP_degree/dx via the recurrence, independent of the mesh module."""
    p0, p1 = np.ones_like(x), np.asarray(x, dtype=float).copy()
    d0, d1 = np.zeros_like(x), np.ones_like(x)
    if degree == 0:
        return d0
    for n in range(1, degree):
        a, b = (2 * n + 1) / (n + 1), n / (n + 1)
        p2 = a * x * p1 - b * p0
        d2 = a * (p1 + x * d1) - b * d0
        p0, p1, d0, d1 = p1, p2, d1, d2
    return d1


def bisect_roots(f, n_roots, lo=-1.0, hi=1.0, tol=1e-14):
    """All sign-change roots of f on [lo, hi] by scan + bisection."""
    xs = np.linspace(lo, hi, 20001)
    vals = f(xs)
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0.0:
            a, b = xs[i], xs[i + 1]
            for _ in range(200):
                mid = 0.5 * (a + b)
                if f(np.array([a]))[0] * f(np.array([mid]))[0] <= 0.0:
                    b = mid
                else:
                    a = mid
                if b - a < tol:
                    break
            roots.append(0.5 * (a + b))
    assert len(roots) == n_roots
    return np.asarray(roots)


class TestGaussLobattoNodes:
    def test_two_nodes_are_endpoints(self):
        assert np.array_equal(gauss_lobatto_nodes(2), [-1.0, 1.0])

    def test_four_nodes_closed_form(self):
        nodes = gauss_lobatto_nodes(4)
        expected = np.array([-1.0, -1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 1.0])
        np.testing.assert_allclose(nodes, expected, atol=1e-14)

    def test_five_nodes_closed_form(self):
        nodes = gauss_lobatto_nodes(5)
        expected = np.array([-1.0, -np.sqrt(3.0 / 7.0), 0.0, np.sqrt(3.0 / 7.0), 1.0])
        np.testing.assert_allclose(nodes, expected, atol=1e-14)

    @pytest.mark.parametrize("n_nodes", [3, 4, 5, 6, 7, 9])
    def test_interior_nodes_match_bisection_oracle(self, n_nodes):
        nodes = gauss_lobatto_nodes(n_nodes)
        oracle = bisect_roots(
            lambda x: legendre_derivative(n_nodes - 1, x), n_nodes - 2, -0.9999, 0.9999
        )
        np.testing.assert_allclose(nodes[1:-1], oracle, atol=1e-12)

    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 8, 11])
    def test_symmetry_and_endpoints(self, n_nodes):
        nodes = gauss_lobatto_nodes(n_nodes)
        assert nodes[0] == -1.0 and nodes[-1] == 1.0
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        assert np.all(np.diff(nodes) > 0)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            gauss_lobatto_nodes(1)


class TestReferenceElementCache:
    def test_grids_with_one_subdivision_share_read_only_nodes(self):
        one, two = build_grid(0.0, 1.0, 3, 4), build_grid(-2.0, 7.0, 11, 4)
        assert one.ref_nodes is two.ref_nodes is gauss_lobatto_nodes(5)
        assert not one.ref_nodes.flags.writeable
        with pytest.raises(ValueError):
            one.ref_nodes[1] = 0.0

    def test_other_cv_count_gets_its_own_nodes(self):
        four, five = build_grid(0.0, 1.0, 3, 4), build_grid(0.0, 1.0, 3, 5)
        assert four.ref_nodes is not five.ref_nodes
        assert five.ref_nodes.shape == (6,)

    @pytest.mark.parametrize("order", [1, 8, 12])
    def test_gauss_legendre_rule_is_leggauss_read_only(self, order):
        nodes, weights = gauss_legendre_rule(order)
        expected = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(nodes, expected[0]) and np.array_equal(weights, expected[1])
        assert gauss_legendre_rule(order)[0] is nodes
        assert not (nodes.flags.writeable or weights.flags.writeable)


class TestBuildGrid:
    def test_sixty_sv_resolution(self):
        grid = build_grid(0.0, 1.0, 60, 4)
        assert grid.sv_width == pytest.approx(1.0 / 60.0, abs=1e-16)
        assert grid.cv_edges.shape == (60, 5)

    def test_degenerate_single_cv(self):
        grid = build_grid(0.0, 1.0, 1, 1)
        np.testing.assert_allclose(grid.cv_edges, [[0.0, 1.0]])
        np.testing.assert_allclose(grid.cv_widths, [1.0])

    def test_two_sv_halves(self):
        grid = build_grid(0.0, 1.0, 2, 1)
        np.testing.assert_allclose(grid.cv_edges, [[0.0, 0.5], [0.5, 1.0]])

    def test_cv_partition_tiles_svs_exactly(self):
        grid = build_grid(-2.0, 3.0, 7, 4)
        # shared boundaries are bitwise equal
        np.testing.assert_array_equal(grid.cv_edges[1:, 0], grid.cv_edges[:-1, -1])
        assert grid.cv_edges[0, 0] == -2.0
        assert grid.cv_edges[-1, -1] == 3.0

    def test_width_sums(self):
        grid = build_grid(0.0, 2.0, 5, 4)
        assert np.sum(grid.cv_widths) == pytest.approx(grid.sv_width, rel=1e-15)
        assert np.sum(grid.ref_widths) == pytest.approx(2.0, rel=1e-15)
        assert np.all(grid.cv_widths > 0)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_gauss_lobatto_clustering(self, k):
        grid = build_grid(0.0, 1.0, 3, k)
        widths = grid.cv_widths
        assert widths[0] == pytest.approx(widths[-1], rel=1e-14)
        assert np.all(widths[0] < widths[1:-1])

    def test_linear_map_round_trip(self):
        grid = build_grid(0.25, 1.75, 9, 5)
        for i in range(grid.num_sv):
            recovered = 2.0 * (grid.cv_edges[i] - grid.sv_centers[i]) / grid.sv_width
            np.testing.assert_allclose(recovered, grid.ref_nodes, atol=1e-14)

    @pytest.mark.parametrize(
        "a, b, n, k",
        [(1.0, 0.0, 4, 4), (0.0, np.inf, 4, 4), (0.0, 1.0, 0, 4), (0.0, 1.0, 4, 0),
         (0.0, 1.0, 2.5, 4), (0.0, 1.0, 3.0, 4), (0.0, 1.0, 3, 2.0)],
    )
    def test_invalid_arguments_rejected(self, a, b, n, k):
        with pytest.raises(ValueError):
            build_grid(a, b, n, k)

    def test_numpy_integer_counts_accepted(self):
        grid = build_grid(0.0, 1.0, np.int64(3), np.int32(4))
        assert (grid.num_sv, grid.num_cv) == (3, 4)
        np.testing.assert_array_equal(grid.cv_edges, build_grid(0.0, 1.0, 3, 4).cv_edges)
