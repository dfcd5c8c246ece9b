import numpy as np
import pytest

from specvol.filters import (
    apply_generator,
    build_generator,
    filter_matrix,
    jensen_dissipation_check,
)
from specvol.mesh import build_grid
from specvol.systems import euler_system
from support import admissible_states


def gl_widths(k):
    return build_grid(0.0, 1.0, 1, k).cv_widths


def quadratic_entropy(u):
    return 0.5 * np.asarray(u)[..., 0] ** 2


class TestBuildGenerator:
    def test_k2_unit_widths(self):
        gen = build_generator(np.array([1.0, 1.0]))
        np.testing.assert_allclose(gen.matrix, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-15)
        assert gen.max_diag == 1.0

    def test_k1_degenerate(self):
        gen = build_generator(np.array([1.0]))
        np.testing.assert_array_equal(gen.matrix, [[0.0]])
        assert gen.max_diag == 0.0

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_generator_properties_on_gauss_lobatto_widths(self, k):
        widths = gl_widths(k)
        gen = build_generator(widths)
        h = gen.matrix
        np.testing.assert_allclose(h.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(widths @ h, 0.0, atol=1e-12)
        off = h - np.diag(np.diag(h))
        assert np.all(off >= 0.0)
        assert np.linalg.matrix_rank(h) == k - 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_tridiagonal_structure(self, k):
        h = build_generator(gl_widths(k)).matrix
        for i in range(k):
            for j in range(k):
                if abs(i - j) > 1:
                    assert h[i, j] == 0.0

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
    def test_nullspace_is_constants(self, k):
        h = build_generator(gl_widths(k)).matrix
        np.testing.assert_allclose(h @ np.ones(k), 0.0, atol=1e-12)
        # echelon argument: k-1 pivots
        assert np.linalg.matrix_rank(h) == k - 1

    def test_nonpositive_widths_rejected(self):
        with pytest.raises(ValueError):
            build_generator(np.array([1.0, 0.0]))


class TestGeneratorCache:
    def test_one_read_only_generator_per_width_vector(self):
        widths = gl_widths(4)
        gen = build_generator(widths)
        assert build_generator(widths.copy()) is gen
        assert build_generator(list(widths)) is gen
        for arr in (gen.matrix, gen.cv_widths):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            gen.matrix[0, 0] = 1.0
        # The caller's widths stay its own, writable.
        assert widths.flags.writeable and not np.shares_memory(gen.cv_widths, widths)
        np.testing.assert_array_equal(gen.cv_widths, widths)

    def test_other_widths_get_their_own_generator(self):
        widths = gl_widths(4)
        gen = build_generator(widths)
        zeros = np.polynomial.legendre.leggauss(3)[0]
        lg_widths = 0.5 * np.diff(np.concatenate(([-1.0], zeros, [1.0])))
        others = [build_generator(w) for w in (0.5 * widths, lg_widths, gl_widths(5))]
        assert all(other is not gen for other in others)
        assert len({id(other) for other in others}) == 3
        for other, w in zip(others, (0.5 * widths, lg_widths, gl_widths(5))):
            np.testing.assert_array_equal(other.cv_widths, w)
        # H scales like 1 / h^2.
        np.testing.assert_allclose(others[0].matrix, 4.0 * gen.matrix, rtol=1e-14)


class TestApplyGenerator:
    def test_constant_in_nullspace(self):
        gen = build_generator(gl_widths(4))
        np.testing.assert_allclose(apply_generator(gen, np.full((1, 4, 1), 3.3)), 0.0, atol=1e-13)

    def test_k2_example(self):
        gen = build_generator(np.array([1.0, 1.0]))
        out = apply_generator(gen, np.array([[[0.0], [1.0]]]))
        np.testing.assert_allclose(out.ravel(), [1.0, -1.0], atol=1e-15)

    def test_correction_conserves_weighted_sum(self):
        rng = np.random.default_rng(8)
        widths = gl_widths(4)
        gen = build_generator(widths)
        data = rng.normal(size=(6, 4, 3))
        v = apply_generator(gen, data)
        np.testing.assert_allclose(np.einsum("j,ijc->ic", widths, v), 0.0, atol=1e-13)

    def test_dimension_mismatch_rejected(self):
        # A batch of SVs of another k, or one SV that is not a batch.
        gen = build_generator(gl_widths(4))
        for data in (np.zeros((1, 3, 1)), np.zeros((4, 1))):
            with pytest.raises(ValueError, match=r"expected \(N, k=4, m\) data"):
                apply_generator(gen, data)


class TestFilterMatrix:
    def test_tau_zero_identity(self):
        gen = build_generator(gl_widths(4))
        np.testing.assert_array_equal(filter_matrix(gen, 0.0), np.eye(4))

    def test_k2_full_step_swaps(self):
        gen = build_generator(np.array([1.0, 1.0]))
        np.testing.assert_allclose(filter_matrix(gen, 1.0), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_conservative_positive_filter_within_limit(self, k):
        widths = gl_widths(k)
        gen = build_generator(widths)
        rng = np.random.default_rng(k)
        for tau in rng.uniform(0.0, 1.0 / gen.max_diag, 50):
            y = filter_matrix(gen, tau)
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(widths @ y, widths, atol=1e-13)
            assert y.min() >= -1e-15

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            filter_matrix(build_generator(gl_widths(3)), -0.1)


class TestJensenDissipation:
    def test_constant_state_equality(self):
        gen = build_generator(gl_widths(4))
        u = np.full((4, 1), 2.0)
        assert jensen_dissipation_check(gen, 0.5 / gen.max_diag, u, quadratic_entropy)

    def test_quadratic_entropy_random_states(self):
        gen = build_generator(gl_widths(4))
        rng = np.random.default_rng(99)
        for _ in range(1000):
            u = rng.normal(size=(4, 1))
            tau = rng.uniform(0.0, 1.0 / gen.max_diag)
            assert jensen_dissipation_check(gen, tau, u, quadratic_entropy)

    def test_euler_entropy_random_states(self):
        sys = euler_system(1.4)
        gen = build_generator(gl_widths(4))
        rng = np.random.default_rng(7)
        for _ in range(1000):
            u = admissible_states(sys, rng, 4)
            tau = rng.uniform(0.0, 1.0 / gen.max_diag)
            assert jensen_dissipation_check(gen, tau, u, sys.entropy_raw)


class TestDirectionDissipates:
    def test_quadratic_entropy_strictly_negative(self):
        widths = gl_widths(4)
        gen = build_generator(widths)
        rng = np.random.default_rng(31)
        for _ in range(300):
            u = rng.normal(size=(4, 1))
            if np.ptp(u) < 1e-9:
                continue
            (v,) = apply_generator(gen, u[None])
            ip = float(np.einsum("j,jc,jc->", widths, u, v))  # dU/du = u
            assert ip < 0.0

    def test_euler_entropy_nonpositive(self):
        sys = euler_system(1.4)
        widths = gl_widths(4)
        gen = build_generator(widths)
        rng = np.random.default_rng(37)
        for _ in range(300):
            u = admissible_states(sys, rng, 4)
            (v,) = apply_generator(gen, u[None])
            grad = sys.entropy_gradient_raw(u)
            ip = float(np.einsum("j,jc,jc->", widths, grad, v))
            assert ip <= 1e-12
