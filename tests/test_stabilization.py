import dataclasses

import numpy as np
import pytest

from specvol.filters import apply_generator, build_generator
from specvol.mesh import build_grid
from specvol.stabilization import (
    DEN_FLOOR,
    CorrectionReport,
    compute_correction,
    corrected_rhs,
    lambda_ed,
    lambda_er,
    lambda_final,
    sv_entropy,
    sv_inner_product,
)
from specvol.systems import burgers_system, euler_system, primitive_to_conserved


class TestSvInnerProduct:
    def test_zero_factor(self):
        widths = np.array([0.5, 0.5])
        assert sv_inner_product(np.ones((2, 1)), np.zeros((2, 1)), widths) == 0.0

    def test_quadrature_gap_example(self):
        # u = x averaged over four equidistant CVs on [-1, 1]; g(u) = u^2
        # integrates to 0.625 instead of the exact 2/3.
        widths = np.full(4, 0.5)
        mids = np.array([-0.75, -0.25, 0.25, 0.75])
        value = sv_inner_product((mids**2)[:, None], np.ones((4, 1)), widths)
        assert value == pytest.approx(0.625, abs=1e-15)
        assert value != pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_constants(self):
        widths = np.array([0.2, 0.3, 0.5])
        a, b = 2.0, -3.0
        got = sv_inner_product(np.full((3, 1), a), np.full((3, 1), b), widths)
        assert got == pytest.approx(a * b * widths.sum(), rel=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sv_inner_product(np.ones((2, 1)), np.ones((3, 1)), np.ones(2))


class TestSvEntropy:
    def test_zero_state(self):
        assert sv_entropy(np.zeros((4, 1)), burgers_system(), np.full(4, 0.25)) == 0.0

    def test_unit_state(self):
        widths = build_grid(0.0, 1.0, 2, 4).cv_widths
        val = sv_entropy(np.ones((4, 1)), burgers_system(), widths)
        assert val == pytest.approx(0.5 * widths.sum(), rel=1e-14)

    def test_euler_unit_state(self):
        sys = euler_system(1.4)
        u = np.tile(primitive_to_conserved(1.0, 0.0, 1.0), (4, 1))
        assert sv_entropy(u, sys, np.full(4, 0.25)) == pytest.approx(0.0, abs=1e-14)


class TestLambdaEd:
    def test_within_budget(self):
        assert lambda_ed(1.0, 2.0, 0.5, -1.0) == 0.0

    def test_excess_production(self):
        assert lambda_ed(0.1, 0.0, 0.0, -0.5) == pytest.approx(0.2, abs=1e-15)

    def test_degenerate_denominator(self):
        assert lambda_ed(0.0, 0.0, 0.0, 0.0) == 0.0
        assert lambda_ed(1.0, 0.0, 0.0, -1e-15) == 0.0


class TestLambdaEr:
    def test_zero_sigma(self):
        assert lambda_er(0.0, 0.0, -1.0, -1.0, -1.0) == (0.0, 0.0)

    def test_burgers_example(self):
        lam_l, lam_r = lambda_er(-1.0 / 3.0, 0.0, -1.0 / 3.0, -1.0 / 3.0, -1.0)
        assert lam_l == pytest.approx(0.5, abs=1e-15)
        assert lam_r == 0.0

    def test_degenerate_denominators(self):
        lam_l, lam_r = lambda_er(-1.0, -1.0, -1e-15, 0.0, -1e-16)
        assert lam_l == 0.0 and lam_r == 0.0


class TestLambdaFinal:
    def setup_method(self):
        self.gen = build_generator(np.array([1.0, 1.0]))  # max_diag = 1

    def test_zero_sum(self):
        assert lambda_final(0.0, 0.1, self.gen) == 0.0

    def test_large_sum_clamps_to_limit(self):
        assert lambda_final(1e9, 0.1, self.gen) == pytest.approx(10.0, rel=1e-15)

    def test_example_values(self):
        assert lambda_final(20.0, 0.1, self.gen) == pytest.approx(10.0, rel=1e-15)
        assert lambda_final(5.0, 0.1, self.gen) == 5.0

    def test_override(self):
        assert lambda_final(20.0, 0.1, self.gen, lambda_max=2.0) == 2.0

    def test_degenerate_generator_unbounded(self):
        gen1 = build_generator(np.array([1.0]))
        assert lambda_final(7.0, 0.1, gen1) == 7.0

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            lambda_final(1.0, 0.0, self.gen)


class TestCorrectedRhs:
    def test_zero_lambda_unchanged(self):
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=(5, 4, 1))
        v = rng.normal(size=(5, 4, 1))
        np.testing.assert_array_equal(corrected_rhs(rhs, np.zeros(5), v), rhs)

    def test_constant_field_direction_vanishes(self):
        widths = build_grid(0.0, 1.0, 3, 4).cv_widths
        gen = build_generator(widths)
        v = apply_generator(gen, np.full((3, 4, 1), 2.0))
        rhs = np.ones((3, 4, 1))
        np.testing.assert_allclose(corrected_rhs(rhs, np.ones(3), v), rhs, atol=1e-13)

    def test_correction_preserves_total_mass(self):
        rng = np.random.default_rng(2)
        widths = build_grid(0.0, 1.0, 6, 4).cv_widths
        gen = build_generator(widths)
        data = rng.normal(size=(6, 4, 1))
        v = apply_generator(gen, data)
        rhs = rng.normal(size=(6, 4, 1))
        lam = rng.uniform(0.0, 5.0, 6)
        before = np.einsum("j,ijc->", widths, rhs)
        after = np.einsum("j,ijc->", widths, corrected_rhs(rhs, lam, v))
        assert after == pytest.approx(before, abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            corrected_rhs(np.zeros((2, 4, 1)), np.array([-1.0, 0.0]), np.zeros((2, 4, 1)))


class TestComputeCorrection:
    def make_inputs(self, seed=5, n_sv=8):
        rng = np.random.default_rng(seed)
        grid = build_grid(0.0, 2.0, n_sv, 4)
        widths = grid.cv_widths
        gen = build_generator(widths)
        system = burgers_system()
        data = rng.normal(size=(n_sv, 4, 1))
        rhs = rng.normal(size=(n_sv, 4, 1))
        direction = apply_generator(gen, data)
        sigma = -np.abs(rng.normal(size=n_sv + 1))
        f_star = rng.normal(size=n_sv + 1)
        d_llf = np.abs(rng.normal(size=n_sv + 1)) * 10.0
        return data, rhs, direction, sigma, f_star, d_llf, widths, system, gen

    def test_all_sizes_nonnegative_and_final_clamped(self):
        data, rhs, direction, sigma, f_star, d_llf, widths, system, gen = self.make_inputs()
        rep = compute_correction(
            data, rhs, direction, sigma, f_star, widths, system, 0.01, gen, True, d_llf
        )
        for arr in (rep.lambda_ed, rep.lambda_er_l, rep.lambda_er_r, rep.lambda_sum, rep.lambda_final):
            assert np.all(arr >= 0.0)
        lam_max = 1.0 / (0.01 * gen.max_diag)
        np.testing.assert_array_equal(
            rep.lambda_final, np.minimum(lam_max, rep.lambda_sum)
        )

    def test_deterministic(self):
        a = self.make_inputs(seed=11)
        b = self.make_inputs(seed=11)
        rep_a = compute_correction(
            a[0], a[1], a[2], a[3], a[4], a[6], a[7], 0.01, a[8], True, a[5]
        )
        rep_b = compute_correction(
            b[0], b[1], b[2], b[3], b[4], b[6], b[7], 0.01, b[8], True, b[5]
        )
        np.testing.assert_array_equal(rep_a.lambda_final, rep_b.lambda_final)

    def test_post_correction_entropy_inequality(self):
        # wherever the printed construction was fully applied, the corrected
        # derivative satisfies the per-SV entropy budget
        data, rhs, direction, sigma, f_star, d_llf, widths, system, gen = self.make_inputs(seed=23)
        rep = compute_correction(
            data, rhs, direction, sigma, f_star, widths, system, 1e-4, gen, True, d_llf
        )
        grad = system.entropy_gradient(data)
        corrected = rhs + rep.lambda_final[:, None, None] * direction
        lhs = np.einsum("ijc,ijc,j->i", grad, corrected, widths)
        budget = f_star[:-1] - f_star[1:]
        free = ~rep.clamped
        assert np.all(lhs[free] <= budget[free] + 1e-10)

    def test_fixed_bc_zeroes_boundary_sigma(self):
        data, rhs, direction, sigma, f_star, d_llf, widths, system, gen = self.make_inputs(seed=3)
        sigma = sigma.copy()
        sigma[0] = -50.0
        sigma[-1] = -50.0
        rep = compute_correction(
            data, rhs, direction, sigma, f_star, widths, system, 0.01, gen, False, d_llf
        )
        # boundary sigma is treated as absent: no entropy-rate part may come
        # from the domain-end interfaces
        assert rep.lambda_er_l[0] == 0.0
        assert rep.lambda_er_r[-1] == 0.0


def composed_correction(averages, rhs, direction, sigma, f_star, widths, system, dt, gen,
                        periodic, d_llf, lambda_max):
    """compute_correction spelled out with the per-part functions and checked methods."""
    grad = system.entropy_gradient(averages)
    production = np.einsum("ijc,ijc,j->i", grad, rhs, widths)
    direction_ip = np.einsum("ijc,ijc,j->i", grad, direction, widths)
    entropies = np.einsum("j,ij->i", widths, system.entropy(averages))
    eps_den = DEN_FLOOR * np.maximum(1.0, np.abs(entropies))
    sigma = sigma.copy()
    if not periodic:
        sigma[0] = sigma[-1] = 0.0
    sigma_used, excess = sigma, production - (f_star[:-1] - f_star[1:])
    excess_used = excess
    if d_llf is not None:
        cap = np.maximum(d_llf, 0.0)
        sigma_used = np.maximum(sigma, -cap)
        excess_used = np.minimum(excess, cap[:-1] + cap[1:])
    capped = (excess_used < excess) | (sigma_used[:-1] > sigma[:-1]) | (sigma_used[1:] > sigma[1:])
    usable = np.abs(direction_ip) > eps_den
    ed_term = np.where(usable, -excess_used / np.where(usable, direction_ip, 1.0), 0.0)
    if periodic:
        ip_prev, ip_next = np.roll(direction_ip, 1), np.roll(direction_ip, -1)
    else:
        ip_prev = np.concatenate([[0.0], direction_ip[:-1]])
        ip_next = np.concatenate([direction_ip[1:], [0.0]])
    lam_l, lam_r = lambda_er(sigma_used[:-1], sigma_used[1:], ip_prev, direction_ip, ip_next, eps_den)
    if lambda_max is None:
        limit = np.inf if gen.max_diag == 0.0 else 1.0 / (dt * gen.max_diag)
    else:
        limit = lambda_max
    over = [part > limit for part in (ed_term, lam_l, lam_r)]
    ed_term, lam_l, lam_r = (
        np.where(o, 0.0, part) for o, part in zip(over, (ed_term, lam_l, lam_r))
    )
    lam_sum = np.maximum(0.0, ed_term + lam_l + lam_r)
    lam = lambda_final(lam_sum, dt, gen, lambda_max)
    return CorrectionReport(
        lambda_ed=np.maximum(0.0, ed_term),
        lambda_er_l=lam_l,
        lambda_er_r=lam_r,
        lambda_sum=lam_sum,
        lambda_final=lam,
        clamped=(lam_sum > lam) | over[0] | over[1] | over[2] | capped,
        den_fallbacks=int(np.count_nonzero(~usable)),
        sigma_fallbacks=4,
        dropped_demands=sum(int(np.count_nonzero(o)) for o in over),
    )


class TestComputeCorrectionComposition:
    """compute_correction equals its parts composed one by one, bit for bit."""

    def inputs(self, kind, seed, n_sv=9):
        rng = np.random.default_rng(seed)
        widths = build_grid(0.0, 2.0, n_sv, 4).cv_widths
        gen = build_generator(widths)
        if kind == "euler":
            system = euler_system(1.4)
            shape = (n_sv, 4)
            data = primitive_to_conserved(
                rng.uniform(0.2, 2.0, shape), rng.uniform(-1.0, 1.0, shape),
                rng.uniform(0.2, 2.0, shape),
            )
        else:
            system = burgers_system()
            data = rng.normal(size=(n_sv, 4, 1))
        # Some constant SVs give degenerate denominators.
        data[1] = data[1, 0]
        rhs = rng.normal(size=data.shape)
        direction = apply_generator(gen, data)
        sigma = -np.abs(rng.normal(size=n_sv + 1))
        f_star = rng.normal(size=n_sv + 1)
        d_llf = np.abs(rng.normal(size=n_sv + 1)) * rng.choice([1e-3, 10.0], n_sv + 1)
        return data, rhs, direction, sigma, f_star, widths, system, gen, d_llf

    @pytest.mark.parametrize("kind", ["burgers", "euler"])
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("capped", [True, False])
    @pytest.mark.parametrize("dt, lambda_max", [(0.01, None), (10.0, None), (0.01, 1e-3)])
    def test_matches_composition(self, kind, periodic, capped, dt, lambda_max):
        dropped = 0
        for seed in range(6):
            data, rhs, direction, sigma, f_star, widths, system, gen, d_llf = self.inputs(kind, seed)
            scale = d_llf if capped else None
            args = (data, rhs, direction, sigma, f_star, widths, system, dt, gen, periodic)
            got = compute_correction(*args, scale, lambda_max, sigma_fallbacks=4)
            want = composed_correction(*args, scale, lambda_max)
            for f in dataclasses.fields(CorrectionReport):
                a, b = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
                assert a.shape == b.shape and a.dtype == b.dtype, f.name
                assert a.tobytes() == b.tobytes(), f.name
            dropped += got.dropped_demands
            assert got.den_fallbacks >= 1
        if dt == 10.0 or lambda_max is not None:
            assert dropped > 0  # the positivity limit dropped some demands

    def test_nonpositive_dt_rejected(self):
        data, rhs, direction, sigma, f_star, widths, system, gen, _ = self.inputs("burgers", 0)
        with pytest.raises(ValueError):
            compute_correction(data, rhs, direction, sigma, f_star, widths, system, 0.0, gen, True)
