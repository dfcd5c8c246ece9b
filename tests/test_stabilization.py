from types import SimpleNamespace

import numpy as np
import pytest

from specvol.filters import apply_generator, build_generator
from specvol.mesh import build_grid
from specvol.riemann import InterfaceTerms
from specvol.stabilization import DEN_FLOOR, compute_correction, corrected_rhs
from specvol.systems import burgers_system, euler_system, primitive_to_conserved
from support import REPORT_ATTRIBUTES


def correction(averages, rhs, direction, sigma, f_star, system, dt, gen, periodic, d_llf,
               sigma_fallbacks=0):
    """compute_correction with U and dU/du of the cell averages of ``system``.

    The interface record carries the given sigma, F*, LLF dissipation and
    fallback count, and a zero flux, which the correction does not read.
    """
    averages_terms = system.stage_terms(averages, len(averages))
    rates = np.stack([rhs, direction])
    flux = np.zeros((len(sigma), system.m))
    terms = InterfaceTerms(flux, sigma, sigma_fallbacks, f_star, d_llf)
    return compute_correction(
        averages_terms.entropy, averages_terms.gradient, rates, terms, dt, gen, periodic
    )


class TestCorrectedRhs:
    def test_zero_lambda_unchanged(self):
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=(5, 4, 1))
        v = rng.normal(size=(5, 4, 1))
        np.testing.assert_array_equal(corrected_rhs(rhs.copy(), np.zeros(5), v), rhs)

    def test_constant_field_direction_vanishes(self):
        widths = build_grid(0.0, 1.0, 3, 4).cv_widths
        gen = build_generator(widths)
        v = apply_generator(gen, np.full((3, 4, 1), 2.0))
        rhs = np.ones((3, 4, 1))
        np.testing.assert_allclose(corrected_rhs(rhs.copy(), np.ones(3), v), rhs, atol=1e-13)

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

    def test_nan_lambda_rejected(self):
        with pytest.raises(ValueError):
            corrected_rhs(np.zeros((2, 4, 1)), np.array([0.0, np.nan]), np.ones((2, 4, 1)))

    def test_adds_into_the_given_array(self):
        # The stage adds the correction into its own D array.
        rng = np.random.default_rng(3)
        rhs = rng.normal(size=(6, 4, 3))
        v = rng.normal(size=(6, 4, 3))
        lam = rng.uniform(0.0, 5.0, 6)
        want = rhs + lam[:, None, None] * v
        got = corrected_rhs(rhs, lam, v)
        assert got is rhs
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_bad_lambda_rejected_in_place_before_writing(self, bad):
        rhs = np.ones((2, 4, 1))
        with pytest.raises(ValueError):
            corrected_rhs(rhs, np.array([0.0, bad]), np.ones((2, 4, 1)))
        assert np.all(rhs == 1.0)


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
        rep = correction(
            data, rhs, direction, sigma, f_star, system, 0.01, gen, True, d_llf
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
        rep_a = correction(
            a[0], a[1], a[2], a[3], a[4], a[7], 0.01, a[8], True, a[5]
        )
        rep_b = correction(
            b[0], b[1], b[2], b[3], b[4], b[7], 0.01, b[8], True, b[5]
        )
        np.testing.assert_array_equal(rep_a.lambda_final, rep_b.lambda_final)

    def test_post_correction_entropy_inequality(self):
        # wherever the printed construction was fully applied, the corrected
        # derivative satisfies the per-SV entropy budget
        data, rhs, direction, sigma, f_star, d_llf, widths, system, gen = self.make_inputs(seed=23)
        rep = correction(
            data, rhs, direction, sigma, f_star, system, 1e-4, gen, True, d_llf
        )
        grad = system.entropy_gradient_raw(data)
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
        rep = correction(
            data, rhs, direction, sigma, f_star, system, 0.01, gen, False, d_llf
        )
        # boundary sigma is treated as absent: no entropy-rate part may come
        # from the domain-end interfaces
        assert rep.lambda_er_l[0] == 0.0
        assert rep.lambda_er_r[-1] == 0.0

    def test_fixed_bc_leaves_caller_sigma_intact(self):
        data, rhs, direction, sigma, f_star, d_llf, widths, system, gen = self.make_inputs(seed=7)
        before = sigma.copy()
        correction(
            data, rhs, direction, sigma, f_star, system, 0.01, gen, False, d_llf
        )
        np.testing.assert_array_equal(sigma, before)

    def test_den_floor_scales_with_sv_entropy(self):
        # The same small perturbation has <dU/du, v> ~ 1e-8 with or without an
        # offset (H removes constants); the floor 1e-12 * max(1, |sum h U|)
        # rejects it only beside the offset's entropy 5e5.
        shape = np.array([1.0, 0.0, 0.0, -1.0]) * 1e-4
        rhs = shape.reshape(1, 4, 1)  # production > 0 in both
        bare = correct_one_sv(one_sv(data=shape), rhs=rhs)
        offset = correct_one_sv(one_sv(data=shape + 1e3), rhs=rhs)
        assert bare.den_fallbacks == 0 and bare.lambda_ed[0] > 0.0
        assert offset.den_fallbacks == 1 and offset.lambda_ed[0] == 0.0

    def one_sv_demands(self):
        """One periodic SV whose two entropy-rate demands are 1 each.

        With one SV both interfaces pair it with itself, so each demand is
        sigma / (2 <dU/du, v>); no budget demand, no cap.
        """
        widths = build_grid(0.0, 1.0, 1, 4).cv_widths
        gen = build_generator(widths)
        data = np.array([[[1.0], [0.0], [0.0], [-1.0]]])
        direction = apply_generator(gen, data)
        ip = float(np.einsum("jc,jc,j->", data[0], direction[0], widths))
        assert ip < 0.0
        sigma = np.full(2, 2.0 * ip)
        args = (data, np.zeros_like(data), direction, sigma, np.zeros(2), burgers_system(), gen)
        return args, np.full(2, 1e9)

    def test_sum_clamps_at_positivity_limit(self):
        # Each demand (1) is below the limit 1 / (dt max|H_jj|) = 1.5, their sum is not.
        (data, rhs, direction, sigma, f_star, system, gen), d_llf = self.one_sv_demands()
        dt = 1.0 / (1.5 * gen.max_diag)
        rep = correction(
            data, rhs, direction, sigma, f_star, system, dt, gen, True, d_llf
        )
        assert rep.lambda_er_l[0] == pytest.approx(1.0, rel=1e-14)
        assert rep.lambda_er_r[0] == pytest.approx(1.0, rel=1e-14)
        assert rep.lambda_sum[0] == pytest.approx(2.0, rel=1e-14)
        assert rep.lambda_final[0] == 1.0 / (dt * gen.max_diag)
        assert rep.clamped[0] and rep.dropped_demands == 0

    def test_one_cv_per_sv_has_no_limit_and_no_correction(self):
        # k = 1: the generator is zero, so is max|H_jj|, and no SV has a direction.
        widths = build_grid(0.0, 1.0, 5, 1).cv_widths
        gen = build_generator(widths)
        assert gen.max_diag == 0.0
        data = np.arange(5.0).reshape(5, 1, 1)
        direction = apply_generator(gen, data)
        rep = correction(
            data, np.ones_like(data), direction, -np.ones(6), np.zeros(6),
            burgers_system(), 0.1, gen, True, np.ones(6),
        )
        assert np.all(rep.lambda_final == 0.0)
        assert rep.den_fallbacks == 5 and rep.dropped_demands == 0


def one_sv(scale_to_ip=None, data=(1.0, 0.0, 0.0, -1.0)):
    """One periodic Burgers SV of four CVs: (data, direction, <dU/du, v>, widths, gen).

    With ``scale_to_ip`` the data is scaled so that <dU/du, v> takes that value.
    """
    widths = build_grid(0.0, 1.0, 1, 4).cv_widths
    gen = build_generator(widths)
    data = np.asarray(data, dtype=float).reshape(1, 4, 1)
    ip = float(np.einsum("jc,jc,j->", data[0], apply_generator(gen, data)[0], widths))
    if scale_to_ip is not None:
        data = data * np.sqrt(scale_to_ip / ip)
    direction = apply_generator(gen, data)
    ip = float(np.einsum("jc,jc,j->", data[0], direction[0], widths))
    return data, direction, ip, widths, gen


def correct_one_sv(sv, rhs=None, sigma=(0.0, 0.0), f_star=(0.0, 0.0), dt=1e-6):
    """compute_correction of ``one_sv`` with an uncapping dissipation scale."""
    data, direction, _, _, gen = sv
    rhs = np.zeros_like(data) if rhs is None else rhs
    return correction(
        data, rhs, direction, np.array(sigma), np.array(f_star), burgers_system(),
        dt, gen, True, np.full(2, 1e9),
    )


class TestLambdaEd:
    """The budget part: production over the F* balance, per <dU/du, v>."""

    def test_within_budget(self):
        rep = correct_one_sv(one_sv(), f_star=(1.0, 0.0))
        assert rep.lambda_ed[0] == 0.0 and rep.lambda_final[0] == 0.0

    def test_excess_production(self):
        # production 0.1 over an empty budget with <dU/du, v> = -0.5
        sv = one_sv(scale_to_ip=-0.5)
        data, _, ip, widths, _ = sv
        assert ip == pytest.approx(-0.5, rel=1e-14)
        rhs = data * (0.1 / np.einsum("jc,jc,j->", data[0], data[0], widths))
        rep = correct_one_sv(sv, rhs=rhs)
        assert rep.lambda_ed[0] == pytest.approx(0.2, rel=1e-13)
        assert rep.lambda_final[0] == rep.lambda_ed[0]

    def test_degenerate_denominator(self):
        sv = one_sv(data=(1.0, 1.0, 1.0, 1.0))
        assert abs(sv[2]) < 1e-12
        rep = correct_one_sv(sv, rhs=np.ones((1, 4, 1)))
        assert rep.lambda_ed[0] == 0.0 and rep.den_fallbacks == 1


class TestLambdaEr:
    """The entropy-rate parts: each interface's sigma over its SVs' <dU/du, v>."""

    def test_zero_sigma(self):
        rep = correct_one_sv(one_sv())
        assert rep.lambda_er_l[0] == 0.0 and rep.lambda_er_r[0] == 0.0
        assert rep.lambda_final[0] == 0.0

    def test_burgers_example(self):
        # The Burgers shock's sigma -1/3 at the left interface, <dU/du, v> = -1/3
        # on both of its sides.
        rep = correct_one_sv(one_sv(scale_to_ip=-1.0 / 3.0), sigma=(-1.0 / 3.0, 0.0))
        assert rep.lambda_er_l[0] == pytest.approx(0.5, rel=1e-14)
        assert rep.lambda_er_r[0] == 0.0

    def test_degenerate_denominators(self):
        rep = correct_one_sv(one_sv(data=(1.0, 1.0, 1.0, 1.0)), sigma=(-1.0, -1.0))
        assert rep.lambda_er_l[0] == 0.0 and rep.lambda_er_r[0] == 0.0


class TestLambdaFinal:
    """The sum of the parts, clamped at 1 / (dt * max|H_jj|)."""

    def test_zero_sum(self):
        rep = correct_one_sv(one_sv())
        assert rep.lambda_sum[0] == 0.0 and rep.lambda_final[0] == 0.0
        assert not rep.clamped[0]

    def test_example_values(self):
        sv = one_sv()
        ip, gen = sv[2], sv[4]
        dt = 0.1 / gen.max_diag  # limit 10
        # each interface demands sigma / (2 ip): 2.5 + 2.5 stays, 8 + 8 clamps
        below = correct_one_sv(sv, sigma=(5.0 * ip, 5.0 * ip), dt=dt)
        assert below.lambda_final[0] == pytest.approx(5.0, rel=1e-14)
        assert not below.clamped[0]
        above = correct_one_sv(sv, sigma=(16.0 * ip, 16.0 * ip), dt=dt)
        assert above.lambda_sum[0] == pytest.approx(16.0, rel=1e-14)
        assert above.lambda_final[0] == pytest.approx(10.0, rel=1e-15)
        assert above.clamped[0] and above.dropped_demands == 0


def lambda_er(sigma_left, sigma_right, ip_prev, ip_self, ip_next, eps_den):
    """Entropy-rate parts from the two adjacent interface estimates.

    lambda_ER_l = max(0, sigma_l / (ip_prev + ip_self)) and mirrored for the
    right; parts with a denominator within eps_den of zero are zero.
    """
    den_l = ip_prev + ip_self
    den_r = ip_self + ip_next
    usable_l = np.abs(den_l) > eps_den
    usable_r = np.abs(den_r) > eps_den
    lam_l = np.where(usable_l, np.maximum(0.0, sigma_left / np.where(usable_l, den_l, 1.0)), 0.0)
    lam_r = np.where(usable_r, np.maximum(0.0, sigma_right / np.where(usable_r, den_r, 1.0)), 0.0)
    return lam_l, lam_r


def lambda_final(lambda_sum, dt, gen):
    """Clamp the summed correction at lambda_max = 1 / (dt * max|H_jj|)."""
    lambda_max = np.inf if gen.max_diag == 0.0 else 1.0 / (dt * gen.max_diag)
    return np.minimum(lambda_max, lambda_sum)


def composed_correction(averages, rhs, direction, sigma, f_star, system, dt, gen, periodic, d_llf):
    """compute_correction spelled out part by part, with np.roll for the neighbours."""
    widths = gen.cv_widths
    grad = system.entropy_gradient_raw(averages)
    production = np.einsum("ijc,ijc,j->i", grad, rhs, widths)
    direction_ip = np.einsum("ijc,ijc,j->i", grad, direction, widths)
    entropies = np.einsum("j,ij->i", widths, system.entropy_raw(averages))
    eps_den = DEN_FLOOR * np.maximum(1.0, np.abs(entropies))
    sigma = sigma.copy()
    if not periodic:
        sigma[0] = sigma[-1] = 0.0
    excess = production - (f_star[:-1] - f_star[1:])
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
    limit = np.inf if gen.max_diag == 0.0 else 1.0 / (dt * gen.max_diag)
    over = [part > limit for part in (ed_term, lam_l, lam_r)]
    ed_term, lam_l, lam_r = (
        np.where(o, 0.0, part) for o, part in zip(over, (ed_term, lam_l, lam_r))
    )
    lam_sum = np.maximum(0.0, ed_term + lam_l + lam_r)
    lam = lambda_final(lam_sum, dt, gen)
    return SimpleNamespace(
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
        return data, rhs, direction, sigma, f_star, system, gen, d_llf

    @pytest.mark.parametrize("kind", ["burgers", "euler"])
    @pytest.mark.parametrize("periodic", [True, False])
    # The third case takes its dt from the positivity limit instead,
    # dt = 1 / (1e-3 max|H_jj|), a limit below many demands; its listed dt
    # only keeps the case's id.
    @pytest.mark.parametrize("dt, limit", [(0.01, None), (10.0, None), (0.01, 1e-3)])
    def test_matches_composition(self, kind, periodic, dt, limit):
        dropped = 0
        for seed in range(6):
            data, rhs, direction, sigma, f_star, system, gen, d_llf = self.inputs(kind, seed)
            if limit is not None:
                dt = 1.0 / (limit * gen.max_diag)
            args = (data, rhs, direction, sigma, f_star, system, dt, gen, periodic)
            got = correction(*args, d_llf, sigma_fallbacks=4)
            want = composed_correction(*args, d_llf)
            for name in REPORT_ATTRIBUTES:
                a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
                assert a.shape == b.shape and a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), name
            dropped += got.dropped_demands
            assert got.den_fallbacks >= 1
        if dt == 10.0 or limit is not None:
            assert dropped > 0  # the positivity limit dropped some demands

    def test_nonpositive_dt_rejected(self):
        data, rhs, direction, sigma, f_star, system, gen, d_llf = self.inputs("burgers", 0)
        with pytest.raises(ValueError):
            correction(
                data, rhs, direction, sigma, f_star, system, 0.0, gen, True, d_llf
            )
