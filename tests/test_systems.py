import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from specvol.exceptions import InadmissibleStateError
from specvol.systems import (
    advection_system,
    burgers_system,
    euler_system,
    primitive_to_conserved,
)
from support import admissible_states


def fd_gradient(fn, u, h=1e-6):
    """Central-difference gradient of a scalar fn of an m-vector."""
    grad = np.zeros_like(u)
    for c in range(u.size):
        up, dn = u.copy(), u.copy()
        up[c] += h
        dn[c] -= h
        grad[c] = (fn(up) - fn(dn)) / (2 * h)
    return grad


def fd_jacobian(fn, u, h=1e-6):
    cols = []
    for c in range(u.size):
        up, dn = u.copy(), u.copy()
        up[c] += h
        dn[c] -= h
        cols.append((fn(up) - fn(dn)) / (2 * h))
    return np.stack(cols, axis=-1)


class TestAdvection:
    def test_flux_speed_one(self):
        sys = advection_system(1.0)
        assert sys.flux_raw(np.array([2.0]))[0] == 2.0

    def test_entropy_flux(self):
        sys = advection_system(1.0)
        assert sys.entropy_flux_raw(np.array([2.0])) == pytest.approx(2.0)

    def test_zero_speed(self):
        sys = advection_system(0.0)
        xs = np.linspace(-5, 5, 11)[:, None]
        np.testing.assert_array_equal(sys.flux_raw(xs), np.zeros_like(xs))

    def test_velocity_scales_entropy_flux(self):
        sys = advection_system(-2.5)
        u = np.array([1.5])
        assert sys.entropy_flux_raw(u) == pytest.approx(-2.5 * 1.5**2 / 2)

    def test_nonfinite_velocity_rejected(self):
        with pytest.raises(ValueError):
            advection_system(np.inf)


class TestBurgers:
    def test_cubic_entropy_flux(self):
        assert burgers_system().entropy_flux_raw(np.array([1.0])) == pytest.approx(1 / 3)

    def test_even_flux(self):
        assert burgers_system().flux_raw(np.array([-2.0]))[0] == pytest.approx(2.0)

    def test_signal_speed(self):
        sys = burgers_system()
        np.testing.assert_array_equal(sys.max_signal_speed_raw(np.array([[1.0], [-2.0]])), [1, 2])


@pytest.mark.parametrize("make", [lambda: advection_system(1.0), burgers_system],
                         ids=["advection", "burgers"])
class TestScalarAdmissible:
    def test_finite_states_admissible(self, make):
        u = np.array([[-1e300], [0.0], [-0.0], [2.5], [1e-320]])
        np.testing.assert_array_equal(make().admissible(u), np.ones(5, dtype=bool))

    def test_non_finite_states_rejected_with_location(self, make):
        sys = make()
        u = np.zeros((3, 4, 1))
        u[1, 2, 0], u[2, 0, 0], u[0, 3, 0] = np.nan, np.inf, -np.inf
        want = np.ones((3, 4), dtype=bool)
        want[1, 2] = want[2, 0] = want[0, 3] = False
        np.testing.assert_array_equal(sys.admissible(u), want)
        with pytest.raises(InadmissibleStateError) as err:
            sys.check_admissible(u, "state")
        assert err.value.where == (0, 3)


class TestEuler:
    def test_unit_state_flux(self):
        sys = euler_system(1.4)
        u = primitive_to_conserved(1.0, 0.0, 1.0, 1.4)
        assert u[2] == pytest.approx(2.5)
        np.testing.assert_allclose(sys.flux_raw(u), [0.0, 1.0, 0.0], atol=1e-15)

    def test_unit_state_entropy(self):
        sys = euler_system(1.4)
        u = primitive_to_conserved(1.0, 0.0, 1.0, 1.4)
        assert sys.entropy_raw(u) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            euler_system(1.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="finite"):
            euler_system(gamma)

    def test_inadmissible_state_raises_with_location(self):
        sys = euler_system()
        states = np.stack(
            [primitive_to_conserved(1.0, 0.0, 1.0), np.array([1.0, 0.0, -1.0])]
        )
        np.testing.assert_array_equal(sys.admissible(states), [True, False])
        with pytest.raises(InadmissibleStateError) as err:
            sys.check_admissible(states, "state")
        assert err.value.where == (1,)

    def test_entropy_gradient_matches_finite_differences(self):
        sys = euler_system(1.4)
        rng = np.random.default_rng(11)
        states = admissible_states(sys, rng, 200)
        grads = sys.entropy_gradient_raw(states)
        for u, g in zip(states, grads):
            fd = fd_gradient(lambda w: float(sys.entropy_raw(w)), u)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


class TestEntropyPairCompatibility:
    @pytest.mark.parametrize(
        "make", [lambda: advection_system(1.7), burgers_system, euler_system]
    )
    def test_gradient_chain_rule(self, make):
        system = make()
        rng = np.random.default_rng(5)
        states = admissible_states(system, rng, 1000)
        for u in states:
            du = system.entropy_gradient_raw(u)
            jac = fd_jacobian(lambda w: system.flux_raw(w), u)
            df = fd_gradient(lambda w: float(system.entropy_flux_raw(w)), u)
            scale = max(1.0, np.max(np.abs(df)))
            np.testing.assert_allclose(du @ jac, df, atol=1e-5 * scale)

    @pytest.mark.parametrize(
        "make", [lambda: advection_system(1.0), burgers_system, euler_system]
    )
    def test_entropy_convexity(self, make):
        system = make()
        rng = np.random.default_rng(17)
        u1 = admissible_states(system, rng, 400)
        u2 = admissible_states(system, rng, 400)
        theta = rng.uniform(0.0, 1.0, 400)
        mix = theta[:, None] * u1 + (1 - theta[:, None]) * u2
        ok = system.admissible(mix)
        lhs = system.entropy_raw(mix[ok])
        rhs = theta[ok] * system.entropy_raw(u1[ok]) + (1 - theta[ok]) * system.entropy_raw(u2[ok])
        assert np.all(lhs <= rhs + 1e-12)

    @pytest.mark.parametrize(
        "make", [lambda: advection_system(2.0), burgers_system, euler_system]
    )
    def test_flux_finite_on_admissible_states(self, make):
        system = make()
        rng = np.random.default_rng(23)
        states = admissible_states(system, rng, 500)
        assert np.all(np.isfinite(system.flux_raw(states)))


class TestPrimitiveConversions:
    def test_unit_energy(self):
        u = primitive_to_conserved(1.0, 0.0, 1.0, 1.4)
        assert u[2] == pytest.approx(2.5)

    def test_lax_left_state(self):
        u = primitive_to_conserved(0.445, 0.698, 3.528, 1.4)
        assert u[1] == pytest.approx(0.31061, abs=1e-6)
        assert u[2] == pytest.approx(3.528 / 0.4 + 0.5 * 0.445 * 0.698**2, rel=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(29)
        rho = rng.uniform(0.1, 5.0, 300)
        v = rng.uniform(-3.0, 3.0, 300)
        p = rng.uniform(0.01, 5.0, 300)
        r2, mom, energy = primitive_to_conserved(rho, v, p, 1.4).T
        v2 = mom / r2
        p2 = (1.4 - 1.0) * (energy - 0.5 * r2 * v2**2)
        np.testing.assert_allclose(r2, rho, rtol=1e-13)
        np.testing.assert_allclose(v2, v, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(p2, p, rtol=1e-13)

    @pytest.mark.parametrize("rho, p", [(-1.0, 1.0), (0.0, 1.0), (1.0, -0.5), (1.0, 0.0)])
    def test_nonpositive_primitive_rejected(self, rho, p):
        with pytest.raises(InadmissibleStateError):
            primitive_to_conserved(rho, 0.0, p)


@st.composite
def system_and_states(draw):
    """A system and admissible states with leading shape (n,), (2, n) or (N, k)."""
    n = st.integers(1, 7)
    leading = draw(
        st.one_of(st.tuples(n), st.tuples(st.just(2), n), st.tuples(n, st.integers(1, 5)))
    )
    kind = draw(st.sampled_from(["advection", "burgers", "euler"]))
    if kind == "euler":
        gamma = draw(st.floats(1.05, 3.0))
        rho, p = (draw(hnp.arrays(float, leading, elements=st.floats(0.05, 5.0))) for _ in "rp")
        v = draw(hnp.arrays(float, leading, elements=st.floats(-3.0, 3.0)))
        return euler_system(gamma), primitive_to_conserved(rho, v, p, gamma)
    u = draw(hnp.arrays(float, leading + (1,), elements=st.floats(-3.0, 3.0)))
    if kind == "burgers":
        return burgers_system(), u
    return advection_system(draw(st.floats(-3.0, 3.0))), u


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestFusedTerms:
    """The one-pass terms equal the single methods bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(system_and_states())
    def test_stage_terms_match_single_methods(self, case):
        system, u = case
        terms = system.stage_terms(u, len(u))
        assert_bitwise(terms.flux, system.flux_raw(u))
        assert_bitwise(terms.speed, system.max_signal_speed_raw(u))
        assert_bitwise(terms.entropy, system.entropy_raw(u))
        assert_bitwise(terms.entropy_flux, system.entropy_flux_raw(u))
        assert_bitwise(terms.gradient, system.entropy_gradient_raw(u))

    @settings(max_examples=150, deadline=None)
    @given(system_and_states(), st.integers(0, 7))
    def test_stage_terms_of_the_first_rows(self, case, n):
        # The stage's averages need only U and dU/du: f, speed and F are
        # those of u[:n], U and dU/du those of all of u.
        system, u = case
        head = u[:n]
        terms = system.stage_terms(u, n)
        assert_bitwise(terms.flux, system.flux_raw(head))
        assert_bitwise(terms.speed, system.max_signal_speed_raw(head))
        assert_bitwise(terms.entropy, system.entropy_raw(u))
        assert_bitwise(terms.entropy_flux, system.entropy_flux_raw(head))
        assert_bitwise(terms.gradient, system.entropy_gradient_raw(u))

    @settings(max_examples=150, deadline=None)
    @given(system_and_states(), st.data())
    def test_stage_terms_of_sides_and_averages(self, case, data):
        # The stage's one pass: the interface sides, which get every term,
        # then the averages, which get U and dU/du; each part's terms are
        # those of the part alone.
        system, u = case
        rows = u.reshape(-1, system.m)
        n = data.draw(st.integers(0, len(rows)))
        sides, averages = rows[:n], rows[n:]
        terms = system.stage_terms(rows, n)
        assert_bitwise(terms.flux, system.flux_raw(sides))
        assert_bitwise(terms.speed, system.max_signal_speed_raw(sides))
        assert_bitwise(terms.entropy_flux, system.entropy_flux_raw(sides))
        for got, method in ((terms.entropy, system.entropy_raw),
                            (terms.gradient, system.entropy_gradient_raw)):
            assert_bitwise(got[:n], method(sides))
            assert_bitwise(got[n:], method(averages))

    @settings(max_examples=150, deadline=None)
    @given(system_and_states())
    def test_flux_into_a_given_array(self, case):
        # flux_raw(u, out=buf) fills buf and returns it, with the bits of
        # flux_raw(u), also when buf is a view, as the stage's CV faces are.
        system, u = case
        want = system.flux_raw(u)
        buf = np.full_like(want, np.nan)
        assert system.flux_raw(u, out=buf) is buf
        assert_bitwise(buf, want)
        rows = u.reshape(-1, system.m)
        faces = np.full((len(rows) + 1, system.m), np.nan)
        view = faces[:-1]
        assert system.flux_raw(rows, out=view) is view
        assert_bitwise(faces[:-1], want.reshape(rows.shape))
        assert np.isnan(faces[-1]).all()

    @settings(max_examples=100, deadline=None)
    @given(system_and_states())
    def test_speed_of_each_state(self, case):
        # One bound per state: the speeds of an array are those of its rows.
        system, u = case
        speed = system.max_signal_speed_raw(u)
        assert speed.shape == u.shape[:-1]
        for i, row in enumerate(u):
            assert_bitwise(speed[i], system.max_signal_speed_raw(row))

    @settings(max_examples=100, deadline=None)
    @given(system_and_states())
    def test_stacked_sides_give_the_two_sided_speed(self, case):
        # The stage takes c_max as the larger of the two sides' speeds, from
        # the stacked sides' terms or from one call per side.
        system, u = case
        other = u[::-1]
        speed = system.stage_terms(np.stack([u, other]), 2).speed
        per_side = system.max_signal_speed_raw(u), system.max_signal_speed_raw(other)
        assert_bitwise(np.maximum(speed[0], speed[1]), np.maximum(*per_side))


SPECIAL_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308,
                  1e154, -1e154, 1.0, -1.0]
ANY_FLOAT = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(), st.floats(0.01, 100.0))


@st.composite
def system_and_any_states(draw):
    """A system and states of any floats, admissible or not, shape (n, m) or (2, n, m)."""
    kind = draw(st.sampled_from(["advection", "burgers", "euler"]))
    if kind == "euler":
        system = euler_system(draw(st.floats(1.0, 10.0, exclude_min=True)))
    else:
        system = burgers_system() if kind == "burgers" else advection_system(0.5)
    n = st.integers(1, 20)
    leading = draw(st.one_of(st.tuples(n), st.tuples(st.just(2), n)))
    return system, draw(
        hnp.arrays(float, leading + (system.m,), elements=ANY_FLOAT, fill=st.nothing())
    )


class TestAdmissibleMask:
    """The masks equal the formula with a reduction over the components."""

    @settings(max_examples=300, deadline=None)
    @given(system_and_any_states())
    def test_mask_matches_reduction_formula(self, case):
        system, u = case
        with np.errstate(all="ignore"):
            want = np.isfinite(u).all(axis=-1)
            if system.m == 3:
                rho, _, p = system._primitives(u)
                want &= (rho > 0.0) & (p > 0.0)
            got = system.admissible(u)
        assert_bitwise(got, want)

    @settings(max_examples=300, deadline=None)
    @given(system_and_any_states())
    def test_inadmissible_states_have_no_finite_entropy(self, case):
        # sigma counts a fallback wherever U of its Riemann-fan state is not
        # finite, which must include every state that is not admissible.
        system, u = case
        with np.errstate(all="ignore"):
            bad = ~system.admissible(u)
            entropy = system.entropy_raw(u)
        assert not np.isfinite(entropy[bad]).any()
