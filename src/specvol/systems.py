"""Conservation systems: flux, entropy pair, entropy gradient, wave speeds.

States are numpy arrays whose last axis holds the m conserved components, so
every operation is vectorized over arbitrary leading axes (cells, interfaces,
sample batches). Scalar systems use m = 1.

Entropy pairs (U, F) satisfy the compatibility relation U'(u) f'(u) = F'(u);
for Euler the physical pair U = -rho*S, F = -rho*v*S with S = ln(p rho^-gamma)
is used.

Each quantity has one method (``flux_raw``, ``max_signal_speed_raw``,
``entropy_raw``, ``entropy_flux_raw``, ``entropy_gradient_raw``), and
``stage_terms`` gives all of them in one pass, the flux-side terms of
the first rows only. None of them checks its
input: states are checked once where they enter the solver, with
``admissible`` / ``check_admissible``, and the methods assume admissible
states.
"""

import numpy as np

from .exceptions import InadmissibleStateError

__all__ = [
    "ConservationSystem",
    "LinearAdvection",
    "Burgers",
    "Euler",
    "advection_system",
    "burgers_system",
    "euler_system",
    "primitive_to_conserved",
    "conserved_to_primitive",
]


def _stack_last(columns):
    """``np.stack(columns, axis=-1)`` for equal-shape columns, without its call overhead."""
    out = np.empty(np.shape(columns[0]) + (len(columns),))
    for c, column in enumerate(columns):
        out[..., c] = column
    return out


class ConservationSystem:
    """Interface shared by all systems; immutable value object."""

    m: int = 1
    name: str = "abstract"

    # The benchmark's tracer wraps these methods by name, hence the suffix.
    def flux_raw(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def max_signal_speed_raw(self, u_l: np.ndarray, u_r: np.ndarray) -> np.ndarray:
        """Bound on |signal speed| over the two states, shape = leading dims."""
        raise NotImplementedError

    def entropy_raw(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def entropy_flux_raw(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def entropy_gradient_raw(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stage_terms(self, u, n):
        """(f, speed, U, F, dU/du) of admissible states u in one pass, unchecked.

        f, speed and F are those of the first n states ``u[:n]``, while U and
        dU/du cover all of u; ``n = len(u)`` gives every term of every state.
        ``speed`` is ``max_signal_speed_raw(u[:n], u[:n])``; every term equals
        its method's value bitwise. Systems whose terms share work override
        this.
        """
        head = u[:n]
        return (
            self.flux_raw(head),
            self.max_signal_speed_raw(head, head),
            self.entropy_raw(u),
            self.entropy_flux_raw(head),
            self.entropy_gradient_raw(u),
        )

    def admissible(self, u: np.ndarray) -> np.ndarray:
        """Boolean mask over the leading axes; True where u is admissible.

        Every finite state is admissible unless a system says otherwise. A
        scalar state tests its one component, without a reduction over the
        last axis.
        """
        u = np.asarray(u, dtype=float)
        return np.isfinite(u[..., 0]) if self.m == 1 else np.isfinite(u).all(axis=-1)

    def _admissible_entropy(self, u):
        """(admissible mask, U) of states u, unchecked and without warnings.

        U equals ``entropy_raw`` bitwise where the mask is True and is
        meaningless elsewhere. Systems whose two terms share work override this.
        """
        return self.admissible(u), self.entropy_raw(u)

    def check_admissible(self, u: np.ndarray, context: str = "state") -> None:
        ok = self.admissible(u)
        if not np.all(ok):
            bad = np.argwhere(~np.atleast_1d(ok))
            where = tuple(int(i) for i in bad[0])
            raise InadmissibleStateError(
                f"inadmissible {self.name} {context} at index {where}", where=where
            )


class LinearAdvection(ConservationSystem):
    """u_t + v u_x = 0 with quadratic entropy U = u^2/2, F = v u^2/2."""

    m = 1
    name = "advection"

    def __init__(self, velocity: float):
        if not np.isfinite(velocity):
            raise ValueError(f"velocity must be finite, got {velocity}")
        self.velocity = float(velocity)

    def flux_raw(self, u):
        return self.velocity * np.asarray(u, dtype=float)

    def max_signal_speed_raw(self, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        return np.full(u_l.shape[:-1], abs(self.velocity))

    def entropy_raw(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u[..., 0] ** 2

    def entropy_flux_raw(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * self.velocity * u[..., 0] ** 2

    def entropy_gradient_raw(self, u):
        return np.asarray(u, dtype=float).copy()


class Burgers(ConservationSystem):
    """u_t + (u^2/2)_x = 0 with U = u^2/2, F = u^3/3."""

    m = 1
    name = "burgers"

    def flux_raw(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u

    def max_signal_speed_raw(self, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        return np.maximum(np.abs(u_l[..., 0]), np.abs(u_r[..., 0]))

    def entropy_raw(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u[..., 0] ** 2

    def entropy_flux_raw(self, u):
        u = np.asarray(u, dtype=float)
        return u[..., 0] ** 3 / 3.0

    def entropy_gradient_raw(self, u):
        return np.asarray(u, dtype=float).copy()


class Euler(ConservationSystem):
    """1D Euler equations for an ideal gas, state u = (rho, rho*v, E).

    Pressure closure p = (gamma - 1)(E - rho v^2 / 2); admissible means
    rho > 0, p > 0 and every component finite. ``admissible`` tests
    0 < rho < inf, p > 0 and a finite E: the same set, without a reduction
    over the components. With rho and E finite, a non-finite momentum makes
    p -inf or nan, which fails p > 0; a nan density fails rho > 0.

    The entropy is U = -rho*S with S = ln(p rho^-gamma); its gradient
    (derived, since only the pair itself is standard) is

        dU/du = (gamma - S - (gamma-1) rho v^2 / (2p),
                 (gamma-1) rho v / p,
                 -(gamma-1) rho / p).

    Every method derives its terms from ``_primitives``, except the flux:
    its pressure is evaluated as (gamma-1)(E - (rho v) v / 2), which rounds
    differently from the pressure of ``_primitives``, so the two expressions
    are kept apart.
    """

    m = 3
    name = "euler"

    def __init__(self, gamma: float = 1.4):
        if not gamma > 1.0:
            raise ValueError(f"adiabatic index must exceed 1, got {gamma}")
        self.gamma = float(gamma)

    def _primitives(self, u):
        """(rho, rho*v, p) of the states u, p = (gamma-1)(E - (rho v)^2 / (2 rho))."""
        u = np.asarray(u, dtype=float)
        rho, mom = u[..., 0], u[..., 1]
        return rho, mom, (self.gamma - 1.0) * (u[..., 2] - 0.5 * mom**2 / rho)

    def _flux(self, mom, energy, v):
        p = (self.gamma - 1.0) * (energy - 0.5 * mom * v)
        return _stack_last([mom, mom * v + p, v * (energy + p)])

    def _speed(self, rho, v, p):
        return np.abs(v) + np.sqrt(self.gamma * p / rho)

    def _log_entropy(self, rho, p):
        return np.log(p) - self.gamma * np.log(rho)

    def _gradient(self, rho, v, p, s):
        g = self.gamma
        g1_rho = (g - 1.0) * rho
        return _stack_last([g - s - g1_rho * v**2 / (2.0 * p), g1_rho * v / p, -g1_rho / p])

    def _mask(self, u, rho, p):
        return (rho > 0.0) & (rho < np.inf) & (p > 0.0) & np.isfinite(u[..., 2])

    def admissible(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            rho, _, p = self._primitives(u)
        return self._mask(u, rho, p)

    def _admissible_entropy(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            rho, _, p = self._primitives(u)
            return self._mask(u, rho, p), -rho * self._log_entropy(rho, p)

    def flux_raw(self, u):
        u = np.asarray(u, dtype=float)
        mom = u[..., 1]
        return self._flux(mom, u[..., 2], mom / u[..., 0])

    def max_signal_speed_raw(self, u_l, u_r):
        # One pass when both sides are the same array: max(a, a) == a.
        rho_l, mom_l, p_l = self._primitives(u_l)
        speed_l = self._speed(rho_l, mom_l / rho_l, p_l)
        if u_r is u_l:
            return speed_l
        rho_r, mom_r, p_r = self._primitives(u_r)
        return np.maximum(speed_l, self._speed(rho_r, mom_r / rho_r, p_r))

    def entropy_raw(self, u):
        rho, _, p = self._primitives(u)
        return -rho * self._log_entropy(rho, p)

    def entropy_flux_raw(self, u):
        rho, mom, p = self._primitives(u)
        return -mom * self._log_entropy(rho, p)

    def entropy_gradient_raw(self, u):
        rho, mom, p = self._primitives(u)
        return self._gradient(rho, mom / rho, p, self._log_entropy(rho, p))

    def stage_terms(self, u, n):
        u = np.asarray(u, dtype=float)
        rho, mom, p = self._primitives(u)
        v = mom / rho
        s = self._log_entropy(rho, p)
        ent, grad = -rho * s, self._gradient(rho, v, p, s)
        u, rho, mom, p, v, s = u[:n], rho[:n], mom[:n], p[:n], v[:n], s[:n]
        return self._flux(mom, u[..., 2], v), self._speed(rho, v, p), ent, -mom * s, grad


def advection_system(velocity: float) -> LinearAdvection:
    return LinearAdvection(velocity)


def burgers_system() -> Burgers:
    return Burgers()


def euler_system(gamma: float = 1.4) -> Euler:
    return Euler(gamma)


def primitive_to_conserved(rho, v, p, gamma: float = 1.4) -> np.ndarray:
    """(rho, v, p) -> (rho, rho*v, E) with E = p/(gamma-1) + rho v^2/2."""
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(rho <= 0.0) or np.any(p <= 0.0):
        raise InadmissibleStateError("primitive state needs rho > 0 and p > 0")
    energy = p / (gamma - 1.0) + 0.5 * rho * v**2
    return np.stack(np.broadcast_arrays(rho, rho * v, energy), axis=-1)


def conserved_to_primitive(u, gamma: float = 1.4):
    """(rho, rho*v, E) -> (rho, v, p); raises on inadmissible input."""
    u = np.asarray(u, dtype=float)
    rho, mom, energy = u[..., 0], u[..., 1], u[..., 2]
    if np.any(rho <= 0.0):
        raise InadmissibleStateError("nonpositive density")
    v = mom / rho
    p = (gamma - 1.0) * (energy - 0.5 * rho * v**2)
    if np.any(p <= 0.0):
        raise InadmissibleStateError("nonpositive pressure")
    return rho, v, p
