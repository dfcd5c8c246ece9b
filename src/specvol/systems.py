"""Conservation systems: flux, entropy pair, entropy gradient, wave speeds.

States are numpy arrays whose last axis holds the m conserved components, so
every operation is vectorized over arbitrary leading axes (cells, interfaces,
sample batches). Scalar systems use m = 1.

Entropy pairs (U, F) satisfy the compatibility relation U'(u) f'(u) = F'(u);
for Euler the physical pair U = -rho*S, F = -rho*v*S with S = ln(p rho^-gamma)
is used.
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

    def flux(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def max_signal_speed(self, u_l: np.ndarray, u_r: np.ndarray) -> np.ndarray:
        """Bound on |signal speed| over the two states, shape = leading dims."""
        raise NotImplementedError

    def entropy(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def entropy_flux(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def entropy_gradient(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # Unchecked variants for hot loops that validate states once per stage.
    def flux_raw(self, u):
        return self.flux(u)

    def max_signal_speed_raw(self, u_l, u_r):
        return self.max_signal_speed(u_l, u_r)

    def entropy_raw(self, u):
        return self.entropy(u)

    def entropy_flux_raw(self, u):
        return self.entropy_flux(u)

    def entropy_gradient_raw(self, u):
        return self.entropy_gradient(u)

    def entropy_terms(self, u):
        """(U, dU/du) of admissible states u in one pass, unchecked."""
        return self.entropy_raw(u), self.entropy_gradient_raw(u)

    def stage_terms(self, u):
        """(f, speed, U, F, dU/du) of admissible states u in one pass, unchecked.

        ``speed`` is ``max_signal_speed(u, u)``; every term equals its
        checked method's value bitwise. Systems whose terms share work
        override this.
        """
        return (
            self.flux_raw(u),
            self.max_signal_speed_raw(u, u),
            self.entropy_raw(u),
            self.entropy_flux_raw(u),
            self.entropy_gradient_raw(u),
        )

    def admissible(self, u: np.ndarray) -> np.ndarray:
        """Boolean mask over the leading axes; True where u is admissible."""
        u = np.asarray(u)
        return np.ones(u.shape[:-1], dtype=bool)

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

    def flux(self, u):
        return self.velocity * np.asarray(u, dtype=float)

    def max_signal_speed(self, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        return np.full(u_l.shape[:-1], abs(self.velocity))

    def entropy(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u[..., 0] ** 2

    def entropy_flux(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * self.velocity * u[..., 0] ** 2

    def entropy_gradient(self, u):
        return np.asarray(u, dtype=float).copy()


class Burgers(ConservationSystem):
    """u_t + (u^2/2)_x = 0 with U = u^2/2, F = u^3/3."""

    m = 1
    name = "burgers"

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u

    def max_signal_speed(self, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        return np.maximum(np.abs(u_l[..., 0]), np.abs(u_r[..., 0]))

    def entropy(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u[..., 0] ** 2

    def entropy_flux(self, u):
        u = np.asarray(u, dtype=float)
        return u[..., 0] ** 3 / 3.0

    def entropy_gradient(self, u):
        return np.asarray(u, dtype=float).copy()


class Euler(ConservationSystem):
    """1D Euler equations for an ideal gas, state u = (rho, rho*v, E).

    Pressure closure p = (gamma - 1)(E - rho v^2 / 2); admissible means
    rho > 0 and p > 0. The entropy is U = -rho*S with S = ln(p rho^-gamma);
    its gradient (derived, since only the pair itself is standard) is

        dU/du = (gamma - S - (gamma-1) rho v^2 / (2p),
                 (gamma-1) rho v / p,
                 -(gamma-1) rho / p).

    Every method derives its terms from ``_primitives``, except the flux:
    its pressure is evaluated as (gamma-1)(E - (rho v) v / 2), which rounds
    differently from ``pressure``, so the two expressions are kept apart.
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

    def pressure(self, u):
        return self._primitives(u)[2]

    def sound_speed(self, u):
        return np.sqrt(self.gamma * self.pressure(u) / np.asarray(u)[..., 0])

    def admissible(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            rho, _, p = self._primitives(u)
        return (rho > 0.0) & (p > 0.0) & np.isfinite(u).all(axis=-1)

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        self.check_admissible(u, "flux argument")
        return self.flux_raw(u)

    def flux_raw(self, u):
        u = np.asarray(u, dtype=float)
        mom = u[..., 1]
        return self._flux(mom, u[..., 2], mom / u[..., 0])

    def max_signal_speed(self, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        self.check_admissible(u_l, "left state")
        self.check_admissible(u_r, "right state")
        return self.max_signal_speed_raw(u_l, u_r)

    def max_signal_speed_raw(self, u_l, u_r):
        rho_l, mom_l, p_l = self._primitives(u_l)
        rho_r, mom_r, p_r = self._primitives(u_r)
        return np.maximum(
            self._speed(rho_l, mom_l / rho_l, p_l), self._speed(rho_r, mom_r / rho_r, p_r)
        )

    def entropy(self, u):
        u = np.asarray(u, dtype=float)
        self.check_admissible(u, "entropy argument")
        return self.entropy_raw(u)

    def entropy_raw(self, u):
        rho, _, p = self._primitives(u)
        return -rho * self._log_entropy(rho, p)

    def entropy_flux(self, u):
        u = np.asarray(u, dtype=float)
        self.check_admissible(u, "entropy-flux argument")
        return self.entropy_flux_raw(u)

    def entropy_flux_raw(self, u):
        rho, mom, p = self._primitives(u)
        return -mom * self._log_entropy(rho, p)

    def entropy_gradient(self, u):
        u = np.asarray(u, dtype=float)
        self.check_admissible(u, "entropy-gradient argument")
        return self.entropy_gradient_raw(u)

    def entropy_gradient_raw(self, u):
        rho, mom, p = self._primitives(u)
        return self._gradient(rho, mom / rho, p, self._log_entropy(rho, p))

    def entropy_terms(self, u):
        rho, mom, p = self._primitives(u)
        s = self._log_entropy(rho, p)
        return -rho * s, self._gradient(rho, mom / rho, p, s)

    def stage_terms(self, u):
        u = np.asarray(u, dtype=float)
        rho, mom, p = self._primitives(u)
        v = mom / rho
        s = self._log_entropy(rho, p)
        return (
            self._flux(mom, u[..., 2], v),
            self._speed(rho, v, p),
            -rho * s,
            -mom * s,
            self._gradient(rho, v, p, s),
        )


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
