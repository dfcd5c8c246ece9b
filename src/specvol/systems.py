"""Conservation systems: flux, entropy pair, entropy gradient, wave speeds.

States are numpy arrays whose last axis holds the m conserved components, so
every operation is vectorized over arbitrary leading axes (cells, interfaces,
sample batches). Scalar systems use m = 1 and the quadratic entropy U = u^2/2.

Entropy pairs (U, F) satisfy the compatibility relation U'(u) f'(u) = F'(u);
for Euler the physical pair U = -rho*S, F = -rho*v*S with S = ln(p rho^-gamma)
is used.

Each quantity has one method (``flux_raw``, ``max_signal_speed_raw``,
``entropy_raw``, ``entropy_flux_raw``, ``entropy_gradient_raw``), and
``stage_terms`` gives all of them in one pass over the admissible states of
a stage: its interface sides, then its cell averages.
``flux_raw(u, out=buf)`` writes the flux into ``buf``, a float array shaped
like u that does not overlap it (a view such as the solver's CV-face rows
will do), and returns ``buf``; its bits are those of ``flux_raw(u)``. The
stage's large arrays of traces and faces thereby take their flux without a
temporary of their size.
None of them checks its input: states are checked once where they enter the
solver, with ``admissible`` / ``check_admissible``, and the methods assume
admissible states.
"""

from typing import NamedTuple

import numpy as np

from .exceptions import InadmissibleStateError

__all__ = [
    "ConservationSystem",
    "StageTerms",
    "LinearAdvection",
    "Burgers",
    "Euler",
    "advection_system",
    "burgers_system",
    "euler_system",
    "primitive_to_conserved",
]


class StageTerms(NamedTuple):
    """The terms ``stage_terms(u, n)`` gives, each as the array of its rows.

    Rows 0..n-1 are interface sides and the rest cell averages.
    """

    flux: np.ndarray  # f of u[:n]
    speed: np.ndarray  # max_signal_speed_raw of u[:n]
    entropy: np.ndarray  # U of u
    entropy_flux: np.ndarray  # F of u[:n]
    gradient: np.ndarray  # dU/du of u


class ConservationSystem:
    """Interface shared by all systems; immutable value object."""

    m: int = 1
    name: str = "abstract"

    # The benchmark's tracer wraps these methods by name, hence the suffix.
    def flux_raw(self, u: np.ndarray, out=None) -> np.ndarray:
        raise NotImplementedError

    def max_signal_speed_raw(self, u: np.ndarray) -> np.ndarray:
        """Bound on |signal speed| of each state, shape = leading dims."""
        raise NotImplementedError

    def entropy_raw(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def entropy_flux_raw(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def entropy_gradient_raw(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stage_terms(self, u, n):
        """The ``StageTerms`` of the states u (rows along the first axis) in one pass.

        The states must be admissible and are not checked: f, speed and F
        are those of u[:n], U and dU/du those of all of u. Each term equals
        its method's value bitwise. Systems whose terms share work override
        this whole pass; no hook replaces a single term.
        """
        u = np.asarray(u, dtype=float)
        head = u[:n]
        return StageTerms(
            self.flux_raw(head),
            self.max_signal_speed_raw(head),
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

    def check_admissible(self, u: np.ndarray, context: str = "state") -> None:
        ok = self.admissible(u)
        if not np.all(ok):
            bad = np.argwhere(~np.atleast_1d(ok))
            where = tuple(int(i) for i in bad[0])
            raise InadmissibleStateError(
                f"inadmissible {self.name} {context} at index {where}", where=where
            )


class _QuadraticEntropy(ConservationSystem):
    """A scalar system (m = 1) with the quadratic entropy U = u^2/2, dU/du = u."""

    m = 1

    def entropy_raw(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u[..., 0] ** 2

    def entropy_gradient_raw(self, u):
        return np.asarray(u, dtype=float).copy()


class LinearAdvection(_QuadraticEntropy):
    """u_t + v u_x = 0 with quadratic entropy U = u^2/2, F = v u^2/2."""

    name = "advection"

    def __init__(self, velocity: float):
        if not np.isfinite(velocity):
            raise ValueError(f"velocity must be finite, got {velocity}")
        self.velocity = float(velocity)

    def flux_raw(self, u, out=None):
        return np.multiply(self.velocity, np.asarray(u, dtype=float), out=out)

    def max_signal_speed_raw(self, u):
        return np.full(np.shape(u)[:-1], abs(self.velocity))

    def entropy_flux_raw(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * self.velocity * u[..., 0] ** 2


class Burgers(_QuadraticEntropy):
    """u_t + (u^2/2)_x = 0 with U = u^2/2, F = u^3/3."""

    name = "burgers"

    def flux_raw(self, u, out=None):
        u = np.asarray(u, dtype=float)
        f = np.multiply(0.5, u, out=out)
        return np.multiply(f, u, out=f)  # (0.5 * u) * u, in that order

    def max_signal_speed_raw(self, u):
        return np.abs(np.asarray(u, dtype=float)[..., 0])

    def entropy_flux_raw(self, u):
        u = np.asarray(u, dtype=float)
        return u[..., 0] ** 3 / 3.0


class Euler(ConservationSystem):
    """1D Euler equations for an ideal gas, state u = (rho, rho*v, E).

    Pressure closure p = (gamma - 1)(E - rho v^2 / 2); admissible means
    rho > 0, p > 0 and every component finite. ``admissible`` tests
    min(rho, p) > 0 and a finite rho - E: the same set, without a reduction
    over the components. Once rho > 0 and p > 0, E > rho v^2 / 2 >= 0, so
    rho - E cannot overflow and is finite exactly when rho and E are; a nan
    in either of rho and p fails the first test. With rho and E finite, a
    non-finite momentum makes p -inf or nan, which fails p > 0.

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
        if not 1.0 < gamma < np.inf:
            raise ValueError(f"adiabatic index must be finite and exceed 1, got {gamma}")
        self.gamma = float(gamma)

    def _primitives(self, u):
        """(rho, rho*v, p) of the states u, p = (gamma-1)(E - (rho v)^2 / (2 rho))."""
        u = np.asarray(u, dtype=float)
        rho, mom = u[..., 0], u[..., 1]
        return rho, mom, (self.gamma - 1.0) * (u[..., 2] - 0.5 * mom**2 / rho)

    def _flux(self, mom, energy, v, out=None):
        # The components go straight into the stacked array (``out`` if given).
        p = (self.gamma - 1.0) * (energy - 0.5 * mom * v)
        f = np.empty(mom.shape + (3,)) if out is None else out
        f[..., 0] = mom
        np.add(mom * v, p, out=f[..., 1])
        np.multiply(v, energy + p, out=f[..., 2])
        return f

    def _speed(self, rho, v, p):
        return np.abs(v) + np.sqrt(self.gamma * p / rho)

    def _log_entropy(self, rho, p):
        return np.log(p) - self.gamma * np.log(rho)

    def _gradient(self, rho, v, p, s):
        g = self.gamma
        g1_rho = (g - 1.0) * rho
        # Each component is computed in its slot of the stacked array.
        grad = np.empty(rho.shape + (3,))
        d0, d1, d2 = grad[..., 0], grad[..., 1], grad[..., 2]
        np.multiply(g1_rho, v**2, out=d0)
        np.divide(d0, 2.0 * p, out=d0)
        np.subtract(g - s, d0, out=d0)
        np.multiply(g1_rho, v, out=d1)
        np.divide(d1, p, out=d1)
        np.negative(g1_rho, out=d2)
        np.divide(d2, p, out=d2)
        return grad

    def admissible(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):  # inf - inf in the mask too
            rho, _, p = self._primitives(u)
            return (np.minimum(rho, p) > 0.0) & np.isfinite(rho - u[..., 2])

    def flux_raw(self, u, out=None):
        u = np.asarray(u, dtype=float)
        mom = u[..., 1]
        return self._flux(mom, u[..., 2], mom / u[..., 0], out)

    def max_signal_speed_raw(self, u):
        rho, mom, p = self._primitives(u)
        return self._speed(rho, mom / rho, p)

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
        rho, mom, p, v, s = rho[:n], mom[:n], p[:n], v[:n], s[:n]
        flux = self._flux(mom, u[:n, ..., 2], v)
        return StageTerms(flux, self._speed(rho, v, p), ent, -mom * s, grad)


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
