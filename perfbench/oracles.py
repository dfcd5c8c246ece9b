"""Reference solutions the benchmark checks the solver against.

Everything here is computed from first principles with numpy and the math
module; nothing imports ``specvol``, so a fault in the solver's own
reference module cannot hide a fault in the solver.

* :class:`EulerRiemann` - the exact solution of the 1-D Euler Riemann
  problem for an ideal gas (Toro, *Riemann Solvers and Numerical Methods for
  Fluid Dynamics*, ch. 4): Newton iteration for the star pressure, then
  self-similar sampling.
* :func:`burgers_characteristic` - the smooth pre-shock Burgers solution of
  u0 = sin(pi (x - phase)), solved along characteristics.
* :func:`bump_density_averages` - exact cell averages of the periodic
  Gaussian density bump through the error function.
* :func:`gauss_legendre` and :func:`cell_averages` - Golub-Welsch
  Gauss-Legendre quadrature and piecewise cell averaging.
"""

import math

import numpy as np


def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    Legendre recurrence; the weights are twice the squared first components
    of its eigenvectors.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    k = np.arange(1, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    jacobi = np.diag(beta, 1) + np.diag(beta, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    return nodes, 2.0 * vecs[0] ** 2


def cell_averages(fn, lo, hi, breakpoints=(), n_nodes: int = 8):
    """Averages of ``fn`` over the cells [lo_i, hi_i].

    ``fn`` maps an array of positions to an array of values with the same
    leading shape (a trailing component axis is allowed). Cells that contain
    one of ``breakpoints`` are integrated piecewise, so a function that is
    smooth between the breakpoints is averaged to quadrature accuracy.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nodes, weights = gauss_legendre(n_nodes)

    def integral(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = np.asarray(fn(pts), dtype=float)
        w = (half[:, None] * weights[None, :]).reshape(pts.shape + (1,) * (vals.ndim - 2))
        return np.sum(w * vals, axis=1)

    total = integral(lo, hi)
    for i in range(lo.size):
        cuts = sorted(float(c) for c in breakpoints if lo[i] < c < hi[i])
        if cuts:
            edges = np.array([lo[i], *cuts, hi[i]])
            total[i] = np.sum(integral(edges[:-1], edges[1:]), axis=0)
    return total / (hi - lo).reshape((-1,) + (1,) * (total.ndim - 1))


class EulerRiemann:
    """Exact Riemann solution for the ideal-gas Euler equations.

    ``left`` and ``right`` are primitive states (rho, u, p). The star
    pressure solves f_L(p) + f_R(p) + u_R - u_L = 0 by Newton's method from
    the primitive-variable guess (Toro, section 4.3).
    """

    def __init__(self, left, right, gamma: float = 1.4, tol: float = 1e-14):
        self.gamma = float(gamma)
        self.rho_l, self.u_l, self.p_l = map(float, left)
        self.rho_r, self.u_r, self.p_r = map(float, right)
        self.a_l = math.sqrt(self.gamma * self.p_l / self.rho_l)
        self.a_r = math.sqrt(self.gamma * self.p_r / self.rho_r)
        if 2.0 * (self.a_l + self.a_r) / (self.gamma - 1.0) <= self.u_r - self.u_l:
            raise ValueError("the data generate vacuum")
        self.p_star, self.u_star = self._solve_star(tol)

    def _pressure_function(self, p, rho_k, p_k, a_k):
        """(f_K(p), f_K'(p)) for one side: shock branch above p_K, fan below."""
        g = self.gamma
        if p > p_k:
            a = 2.0 / ((g + 1.0) * rho_k)
            b = (g - 1.0) / (g + 1.0) * p_k
            root = math.sqrt(a / (p + b))
            return (p - p_k) * root, root * (1.0 - 0.5 * (p - p_k) / (b + p))
        ratio = p / p_k
        f = 2.0 * a_k / (g - 1.0) * (ratio ** ((g - 1.0) / (2.0 * g)) - 1.0)
        return f, ratio ** (-(g + 1.0) / (2.0 * g)) / (rho_k * a_k)

    def _solve_star(self, tol):
        du = self.u_r - self.u_l
        guess = 0.5 * (self.p_l + self.p_r) - 0.125 * du * (self.rho_l + self.rho_r) * (
            self.a_l + self.a_r
        )
        p = max(tol, guess)
        for _ in range(100):
            f_l, d_l = self._pressure_function(p, self.rho_l, self.p_l, self.a_l)
            f_r, d_r = self._pressure_function(p, self.rho_r, self.p_r, self.a_r)
            p_new = max(tol, p - (f_l + f_r + du) / (d_l + d_r))
            change = 2.0 * abs(p_new - p) / (p_new + p)
            p = p_new
            if change < tol:
                break
        else:
            raise RuntimeError("star-pressure iteration did not converge")
        f_l, _ = self._pressure_function(p, self.rho_l, self.p_l, self.a_l)
        f_r, _ = self._pressure_function(p, self.rho_r, self.p_r, self.a_r)
        return p, 0.5 * (self.u_l + self.u_r) + 0.5 * (f_r - f_l)

    def _left_wave(self, s, rho_k, u_k, p_k, a_k, u_star):
        """Primitive state left of the contact at speeds s (Toro, section 4.5).

        The right wave is the mirror image: call with -xi, -u_R and -u* and
        negate the returned velocity.
        """
        g = self.gamma
        ps = self.p_star
        if ps > p_k:  # shock
            rho_star = rho_k * (ps / p_k + (g - 1.0) / (g + 1.0)) / (
                (g - 1.0) / (g + 1.0) * ps / p_k + 1.0
            )
            speed = u_k - a_k * math.sqrt((g + 1.0) / (2.0 * g) * ps / p_k + (g - 1.0) / (2.0 * g))
            ahead = s <= speed
            return (
                np.where(ahead, rho_k, rho_star),
                np.where(ahead, u_k, u_star),
                np.where(ahead, p_k, ps),
            )
        rho_star = rho_k * (ps / p_k) ** (1.0 / g)
        head = u_k - a_k
        tail = u_star - a_k * (ps / p_k) ** ((g - 1.0) / (2.0 * g))
        bracket = np.abs(2.0 / (g + 1.0) + (g - 1.0) / ((g + 1.0) * a_k) * (u_k - s))
        fan = (
            rho_k * bracket ** (2.0 / (g - 1.0)),
            2.0 / (g + 1.0) * (a_k + 0.5 * (g - 1.0) * u_k + s),
            p_k * bracket ** (2.0 * g / (g - 1.0)),
        )
        return tuple(
            np.where(s <= head, k, np.where(s >= tail, star, f))
            for k, star, f in zip((rho_k, u_k, p_k), (rho_star, u_star, ps), fan)
        )

    def sample(self, xi):
        """Primitive (rho, u, p) arrays at the similarity speeds xi = x/t."""
        xi = np.asarray(xi, dtype=float)
        left = self._left_wave(xi, self.rho_l, self.u_l, self.p_l, self.a_l, self.u_star)
        rho_r, u_r, p_r = self._left_wave(
            -xi, self.rho_r, -self.u_r, self.p_r, self.a_r, -self.u_star
        )
        right = (rho_r, -u_r, p_r)
        on_left = xi <= self.u_star
        return tuple(np.where(on_left, lv, rv) for lv, rv in zip(left, right))

    def wave_speeds(self):
        """Speeds at which the solution is not smooth, ascending."""
        g = self.gamma
        speeds = [self.u_star]
        for sign, u_k, p_k, a_k in ((-1.0, self.u_l, self.p_l, self.a_l),
                                    (1.0, self.u_r, self.p_r, self.a_r)):
            ratio = self.p_star / p_k
            if ratio > 1.0:
                speeds.append(
                    u_k + sign * a_k * math.sqrt((g + 1.0) / (2.0 * g) * ratio + (g - 1.0) / (2.0 * g))
                )
            else:
                a_star = a_k * ratio ** ((g - 1.0) / (2.0 * g))
                speeds += [u_k + sign * a_k, self.u_star + sign * a_star]
        return sorted(speeds)

    def conserved(self, x, x0: float, t: float):
        """Conserved states (rho, rho u, E) at positions x, shape x.shape + (3,)."""
        rho, u, p = self.sample((np.asarray(x, dtype=float) - x0) / t)
        energy = p / (self.gamma - 1.0) + 0.5 * rho * u * u
        return np.stack([rho, rho * u, energy], axis=-1)


def burgers_characteristic(x, t: float, phase: float = 0.0):
    """Solution of u_t + (u^2/2)_x = 0 with u0 = sin(pi (x - phase)), t < 1/pi.

    Along characteristics u(x, t) = u0(xi) with xi + t u0(xi) = x; before the
    shock time 1/pi the foot point xi is unique and Newton's method converges
    from xi = x - t u0(x).
    """
    if not 0.0 <= t < 1.0 / math.pi:
        raise ValueError(f"t={t} is not before the shock time 1/pi")
    x = np.asarray(x, dtype=float)
    xi = x - t * np.sin(np.pi * (x - phase))
    for _ in range(50):
        arg = np.pi * (xi - phase)
        step = (xi + t * np.sin(arg) - x) / (1.0 + t * np.pi * np.cos(arg))
        xi = xi - step
        if np.max(np.abs(step), initial=0.0) < 1e-15:
            break
    return np.sin(np.pi * (xi - phase))


def _erf_difference(hi, lo):
    """erf(hi) - erf(lo), through erfc on the positive side to keep digits."""
    if lo >= 0.0:
        return math.erfc(lo) - math.erfc(hi)
    if hi <= 0.0:
        return math.erfc(-hi) - math.erfc(-lo)
    return math.erf(hi) - math.erf(lo)


def bump_density_averages(lo, hi, centre: float, length: float):
    """Exact averages of rho = 1 + exp(-d^2 / 2) over cells [lo_i, hi_i].

    d is the distance to the nearest periodic image of ``centre`` on the
    period ``length``; a cell holding the point opposite the centre is split
    there, where the nearest image changes.
    """
    scale = math.sqrt(0.5 * math.pi)
    root2 = math.sqrt(2.0)
    out = np.empty(len(lo))
    for i, (l, h) in enumerate(zip(map(float, lo), map(float, hi))):
        cuts = [l, h]
        for k in range(-2, 3):
            opposite = centre + 0.5 * length + k * length
            if l < opposite < h:
                cuts.insert(1, opposite)
        total = 0.0
        for s_lo, s_hi in zip(cuts[:-1], cuts[1:]):
            image = centre + length * round((0.5 * (s_lo + s_hi) - centre) / length)
            total += scale * _erf_difference((s_hi - image) / root2, (s_lo - image) / root2)
        out[i] = 1.0 + total / (h - l)
    return out
