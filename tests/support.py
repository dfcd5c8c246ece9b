"""Test helpers that several test files share, each defined once.

- ``admissible_states``: the one sampler of random admissible states;
- ``builtin_setup`` and ``scenario_state``: a builtin scenario set up as
  ``specvol run`` sets it up, at t = 0 or solved to a given time;
- ``two_pass_sigma``: the tests' one formula for sigma, written apart from
  the solver's ``riemann._sigma_from_parts``;
- ``REPORT_ATTRIBUTES``: the fields of a correction report.

Test files import it as a plain module. It is not named ``oracles``: that
is the name of ``perfbench/oracles.py``, and pytest puts both directories
on ``sys.path`` when it collects them in one run.
"""

import dataclasses

import numpy as np

from specvol import cli
from specvol.cli import BUILTIN_SCENARIOS
from specvol.systems import primitive_to_conserved
from specvol.timeint import init_field, integrate

REPORT_ATTRIBUTES = ("lambda_ed", "lambda_er_l", "lambda_er_r", "lambda_sum", "lambda_final",
                     "clamped", "den_fallbacks", "sigma_fallbacks", "dropped_demands")


def admissible_states(system, rng, n):
    """n random admissible states of ``system``, shape (n, m).

    Scalar states are uniform in [-3, 3]. Euler states draw rho in [0.1, 3],
    then v in [-2, 2], then p in [0.05, 4].
    """
    if system.m == 1:
        return rng.uniform(-3.0, 3.0, (n, 1))
    rho = rng.uniform(0.1, 3.0, n)
    v = rng.uniform(-2.0, 2.0, n)
    p = rng.uniform(0.05, 4.0, n)
    return primitive_to_conserved(rho, v, p, system.gamma)


def builtin_setup(name, **overrides):
    """(state at t = 0, config) of builtin ``name`` with ``overrides``, diagnostics off."""
    scen = dataclasses.replace(BUILTIN_SCENARIOS[name], diagnostics_every=0, **overrides)
    system, grid, u0, breakpoints, config = cli._setup(scen)
    return init_field(u0, grid, system, breakpoints=breakpoints), config


def scenario_state(name, t_end, n_sv=None):
    """(state at t_end, config) of a builtin scenario, at its own n_sv unless given."""
    state, config = builtin_setup(name, t_end=t_end, **({} if n_sv is None else {"n_sv": n_sv}))
    return integrate(state, config)[0], config


def two_pass_sigma(u_l, u_r, f_l, f_r, c, ent_l, ent_r, eflux_l, eflux_r, system):
    """sigma with the admissibility of u_lr and its entropy from separate passes."""
    live = c > 0.0
    sigma = np.zeros(np.shape(c))
    fallbacks = 0
    if np.any(live):
        c_safe = np.where(live, c, 1.0)
        u_lr = 0.5 * (u_l + u_r) + (f_l - f_r) / (2.0 * c_safe[..., None])
        ok = live & system.admissible(u_lr)
        fallbacks = int(np.count_nonzero(live & ~ok))
        if np.any(ok):
            u_mid = np.where(ok[..., None], u_lr, u_l)
            raw = c * (2.0 * system.entropy_raw(u_mid) - ent_l - ent_r) + eflux_l - eflux_r
            sigma = np.where(ok, np.minimum(raw, 0.0), 0.0)
    return sigma, fallbacks
