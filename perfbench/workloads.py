"""The benchmark's three workloads: inputs from a seed, one round, checks.

Each workload calls specvol through module attributes (``timeint.integrate``
and so on), so the spans that ``run.py`` installs see every call. A round is
a fixed set of operations; an operation is one solve or one reference
computation. Checks compare the outputs with the benchmark's own oracles
(``oracles.py``) or with properties the method must have; none compares with
a stored copy of earlier output.
"""

import io
import math
import os
import random
from contextlib import redirect_stdout

import numpy as np

from specvol import cli, mesh, reference, systems, timeint
from specvol.riemann import PeriodicBC

from oracles import EulerRiemann, bump_density_averages, burgers_characteristic, cell_averages

GAMMA = 1.4


def _seeded(seed: int) -> random.Random:
    return random.Random(f"perfbench-{seed}")


class OperationFailed(Exception):
    """The program reported a failure for one operation."""


class SodRef:
    """``specvol run sod --ref-cells R``: stabilized Euler, N=200, k=4, t=2.

    Seed 0 runs the builtin scenario on [0, 10]. Other seeds run the same
    scenario from a config file on the domain [-s, 10 - s], s a whole number
    of SV widths in [-0.25, 0.25], which moves the diaphragm relative to the
    walls without changing the time step, the step count or the work per
    step. The diaphragm stays on an SV edge: inside an SV the first stage
    fails (see CHANGES.md).
    """

    name = "sod-ref"
    n_sv, n_cv, t_end, ref_cells = 200, 4, 2.0, 10000
    left, right = (1.0, 0.0, 1.0), (0.125, 0.0, 0.1)
    diaphragm = 5.0
    # Tolerances of the checks; the measured values are in the README.
    l1_exact_tol = 1.0e-2
    l1_ref_tol = 2.0e-2
    ref_exact_tol = 2.2e-2
    conservation_tol = 1e-12

    def __init__(self, seed: int, work_dir: str):
        sv_shift = 0 if seed == 0 else _seeded(seed).randint(-5, 5)
        self.a, self.b = -sv_shift / 20.0, 10.0 - sv_shift / 20.0
        self.out_dir = os.path.join(work_dir, "out")
        if seed == 0:
            self.target = "sod"
        else:
            self.target = os.path.join(work_dir, "sod.cfg")
            with open(self.target, "w") as fh:
                fh.write(
                    "[scenario]\nname = sod\nsystem = euler\ninitial = sod\n"
                    f"a = {self.a!r}\nb = {self.b!r}\nn_sv = {self.n_sv}\n"
                    f"n_cv = {self.n_cv}\nbc = fixed\nt_end = {self.t_end!r}\n"
                    "cfl = 0.1\nstabilization = true\n"
                )
        self.ops_per_round = 2  # the solve and the reference

    def run_round(self):
        argv = ["run", self.target, "--ref-cells", str(self.ref_cells), "--out-dir", self.out_dir]
        with redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise OperationFailed(f"specvol {' '.join(argv)} exited with {status}")
        return {
            "solution": np.loadtxt(os.path.join(self.out_dir, "sod_solution.csv"),
                                   delimiter=",", skiprows=2),
            "reference": np.loadtxt(os.path.join(self.out_dir, "sod_reference.csv"),
                                    delimiter=",", skiprows=2),
        }

    def _exact_rho_l1(self, sol, table):
        """L1 distance of column rho between a CSV table and exact averages."""
        centre, width = table[:, 0], table[:, 1]
        lo, hi = centre - 0.5 * width, centre + 0.5 * width
        breaks = [self.diaphragm + s * self.t_end for s in sol.wave_speeds()]
        exact = cell_averages(
            lambda x: sol.sample((x - self.diaphragm) / self.t_end)[0], lo, hi, breaks
        )
        return float(np.sum(width * np.abs(table[:, 2] - exact)))

    def check(self, out):
        sol = EulerRiemann(self.left, self.right, GAMMA)
        num, ref = out["solution"], out["reference"]
        width, rho, mom, energy = num[:, 1], num[:, 2], num[:, 3], num[:, 4]
        pressure = (GAMMA - 1.0) * (energy - 0.5 * mom * mom / rho)
        ref_rho = np.interp(num[:, 0], ref[:, 0], ref[:, 2])
        left_len, right_len = self.diaphragm - self.a, self.b - self.diaphragm
        mass0 = self.left[0] * left_len + self.right[0] * right_len
        energy0 = (self.left[2] * left_len + self.right[2] * right_len) / (GAMMA - 1.0)
        momentum_gain = (self.left[2] - self.right[2]) * self.t_end
        values = {
            "l1_rho_vs_exact": self._exact_rho_l1(sol, num),
            "l1_rho_vs_reference": float(np.sum(width * np.abs(rho - ref_rho))),
            "reference_l1_rho_vs_exact": self._exact_rho_l1(sol, ref),
            "mass_rel": abs(np.dot(width, rho) - mass0) / mass0,
            "energy_rel": abs(np.dot(width, energy) - energy0) / energy0,
            "momentum_rel": abs(np.dot(width, mom) - momentum_gain) / momentum_gain,
        }
        failures = []
        if num.shape[0] != self.n_sv * self.n_cv or ref.shape[0] != self.ref_cells:
            failures.append(f"unexpected CSV sizes {num.shape} / {ref.shape}")
        if not (np.all(rho > 0.0) and np.all(pressure > 0.0) and np.all(np.isfinite(num))):
            failures.append("inadmissible state in the solution CSV")
        for key, tol in (("l1_rho_vs_exact", self.l1_exact_tol),
                         ("l1_rho_vs_reference", self.l1_ref_tol),
                         ("reference_l1_rho_vs_exact", self.ref_exact_tol),
                         ("mass_rel", self.conservation_tol),
                         ("energy_rel", self.conservation_tol),
                         ("momentum_rel", self.conservation_tol)):
            if not values[key] <= tol:
                failures.append(f"{key}={values[key]:.3e} > {tol:.1e}")
        return values, failures


class BumpConv:
    """Refinement study of the advected Euler density bump, stabilized, t=10.

    rho = 1 + exp(-d^2/2) with v = p = 1 on the periodic domain [0, 10], d
    the distance to the nearest periodic image of the bump centre. Seed 0
    centres the bump at 5, the builtin ``density-bump`` scenario; other
    seeds move the centre within [4.5, 5.5]. The point opposite the centre,
    where the nearest image changes, is passed to ``init_field`` as a
    breakpoint. The step count depends only on N.
    """

    name = "bump-conv"
    n_list = (10, 13, 16, 19, 22)
    n_cv, t_end, length = 4, 10.0, 10.0
    min_order = 3.5
    conservation_tol = 1e-12

    def __init__(self, seed: int, work_dir: str):
        self.centre = 5.0 if seed == 0 else 5.0 + _seeded(seed).uniform(-0.5, 0.5)
        self.opposite = (self.centre + 0.5 * self.length) % self.length
        self.system = systems.euler_system(GAMMA)
        self.ops_per_round = len(self.n_list)

    def _density(self, x):
        d = np.asarray(x, dtype=float) - self.centre
        d = np.where(d > 0.5 * self.length, d - self.length, d)
        d = np.where(d < -0.5 * self.length, d + self.length, d)
        return 1.0 + np.exp(-0.5 * d**2)

    def _u0(self, x):
        rho = self._density(x)
        return systems.primitive_to_conserved(rho, np.ones_like(rho), np.ones_like(rho), GAMMA)

    def run_round(self):
        results = []
        for n_sv in self.n_list:
            grid = mesh.build_grid(0.0, self.length, n_sv, self.n_cv)
            state = timeint.init_field(self._u0, grid, self.system, 8, (self.opposite,))
            config = timeint.SolverConfig(t_end=self.t_end, cfl=0.1, bc=PeriodicBC())
            final, diag = timeint.integrate(state, config)
            # One period later the exact solution is the initial condition.
            l1 = reference.error_norms(final, self._u0, "L1")
            l2 = reference.error_norms(final, self._u0, "L2")
            results.append((grid, state.data, final.data, l1, l2))
        return {"results": results}

    def check(self, out):
        errors, failures, drift = [], [], 0.0
        for grid, initial, final, _, _ in out["results"]:
            lo, hi = grid.cv_edges[:, :-1].ravel(), grid.cv_edges[:, 1:].ravel()
            rho = bump_density_averages(lo, hi, self.centre, self.length)
            exact = np.stack([rho, rho, 2.5 + 0.5 * rho], axis=-1)
            widths = (hi - lo)[:, None]
            num = final.reshape(-1, 3)
            errors.append(float(np.sum(widths * np.abs(num - exact))))
            total0 = np.sum(widths * initial.reshape(-1, 3), axis=0)
            total1 = np.sum(widths * num, axis=0)
            drift = max(drift, float(np.max(np.abs(total1 - total0) / np.abs(total0))))
            if not np.all(np.isfinite(num)):
                failures.append(f"non-finite state at N={grid.num_sv}")
        ns = np.asarray(self.n_list, dtype=float)
        order = float(-np.polyfit(np.log(ns), np.log(errors), 1)[0])
        values = {"ls_order_l1": order, "conservation_rel": drift}
        values.update({f"l1_n{n}": e for n, e in zip(self.n_list, errors)})
        if not order >= self.min_order:
            failures.append(f"least-squares L1 order {order:.3f} < {self.min_order}")
        if not drift <= self.conservation_tol:
            failures.append(f"conservation drift {drift:.3e} > {self.conservation_tol:.0e}")
        return values, failures


class BurgersLargePure:
    """Burgers sine, N=20000, k=4, pure SV scheme (no stabilization), periodic.

    u0 = sin(pi (x - phase)) on [0, 2]. Seed 0 has phase 0, the builtin
    ``burgers-sine`` data; other seeds draw the phase from [0, 2). The end
    time is 300.5 frozen steps of the unit-speed CFL step, so every seed
    takes 300 full steps and one half step, long before the shock at 1/pi.
    """

    name = "burgers-large-pure"
    n_sv, n_cv, steps = 20000, 4, 300
    l1_tol = 1e-12
    chunk = 2000  # SVs per oracle batch, to keep the check's memory small

    def __init__(self, seed: int, work_dir: str):
        self.phase = 0.0 if seed == 0 else _seeded(seed).uniform(0.0, 2.0)
        self.system = systems.burgers_system()
        sv_width = 2.0 / self.n_sv
        # Smallest Gauss-Lobatto CV of k=4: (1 - sqrt(3/7)) / 2 of the SV.
        dt_unit = 0.1 * 0.5 * sv_width * (1.0 - math.sqrt(3.0 / 7.0))
        self.t_end = (self.steps + 0.5) * dt_unit
        self.ops_per_round = 1

    def _u0(self, x):
        return np.sin(np.pi * (x - self.phase))

    def run_round(self):
        grid = mesh.build_grid(0.0, 2.0, self.n_sv, self.n_cv)
        state = timeint.init_field(self._u0, grid, self.system)
        config = timeint.SolverConfig(
            t_end=self.t_end, cfl=0.1, bc=PeriodicBC(), stabilization_enabled=False
        )
        final, diag = timeint.integrate(state, config)
        return {"grid": grid, "initial": state.data, "final": final.data, "steps": diag.steps}

    def check(self, out):
        grid, initial, final = out["grid"], out["initial"][..., 0], out["final"][..., 0]
        widths = grid.cv_widths
        l1 = 0.0
        for s in range(0, self.n_sv, self.chunk):
            lo, hi = grid.cv_edges[s:s + self.chunk, :-1], grid.cv_edges[s:s + self.chunk, 1:]
            exact = cell_averages(
                lambda x: burgers_characteristic(x, self.t_end, self.phase), lo.ravel(), hi.ravel()
            ).reshape(lo.shape)
            l1 += float(np.sum(widths * np.abs(final[s:s + self.chunk] - exact)))
        scale = float(np.sum(widths * np.abs(initial)))
        drift = abs(float(np.sum(widths * final)) - float(np.sum(widths * initial))) / scale
        values = {
            "l1_vs_characteristics": l1,
            "conservation_rel_l1": drift,
            "max_abs_u": float(np.max(np.abs(final))),
            "steps": out["steps"],
        }
        failures = []
        if out["steps"] != self.steps + 1:
            failures.append(f"took {out['steps']} steps, expected {self.steps + 1}")
        if not l1 <= self.l1_tol:
            failures.append(f"L1 against characteristics {l1:.3e} > {self.l1_tol:.0e}")
        if not drift <= 1e-12:
            failures.append(f"conservation drift {drift:.3e} > 1e-12")
        if not values["max_abs_u"] <= 1.0 + 1e-12:
            failures.append(f"max|u| = {values['max_abs_u']!r} exceeds 1")
        return values, failures


WORKLOADS = {w.name: w for w in (SodRef, BumpConv, BurgersLargePure)}
