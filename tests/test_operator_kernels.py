"""The per-SV operator kernels against the componentwise einsum formula.

``reconstruct_faces``, ``reconstruct_all`` and ``apply_generator`` apply one
(p, k) matrix to every SV as matrix products, which reorder each length-k
sum. They must agree with ``einsum("jl,ilc->ijc", ...)`` to roundoff, return
C-contiguous arrays of the documented shape for any input layout, and leave
the solver's admissibility decisions unchanged, including on non-finite
input. The stage takes its traces from ``timeint.reconstruct_faces``, so the
kernel swaps below replace that name.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specvol import timeint
from specvol.exceptions import InadmissibleStateError, StepFailureError
from specvol.filters import apply_generator, build_generator
from specvol.mesh import build_grid
from specvol.reconstruction import build_reconstruction, reconstruct_all, reconstruct_faces
from specvol.riemann import PeriodicBC
from specvol.systems import euler_system, primitive_to_conserved
from specvol.timeint import SolverConfig, euler_adapted, select_dt
from support import builtin_setup


def einsum_reconstruct(op, data):
    return np.einsum("jl,ilc->ijc", op.combined, np.asarray(data, dtype=float))


def einsum_generator(gen, u, out=None):
    return np.einsum("jl,ilc->ijc", gen.matrix, np.asarray(u, dtype=float), out=out)


def einsum_faces(op, data, out=None):
    """The einsum traces in CV-face order: traces j < k of every SV, then the right ends."""
    traces = einsum_reconstruct(op, data)
    m = traces.shape[2]
    faces = np.concatenate([traces[:, :-1].reshape(-1, m), traces[:, -1]])
    if out is None:
        return faces
    out[...] = faces
    return out


def counted(fn, calls):
    """``fn``, appending to ``calls`` on every call, so a swap can be shown to act."""

    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return wrapper


def in_layout(data, layout):
    """``data`` as a C-ordered, Fortran-ordered or strided (every other SV) array."""
    if layout == "C":
        return np.ascontiguousarray(data)
    if layout == "F":
        return np.asfortranarray(data)
    spread = np.full((2 * data.shape[0],) + data.shape[1:], np.nan)
    spread[::2] = data
    return spread[::2]


@st.composite
def fields(draw):
    """(grid, data): N in [1, 50], k in [1, 6], m in {1, 3}, any of three layouts."""
    n_sv, k = draw(st.integers(1, 50)), draw(st.integers(1, 6))
    m = draw(st.sampled_from([1, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    data = scale * np.random.default_rng(seed).normal(size=(n_sv, k, m))
    grid = build_grid(0.0, 1.0, n_sv, k)
    return grid, in_layout(data, draw(st.sampled_from(["C", "F", "strided"])))


def assert_close_to(got, want, data, norm=1.0):
    """|got - want| <= 1e-13 * max|data| * norm, elementwise."""
    bound = 1e-13 * float(np.max(np.abs(data))) * norm
    assert float(np.max(np.abs(got - want), initial=0.0)) <= bound


class TestPerSvProduct:
    @settings(max_examples=200, deadline=None)
    @given(fields())
    def test_reconstruct_all_matches_einsum(self, case):
        grid, data = case
        op = build_reconstruction(grid)
        got = reconstruct_all(op, data)
        n_sv, k, m = data.shape
        assert got.shape == (n_sv, k + 1, m) and got.dtype == np.float64
        assert got.flags.c_contiguous
        assert_close_to(got, einsum_reconstruct(op, data), data)

    @settings(max_examples=200, deadline=None)
    @given(fields())
    def test_reconstruct_faces_matches_einsum(self, case):
        grid, data = case
        op = build_reconstruction(grid)
        got = reconstruct_faces(op, data)
        n_sv, k, m = data.shape
        assert got.shape == (n_sv * (k + 1), m) and got.dtype == np.float64
        assert got.flags.c_contiguous
        assert_close_to(got, einsum_faces(op, data), data)
        # reconstruct_all holds the same values in the (N, k+1, m) layout.
        traces = reconstruct_all(op, data)
        assert traces[:, :k].tobytes() == got[: n_sv * k].tobytes()
        assert traces[:, k].tobytes() == got[n_sv * k :].tobytes()
        # Written into a given array, bit for bit the same.
        out = np.full_like(got, np.nan)
        assert reconstruct_faces(op, data, out=out) is out
        assert out.tobytes() == got.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_scalar_faces_equal_one_product(self, n_sv, k, seed):
        # A scalar field's traces are those of one (N, k) @ (k, k+1) matrix
        # product, bit for bit: no trace comes from a matrix-vector kernel,
        # which would sum in another order.
        op = build_reconstruction(build_grid(0.0, 1.0, n_sv, k))
        data = np.random.default_rng(seed).normal(size=(n_sv, k, 1))
        traces = data.reshape(n_sv, k) @ op.combined.T
        got = reconstruct_faces(op, data)
        assert got[: n_sv * k, 0].tobytes() == np.ascontiguousarray(traces[:, :k]).tobytes()
        assert got[n_sv * k :, 0].tobytes() == np.ascontiguousarray(traces[:, k]).tobytes()

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_cached_blocks_are_c_contiguous(self, k):
        # For m = 1 kron(A^T, I_1) comes out F-ordered, and OpenBLAS runs an
        # F-ordered block about 3x slower: every block kept for N >= 2 is
        # C-ordered, for both component counts and both operators.
        grid = build_grid(0.0, 1.0, 5, k)
        op, gen = build_reconstruction(grid), build_generator(grid.cv_widths)
        for m in (1, 3):
            data = np.ones((5, k, m))
            reconstruct_faces(op, data)
            apply_generator(gen, data)
        assert sorted(op._blocks) == [("left", 1), ("left", 3), ("right", 1), ("right", 3)]
        assert sorted(gen._blocks) == [("matrix", 1), ("matrix", 3)]
        for cache in (op._blocks, gen._blocks):
            assert all(b.flags.c_contiguous for b in cache.values())

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_one_sv_filter_product_is_that_of_the_transpose(self, k):
        # One SV is a one-row product, which numpy runs as a matrix-vector
        # kernel whose sum order follows the block's layout: for m = 1 the
        # block is H^T as it is, bit for bit that product, and nothing is
        # cached. The generator is a copy with blocks of its own: the
        # builder's shared one may hold blocks that other grids with these
        # widths cached.
        gen = dataclasses.replace(build_generator(build_grid(0.0, 1.0, 1, k).cv_widths))
        data = np.random.default_rng(k).normal(size=(1, k, 1))
        got = apply_generator(gen, data)
        assert got[0, :, 0].tobytes() == (data.reshape(1, k) @ gen.matrix.T)[0].tobytes()
        assert not gen._blocks

    @settings(max_examples=200, deadline=None)
    @given(fields())
    def test_apply_generator_matches_einsum(self, case):
        grid, data = case
        gen = build_generator(grid.cv_widths)
        got = apply_generator(gen, data)
        assert got.shape == data.shape and got.dtype == np.float64
        assert got.flags.c_contiguous
        # H's entries grow like 1/h^2; its row norm is 2 max|H_jj|.
        assert_close_to(got, einsum_generator(gen, data), data, max(1.0, 2.0 * gen.max_diag))

    @pytest.mark.parametrize("k", [1, 4])
    def test_one_operator_serves_every_component_count(self, k):
        grid = build_grid(0.0, 1.0, 7, k)
        op, gen = build_reconstruction(grid), build_generator(grid.cv_widths)
        rng = np.random.default_rng(k)
        for m in (1, 3, 1, 3):
            data = rng.normal(size=(7, k, m))
            assert_close_to(reconstruct_all(op, data), einsum_reconstruct(op, data), data)
            assert_close_to(
                apply_generator(gen, data), einsum_generator(gen, data), data,
                max(1.0, 2.0 * gen.max_diag),
            )


def euler_field(n_sv, k, seed):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.9, 1.1, (n_sv, k))
    v = rng.uniform(-0.1, 0.1, (n_sv, k))
    p = rng.uniform(0.9, 1.1, (n_sv, k))
    return primitive_to_conserved(rho, v, p)


# The product spreads a non-finite entry to the other components of its SV
# through 0 * inf, which numpy reports; the trace check rejects the SV anyway.
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
class TestNonFiniteInput:
    """A non-finite component fails the trace check where the einsum path fails it."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("sv, cv, comp", [(0, 0, 0), (4, 2, 1), (9, 3, 2)])
    def test_trace_check_fails_at_the_same_index(self, bad, sv, cv, comp):
        grid = build_grid(0.0, 1.0, 10, 4)
        op, system = build_reconstruction(grid), euler_system()
        data = euler_field(10, 4, seed=sv)
        data[sv, cv, comp] = bad
        got, want = reconstruct_all(op, data), einsum_reconstruct(op, data)
        np.testing.assert_array_equal(system.admissible(got), system.admissible(want))
        with pytest.raises(InadmissibleStateError) as new:
            system.check_admissible(got, "boundary trace")
        with pytest.raises(InadmissibleStateError) as old:
            system.check_admissible(want, "boundary trace")
        assert new.value.where == old.value.where == (sv, 0)

    def test_stage_fails_at_the_same_index(self, monkeypatch):
        grid = build_grid(0.0, 1.0, 10, 4)
        system = euler_system()
        data = euler_field(10, 4, seed=5)
        data[6, 1, 2] = np.inf
        state = timeint.CellAverageField(data, 0.0, grid, system)
        args = (state, 1e-4, SolverConfig(t_end=1.0, bc=PeriodicBC()))
        wheres, calls = [], []
        for swap in (False, True):
            if swap:
                monkeypatch.setattr(timeint, "reconstruct_faces", counted(einsum_faces, calls))
            with pytest.raises(StepFailureError) as err:
                euler_adapted(*args)
            assert err.value.part == "trace"
            wheres.append(err.value.where)
        assert calls == ["einsum_faces"]
        assert wheres[0] == wheres[1] == (6, 0)


class TestStageAgainstEinsumKernels:
    """A whole stabilized stage moves by roundoff only when the kernels are swapped.

    lambda itself is a ratio of two inner products that cancel on smooth
    data, so it amplifies roundoff (on the density bump it moves by 1e-6
    relative). What the stage adds with it, dt * lambda_i * v_i, is bounded
    like the new data.
    """

    @pytest.mark.parametrize("name", ["sod", "density-bump", "burgers-sine", "advect-rect"])
    def test_stage_within_roundoff(self, name, monkeypatch):
        state, config = builtin_setup(name)
        gen = build_generator(state.grid.cv_widths)
        dt = select_dt(state, config.cfl)
        new, report = euler_adapted(state, dt, config)
        calls = []
        monkeypatch.setattr(timeint, "reconstruct_faces", counted(einsum_faces, calls))
        monkeypatch.setattr(timeint, "apply_generator", counted(einsum_generator, calls))
        want, want_report = euler_adapted(state, dt, config)
        assert calls == ["einsum_faces", "einsum_generator"]
        assert_close_to(new.data, want.data, want.data)
        v_max = np.abs(einsum_generator(gen, state.data)).max(axis=(1, 2))
        assert_close_to(dt * report.lambda_final * v_max, dt * want_report.lambda_final * v_max,
                        want.data)
