"""Numerical banded solvers: correctness, counts, breakdown behavior."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import dense_solve, rel_inf_err
from radialheat import (BreakdownError, LayerSpec, LinearSystem, MaterialModel,
                        PentaMatrix, Polynomial, TriMatrix, assemble_system,
                        build_mesh, build_pd_shift, build_td_shift,
                        pd_to_td, solve_pd_lu, solve_pd_modified,
                        solve_td_thomas)
from radialheat.band_solvers import sup_norm
from radialheat.bench import count_ops, make_random_system


def identity_penta(n):
    z = np.zeros(n)
    return PentaMatrix(z.copy(), z.copy(), np.ones(n), z.copy(), z.copy(), ())


def test_identity_systems():
    rng = np.random.default_rng(0)
    b = rng.uniform(-1, 1, 7)
    rep = solve_pd_lu(LinearSystem(identity_penta(7), b.copy()))
    assert np.array_equal(rep.solution, b)
    assert rep.residual_inf == 0.0
    z = np.zeros(7)
    rep_td = solve_td_thomas(LinearSystem(TriMatrix(z.copy(), np.ones(7), z.copy()), b.copy()))
    assert np.array_equal(rep_td.solution, b)


def test_thomas_constructed_all_ones():
    sub = np.array([0.0, 1.0, 1.0])
    diag = np.array([2.0, 2.0, 2.0])
    sup = np.array([1.0, 1.0, 0.0])
    rhs = np.array([3.0, 4.0, 3.0])  # row sums
    rep = solve_td_thomas(LinearSystem(TriMatrix(sub, diag, sup), rhs))
    assert np.allclose(rep.solution, 1.0, atol=1e-15)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_pd_solvers_match_dense_oracle(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(10):
        system = make_random_system(10, k, rng)
        x_ref = dense_solve(system)
        assert rel_inf_err(solve_pd_lu(system).solution, x_ref) < 1e-13
        assert rel_inf_err(solve_pd_modified(system).solution, x_ref) < 1e-13


def test_thomas_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        system = make_random_system(10, 0, rng, kind="td")
        assert rel_inf_err(solve_td_thomas(system).solution,
                           dense_solve(system)) < 1e-13


def test_modified_equals_thomas_on_pure_tridiagonal_pattern():
    # pentadiagonal storage with no full rows at all
    rng = np.random.default_rng(12)
    td = make_random_system(40, 0, rng, kind="td")
    n = td.matrix.n
    z = np.zeros(n)
    penta = PentaMatrix(z.copy(), td.matrix.sub.copy(), td.matrix.diag.copy(),
                        td.matrix.sup.copy(), z.copy(), ())
    x_pd = solve_pd_modified(LinearSystem(penta, td.rhs.copy())).solution
    x_td = solve_td_thomas(td).solution
    assert rel_inf_err(x_pd, x_td) < 1e-13


def test_three_solvers_agree_on_assembled_dominant_system():
    materials = {
        "a": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((2.0,))),
        "b": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((0.5,))),
    }
    mesh = build_mesh([LayerSpec(1.0, 2.0, "a", 40), LayerSpec(2.0, 3.0, "b", 40)])
    u = [1.0 + 0.2 * (r - 1.0) ** 2 for r in mesh.nodes.tolist()]
    system = assemble_system(mesh, materials, u, u, 0.05)
    shift = build_pd_shift(system.matrix)
    shifted = shift.apply(system.matrix)
    rhs = system.rhs + shift.feedback(u)
    pd_sys = LinearSystem(shifted, rhs)
    x1 = solve_pd_lu(pd_sys).solution
    x2 = solve_pd_modified(pd_sys).solution
    assert rel_inf_err(x2, x1) < 1e-12
    reduced = pd_to_td(pd_sys)
    x3 = solve_td_thomas(reduced).solution
    assert rel_inf_err(x3, x1) < 1e-12


def test_op_counts_exact_affine_laws():
    rng = np.random.default_rng(2)
    for n, k in ((10, 0), (10, 3), (50, 1), (400, 5), (1000, 11)):
        system = make_random_system(n, k, rng)
        assert solve_pd_lu(system).op_count == 19 * n - 29
        assert solve_pd_modified(system).op_count == 13 * n + 7 * k - 8
        td = make_random_system(n, 0, rng, kind="td")
        assert solve_td_thomas(td).op_count == 9 * n - 8


def test_op_count_deterministic():
    rng = np.random.default_rng(3)
    system = make_random_system(64, 2, rng)
    assert solve_pd_lu(system).op_count == solve_pd_lu(system).op_count
    assert solve_pd_modified(system).op_count == solve_pd_modified(system).op_count


def test_npdm_count_ignores_sparsity_pattern():
    rng = np.random.default_rng(4)
    counts = {k: solve_pd_lu(make_random_system(200, k, rng)).op_count
              for k in (0, 2, 7)}
    assert len(set(counts.values())) == 1


def test_zero_pivot_breakdown():
    # leading zero diagonal breaks Thomas immediately
    sub = np.array([0.0, 1.0])
    diag = np.array([0.0, 1.0])
    sup = np.array([1.0, 0.0])
    with pytest.raises(BreakdownError) as err:
        solve_td_thomas(LinearSystem(TriMatrix(sub, diag, sup),
                                     np.array([1.0, 2.0])))
    assert err.value.row == 0
    penta = identity_penta(5)
    penta.d0[2] = 0.0
    with pytest.raises(BreakdownError) as err:
        solve_pd_lu(LinearSystem(penta, np.ones(5)))
    assert err.value.row == 2


def test_tiny_pivot_relative_to_row_scale_breaks_down():
    n = 6
    z = np.zeros(n)
    diag = np.full(n, 1e9)
    diag[3] = 1e-22
    sup = z.copy()
    sup[3] = 1e9  # row scale 1e9 -> threshold 1e-21 > diag[3]
    m = TriMatrix(z.copy(), diag, sup)
    with pytest.raises(BreakdownError) as err:
        solve_td_thomas(LinearSystem(m, np.ones(n)))
    assert err.value.row == 3


def test_solvers_do_not_mutate_input():
    rng = np.random.default_rng(5)
    system = make_random_system(20, 1, rng)
    before = system.matrix.to_dense().copy()
    rhs_before = system.rhs.copy()
    solve_pd_lu(system)
    solve_pd_modified(system)
    assert np.array_equal(system.matrix.to_dense(), before)
    assert np.array_equal(system.rhs, rhs_before)


def test_constant_field_reproduced_to_machine_precision():
    materials = {"m": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)),
                                    Polynomial((2.0,)))}
    mesh = build_mesh([LayerSpec(1.0, 2.0, "m", 30)])
    c = 4.5
    u = [c] * mesh.n
    system = assemble_system(mesh, materials, u, u, 0.1)
    shift = build_pd_shift(system.matrix)
    shifted = shift.apply(system.matrix)
    pd_sys = LinearSystem(shifted, system.rhs + shift.feedback(u))
    x = solve_pd_lu(pd_sys).solution
    assert np.max(np.abs(x - c)) < 5e-15 * c


def test_numerical_thomas_runs_exactly_over_fractions():
    rng = np.random.default_rng(6)
    system = make_random_system(8, 0, rng, exact=True, kind="td")
    rep = solve_td_thomas(system)
    assert rep.residual_inf == 0
    assert all(isinstance(v, Fraction) for v in rep.solution.tolist())


def test_sup_norm_propagates_nan_and_stays_exact():
    # a NaN anywhere must reach the Picard stop test, which then fails
    assert np.isnan(sup_norm(np.array([1.0, np.nan, 0.5])))
    assert sup_norm(np.array([-2.5, 1.0])) == 2.5
    exact = sup_norm(np.array([Fraction(-3, 2), Fraction(1)], dtype=object))
    assert exact == Fraction(3, 2) and isinstance(exact, Fraction)


def random_penta(n, full_rows, rng):
    """Dominant float pentadiagonal system whose outer entries sit on
    full_rows only."""
    m = PentaMatrix.zeros(n, full_rows=full_rows)
    m.d1m[1:] = rng.uniform(-1, 1, n - 1)
    m.d1p[:-1] = rng.uniform(-1, 1, n - 1)
    for i in full_rows:
        if i >= 2:
            m.d2m[i] = rng.uniform(-1, 1)
        if i <= n - 3:
            m.d2p[i] = rng.uniform(-1, 1)
    m.d0[:] = 4 + rng.uniform(0, 1, n)
    return LinearSystem(m, rng.uniform(-1, 1, n))


def test_counted_ops_equal_reported_op_count():
    # the closed forms against a count of the kernels' arithmetic, over
    # sizes and full-row sets that include none and the edge rows
    rng = np.random.default_rng(22)
    for n in range(3, 31):
        edges = tuple(sorted({0, 1, n - 2, n - 1}))
        drawn = tuple(np.flatnonzero(rng.random(n) < 0.3).tolist())
        for full_rows in ((), edges, drawn, tuple(range(n))):
            system = random_penta(n, full_rows, rng)
            for solver, fn in (("NPDM", solve_pd_lu),
                               ("MNPDM", solve_pd_modified)):
                assert count_ops(solver, system) == fn(system).op_count, \
                    (solver, n, full_rows)
        td = make_random_system(n, 0, rng, kind="td")
        assert count_ops("NTDM", td) == solve_td_thomas(td).op_count
