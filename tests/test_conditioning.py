"""Dominance shifts and the band-preserving reduction to tridiagonal form."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import (dense_solve, exact_dense_rows, pd_shift_rows,
                     pivoted_fraction_solve, reduce_rows, rel_inf_err,
                     td_shift_rows, weakly_dominant_rows)
from radialheat import (LayerSpec, LinearSystem, MaterialModel, PentaMatrix,
                        Polynomial, ReductionBreakdownError, TriMatrix,
                        assemble_system, build_mesh, build_pd_shift,
                        build_td_shift, contact_conductivities, pd_to_td)
from radialheat.bench import (DEFAULT_MATERIALS, constructed_profile,
                              default_layers, make_random_system)
from radialheat.exact_solvers import exact_solve_td


MATERIALS = {
    "a": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((2.0,))),
    "b": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((0.5,))),
}


def assembled(mesh, tau=0.25, slope=0.3):
    u = [1.0 + slope * (r - 1.0) for r in mesh.nodes.tolist()]
    return u, assemble_system(mesh, MATERIALS, u, u, tau)


def random_two_layer_mesh(rng):
    w1, w2 = rng.uniform(0.3, 2.0, 2)
    c1, c2 = (int(c) for c in rng.integers(4, 9, 2))
    return build_mesh([
        LayerSpec(1.0, 1.0 + w1, "a", c1),
        LayerSpec(1.0 + w1, 1.0 + w1 + w2, "b", c2),
    ])


# ---------------------------------------------------------------------------
# pentadiagonal shift
# ---------------------------------------------------------------------------

def test_pd_shift_boundary_entries():
    mesh = build_mesh([LayerSpec(1.0, 2.0, "a", 4), LayerSpec(2.0, 4.0, "b", 4)])
    shift = build_pd_shift(assembled(mesh)[1].matrix)
    assert shift.entries[0] == 2 * 0.25**2 == 0.125
    assert shift.entries[mesh.n - 1] == 2 * 0.5**2
    assert shift.designated_rows == (0, 4, 8)


def test_pd_shift_contact_entry_unit_steps():
    mesh = build_mesh([LayerSpec(1.0, 5.0, "a", 4), LayerSpec(5.0, 9.0, "b", 4)])
    unit = MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((1.0,)))
    u = [1.0] * mesh.n
    system = assemble_system(mesh, {"a": unit, "b": unit}, u, u, 0.25)
    shift = build_pd_shift(system.matrix)
    assert shift.entries[4] == 2.0  # 2*1*1/(1*2) + 2*1*1/(1*2)


def test_pd_shift_equals_the_closed_form():
    # exact: the deficits read off the matrix are the paper's entries over Q
    mesh = build_mesh(default_layers(200, 11, exact=True))
    u = constructed_profile(mesh, 3).tolist()
    system = assemble_system(mesh, DEFAULT_MATERIALS, u, u, Fraction(1, 1000))
    entries = build_pd_shift(system.matrix).entries.tolist()
    oracle = pd_shift_rows(mesh, contact_conductivities(mesh, DEFAULT_MATERIALS, u))
    assert entries == oracle
    assert all(isinstance(p, Fraction) for p in entries if p != 0)
    # float: the same up to the rounding of the two formulas
    rng = np.random.default_rng(8)
    for _ in range(20):
        mesh = random_two_layer_mesh(rng)
        u, system = assembled(mesh, tau=float(rng.uniform(0.01, 10.0)))
        shift = build_pd_shift(system.matrix)
        oracle = np.array(pd_shift_rows(
            mesh, contact_conductivities(mesh, MATERIALS, u)))
        rows = list(shift.designated_rows)
        assert rows == [0, *mesh.contact_indices, mesh.n - 1]
        assert np.all(shift.entries[rows] > 0)
        rel = np.abs(shift.entries[rows] - oracle[rows]) / oracle[rows]
        assert rel.max() <= 1e-15
        assert np.count_nonzero(shift.entries) == len(rows)


def test_pd_shift_makes_assembled_system_weakly_dominant():
    rng = np.random.default_rng(21)
    for _ in range(20):
        mesh = random_two_layer_mesh(rng)
        u, system = assembled(mesh, tau=float(rng.uniform(0.01, 10.0)))
        # interior rows already dominant before any shift
        flags = weakly_dominant_rows(system.matrix, rtol=1e-14)
        deficient = {i for i, ok in enumerate(flags) if not ok}
        assert deficient <= set(system.matrix.full_rows)
        shift = build_pd_shift(system.matrix)
        assert weakly_dominant_rows(shift.apply(system.matrix), rtol=1e-12).all()


def test_shift_touches_only_diagonal_at_designated_rows():
    mesh = build_mesh([LayerSpec(1.0, 2.0, "a", 4), LayerSpec(2.0, 4.0, "b", 4)])
    _, system = assembled(mesh)
    shift = build_pd_shift(system.matrix)
    shifted = shift.apply(system.matrix)
    assert np.array_equal(shifted.d1m, system.matrix.d1m)
    assert np.array_equal(shifted.d1p, system.matrix.d1p)
    assert np.array_equal(shifted.d2m, system.matrix.d2m)
    assert np.array_equal(shifted.d2p, system.matrix.d2p)
    changed = {i for i in range(mesh.n)
               if shifted.d0[i] != system.matrix.d0[i]}
    assert changed == set(shift.designated_rows)


# ---------------------------------------------------------------------------
# reduction to tridiagonal
# ---------------------------------------------------------------------------

def test_already_tridiagonal_input_passes_through():
    rng = np.random.default_rng(4)
    td_pattern = make_random_system(12, 0, rng)
    # zero out the outer entries entirely: no full rows
    m = td_pattern.matrix
    m.d2p[0] = 0.0
    m.d2m[11] = 0.0
    system = LinearSystem(PentaMatrix(m.d2m, m.d1m, m.d0, m.d1p, m.d2p, ()),
                          td_pattern.rhs)
    reduced = pd_to_td(system)
    assert np.array_equal(reduced.matrix.sub, m.d1m)
    assert np.array_equal(reduced.matrix.diag, m.d0)
    assert np.array_equal(reduced.matrix.sup, m.d1p)
    assert np.array_equal(reduced.rhs, system.rhs)


def test_small_system_reduction_matches_dense_oracle():
    # 3x3 with a (0,2) entry eliminated against row 1
    matrix = PentaMatrix(
        d2m=np.zeros(3), d1m=np.array([0.0, 1.0, 1.0]),
        d0=np.array([2.0, 2.0, 2.0]), d1p=np.array([1.0, 1.0, 0.0]),
        d2p=np.array([1.0, 0.0, 0.0]), full_rows=(0,))
    rhs = np.array([1.0, 2.0, 3.0])
    system = LinearSystem(matrix, rhs)
    x_ref = dense_solve(system)
    reduced = pd_to_td(system)
    assert reduced.matrix.to_dense()[0, 2] == 0.0
    x_red = dense_solve(reduced)
    assert rel_inf_err(x_red, x_ref) < 1e-14


def test_assembled_reduction_preserves_solution():
    mesh = build_mesh([LayerSpec(1.0, 2.0, "a", 4), LayerSpec(2.0, 4.0, "b", 4)])
    u, system = assembled(mesh)
    x_ref = dense_solve(system)
    reduced = pd_to_td(system)
    assert reduced.matrix.contact_rows == (4,)
    x_red = dense_solve(reduced)
    assert rel_inf_err(x_red, x_ref) < 1e-12
    dense = reduced.matrix.to_dense()
    assert np.count_nonzero(np.triu(dense, 2)) == 0
    assert np.count_nonzero(np.tril(dense, -2)) == 0


def test_reduction_is_exact_over_rationals():
    rng = np.random.default_rng(17)
    system = make_random_system(12, 2, rng, exact=True)
    x_pd = pivoted_fraction_solve(exact_dense_rows(system.matrix),
                                  system.rhs.tolist())
    reduced = pd_to_td(system)
    x_td = pivoted_fraction_solve(exact_dense_rows(reduced.matrix),
                                  reduced.rhs.tolist())
    assert x_pd == x_td  # componentwise exact equality


def test_reduction_matches_row_oracle_bit_for_bit():
    rng = np.random.default_rng(23)
    mesh = build_mesh(default_layers(200, 5))
    systems = [assembled(mesh)[1], make_random_system(40, 4, rng),
               make_random_system(40, 4, rng, exact=True)]
    for system in systems:
        reduced = pd_to_td(system)
        m = reduced.matrix
        got = [band.tolist() for band in (m.sub, m.diag, m.sup, reduced.rhs)]
        assert got == list(reduce_rows(system))


def test_reduction_breakdown_reports_row():
    matrix = PentaMatrix(
        d2m=np.zeros(3), d1m=np.array([0.0, 1.0, 1.0]),
        d0=np.array([2.0, 2.0, 2.0]), d1p=np.array([1.0, 0.0, 0.0]),
        d2p=np.array([1.0, 0.0, 0.0]), full_rows=(0,))
    system = LinearSystem(matrix, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ReductionBreakdownError) as err:
        pd_to_td(system)
    assert err.value.row == 0

    # full rows 0, 3 (a contact) and 6: a zero in the neighbour row that
    # clears one outer entry breaks down that side alone
    n = 7
    for row, neighbour, side in ((0, 1, "super"), (6, 5, "sub"),
                                 (3, 2, "sub"), (3, 4, "super")):
        matrix = PentaMatrix(
            d2m=np.array([0, 0, 0, 1, 0, 0, 1.0]), d1m=np.array([0] + [1.0] * 6),
            d0=np.full(n, 4.0), d1p=np.array([1.0] * 6 + [0]),
            d2p=np.array([1, 0, 0, 1, 0, 0, 0.0]), full_rows=(0, 3, 6))
        (matrix.d1p if side == "super" else matrix.d1m)[neighbour] = 0.0
        with pytest.raises(ReductionBreakdownError,
                           match=f"row {neighbour} has a zero {side}-diagonal "
                                 f"entry; cannot eliminate the "
                                 f"\\({row},{2 * neighbour - row}\\)") as err:
            pd_to_td(LinearSystem(matrix, np.ones(n)))
        assert err.value.row == row


# ---------------------------------------------------------------------------
# tridiagonal shift
# ---------------------------------------------------------------------------

def test_td_shift_edge_entries():
    td = TriMatrix(sub=np.array([0.0, 1.0, -0.25]),
                   diag=np.array([1.0, 3.0, 1.0]),
                   sup=np.array([-2.0, 1.0, 0.0]))
    shift = build_td_shift(td)
    assert shift.entries[0] == 2.0  # |sup of first row|
    assert shift.entries[2] == 0.25  # |sub of last row|


def test_td_shift_contact_entry_sums_magnitudes():
    td = TriMatrix(sub=np.array([0.0, 1.0, -1.5, 1.0, 0.3]),
                   diag=np.ones(5), sup=np.array([-2.0, 1.0, 0.5, 1.0, 0.0]),
                   contact_rows=(2,))
    shift = build_td_shift(td)
    assert shift.entries[2] == 2.0  # |-1.5| + |0.5|


def test_td_shift_dominantizes_reduced_assembled_systems():
    rng = np.random.default_rng(33)
    for _ in range(20):
        mesh = random_two_layer_mesh(rng)
        u, system = assembled(mesh, tau=float(rng.uniform(0.01, 10.0)))
        reduced = pd_to_td(system)
        shift = build_td_shift(reduced.matrix)
        shifted = shift.apply(reduced.matrix)
        flags = weakly_dominant_rows(shifted, rtol=1e-12)
        for i in shift.designated_rows:
            assert flags[i]
        assert flags.all()
        # assembled systems never need the extension in practice
        assert shift.extended_rows == ()


def test_td_shift_extension_covers_other_deficient_rows():
    td = TriMatrix(sub=np.array([0.0, 5.0, 1.0]),
                   diag=np.array([2.0, 1.0, 4.0]),
                   sup=np.array([1.0, 5.0, 0.0]))
    shift = build_td_shift(td)
    assert shift.extended_rows == (1,)
    assert weakly_dominant_rows(shift.apply(td)).all()


def test_td_shift_fixed_point_consistency_exact():
    # the dominantized fixed point keeps the original solution: for the
    # exact solution x of A x = b, (A + P) x = b + P x holds identically
    rng = np.random.default_rng(51)
    system = make_random_system(10, 1, rng, exact=True)
    reduced = pd_to_td(system)
    x = exact_solve_td(reduced)
    shift = build_td_shift(reduced.matrix)
    shifted = shift.apply(reduced.matrix)
    lhs = shifted.matvec(np.array(x, dtype=object))
    rhs = reduced.rhs + shift.feedback(np.array(x, dtype=object))
    assert all(a == b for a, b in zip(lhs.tolist(), rhs.tolist()))


def test_td_shift_matches_row_scan_float_and_exact():
    rng = np.random.default_rng(12)
    extended_seen = 0
    for trial in range(10):
        n = 40
        sub, sup = rng.normal(size=(2, n))
        diag = 2 * rng.normal(size=n)
        sub[0] = sup[-1] = 0.0
        # deficits just inside and just outside the float slack
        diag[3] = (abs(sub[3]) + abs(sup[3])) * (1 - 1e-15)
        diag[5] = (abs(sub[5]) + abs(sup[5])) * (1 - 1e-9)
        contacts = (7, 19, 31) if trial % 2 else ()
        float_td = TriMatrix(sub, diag, sup, contacts)
        exact_td = TriMatrix(*(np.array([Fraction(int(v * 64), 9) for v in band],
                                        dtype=object) for band in (sub, diag, sup)),
                             contacts)
        for td in (float_td, exact_td):
            shift = build_td_shift(td)
            entries, extended = td_shift_rows(td)
            assert shift.entries.dtype == (object if td.is_exact else np.float64)
            if td.is_exact:
                assert shift.entries.tolist() == entries
            else:
                assert np.array_equal(shift.entries, np.asarray(entries))
            assert shift.extended_rows == extended
            extended_seen += len(extended)
    assert extended_seen > 0
